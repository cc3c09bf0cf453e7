"""Multi-worker cluster with an Istio-style front end (§3.2).

A :class:`Cluster` holds several workers (each a
:class:`~repro.vm.host.WorkerHost` + orchestrator + autoscaler) and a
:class:`LoadBalancer` that plays the role of vHive's Istio ingress.
Routing preference, in order:

1. a worker with a *free warm instance* of the function (no restore
   work at all);
2. a worker whose *local snapshot tier* holds the most bytes of the
   function's artifacts (snapshot locality: a cold start there restores
   from local SSD instead of paying the remote path, §7.1) -- only
   meaningful when workers run a bounded
   :class:`~repro.snapstore.tier.TierCache`, and bounded by an overflow
   guard so locality never serializes every cold start behind one
   worker's control plane;
3. the least-outstanding worker; under locality-aware routing ties
   break by a rendezvous hash (each function has a stable "home", so
   its artifacts concentrate on one tier instead of churning every
   worker's), otherwise by worker index.  Either way routing is
   deterministic.

The paper's evaluation is single-worker (its distributed stack adds
<30 ms, §4.1); the cluster layer exists so the framework covers the full
vHive architecture and to host the multi-tenant example.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Generator

from repro.core.manager import ReapParameters
from repro.functions.spec import FunctionProfile
from repro.memory.guest import ContentMode
from repro.obs import metrics as obs_metrics
from repro.obs import tracer as obs_tracer
from repro.orchestrator.autoscaler import Autoscaler, AutoscalerParameters
from repro.orchestrator.orchestrator import Orchestrator
from repro.sim.engine import Environment, Event, Interrupt
from repro.sim.rng import derive_seed
from repro.sim.units import SEC
from repro.snapstore.tier import TierParameters
from repro.storage.remote import RemoteOutageError
from repro.vm.host import HostParameters, WorkerHost


class ClusterUnavailableError(RuntimeError):
    """No healthy worker can serve the function right now."""


class InvocationShed(RuntimeError):
    """An invocation was dropped after exhausting its retry budget."""

    def __init__(self, function: str, attempts: int) -> None:
        super().__init__(
            f"invocation of {function!r} shed after {attempts} attempt(s)")
        self.function = function
        self.attempts = attempts


@dataclass
class Worker:
    """One cluster worker: host + orchestrator + autoscaler."""

    index: int
    host: WorkerHost
    orchestrator: Orchestrator
    autoscaler: Autoscaler
    outstanding: int = 0
    #: Crashed workers are cordoned: never routed to again.
    cordoned: bool = False
    #: Processes with an invocation attempt running on this worker,
    #: insertion-ordered so a crash interrupts them deterministically
    #: (dict-as-ordered-set).
    inflight: dict = field(default_factory=dict)


@dataclass
class RouteStats:
    """Front-end routing counters."""

    routed: int = 0
    warm_routed: int = 0
    #: Cold routes decided by snapshot locality (the preference actually
    #: narrowed the candidate set).
    locality_routed: int = 0
    #: Failed invocations replayed on a surviving worker.
    retries: int = 0
    #: Invocations dropped after exhausting the retry budget.
    shed: int = 0
    #: Workers cordoned after a crash.
    cordoned: int = 0
    by_worker: dict[int, int] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable counter snapshot (string-keyed)."""
        return {
            "routed": self.routed,
            "warm_routed": self.warm_routed,
            "locality_routed": self.locality_routed,
            "retries": self.retries,
            "shed": self.shed,
            "cordoned": self.cordoned,
            "by_worker": {str(index): count
                          for index, count in self.by_worker.items()},
        }


def _spread_key(worker: Worker) -> tuple[int, int]:
    """Deterministic least-outstanding order (index breaks ties)."""
    return (worker.outstanding, worker.index)


def _affinity_digest(function_name: str, worker: Worker) -> bytes:
    """Rendezvous-hash rank of a worker for one function.

    Used as the cold-route tie-break: equally loaded, equally local
    workers sort by this digest, so every function has a stable "home"
    and its artifacts concentrate instead of spreading across the whole
    fleet (which would make every worker's tier churn identically).
    """
    return hashlib.sha256(
        f"{function_name}/{worker.index}".encode()).digest()


class LoadBalancer:
    """Warm-affinity, snapshot-locality, least-outstanding router."""

    def __init__(self, workers: list[Worker],
                 locality_aware: bool = True,
                 locality_max_skew: int = 2) -> None:
        if not workers:
            raise ValueError("load balancer needs at least one worker")
        self.workers = workers
        #: Prefer workers whose local snapshot tier holds the function.
        self.locality_aware = locality_aware
        #: Overflow guard: locality preference yields to spreading when
        #: the preferred worker carries this many more outstanding
        #: requests than the least-loaded one (locality must not
        #: serialize every cold start behind one containerd lock).
        self.locality_max_skew = locality_max_skew
        self.env = workers[0].host.env
        self.stats = RouteStats()
        registry = obs_metrics.ACTIVE
        if registry is not None:
            registry.register("route", self.stats)

    def pick(self, function_name: str) -> Worker:
        """Choose the worker for one invocation of ``function_name``.

        Only healthy (non-cordoned) workers that actually have the
        function deployed are eligible -- on *both* the warm and the
        cold path (partial deployment exists whenever a join is mid
        deploy or a crash removed a worker).  Raises ``KeyError`` when
        no worker has the function at all and
        :class:`ClusterUnavailableError` when the deployed workers are
        all cordoned.
        """
        self.stats.routed += 1
        eligible = [worker for worker in self.workers
                    if not worker.cordoned
                    and worker.orchestrator.has_function(function_name)]
        if not eligible:
            if any(worker.orchestrator.has_function(function_name)
                   for worker in self.workers):
                raise ClusterUnavailableError(
                    f"every worker with {function_name!r} is cordoned")
            raise KeyError(
                f"function {function_name!r} not deployed on any worker")
        warm_candidates = []
        for worker in eligible:
            entry = worker.orchestrator.function(function_name)
            state = worker.autoscaler.state_for(function_name)
            if entry.warm and state.in_flight < len(entry.warm):
                warm_candidates.append(worker)
        if warm_candidates:
            self.stats.warm_routed += 1
            kind = "warm"
            chosen = min(warm_candidates, key=_spread_key)
        elif self.locality_aware:
            before = self.stats.locality_routed
            chosen = min(self._cold_candidates(function_name, eligible),
                         key=lambda worker: (
                             worker.outstanding,
                             _affinity_digest(function_name, worker)))
            kind = ("locality" if self.stats.locality_routed > before
                    else "cold")
        else:
            kind = "cold"
            chosen = min(eligible, key=_spread_key)
        self.stats.by_worker[chosen.index] = (
            self.stats.by_worker.get(chosen.index, 0) + 1)
        tracer = obs_tracer.ACTIVE
        if tracer is not None:
            tracer.instant(
                "route", self.env.now, lane="frontend", proc="cluster",
                cat="route",
                args={"function": function_name, "worker": chosen.index,
                      "kind": kind, "outstanding": chosen.outstanding})
        return chosen

    def _cold_candidates(self, function_name: str,
                         eligible: list[Worker]) -> list[Worker]:
        """Workers eligible for a cold route (locality preference)."""
        local_bytes = [
            worker.orchestrator.snapshot_store.locality_bytes(function_name)
            for worker in eligible]
        best = max(local_bytes)
        if best <= 0:
            return eligible
        candidates = [worker for worker, held in zip(eligible, local_bytes)
                      if held == best]
        least_loaded = min(worker.outstanding for worker in eligible)
        if (min(candidates, key=_spread_key).outstanding
                > least_loaded + self.locality_max_skew):
            # Overflow: the snapshot-holding workers are saturated and a
            # remote promote beats queueing behind their control plane.
            return eligible
        if len(candidates) < len(eligible):
            # The preference actually excluded somebody: a locality win.
            self.stats.locality_routed += 1
        return candidates


class Cluster:
    """A fleet of workers behind one front end.

    Usable as a context manager: ``with Cluster(env, ...) as cluster``
    guarantees :meth:`shutdown` runs (stopping the autoscalers' reaper
    processes and any chaos controller) even when the block raises.
    """

    def __init__(self, env: Environment, n_workers: int = 2,
                 host_params: HostParameters | None = None,
                 autoscaler_params: AutoscalerParameters | None = None,
                 reap_params: ReapParameters | None = None,
                 content: ContentMode = ContentMode.METADATA,
                 snapstore_params: "TierParameters | None" = None,
                 locality_aware: bool = True,
                 seed: int = 42, policy_params=None) -> None:
        if n_workers < 1:
            raise ValueError("cluster needs at least one worker")
        self.env = env
        self._seed = seed
        self._host_params = host_params
        self._autoscaler_params = autoscaler_params
        self._reap_params = reap_params
        self._content = content
        self._snapstore_params = snapstore_params
        #: Cold-start policy layer config; each worker gets its *own*
        #: layer (shared residency is per-host page cache, not global).
        self._policy_params = policy_params
        #: Profiles deployed so far (joining workers receive them all).
        self.profiles: list[FunctionProfile] = []
        #: The attached chaos controller, if any
        #: (:class:`repro.chaos.injector.ChaosController` sets this).
        self.chaos: Any = None
        self._closed = False
        self.workers: list[Worker] = []
        for index in range(n_workers):
            self.workers.append(self._make_worker(index))
        self.balancer = LoadBalancer(self.workers,
                                     locality_aware=locality_aware)

    def _make_worker(self, index: int) -> Worker:
        host = WorkerHost(self.env, params=self._host_params,
                          seed=derive_seed(self._seed, "worker", index))
        orchestrator = Orchestrator(
            host, seed=derive_seed(self._seed, "orch", index),
            content=self._content, reap_params=self._reap_params,
            snapstore_params=self._snapstore_params,
            policy_params=self._policy_params)
        autoscaler = Autoscaler(orchestrator, self._autoscaler_params)
        orchestrator.set_obs_proc(f"worker{index}")
        return Worker(index=index, host=host, orchestrator=orchestrator,
                      autoscaler=autoscaler)

    def __enter__(self) -> "Cluster":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.shutdown()

    def deploy(self, profile: FunctionProfile,
               ) -> Generator[Event, Any, None]:
        """Deploy a function (snapshot) on every healthy worker."""
        self.profiles.append(profile)
        for worker in self.workers:
            if worker.cordoned:
                continue
            yield from worker.orchestrator.deploy(profile)

    def join_worker(self) -> Generator[Event, Any, Worker]:
        """Provision a fresh worker and wire it into the front end.

        The worker gets the next never-used index (its seeds derive from
        it, so joins are deterministic), deploys every profile the
        cluster has seen, and becomes routable the moment its deploys
        finish (``self.workers`` is the balancer's own list).
        """
        index = len(self.workers)
        worker = self._make_worker(index)
        for profile in self.profiles:
            yield from worker.orchestrator.deploy(profile)
        self.workers.append(worker)
        return worker

    def invoke(self, function_name: str, **invoke_kwargs,
               ) -> Generator[Event, Any, Any]:
        """Route one invocation through the front end.

        Each attempt runs in the calling process, which is registered in
        the worker's in-flight set meanwhile so a crash interrupts it
        directly.  Failures caused by injected faults are replayed on a
        surviving worker under the chaos controller's retry budget;
        without a controller the budget is zero.
        """
        max_retries = 0 if self.chaos is None else self.chaos.retry.max_retries
        caller = self.env.active_process
        tracer = obs_tracer.ACTIVE
        attempt = 0
        while True:
            try:
                worker = self.balancer.pick(function_name)
            except ClusterUnavailableError:
                self._shed(function_name, attempt, tracer)
            worker.outstanding += 1
            worker.inflight[caller] = None
            try:
                result = yield from worker.autoscaler.invoke(
                    function_name, **invoke_kwargs)
                return result
            except BaseException as error:
                if not _retryable(error):
                    raise
            finally:
                worker.inflight.pop(caller, None)
                worker.outstanding -= 1
            if attempt >= max_retries:
                self._shed(function_name, attempt + 1, tracer)
            self._note_retry(function_name, worker.index, attempt, tracer)
            yield self.env.timeout(
                self.chaos.retry.backoff_s(attempt) * SEC)
            attempt += 1

    def _shed(self, function_name: str, attempts: int, tracer) -> None:
        self.balancer.stats.shed += 1
        if tracer is not None:
            tracer.instant("shed", self.env.now, lane="frontend",
                           proc="cluster", cat="route",
                           args={"function": function_name,
                                 "attempts": attempts})
        raise InvocationShed(function_name, attempts)

    def _note_retry(self, function_name: str, failed_worker: int,
                    attempt: int, tracer) -> None:
        self.balancer.stats.retries += 1
        if tracer is not None:
            tracer.instant("retry", self.env.now, lane="frontend",
                           proc="cluster", cat="route",
                           args={"function": function_name,
                                 "failed_worker": failed_worker,
                                 "attempt": attempt})

    def shutdown(self) -> None:
        """Stop background processes (idempotent; safe to call twice)."""
        if self._closed:
            return
        self._closed = True
        if self.chaos is not None:
            self.chaos.stop()
        for worker in self.workers:
            worker.autoscaler.stop()


def _retryable(error: BaseException) -> bool:
    """Failures the front end replays: injected faults, nothing else.

    A model/programming error must surface, not silently retry; only a
    worker crash (the interrupt cause the chaos controller uses) or a
    remote-storage outage marks the *worker path* -- not the request --
    as the culprit.
    """
    if isinstance(error, RemoteOutageError):
        return True
    return isinstance(error, Interrupt) and error.cause == "worker-crash"
