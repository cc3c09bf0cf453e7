"""The chaos controller: a sim process that executes a fault plan.

One :class:`ChaosController` attaches to a
:class:`~repro.orchestrator.cluster.Cluster` and drives its
:class:`~repro.chaos.plan.FaultPlan` at exact sim times:

* **worker_crash** -- the worker is cordoned first (no new routes),
  then every in-flight invocation process is interrupted with the
  ``"worker-crash"`` cause.  The interrupted generators unwind through
  the existing abort paths -- instance teardown, tier unpin, resource
  release-in-finally -- so the PR-7 sanitizer stays leak-free.  One
  zero-delay yield later (aborts processed, pins dropped) the worker's
  reaper stops, its warm pool is torn down, its local tier contents are
  lost (write-through registration means the remote copies survive),
  and artifacts whose rendezvous home died start re-replicating to the
  next-ranked survivor.
* **worker_join** -- a fresh worker is provisioned through
  :meth:`~repro.orchestrator.cluster.Cluster.join_worker` (deploys
  everything already deployed) and wired to the shared fault state.
* **remote_outage** / **remote_latency_spike** -- the shared
  :class:`~repro.storage.remote.RemoteFaultState` window flips; every
  worker's remote device checks it per request.

Everything the controller does is deterministic: workers are cordoned
before their in-flight set is walked (insertion order), re-replication
iterates deploy order, and the only time source is the environment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator

from repro.chaos.plan import FaultEvent, FaultPlan
from repro.obs import metrics as obs_metrics
from repro.obs import tracer as obs_tracer
from repro.sim.engine import Event, Interrupt
from repro.sim.units import SEC
from repro.storage.remote import RemoteFaultState, RemoteOutageError


@dataclass
class ChaosStats:
    """Counters of the fault injector (registered as ``chaos.*``)."""

    crashes: int = 0
    joins: int = 0
    outages: int = 0
    latency_spikes: int = 0
    #: In-flight invocations aborted by crashes.
    aborted_inflight: int = 0
    #: Local tier bytes lost to crashes.
    lost_local_bytes: int = 0
    #: Functions whose artifacts were re-homed after a crash.
    rereplicated: int = 0
    rereplication_failures: int = 0

    def to_dict(self) -> dict[str, int]:
        """JSON-serializable counter snapshot."""
        return dict(vars(self))


class ChaosController:
    """Deterministic fault injection against one cluster."""

    def __init__(self, cluster, plan: FaultPlan | None = None) -> None:
        self.cluster = cluster
        self.env = cluster.env
        self.plan = plan or FaultPlan()
        # The plan's failover budget governs the cluster's invoke path.
        cluster.retry = self.plan.retry
        self.stats = ChaosStats()
        #: Shared failure switches of every worker's remote device.
        self.fault = RemoteFaultState()
        #: Background re-replication pulls (see :meth:`drain`).
        self._background: list = []
        self._stopped = False
        cluster.chaos = self
        for worker in cluster.workers:
            self._wire(worker)
        registry = obs_metrics.ACTIVE
        if registry is not None:
            registry.register("chaos", self.stats)
        self._driver = self.env.process(self._drive(), name="chaos")

    # -- lifecycle --------------------------------------------------------

    def stop(self) -> None:
        """Cancel the driver and any in-flight re-replication pulls."""
        if self._stopped:
            return
        self._stopped = True
        self._driver.interrupt("chaos-stop")
        for proc in self._background:
            if proc.is_alive:
                proc.interrupt("chaos-stop")

    def drain(self) -> Generator[Event, Any, None]:
        """Wait for background re-replication pulls to finish.

        Cells run this after the replay so no transfer is mid-flight at
        the sanitizer's end-of-run leak check.
        """
        pending = [proc for proc in self._background if proc.is_alive]
        if pending:
            yield self.env.all_of(pending)

    # -- the driver process ----------------------------------------------

    def _drive(self) -> Generator[Event, Any, None]:
        try:
            for event in self.plan.events:
                delay = event.at_s * SEC - self.env.now
                if delay > 0:
                    yield self.env.timeout(delay)
                yield from self._apply(event)
        except Interrupt:
            return

    def _apply(self, event: FaultEvent) -> Generator[Event, Any, None]:
        tracer = obs_tracer.ACTIVE
        if tracer is not None:
            tracer.instant(event.kind, self.env.now, lane="faults",
                           proc="chaos", cat="chaos",
                           args=event.to_dict())
        if event.kind == "worker_crash":
            yield from self._apply_crash(event)
        elif event.kind == "worker_join":
            worker = yield from self.cluster.join_worker()
            self._wire(worker)
            self.stats.joins += 1
        elif event.kind == "remote_outage":
            self.fault.outage_mode = event.mode
            self.fault.outage_until = (self.env.now
                                       + event.duration_s * SEC)
            self.stats.outages += 1
        else:  # remote_latency_spike
            self.fault.latency_multiplier = event.latency_multiplier
            self.fault.bandwidth_factor = event.bandwidth_factor
            self.fault.spike_until = self.env.now + event.duration_s * SEC
            self.stats.latency_spikes += 1

    def _wire(self, worker) -> None:
        worker.orchestrator.snapshot_store.set_remote_fault(self.fault)

    # -- crash semantics --------------------------------------------------

    def _apply_crash(self, event: FaultEvent,
                     ) -> Generator[Event, Any, None]:
        workers = self.cluster.workers
        if not 0 <= event.worker < len(workers):
            return
        worker = workers[event.worker]
        if worker.cordoned:
            return
        # Cordon before aborting: the retries triggered by the aborts
        # must not route back to the dying worker.
        worker.cordoned = True
        self.cluster.balancer.stats.cordoned += 1
        self.stats.crashes += 1
        aborted = 0
        for proc in list(worker.inflight):
            if proc.is_alive:
                proc.interrupt("worker-crash")
                aborted += 1
        self.stats.aborted_inflight += aborted
        if aborted:
            # Let the aborts unwind (teardown, unpin, release all run
            # synchronously inside the interrupted generators) before
            # the tier flush below; the aborted invocations' retries are
            # processed after this process resumes.
            yield self.env.timeout(0)
        worker.autoscaler.stop()
        for name in worker.orchestrator.deployed_names():
            worker.orchestrator.evict_warm(name)
        self.stats.lost_local_bytes += (
            worker.orchestrator.snapshot_store.lose_local())
        self._rereplicate(worker)

    def _rereplicate(self, crashed) -> None:
        """Re-home artifacts whose rendezvous home just died (§3.2).

        For every deployed function whose top-ranked worker (the same
        ``_affinity_digest`` order the cold route uses) was the crashed
        one, the next-ranked survivor proactively promotes the
        function's artifacts into its local tier, so the next cold
        start there is already local (untiered: no replica kinds).
        """
        from repro.orchestrator.cluster import _affinity_digest

        cluster = self.cluster
        healthy = [worker for worker in cluster.workers
                   if not worker.cordoned]
        store = crashed.orchestrator.snapshot_store
        if not healthy or not store.replica_kinds:
            return
        for profile in cluster.profiles:
            name = profile.name

            def rank(worker):
                return _affinity_digest(name, worker)

            home = min(healthy + [crashed], key=rank)
            if home is not crashed:
                continue
            target = min(healthy, key=rank)
            self._background.append(self.env.process(
                self._pull(target.orchestrator.snapshot_store, name),
                name=f"rereplicate:{name}"))

    def _pull(self, store, name: str) -> Generator[Event, Any, None]:
        tracer = obs_tracer.ACTIVE
        try:
            pinned = yield from store.ensure_for_restore(
                name, store.replica_kinds)
        except Interrupt:
            # Cluster shutdown cancelled the pull; ensure_local already
            # dropped its pins and promotion reservations.
            self.stats.rereplication_failures += 1
            return
        except RemoteOutageError:
            # The remote service died too (crash+outage scenarios): the
            # artifacts stay remote until a later restore promotes them.
            self.stats.rereplication_failures += 1
            return
        store.unpin(pinned)
        self.stats.rereplicated += 1
        if tracer is not None:
            tracer.instant("rereplicate", self.env.now, lane="faults",
                           proc="chaos", cat="chaos",
                           args={"function": name})
