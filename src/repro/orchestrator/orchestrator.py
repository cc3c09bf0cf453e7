"""Single-worker vHive-CRI orchestrator (§3.2, §4.1).

The invocation path mirrors the paper's breakdown exactly:

1. **Load VMM** -- containerd's serialized section, Firecracker spawn,
   VMM-state file read (through the thin-pool path) and device setup;
2. **prepare** -- policy-specific eager population (REAP's fetch +
   install; nothing for vanilla);
3. **Connection restoration** -- the orchestrator re-establishes its
   persistent gRPC connection; the guest touches its stable
   infrastructure pages, faulting under lazy policies;
4. **Function processing** -- input fetch from the local S3 service (for
   the large-input functions) and handler execution over the
   invocation's access trace;
5. **finalize** -- record-mode artifact writes (§6.4's one-time cost).

Warm instances (memory-resident, connected) skip all restore work and
serve at their warm latency, which is how the paper's warm bars and the
warm-background experiment run.  Cold starts and speculative prewarms
share one restore sequence (steps 1-3); cold and warm invocations share
one processing step.  Every phase is timed by one :class:`_Phase` block,
which sets the phase's :class:`LatencyBreakdown` field and emits its
span from the same begin/end.

See also :mod:`repro.core.manager` (which policy a cold start gets),
:mod:`repro.core.policies` (what each policy does),
:mod:`repro.vm.snapshot` (instantiation), and
``docs/architecture.md`` for the full layer-by-layer walk-through of
this path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator, Optional

from repro.core.context import LatencyBreakdown
from repro.core.files import ArtifactFormatError
from repro.core.manager import ReapManager, ReapParameters
from repro.core.policies import RecordPolicy, RestorePolicy, VanillaPolicy
from repro.obs import metrics as obs_metrics
from repro.obs import tracer as obs_tracer
from repro.functions.behavior import FunctionBehavior
from repro.functions.spec import FunctionProfile
from repro.memory.guest import ContentMode
from repro.memory.trace import AccessTrace
from repro.policies import (
    ColdStartPolicyLayer,
    PolicyLayerParameters,
    policy_class,
)
from repro.sim.engine import Event
from repro.sim.rng import derive_seed
from repro.sim.units import MS
from repro.snapstore.store import TieredSnapshotStore
from repro.snapstore.tier import TierParameters
from repro.vm.boot import boot_microvm
from repro.vm.host import WorkerHost
from repro.vm.microvm import MicroVM, VmState
from repro.vm.snapshot import Snapshot, SnapshotStore


@dataclass
class InvocationResult:
    """Outcome of one routed invocation."""

    function: str
    invocation: int
    mode: str
    breakdown: LatencyBreakdown
    trace: AccessTrace
    started_at: float
    finished_at: float

    @property
    def latency_us(self) -> float:
        """Wall-clock invocation latency as the client observes it."""
        return self.finished_at - self.started_at

    @property
    def latency_ms(self) -> float:
        """Client-observed latency in milliseconds."""
        return self.latency_us / MS


@dataclass
class WarmInstance:
    """A memory-resident instance kept ready for the next invocation."""

    vm: MicroVM
    policy: Optional[RestorePolicy] = None


@dataclass
class DeployedFunction:
    """Registry entry of one deployed function."""

    profile: FunctionProfile
    behavior: FunctionBehavior
    snapshot: Optional[Snapshot] = None
    invocations: int = 0
    warm: list[WarmInstance] = field(default_factory=list)


class _Phase:
    """One timed phase of an invocation, used as a ``with`` block.

    A single begin/end pair feeds both outputs: on a normal exit the
    ``breakdown`` field named by ``field_name`` (if any) gets the elapsed
    simulated time, and the phase's span closes at the same instant, so
    a traced span's duration always equals its breakdown field.  On an
    exception the field stays unset and every span still open on the
    lane closes with ``status="error"`` (the trace then shows how far
    the aborted invocation got).

    Spans are emitted only when the tracer is installed and ``lane`` is
    set; :attr:`lane` is ``None`` otherwise, so nested phases and the
    vCPU's fault windows inherit an enclosing phase's tracing decision.
    """

    __slots__ = ("env", "proc", "lane", "tracer", "span", "breakdown",
                 "field_name", "started", "end_args")

    def __init__(self, orchestrator: "Orchestrator", name: str,
                 lane: str | None, breakdown: LatencyBreakdown | None = None,
                 field_name: str | None = None, cat: str = "invoke",
                 args: dict[str, Any] | None = None) -> None:
        self.env = orchestrator.env
        self.proc = orchestrator.obs_proc
        self.breakdown = breakdown
        self.field_name = field_name
        self.started = self.env.now
        #: Span args known only at the end (set inside the block).
        self.end_args: dict[str, Any] | None = None
        tracer = obs_tracer.ACTIVE if lane is not None else None
        self.tracer = tracer
        self.lane = lane if tracer is not None else None
        self.span = None if tracer is None else tracer.begin(
            name, self.started, lane=lane, proc=self.proc, cat=cat,
            args=args)

    def __enter__(self) -> "_Phase":
        return self

    def __exit__(self, exc_type, _exc, _tb) -> bool:
        now = self.env.now
        tracer = self.tracer
        if exc_type is not None:
            if tracer is not None:
                tracer.abort_lane(self.lane, now, proc=self.proc)
            return False
        if self.field_name is not None:
            setattr(self.breakdown, self.field_name, now - self.started)
        if tracer is not None:
            tracer.end(self.span, now, args=self.end_args)
        return False


class Orchestrator:
    """Control plane and data-plane router of a single worker."""

    def __init__(self, host: WorkerHost, seed: int = 42,
                 content: ContentMode = ContentMode.METADATA,
                 reap_params: ReapParameters | None = None,
                 snapstore_params: "TierParameters | None" = None,
                 policy_params: PolicyLayerParameters | None = None,
                 ) -> None:
        self.host = host
        self.env = host.env
        self.seed = seed
        self.content = content
        #: Tiered artifact placement (bounded local SSD over a remote
        #: service, §7.1); ``None`` keeps every artifact local.
        self.snapstore = None
        if snapstore_params is not None:
            self.snapstore = TieredSnapshotStore(host, snapstore_params)
        self.snapshot_store = SnapshotStore(host, tiered=self.snapstore)
        self.reap = ReapManager(host, reap_params, store=self.snapstore)
        #: Cold-start policy layer (the floor_study scheme and prewarm,
        #: :mod:`repro.policies`); the default ``reap`` scheme leaves
        #: the REAP manager's mode selection as it is.
        self.policy_layer = ColdStartPolicyLayer(
            self, policy_params or PolicyLayerParameters())
        self._functions: dict[str, DeployedFunction] = {}
        #: Trace process name of this worker (clusters override it so
        #: each worker maps to its own pid in exported traces).
        self.obs_proc = "worker0"

    def set_obs_proc(self, proc: str) -> None:
        """Name this worker's trace process and propagate to sub-systems."""
        self.obs_proc = proc
        self.reap.obs_proc = proc
        if self.snapstore is not None:
            self.snapstore.cache.obs_proc = proc

    # -- deployment -----------------------------------------------------------

    def deploy(self, profile: FunctionProfile,
               take_snapshot: bool = True,
               ) -> Generator[Event, Any, DeployedFunction]:
        """Deploy a function: boot it once and (optionally) snapshot it."""
        if profile.name in self._functions:
            raise ValueError(f"function {profile.name!r} already deployed")
        behavior = FunctionBehavior(
            profile, seed=derive_seed(self.seed, "fn", profile.name))
        entry = DeployedFunction(profile=profile, behavior=behavior)
        self._functions[profile.name] = entry
        vm = yield from boot_microvm(self.host, profile, behavior,
                                     content=self.content)
        if take_snapshot:
            entry.snapshot = yield from self.snapshot_store.capture(vm)
        else:
            entry.warm.append(WarmInstance(vm=vm))
        return entry

    def refresh_snapshot(self, name: str,
                         ) -> Generator[Event, Any, DeployedFunction]:
        """Re-generate a function's snapshot with a fresh memory layout.

        The §7.3 security mitigation: VM clones spawned from one snapshot
        share a guest-physical layout, weakening ASLR; periodically
        re-booting and re-snapshotting (here under a new layout *epoch*)
        re-randomizes it.  REAP's recorded artifacts describe the old
        layout, so they are invalidated and the next cold invocation
        records afresh.
        """
        entry = self.function(name)
        behavior = FunctionBehavior(
            entry.profile,
            seed=derive_seed(self.seed, "fn", entry.profile.name),
            epoch=entry.behavior.epoch + 1)
        vm = yield from boot_microvm(self.host, entry.profile, behavior,
                                     content=self.content)
        entry.behavior = behavior
        entry.snapshot = yield from self.snapshot_store.capture(vm)
        state = self.reap.state_for(name)
        state.artifacts = None
        state.mispredict_streak = 0
        if self.snapstore is not None:
            # The old-layout trace/WS files are dead weight in the tiers.
            self.snapstore.release_reap_artifacts(name)
        return entry

    def function(self, name: str) -> DeployedFunction:
        """Look up a deployed function."""
        try:
            return self._functions[name]
        except KeyError:
            raise KeyError(f"function {name!r} not deployed") from None

    def has_function(self, name: str) -> bool:
        """Whether ``name`` is deployed on this worker (routing check)."""
        return name in self._functions

    def deployed_names(self) -> list[str]:
        """All deployed function names."""
        return list(self._functions)

    # -- invocation routing ---------------------------------------------------

    def invoke(self, name: str, mode: str | None = None,
               flush_page_cache: bool = True, keep_warm: bool = False,
               use_warm: bool = True,
               ) -> Generator[Event, Any, InvocationResult]:
        """Route one invocation; cold-starts an instance if needed.

        ``mode`` forces a restore policy by its name in
        :data:`repro.policies.POLICIES` (benchmarks use this to compare
        the Fig. 7 design points; an unknown name raises ``KeyError``);
        by default the REAP manager picks record/prefetch/fallback
        automatically.  ``flush_page_cache`` applies the paper's §4.1
        cold-invocation methodology.
        """
        entry = self.function(name)
        self.policy_layer.observe_invocation(name, self.env.now)
        if use_warm and entry.warm:
            # The warm path is served here, not in a helper generator,
            # so its vCPU replay runs two ``yield from`` levels deep.
            vm = entry.warm[0].vm
            if not vm.is_warm:
                raise RuntimeError(f"{vm.name} is not warm")
            invocation = entry.invocations
            entry.invocations += 1
            trace = entry.behavior.trace_for(invocation)
            breakdown = LatencyBreakdown(policy="warm", function=name,
                                         invocation=invocation)
            started = self.env.now
            with _Phase(self, "warm_start", f"{name}#{invocation}",
                        args={"function": name,
                              "invocation": invocation}) as warm:
                # Connection already alive: no handshake, no restore work.
                yield from self._process(
                    entry, vm, trace,
                    self._anonymous_fault_handler(vm, breakdown),
                    breakdown, warm.lane)
            vm.invocations_served += 1
            result = InvocationResult(
                function=name, invocation=invocation, mode="warm",
                breakdown=breakdown, trace=trace, started_at=started,
                finished_at=self.env.now)
        else:
            result = yield from self._invoke_cold(entry, mode,
                                                  flush_page_cache,
                                                  keep_warm)
        registry = obs_metrics.ACTIVE
        if registry is not None:
            registry.counter(f"invocations.{result.mode}").inc()
            registry.histogram(
                f"invoke_latency_us.{result.mode}").observe(
                    result.latency_us)
        return result

    def evict_warm(self, name: str) -> int:
        """Deallocate all warm instances of a function; returns count."""
        entry = self.function(name)
        evicted = 0
        for warm in entry.warm:
            self._teardown_instance(warm)
            evicted += 1
        entry.warm.clear()
        return evicted

    def _process(self, entry: DeployedFunction, vm: MicroVM,
                 trace: AccessTrace, handler, breakdown: LatencyBreakdown,
                 lane: str | None) -> Generator[Event, Any, None]:
        """Function processing: S3 input fetch, then handler execution."""
        with _Phase(self, "processing", lane, breakdown, "processing_us"):
            s3_us = self.host.s3_fetch_us(entry.profile.input_bytes)
            if s3_us > 0:
                yield self.env.timeout(s3_us)
            compute_us = max(trace.processing_compute_us - s3_us, 0.0)
            yield from vm.vcpu.execute_phase(
                vm.memory, trace.processing_pages, compute_us, handler,
                obs_lane=lane, obs_proc=self.obs_proc)

    def _anonymous_fault_handler(self, vm: MicroVM,
                                 breakdown: LatencyBreakdown):
        anon_fault_us = self.host.params.anon_fault_us

        def handler(page: int) -> Generator[Event, Any, None]:
            breakdown.demand_faults += 1
            breakdown.zero_faults += 1
            yield self.env.timeout(anon_fault_us)
            vm.memory.install(page, verify=False)

        return handler

    # -- cold path ---------------------------------------------------------------

    def _invoke_cold(self, entry: DeployedFunction, mode: str | None,
                     flush_page_cache: bool, keep_warm: bool,
                     ) -> Generator[Event, Any, InvocationResult]:
        name = entry.profile.name
        if entry.snapshot is None:
            raise RuntimeError(
                f"function {name!r} has no snapshot and no warm instance")
        invocation = entry.invocations
        entry.invocations += 1
        breakdown = LatencyBreakdown(function=name, invocation=invocation)
        if flush_page_cache:
            self.host.flush_page_cache()
        started = self.env.now

        # Resolve the restore policy up front; the tiered store then
        # promotes + pins exactly the artifacts it reads eagerly
        # (evicted ones pay the remote path, §7.1).  Resolving once also
        # pins the policy itself: REAP state may change across the
        # promote/load yields (a concurrent record completing), and the
        # policy must match what was promoted.
        policy_cls = (self._auto_policy(name) if mode is None
                      else policy_class(mode))
        with _Phase(self, "cold_start", f"{name}#{invocation}",
                    args={"function": name, "invocation": invocation,
                          "mode": policy_cls.name}) as cold:
            lane = cold.lane
            pinned: list = []
            try:
                # 1-3. Load VMM, prepare, connection restoration.
                vm, policy, trace, handler = yield from self._restore(
                    entry, policy_cls, breakdown, lane, pinned,
                    invocation=invocation, forced=mode is not None)
                try:
                    # 4. Function processing (S3 input + handler).
                    yield from self._process(entry, vm, trace, handler,
                                             breakdown, lane)
                    # 5. Finalize (record artifacts; mispredictions).
                    with _Phase(self, "finalize", lane, breakdown,
                                "finalize_us", cat="restore"):
                        yield from policy.finish(vm)
                except BaseException:
                    # An Interrupt or model error at any yield above
                    # would leak the instance: its monitor process keeps
                    # polling the uffd queue and the uffd keeps its
                    # registration (the sanitizer's end-of-run leak
                    # check).  Tear it down before propagating.
                    self._teardown_instance(
                        WarmInstance(vm=vm, policy=policy))
                    raise
                # §7.1 mispredictions: only prefetch policies install
                # pages that can go untouched; every other policy
                # reports an explicit 0 so aggregations see the field
                # uniformly.
                prefetched_set = policy.prefetched_page_set
                breakdown.unused_prefetched = (
                    0 if prefetched_set is None
                    else len(prefetched_set - trace.page_set))
                self.reap.complete(name, policy)
                vm.invocations_served += 1
                warm = WarmInstance(vm=vm, policy=policy)
                if keep_warm:
                    entry.warm.append(warm)
                else:
                    self._teardown_instance(warm)
            finally:
                if pinned:
                    self.snapstore.unpin(pinned)
            cold.end_args = {"policy": policy.name,
                             "total_us": breakdown.total_us}
        return InvocationResult(
            function=name, invocation=invocation, mode=policy.name,
            breakdown=breakdown, trace=trace, started_at=started,
            finished_at=self.env.now)

    def _restore(self, entry: DeployedFunction,
                 policy_cls: type[RestorePolicy],
                 breakdown: LatencyBreakdown, lane: str | None,
                 pinned: list, invocation: int | None = None,
                 forced: bool = False) -> Generator[Event, Any, tuple]:
        """Restore an instance from its snapshot up to the connected state.

        The sequence cold starts and prewarms share: artifact promotion
        (its pins land in ``pinned``; the caller unpins), Load VMM,
        policy prepare, and connection restoration.  Unless ``forced``,
        an auto-selected prefetching ``policy_cls`` degrades when its
        recorded artifacts are unreachable or were invalidated meanwhile.
        ``invocation=None`` restores speculatively: the next
        invocation's trace is peeked, not consumed, and the restore
        never records.  Returns ``(vm, policy, trace, handler)``; on
        failure the instance is torn down before the error propagates.
        """
        name = entry.profile.name
        snapshot = entry.snapshot
        env = self.env
        host = self.host
        params = host.params
        if self.snapstore is not None:
            with _Phase(self, "artifact_ensure", lane,
                        cat="snapstore") as ensure:
                pinned.extend((yield from self.snapstore.ensure_for_restore(
                    name, policy_cls.artifact_kinds, breakdown)))
                ensure.end_args = {"pinned": len(pinned)}
            if (not forced and policy_cls.prefetches
                    and breakdown.extra.get("artifact_unreachable")):
                # The recorded trace/WS artifacts sit behind an
                # unreachable remote service: degrade to a vanilla
                # restore (lazy faults hit whatever is locally resident)
                # instead of failing in prepare().
                policy_cls = VanillaPolicy
                breakdown.extra["degraded_to_vanilla"] = True

        # 1. Load VMM (containerd + Firecracker + state file + devices).
        with _Phase(self, "load_vmm", lane, breakdown, "load_vmm_us",
                    cat="restore"):
            grant = host.containerd_lock.request()
            try:
                yield grant
                yield env.timeout(params.containerd_serial_ms * MS)
            finally:
                host.containerd_lock.release(grant)
            yield env.timeout(params.firecracker_spawn_ms * MS)
            yield from host.page_cache.read(snapshot.vmm_file, 0,
                                            snapshot.vmm_file.size)
            yield env.timeout(params.device_setup_ms * MS)

        # A concurrent invocation may have invalidated the recording
        # (re-record / refresh) during the promote/load yields; an
        # auto-selected prefetch policy then falls back gracefully rather
        # than demanding artifacts that no longer exist.
        if (not forced and policy_cls.prefetches
                and self.reap.state_for(name).artifacts is None):
            policy_cls = (self._auto_policy(name) if invocation is not None
                          else self._speculative_policy(name))

        # 2. Instantiate and eagerly populate per the restore policy.
        policy = self.reap.policy_for(snapshot, breakdown, policy_cls)
        trace = entry.behavior.trace_for(
            entry.invocations if invocation is None else invocation,
            record=(policy.name == "record"))
        vm = self.snapshot_store.instantiate(snapshot, policy.backing,
                                             content=self.content)
        policy.attach(vm)
        try:
            with _Phase(self, "prepare", lane, cat="restore",
                        args={"policy": policy.name}) as prepare:
                try:
                    yield from policy.prepare(vm)
                except ArtifactFormatError:
                    # Corrupted trace/WS file: the demand monitor can
                    # still serve every page, so the invocation proceeds
                    # (slower); the stale artifacts are discarded so the
                    # next cold start re-records.
                    breakdown.extra["artifact_error"] = True
                    self.reap.state_for(name).artifacts = None
                    if self.snapstore is not None:
                        self.snapstore.release_reap_artifacts(name)
                prepare.end_args = {
                    "fetch_ws_us": breakdown.fetch_ws_us,
                    "install_ws_us": breakdown.install_ws_us,
                    "prefetched": breakdown.prefetched_pages}
            vm.transition(VmState.RUNNING)
            handler = policy.fault_handler(vm)

            # 3. Connection restoration (handshake + guest infra pages).
            with _Phase(self, "connection", lane, breakdown,
                        "connection_us", cat="restore"):
                yield env.timeout(params.grpc_handshake_ms * MS)
                yield from vm.vcpu.execute_phase(
                    vm.memory, trace.connection_pages,
                    trace.connection_compute_us, handler,
                    obs_lane=lane, obs_proc=self.obs_proc)
                vm.connected = True
        except BaseException:
            self._teardown_instance(WarmInstance(vm=vm, policy=policy))
            raise
        return vm, policy, trace, handler

    def _auto_policy(self, name: str) -> type[RestorePolicy]:
        """Automatic restore-policy selection (REAP, then the layer)."""
        return policy_class(self.policy_layer.select_mode(
            name, self.reap.mode_for(name)))

    def _speculative_policy(self, name: str) -> type[RestorePolicy]:
        """:meth:`_auto_policy` for a speculative restore (never records)."""
        policy_cls = self._auto_policy(name)
        return VanillaPolicy if policy_cls is RecordPolicy else policy_cls

    # -- speculative prewarm ------------------------------------------------

    def prewarm(self, name: str) -> Generator[Event, Any, bool]:
        """Speculatively restore one instance up to its connected state.

        The ``prewarm`` scheme's timer path (:mod:`repro.policies.prewarm`):
        a full cold restore -- artifact promotion, VMM load, policy
        prepare, gRPC handshake, connection pages -- that then parks the
        instance in the warm pool instead of serving an invocation.  The
        next arrival hits warm.  Speculation never records (no recorded
        artifacts means a plain vanilla restore) and never consumes an
        invocation's trace.  Returns whether an instance was parked.
        """
        entry = self.function(name)
        if entry.snapshot is None or entry.warm:
            return False
        breakdown = LatencyBreakdown(function=name, invocation=-1)
        policy_cls = self._speculative_policy(name)
        with _Phase(self, "prewarm", f"prewarm:{name}", cat="policy",
                    args={"function": name,
                          "mode": policy_cls.name}) as span:
            pinned: list = []
            try:
                vm, policy, _trace, _handler = yield from self._restore(
                    entry, policy_cls, breakdown, span.lane, pinned)
                try:
                    with _Phase(self, "finalize", span.lane, breakdown,
                                "finalize_us", cat="restore"):
                        yield from policy.finish(vm)
                except BaseException:
                    self._teardown_instance(
                        WarmInstance(vm=vm, policy=policy))
                    raise
                entry.warm.append(WarmInstance(vm=vm, policy=policy))
            finally:
                if pinned:
                    self.snapstore.unpin(pinned)
            span.end_args = {"policy": policy.name,
                             "total_us": breakdown.total_us}
        return True

    def _teardown_instance(self, warm: WarmInstance) -> None:
        if warm.policy is not None:
            warm.policy.on_teardown()
            monitor = warm.policy.monitor
            if monitor is not None:
                monitor.stop()
            uffd = warm.policy.uffd
            if uffd is not None and not uffd.closed:
                uffd.close()
        if warm.vm.state in (VmState.RUNNING, VmState.PAUSED,
                             VmState.BOOTING):
            warm.vm.transition(VmState.STOPPED)
