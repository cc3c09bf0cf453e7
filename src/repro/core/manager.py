"""Per-function REAP bookkeeping: mode selection and fallback (§7.2).

The vHive-CRI orchestrator consults a :class:`ReapManager` on every cold
invocation: without recorded artifacts the function runs in *record*
mode; with them it runs in *prefetch* mode.  After each prefetch
invocation the manager compares the demand faults that hit inside the
recorded working set against the prefetched page count.  A recording
that keeps mispredicting (the paper's pathological "first invocation is
not representative" case) is either re-recorded or the function falls
back to vanilla snapshots, exactly as §7.2 prescribes.

See also :mod:`repro.core.policies` (the policies being selected),
:mod:`repro.core.monitor` (the goroutines serving faults), and the
``fallback`` experiment in :mod:`repro.bench.experiments.reap_eval`
which exercises this state machine end to end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.context import LatencyBreakdown
from repro.core.files import ReapArtifacts
from repro.core.policies import RestorePolicy
from repro.obs import tracer as obs_tracer
from repro.vm.host import WorkerHost
from repro.vm.snapshot import Snapshot, SnapshotStore

#: Working-set generations kept per function in
#: :attr:`FunctionReapState.ws_history` (recorded sets plus, under the
#: ``predict`` scheme, demanded sets).
WS_HISTORY_LIMIT = 8


@dataclass(frozen=True)
class ReapParameters:
    """Tunables of the REAP manager."""

    #: Goroutines used by the parallel_pf design point.
    parallel_workers: int = 16
    #: A prefetch invocation whose in-working-set demand faults exceed
    #: this fraction of the prefetched pages counts as mispredicted.
    mispredict_threshold: float = 0.25
    #: After this many consecutive mispredicted invocations, act.
    mispredict_streak_limit: int = 2
    #: Action on a bad streak: re-record once, then fall back to vanilla.
    max_re_records: int = 1


@dataclass
class FunctionReapState:
    """Mutable REAP state of one function."""

    artifacts: Optional[ReapArtifacts] = None
    records_done: int = 0
    re_records: int = 0
    mispredict_streak: int = 0
    fallback_to_vanilla: bool = False
    prefetch_invocations: int = 0
    history: list[str] = field(default_factory=list)
    #: Working-set generations (recorded sets plus the sets ``predict``
    #: invocations demanded) -- the cross-generation prediction source
    #: (:mod:`repro.policies.predict`).  :meth:`ReapManager.complete`
    #: appends them and keeps the newest :data:`WS_HISTORY_LIMIT`.
    ws_history: list[frozenset[int]] = field(default_factory=list)


class ReapManager:
    """Chooses and updates the restore mode for every function."""

    def __init__(self, host: WorkerHost, store: SnapshotStore,
                 params: ReapParameters | None = None) -> None:
        self.host = host
        self.params = params or ReapParameters()
        #: The worker's snapshot store; recorded trace/WS files are
        #: placed (and reclaimed) through it.
        self.store = store
        self._states: dict[str, FunctionReapState] = {}
        #: Trace process name (the owning orchestrator overrides it).
        self.obs_proc = "worker0"
        #: Live-instance chunk residency for the ``shared`` policy (the
        #: policy layer installs one under that scheme).
        self.residency = None

    def state_for(self, function_name: str) -> FunctionReapState:
        """The (possibly fresh) state of a function."""
        return self._states.setdefault(function_name, FunctionReapState())

    def mode_for(self, function_name: str) -> str:
        """Which policy the next cold invocation of the function uses."""
        state = self.state_for(function_name)
        if state.fallback_to_vanilla:
            return "vanilla"
        if state.artifacts is None:
            return "record"
        return "reap"

    def policy_for(self, snapshot: Snapshot, breakdown: LatencyBreakdown,
                   policy_cls: type[RestorePolicy]) -> RestorePolicy:
        """Build the ``policy_cls`` instance for one restore.

        The one construction site of every policy: a prefetching policy
        gets the recorded artifacts (and fails without them), every
        policy its declared inputs and this worker's trace process name.
        """
        state = self.state_for(snapshot.function_name)
        artifacts = None
        if policy_cls.prefetches:
            artifacts = state.artifacts
            if artifacts is None:
                raise RuntimeError(
                    f"{snapshot.function_name}: no recorded artifacts for "
                    f"policy {policy_cls.name!r}")
        policy = policy_cls(self.host, snapshot, breakdown, artifacts,
                            **policy_cls.inputs(self, state))
        policy.obs_proc = self.obs_proc
        return policy

    def complete(self, function_name: str, policy: RestorePolicy) -> None:
        """Feed one finished cold invocation back into the state machine."""
        state = self.state_for(function_name)
        state.history.append(policy.name)
        tracer = obs_tracer.ACTIVE
        recording = policy.name == "record"
        if recording and policy.artifacts is None:
            raise RuntimeError("record policy finished without artifacts")
        generation = (policy.artifacts.page_set if recording
                      else policy.demanded_pages)
        if generation:
            state.ws_history.append(frozenset(generation))
            del state.ws_history[:-WS_HISTORY_LIMIT]
        if recording:
            state.artifacts = policy.artifacts
            state.records_done += 1
            state.mispredict_streak = 0
            self.store.register_reap_artifacts(function_name,
                                               policy.artifacts)
            if tracer is not None:
                tracer.instant("reap_recorded", self.host.env.now,
                               lane="reap", proc=self.obs_proc, cat="reap",
                               args={"function": function_name,
                                     "records_done": state.records_done})
            return
        if not policy.prefetches:
            return
        state.prefetch_invocations += 1
        monitor = policy.monitor
        if monitor is None:
            return
        # §7.2: compare the demand faults taken *after* the working set
        # was installed against the number of installed pages.
        prefetched = max(policy.breakdown.prefetched_pages, 1)
        miss_ratio = monitor.demand_faults / prefetched
        if miss_ratio > self.params.mispredict_threshold:
            state.mispredict_streak += 1
            if tracer is not None:
                tracer.instant("reap_mispredict", self.host.env.now,
                               lane="reap", proc=self.obs_proc, cat="reap",
                               args={"function": function_name,
                                     "miss_ratio": miss_ratio,
                                     "streak": state.mispredict_streak})
        else:
            state.mispredict_streak = 0
        if state.mispredict_streak >= self.params.mispredict_streak_limit:
            state.mispredict_streak = 0
            if state.re_records < self.params.max_re_records:
                # §7.2: repeat the record phase.
                state.re_records += 1
                state.artifacts = None
                self.store.release_reap_artifacts(function_name)
                if tracer is not None:
                    tracer.instant("reap_re_record", self.host.env.now,
                                   lane="reap", proc=self.obs_proc,
                                   cat="reap",
                                   args={"function": function_name,
                                         "re_records": state.re_records})
            else:
                # §7.2: fall back to vanilla snapshots.  The recording
                # will never be read again; stop it occupying the tiers.
                state.fallback_to_vanilla = True
                self.store.release_reap_artifacts(function_name)
                if tracer is not None:
                    tracer.instant("reap_fallback", self.host.env.now,
                                   lane="reap", proc=self.obs_proc,
                                   cat="reap",
                                   args={"function": function_name})
