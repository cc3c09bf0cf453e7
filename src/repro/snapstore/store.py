"""The tiered snapshot store: placement over a :class:`TierCache`.

:class:`TieredSnapshotStore` subclasses
:class:`~repro.vm.snapshot.SnapshotStore` and overrides its (untiered,
no-op) placement methods:

* snapshot capture registers the VMM-state and guest-memory files;
  superseded generations are released when the store reclaims them;
* REAP's record phase registers the trace and working-set files
  (:meth:`register_reap_artifacts`), replacing any stale recording;
* every cold restore first calls :meth:`ensure_for_restore` with the
  artifact kinds its restore policy declares
  (:attr:`~repro.core.policies.RestorePolicy.artifact_kinds`); the store
  promotes exactly those and pins them for the duration of the restore.

The declarations encode §7.1's asymmetry: lazy policies (``vanilla``,
``record``, ``parallel_pf``) need the guest memory file locally because
they fault small scattered reads out of it, while prefetch policies
(``reap``, ``ws_file`` and the REAP-shaped zoo policies) promote only
the small trace + WS artifacts and leave the memory file wherever it
is -- their few unique-page demand faults pay the remote round trip
individually, which is cheap, exactly the reason REAP's advantage grows
under disaggregated storage.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.core.context import LatencyBreakdown
from repro.core.files import ReapArtifacts
from repro.obs import tracer as obs_tracer
from repro.sim.engine import Event
from repro.snapstore.tier import TierCache, TierEntry, TierParameters
from repro.storage.remote import RemoteDevice, RemoteFaultState
from repro.storage.ssd import SsdDevice
from repro.vm.host import WorkerHost
from repro.vm.microvm import MicroVM
from repro.vm.snapshot import Snapshot, SnapshotStore


class TieredSnapshotStore(SnapshotStore):
    """Tier-managed snapshot artifact placement for one worker."""

    replica_kinds = ("vmm", "mem", "trace", "ws")

    def __init__(self, host: WorkerHost,
                 params: TierParameters | None = None) -> None:
        self.params = params or TierParameters()
        remote_params = self.params.remote or host.params.remote
        #: The storage service's own disks sit behind the network hop.
        self.remote = RemoteDevice(
            host.env, SsdDevice(host.env, host.params.ssd),
            remote_params, name="snapstore-remote")
        self.cache = TierCache(host.env, self.remote, self.params)
        super().__init__(host)

    # -- registration -----------------------------------------------------

    def capture(self, vm: MicroVM,
                stop_vm: bool = True) -> Generator[Event, Any, Snapshot]:
        """Capture as the base store does, then admit the new files."""
        snapshot = yield from super().capture(vm, stop_vm)
        self.cache.register(snapshot.vmm_file, snapshot.function_name,
                            "vmm")
        self.cache.register(snapshot.memory_file, snapshot.function_name,
                            "mem")
        return snapshot

    def _reclaim(self, snapshot: Snapshot) -> None:
        super()._reclaim(snapshot)
        self.cache.release(snapshot.vmm_file.name)
        self.cache.release(snapshot.memory_file.name)

    def register_reap_artifacts(self, function_name: str,
                                artifacts: ReapArtifacts) -> None:
        """Admit a fresh recording, replacing any stale one."""
        self.release_reap_artifacts(function_name)
        self.cache.register(artifacts.trace.file, function_name, "trace")
        self.cache.register(artifacts.working_set.file, function_name,
                            "ws")

    def release_reap_artifacts(self, function_name: str) -> None:
        """Forget a function's recorded trace/WS artifacts (if any)."""
        for entry in self.cache.entries_for(function_name):
            if entry.kind in ("trace", "ws"):
                self.cache.release(entry.file.name)

    # -- the restore path -------------------------------------------------

    def ensure_for_restore(self, function_name: str,
                           kinds: tuple[str, ...],
                           breakdown: Optional[LatencyBreakdown] = None,
                           lane: str | None = None,
                           ) -> Generator[Event, Any, list[TierEntry]]:
        """Promote + pin the function's artifacts of the given ``kinds``.

        Returns the pinned entries; the orchestrator unpins them when
        the invocation finishes.  Promotion time (the §7.1 remote
        penalty) lands in ``breakdown.extra["snapstore_promote_us"]``.
        With a trace ``lane`` the call is one ``artifact_ensure`` span
        (on an exception the caller's phase aborts the lane, closing it).
        """
        env = self.host.env
        started = env.now
        tracer = obs_tracer.ACTIVE if lane is not None else None
        span = None if tracer is None else tracer.begin(
            "artifact_ensure", started, lane=lane,
            proc=self.cache.obs_proc, cat="snapstore")
        before_unreachable = self.cache.stats.unreachable
        pinned = yield from self.cache.ensure_local(function_name, kinds)
        if breakdown is not None:
            elapsed = env.now - started
            if elapsed > 0.0:
                breakdown.extra["snapstore_promote_us"] = (
                    breakdown.extra.get("snapstore_promote_us", 0.0)
                    + elapsed)
            if self.cache.stats.unreachable > before_unreachable:
                # Remote outage left artifacts unpromoted; the
                # orchestrator may degrade a prefetching restore to
                # vanilla rather than lazy-fault against a dead service.
                breakdown.extra["artifact_unreachable"] = True
        if tracer is not None:
            tracer.end(span, env.now, args={"pinned": len(pinned)})
        return pinned

    def unpin(self, entries: list[TierEntry]) -> None:
        """Release the pins taken by :meth:`ensure_for_restore`."""
        self.cache.unpin(entries)

    def set_obs_proc(self, proc: str) -> None:
        """Name the trace process of this worker's tier spans."""
        self.cache.obs_proc = proc

    # -- routing and crashes ---------------------------------------------

    def locality_bytes(self, function_name: str) -> int:
        """The function's artifact bytes in the local tier (routing)."""
        return self.local_bytes(function_name)

    def local_bytes(self, function_name: str) -> int:
        """Locally resident artifact bytes of one function."""
        return self.cache.local_bytes(function_name)

    def set_remote_fault(self, fault: RemoteFaultState) -> None:
        """Make the remote service obey the fleet's failure switches."""
        self.remote.fault = fault

    def lose_local(self) -> int:
        """Drop the local tier (remote copies survive); bytes lost."""
        return self.cache.lose_local()
