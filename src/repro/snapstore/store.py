"""The tiered snapshot store the orchestrator talks to.

One :class:`TieredSnapshotStore` per worker glues the pieces together:

* snapshot capture registers the VMM-state and guest-memory files
  (:meth:`register_snapshot`); superseded generations are released when
  :class:`~repro.vm.snapshot.SnapshotStore` reclaims them;
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
from repro.sim.engine import Event
from repro.snapstore.tier import TierCache, TierEntry, TierParameters
from repro.storage.remote import RemoteDevice
from repro.storage.ssd import SsdDevice
from repro.vm.host import WorkerHost
from repro.vm.snapshot import Snapshot


class TieredSnapshotStore:
    """Tier-managed snapshot artifact placement for one worker."""

    def __init__(self, host: WorkerHost,
                 params: TierParameters | None = None) -> None:
        self.host = host
        self.params = params or TierParameters()
        remote_params = self.params.remote or host.params.remote
        #: The storage service's own disks sit behind the network hop.
        self.remote = RemoteDevice(
            host.env, SsdDevice(host.env, host.params.ssd),
            remote_params, name="snapstore-remote")
        self.cache = TierCache(host.env, self.remote, self.params)

    # -- registration -----------------------------------------------------

    def register_snapshot(self, snapshot: Snapshot) -> None:
        """Admit a freshly captured snapshot's files into the tiers."""
        self.cache.register(snapshot.vmm_file, snapshot.function_name,
                            "vmm")
        self.cache.register(snapshot.memory_file, snapshot.function_name,
                            "mem")

    def release_snapshot(self, snapshot: Snapshot) -> None:
        """Forget a superseded snapshot generation's files."""
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
                           ) -> Generator[Event, Any, list[TierEntry]]:
        """Promote + pin the function's artifacts of the given ``kinds``.

        Returns the pinned entries; the orchestrator unpins them when
        the invocation finishes.  Promotion time (the §7.1 remote
        penalty) lands in ``breakdown.extra["snapstore_promote_us"]``.
        """
        started = self.host.env.now
        before_unreachable = self.cache.stats.unreachable
        pinned = yield from self.cache.ensure_local(function_name, kinds)
        if breakdown is not None:
            elapsed = self.host.env.now - started
            if elapsed > 0.0:
                breakdown.extra["snapstore_promote_us"] = (
                    breakdown.extra.get("snapstore_promote_us", 0.0)
                    + elapsed)
            if self.cache.stats.unreachable > before_unreachable:
                # Remote outage left artifacts unpromoted; the
                # orchestrator may degrade a prefetching restore to
                # vanilla rather than lazy-fault against a dead service.
                breakdown.extra["artifact_unreachable"] = True
        return pinned

    def unpin(self, entries: list[TierEntry]) -> None:
        """Release the pins taken by :meth:`ensure_for_restore`."""
        self.cache.unpin(entries)

    # -- introspection ----------------------------------------------------

    def local_bytes(self, function_name: str) -> int:
        """Locally resident artifact bytes of one function (routing)."""
        return self.cache.local_bytes(function_name)

    @property
    def stats(self):
        """The underlying :class:`~repro.snapstore.tier.TierStats`."""
        return self.cache.stats
