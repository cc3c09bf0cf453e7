"""Snapshot capture and restore-side instantiation.

A snapshot is two files, both placed behind the host's thin-pool device
(the containerd devmapper path, §2.3):

* the **VMM state file** -- serialized VMM + emulated-device state,
  loaded in full at restore ("Load VMM" in the paper's breakdown);
* the **guest memory file** -- a sparse file holding the contents of
  every page resident at capture time.  Restores map it lazily: nothing
  is populated until first touch.

The store tracks the latest snapshot per function; when a newer capture
replaces an older generation the superseded files are reclaimed from
the filesystem (reclaimed bytes are counted in :class:`SnapshotStoreStats`).
In-flight restores keep reading their cloned views -- reclaim has
POSIX-unlink semantics.  Restore policies (in :mod:`repro.core`) decide
*how* pages get from the memory file into a new instance's guest memory.

The store also places the artifacts: its placement methods are the
untiered no-ops (everything sits on the local SSD), which
:class:`~repro.snapstore.store.TieredSnapshotStore` overrides (§7.1).

See also :mod:`repro.core.policies` (lazy vs prefetched population),
:mod:`repro.storage.thinpool` (the device path both files sit behind),
and step 2 of the cold-start walk-through in ``docs/architecture.md``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Generator

from repro.functions.behavior import FunctionBehavior
from repro.functions.spec import FunctionProfile
from repro.memory.guest import BackingMode, ContentMode, GuestMemory
from repro.obs import metrics as obs_metrics
from repro.sim.engine import Event
from repro.sim.units import MS, PAGE_SIZE
from repro.storage.device import IoRequest, ReadKind
from repro.storage.filesystem import SimFile
from repro.vm.host import WorkerHost
from repro.vm.microvm import MicroVM, VmState

_capture_ids = itertools.count()


@dataclass(frozen=True)
class Snapshot:
    """A captured, restorable function image."""

    function_name: str
    epoch: int
    profile: FunctionProfile
    behavior: FunctionBehavior
    vmm_file: SimFile
    memory_file: SimFile
    resident_pages: int
    created_at: float

    @property
    def memory_bytes(self) -> int:
        """Guest memory size of the captured VM."""
        return self.memory_file.size


@dataclass
class SnapshotStoreStats:
    """Capture/reclaim counters of one snapshot store."""

    captures: int = 0
    #: Superseded snapshot generations whose files were reclaimed.
    reclaimed_snapshots: int = 0
    #: Bytes returned to the filesystem by generation reclaim.
    reclaimed_bytes: int = 0

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable counter snapshot."""
        return {
            "captures": self.captures,
            "reclaimed_snapshots": self.reclaimed_snapshots,
            "reclaimed_bytes": self.reclaimed_bytes,
        }


class SnapshotStore:
    """Per-host registry of function snapshots and their placement."""

    #: Artifact kinds a survivor pulls when a crash took their home
    #: (:mod:`repro.chaos`); untiered, there is no remote copy to pull.
    replica_kinds: tuple[str, ...] = ()

    def __init__(self, host: WorkerHost) -> None:
        self.host = host
        self.stats = SnapshotStoreStats()
        self._latest: dict[str, Snapshot] = {}
        registry = obs_metrics.ACTIVE
        if registry is not None:
            registry.register("snapshot_store", self.stats)

    def capture(self, vm: MicroVM,
                stop_vm: bool = True) -> Generator[Event, Any, Snapshot]:
        """Snapshot a running/paused VM; returns the :class:`Snapshot`.

        Capture pauses the VM, serializes VMM state, and writes the
        resident guest pages to a sparse memory file.  With ``stop_vm``
        the instance is discarded afterwards (the paper's usage: snapshot
        once, then serve every cold start from it).
        """
        host = self.host
        if vm.state is VmState.RUNNING:
            vm.transition(VmState.PAUSED)
        elif vm.state is not VmState.PAUSED:
            raise RuntimeError(f"cannot snapshot VM in state {vm.state}")
        profile = vm.profile
        behavior = vm.behavior
        capture_id = next(_capture_ids)
        prefix = f"snapshots/{profile.name}/e{behavior.epoch}-c{capture_id}"

        vmm_file = host.filesystem.create(
            f"{prefix}/vmm_state", host.params.vmm_state_bytes,
            device=host.snapshot_device)
        vmm_file.mark_written_blocks(range(vmm_file.block_count))
        memory_file = host.filesystem.create(
            f"{prefix}/guest_mem", vm.memory.size_bytes,
            device=host.snapshot_device)

        # Serialize VMM state, then stream resident pages out.  Both are
        # large sequential writes through the thin pool.
        yield host.env.timeout(1.0 * MS)  # pause + quiesce
        yield from host.snapshot_device.write(IoRequest(
            lba=vmm_file.to_lba(0), nbytes=vmm_file.size,
            kind=ReadKind.WRITE))
        # Present pages are always in bounds, so sorting the present set
        # directly matches scanning the whole region.
        resident = sorted(vm.memory._present)
        if resident:
            yield from host.snapshot_device.write(IoRequest(
                lba=memory_file.to_lba(0),
                nbytes=len(resident) * PAGE_SIZE,
                kind=ReadKind.WRITE))
        if vm.memory.content_mode is ContentMode.FULL:
            for page in resident:
                memory_file.write_block(page, vm.memory.read_page(page))
        else:
            memory_file.mark_written_blocks(resident)

        snapshot = Snapshot(
            function_name=profile.name,
            epoch=behavior.epoch,
            profile=profile,
            behavior=behavior,
            vmm_file=vmm_file,
            memory_file=memory_file,
            resident_pages=len(resident),
            created_at=host.env.now,
        )
        previous = self._latest.get(profile.name)
        self._latest[profile.name] = snapshot
        self.stats.captures += 1
        if previous is not None:
            self._reclaim(previous)
        if stop_vm:
            vm.transition(VmState.STOPPED)
        else:
            vm.transition(VmState.RUNNING)
        return snapshot

    def _reclaim(self, snapshot: Snapshot) -> None:
        """Free a superseded generation's files (unlink semantics)."""
        for file in (snapshot.vmm_file, snapshot.memory_file):
            self.host.filesystem.remove(file.name)
            # Sparse memory files occupy only their written blocks;
            # holes never held filesystem space (``du`` semantics).
            self.stats.reclaimed_bytes += file.written_bytes
        self.stats.reclaimed_snapshots += 1

    def get(self, function_name: str) -> Snapshot:
        """The latest snapshot for a function."""
        try:
            return self._latest[function_name]
        except KeyError:
            raise KeyError(
                f"no snapshot for function {function_name!r}") from None

    def exists(self, function_name: str) -> bool:
        """Whether a snapshot exists for ``function_name``."""
        return function_name in self._latest

    def instantiate(self, snapshot: Snapshot, backing: BackingMode,
                    content: ContentMode = ContentMode.METADATA,
                    private_view: bool = True) -> MicroVM:
        """Create a new (not yet populated) instance from a snapshot.

        The returned VM is in ``CREATED`` state with an empty,
        lazily-backed memory region; a restore policy takes it from here.
        With ``private_view`` (the default) the instance reads the memory
        file through its own devmapper-style view, so concurrent
        instances share no page-cache state (§6.1 disallows sharing).
        """
        if backing is BackingMode.ANONYMOUS:
            raise ValueError("restored memory must be file- or uffd-backed")
        memory_file = snapshot.memory_file
        if private_view:
            memory_file = memory_file.clone_view(
                f"{memory_file.name}/view{next(_capture_ids)}")
        memory = GuestMemory(snapshot.memory_bytes, mode=backing,
                             content=content,
                             backing_file=memory_file)
        return MicroVM(self.host.env, snapshot.profile, snapshot.behavior,
                       memory)

    # -- artifact placement: the untiered no-ops ---------------------------

    def locality_bytes(self, function_name: str) -> int:
        """Artifact bytes of a function on this worker's SSD (routing)."""
        snapshot = self._latest.get(function_name)
        if snapshot is None:
            return 0
        return snapshot.vmm_file.size + snapshot.memory_file.size

    def register_reap_artifacts(self, function_name: str, artifacts) -> None:
        """Place a fresh recording's trace/WS files."""

    def release_reap_artifacts(self, function_name: str) -> None:
        """Forget a function's recorded trace/WS files."""

    def ensure_for_restore(self, function_name: str, kinds: tuple[str, ...],
                           breakdown=None, lane: str | None = None,
                           ) -> Generator[Event, Any, list]:
        """Make the ``kinds`` artifacts local and pin them; returns the
        pins.  Untiered: nothing to do, no event yielded."""
        return []
        yield  # pragma: no cover - makes this a generator

    def unpin(self, entries: list) -> None:
        """Release the pins taken by :meth:`ensure_for_restore`."""

    def set_obs_proc(self, proc: str) -> None:
        """Name the trace process of placement spans."""

    def set_remote_fault(self, fault) -> None:
        """Obey the fleet's remote-service failure switches (chaos)."""

    def lose_local(self) -> int:
        """Crash: drop the local tier's copies; returns bytes lost."""
        return 0
