"""Page-cache sharing of deduped chunks across co-resident VMs.

The Fig. 5 characterization showed that snapshot working sets are
nearly identical across invocations of a function (and share zero
chunks across functions).  The ``shared`` policy exploits that at
restore time: a per-worker :class:`SharedResidency` tracks which
16-byte content digests (:mod:`repro.snapstore.chunks`) are already
resident for *live* instances, and a restoring VM skips the device
fetch for every chunk some co-resident VM already holds -- a chunk
resident for VM A is a page-cache hit for VM B.  Install (ioctl +
memcpy) cost is still paid for every page; only the I/O is elided.

Residency is refcounted through :class:`~repro.snapstore.chunks.ChunkIndex`
object accounting: each live instance registers its working set as an
object on prepare and releases it on teardown, so a chunk stays "hot"
exactly while some instance holds it and eviction of a shared chunk
only charges the last releaser (the property tests in
``tests/test_policies.py`` pin both).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.core.context import LatencyBreakdown
from repro.core.files import ReapArtifacts
from repro.core.policies import ReapPolicy
from repro.memory.guest import ContentMode
from repro.obs import tracer as obs_tracer
from repro.sim.engine import Event
from repro.sim.units import PAGE_SIZE
from repro.snapstore.chunks import (
    ZERO_PAGE_DIGEST,
    ChunkIndex,
    snapshot_page_digest,
)
from repro.vm.host import WorkerHost
from repro.vm.microvm import MicroVM
from repro.vm.snapshot import Snapshot

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.manager import FunctionReapState, ReapManager


class SharedResidency:
    """Refcounted chunk residency of one worker's live instances."""

    def __init__(self) -> None:
        self.index = ChunkIndex()
        #: Pages whose fetch was elided because the chunk was resident.
        self.shared_hits = 0
        #: Instances currently registered.
        self.live_objects = 0

    def resident_pages(self, digests: list[bytes]) -> int:
        """How many of ``digests`` are already resident (per-page count).

        Counts chunks held by live objects plus intra-object duplicates
        after their first occurrence (one fetch warms every copy).
        """
        contains = self.index.contains
        seen: set[bytes] = set()
        shared = 0
        for digest in digests:
            if contains(digest) or digest in seen:
                shared += 1
            else:
                seen.add(digest)
        return shared

    def acquire(self, object_id: str, digests: list[bytes]) -> int:
        """Register a live instance's chunks; returns its shared pages."""
        shared = self.resident_pages(digests)
        self.index.add_object(object_id, digests)
        self.shared_hits += shared
        self.live_objects += 1
        return shared

    def release(self, object_id: str) -> int:
        """Drop a released instance; returns stored bytes reclaimed."""
        if not self.index.has_object(object_id):
            return 0
        self.live_objects -= 1
        return self.index.release_object(object_id)

    def shared_fraction(self, base_id: str, other_id: str) -> float:
        """Content overlap between two live instances (Fig. 5 metric)."""
        return self.index.shared_fraction(base_id, other_id)


class SharedPolicy(ReapPolicy):
    """REAP restore that skips fetching chunks co-resident VMs hold."""

    name = "shared"

    def __init__(self, host: WorkerHost, snapshot: Snapshot,
                 breakdown: LatencyBreakdown,
                 artifacts: Optional[ReapArtifacts] = None,
                 residency: Optional[SharedResidency] = None) -> None:
        super().__init__(host, snapshot, breakdown, artifacts=artifacts)
        self.residency = residency
        self._object_id: Optional[str] = None

    @classmethod
    def inputs(cls, manager: "ReapManager",
               state: "FunctionReapState") -> dict[str, Any]:
        return {"residency": manager.residency}

    def prepare(self, vm: MicroVM) -> Generator[Event, Any, None]:
        residency = self.residency
        if residency is None:
            # No sharing context (scheme is not ``shared``): plain REAP.
            yield from super().prepare(vm)
            return
        env = self.host.env
        artifacts = self.artifacts
        ws = artifacts.working_set
        started = env.now
        trace = yield from self._load_trace()
        pages = list(trace.pages)
        memory_file = vm.memory.backing_file
        function = self.snapshot.function_name
        epoch = self.snapshot.epoch
        digests = [snapshot_page_digest(function, epoch, page)
                   if memory_file.has_block(page) else ZERO_PAGE_DIGEST
                   for page in pages]
        shared = residency.resident_pages(digests)
        # Fetch only the cold remainder; shared chunks are page-cache
        # hits for free (the co-resident holder paid the device read).
        fetch_bytes = (len(pages) - shared) * PAGE_SIZE
        if fetch_bytes:
            yield from self.host.page_cache.read(
                ws.file, 0, fetch_bytes, direct=self.direct_io)
        self.breakdown.fetch_ws_us = env.now - started
        started = env.now
        yield env.timeout(self.host.install_batch_us(
            ws.run_count, ws.payload_bytes))
        if vm.memory.content_mode is ContentMode.FULL:
            data = [ws.page_content(slot) for slot in range(len(pages))]
        else:
            data = None
        self.uffd.copy_batch(pages, data)
        self.breakdown.install_ws_us = env.now - started
        self.breakdown.prefetched_pages = len(pages)
        self.breakdown.extra["shared_hit_pages"] = shared
        tracer = obs_tracer.ACTIVE
        if tracer is not None:
            tracer.instant("shared_hit", env.now,
                           lane=f"shared:{vm.name}", proc=self.obs_proc,
                           cat="policy",
                           args={"function": function, "pages": len(pages),
                                 "shared": shared})
        self._object_id = f"shared/{vm.name}-p{self.policy_id}"
        residency.acquire(self._object_id, digests)

    def on_teardown(self) -> None:
        if self.residency is not None and self._object_id is not None:
            self.residency.release(self._object_id)
            self._object_id = None
