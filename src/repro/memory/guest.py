"""Guest-physical memory of a MicroVM.

A :class:`GuestMemory` tracks, per 4 KiB page, whether the page is
*present* (mapped with contents) in the instance's address space, and in
full-content mode also carries the actual bytes so that restore policies
can be checked for correctness: whatever path a page takes into guest
memory (kernel lazy paging, REAP prefetch, demand userfault), its bytes
must equal the snapshot file's bytes for that guest-physical offset.

Content tracking is switchable because the big parameter-sweep benchmarks
do not need bytes to measure latency:

* ``ContentMode.FULL`` -- pages carry real bytes; installs are verified.
* ``ContentMode.METADATA`` -- presence only (used by large benchmarks).
"""

from __future__ import annotations

import enum
from typing import Iterable

from repro.sim.units import PAGE_SIZE
from repro.storage.filesystem import SimFile


class BackingMode(enum.Enum):
    """How missing pages get populated."""

    #: All pages present from the start (freshly booted or warm VM).
    ANONYMOUS = "anonymous"
    #: Lazily paged from a snapshot memory file by the host kernel
    #: (vanilla Firecracker snapshot restore).
    FILE_LAZY = "file_lazy"
    #: Registered with userfaultfd; a userspace monitor installs pages
    #: (REAP and its design-point variants).
    UFFD = "uffd"


class ContentMode(enum.Enum):
    """Whether guest pages carry real bytes."""

    FULL = "full"
    METADATA = "metadata"


class MemoryIntegrityError(RuntimeError):
    """An installed page's bytes differ from its snapshot source."""


class GuestMemory:
    """Guest-physical memory region of one MicroVM instance."""

    def __init__(self, size_bytes: int,
                 mode: BackingMode = BackingMode.ANONYMOUS,
                 content: ContentMode = ContentMode.METADATA,
                 backing_file: SimFile | None = None) -> None:
        if size_bytes <= 0 or size_bytes % PAGE_SIZE:
            raise ValueError(
                f"memory size must be a positive page multiple: {size_bytes}")
        if mode is not BackingMode.ANONYMOUS and backing_file is None:
            raise ValueError(f"mode {mode} requires a backing file")
        self.size_bytes = size_bytes
        self.mode = mode
        self.content_mode = content
        self.backing_file = backing_file
        #: Cached page total (the region never resizes); keeps the
        #: per-install bounds check free of the division in the property.
        self._page_count = size_bytes // PAGE_SIZE
        self._full_content = content is ContentMode.FULL
        self._present: set[int] = set()
        self._content: dict[int, bytes] = {}
        #: Ordered log of first-touch page installs (guest-physical page
        #: numbers, in install order) -- the raw material of every §4
        #: working-set analysis.
        self.install_order: list[int] = []

    @property
    def page_count(self) -> int:
        """Total pages in the region."""
        return self._page_count

    @property
    def present_pages(self) -> int:
        """Number of pages currently mapped."""
        return len(self._present)

    @property
    def resident_bytes(self) -> int:
        """Resident set size in bytes (the Fig. 4 metric)."""
        return len(self._present) * PAGE_SIZE

    def is_present(self, page: int) -> bool:
        """Whether ``page`` is mapped."""
        return page in self._present

    def check_page(self, page: int) -> None:
        """Validate a page number against the region bounds."""
        if not 0 <= page < self._page_count:
            raise ValueError(
                f"page {page} outside region of {self._page_count} pages")

    def install(self, page: int, data: bytes | None = None,
                verify: bool = True) -> None:
        """Map ``page`` with ``data`` (or the backing file's bytes).

        In full-content mode with ``verify``, raises
        :class:`MemoryIntegrityError` if ``data`` disagrees with the
        snapshot backing file -- the end-to-end correctness check for
        every restore policy.
        """
        # Present pages are always in bounds, so the cheap membership
        # test can run before the bounds check (which is inlined: this
        # runs once per demand fault).
        if page in self._present:
            return
        if not 0 <= page < self._page_count:
            raise ValueError(
                f"page {page} outside region of {self._page_count} pages")
        if self._full_content:
            expected = self._backing_bytes(page)
            if data is None:
                data = expected
            elif verify and expected is not None and data != expected:
                raise MemoryIntegrityError(
                    f"page {page} installed with bytes differing from "
                    f"snapshot source")
            self._content[page] = data
        self._present.add(page)
        self.install_order.append(page)

    def install_many(self, pages: list[int],
                     data: list[bytes] | None = None) -> int:
        """Map a batch of pages; returns how many were newly installed.

        The batch form of :meth:`install` (with ``verify``), for eager
        working-set installs: ``data[i]`` is the payload of
        ``pages[i]``.  Already-present pages and repeats are skipped.  In
        metadata mode this is one bulk map (:meth:`_map_fresh`).  Full-
        content mode verifies page by page, raising
        :class:`MemoryIntegrityError` at the first payload that differs
        from the snapshot source.
        """
        if not self._full_content:
            return self._map_fresh(pages)
        present = self._present
        before = len(present)
        for index, page in enumerate(pages):
            self.install(page, None if data is None else data[index])
        return len(present) - before

    def _map_fresh(self, pages: Iterable[int]) -> int:
        """Mark the not-yet-present ``pages`` present, without content.

        One dedupe in first-occurrence order, one bounds check (an
        out-of-range page raises before anything is mapped) and one set
        update instead of per-page add/append: boot and REAP's prefetch
        map hundreds of thousands of pages.  Returns how many pages were
        newly mapped.
        """
        present = self._present
        if present:
            fresh = [page for page in dict.fromkeys(pages)
                     if page not in present]
        else:
            fresh = list(dict.fromkeys(pages))
        page_count = self._page_count
        if fresh and (min(fresh) < 0 or max(fresh) >= page_count):
            bad = next(page for page in fresh
                       if not 0 <= page < page_count)
            raise ValueError(
                f"page {bad} outside region of {page_count} pages")
        present.update(fresh)
        self.install_order.extend(fresh)
        return len(fresh)

    def _backing_bytes(self, page: int) -> bytes | None:
        if self.backing_file is None:
            return None
        return self.backing_file.read_block(page)

    def read_page(self, page: int) -> bytes:
        """Return the bytes of a present page (full-content mode only)."""
        self.check_page(page)
        if self.content_mode is not ContentMode.FULL:
            raise RuntimeError("content not tracked in metadata mode")
        if page not in self._present:
            raise RuntimeError(f"page {page} not present")
        return self._content.get(page, bytes(PAGE_SIZE))

    def write_page(self, page: int, data: bytes) -> None:
        """Guest store to a present page (dirties content)."""
        self.check_page(page)
        if page not in self._present:
            raise RuntimeError(f"page {page} not present; fault it first")
        if self.content_mode is ContentMode.FULL:
            if len(data) != PAGE_SIZE:
                raise ValueError(f"page writes must be {PAGE_SIZE} bytes")
            self._content[page] = data

    def populate_all(self) -> None:
        """Mark the whole region present (used after a full boot)."""
        self._present.update(range(self.page_count))

    def populate(self, pages_iter, filler=None) -> None:
        """Mark pages present (boot modelling).

        ``filler(page) -> bytes`` supplies content in full-content mode;
        without it, populated pages carry zeros.
        """
        if self.content_mode is not ContentMode.FULL or filler is None:
            self._map_fresh(pages_iter)
            return
        present = self._present
        order = self.install_order
        page_count = self.page_count
        content = self._content
        for page in pages_iter:
            if not 0 <= page < page_count:
                raise ValueError(
                    f"page {page} outside region of {page_count} pages")
            if page not in present:
                content[page] = filler(page)
                present.add(page)
                order.append(page)

    def faulted_pages(self) -> list[int]:
        """First-touch pages in install order."""
        return list(self.install_order)
