"""Host page cache with readahead, mmap fault path, and O_DIRECT bypass.

Three read paths matter to the paper, and all three live here:

* :meth:`HostPageCache.fault_in` -- the mmap-style first-touch path taken
  by lazily restored guest memory (vanilla snapshots).  Each miss performs
  a small *windowed* read around the faulting page; pages adjacent on disk
  and accessed soon after are then cache hits.  With the ~2-3-page
  contiguity of function working sets (Fig. 3) this yields the ~43 MB/s
  effective bandwidth the paper reports for the baseline, far from the
  device's capability.
* :meth:`HostPageCache.read` -- the buffered ``read(2)`` path with
  sequential readahead.  Large sequential reads pay a per-page cache
  insertion/copy cost, which is exactly the gap between the paper's
  "WS file" design point (275 MB/s) and REAP proper.
* the ``direct=True`` variant of :meth:`read` -- the ``O_DIRECT`` path
  REAP uses, which skips the cache and its per-page costs and reaches
  533 MB/s.

:meth:`HostPageCache.fault_in_place` is the synchronous form of the fault
path: when no other process could observe a fault's service (a hit, a
hole, or a major fault whose read would wait for nothing), it serves the
fault and the caller's tail step with one in-place clock move
(:meth:`Environment.advance_to`) and the same bookkeeping as
:meth:`fault_in`; otherwise it changes nothing and the caller drives
:meth:`fault_in`.

``drop_caches`` models the paper's methodology of flushing the host page
cache before every cold invocation (§4.1).

Every read path here charges simulated time and returns no bytes.  The
cost depends only on which blocks a file has and which are cached, so
building the content of a multi-megabyte working-set read would be host
work that no result uses; the one caller that needs content
(``parallel_pf`` installing full-content pages) reads it from the
:class:`SimFile` itself.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Generator

from repro.sim.engine import Environment, Event
from repro.sim.units import KIB, PAGE_SIZE
from repro.storage.device import IoRequest, ReadKind
from repro.storage.filesystem import SimFile

#: Cache key: (SimFile.file_id, file version, block index).
_CacheKey = tuple[int, int, int]


@dataclass(frozen=True)
class PageCacheParameters:
    """Host-kernel path costs (calibrated; see bench_fio_ssd and Fig. 7)."""

    #: Minor fault / cache-hit service time per page.
    hit_us: float = 4.0
    #: Page allocation + cache insertion + mapping cost per page brought in.
    insert_us: float = 7.5
    #: Extra copy-to-user cost per page on buffered read(2).
    copy_us: float = 1.5
    #: Kernel entry/exit + page-table update on a major fault.
    major_fault_us: float = 18.0
    #: O_DIRECT per-page DMA setup/pinning cost.
    direct_per_page_us: float = 2.6
    #: Pages read around a major mmap fault (the fault window).
    mmap_readahead_pages: int = 4
    #: Readahead window for sequential buffered reads.
    readahead_bytes: int = 256 * KIB
    #: Maximum number of cached pages (default effectively unbounded).
    capacity_pages: int = 1 << 24


class HostPageCache:
    """LRU page cache shared by every file on the host."""

    def __init__(self, env: Environment,
                 params: PageCacheParameters | None = None) -> None:
        self.env = env
        self.params = params or PageCacheParameters()
        self._cached: OrderedDict[_CacheKey, None] = OrderedDict()
        #: Per-file readahead state: (next expected block, window pages).
        self._readahead: dict[int, tuple[int, int]] = {}
        self.hits = 0
        self.misses = 0
        #: Bytes of an unclipped major-fault window.
        self._full_window_bytes = self.params.mmap_readahead_pages * PAGE_SIZE

    # -- cache bookkeeping -------------------------------------------------

    def _key(self, file: SimFile, block: int) -> _CacheKey:
        return (file.file_id, file.version, block)

    def is_cached(self, file: SimFile, block: int) -> bool:
        """Whether a file block is resident."""
        return self._key(file, block) in self._cached

    def _touch(self, key: _CacheKey) -> None:
        self._cached.move_to_end(key)

    def _insert(self, key: _CacheKey) -> None:
        self._cached[key] = None
        self._cached.move_to_end(key)
        while len(self._cached) > self.params.capacity_pages:
            self._cached.popitem(last=False)

    @property
    def cached_pages(self) -> int:
        """Number of resident pages."""
        return len(self._cached)

    def drop_caches(self) -> None:
        """Flush everything (``echo 3 > /proc/sys/vm/drop_caches``)."""
        # Must be .clear(), not a fresh dict: suspended fault_in frames
        # hold a local reference to this OrderedDict across yields, and
        # their inserts must land in the (emptied) live cache.
        self._cached.clear()

    # -- mmap fault path ---------------------------------------------------

    def hit_cost(self, file: SimFile, block: int) -> float | None:
        """Serve a fault as a cache hit if resident, without a generator.

        Returns the minor-fault service time (and performs the hit
        bookkeeping) when the block is cached, ``None`` otherwise.  Fast
        path for fault handlers: a hit involves no device I/O, so callers
        can yield a single timeout instead of driving :meth:`fault_in`.
        """
        key = (file.file_id, file.version, block)
        cached = self._cached
        if key in cached:
            self.hits += 1
            cached.move_to_end(key)
            return self.params.hit_us
        return None

    def _fault_window(self, file: SimFile, block: int) -> tuple[int, int]:
        """The read window of a major fault on ``block``.

        A forward window of up to ``mmap_readahead_pages`` written,
        uncached blocks starting at the faulting one, clipped at the end
        of the file.  Returns its end block (exclusive) and its bytes.
        """
        cached = self._cached
        written = file._written_blocks
        last_block = (file.size - 1) // PAGE_SIZE
        file_id = file.file_id
        version = file.version
        window_end = block + 1
        for candidate in range(block + 1,
                               block + self.params.mmap_readahead_pages):
            if (candidate > last_block
                    or (file_id, version, candidate) in cached
                    or candidate not in written):
                break
            window_end = candidate + 1
        offset = block * PAGE_SIZE
        return window_end, min((window_end - block) * PAGE_SIZE,
                               file.size - offset)

    def fault_in(self, file: SimFile,
                 block: int) -> Generator[Event, Any, bool]:
        """Serve a first-touch fault on a file-backed mapping.

        Returns ``True`` if the fault was a major fault (required device
        I/O).  On a miss, reads a forward window of
        ``mmap_readahead_pages`` starting at the faulting page, skipping
        already-cached pages at the window edges.
        """
        # This is the hottest model path (one call per demand fault of
        # every vanilla restore), so key construction and cache
        # bookkeeping are inlined.
        cached = self._cached
        params = self.params
        env = self.env
        key = (file.file_id, file.version, block)
        if key in cached:
            self.hits += 1
            cached.move_to_end(key)
            if not env.advance(params.hit_us):
                yield env.timeout(params.hit_us)
            return False
        self.misses += 1
        written = file._written_blocks
        if block not in written:
            # Sparse hole: the kernel maps a zero page, no device I/O.
            cached[key] = None
            if len(cached) > params.capacity_pages:
                cached.popitem(last=False)
            cost = params.major_fault_us + params.insert_us
            if not env.advance(cost):
                yield env.timeout(cost)
            return False
        window_end, nbytes = self._fault_window(file, block)
        n_blocks = window_end - block
        device = file.device
        for lba, length in file.device_ranges(block * PAGE_SIZE, nbytes):
            yield from device.read(
                IoRequest(lba=lba, nbytes=length, kind=ReadKind.DEMAND_FAULT))
        file_id = file.file_id
        version = file.version
        for index in range(block, window_end):
            cached[(file_id, version, index)] = None
        while len(cached) > params.capacity_pages:
            cached.popitem(last=False)
        cost = (params.major_fault_us
                + params.insert_us * n_blocks)
        if not env.advance(cost):
            yield env.timeout(cost)
        return True

    def fault_in_place(self, file: SimFile, block: int,
                       major_tail: float | None = None,
                       minor_tail: float | None = None) -> bool | None:
        """Serve a fault as plain synchronous code, if nothing can tell.

        The synchronous form of :meth:`fault_in` followed by the
        caller's own tail step (a clock advance of ``major_tail`` after
        a major fault, of ``minor_tail`` after a hit or a hole; ``None``
        for no step).  It covers a hit, a hole, and a major fault whose
        window is one device range on a device that can answer
        ``uncontended_read_end``.  The whole chain must pass
        :meth:`Environment.advance_to` at its end time, counting the
        events the generator path would: one for a hit or a hole, the
        device's steps plus one for a major fault, plus one for a tail.
        Then it leaves the LRU order, ``hits``/``misses`` and the device
        statistics exactly as :meth:`fault_in` would and returns whether
        the fault was major.  Otherwise it changes nothing and returns
        ``None``, and the caller drives :meth:`fault_in` instead.
        """
        cached = self._cached
        params = self.params
        env = self.env
        file_id = file.file_id
        version = file.version
        key = (file_id, version, block)
        # The clock is read from its slot: this runs once per fault.
        if key in cached:
            when = env._now + params.hit_us
            events = 1
            if minor_tail is not None:
                when += minor_tail
                events = 2
            if not env.advance_to(when, events):
                return None
            self.hits += 1
            cached.move_to_end(key)
            return False
        written = file._written_blocks
        if block not in written:
            when = env._now + (params.major_fault_us + params.insert_us)
            events = 1
            if minor_tail is not None:
                when += minor_tail
                events = 2
            if not env.advance_to(when, events):
                return None
            self.misses += 1
            cached[key] = None
            if len(cached) > params.capacity_pages:
                cached.popitem(last=False)
            return False
        # Ask the device about a full window first: one that is busy or
        # never answers declines before the window is planned, and a
        # window that is not clipped needs no second query.
        device = file.device
        start = env._now
        full = self._full_window_bytes
        answer = device.uncontended_read_end(start, full)
        if answer is None:
            return None
        window_end, nbytes = self._fault_window(file, block)
        n_blocks = window_end - block
        ranges = file.device_ranges(block * PAGE_SIZE, nbytes)
        if len(ranges) != 1:
            return None
        length = ranges[0][1]
        if length != full:
            answer = device.uncontended_read_end(start, length)
            if answer is None:
                return None
        end, events = answer
        when = end + (params.major_fault_us + params.insert_us * n_blocks)
        events += 1
        if major_tail is not None:
            when += major_tail
            events += 1
        if not env.advance_to(when, events):
            return None
        device.commit_read(length, ReadKind.DEMAND_FAULT, end)
        self.misses += 1
        for index in range(block, window_end):
            cached[(file_id, version, index)] = None
        while len(cached) > params.capacity_pages:
            cached.popitem(last=False)
        return True

    # -- read(2) path --------------------------------------------------------

    def read(self, file: SimFile, offset: int, nbytes: int,
             direct: bool = False,
             kind: ReadKind | None = None) -> Generator[Event, Any, None]:
        """Charge the time of a buffered or O_DIRECT read.

        Returns nothing: the timing model needs only which blocks the
        file has, and no caller uses the bytes of a timed read.  A
        caller that needs content reads it from ``file`` itself
        (:meth:`SimFile.read`/``read_block``).
        """
        if offset < 0 or offset + nbytes > file.size:
            raise ValueError(
                f"read [{offset}, {offset + nbytes}) outside file "
                f"{file.name!r} of size {file.size}")
        if direct:
            yield from self._direct_read(file, offset, nbytes)
        else:
            yield from self._buffered_read(file, offset, nbytes,
                                           kind or ReadKind.BUFFERED)

    def _direct_read(self, file: SimFile, offset: int,
                     nbytes: int) -> Generator[Event, Any, None]:
        env = self.env
        pages = (nbytes + PAGE_SIZE - 1) // PAGE_SIZE
        cost = self.params.direct_per_page_us * pages
        if not env.advance(cost):
            yield env.timeout(cost)
        for lba, length in file.iter_device_ranges(offset, nbytes):
            yield from file.device.read(
                IoRequest(lba=lba, nbytes=length, kind=ReadKind.DIRECT))

    def _buffered_read(self, file: SimFile, offset: int, nbytes: int,
                       kind: ReadKind) -> Generator[Event, Any, None]:
        env = self.env
        end = min(offset + nbytes, file.size)
        first_block = offset // PAGE_SIZE
        last_block = (end - 1) // PAGE_SIZE
        # Sequential detection with window ramping, as the kernel does: a
        # read starting where the previous one ended grows the readahead
        # window (16 KiB doubling up to ``readahead_bytes``); a random
        # read resets it and fetches only what was asked for.
        expected, window = self._readahead.get(file.file_id, (-1, 0))
        if first_block == expected:
            window = min(max(window * 2, 4),
                         self.params.readahead_bytes // PAGE_SIZE)
        else:
            window = 0
        self._readahead[file.file_id] = (last_block + 1, window)
        block = first_block
        while block <= last_block:
            if self.is_cached(file, block):
                self._touch(self._key(file, block))
                self.hits += 1
                if not env.advance(self.params.copy_us):
                    yield env.timeout(self.params.copy_us)
                block += 1
                continue
            # Miss: read the remaining requested blocks plus the current
            # readahead window, clipped to contiguous uncached written
            # blocks (holes need no I/O and stop the window).
            self.misses += 1
            max_chunk = max(self.params.readahead_bytes // PAGE_SIZE, 1)
            target = min(max((last_block - block + 1) + window, 1), max_chunk)
            run = [block] if file.has_block(block) else []
            while (run
                   and len(run) < target
                   and not self.is_cached(file, run[-1] + 1)
                   and file.has_block(run[-1] + 1)
                   and (run[-1] + 1) * PAGE_SIZE < file.size):
                run.append(run[-1] + 1)
            if not run:
                # Hole: zero-fill without device I/O.
                self._insert(self._key(file, block))
                cost = self.params.insert_us + self.params.copy_us
                if not env.advance(cost):
                    yield env.timeout(cost)
                block += 1
                continue
            run_offset = run[0] * PAGE_SIZE
            run_bytes = min(len(run) * PAGE_SIZE, file.size - run_offset)
            for lba, length in file.iter_device_ranges(run_offset, run_bytes):
                yield from file.device.read(
                    IoRequest(lba=lba, nbytes=length, kind=kind))
            for index in run:
                self._insert(self._key(file, index))
            cost = len(run) * (self.params.insert_us + self.params.copy_us)
            if not env.advance(cost):
                yield env.timeout(cost)
            block = run[-1] + 1

    # -- write path ----------------------------------------------------------

    def write(self, file: SimFile, offset: int, data: bytes,
              sync: bool = True) -> Generator[Event, Any, None]:
        """Write content and charge device time (write-through when sync)."""
        file.write(offset, data)
        pages = (len(data) + PAGE_SIZE - 1) // PAGE_SIZE
        yield self.env.timeout(self.params.copy_us * pages)
        if sync:
            for lba, length in file.iter_device_ranges(offset, len(data)):
                yield from file.device.write(
                    IoRequest(lba=lba, nbytes=length, kind=ReadKind.WRITE))
        # Freshly written pages are resident.
        first_block = offset // PAGE_SIZE
        for index in range(first_block, first_block + pages):
            self._insert(self._key(file, index))
