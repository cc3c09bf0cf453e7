"""Working-set layouts and per-invocation access traces.

This module turns a :class:`FunctionProfile` into the concrete
guest-physical structure the paper measures:

* a **stable layout** -- scattered contiguous runs (mean length =
  ``contiguity_mean``, Fig. 3) inside the booted footprint, identical
  across invocations (§4.4: the guest buddy allocator makes the same
  decisions when started from the same snapshot);
* **per-invocation unique pages** -- input-dependent allocations; a
  configurable fraction land beyond the booted footprint (fresh
  zero-fill pages), the rest inside it (reused allocator regions whose
  snapshot content must be read from disk on fault);
* the **record/replay divergence** of video_processing (§6.3): the first
  invocation's processing working set differs from later ones, so a
  REAP trace recorded on invocation 0 mispredicts invocations >= 1.

Layouts are deterministic in ``(profile, seed, epoch)``; traces
additionally in the invocation index.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

from repro.functions.spec import FunctionProfile
from repro.memory.trace import AccessTrace
from repro.sim.rng import RandomStream
from repro.sim.units import MS


@dataclass(frozen=True)
class WorkingSetLayout:
    """The stable (cross-invocation) part of a function's working set."""

    connection_runs: tuple[tuple[int, ...], ...]
    processing_runs: tuple[tuple[int, ...], ...]
    #: Alternate processing runs used only by the record invocation when
    #: the profile declares record/replay divergence.
    record_processing_runs: tuple[tuple[int, ...], ...]

    @property
    def connection_pages(self) -> tuple[int, ...]:
        return tuple(page for run in self.connection_runs for page in run)

    @property
    def processing_pages(self) -> tuple[int, ...]:
        return tuple(page for run in self.processing_runs for page in run)

    @property
    def stable_page_set(self) -> frozenset[int]:
        return frozenset(self.connection_pages) | frozenset(
            self.processing_pages)


class FunctionBehavior:
    """Generator of access traces for one function + snapshot epoch."""

    def __init__(self, profile: FunctionProfile, seed: int = 42,
                 epoch: int = 0) -> None:
        self.profile = profile
        self.seed = seed
        self.epoch = epoch
        self._stream = RandomStream(seed, "behavior", profile.name, epoch)
        # Occupancy map of the stable layout: one byte per guest page,
        # non-zero once a run covers it.
        self._occupied = bytearray(profile.vm_pages)
        self.layout = self._build_layout()

    # -- layout construction ----------------------------------------------

    def _build_layout(self) -> WorkingSetLayout:
        profile = self.profile
        boot_pages = profile.boot_footprint_pages
        conn_runs = self._draw_runs(
            self._stream.child("conn"), profile.connection_pages,
            profile.contiguity_mean, 0, boot_pages, self._occupied)
        proc_runs = self._draw_runs(
            self._stream.child("proc"), profile.processing_pages,
            profile.contiguity_mean, 0, boot_pages, self._occupied)
        record_runs = proc_runs
        alternates: list[range] = []
        if profile.record_divergence > 0.0:
            record_runs, alternates = self._diverge_runs(proc_runs)
        # Every run placed apart, the record phase's alternates included:
        # then no trace can repeat a layout page, and unique pages avoid
        # them all.
        self._stable_marks = self._check_placed(
            self._occupied, 0, chain(conn_runs, proc_runs, alternates),
            f"{profile.name}: working-set layout")
        return WorkingSetLayout(
            connection_runs=tuple(tuple(run) for run in conn_runs),
            processing_runs=tuple(tuple(run) for run in proc_runs),
            record_processing_runs=tuple(tuple(run) for run in record_runs),
        )

    @staticmethod
    def _check_placed(occupied: bytearray, marked_before: int,
                      runs: Iterable[range], what: str) -> int:
        """Check that ``runs`` share no page with each other or before.

        :meth:`_draw_runs` marks every run it returns in ``occupied``, on
        pages free until then, so the runs are distinct and avoid the
        ``marked_before`` pages marked earlier exactly when the map
        gained one mark per page of them.  Returns the marks now set.
        """
        marked = occupied.count(1)
        if marked - marked_before != sum(map(len, runs)):
            raise ValueError(f"{what}: placed runs share a page")
        return marked

    def _diverge_runs(
            self, runs: list[range]) -> tuple[list[range], list[range]]:
        """Swap a fraction of processing runs for alternates (record phase).

        Returns the record phase's runs and the alternates among them.
        """
        stream = self._stream.child("divergence")
        divergent_target = int(self.profile.record_divergence
                               * self.profile.processing_pages)
        swapped_pages = 0
        result: list[range] = []
        alternates: list[range] = []
        order = list(range(len(runs)))
        stream.shuffle(order)
        to_swap = set()
        for index in order:
            if swapped_pages >= divergent_target:
                break
            to_swap.add(index)
            swapped_pages += len(runs[index])
        for index, run in enumerate(runs):
            if index in to_swap:
                replacement = self._draw_runs(
                    stream.child("alt", index), len(run),
                    self.profile.contiguity_mean, 0,
                    self.profile.boot_footprint_pages, self._occupied)
                result.extend(replacement)
                alternates.extend(replacement)
            else:
                result.append(run)
        return result, alternates

    @staticmethod
    def _draw_runs(stream: RandomStream, total_pages: int,
                   mean_length: float, low: int, high: int,
                   occupied: bytearray) -> list[range]:
        """Place ``total_pages`` as non-overlapping contiguous runs.

        Each run takes a geometric length (mean ``mean_length``, capped
        at the pages still to place), then up to 64 uniform start draws
        in ``[low, high - length]``; if none lands on a free gap, a
        linear sweep from one more random start takes the first gap that
        fits, and if there is none the length halves and placement
        starts over.  Placed pages are marked in ``occupied``.

        The draws are inlined -- ``RandomStream.geometric`` and
        ``randint`` (``random.Random._randbelow``) -- and consume the
        stream exactly as those calls would: traces are a function of
        the draw sequence, so the order of draws is part of the result.
        """
        random = stream._random
        getrandbits = stream._getrandbits
        find = occupied.find
        success = 1.0 / mean_length
        runs: list[range] = []
        remaining = total_pages
        while remaining > 0:
            length = 1
            if mean_length != 1.0:
                # Inverse-transform geometric draw (RandomStream.geometric).
                while random() > success:
                    length += 1
                if length > remaining:
                    length = remaining
            while True:
                span = high - low - length
                if span >= 0:
                    # randint(0, span): rejection-sampled getrandbits.
                    bound = span + 1
                    bits = bound.bit_length()
                    for _attempt in range(64):
                        offset = getrandbits(bits)
                        while offset >= bound:
                            offset = getrandbits(bits)
                        start = low + offset
                        if length == 1:
                            if not occupied[start]:
                                break
                        elif find(1, start, start + length) < 0:
                            break
                    else:
                        # Dense region: fall back to a linear sweep from
                        # a random point.
                        offset = getrandbits(bits)
                        while offset >= bound:
                            offset = getrandbits(bits)
                        origin = low + offset
                        for start in chain(range(origin, low + bound),
                                           range(low, origin)):
                            if find(1, start, start + length) < 0:
                                break
                        else:
                            start = -1
                    if start >= 0:
                        break
                # Dense region: free space is fragmented into gaps
                # shorter than the drawn run; degrade gracefully.
                if length == 1:
                    raise ValueError(
                        f"region [{low}, {high}) has no free page for "
                        f"the working set")
                length //= 2
            if length == 1:
                occupied[start] = 1
            else:
                occupied[start:start + length] = b"\x01" * length
            runs.append(range(start, start + length))
            remaining -= length
        return runs

    # -- per-invocation traces ----------------------------------------------

    def trace_for(self, invocation: int, record: bool = False) -> AccessTrace:
        """Build the first-touch trace of invocation ``invocation``.

        ``record=True`` marks the invocation REAP records; with non-zero
        ``record_divergence`` its stable processing set differs from the
        one every ordinary invocation touches (the §6.3 video_processing
        effect, where the recorded input is unrepresentative).
        """
        profile = self.profile
        layout = self.layout
        stream = self._stream.child("invocation", invocation)
        conn_runs = list(layout.connection_runs)
        stream.child("conn-order").shuffle(conn_runs)
        stable_runs = (layout.record_processing_runs if record
                       else layout.processing_runs)
        merged: list[Sequence[int]] = [
            *stable_runs, *self._draw_unique_runs(stream.child("unique"))]
        stream.child("proc-order").shuffle(merged)
        # Flatten through a list: tuple() over an iterator grows the
        # tuple by repeated reallocation, which fragments the heap and
        # raises peak RSS.  The layout was checked when it was built and
        # the unique pages when they were drawn, so the pages are
        # distinct without a set of them all.
        flatten = chain.from_iterable
        return AccessTrace.of_distinct_pages(
            connection_pages=tuple(list(flatten(conn_runs))),
            processing_pages=tuple(list(flatten(merged))),
            connection_compute_us=profile.connection_warm_ms * MS,
            processing_compute_us=profile.warm_ms * MS,
            label=f"{profile.name}#{invocation}",
        )

    def _draw_unique_runs(self, stream: RandomStream) -> list[range]:
        profile = self.profile
        zero_count = int(profile.unique_pages * profile.unique_zero_fraction)
        inside_count = profile.unique_pages - zero_count
        # Unique pages are drawn per invocation; they avoid the stable set
        # (marked in self._occupied) but different invocations may reuse
        # each other's locations, exactly like a real allocator would.
        local_occupied = self._occupied[:]
        runs = self._draw_runs(
            stream.child("inside"), inside_count,
            profile.unique_contiguity_mean, 0,
            profile.boot_footprint_pages, local_occupied)
        if zero_count > 0:
            runs += self._draw_runs(
                stream.child("zero"), zero_count,
                profile.unique_contiguity_mean,
                profile.boot_footprint_pages, profile.vm_pages,
                local_occupied)
        self._check_placed(local_occupied, self._stable_marks, runs,
                           f"{profile.name}: unique pages")
        return runs

    # -- helpers for boot and analysis ---------------------------------------

    def boot_pages(self) -> range:
        """Pages resident after a full boot (the Fig. 4 blue footprint)."""
        return range(self.profile.boot_footprint_pages)

    def zero_page_boundary(self) -> int:
        """First guest page never written by boot (sparse in the snapshot)."""
        return self.profile.boot_footprint_pages
