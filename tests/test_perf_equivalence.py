"""Equivalence guard for the fast-path simulator core and set algebra.

Every optimization in the engine, the working-set algebra, and the
chunk index must be *invisible* in results.  This suite pins that three
ways:

* the bitmap-backed :mod:`repro.memory.working_set` and the
  Counter-batched :class:`repro.snapstore.chunks.ChunkIndex` are
  compared against straightforward reference implementations kept in
  this file (copies of the original code), over seeded random and
  adversarial inputs;
* the fused-and-memoized :func:`snapshot_page_digest` is compared
  against its defining identity ``page_digest(page_bytes(...))``;
* the engine fast path (immediate deque, inline dispatch) is compared
  against the reference heap path (``REPRO_ENGINE_SLOWPATH``) on a real
  three-scheme experiment: byte-identical payloads and assembled rows,
  and the same number of processed events;
* the fused working-set placement loop of
  :class:`repro.functions.FunctionBehavior` and the inlined
  :meth:`RandomStream.shuffle` are compared against the original
  set-based generator and ``random.Random.shuffle``: identical layouts,
  traces, and generator state afterwards.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

import pytest

from repro.bench.cache import canonicalize
from repro.functions import FunctionBehavior, FunctionProfile
from repro.functions.behavior import WorkingSetLayout
from repro.functions.catalog import catalog_names, get_profile
from repro.functions.content import page_bytes
from repro.memory import working_set as ws
from repro.memory.trace import AccessTrace
from repro.sim import engine as sim_engine
from repro.sim.engine import Environment
from repro.sim.rng import RandomStream
from repro.sim.units import MS
from repro.snapstore.chunks import (
    ChunkIndex,
    ZERO_PAGE_DIGEST,
    compressed_chunk_bytes,
    page_digest,
    snapshot_page_digest,
)

# ---------------------------------------------------------------------------
# Reference implementations (the original, pre-bitmap code).
# ---------------------------------------------------------------------------


def ref_contiguous_runs(page_set):
    pages = sorted(set(page_set))
    if not pages:
        return []
    runs = []
    start = previous = pages[0]
    for page in pages[1:]:
        if page == previous + 1:
            previous = page
            continue
        runs.append((start, previous - start + 1))
        start = previous = page
    runs.append((start, previous - start + 1))
    return runs


def ref_mean_run_length(page_set):
    runs = ref_contiguous_runs(page_set)
    if not runs:
        return 0.0
    return sum(length for _start, length in runs) / len(runs)


def ref_run_length_histogram(page_set, max_bucket=16):
    histogram = {}
    for _start, length in ref_contiguous_runs(page_set):
        bucket = min(length, max_bucket)
        histogram[bucket] = histogram.get(bucket, 0) + 1
    return histogram


def ref_reuse_between(first, second):
    first_set = set(first)
    second_set = set(second)
    same = len(second_set & first_set)
    return ws.ReuseStats(same_pages=same,
                         unique_pages=len(second_set) - same)


def ref_stable_working_set(page_sets):
    if not page_sets:
        return frozenset()
    stable = set(page_sets[0])
    for pages in page_sets[1:]:
        stable &= set(pages)
    return frozenset(stable)


@dataclass
class _RefChunk:
    refs: int
    stored_bytes: int


class RefChunkIndex:
    """The original per-page-loop chunk index with swept byte totals."""

    def __init__(self):
        self._chunks = {}
        self._objects = {}
        self.reclaimed_bytes = 0

    def add_object(self, object_id, digests):
        if object_id in self._objects:
            raise ValueError(f"object {object_id!r} already indexed")
        sequence = tuple(digests)
        new_chunks = 0
        new_stored = 0
        for digest in sequence:
            chunk = self._chunks.get(digest)
            if chunk is None:
                self._chunks[digest] = _RefChunk(
                    refs=1, stored_bytes=compressed_chunk_bytes(digest))
                new_chunks += 1
                new_stored += self._chunks[digest].stored_bytes
            else:
                chunk.refs += 1
        self._objects[object_id] = sequence
        return {"pages": len(sequence), "new_chunks": new_chunks,
                "new_stored_bytes": new_stored}

    def release_object(self, object_id):
        sequence = self._objects.pop(object_id)
        freed = 0
        for digest in sequence:
            chunk = self._chunks[digest]
            chunk.refs -= 1
            if chunk.refs == 0:
                freed += chunk.stored_bytes
                del self._chunks[digest]
        self.reclaimed_bytes += freed
        return freed

    def shared_fraction(self, base_id, other_id):
        base = set(self._objects[base_id])
        other = self._objects[other_id]
        if not other:
            return 0.0
        return sum(1 for digest in other if digest in base) / len(other)

    @property
    def chunk_count(self):
        return len(self._chunks)

    @property
    def logical_bytes(self):
        from repro.sim.units import PAGE_SIZE
        return sum(len(sequence) for sequence in
                   self._objects.values()) * PAGE_SIZE

    @property
    def unique_bytes(self):
        from repro.sim.units import PAGE_SIZE
        return self.chunk_count * PAGE_SIZE

    @property
    def stored_bytes(self):
        return sum(chunk.stored_bytes for chunk in self._chunks.values())


def random_page_set(rng, style):
    """One page set: dense clusters, sparse scatter, or a mix."""
    if style == "dense":
        base = rng.randrange(0, 10_000)
        pages = []
        for _ in range(rng.randrange(1, 12)):
            start = base + rng.randrange(0, 400)
            pages.extend(range(start, start + rng.randrange(1, 9)))
        return pages
    if style == "sparse":
        return [rng.randrange(0, 1_000_000)
                for _ in range(rng.randrange(0, 60))]
    pages = random_page_set(rng, "dense") + random_page_set(rng, "sparse")
    rng.shuffle(pages)
    return pages


STYLES = ("dense", "sparse", "mixed")


# ---------------------------------------------------------------------------
# working_set: bitmap algebra vs reference.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("style", STYLES)
def test_contiguous_runs_matches_reference_random(style):
    rng = random.Random(f"runs/{style}")
    for _ in range(40):
        pages = random_page_set(rng, style)
        assert ws.contiguous_runs(pages) == ref_contiguous_runs(pages)


@pytest.mark.parametrize("pages", [
    [],
    [0],
    [5],
    [-3, -2, -1],
    [-5, -3, 0, 1, 2],
    list(range(100)),
    list(range(0, 100, 2)),
    [7, 7, 7, 8],
    [10**6, 0, 10**6 + 1],
])
def test_contiguous_runs_matches_reference_adversarial(pages):
    assert ws.contiguous_runs(pages) == ref_contiguous_runs(pages)


def test_contiguous_runs_wide_span_fallback():
    # A span past _SPAN_LIMIT must take the sorted fallback, not try to
    # build a multi-gigabyte bitmap -- and still agree with the reference.
    pages = [0, 1, 2, ws._SPAN_LIMIT + 5, ws._SPAN_LIMIT + 6, 10**15]
    assert ws.contiguous_runs(pages) == ref_contiguous_runs(pages)


@pytest.mark.parametrize("style", STYLES)
def test_mean_run_length_matches_reference_random(style):
    rng = random.Random(f"mean/{style}")
    for _ in range(40):
        pages = random_page_set(rng, style)
        assert ws.mean_run_length(pages) == pytest.approx(
            ref_mean_run_length(pages))
    assert ws.mean_run_length([]) == 0.0


def test_mean_run_length_wide_span_fallback():
    pages = [3, 4, ws._SPAN_LIMIT * 3, ws._SPAN_LIMIT * 3 + 1]
    assert ws.mean_run_length(pages) == pytest.approx(
        ref_mean_run_length(pages))


@pytest.mark.parametrize("style", STYLES)
def test_run_length_histogram_matches_reference_random(style):
    rng = random.Random(f"hist/{style}")
    for _ in range(30):
        pages = random_page_set(rng, style)
        max_bucket = rng.choice((1, 3, 16))
        assert (ws.run_length_histogram(pages, max_bucket)
                == ref_run_length_histogram(pages, max_bucket))


@pytest.mark.parametrize("style", STYLES)
def test_reuse_between_matches_reference_random(style):
    rng = random.Random(f"reuse/{style}")
    for _ in range(40):
        first = random_page_set(rng, style)
        second = random_page_set(rng, style)
        assert ws.reuse_between(first, second) == ref_reuse_between(
            first, second)


def test_reuse_between_empty_and_disjoint():
    assert ws.reuse_between([], []) == ref_reuse_between([], [])
    assert ws.reuse_between([], [1, 2]) == ref_reuse_between([], [1, 2])
    assert ws.reuse_between([1, 2], []) == ref_reuse_between([1, 2], [])
    assert ws.reuse_between([0, 1], [5, 6]) == ref_reuse_between(
        [0, 1], [5, 6])


def test_reuse_between_wide_span_fallback():
    first = [0, 1, 10**12]
    second = [1, 10**12, 10**12 + 1]
    assert ws.reuse_between(first, second) == ref_reuse_between(
        first, second)


@pytest.mark.parametrize("style", STYLES)
def test_stable_working_set_matches_reference_random(style):
    rng = random.Random(f"stable/{style}")
    for _ in range(25):
        page_sets = [random_page_set(rng, style)
                     for _ in range(rng.randrange(1, 5))]
        assert (ws.stable_working_set(page_sets)
                == ref_stable_working_set(page_sets))


def test_stable_working_set_edge_cases():
    assert ws.stable_working_set([]) == frozenset()
    assert ws.stable_working_set([[1, 2], []]) == frozenset()
    assert ws.stable_working_set([[], [1, 2]]) == frozenset()
    assert ws.stable_working_set([[3, 4, 5]]) == frozenset({3, 4, 5})


def test_stable_working_set_wide_span_fallback():
    sets = [[0, 10**13, 10**13 + 1], [0, 10**13], [10**13, 0]]
    assert ws.stable_working_set(sets) == ref_stable_working_set(sets)


def test_bitmap_positions_roundtrip():
    rng = random.Random("roundtrip")
    for _ in range(30):
        pages = set(random_page_set(rng, rng.choice(STYLES)))
        if not pages:
            continue
        low = min(pages)
        span = max(pages) - low
        bitmap = ws._bitmap(pages, low, span)
        assert bitmap.bit_count() == len(pages)
        assert ws._positions(bitmap, low) == sorted(pages)


# ---------------------------------------------------------------------------
# ChunkIndex: Counter-batched accounting vs reference.
# ---------------------------------------------------------------------------


def _digest_pool(rng, size):
    return [snapshot_page_digest("eq", 0, rng.randrange(0, size * 2))
            for _ in range(size)]


def _assert_indexes_agree(index, reference):
    assert index.chunk_count == reference.chunk_count
    assert index.logical_bytes == reference.logical_bytes
    assert index.unique_bytes == reference.unique_bytes
    assert index.stored_bytes == reference.stored_bytes
    assert index.reclaimed_bytes == reference.reclaimed_bytes


def test_chunk_index_matches_reference_operation_sequence():
    rng = random.Random("chunkops")
    pool = _digest_pool(rng, 120) + [ZERO_PAGE_DIGEST]
    index, reference = ChunkIndex(), RefChunkIndex()
    live = []
    for step in range(200):
        if live and rng.random() < 0.35:
            object_id = live.pop(rng.randrange(len(live)))
            assert (index.release_object(object_id)
                    == reference.release_object(object_id))
        else:
            object_id = f"obj{step}"
            digests = [rng.choice(pool)
                       for _ in range(rng.randrange(0, 40))]
            assert (index.add_object(object_id, digests)
                    == reference.add_object(object_id, digests))
            live.append(object_id)
        _assert_indexes_agree(index, reference)
    for base_id in live[:5]:
        for other_id in live[:5]:
            assert index.shared_fraction(base_id, other_id) == pytest.approx(
                reference.shared_fraction(base_id, other_id))


def test_chunk_index_duplicate_digests_weight_per_page():
    digest_a = snapshot_page_digest("dup", 0, 1)
    digest_b = snapshot_page_digest("dup", 0, 2)
    index, reference = ChunkIndex(), RefChunkIndex()
    for target in (index, reference):
        target.add_object("base", [digest_a])
        target.add_object("other", [digest_a, digest_a, digest_a, digest_b])
    assert index.shared_fraction("base", "other") == pytest.approx(0.75)
    assert index.shared_fraction("base", "other") == pytest.approx(
        reference.shared_fraction("base", "other"))


def test_chunk_index_release_restores_empty_accounting():
    rng = random.Random("drain")
    index = ChunkIndex()
    for k in range(8):
        index.add_object(f"o{k}", [rng.choice(_digest_pool(rng, 30))
                                   for _ in range(20)])
    stored_before_drain = index.stored_bytes
    for k in range(8):
        index.release_object(f"o{k}")
    assert index.chunk_count == 0
    assert index.stored_bytes == 0
    assert index.logical_bytes == 0
    assert index.unique_bytes == 0
    assert index.reclaimed_bytes == stored_before_drain


def test_chunk_index_shared_fraction_cache_invalidated_on_release():
    digest_a = snapshot_page_digest("inv", 0, 1)
    digest_b = snapshot_page_digest("inv", 0, 2)
    index = ChunkIndex()
    index.add_object("base", [digest_a])
    index.add_object("other", [digest_a, digest_b])
    assert index.shared_fraction("base", "other") == pytest.approx(0.5)
    index.release_object("base")
    index.add_object("base", [digest_b])
    assert index.shared_fraction("base", "other") == pytest.approx(0.5)
    assert index.shared_fraction("other", "base") == pytest.approx(1.0)


def test_snapshot_page_digest_matches_defining_identity():
    # The fused/memoized body must equal page_digest(page_bytes(...)).
    rng = random.Random("digest")
    for _ in range(25):
        name = rng.choice(("fn", "pyaes", "eq#inv3"))
        epoch = rng.randrange(0, 3)
        page = rng.randrange(0, 5000)
        assert snapshot_page_digest(name, epoch, page) == page_digest(
            page_bytes(name, epoch, page))


# ---------------------------------------------------------------------------
# Engine fast path vs reference heap path.
# ---------------------------------------------------------------------------


def _event_order_scenario(fastpath):
    """A scenario mixing every queueing flavor; returns the wakeup log."""
    env = Environment(fastpath=fastpath)
    from repro.sim.resources import Resource

    log = []
    resource = Resource(env, capacity=2)

    def worker(tag, delay):
        # lint: allow[REPRO-R001] -- nothing in this body can raise.
        request = resource.request()
        yield request
        log.append((env.now, tag, "granted"))
        yield env.timeout(delay)
        resource.release(request)
        log.append((env.now, tag, "released"))
        yield env.timeout(0)
        log.append((env.now, tag, "zero"))

    def manual(tag):
        event = env.event()
        env.process(triggerer(event))
        value = yield event
        log.append((env.now, tag, value))

    def triggerer(event):
        yield env.timeout(3)
        event.succeed("fired")

    for index in range(4):
        env.process(worker(f"w{index}", delay=2 + index % 2))
    env.process(manual("m0"))
    env.run()
    return env.now, log


def test_fastpath_and_slowpath_event_order_identical():
    assert _event_order_scenario(True) == _event_order_scenario(False)


def test_environment_honors_slowpath_env_var(monkeypatch):
    monkeypatch.setenv("REPRO_ENGINE_SLOWPATH", "1")
    assert Environment()._fastpath is False
    monkeypatch.delenv("REPRO_ENGINE_SLOWPATH")
    assert Environment()._fastpath is True
    assert Environment(fastpath=False)._fastpath is False


def _run_fig7_cell():
    from repro.bench.experiments import Fig7DesignPoints

    experiment = Fig7DesignPoints()
    (cell,) = experiment.cells(seed=42, functions=("helloworld",))
    before = sim_engine.events_processed_total()
    payload = experiment.run_cell(cell)
    events = sim_engine.events_processed_total() - before
    result = experiment.assemble([canonicalize(payload)],
                                 functions=("helloworld",))
    return (json.dumps(canonicalize(payload), sort_keys=True),
            json.dumps(canonicalize(result.rows), sort_keys=True),
            events)


def test_fastpath_slowpath_experiment_byte_identical(monkeypatch):
    """The three-scheme design-point experiment (vanilla / WS file /
    REAP) must produce byte-identical payloads, assembled rows, and
    event counts on both engine paths."""
    monkeypatch.delenv("REPRO_ENGINE_SLOWPATH", raising=False)
    fast_payload, fast_rows, fast_events = _run_fig7_cell()
    monkeypatch.setenv("REPRO_ENGINE_SLOWPATH", "1")
    slow_payload, slow_rows, slow_events = _run_fig7_cell()
    assert fast_payload == slow_payload
    assert fast_rows == slow_rows
    assert fast_events == slow_events
    assert fast_events > 0


def _run_fig9_cell():
    from repro.bench.experiments import Fig9Scalability

    experiment = Fig9Scalability()
    (cell,) = experiment.cells(levels=(8,))
    before = sim_engine.events_processed_total()
    payload = experiment.run_cell(cell)
    events = sim_engine.events_processed_total() - before
    return json.dumps(canonicalize(payload), sort_keys=True), events


def test_fastpath_slowpath_contended_experiment_byte_identical(monkeypatch):
    """Eight concurrent vanilla and then REAP cold starts queue on the
    thin pool and the SSD, so grants are contended and the in-place
    take and advance decline often: both engine paths must still give
    the same payload and process the same number of events."""
    monkeypatch.delenv("REPRO_ENGINE_SLOWPATH", raising=False)
    fast_payload, fast_events = _run_fig9_cell()
    monkeypatch.setenv("REPRO_ENGINE_SLOWPATH", "1")
    slow_payload, slow_events = _run_fig9_cell()
    assert fast_payload == slow_payload
    assert fast_events == slow_events
    assert fast_events > 0


def test_fig7_cell_digest_matches_golden():
    """Golden-digest pin through the shared test harness: the fig7
    helloworld cell payload must digest to the value recorded in
    ``tests/golden_digests.json`` before the policy layer existed --
    any fast-path or policy-threading change that shifts the payload
    shows up here as a digest drift."""
    from harness import assert_cell_digest_stable

    assert_cell_digest_stable("fig7", repetitions=2,
                              function="helloworld")


# ---------------------------------------------------------------------------
# functions.behavior: fused placement loop vs the original code.
# ---------------------------------------------------------------------------


def ref_shuffle(stream, items):
    """The library shuffle RandomStream.shuffle originally delegated to."""
    stream._rng.shuffle(items)


class RefBehavior:
    """The original set-occupancy layout and trace generator."""

    def __init__(self, profile, seed=42, epoch=0):
        self.profile = profile
        self._stream = RandomStream(seed, "behavior", profile.name, epoch)
        self._occupied = set()
        self.layout = self._build_layout()

    def _build_layout(self):
        profile = self.profile
        boot_pages = profile.boot_footprint_pages
        conn_runs = self._draw_runs(
            self._stream.child("conn"), profile.connection_pages,
            profile.contiguity_mean, 0, boot_pages)
        proc_runs = self._draw_runs(
            self._stream.child("proc"), profile.processing_pages,
            profile.contiguity_mean, 0, boot_pages)
        record_runs = proc_runs
        if profile.record_divergence > 0.0:
            record_runs = self._diverge_runs(proc_runs)
        return WorkingSetLayout(
            connection_runs=tuple(tuple(run) for run in conn_runs),
            processing_runs=tuple(tuple(run) for run in proc_runs),
            record_processing_runs=tuple(tuple(run) for run in record_runs),
        )

    def _diverge_runs(self, runs):
        stream = self._stream.child("divergence")
        divergent_target = int(self.profile.record_divergence
                               * self.profile.processing_pages)
        swapped_pages = 0
        result = []
        order = list(range(len(runs)))
        ref_shuffle(stream, order)
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
                    self.profile.boot_footprint_pages)
                result.extend(replacement)
            else:
                result.append(run)
        return result

    def _draw_runs(self, stream, total_pages, mean_length, low, high,
                   occupied=None):
        if occupied is None:
            occupied = self._occupied
        runs = []
        remaining = total_pages
        while remaining > 0:
            length = min(stream.geometric(mean_length), remaining)
            run = None
            while run is None:
                run = self._place_run(stream, length, low, high, occupied)
                if run is None:
                    if length == 1:
                        raise ValueError(
                            f"region [{low}, {high}) has no free page for "
                            f"the working set")
                    length = max(1, length // 2)
            occupied.update(run)
            runs.append(run)
            remaining -= len(run)
        return runs

    @staticmethod
    def _place_run(stream, length, low, high, occupied):
        span = high - low - length
        if span < 0:
            return None
        isdisjoint = occupied.isdisjoint
        randint = stream.randint
        for _attempt in range(64):
            start = low + randint(0, span)
            candidate = range(start, start + length)
            if isdisjoint(candidate):
                return list(candidate)
        start = low + randint(0, span)
        for base in list(range(start, high - length + 1)) \
                + list(range(low, start)):
            candidate = range(base, base + length)
            if isdisjoint(candidate):
                return list(candidate)
        return None

    def trace_for(self, invocation, record=False):
        profile = self.profile
        stream = self._stream.child("invocation", invocation)
        conn_runs = [list(run) for run in self.layout.connection_runs]
        ref_shuffle(stream.child("conn-order"), conn_runs)
        if record:
            stable_runs = [list(run)
                           for run in self.layout.record_processing_runs]
        else:
            stable_runs = [list(run) for run in self.layout.processing_runs]
        unique_runs = self._draw_unique_runs(stream.child("unique"))
        merged = stable_runs + unique_runs
        ref_shuffle(stream.child("proc-order"), merged)
        connection_pages = tuple(
            [page for run in conn_runs for page in run])
        processing_pages = tuple(
            [page for run in merged for page in run])
        return AccessTrace(
            connection_pages=connection_pages,
            processing_pages=processing_pages,
            connection_compute_us=profile.connection_warm_ms * MS,
            processing_compute_us=profile.warm_ms * MS,
            label=f"{profile.name}#{invocation}",
        )

    def _draw_unique_runs(self, stream):
        profile = self.profile
        zero_count = int(profile.unique_pages * profile.unique_zero_fraction)
        inside_count = profile.unique_pages - zero_count
        local_occupied = set(self._occupied)
        runs = self._draw_runs(
            stream.child("inside"), inside_count,
            profile.unique_contiguity_mean, 0,
            profile.boot_footprint_pages, occupied=local_occupied)
        if zero_count > 0:
            runs += self._draw_runs(
                stream.child("zero"), zero_count,
                profile.unique_contiguity_mean,
                profile.boot_footprint_pages, profile.vm_pages,
                occupied=local_occupied)
        return runs


#: The dense, full-divergence and contiguity_mean=1 profiles of
#: test_edge_cases.py, which reach the sweep, the divergence and the
#: draw-free geometric branches.
EDGE_PROFILES = {
    "dense": FunctionProfile(
        name="dense", description="nearly full footprint",
        vm_memory_mb=8, boot_footprint_mb=1.0, warm_ms=1.0,
        connection_pages=40, processing_pages=200, unique_pages=0,
        contiguity_mean=2.0),
    "diverge": FunctionProfile(
        name="diverge", description="completely unstable",
        vm_memory_mb=16, boot_footprint_mb=4.0, warm_ms=1.0,
        connection_pages=50, processing_pages=100, unique_pages=0,
        contiguity_mean=2.0, record_divergence=1.0),
    "single": FunctionProfile(
        name="single", description="no contiguity",
        vm_memory_mb=64, boot_footprint_mb=32.0, warm_ms=1.0,
        connection_pages=100, processing_pages=100, unique_pages=0,
        contiguity_mean=1.0),
}


def _assert_behaviors_agree(profile):
    for seed in (7, 42):
        for epoch in (0, 1):
            fast = FunctionBehavior(profile, seed=seed, epoch=epoch)
            reference = RefBehavior(profile, seed=seed, epoch=epoch)
            assert fast.layout == reference.layout
            for invocation in range(8):
                for record in (False, True):
                    got = fast.trace_for(invocation, record=record)
                    want = reference.trace_for(invocation, record=record)
                    assert got == want, (profile.name, seed, epoch,
                                         invocation, record)


@pytest.mark.parametrize("name", catalog_names())
def test_behavior_matches_reference_catalog(name):
    _assert_behaviors_agree(get_profile(name))


@pytest.mark.parametrize("name", sorted(EDGE_PROFILES))
def test_behavior_matches_reference_edge_profiles(name):
    _assert_behaviors_agree(EDGE_PROFILES[name])


@pytest.mark.parametrize("length", [0, 1, 2, 3, 4, 5, 64, 1000, 1023, 1024,
                                    1025, 5000, 8193])
def test_stream_shuffle_matches_library_shuffle(length):
    stream = RandomStream(1234)
    library = random.Random(1234)
    got = list(range(length))
    want = list(range(length))
    stream.shuffle(got)
    library.shuffle(want)
    assert got == want
    # Callers keep drawing from the stream after a shuffle, so the
    # generator state must match too.
    assert stream.random() == library.random()


def _draw_both(mean_length, low, high, occupied_pages, total_pages):
    """Run the fused loop and the reference on the same region.

    Returns the reference runs and the number of ``getrandbits`` draws
    the fused loop made.
    """
    occupied = bytearray(high)
    for page in occupied_pages:
        occupied[page] = 1
    reference_occupied = set(occupied_pages)
    fast_stream = RandomStream(5, "edge")
    draws = 0
    getrandbits = fast_stream._getrandbits

    def counting_getrandbits(k):
        nonlocal draws
        draws += 1
        return getrandbits(k)

    fast_stream._getrandbits = counting_getrandbits
    reference_stream = RandomStream(5, "edge")
    fast = FunctionBehavior._draw_runs(
        fast_stream, total_pages, mean_length, low, high, occupied)
    reference = RefBehavior.__new__(RefBehavior)._draw_runs(
        reference_stream, total_pages, mean_length, low, high,
        reference_occupied)
    assert [list(run) for run in fast] == reference
    assert {page for page in range(high) if occupied[page]} \
        == reference_occupied
    assert fast_stream.random() == reference_stream.random()
    return reference, draws


@pytest.mark.parametrize("high", [63, 64, 65, 128])
def test_draw_runs_matches_reference_at_power_of_two_spans(high):
    # randint(0, span) draws (span + 1).bit_length() bits; a region whose
    # span + 1 is a power of two is where a width off by one shows.
    _draw_both(1.0, 0, high, [], total_pages=high // 2)
    _draw_both(2.0, 0, high, [], total_pages=high // 2)


def test_draw_runs_halves_length_when_no_gap_fits():
    # Free space in [0, 200) is gaps of two pages, and runs average 8
    # pages, so most drawn lengths must halve before they fit.
    occupied_pages = [page for page in range(200) if page % 3 == 2]
    runs, _draws = _draw_both(8.0, 0, 200, occupied_pages, total_pages=60)
    assert max(len(run) for run in runs) == 2
    assert sum(len(run) for run in runs) == 60


def test_draw_runs_sweeps_a_nearly_full_region():
    # Three free pages among 2000: the 64 random attempts of a placement
    # mostly miss, so it falls through to the linear sweep (the 65th
    # draw picks the sweep's starting point).
    free = {17, 1001, 1888}
    occupied_pages = [page for page in range(2000) if page not in free]
    runs, draws = _draw_both(1.0, 0, 2000, occupied_pages, total_pages=3)
    assert {run[0] for run in runs} == free
    assert draws > 64


def test_draw_runs_full_region_raises_like_reference():
    occupied = bytearray(64)
    occupied[10:50] = b"\x01" * 40
    with pytest.raises(ValueError) as fast_error:
        FunctionBehavior._draw_runs(
            RandomStream(5, "edge"), 1, 3.0, 10, 50, occupied)
    with pytest.raises(ValueError) as reference_error:
        RefBehavior.__new__(RefBehavior)._draw_runs(
            RandomStream(5, "edge"), 1, 3.0, 10, 50, set(range(10, 50)))
    assert str(fast_error.value) == str(reference_error.value)
    assert "no free page" in str(fast_error.value)
