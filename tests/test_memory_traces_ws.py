"""Tests for access traces and working-set analysis."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory import AccessPhase, AccessTrace
from repro.memory.trace import TraceRecorder, merge_traces
from repro.memory.working_set import (
    ReuseStats,
    contiguous_runs,
    mean_run_length,
    pages_to_mb,
    reuse_between,
    run_length_histogram,
    stable_working_set,
)


def make_trace(conn=(1, 2), proc=(10, 11, 12)):
    return AccessTrace(connection_pages=tuple(conn),
                       processing_pages=tuple(proc),
                       connection_compute_us=100.0,
                       processing_compute_us=500.0)


def test_trace_pages_and_len():
    trace = make_trace()
    assert trace.pages == (1, 2, 10, 11, 12)
    assert len(trace) == 5
    assert trace.page_set == frozenset({1, 2, 10, 11, 12})


def test_trace_rejects_duplicates():
    with pytest.raises(ValueError):
        make_trace(conn=(1, 2), proc=(2, 3))
    with pytest.raises(ValueError):
        make_trace(conn=(1, 1), proc=())


def test_trace_rejects_duplicates_from_every_constructor_keyword():
    # Only FunctionBehavior, which proves distinctness itself, skips the
    # check; a trace built directly still pays for it.
    with pytest.raises(ValueError, match="duplicate page 7"):
        AccessTrace(connection_pages=(7,), processing_pages=(8, 7),
                    label="dup")
    trace = AccessTrace.of_distinct_pages((1, 2), (10, 11, 12), 100.0,
                                          500.0)
    assert trace == make_trace()


def test_trace_phase_accessors():
    trace = make_trace()
    assert trace.phase_pages(AccessPhase.CONNECTION) == (1, 2)
    assert list(trace.iter_phase(AccessPhase.PROCESSING)) == [10, 11, 12]
    assert trace.phase_compute_us(AccessPhase.CONNECTION) == 100.0
    assert trace.phase_compute_us(AccessPhase.PROCESSING) == 500.0


def test_trace_recorder_dedups():
    recorder = TraceRecorder()
    assert recorder.observe(5)
    assert not recorder.observe(5)
    assert recorder.observe(1)
    assert recorder.as_tuple() == (5, 1)


def test_merge_traces():
    a = make_trace(conn=(1,), proc=(2,))
    b = make_trace(conn=(1,), proc=(3,))
    assert merge_traces([a, b]) == frozenset({1, 2, 3})


def test_contiguous_runs_basic():
    assert contiguous_runs([]) == []
    assert contiguous_runs([5]) == [(5, 1)]
    assert contiguous_runs([1, 2, 3, 7, 8, 20]) == [(1, 3), (7, 2), (20, 1)]


def test_contiguous_runs_order_insensitive():
    assert contiguous_runs([3, 1, 2]) == [(1, 3)]
    assert contiguous_runs([2, 2, 1]) == [(1, 2)]


def test_mean_run_length():
    assert mean_run_length([]) == 0.0
    assert mean_run_length([1, 2, 3, 7, 8, 20]) == pytest.approx(2.0)


def test_run_length_histogram_clamps():
    pages = list(range(100)) + [500]
    histogram = run_length_histogram(pages, max_bucket=16)
    assert histogram == {16: 1, 1: 1}


def test_pages_to_mb():
    assert pages_to_mb(0) == 0.0
    assert pages_to_mb(2048) == pytest.approx(8.388608)


def test_reuse_between():
    stats = reuse_between([1, 2, 3, 4], [3, 4, 5])
    assert stats == ReuseStats(same_pages=2, unique_pages=1)
    assert stats.same_fraction == pytest.approx(2 / 3)
    assert stats.unique_fraction == pytest.approx(1 / 3)


def test_reuse_empty_second_set():
    stats = reuse_between([1], [])
    assert stats.total_pages == 0
    assert stats.same_fraction == 0.0
    assert stats.unique_fraction == 0.0


def test_reuse_degenerate_inputs():
    # Both empty.
    empty = reuse_between([], [])
    assert empty == ReuseStats(same_pages=0, unique_pages=0)
    assert empty.same_fraction == 0.0 and empty.unique_fraction == 0.0
    # Empty first set: everything in the second is unique.
    fresh = reuse_between([], [7, 8])
    assert fresh == ReuseStats(same_pages=0, unique_pages=2)
    assert fresh.unique_fraction == 1.0
    # Single identical page: full reuse.
    one = reuse_between([9], [9])
    assert one == ReuseStats(same_pages=1, unique_pages=0)
    assert one.same_fraction == 1.0
    # Duplicates in the inputs collapse (sets, as the paper counts).
    assert reuse_between([1, 1, 2], [2, 2]) == ReuseStats(1, 0)


def test_contiguous_runs_fully_contiguous_region():
    # One maximal run regardless of size; mean length equals the size.
    pages = range(100)
    assert contiguous_runs(pages) == [(0, 100)]
    assert mean_run_length(pages) == pytest.approx(100.0)
    assert run_length_histogram(pages, max_bucket=8) == {8: 1}


def test_contiguous_runs_single_page_and_negatives():
    assert contiguous_runs([0]) == [(0, 1)]
    # Negative page numbers are still partitioned consistently (the
    # function is pure arithmetic; callers validate ranges).
    assert contiguous_runs([-2, -1, 5]) == [(-2, 2), (5, 1)]


def test_stable_working_set():
    assert stable_working_set([]) == frozenset()
    sets = [[1, 2, 3], [2, 3, 4], [2, 3, 5]]
    assert stable_working_set(sets) == frozenset({2, 3})


@given(st.sets(st.integers(min_value=0, max_value=2000), max_size=300))
@settings(max_examples=60, deadline=None)
def test_runs_partition_page_set(pages):
    """Property: runs exactly partition the page set, no overlap, no gaps."""
    runs = contiguous_runs(pages)
    covered = set()
    for start, length in runs:
        run_pages = set(range(start, start + length))
        assert not (covered & run_pages)
        covered |= run_pages
    assert covered == set(pages)
    # Runs are maximal: consecutive runs never touch.
    for (start_a, len_a), (start_b, _len_b) in zip(runs, runs[1:]):
        assert start_a + len_a < start_b


@given(st.sets(st.integers(min_value=0, max_value=500), max_size=100),
       st.sets(st.integers(min_value=0, max_value=500), max_size=100))
@settings(max_examples=60, deadline=None)
def test_reuse_fractions_sum_to_one(first, second)  :
    stats = reuse_between(first, second)
    assert stats.total_pages == len(second)
    if second:
        assert stats.same_fraction + stats.unique_fraction == pytest.approx(1.0)
