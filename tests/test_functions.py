"""Tests for function profiles, the catalog, and trace generation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.functions import (
    FUNCTIONBENCH,
    FunctionBehavior,
    FunctionProfile,
    catalog_names,
    get_profile,
)
from repro.memory import AccessTrace
from repro.memory.working_set import mean_run_length, reuse_between


def small_profile(**overrides):
    defaults = dict(
        name="toy",
        description="toy function",
        vm_memory_mb=64,
        boot_footprint_mb=32.0,
        warm_ms=5.0,
        connection_pages=100,
        processing_pages=200,
        unique_pages=30,
        contiguity_mean=2.5,
    )
    defaults.update(overrides)
    return FunctionProfile(**defaults)


# -- profile validation ----------------------------------------------------

def test_profile_derived_quantities():
    profile = small_profile()
    assert profile.stable_pages == 300
    assert profile.total_working_set_pages == 330
    assert profile.vm_pages == 64 * 256
    assert profile.unique_fraction == pytest.approx(30 / 330)
    assert profile.working_set_mb == pytest.approx(330 * 4096 / 1e6)


def test_profile_rejects_oversized_working_set():
    with pytest.raises(ValueError):
        small_profile(vm_memory_mb=1, boot_footprint_mb=0.5,
                      connection_pages=200, processing_pages=200)


def test_profile_rejects_bad_fractions():
    with pytest.raises(ValueError):
        small_profile(unique_zero_fraction=1.5)
    with pytest.raises(ValueError):
        small_profile(record_divergence=-0.1)
    with pytest.raises(ValueError):
        small_profile(contiguity_mean=0.5)


def test_profile_rejects_footprint_beyond_vm():
    with pytest.raises(ValueError):
        small_profile(boot_footprint_mb=128.0)


def test_profile_rejects_stable_set_beyond_footprint():
    with pytest.raises(ValueError):
        small_profile(boot_footprint_mb=1.0,
                      connection_pages=200, processing_pages=200)


# -- catalog ---------------------------------------------------------------

def test_catalog_has_all_ten_functions():
    expected = {
        "helloworld", "chameleon", "pyaes", "image_rotate", "json_serdes",
        "lr_serving", "cnn_serving", "rnn_serving", "lr_training",
        "video_processing",
    }
    assert set(catalog_names()) == expected


def test_catalog_lookup():
    assert get_profile("helloworld").name == "helloworld"
    with pytest.raises(KeyError):
        get_profile("nope")


def test_catalog_footprints_match_paper_ranges():
    """Boot footprints 148-256 MB; restore working sets 7-100 MB (§4.3)."""
    for profile in FUNCTIONBENCH.values():
        assert 148.0 <= profile.boot_footprint_mb <= 256.0
        assert 7.0 <= profile.working_set_mb <= 100.0
        # Restore footprint is far below boot footprint (61-96 % smaller).
        reduction = 1 - profile.working_set_mb / profile.boot_footprint_mb
        assert reduction > 0.55


def test_catalog_unique_fractions_follow_fig5():
    large_input = {"image_rotate", "json_serdes", "lr_training",
                   "video_processing"}
    for profile in FUNCTIONBENCH.values():
        if profile.name in large_input:
            assert 0.15 <= profile.unique_fraction <= 0.39
        else:
            assert profile.unique_fraction <= 0.05


def test_catalog_contiguity_follows_fig3():
    for profile in FUNCTIONBENCH.values():
        if profile.name == "lr_training":
            assert 3.5 <= profile.contiguity_mean <= 5.0
        else:
            assert 2.0 <= profile.contiguity_mean <= 3.0


# -- behavior / layout -------------------------------------------------------

def test_layout_is_deterministic():
    a = FunctionBehavior(small_profile(), seed=7)
    b = FunctionBehavior(small_profile(), seed=7)
    assert a.layout == b.layout


def test_layout_differs_across_seeds_and_epochs():
    base = FunctionBehavior(small_profile(), seed=7).layout
    assert FunctionBehavior(small_profile(), seed=8).layout != base
    assert FunctionBehavior(small_profile(), seed=7, epoch=1).layout != base


def test_layout_page_counts_match_profile():
    profile = small_profile()
    behavior = FunctionBehavior(profile, seed=3)
    assert len(behavior.layout.connection_pages) == profile.connection_pages
    assert len(behavior.layout.processing_pages) == profile.processing_pages


def test_layout_stays_within_boot_footprint():
    profile = small_profile()
    behavior = FunctionBehavior(profile, seed=3)
    boundary = profile.boot_footprint_pages
    assert all(0 <= page < boundary
               for page in behavior.layout.stable_page_set)


def test_layout_runs_do_not_overlap():
    behavior = FunctionBehavior(small_profile(), seed=3)
    pages = (list(behavior.layout.connection_pages)
             + list(behavior.layout.processing_pages))
    assert len(pages) == len(set(pages))


def test_trace_contiguity_near_profile_mean():
    profile = small_profile(connection_pages=800, processing_pages=1600,
                            unique_pages=0, boot_footprint_mb=40.0,
                            contiguity_mean=2.5)
    behavior = FunctionBehavior(profile, seed=5)
    trace = behavior.trace_for(1)
    observed = mean_run_length(trace.page_set)
    assert 2.0 <= observed <= 3.2


def test_traces_share_stable_set_across_invocations():
    profile = small_profile()
    behavior = FunctionBehavior(profile, seed=9)
    first = behavior.trace_for(1)
    second = behavior.trace_for(2)
    stats = reuse_between(first.page_set, second.page_set)
    designed = profile.unique_fraction
    assert stats.unique_fraction == pytest.approx(designed, abs=0.08)


def test_trace_zero_unique_pages_beyond_footprint():
    profile = small_profile(unique_pages=40, unique_zero_fraction=1.0)
    behavior = FunctionBehavior(profile, seed=4)
    trace = behavior.trace_for(1)
    boundary = profile.boot_footprint_pages
    beyond = [page for page in sorted(trace.page_set) if page >= boundary]
    assert len(beyond) == 40


def test_record_divergence_changes_recording_invocation_only():
    profile = small_profile(record_divergence=0.4, unique_pages=0)
    behavior = FunctionBehavior(profile, seed=11)
    record = behavior.trace_for(0, record=True).page_set
    replay_a = behavior.trace_for(1).page_set
    replay_b = behavior.trace_for(2).page_set
    assert replay_a == replay_b
    overlap = len(record & replay_a) / len(replay_a)
    assert 0.4 <= overlap <= 0.8  # ~60 % shared for divergence 0.4


def test_no_divergence_means_record_matches_replay_stable_set():
    profile = small_profile(unique_pages=0)
    behavior = FunctionBehavior(profile, seed=11)
    record_set = behavior.trace_for(0, record=True).page_set
    assert record_set == behavior.trace_for(1).page_set


def test_trace_compute_budgets():
    profile = small_profile(warm_ms=7.0, connection_warm_ms=2.0)
    trace = FunctionBehavior(profile, seed=2).trace_for(1)
    assert trace.connection_compute_us == pytest.approx(2000.0)
    assert trace.processing_compute_us == pytest.approx(7000.0)


@given(st.integers(min_value=1, max_value=50))
@settings(max_examples=15, deadline=None)
def test_traces_are_deterministic_per_invocation(invocation):
    profile = small_profile()
    a = FunctionBehavior(profile, seed=21).trace_for(invocation)
    b = FunctionBehavior(profile, seed=21).trace_for(invocation)
    assert a == b


def test_catalog_traces_generate_for_all_functions():
    for name, profile in FUNCTIONBENCH.items():
        behavior = FunctionBehavior(profile, seed=1)
        trace = behavior.trace_for(1)
        assert len(trace) == profile.total_working_set_pages, name


@pytest.mark.parametrize("record", [False, True], ids=["replay", "record"])
def test_traces_pass_the_full_duplicate_check(record):
    # Traces skip the constructor's check of every page; the checked
    # constructor must accept each of them and build an equal trace.
    for name, profile in FUNCTIONBENCH.items():
        behavior = FunctionBehavior(profile, seed=1)
        for invocation in (0, 1, 2):
            trace = behavior.trace_for(invocation, record=record)
            checked = AccessTrace(
                connection_pages=trace.connection_pages,
                processing_pages=trace.processing_pages,
                connection_compute_us=trace.connection_compute_us,
                processing_compute_us=trace.processing_compute_us,
                label=trace.label)
            assert checked == trace, name


@pytest.mark.parametrize("stage", ["layout", "unique"])
@pytest.mark.parametrize("flaw", ["own_run", "taken", "unmarked"])
def test_a_placement_that_shares_a_page_is_rejected(stage, flaw,
                                                    monkeypatch):
    # Traces skip the full duplicate check, so every placement is
    # checked instead: a run placed twice, one on a page taken before
    # the draw, or one left unmarked (which later draws could reuse)
    # fails the layout's build or the trace.
    behavior = None if stage == "layout" else FunctionBehavior(
        small_profile(), seed=3)
    draw = FunctionBehavior._draw_runs

    def flawed(stream, total_pages, mean_length, low, high, occupied):
        taken = occupied.find(1)
        runs = draw(stream, total_pages, mean_length, low, high, occupied)
        if flaw == "own_run":
            page = runs[-1][0]
        elif flaw == "taken" and taken >= 0:
            page = taken
        else:
            page = occupied.find(0)
        return runs + [range(page, page + 1)]

    monkeypatch.setattr(FunctionBehavior, "_draw_runs",
                        staticmethod(flawed))
    with pytest.raises(ValueError, match="share a page"):
        if behavior is None:
            FunctionBehavior(small_profile(), seed=3)
        else:
            behavior.trace_for(1)
