"""Smoke tests for the experiment harness (fast, subset workloads).

The full runs live in ``benchmarks/``; these keep the experiment code
under ordinary unit-test coverage using one or two small functions.
"""

import pytest

from repro.bench.experiments import EXPERIMENTS, run_experiment
from repro.bench.harness import ExperimentResult, metrics_within
from repro.bench.runner import Runner

FAST_SUBSET = ["helloworld", "pyaes"]


def test_registry_covers_every_table_and_figure():
    expected = {
        "table1", "fig2", "fig3", "fig4", "fig5", "fig7", "fig8", "fig9",
        "fio", "hdd", "warm_background", "record_overhead",
        "mispredictions", "fallback", "ablations", "remote_storage",
        "tail_latency", "trace_replay", "trace_scale",
        "snapstore_capacity", "snapstore_tiering", "slo_scorecard",
        "floor_study",
    }
    assert set(EXPERIMENTS) == expected


def test_unknown_experiment_rejected():
    with pytest.raises(KeyError):
        run_experiment("fig99")


def test_table1_lists_catalog():
    result = run_experiment("table1")
    assert result.metrics["functions"] == 10


def test_fig2_subset():
    result = run_experiment("fig2", functions=FAST_SUBSET, repetitions=1)
    assert len(result.rows) == 2
    for row in result.rows:
        assert row["cold_ms"] > row["warm_ms"] * 50


def test_fig3_subset():
    result = run_experiment("fig3", functions=FAST_SUBSET)
    assert all(1.8 < row["mean_run_length"] < 3.2 for row in result.rows)


def test_fig4_subset():
    result = run_experiment("fig4", functions=FAST_SUBSET)
    for row in result.rows:
        assert row["restored_mb"] < row["booted_mb"] / 5


def test_fig5_subset():
    result = run_experiment("fig5", functions=FAST_SUBSET)
    assert result.metrics["min_same_overall"] > 0.9


@pytest.mark.parametrize("invocations", [1, 0])
def test_fig5_needs_two_invocations(invocations):
    # Reuse is measured between consecutive invocations: one invocation
    # has no pair, which must be rejected by name before any cell runs.
    with pytest.raises(ValueError, match="invocations"):
        Runner().run(["fig5"], functions=["helloworld"],
                     invocations=invocations)


def test_fig7_single_repetition():
    result = run_experiment("fig7", repetitions=1)
    assert result.metrics["monotonic_ladder"] == 1.0


def test_fig8_subset():
    result = run_experiment("fig8", functions=FAST_SUBSET, repetitions=1)
    assert result.metrics["speedup_geomean"] > 3.0


def test_fig9_small_levels():
    result = run_experiment("fig9", levels=(1, 4))
    assert result.metrics["reap_advantage_at_max"] > 2.0


def test_record_overhead_subset():
    result = run_experiment("record_overhead", functions=FAST_SUBSET)
    assert 0.05 < result.metrics["overhead_mean"] < 0.6


def test_mispredictions_subset():
    result = run_experiment("mispredictions", functions=FAST_SUBSET)
    assert result.metrics["mispredict_max"] < 0.10  # small-input functions


def test_remote_storage_subset():
    result = run_experiment("remote_storage", functions=("helloworld",))
    assert (result.metrics["remote_speedup_geomean"]
            > result.metrics["local_speedup_geomean"])


def test_snapstore_capacity_subset():
    result = run_experiment("snapstore_capacity",
                            functions=("helloworld", "image_rotate"),
                            invocations=2)
    # Fig. 5 shape: the small-input function sits above the 97% identity
    # line, the large-input one below it.
    assert result.metrics["helloworld_identical"] >= 0.97
    assert result.metrics["image_rotate_identical"] < 0.97
    assert result.metrics["catalog_dedup_ratio"] > 1.5
    assert 0.0 < result.metrics["catalog_stored_savings"] < 1.0


def test_snapstore_tiering_subset():
    result = run_experiment(
        "snapstore_tiering", duration_s=300.0, repetitions=1,
        capacities_mb=(192, 512), policies=("lru",),
        functions=("helloworld", "pyaes"))
    # Small grid: 2 capacities x 1 policy x 2 schemes + 1 blind control
    # per scheme at the non-largest capacity.
    assert len(result.rows) == 6
    for scheme in ("vanilla", "reap"):
        assert f"{scheme}_locality_p99_advantage" in result.metrics
        # Both functions fit at 512 MB: nothing promotes there.
        big = [row for row in result.rows
               if row["capacity_mb"] == 512 and row["scheme"] == scheme
               and row["routing"] == "locality"]
        assert all(row["promotions"] == 0 for row in big)


def test_snapstore_tiering_empty_replay_reports_zeros():
    # A 30 s azure trace of one sporadic function synthesizes no
    # arrivals: the cell pools no samples and reports zeros.
    result = run_experiment(
        "snapstore_tiering", duration_s=30.0, repetitions=1,
        capacities_mb=(256,), policies=("lru",), functions=("helloworld",))
    assert len(result.rows) == 2
    for row in result.rows:
        assert row["invocations"] == 0
        assert row["cold_fraction"] == "0%"
        assert row["p50_ms"] == 0.0 and row["p99_ms"] == 0.0
        assert row["promotions"] == 0



# A cell whose duration synthesizes no arrivals (a 1 s sporadic trace of
# helloworld, or a 1 s azure trace of pyaes) is a row of 0 invocations
# and 0.0 fractions and tails, and a ratio over it is 0.0.
@pytest.mark.parametrize("experiment, kwargs, ratio", [
    ("trace_replay", dict(trace_classes=["sporadic"],
                          functions=["helloworld"]),
     "sporadic_p99_improvement"),
    ("trace_scale", dict(cluster_sizes=(1,), functions=["pyaes"]),
     "p99_improvement_at_max_scale"),
    ("slo_scorecard", dict(scenarios=("baseline",), functions=["pyaes"]),
     None),
    ("floor_study", dict(mixes=("sporadic",), functions=["helloworld"]),
     "sporadic_reap_floor_ratio"),
])
def test_replay_cell_without_arrivals_is_a_zero_row(experiment, kwargs,
                                                     ratio):
    result = run_experiment(experiment, duration_s=1.0, **kwargs)
    assert result.rows
    for row in result.rows:
        assert row.get("invocations", row.get("issued")) == 0
        assert row["cold_fraction"] == "0%"
        assert row["p50_ms"] == 0.0 and row["p99_ms"] == 0.0
    if ratio is not None:
        assert result.metrics[ratio] == 0.0

def test_slo_scorecard_subset():
    result = run_experiment("slo_scorecard", duration_s=300.0,
                            scenarios=("baseline", "crash"))
    assert len(result.rows) == 4
    for scheme in ("vanilla", "reap"):
        # Fault-free baseline: nothing shed, nothing retried, full
        # availability through the identical resilient plumbing.
        assert result.metrics[f"baseline_{scheme}_availability"] == 1.0
        assert result.metrics[f"crash_{scheme}_availability"] > 0.5
    crash_rows = [row for row in result.rows
                  if row["scenario"] == "crash"]
    assert all(row["crashes"] == 1 for row in crash_rows)


def test_render_produces_readable_report():
    result = run_experiment("fig3", functions=FAST_SUBSET)
    text = result.render()
    assert "fig3" in text
    assert "helloworld" in text


def test_metrics_within_helper():
    result = ExperimentResult("x", "t", metrics={"a": 1.0})
    assert metrics_within(result, {"a": (0.5, 2.0)}) == []
    assert metrics_within(result, {"a": (2.0, 3.0)})
    assert metrics_within(result, {"missing": (0.0, 1.0)})


def test_experiments_deterministic():
    first = run_experiment("fig8", functions=["helloworld"], repetitions=1)
    second = run_experiment("fig8", functions=["helloworld"], repetitions=1)
    assert first.rows == second.rows
