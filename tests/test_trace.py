"""Tests for invocation traces: format, synthesis, replay (§2.1)."""

import json

import pytest

from harness import assert_cell_digest_stable
from repro.bench.harness import Testbed
from repro.functions import FunctionProfile
from repro.functions.catalog import (
    default_rate_class,
    recommended_keepalive_s,
)
from repro.orchestrator import (
    Autoscaler,
    AutoscalerParameters,
    Cluster,
    TraceReplayer,
)
from repro.orchestrator.trace import (
    InvocationTrace,
    TraceEvent,
    TraceSpec,
    synthesize,
)
from repro.sim.engine import Environment


def toy(name="toy"):
    return FunctionProfile(
        name=name,
        description="toy",
        vm_memory_mb=32,
        boot_footprint_mb=6.0,
        warm_ms=4.0,
        connection_pages=50,
        processing_pages=120,
        unique_pages=10,
        contiguity_mean=2.4,
    )


def hand_trace(arrivals, function="toy"):
    return InvocationTrace([TraceEvent(at_s=at, function=function)
                            for at in arrivals])


# -- format and persistence -----------------------------------------------


def test_event_validation():
    with pytest.raises(ValueError):
        TraceEvent(at_s=-1.0, function="f")
    with pytest.raises(ValueError):
        TraceEvent(at_s=0.0, function="")
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            TraceEvent(at_s=bad, function="f")


def test_trace_orders_events_and_counts():
    trace = InvocationTrace([
        TraceEvent(5.0, "b"), TraceEvent(1.0, "a"), TraceEvent(3.0, "b")])
    assert [event.at_s for event in trace.events] == [1.0, 3.0, 5.0]
    assert trace.functions() == ["a", "b"]
    assert trace.counts() == {"a": 1, "b": 2}
    assert trace.duration_s == 5.0
    assert len(trace) == 3
    assert trace.interarrivals("b") == [2.0]


def test_save_load_roundtrip(tmp_path):
    trace = synthesize(TraceSpec(functions=("a", "b"), rate_class="bursty",
                                 duration_s=600.0), seed=3)
    path = tmp_path / "trace.jsonl"
    trace.save(path)
    loaded = InvocationTrace.load(path)
    assert loaded == trace
    # Re-saving the loaded trace is byte-identical.
    loaded.save(tmp_path / "again.jsonl")
    assert (tmp_path / "again.jsonl").read_bytes() == path.read_bytes()


def test_load_rejects_malformed_files(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    with pytest.raises(ValueError, match="empty"):
        InvocationTrace.load(empty)

    headerless = tmp_path / "headerless.jsonl"
    headerless.write_text('{"at_s": 1.0, "function": "f"}\n')
    with pytest.raises(ValueError, match="trace_format"):
        InvocationTrace.load(headerless)

    truncated = tmp_path / "truncated.jsonl"
    truncated.write_text(json.dumps({"trace_format": 1, "events": 2}) + "\n"
                         + '{"at_s": 1.0, "function": "f"}\n')
    with pytest.raises(ValueError, match="declares 2"):
        InvocationTrace.load(truncated)

    # Malformed arrival lines surface as ValueError (with the line
    # number), never as a bare KeyError/TypeError.
    missing_key = tmp_path / "missing_key.jsonl"
    missing_key.write_text(json.dumps({"trace_format": 1}) + "\n"
                           + '{"function": "f"}\n')
    with pytest.raises(ValueError, match=":2: malformed arrival"):
        InvocationTrace.load(missing_key)

    non_object = tmp_path / "non_object.jsonl"
    non_object.write_text(json.dumps({"trace_format": 1}) + "\n5\n")
    with pytest.raises(ValueError, match="malformed arrival"):
        InvocationTrace.load(non_object)

    not_json = tmp_path / "not_json.jsonl"
    not_json.write_text(json.dumps({"trace_format": 1}) + "\n"
                        + "not json at all\n")
    with pytest.raises(ValueError, match=":2: malformed arrival"):
        InvocationTrace.load(not_json)

    bad_number = tmp_path / "bad_number.jsonl"
    bad_number.write_text(json.dumps({"trace_format": 1}) + "\n"
                          + '{"at_s": "abc", "function": "f"}\n')
    with pytest.raises(ValueError, match="malformed arrival"):
        InvocationTrace.load(bad_number)


def test_summary_rates_use_declared_duration():
    # A sparse trace's rate must be computed over the observation
    # window, not the last-arrival timestamp.
    sparse = InvocationTrace(
        [TraceEvent(10.0, "f"), TraceEvent(70.0, "f")],
        meta={"duration_s": 600.0})
    [row] = sparse.summary()["per_function"]
    assert row["rate_per_min"] == pytest.approx(0.2)  # 2 per 10 min
    # Without metadata, fall back to the span the events cover.
    [bare] = InvocationTrace([TraceEvent(10.0, "f"),
                              TraceEvent(70.0, "f")]
                             ).summary()["per_function"]
    assert bare["rate_per_min"] == pytest.approx(60.0 * 2 / 70.0,
                                                 abs=1e-3)


def test_spec_validation():
    with pytest.raises(ValueError):
        TraceSpec(functions=())
    with pytest.raises(ValueError, match="rate class"):
        TraceSpec(functions=("f",), rate_class="diurnal")
    with pytest.raises(ValueError):
        TraceSpec(functions=("f",), duration_s=0.0)
    with pytest.raises(ValueError):
        TraceSpec(functions=("f",), diurnal_amplitude=1.0)


# -- synthesis -------------------------------------------------------------


def test_synthesize_is_deterministic():
    spec = TraceSpec(functions=("a", "b"), rate_class="bursty",
                     duration_s=900.0)
    assert synthesize(spec, seed=7) == synthesize(spec, seed=7)
    assert synthesize(spec, seed=7) != synthesize(spec, seed=8)


def test_adding_a_function_never_perturbs_existing_arrivals():
    lone = synthesize(TraceSpec(functions=("a",), rate_class="sporadic",
                                duration_s=3600.0), seed=5)
    grown = synthesize(TraceSpec(functions=("a", "b"),
                                 rate_class="sporadic",
                                 duration_s=3600.0), seed=5)
    a_events = [e for e in grown.events if e.function == "a"]
    assert tuple(a_events) == lone.events


def single_class_summary(rate_class, seed=11, duration_s=3600.0):
    trace = synthesize(TraceSpec(functions=("f",), rate_class=rate_class,
                                 duration_s=duration_s), seed=seed)
    [row] = trace.summary()["per_function"]
    return row


def test_rate_classes_have_their_shapes():
    sporadic = single_class_summary("sporadic")
    periodic = single_class_summary("periodic")
    bursty = single_class_summary("bursty")
    # Sporadic: the Azure regime, well under once per minute on average.
    assert sporadic["mean_gap_s"] > 60.0
    # Periodic: near-constant gaps (timer with 5 % jitter).
    assert periodic["interarrival_cv"] < 0.3
    # Bursty: far over-dispersed relative to Poisson (cv 1).
    assert bursty["interarrival_cv"] > 1.0
    assert bursty["events"] > sporadic["events"]


def test_azure_mix_assigns_classes_from_profiles():
    trace = synthesize(TraceSpec(
        functions=("helloworld", "image_rotate", "lr_training"),
        rate_class="azure", duration_s=1200.0), seed=4)
    assert trace.meta["classes"] == {
        "helloworld": "sporadic",
        "image_rotate": "bursty",
        "lr_training": "periodic",
    }
    assert trace.meta["seed"] == 4


def test_default_rate_class_and_keepalive():
    assert default_rate_class("helloworld") == "sporadic"
    assert default_rate_class("json_serdes") == "bursty"
    assert default_rate_class("video_processing") == "periodic"
    assert recommended_keepalive_s("sporadic") < \
        recommended_keepalive_s("periodic")
    with pytest.raises(KeyError, match="known:"):
        recommended_keepalive_s("diurnal")


# -- replay ----------------------------------------------------------------


def replay_against_worker(trace, seed=19, keepalive_s=600.0):
    testbed = Testbed(seed=seed)
    testbed.deploy(toy())
    scaler = Autoscaler(testbed.orchestrator,
                        AutoscalerParameters(keepalive_s=keepalive_s))
    replayer = TraceReplayer(testbed.env, scaler, trace)
    started = testbed.env.now  # deploy already advanced the clock
    stats = testbed.run(replayer.run())
    scaler.stop()
    return stats, started


def test_replayer_rejects_empty_trace():
    testbed = Testbed(seed=19)
    with pytest.raises(ValueError):
        TraceReplayer(testbed.env, None, InvocationTrace([]))


def test_replayer_issues_every_event_exactly_on_schedule():
    # Arrivals every 2 ms against a 4 ms warm time: sustained overload.
    # Open-loop replay must stamp each request at its trace timestamp,
    # never delayed by outstanding completions.
    arrivals = [0.002 * k for k in range(25)]
    stats, started = replay_against_worker(hand_trace(arrivals))
    samples = stats["toy"].samples
    assert len(samples) == 25
    issued = sorted((sample.issued_at - started) / 1e6
                    for sample in samples)
    assert issued == pytest.approx(arrivals, abs=1e-9)


def test_replayer_cold_then_warm_matches_keepalive():
    stats, _started = replay_against_worker(hand_trace([0.0, 1.0, 2.0, 3.0]),
                                            keepalive_s=600.0)
    modes = stats["toy"].by_mode()
    assert modes.get("warm", 0) == 3  # only the first arrival is cold
    assert stats["toy"].cold_fraction == pytest.approx(0.25)


def test_replayer_is_deterministic():
    trace = synthesize(TraceSpec(functions=("toy",), rate_class="bursty",
                                 duration_s=120.0), seed=13)

    def run():
        stats, _started = replay_against_worker(trace, seed=13)
        return [(s.issued_at, s.latency_ms, s.mode)
                for s in stats["toy"].samples]

    assert run() == run()


def test_replayer_against_cluster():
    env = Environment()
    cluster = Cluster(env, n_workers=2, seed=19)
    process = env.process(cluster.deploy(toy()))
    env.run(until=process)
    trace = hand_trace([0.5 * k for k in range(8)])
    replayer = TraceReplayer(env, cluster, trace)
    process = env.process(replayer.run())
    stats = env.run(until=process)
    cluster.shutdown()
    assert len(stats["toy"].samples) == 8
    assert cluster.balancer.stats.routed == 8


def test_replay_offset_from_nonzero_start():
    # Trace timestamps are relative to when run() starts, so a replay
    # can begin mid-scenario.
    testbed = Testbed(seed=19)
    testbed.deploy(toy())
    scaler = Autoscaler(testbed.orchestrator)
    started = {}

    def scenario():
        yield testbed.env.timeout(250_000.0)
        started["at"] = testbed.env.now
        replayer = TraceReplayer(testbed.env, scaler,
                                 hand_trace([0.0, 0.1]))
        stats = yield from replayer.run()
        return stats

    stats = testbed.run(scenario())
    scaler.stop()
    issued = sorted(s.issued_at for s in stats["toy"].samples)
    assert issued[0] == pytest.approx(started["at"])
    assert issued[1] == pytest.approx(started["at"] + 100_000.0)


# -- the trace_* experiment family ----------------------------------------


def test_trace_replay_experiment_small():
    from repro.bench.experiments import run_experiment

    result = run_experiment("trace_replay", duration_s=300.0,
                            trace_classes=["bursty"],
                            functions=["helloworld"])
    assert len(result.rows) == 2  # one per scheme
    assert result.metrics["bursty_p99_improvement"] > 1.0
    for row in result.rows:
        assert row["invocations"] > 0
        assert "cold_fraction" in row and "p99_ms" in row


def test_trace_replay_digests_pinned():
    assert_cell_digest_stable("trace_replay", duration_s=300.0,
                              trace_classes=["bursty"],
                              functions=["helloworld"])


def test_trace_experiments_parallel_serial_cached_identical(tmp_path):
    from repro.bench.cache import ResultCache
    from repro.bench.runner import Runner

    kwargs = dict(seed=42, duration_s=240.0, trace_classes=["bursty"],
                  functions=["helloworld", "pyaes"])
    serial = Runner(jobs=1).run(["trace_replay"], **kwargs)
    cache = ResultCache(tmp_path / "cache")
    parallel = Runner(jobs=2, cache=cache).run(["trace_replay"], **kwargs)
    cached = Runner(jobs=2, cache=cache).run(["trace_replay"], **kwargs)
    assert serial.results[0].render() == parallel.results[0].render()
    assert parallel.results[0].render() == cached.results[0].render()
    assert cached.stats.cache_hits == cached.stats.cells_total


def test_trace_scale_experiment_small():
    from repro.bench.experiments import run_experiment

    result = run_experiment("trace_scale", duration_s=240.0,
                            cluster_sizes=[1, 2],
                            functions=["helloworld", "json_serdes"])
    assert len(result.rows) == 4  # two sizes x two schemes
    for row in result.rows:
        assert row["invocations"] > 0
    assert result.metrics["p99_improvement_at_max_scale"] > 1.0
