"""Observability layer: span tracer and metrics registry.

Covers the two instruments in :mod:`repro.obs` plus the contract that
matters most: installing them must not change simulated results (cell
payloads are byte-identical tracing on vs off), and every span opened
during an invocation is closed exactly once -- including on the
interrupt path, where open spans close with ``status="error"``.
"""

import hashlib
import json

import pytest

from repro.bench.cache import canonicalize
from repro.bench.experiments import EXPERIMENTS
from repro.bench.experiments.spec import run_cell_checked
from repro.bench.harness import Testbed
from repro.functions import FunctionProfile, get_profile
from repro.obs import metrics as obs_metrics
from repro.obs import tracer as obs_tracer
from repro.obs.tracer import SpanError, validate_chrome_trace
from repro.orchestrator import Autoscaler, Cluster, Orchestrator
from repro.sim.engine import Environment, Interrupt
from repro.memory.guest import GuestMemory
from repro.sim.units import MIB, MS
from repro.snapstore.tier import TierParameters
from repro.vm import VCpu, WorkerHost


@pytest.fixture
def tracer():
    active = obs_tracer.install()
    yield active
    obs_tracer.uninstall()


@pytest.fixture
def registry():
    active = obs_metrics.install()
    yield active
    obs_metrics.uninstall()


def toy(name="toy"):
    return FunctionProfile(
        name=name,
        description="obs test function",
        vm_memory_mb=32,
        boot_footprint_mb=6.0,
        warm_ms=4.0,
        connection_pages=50,
        processing_pages=120,
        unique_pages=10,
        contiguity_mean=2.4,
    )


# -- tracer unit tests --------------------------------------------------------


def test_spans_nest_per_lane(tracer):
    outer = tracer.begin("outer", 0.0, lane="a")
    inner = tracer.begin("inner", 1.0, lane="a")
    other = tracer.begin("elsewhere", 1.0, lane="b")
    assert outer.parent is None
    assert inner.parent is outer
    assert other.parent is None  # lanes nest independently
    tracer.end(inner, 2.0)
    tracer.end(other, 2.0)
    tracer.end(outer, 3.0)
    assert not tracer.open_spans()
    assert outer.duration_us == 3.0


def test_double_close_raises(tracer):
    span = tracer.begin("x", 0.0, lane="a")
    tracer.end(span, 1.0)
    with pytest.raises(SpanError):
        tracer.end(span, 2.0)


def test_end_before_start_raises(tracer):
    span = tracer.begin("x", 5.0, lane="a")
    with pytest.raises(SpanError):
        tracer.end(span, 4.0)


def test_abort_lane_closes_open_spans_with_error(tracer):
    a = tracer.begin("a", 0.0, lane="L")
    b = tracer.begin("b", 1.0, lane="L")
    untouched = tracer.begin("c", 1.0, lane="M")
    assert tracer.abort_lane("L", 2.0) == 2
    assert a.status == "error" and a.end_us == 2.0
    assert b.status == "error" and b.end_us == 2.0
    assert not untouched.closed
    assert tracer.abort_lane("L", 3.0) == 0  # idempotent on empty lanes
    tracer.end(untouched, 3.0)


def test_cell_label_prefixes_process_names(tracer):
    tracer.begin_cell("fig7/helloworld")
    span = tracer.begin("x", 0.0, lane="a", proc="worker0")
    tracer.end(span, 1.0)
    assert span.proc == "fig7/helloworld:worker0"


def test_to_chrome_is_valid_and_deterministic(tracer):
    span = tracer.begin("outer", 0.0, lane="a", args={"k": 1})
    tracer.end(span, 10.0)
    tracer.instant("tick", 5.0, lane="a", cat="marks")
    blob = tracer.to_chrome()
    assert validate_chrome_trace(blob) == []
    assert blob["traceEvents"]  # metadata + span + instant
    # Export is a pure function of the recorded spans.
    assert json.dumps(blob, sort_keys=True) == json.dumps(
        tracer.to_chrome(), sort_keys=True)
    spans = [ev for ev in blob["traceEvents"] if ev["ph"] == "X"]
    assert spans[0]["args"] == {"k": 1, "status": "ok"}


def test_validate_chrome_trace_flags_problems():
    assert validate_chrome_trace([]) != []
    assert validate_chrome_trace({"traceEvents": 3}) != []
    bad_phase = {"traceEvents": [{"ph": "Z"}]}
    assert any("unknown phase" in p
               for p in validate_chrome_trace(bad_phase))
    missing = {"traceEvents": [{"ph": "X", "name": "n"}]}
    assert any("missing" in p for p in validate_chrome_trace(missing))
    negative = {"traceEvents": [
        {"ph": "X", "name": "n", "cat": "c", "pid": 1, "tid": 1,
         "ts": -1.0, "dur": 0.0, "args": {}}]}
    assert any("bad ts" in p for p in validate_chrome_trace(negative))


# -- metrics unit tests -------------------------------------------------------


def test_counter_rejects_negative_increment(registry):
    counter = registry.counter("hits")
    counter.inc(2)
    with pytest.raises(ValueError):
        counter.inc(-1)
    assert counter.value == 2


def test_histogram_quantiles_are_bucket_bounds(registry):
    histogram = registry.histogram("lat")
    for value in (3.0, 3.5, 900.0):
        histogram.observe(value)
    # 3.0 and 3.5 land in the (2, 4] bucket; 900 in (512, 1024].
    assert histogram.quantile(0.50) == 4.0
    assert histogram.quantile(1.00) == 1024.0
    summary = histogram.summary()
    assert summary["count"] == 3
    assert summary["max"] == 900.0


def test_histogram_overflow_reports_exact_max(registry):
    histogram = registry.histogram("big")
    histogram.observe(float(1 << 33))
    assert histogram.quantile(0.99) == float(1 << 33)


def test_register_requires_to_dict(registry):
    with pytest.raises(TypeError):
        registry.register("bad", object())


def test_instrument_kind_conflict_raises(registry):
    registry.counter("x")
    with pytest.raises(ValueError):
        registry.gauge("x")


def test_registry_snapshots_per_cell(registry):
    class FakeStats:
        def to_dict(self):
            return {"n": 1, "nested": {"flag": True}, "skip": None}

    registry.begin_cell("cell/a")
    registry.register("fake", FakeStats())
    registry.counter("hits").inc(3)
    registry.begin_cell("cell/b")
    registry.gauge("depth").set(2.5)
    registry.finish()
    assert registry.cells["cell/a"] == {
        "fake.n": 1, "fake.nested.flag": 1, "hits": 3}
    assert registry.cells["cell/b"] == {"depth": 2.5}
    rows = registry.rows()
    assert {"cell": "cell/b", "metric": "depth", "value": 2.5} in rows


# -- invocation lifecycle spans ----------------------------------------------


def test_cold_start_spans_close_in_documented_phase_order(tracer):
    testbed = Testbed(seed=7)
    testbed.deploy(toy())
    result = testbed.invoke("toy")  # record mode (first cold start)
    assert not tracer.open_spans()
    cold = tracer.spans_named("cold_start")
    assert len(cold) == 1 and cold[0].status == "ok"
    lane = cold[0].lane
    assert lane == f"toy#{result.invocation}"
    phases = [span.name for span in tracer.spans
              if span.parent is cold[0]]
    # The docs/architecture.md cold-start walk-through, in order.
    assert phases == ["load_vmm", "prepare", "connection", "processing",
                      "finalize"]
    for span in tracer.spans:
        assert span.closed and span.status == "ok"
    # fault_window spans nest under the phase that faulted.
    for window in tracer.spans_named("fault_window"):
        assert window.parent.name in ("connection", "processing")
        assert window.args["faults"] >= 1


def _sha256(blob):
    return hashlib.sha256(
        json.dumps(blob, sort_keys=True).encode()).hexdigest()


def test_fault_window_trace_is_pinned(tracer):
    """Span output of the vCPU replay loop, pinned byte for byte.

    Every restore path that faults (record, REAP, vanilla, WS file) plus
    a warm invocation, on two functions; recorded before the traced and
    untraced replay loops were folded into one.
    """
    testbed = Testbed(seed=7)
    for name in ("helloworld", "pyaes"):
        testbed.deploy(get_profile(name))
    for name in ("helloworld", "pyaes"):
        testbed.invoke(name)                      # record
        testbed.invoke(name)                      # reap
        testbed.invoke(name, mode="vanilla")
        testbed.invoke(name, mode="ws_file", keep_warm=True)
        testbed.invoke(name)                      # warm
    windows = [[span.proc, span.lane, span.start_us, span.end_us, span.args]
               for span in tracer.spans_named("fault_window")]
    assert (len(windows), sum(w[4]["faults"] for w in windows)) == (286, 8885)
    assert _sha256(windows) == (
        "9b4b43181e1cb7f561e4e8608cbf4b6b9be578615a87fef5c16f1dc8566ecfbe")
    assert _sha256(tracer.to_chrome()) == (
        "363ea713c6c4e388da7e84f5a7b4f60b5f8902709c922738ec2cc4ad6b0b5dba")


@pytest.mark.parametrize("compute_us, expected", [
    (600.0, [(75.0, 350.0, 2), (575.0, 850.0, 2), (1000.0, 1100.0, 1)]),
    # No compute budget: windows split by present pages still close at
    # the time after their last fault, back to back with the next one.
    (0.0, [(0.0, 200.0, 2), (200.0, 400.0, 2), (400.0, 500.0, 1)]),
])
def test_fault_windows_split_at_present_pages(tracer, compute_us, expected):
    env = Environment()
    memory = GuestMemory(1 * MIB)
    memory.populate([2, 3, 6])
    vcpu = VCpu(env)

    def handler(page):
        yield env.timeout(100.0)
        memory.install(page)

    env.run(until=env.process(vcpu.execute_phase(
        memory, list(range(8)), compute_us, handler, obs_lane="lane")))
    windows = [(span.start_us, span.end_us, span.args["faults"])
               for span in tracer.spans_named("fault_window")]
    assert windows == expected
    assert not tracer.open_spans()


def tiered_orchestrator(evicted=False):
    """A deployed ``toy`` on a tiered worker (artifacts demoted if
    ``evicted``, so the next cold start promotes them)."""
    env = Environment()
    orch = Orchestrator(WorkerHost(env, seed=7), seed=7,
                        snapstore_params=TierParameters())
    env.run(until=env.process(orch.deploy(toy())))
    cache = orch.snapshot_store.cache
    for entry in cache.entries_for("toy") if evicted else ():
        cache._demote(entry)
    return env, orch


def test_tiered_cold_start_opens_artifact_ensure_first(tracer):
    env, orch = tiered_orchestrator()
    env.run(until=env.process(orch.invoke("toy")))  # record mode
    assert not tracer.open_spans()
    cold = tracer.spans_named("cold_start")[0]
    phases = [span.name for span in tracer.spans if span.parent is cold]
    assert phases == ["artifact_ensure", "load_vmm", "prepare",
                      "connection", "processing", "finalize"]
    ensure = tracer.spans_named("artifact_ensure")[0]
    assert (ensure.cat, ensure.status) == ("snapstore", "ok")
    assert ensure.args == {"pinned": 2}  # record reads vmm + mem


def test_interrupt_mid_promotion_closes_artifact_ensure(tracer):
    env, orch = tiered_orchestrator(evicted=True)
    victim = env.process(orch.invoke("toy"))

    def interrupter():
        yield env.timeout(1 * MS)  # the remote fetch is still running
        victim.interrupt("teardown")

    env.process(interrupter())
    with pytest.raises(Interrupt):
        env.run(until=victim)
    assert not tracer.open_spans()
    ensure = tracer.spans_named("artifact_ensure")
    assert [span.status for span in ensure] == ["error"]
    assert tracer.spans_named("promote")[0].status == "error"
    assert not tracer.spans_named("load_vmm")


def test_warm_invocation_records_warm_span(tracer):
    testbed = Testbed(seed=7)
    testbed.deploy(toy())
    testbed.invoke("toy", keep_warm=True)
    testbed.invoke("toy", use_warm=True)
    warm = tracer.spans_named("warm_start")
    assert len(warm) == 1 and warm[0].status == "ok"
    processing = [span for span in tracer.spans_named("processing")
                  if span.parent is warm[0]]
    assert len(processing) == 1
    assert not tracer.open_spans()


def test_phase_spans_and_breakdown_fields_share_one_source(tracer):
    testbed = Testbed(seed=7)
    testbed.deploy(toy())
    cold = testbed.invoke("toy", keep_warm=True)
    warm = testbed.invoke("toy", use_warm=True)
    assert warm.mode == "warm"

    def phases(envelope, result):
        root, = [span for span in tracer.spans_named(envelope)
                 if span.lane == f"toy#{result.invocation}"]
        return {span.name: span for span in tracer.spans
                if span.parent is root}

    cold_phases = phases("cold_start", cold)
    for name in ("load_vmm", "connection", "processing", "finalize"):
        value = getattr(cold.breakdown, f"{name}_us")
        assert value > 0
        # Exact equality is the point: one begin/end feeds both.
        # lint: allow[REPRO-D004]
        assert cold_phases[name].duration_us == value, name
    warm_processing = phases("warm_start", warm)["processing"]
    assert warm.breakdown.processing_us > 0
    # lint: allow[REPRO-D004]
    assert warm_processing.duration_us == warm.breakdown.processing_us


def test_interrupt_mid_restore_closes_spans_with_error(tracer):
    testbed = Testbed(seed=7)
    testbed.deploy(toy())
    env = testbed.env
    victim = env.process(testbed.orchestrator.invoke("toy"))

    def interrupter():
        yield env.timeout(50 * MS)  # mid cold start (total is ~100s ms)
        victim.interrupt("teardown")

    env.process(interrupter())
    with pytest.raises(Interrupt):
        env.run(until=victim)
    assert not tracer.open_spans()
    errored = [span for span in tracer.spans if span.status == "error"]
    assert errored  # at least cold_start, usually a phase under it
    assert any(span.name == "cold_start" for span in errored)
    for span in tracer.spans:
        assert span.closed


def test_autoscaler_emits_admission_spans(tracer):
    env = Environment()
    from repro.vm import WorkerHost
    from repro.orchestrator.orchestrator import Orchestrator
    host = WorkerHost(env, seed=7)
    orch = Orchestrator(host, seed=7)
    scaler = Autoscaler(orch)
    env.run(until=env.process(orch.deploy(toy())))
    env.run(until=env.process(scaler.invoke("toy")))
    env.run(until=env.process(scaler.invoke("toy")))
    scaler.stop()
    admissions = tracer.spans_named("admission")
    assert [span.args["decision"] for span in admissions] == \
        ["cold", "warm"]
    assert [span.lane for span in admissions] == ["toy@0", "toy@1"]
    assert not tracer.open_spans()


def test_cluster_route_instants_and_worker_processes(tracer):
    env = Environment()
    cluster = Cluster(env, n_workers=2, seed=7)
    env.run(until=env.process(cluster.deploy(toy())))
    env.run(until=env.process(cluster.invoke("toy")))
    cluster.shutdown()
    routes = [inst for inst in tracer.instants if inst["name"] == "route"]
    assert len(routes) == 1
    assert routes[0]["proc"] == "cluster"
    assert routes[0]["args"]["kind"] in ("warm", "locality", "cold")
    # The chosen worker's spans carry its own process name.
    worker = routes[0]["args"]["worker"]
    assert any(span.proc == f"worker{worker}"
               for span in tracer.spans_named("cold_start"))


# -- satellite behavior -------------------------------------------------------


def test_unused_prefetched_uniform_across_policies():
    testbed = Testbed(seed=7)
    testbed.deploy(toy())
    record = testbed.invoke("toy")
    reap = testbed.invoke("toy")
    vanilla = testbed.invoke("toy", mode="vanilla")
    assert record.mode == "record" and record.breakdown.unused_prefetched == 0
    assert reap.mode == "reap" and reap.breakdown.unused_prefetched >= 0
    assert vanilla.breakdown.unused_prefetched == 0


def test_stats_to_dict_surfaces():
    from repro.memory.working_set import ReuseStats
    from repro.orchestrator.cluster import RouteStats
    from repro.orchestrator.loadgen import LoadStats
    from repro.snapstore.tier import TierStats
    from repro.storage.device import DeviceStats, IoRequest, ReadKind
    from repro.vm.snapshot import SnapshotStoreStats

    route = RouteStats(routed=3, warm_routed=1, by_worker={0: 2, 1: 1})
    assert route.to_dict()["by_worker"] == {"0": 2, "1": 1}

    device = DeviceStats()
    device.record(IoRequest(0, 4096, ReadKind.DEMAND_FAULT), 1.0)
    exported = device.to_dict()
    assert exported["bytes_by_kind"] == {"demand_fault": 4096}
    assert exported["read_requests"] == 1

    assert SnapshotStoreStats(captures=2).to_dict()["captures"] == 2
    assert ReuseStats(3, 1).to_dict()["same_fraction"] == 0.75
    assert LoadStats().to_dict() == {"count": 0, "cold_fraction": 0.0,
                                     "by_mode": {}}
    assert json.dumps(TierStats().to_dict())  # JSON-serializable

    from repro.core.context import LatencyBreakdown
    breakdown = LatencyBreakdown(policy="vanilla", function="f")
    blob = breakdown.to_dict()
    assert blob["unused_prefetched"] == 0  # present even when unused
    assert blob["total_us"] == 0.0


# -- digest invariance --------------------------------------------------------


def _cell_digest(experiment, cell):
    return json.dumps(canonicalize(run_cell_checked(experiment, cell)),
                      sort_keys=True)


def _digest_with_obs(experiment, cell):
    obs_tracer.install()
    obs_metrics.install()
    try:
        return _cell_digest(experiment, cell)
    finally:
        obs_tracer.uninstall()
        obs_metrics.uninstall()


def test_fig7_cell_payload_invariant_under_observability():
    experiment = EXPERIMENTS["fig7"]
    cell = experiment.cells(seed=42)[0]
    assert _cell_digest(experiment, cell) == \
        _digest_with_obs(experiment, cell)


def test_snapstore_tiering_cell_payload_invariant_under_observability():
    experiment = EXPERIMENTS["snapstore_tiering"]
    cell = experiment.cells(seed=42, duration_s=120.0,
                            capacities_mb=(256,), policies=("lru",),
                            functions=("helloworld",), repetitions=1)[0]
    assert _cell_digest(experiment, cell) == \
        _digest_with_obs(experiment, cell)


# -- CLI ----------------------------------------------------------------------


def test_cli_run_trace_out_writes_valid_trace(tmp_path, capsys):
    from repro.bench.__main__ import main

    out = tmp_path / "trace.json"
    assert main(["run", "fig7", "--trace-out", str(out),
                 "--no-cache"]) == 0
    captured = capsys.readouterr()
    assert "trace event(s)" in captured.err
    blob = json.loads(out.read_text())
    assert validate_chrome_trace(blob) == []
    names = {ev["name"] for ev in blob["traceEvents"]
             if ev["ph"] == "X"}
    assert {"cold_start", "load_vmm", "prepare", "connection",
            "processing", "finalize"} <= names
    assert obs_tracer.ACTIVE is None  # uninstalled after the run


def test_cli_metrics_subcommand(capsys):
    from repro.bench.__main__ import main

    assert main(["metrics", "fig7", "--format", "json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    (label, snapshot), = blob["cells"].items()
    assert label.startswith("fig7/")
    assert snapshot["invocations.vanilla"] >= 1
    assert "invoke_latency_us.reap.p50" in snapshot
    assert obs_metrics.ACTIVE is None

    assert main(["metrics", "fig7", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "cell,metric,value"
