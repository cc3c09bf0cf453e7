"""Self-tests of the benchmark, at reduced workload sizes.

    python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import signal

import pytest

from perfbench import run

run._import_program()

from perfbench.compare import compare, verdict  # noqa: E402
from perfbench.probes import ENTRY_POINTS, LayerProbe, _resolve  # noqa: E402
from perfbench.workloads import WORKLOADS, run_pass  # noqa: E402

#: Every workload shrinks to a few invocations per function.
SCALE = 0.25

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def untraced():
    """One untraced pass per workload, shared by the tests below."""
    passes = {}

    def get(workload):
        if workload not in passes:
            passes[workload] = run_pass(workload, 42, SCALE)
        return passes[workload]

    return get


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_same_digest(workload, untraced):
    first = untraced(workload)
    second = run_pass(workload, 42, SCALE)
    assert first.failed == 0 and first.completed == first.arrivals
    assert first.digest == second.digest
    assert first.work == second.work


def test_cold_start_host_time_only_on_the_closed_loop(untraced):
    for workload in WORKLOADS:
        result = untraced(workload)
        expected = result.completed if workload == "catalog_cold" else 0
        assert len(result.cold_start_host_ms) == expected, workload


def test_tiered_workload_churns_the_tier(untraced):
    work = untraced("azure_reap_tiered").work
    assert work["evictions"] >= work["cold_starts"] // 2 > 0
    assert work["promotions"] >= work["cold_starts"] // 2


def test_seed_changes_the_inputs(untraced):
    assert (untraced("azure_vanilla").digest
            != run_pass("azure_vanilla", 7, SCALE).digest)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_digest_equals_untraced(workload, untraced):
    with LayerProbe() as probe:
        traced = run_pass(workload, 42, SCALE, probe=probe)
    assert traced.digest == untraced(workload).digest
    assert probe.samples > 0
    snapstore = sum(count for key, count in probe.phase_calls[0].items()
                    if key.startswith("TieredSnapshotStore."))
    if workload == "azure_reap_tiered":
        assert snapstore > 0
    else:
        assert snapstore == 0


def test_probe_is_fully_removed():
    originals = {(module, cls, method):
                 _resolve(module, cls).__dict__[method]
                 for _layer, module, cls, method in ENTRY_POINTS}
    handler = signal.getsignal(signal.SIGPROF)
    with LayerProbe() as probe:
        probe.start()
        run_pass("azure_vanilla", 42, SCALE)
        probe.stop()
        assert signal.getsignal(signal.SIGPROF) is not handler
    for (module, cls, method), original in originals.items():
        assert _resolve(module, cls).__dict__[method] is original
    assert signal.getsignal(signal.SIGPROF) is handler
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)


def _main(capsys, *argv):
    status = run.main(["--seconds", "0", *argv], scale=SCALE)
    lines = capsys.readouterr().out.strip().splitlines()
    return status, json.loads(lines[-1])


def test_injected_invocation_error_fails_the_run(capsys, monkeypatch):
    from repro.orchestrator.autoscaler import Autoscaler

    invoke = Autoscaler.invoke

    def broken(self, name, **kwargs):
        if name == "json_serdes":
            raise RuntimeError("injected")
        return (yield from invoke(self, name, **kwargs))

    monkeypatch.setattr(Autoscaler, "invoke", broken)
    status, result = _main(capsys, "--workload", "azure_vanilla",
                           "--seed", "42", "--trace", "0")
    assert status != 0
    assert 0 < result["failed"] < result["attempted"]


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"),
                                            (1, "per_layer")])
def test_run_prints_exactly_the_declared_metrics(capsys, trace, section):
    status, result = _main(capsys, "--workload", "azure_vanilla",
                           "--seed", "7", "--trace", str(trace))
    assert status == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = {metric["name"]: metric["unit"]
                for metric in BENCHMARK[section]}
    assert {name: metric["unit"] for name, metric
            in result["metrics"].items()} == declared


def test_benchmark_json_names():
    names = [workload["name"] for workload in BENCHMARK["workloads"]]
    assert sorted(names) == sorted(WORKLOADS)
    metrics = [metric["name"] for section in ("end_to_end", "per_layer")
               for metric in BENCHMARK[section]]
    assert len(set(names + metrics)) == len(names + metrics)
    for name in names + metrics:
        assert NAME.fullmatch(name), name
    assert "setup_s" in [metric["name"] for metric in BENCHMARK["end_to_end"]]
    pinned = json.loads(run.PINNED_DIGESTS.read_text())
    assert set(pinned) <= set(names)


def _report(digest, work, **runs):
    metrics = [dict(zip(runs, values)) for values in zip(*runs.values())]
    return {"workloads": {"w": {"runs": metrics, "digests": [digest],
                                "work": work}}}


def test_compare_verdicts_and_drift():
    benchmark = {"end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1},
        {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1}]}
    old = _report("d", {"events": 5}, wall_s=[1.0, 1.01, 0.99],
                  rate=[100.0, 101.0, 99.0])
    new = _report("d", {"events": 5}, wall_s=[1.2, 1.21, 1.19],
                  rate=[100.0, 102.0, 98.0])
    rows, drift = compare(old, new, benchmark)
    assert {row["metric"]: row["verdict"] for row in rows} == {
        "wall_s": "regression", "rate": "within bound"}
    assert drift == []
    _rows, drift = compare(old, _report("e", {"events": 6}, wall_s=[1.0],
                                        rate=[100.0]), benchmark)
    assert len(drift) == 2
    noisy = [0.5, 1.0, 1.5]
    assert verdict(noisy, [1.2, 1.3, 1.4], "lower", 0.1) == "unresolved"
    assert verdict(noisy, [0.1, 0.2, 0.3], "lower", 0.1) == "within bound"
