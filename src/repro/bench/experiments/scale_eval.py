"""Scalability and platform experiments: Fig. 9, fio, HDD, ablations.

Cell granularity per experiment:

* ``fig9`` -- one cell per concurrency level (each level builds two
  fresh testbeds);
* ``fio`` -- one cell per microbenchmark workload;
* ``hdd`` -- reuses the Fig. 8 cells with ``storage="hdd"``;
* ``warm_background`` -- two cells (quiet host, busy host);
* ``tail_latency`` -- two cells (vanilla scheme, REAP scheme);
* ``remote_storage`` -- one cell per (function, storage backend);
* ``ablations`` -- one cell per (knob, setting).
"""

from __future__ import annotations

from repro.analysis.aggregate import collect, geometric_mean
from repro.bench import reference
from repro.bench.experiments.reap_eval import Fig8ReapSpeedup
from repro.bench.experiments.spec import Cell, Experiment
from repro.bench.harness import ExperimentResult, Testbed
from repro.functions import get_profile
from repro.sim.units import MS, PAGE_SIZE
from repro.storage.fio import random_read_bandwidth, sequential_read_bandwidth
from repro.storage.pagecache import PageCacheParameters
from repro.storage.ssd import SsdDevice
from repro.storage.thinpool import ThinPoolParameters
from repro.vm.host import HostParameters


def _concurrent_cold_starts(mode: str, level: int, seed: int,
                            function: str = "helloworld") -> tuple[float, float]:
    """Average per-instance cold latency (ms) and makespan (ms)."""
    testbed = Testbed(seed=seed)
    profile = get_profile(function)
    testbed.deploy(profile)
    if mode != "vanilla":
        testbed.invoke(function)  # record
    testbed.host.flush_page_cache()
    latencies: list[float] = []

    def one():
        outcome = yield from testbed.orchestrator.invoke(
            function, mode=mode, flush_page_cache=False, use_warm=False)
        latencies.append(outcome.breakdown.total_ms)

    env = testbed.env
    started = env.now
    jobs = [env.process(one()) for _ in range(level)]
    env.run(until=env.all_of(jobs))
    makespan_ms = (env.now - started) / MS
    return sum(latencies) / len(latencies), makespan_ms


class Fig9Scalability(Experiment):
    """Fig. 9: average cold-start latency under concurrent arrivals."""

    id = "fig9"
    title = "Cold-start latency vs concurrent loading instances (Fig. 9)"

    def cells(self, levels=reference.FIG9_LEVELS, seed: int = 42,
              **_kwargs) -> list[Cell]:
        return [self._cell(f"level={level}", level=int(level), seed=seed)
                for level in levels]

    def run_cell(self, cell: Cell) -> dict:
        level = cell.params["level"]
        seed = cell.params["seed"]
        profile = get_profile("helloworld")
        ws_mb = profile.total_working_set_pages * PAGE_SIZE / 1e6
        base_ms, base_span = _concurrent_cold_starts("vanilla", level, seed)
        reap_ms, reap_span = _concurrent_cold_starts("reap", level, seed)
        return {"base_ms": base_ms, "reap_ms": reap_ms, "row": {
            "concurrency": level,
            "baseline_avg_ms": round(base_ms, 1),
            "reap_avg_ms": round(reap_ms, 1),
            "baseline_agg_mbps": round(
                level * ws_mb / (base_span / 1e3), 0),
            "reap_agg_mbps": round(level * ws_mb / (reap_span / 1e3), 0),
        }}

    def assemble(self, payloads, **_kwargs) -> ExperimentResult:
        result = self.result()
        result.rows = collect(payloads, "row")
        first, last = payloads[0], payloads[-1]
        result.metrics["baseline_growth"] = (last["base_ms"]
                                             / first["base_ms"])
        result.metrics["reap_growth"] = last["reap_ms"] / first["reap_ms"]
        result.metrics["reap_advantage_at_max"] = (last["base_ms"]
                                                   / last["reap_ms"])
        result.notes.append(
            "paper: baseline grows near-linearly with concurrency; REAP "
            "stays far lower and becomes disk-bandwidth-bound from ~16 "
            "instances")
        return result


class FioMicrobench(Experiment):
    """§5.2.3: the fio calibration triplet on the simulated SSD."""

    id = "fio"
    title = "fio-style SSD microbenchmarks (§5.2.3)"

    def cells(self, seed: int = 42, **_kwargs) -> list[Cell]:
        return [self._cell(workload, workload=workload, seed=seed)
                for workload in reference.FIO_MBPS]

    def run_cell(self, cell: Cell) -> dict:
        from repro.sim.engine import Environment

        workload = cell.params["workload"]
        seed = cell.params["seed"]
        if workload == "randread_qd1_4k":
            measured = random_read_bandwidth(
                SsdDevice(Environment()), queue_depth=1,
                requests_per_worker=200, seed=seed)
        elif workload == "randread_qd16_4k":
            measured = random_read_bandwidth(
                SsdDevice(Environment()), queue_depth=16,
                requests_per_worker=100, seed=seed)
        elif workload == "seqread_peak":
            measured = sequential_read_bandwidth(SsdDevice(Environment()))
        else:
            raise ValueError(f"unknown fio workload {workload!r}")
        return {"workload": workload, "mbps": measured.bandwidth_mbps}

    def assemble(self, payloads, **_kwargs) -> ExperimentResult:
        result = self.result()
        measurements = {p["workload"]: p["mbps"] for p in payloads}
        for key, paper in reference.FIO_MBPS.items():
            got = measurements[key]
            result.rows.append({
                "workload": key,
                "measured_mbps": round(got, 1),
                "paper_mbps": paper,
                "deviation": f"{got / paper - 1:+.1%}",
            })
            result.metrics[key] = got
        return result


class HddComparison(Fig8ReapSpeedup):
    """§6.3: snapshots on a 7200 RPM HDD instead of the SSD.

    Same per-function cells as Fig. 8, pinned to one repetition on the
    HDD backend; only the framing of the assembled result differs.
    """

    id = "hdd"
    title = "Baseline vs REAP with snapshots on HDD (§6.3)"
    aliases = ()  # not Fig. 8's alias

    def cells(self, functions=None, seed: int = 42, **_kwargs) -> list[Cell]:
        return super().cells(functions=functions, repetitions=1, seed=seed,
                             storage="hdd")

    def assemble(self, payloads, **_kwargs) -> ExperimentResult:
        inner = super().assemble(payloads, storage="hdd")
        result = self.result()
        result.rows = inner.rows
        result.metrics = dict(inner.metrics)
        result.notes.append(
            f"paper: ~{reference.HDD_SPEEDUP_GEOMEAN}x average (geometric "
            f"mean) speedup on the HDD, vs ~3.7x on the SSD")
        return result


class WarmBackground(Experiment):
    """§6.3: cold-start results with 20 warm functions serving traffic."""

    id = "warm_background"
    title = "Cold starts with warm background functions (§6.3)"

    def cells(self, seed: int = 42, background_functions: int = 20,
              function: str = "helloworld", repetitions: int = 3,
              **_kwargs) -> list[Cell]:
        return [self._cell("quiet" if not busy else "busy",
                           with_background=busy, seed=seed,
                           background_functions=background_functions,
                           function=function, repetitions=repetitions)
                for busy in (False, True)]

    def run_cell(self, cell: Cell) -> dict:
        from repro.functions.spec import FunctionProfile

        seed = cell.params["seed"]
        function = cell.params["function"]
        repetitions = cell.params["repetitions"]
        testbed = Testbed(seed=seed)
        profile = get_profile(function)
        testbed.deploy(profile)
        stop_flag = {"stop": False}
        if cell.params["with_background"]:
            for index in range(cell.params["background_functions"]):
                bg_profile = FunctionProfile(
                    name=f"bg{index}",
                    description="warm background function",
                    vm_memory_mb=128,
                    boot_footprint_mb=64.0,
                    warm_ms=5.0,
                    connection_pages=200,
                    processing_pages=300,
                    unique_pages=10,
                    contiguity_mean=2.3,
                )
                testbed.run(testbed.orchestrator.deploy(
                    bg_profile, take_snapshot=False))

                def traffic(bg_name=bg_profile.name):
                    while not stop_flag["stop"]:
                        yield from testbed.orchestrator.invoke(bg_name)
                        yield testbed.env.timeout(20 * MS)

                testbed.env.process(traffic())
        baseline = [b.breakdown.total_ms for b in testbed.invoke_many(
            function, repetitions, mode="vanilla")]
        testbed.invoke(function)  # record
        reap = [b.breakdown.total_ms for b in testbed.invoke_many(
            function, repetitions)]
        stop_flag["stop"] = True
        return {"baseline_ms": sum(baseline) / len(baseline),
                "reap_ms": sum(reap) / len(reap)}

    def assemble(self, payloads, background_functions: int = 20,
                 **_kwargs) -> ExperimentResult:
        quiet, busy = payloads
        result = self.result(
            f"Cold starts with {background_functions} warm functions (§6.3)")
        for label, quiet_ms, busy_ms in (
                ("baseline", quiet["baseline_ms"], busy["baseline_ms"]),
                ("reap", quiet["reap_ms"], busy["reap_ms"])):
            delta = busy_ms / quiet_ms - 1.0
            result.rows.append({
                "mode": label,
                "quiet_ms": round(quiet_ms, 1),
                "with_background_ms": round(busy_ms, 1),
                "delta": f"{delta:+.1%}",
            })
            result.metrics[f"{label}_delta"] = abs(delta)
        result.notes.append("paper: results within 5 % of the quiet-host run")
        return result


class TailLatency(Experiment):
    """Response-time distribution under sporadic traffic (§2.1 + §3.3).

    Drives the vHive-style client load generator against an autoscaled
    worker whose keep-alive window is shorter than the mean inter-arrival
    gap -- the Azure-study regime where most invocations are cold.
    Compares vanilla snapshots against REAP-managed cold starts (one
    cell per scheme; each builds its own testbed and load generator).
    """

    id = "tail_latency"
    title = "Latency distribution under sporadic load (§3.3)"

    FUNCTIONS = ("helloworld", "pyaes")

    def cells(self, seed: int = 42, requests: int = 120,
              mean_interarrival_s: float = 90.0, **_kwargs) -> list[Cell]:
        return [self._cell(label, baseline_only=(label == "vanilla"),
                           seed=seed, requests=requests,
                           mean_interarrival_s=mean_interarrival_s)
                for label in ("vanilla", "reap")]

    def run_cell(self, cell: Cell) -> dict:
        from repro.orchestrator.autoscaler import (
            Autoscaler,
            AutoscalerParameters,
        )
        from repro.orchestrator.loadgen import (
            LoadGenerator,
            SchemeInvoker,
            TrafficSpec,
        )

        seed = cell.params["seed"]
        specs = [TrafficSpec(name, cell.params["mean_interarrival_s"],
                             cell.params["requests"])
                 for name in self.FUNCTIONS]
        testbed = Testbed(seed=seed)
        for spec in specs:
            testbed.deploy(get_profile(spec.function))
        scaler = Autoscaler(testbed.orchestrator, AutoscalerParameters(
            keepalive_s=30.0, scan_period_s=10.0))
        scheme = "vanilla" if cell.params["baseline_only"] else "reap"
        generator = LoadGenerator(testbed.env,
                                  SchemeInvoker(scaler, scheme), specs,
                                  seed=seed)
        stats = testbed.run(generator.run())
        scaler.stop()

        rows = []
        metrics = {}
        for spec in specs:
            function_stats = stats[spec.function]
            p50 = function_stats.percentile(0.50)
            p99 = function_stats.percentile(0.99)
            worst = function_stats.percentile(1.0)
            rows.append({
                "scheme": cell.label,
                "function": spec.function,
                "requests": len(function_stats.samples),
                "cold_fraction": f"{function_stats.cold_fraction:.0%}",
                "p50_ms": round(p50, 1),
                "p99_ms": round(p99, 1),
                "max_ms": round(worst, 1),
            })
            metrics[f"{cell.label}_{spec.function}_p50"] = p50
            metrics[f"{cell.label}_{spec.function}_p99"] = p99
        return {"rows": rows, "metrics": metrics}

    def assemble(self, payloads, **_kwargs) -> ExperimentResult:
        result = self.result()
        for payload in payloads:
            result.rows.extend(payload["rows"])
            result.metrics.update(payload["metrics"])
        for function in self.FUNCTIONS:
            for quantile in ("p50", "p99"):
                improvement = (
                    result.metrics[f"vanilla_{function}_{quantile}"]
                    / result.metrics[f"reap_{function}_{quantile}"])
                result.metrics[f"{function}_{quantile}_improvement"] = \
                    improvement
        result.notes.append(
            "sporadic functions (interarrival >> keepalive) are REAP's "
            "target population (§7.2); p50/p99 are cold starts under both "
            "schemes and REAP cuts them several-fold, while max_ms still "
            "shows the one-time record invocation")
        return result


class RemoteStorage(Experiment):
    """§7.1 extension: snapshots on disaggregated (S3/EBS-style) storage.

    Lazy paging pays a network round trip per small read; REAP moves the
    same state in one large transfer, so its advantage grows.
    """

    id = "remote_storage"
    title = "Snapshots on remote storage (§7.1)"

    DEFAULT_FUNCTIONS = ("helloworld", "pyaes", "json_serdes")

    def cells(self, functions=DEFAULT_FUNCTIONS, seed: int = 42,
              **_kwargs) -> list[Cell]:
        return [self._cell(f"{name}@{storage}", function=name,
                           storage=storage, seed=seed)
                for name in functions
                for storage in ("ssd", "remote")]

    def run_cell(self, cell: Cell) -> dict:
        name = cell.params["function"]
        storage = cell.params["storage"]
        profile = get_profile(name)
        testbed = Testbed(seed=cell.params["seed"], storage=storage)
        testbed.deploy(profile)
        baseline = testbed.invoke(name, mode="vanilla").breakdown
        testbed.invoke(name)  # record
        reap = testbed.invoke(name).breakdown
        speedup = baseline.total_ms / reap.total_ms
        return {"storage": storage, "speedup": speedup, "row": {
            "function": name,
            "storage": storage,
            "baseline_ms": round(baseline.total_ms, 1),
            "reap_ms": round(reap.total_ms, 1),
            "speedup": round(speedup, 2),
        }}

    def assemble(self, payloads, **_kwargs) -> ExperimentResult:
        result = self.result()
        result.rows = collect(payloads, "row")
        speedups = {"ssd": [], "remote": []}
        for payload in payloads:
            speedups[payload["storage"]].append(payload["speedup"])
        result.metrics["local_speedup_geomean"] = geometric_mean(
            speedups["ssd"])
        result.metrics["remote_speedup_geomean"] = geometric_mean(
            speedups["remote"])
        result.notes.append(
            "paper §7.1: REAP reduces both the network and the disk "
            "bottlenecks by proactively moving a minimal amount of state")
        return result


class Ablations(Experiment):
    """Ablations of the model's own design choices (not a paper figure).

    * host readahead window off/on for the lazy baseline;
    * thin-pool queue depth for the parallel-PF design point;
    * monitor worker count for parallel page-fault handling.
    """

    id = "ablations"
    title = "Design-choice ablations"

    SETTINGS = (
        ("mmap_readahead_pages", (1, 2, 4, 8)),
        ("thinpool_queue_depth", (1, 2, 4, 8, 16)),
        ("parallel_pf_workers", (1, 4, 16, 64)),
    )

    def cells(self, seed: int = 42, **_kwargs) -> list[Cell]:
        return [self._cell(f"{ablation}={setting}", ablation=ablation,
                           setting=setting, seed=seed)
                for ablation, settings in self.SETTINGS
                for setting in settings]

    def run_cell(self, cell: Cell) -> dict:
        from repro.core.manager import ReapParameters

        ablation = cell.params["ablation"]
        setting = cell.params["setting"]
        seed = cell.params["seed"]
        function = "helloworld"
        if ablation == "mmap_readahead_pages":
            # Readahead window: vanilla restore, no record needed.
            params = HostParameters(page_cache=PageCacheParameters(
                mmap_readahead_pages=setting))
            testbed = Testbed(seed=seed, host_params=params)
            testbed.deploy(get_profile(function))
            cold = testbed.invoke(function, mode="vanilla").breakdown
        elif ablation == "thinpool_queue_depth":
            # Thin-pool queue depth: gates the parallel-PF point (Fig. 7).
            params = HostParameters(thinpool=ThinPoolParameters(
                queue_depth=setting))
            testbed = Testbed(seed=seed, host_params=params)
            testbed.deploy(get_profile(function))
            testbed.invoke(function)  # record
            cold = testbed.invoke(function, mode="parallel_pf",
                                  use_warm=False).breakdown
        elif ablation == "parallel_pf_workers":
            testbed = Testbed(seed=seed,
                              reap_params=ReapParameters(
                                  parallel_workers=setting))
            testbed.deploy(get_profile(function))
            testbed.invoke(function)  # record
            cold = testbed.invoke(function, mode="parallel_pf",
                                  use_warm=False).breakdown
        else:
            raise ValueError(f"unknown ablation {ablation!r}")
        return {"row": {
            "ablation": ablation,
            "setting": setting,
            "cold_ms": round(cold.total_ms, 1),
        }}

    def assemble(self, payloads, **_kwargs) -> ExperimentResult:
        result = self.result()
        result.rows = collect(payloads, "row")
        result.notes.append(
            "readahead and thin-pool depth shape the baseline; REAP depends "
            "on neither, which is the point of the single large read")
        return result
