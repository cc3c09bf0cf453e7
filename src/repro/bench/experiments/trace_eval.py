"""Trace-driven workload experiments: the §2.1 traffic shape, replayed.

The ``trace_*`` family replays synthetic Azure-like invocation traces
(:mod:`repro.orchestrator.trace`) open-loop against autoscaled workers
and reports what the stationary-Poisson ``tail_latency`` experiment
cannot: cold fractions and latency tails under sporadic, periodic, and
bursty arrivals, per restore policy, and at cluster scale.

Cell granularity:

* ``trace_replay`` -- one cell per (trace class, restore scheme),
  replayed against a single autoscaled worker, latencies pooled across
  functions;
* ``trace_scale`` -- one cell per (cluster size, restore scheme); the
  mixed ``azure`` population replayed against an n-worker
  :class:`~repro.orchestrator.cluster.Cluster` behind the warm-affinity
  front end.

Both follow the shared trace-replay cell method of
:mod:`repro.bench.experiments.replay` (docs/experiments.md,
"Trace-replay cells"), so the family shards and caches through
:mod:`repro.bench.runner` like every other experiment.
"""

from __future__ import annotations

from repro.analysis.aggregate import collect
from repro.bench.experiments import replay
from repro.bench.experiments.replay import SCHEMES
from repro.bench.experiments.spec import Cell, Experiment
from repro.bench.harness import ExperimentResult, Testbed
from repro.orchestrator.autoscaler import Autoscaler
from repro.orchestrator.loadgen import SchemeInvoker

#: The pure rate classes the single-worker sweep covers.
TRACE_CLASSES = ("sporadic", "periodic", "bursty")


class TraceReplayEval(Experiment):
    """Cold fraction and latency tail per trace class (§2.1 + §3.3)."""

    id = "trace_replay"
    title = "Trace replay: cold fraction and tail latency per class (§2.1)"

    #: Small-input suite subset: light enough to replay hundreds of
    #: arrivals per cell, varied enough to exercise distinct working
    #: sets.
    FUNCTIONS = ("helloworld", "pyaes", "json_serdes")

    def cells(self, seed: int = 42, duration_s: float = 1800.0,
              trace_classes=TRACE_CLASSES, functions=FUNCTIONS,
              **_kwargs) -> list[Cell]:
        return [self._cell(f"{trace_class}/{scheme}",
                           trace_class=trace_class, scheme=scheme,
                           seed=seed, duration_s=float(duration_s),
                           functions=list(functions))
                for trace_class in trace_classes
                for scheme in SCHEMES]

    def run_cell(self, cell: Cell) -> dict:
        trace_class = cell.params["trace_class"]
        scheme = cell.params["scheme"]
        seed = cell.params["seed"]
        trace = replay.cell_trace(cell.params, trace_class, seed)
        testbed = Testbed(seed=seed)
        replay.deploy(testbed.orchestrator, cell.params["functions"],
                      record=scheme == "reap")
        scaler = Autoscaler(testbed.orchestrator,
                            replay.autoscaler_params(trace_class))
        stats = testbed.run(replay.replay_trace(
            testbed.env, SchemeInvoker(scaler, scheme), trace))
        scaler.stop()
        pooled = replay.pooled(stats.values())
        return {
            "cold_fraction": pooled["cold_fraction"],
            "p50_ms": pooled["p50_ms"],
            "p99_ms": pooled["p99_ms"],
            "row": {
                "trace_class": trace_class,
                "scheme": scheme,
                "invocations": pooled["invocations"],
                "cold_fraction": f"{pooled['cold_fraction']:.0%}",
                "p50_ms": round(pooled["p50_ms"], 1),
                "p99_ms": round(pooled["p99_ms"], 1),
                "p99.9_ms": round(pooled["p999_ms"], 1),
            },
        }

    def assemble(self, payloads, trace_classes=TRACE_CLASSES,
                 **_kwargs) -> ExperimentResult:
        result = self.result()
        result.rows = collect(payloads, "row")
        by_key = {(payload["row"]["trace_class"], payload["row"]["scheme"]):
                  payload for payload in payloads}
        for trace_class in trace_classes:
            for scheme in SCHEMES:
                payload = by_key[trace_class, scheme]
                result.metrics[f"{trace_class}_{scheme}_cold_fraction"] = \
                    payload["cold_fraction"]
                result.metrics[f"{trace_class}_{scheme}_p99_ms"] = \
                    payload["p99_ms"]
            vanilla = by_key[trace_class, "vanilla"]
            reap = by_key[trace_class, "reap"]
            result.metrics[f"{trace_class}_p99_improvement"] = replay.ratio(
                vanilla["p99_ms"], reap["p99_ms"])
        result.notes.append(
            "sporadic arrivals (gaps >> keep-alive) stay cold under both "
            "schemes and REAP cuts their tail several-fold; periodic "
            "timers fit inside the keep-alive window and stay warm, so "
            "the schemes converge; bursty traffic pays one cold start "
            "per burst head")
        result.notes.append(
            "REAP cells record once per function before the replay "
            "(Fig. 8 methodology); the one-time record cost is the "
            "record_overhead experiment, §6.4")
        return result


class TraceClusterScale(Experiment):
    """The mixed Azure population replayed at cluster scale (§3.2)."""

    id = "trace_scale"
    title = "Azure-mix trace replay vs cluster size (§3.2)"

    #: A mixed population whose warm times stay cold-start-dominated:
    #: sporadic interactive endpoints (helloworld, cnn_serving), bursty
    #: pipeline stages (image_rotate, json_serdes) -- the ``azure`` mix
    #: assigns each function its class from the profile.
    FUNCTIONS = ("helloworld", "image_rotate", "json_serdes",
                 "cnn_serving")

    def cells(self, seed: int = 42, duration_s: float = 1200.0,
              cluster_sizes=(1, 2, 4), functions=FUNCTIONS,
              **_kwargs) -> list[Cell]:
        return [self._cell(f"workers={n_workers}/{scheme}",
                           n_workers=int(n_workers), scheme=scheme,
                           seed=seed, duration_s=float(duration_s),
                           functions=list(functions))
                for n_workers in cluster_sizes
                for scheme in SCHEMES]

    def run_cell(self, cell: Cell) -> dict:
        from repro.orchestrator.cluster import Cluster
        from repro.sim.engine import Environment

        scheme = cell.params["scheme"]
        seed = cell.params["seed"]
        n_workers = cell.params["n_workers"]
        trace = replay.cell_trace(cell.params, "azure", seed)
        env = Environment()
        with Cluster(env, n_workers=n_workers, seed=seed,
                     autoscaler_params=replay.autoscaler_params("azure"),
                     ) as cluster:
            replay.deploy(cluster, cell.params["functions"],
                          record=scheme == "reap")
            stats = env.run(until=env.process(replay.replay_trace(
                env, SchemeInvoker(cluster, scheme), trace)))
        pooled = replay.pooled(stats.values())
        routed = cluster.balancer.stats
        warm_routed = routed.warm_routed / routed.routed if routed.routed \
            else 0.0
        return {
            "cold_fraction": pooled["cold_fraction"],
            "p99_ms": pooled["p99_ms"],
            "row": {
                "workers": n_workers,
                "scheme": scheme,
                "invocations": pooled["invocations"],
                "cold_fraction": f"{pooled['cold_fraction']:.0%}",
                "warm_routed": f"{warm_routed:.0%}",
                "p50_ms": round(pooled["p50_ms"], 1),
                "p99_ms": round(pooled["p99_ms"], 1),
                "p99.9_ms": round(pooled["p999_ms"], 1),
            },
        }

    def assemble(self, payloads, cluster_sizes=(1, 2, 4),
                 **_kwargs) -> ExperimentResult:
        result = self.result()
        result.rows = collect(payloads, "row")
        by_key = {(payload["row"]["workers"], payload["row"]["scheme"]):
                  payload for payload in payloads}
        for n_workers in cluster_sizes:
            for scheme in SCHEMES:
                payload = by_key[int(n_workers), scheme]
                result.metrics[f"w{n_workers}_{scheme}_cold_fraction"] = \
                    payload["cold_fraction"]
                result.metrics[f"w{n_workers}_{scheme}_p99_ms"] = \
                    payload["p99_ms"]
        largest = int(max(cluster_sizes))
        result.metrics["p99_improvement_at_max_scale"] = replay.ratio(
            by_key[largest, "vanilla"]["p99_ms"],
            by_key[largest, "reap"]["p99_ms"])
        result.notes.append(
            "the front end's warm-affinity routing finds surviving "
            "instances on any worker, so the cold fraction stays "
            "roughly flat as the fleet grows and REAP keeps its "
            "several-fold p99 advantage at every size; REAP also runs "
            "at a lower cold fraction than vanilla because faster cold "
            "starts return instances to the warm pool sooner")
        return result
