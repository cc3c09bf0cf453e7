"""Resilience experiments: SLOs under deterministic fault injection.

``slo_scorecard`` replays the mixed ``azure`` trace population against a
3-worker cluster while a :class:`~repro.chaos.injector.ChaosController`
drives one named fault scenario (:data:`repro.chaos.plan.SCENARIOS`):
worker crash + replacement join, fail-mode and stall-mode remote-storage
outages, a remote latency spike, and a combined crash+outage -- plus the
fault-free baseline run through the identical resilient plumbing.  Each
(scenario, scheme) cell reports the operator-facing scorecard:
availability (completed / issued), shed and retry rates, the latency
tail (p50/p99/p99.9), and the cold fraction.

The fault plan is part of the cell params (derived from the scenario
name and duration), the only time source is the simulated clock, and
every response -- cordon, failover re-route, backoff, re-replication,
promote-timeout bypass, degrade-to-vanilla -- is deterministic, so these
cells shard and cache byte-identically like every other experiment.
The replay itself follows the shared trace-replay cell method of
:mod:`repro.bench.experiments.replay` (docs/experiments.md,
"Trace-replay cells").
"""

from __future__ import annotations

from typing import Any

from repro.analysis.aggregate import collect
from repro.bench.experiments import replay
from repro.bench.experiments.replay import SCHEMES
from repro.bench.experiments.spec import Cell, Experiment
from repro.bench.harness import ExperimentResult
from repro.chaos import ChaosController, SCENARIOS, scenario_plan
from repro.orchestrator.cluster import Cluster
from repro.orchestrator.loadgen import SchemeInvoker
from repro.sim.engine import Environment
from repro.sim.units import MIB
from repro.snapstore.tier import TierParameters

#: Promotion deadline for scorecard cells: long enough that healthy
#: promotes never hit it, short enough that stall-mode outages and
#: latency spikes trip the serve-remote bypass instead of parking
#: restores for the whole fault window.
PROMOTE_TIMEOUT_US = 5_000_000.0


class SloScorecard(Experiment):
    """Availability and latency SLOs per fault scenario (§3.2, §7.1)."""

    id = "slo_scorecard"
    title = "SLO scorecard under fault injection (§3.2)"

    #: The trace_scale mixed population: sporadic interactive endpoints
    #: plus bursty pipeline stages under the ``azure`` class mix.
    FUNCTIONS = ("helloworld", "image_rotate", "json_serdes",
                 "cnn_serving")

    def cells(self, seed: int = 42, duration_s: float = 1500.0,
              scenarios=SCENARIOS, n_workers: int = 3,
              capacity_mb: int = 512, functions=FUNCTIONS,
              **_kwargs) -> list[Cell]:
        return [self._cell(f"{scenario}/{scheme}",
                           scenario=scenario, scheme=scheme,
                           seed=seed, duration_s=float(duration_s),
                           n_workers=int(n_workers),
                           capacity_mb=int(capacity_mb),
                           functions=list(functions))
                for scenario in scenarios
                for scheme in SCHEMES]

    def run_cell(self, cell: Cell) -> dict[str, Any]:
        scenario = cell.params["scenario"]
        scheme = cell.params["scheme"]
        seed = cell.params["seed"]
        duration_s = cell.params["duration_s"]
        n_workers = cell.params["n_workers"]
        trace = replay.cell_trace(cell.params, "azure", seed)
        plan = scenario_plan(scenario, duration_s, n_workers=n_workers)
        env = Environment()
        with Cluster(
                env, n_workers=n_workers, seed=seed,
                autoscaler_params=replay.autoscaler_params("azure"),
                snapstore_params=TierParameters(
                    local_capacity_bytes=cell.params["capacity_mb"] * MIB,
                    eviction="ws_aware",
                    promote_timeout_us=PROMOTE_TIMEOUT_US)) as cluster:
            replay.deploy(cluster, cell.params["functions"],
                          record=scheme == "reap")
            # The controller is attached for the baseline scenario too
            # (its plan is empty): every cell routes through the same
            # resilient invoke path, so the scenarios differ only in the
            # injected faults.
            chaos = ChaosController(cluster, plan)
            stats = env.run(until=env.process(replay.replay_trace(
                env, SchemeInvoker(cluster, scheme), trace)))
            # Background re-replication pulls must finish inside the
            # cell (the sanitizer checks for in-flight transfers).
            env.run(until=env.process(chaos.drain()))
            route = cluster.balancer.stats
        issued = len(trace)
        pooled = replay.pooled(stats.values())
        shed = sum(function_stats.shed for function_stats in stats.values())
        availability = pooled["invocations"] / issued if issued else 1.0
        return {
            "availability": availability,
            "shed": shed,
            "retries": route.retries,
            "p99_ms": pooled["p99_ms"],
            "p999_ms": pooled["p999_ms"],
            "chaos": chaos.stats.to_dict(),
            "row": {
                "scenario": scenario,
                "scheme": scheme,
                "issued": issued,
                "availability": f"{availability:.2%}",
                "shed": shed,
                "retries": route.retries,
                "crashes": chaos.stats.crashes,
                "rereplicated": chaos.stats.rereplicated,
                "cold_fraction": f"{pooled['cold_fraction']:.0%}",
                "p50_ms": round(pooled["p50_ms"], 1),
                "p99_ms": round(pooled["p99_ms"], 1),
                "p99.9_ms": round(pooled["p999_ms"], 1),
            },
        }

    def assemble(self, payloads, scenarios=SCENARIOS,
                 **_kwargs) -> ExperimentResult:
        result = self.result()
        result.rows = collect(payloads, "row")
        by_key = {(payload["row"]["scenario"], payload["row"]["scheme"]):
                  payload for payload in payloads}
        for scenario in scenarios:
            for scheme in SCHEMES:
                payload = by_key[scenario, scheme]
                prefix = f"{scenario}_{scheme}"
                result.metrics[f"{prefix}_availability"] = \
                    payload["availability"]
                result.metrics[f"{prefix}_p99_ms"] = payload["p99_ms"]
                result.metrics[f"{prefix}_p999_ms"] = payload["p999_ms"]
        if "baseline" in scenarios:
            for scheme in SCHEMES:
                baseline = by_key["baseline", scheme]
                if baseline["shed"] or baseline["retries"]:
                    result.notes.append(
                        f"WARNING: fault-free baseline ({scheme}) shed "
                        f"{baseline['shed']} and retried "
                        f"{baseline['retries']} -- resilience machinery "
                        f"should be invisible without faults")
        result.notes.append(
            "stall-mode outages and latency spikes degrade the tail "
            "but not availability (requests park, promote deadlines "
            "bypass to serve-remote); fail-mode outages convert to "
            "retries, degrade-to-vanilla restores, and -- once the "
            "retry budget is spent -- shed requests")
        result.notes.append(
            "a worker crash aborts its in-flight restores (the "
            "failover path re-routes them to survivors), loses its "
            "local tier, and triggers re-replication of the functions "
            "it was the rendezvous home for; the replacement join "
            "restores full capacity")
        return result
