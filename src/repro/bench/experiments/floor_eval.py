"""The cold-start floor study: how close can policies get to warm?

Tan et al. ("How Low Can You Go?") argue the true cold-start floor is
state-loading I/O, and the warm path is the asymptote every restore
policy chases.  ``floor_study`` measures that distance directly: each
trace mix is replayed once per scheme of the policy zoo
(:mod:`repro.policies`) plus a **warm-floor reference cell** whose pool
is pre-populated and never evicted, and every scheme is ranked by its
p50 gap to that floor.

One cell per (mix, scheme): vanilla, reap (the paper's two bars),
overlap / predict / shared / prewarm (the zoo), and ``warmfloor``.  All
contestant cells share the same trace, the same class-matched
keep-alive window, and the same ``memory_budget_mb`` cell param (the
budget is enforced on the only scheme that adds speculative instances,
prewarm; every other scheme's warm pool is governed by the identical
keep-alive).  The warm-floor cell deliberately breaks the budget -- it
is the asymptote, not a contestant.

Like every experiment in the spec, cells are pure functions of their
params, so serial, ``--jobs N``, and warm-cache runs are byte-identical
(the CI floor-study smoke job pins this).
"""

from __future__ import annotations

from typing import Any

from repro.analysis.aggregate import collect, percentile
from repro.bench.experiments.spec import Cell, Experiment
from repro.bench.harness import ExperimentResult, Testbed
from repro.functions import get_profile
from repro.functions.catalog import recommended_keepalive_s
from repro.orchestrator.autoscaler import Autoscaler, AutoscalerParameters
from repro.orchestrator.loadgen import (
    LoadStats,
    SchemeInvoker,
    TraceReplayer,
)
from repro.orchestrator.trace import TraceSpec, synthesize
from repro.policies import SCHEMES as POLICY_SCHEMES
from repro.policies import PolicyLayerParameters
from repro.sim.units import MS

#: Trace mixes the study covers (>= 2 required by the study design;
#: sporadic is the class where cold starts dominate, periodic is where
#: speculation can win, azure is the mixed population).
MIXES = ("sporadic", "periodic", "azure")

#: The contestants, in ranking-table order.
SCHEMES = POLICY_SCHEMES

#: The warm-floor reference cell label.
WARM_FLOOR = "warmfloor"

#: Light catalog subset: hundreds of arrivals per cell stay affordable.
FUNCTIONS = ("helloworld", "pyaes", "json_serdes")


def _pooled(stats: dict[str, LoadStats]) -> dict[str, Any]:
    """Population-level latency summary across functions."""
    latencies = sorted(latency for function_stats in stats.values()
                       for latency in function_stats.latencies())
    samples = [sample for function_stats in stats.values()
               for sample in function_stats.samples]
    cold = sum(1 for sample in samples if sample.mode != "warm")
    return {
        "invocations": len(samples),
        "cold_fraction": cold / len(samples),
        "p50_ms": percentile(latencies, 0.50),
        "p99_ms": percentile(latencies, 0.99),
    }


class FloorStudy(Experiment):
    """Distance-to-warm-floor ranking of the cold-start policy zoo."""

    id = "floor_study"
    title = "Cold-start floor study: policy zoo vs the warm floor"
    aliases = ("policy_zoo",)

    def cells(self, seed: int = 42, duration_s: float = 900.0,
              mixes=MIXES, functions=FUNCTIONS,
              memory_budget_mb: float = 1024.0, **_kwargs) -> list[Cell]:
        return [self._cell(f"{mix}/{scheme}", mix=mix, scheme=scheme,
                           seed=seed, duration_s=float(duration_s),
                           functions=list(functions),
                           memory_budget_mb=float(memory_budget_mb))
                for mix in mixes
                for scheme in (*SCHEMES, WARM_FLOOR)]

    def run_cell(self, cell: Cell) -> dict[str, Any]:
        mix = cell.params["mix"]
        scheme = cell.params["scheme"]
        seed = cell.params["seed"]
        duration_s = cell.params["duration_s"]
        functions = tuple(cell.params["functions"])
        budget_mb = cell.params["memory_budget_mb"]
        trace = synthesize(TraceSpec(
            functions=functions, rate_class=mix,
            duration_s=duration_s), seed=seed)
        policy_params = PolicyLayerParameters(
            scheme="reap" if scheme == WARM_FLOOR else scheme,
            memory_budget_mb=budget_mb)
        testbed = Testbed(seed=seed, policy_params=policy_params)
        for name in functions:
            testbed.deploy(get_profile(name))
        if scheme == WARM_FLOOR:
            # The asymptote: a pre-populated pool that never evicts.
            # Two instances per function ride out arrival overlap; the
            # priming invocations are excluded from the measured set.
            for name in functions:
                for _ in range(2):
                    testbed.invoke(name, mode="vanilla", use_warm=False,
                                   keep_warm=True)
            keepalive_s = duration_s * 10.0
            invoke_scheme = "vanilla"
        else:
            if scheme != "vanilla":
                # One record per function before the replay (Fig. 8
                # methodology; the cost is the record_overhead
                # experiment).  Every layered scheme rides on REAP
                # artifacts.
                for name in functions:
                    testbed.invoke(name)
            keepalive_s = recommended_keepalive_s(mix)
            invoke_scheme = "vanilla" if scheme == "vanilla" else "reap"
        scaler = Autoscaler(testbed.orchestrator, AutoscalerParameters(
            keepalive_s=keepalive_s, scan_period_s=15.0))
        replayer = TraceReplayer(testbed.env,
                                 SchemeInvoker(scaler, invoke_scheme),
                                 trace)
        layer = testbed.orchestrator.policy_layer

        def drive():
            stats = yield from replayer.run()
            # Cancel prewarm timers, then let one engine tick deliver
            # the interrupts so an in-flight speculative restore unwinds
            # (releasing its locks) inside the run.
            layer.stop()
            yield testbed.env.timeout(MS)
            return stats

        stats = testbed.run(drive())
        scaler.stop()
        pooled = _pooled(stats)
        extras: dict[str, int] = {}
        if layer.residency is not None:
            extras["shared_hits"] = layer.residency.shared_hits
        if layer.prewarm is not None:
            extras["prewarms"] = layer.prewarm.prewarms
            extras["prewarm_skipped"] = layer.prewarm.skipped
        return {
            "p50_ms": pooled["p50_ms"],
            "p99_ms": pooled["p99_ms"],
            "cold_fraction": pooled["cold_fraction"],
            "extras": extras,
            "row": {
                "mix": mix,
                "scheme": scheme,
                "invocations": pooled["invocations"],
                "cold_fraction": f"{pooled['cold_fraction']:.0%}",
                "p50_ms": round(pooled["p50_ms"], 1),
                "p99_ms": round(pooled["p99_ms"], 1),
            },
        }

    def assemble(self, payloads, mixes=MIXES,
                 **_kwargs) -> ExperimentResult:
        result = self.result()
        by_key = {(payload["row"]["mix"], payload["row"]["scheme"]):
                  payload for payload in payloads}
        for mix in mixes:
            floor = by_key[mix, WARM_FLOOR]["p50_ms"]
            gaps: dict[str, float] = {}
            for scheme in SCHEMES:
                payload = by_key[mix, scheme]
                gap = payload["p50_ms"] - floor
                gaps[scheme] = gap
                result.metrics[f"{mix}_{scheme}_gap_p50_ms"] = gap
                result.metrics[f"{mix}_{scheme}_floor_ratio"] = (
                    payload["p50_ms"] / floor if floor else 0.0)
            # Ranking: ascending distance to the floor, name tie-break.
            ranked = sorted(SCHEMES,
                            key=lambda scheme: (gaps[scheme], scheme))
            for position, scheme in enumerate(ranked, start=1):
                row = by_key[mix, scheme]["row"]
                row["gap_p50_ms"] = round(gaps[scheme], 1)
                row["rank"] = position
            floor_row = by_key[mix, WARM_FLOOR]["row"]
            floor_row["gap_p50_ms"] = 0.0
            floor_row["rank"] = "-"
            result.metrics[f"{mix}_best_gap_p50_ms"] = gaps[ranked[0]]
            zoo_best = min(gap for scheme, gap in gaps.items()
                           if scheme not in ("vanilla", "reap"))
            result.metrics[f"{mix}_zoo_beats_reap"] = float(
                zoo_best < gaps["reap"])
        result.rows = collect(payloads, "row")
        result.notes.append(
            "gap_p50_ms is each scheme's median distance to the "
            "warm-floor reference cell of its mix (pre-populated pool, "
            "no eviction); rank orders the six schemes per mix")
        result.notes.append(
            "all contestant cells share the trace, the class-matched "
            "keep-alive window, and the memory_budget_mb param "
            "(enforced on prewarm's speculative instances); the "
            "warm-floor cell is the asymptote, not a contestant")
        result.notes.append(
            "overlap shortens every cold start by hiding the WS "
            "transfer behind resume; predict prefetches prior "
            "generations' demanded pages; shared elides fetches for "
            "chunks co-resident VMs hold; prewarm converts periodic "
            "cold starts into warm hits")
        return result
