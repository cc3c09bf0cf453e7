"""The trace-replay cell method shared by every trace-driven experiment.

``trace_replay``, ``trace_scale``, ``snapstore_tiering``,
``slo_scorecard`` and ``floor_study`` measure cold starts the way the
paper's evaluation and vHive's client do (§3.3, §6.1), and this module
is the one place that method lives (docs/experiments.md, "Trace-replay
cells"):

* each cell re-derives its trace from its params (:func:`cell_trace`);
* the autoscaler's keep-alive window follows the traffic class, with a
  15 s reaper scan (:func:`autoscaler_params`);
* every function is deployed, and under REAP each worker invokes each
  function once before the replay, so the one-time record is excluded
  from the measured population (:func:`deploy`; the Fig. 8 method, the
  record cost is the ``record_overhead`` experiment, §6.4);
* the trace is replayed as is (:func:`replay_trace`); a cell whose
  trace has no arrivals pools no samples, so it is a row of 0
  invocations and 0.0 fractions and tails, and a ratio over such a
  row is 0.0 (:func:`ratio`);
* latencies pool across functions into nearest-rank tails
  (:func:`pooled`).
"""

from __future__ import annotations

from typing import Any, Generator, Iterable, Mapping

from repro.analysis.aggregate import percentile
from repro.functions import get_profile
from repro.functions.catalog import recommended_keepalive_s
from repro.orchestrator.autoscaler import AutoscalerParameters
from repro.orchestrator.cluster import Cluster
from repro.orchestrator.loadgen import LoadStats, TraceReplayer
from repro.orchestrator.orchestrator import Orchestrator
from repro.orchestrator.trace import InvocationTrace, TraceSpec, synthesize
from repro.sim.engine import Environment, Event

#: Restore policies under comparison: lazy paging vs REAP prefetch.
SCHEMES = ("vanilla", "reap")


def cell_trace(params: Mapping[str, Any], rate_class: str,
               seed: int) -> InvocationTrace:
    """The cell's trace: its functions and duration at ``rate_class``."""
    return synthesize(TraceSpec(
        functions=tuple(params["functions"]), rate_class=rate_class,
        duration_s=params["duration_s"]), seed=seed)


def autoscaler_params(rate_class: str) -> AutoscalerParameters:
    """Keep-alive matched to the traffic class, scanned every 15 s."""
    return AutoscalerParameters(
        keepalive_s=recommended_keepalive_s(rate_class), scan_period_s=15.0)


def deploy(front: Orchestrator | Cluster, functions: Iterable[str],
           record: bool) -> None:
    """Deploy every function through ``front``; under ``record``, each
    of its orchestrators then invokes each function once, outside the
    measured replay."""
    env = front.env
    for name in functions:
        env.run(until=env.process(front.deploy(get_profile(name))))
    if record:
        orchestrators = ([worker.orchestrator for worker in front.workers]
                         if isinstance(front, Cluster) else [front])
        for orchestrator in orchestrators:
            for name in functions:
                env.run(until=env.process(orchestrator.invoke(name)))


def replay_trace(env: Environment, invoker, trace: InvocationTrace,
                 ) -> Generator[Event, Any, dict[str, LoadStats]]:
    """Replay ``trace`` through ``invoker``; per-function stats.

    A trace with no arrivals (a duration too short for its rate class)
    replays nothing and returns no stats, which :func:`pooled` turns
    into the all-zero row.
    """
    if not len(trace):
        return {}
    return (yield from TraceReplayer(env, invoker, trace).run())


def pooled(stats: Iterable[LoadStats]) -> dict[str, Any]:
    """Invocations, cold fraction and nearest-rank p50/p99/p99.9 over
    every sample of ``stats``; all zero when there are none."""
    samples = [sample for function_stats in stats
               for sample in function_stats.samples]
    if not samples:
        return {"invocations": 0, "cold_fraction": 0.0, "p50_ms": 0.0,
                "p99_ms": 0.0, "p999_ms": 0.0}
    latencies = sorted(sample.latency_ms for sample in samples)
    cold = sum(1 for sample in samples if sample.mode != "warm")
    return {
        "invocations": len(samples),
        "cold_fraction": cold / len(samples),
        "p50_ms": percentile(latencies, 0.50),
        "p99_ms": percentile(latencies, 0.99),
        "p999_ms": percentile(latencies, 0.999),
    }


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator`` between two pooled rows; 0.0 when the
    denominator's row pooled no samples."""
    return numerator / denominator if denominator else 0.0
