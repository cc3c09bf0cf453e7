"""Run one perfbench workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the simulator is imported from ``src/``.
The run repeats passes of the workload (see :mod:`perfbench.workloads`)
for ``--seconds`` of host time -- an untimed warm-up pass, then timed
passes until the next one would overrun.  With ``--trace 0`` it reports
the end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` it
alternates untraced and traced passes and reports the per-layer metrics
(:mod:`perfbench.probes`).

Correctness: every pass's digest must equal the first pass's, and, for a
seed listed in ``perfbench/digests.json``, the pinned digest.  A mismatch
makes ``correct`` false and counts every arrival as failed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
starts with ``detail `` and carries digests and work counters for
``python -m perfbench``.  The exit status is 0 only for a correct run with
no failed invocation.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PINNED_DIGESTS = Path(__file__).resolve().parent / "digests.json"

#: Timed passes per run (per kind, when tracing), however short
#: ``--seconds`` is.
MIN_PASSES = 3

#: Switches that change what the simulator does or what it costs; a
#: measurement must not inherit them from the caller's environment.
_SCRUBBED = ("REPRO_PROFILE", "REPRO_ENGINE_SLOWPATH")
_SCRUBBED_PREFIX = "REPRO_SANITIZE"


def scrub_environment() -> None:
    """Drop the simulator's debug and profiling switches."""
    for key in list(os.environ):
        if key in _SCRUBBED or key.startswith(_SCRUBBED_PREFIX):
            del os.environ[key]


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_program() -> None:
    """Put ``src/`` and the repo root on the path; fail without them."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no simulator sources under "
                         f"{ROOT / 'src'}; run from a full checkout")
    for path in (str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(passes) -> dict:
    """The ``end_to_end`` metrics of ``BENCHMARK.json`` over the passes.

    The measured phase reports its fastest pass: interference from other
    programs on the host only ever adds time, so the fastest pass is the
    closest a run gets to the simulator's own cost.  Set-up reports its
    median.  ``perfbench/README.md`` gives the measured run-to-run spread.
    """
    best = min(passes, key=lambda p: p.wall_s)
    return {
        "wall_s": _metric(best.wall_s, "s"),
        "invocations_per_s": _metric(best.completed / best.wall_s, "1/s"),
        "setup_s": _metric(statistics.median(p.setup_s for p in passes),
                           "s"),
        "peak_rss_mb": _metric(_peak_rss_mb(), "MB"),
    }


def per_layer(untraced, traced, probe) -> dict:
    """The ``per_layer`` metrics of ``BENCHMARK.json`` from a traced run."""
    from perfbench.probes import ENTRY_POINTS, LAYERS

    traced_wall = min(p.wall_s for p in traced)
    calls = probe.phase_calls[0]
    work = traced[0].work
    samples = max(probe.samples, 1)
    metrics = {}
    for layer in LAYERS:
        self_share = probe.self_samples[layer] / samples
        metrics[f"{layer}.self_share"] = _metric(self_share, "fraction")
        metrics[f"{layer}.self_s"] = _metric(self_share * traced_wall, "s")
        metrics[f"{layer}.incl_share"] = _metric(
            probe.incl_samples[layer] / samples, "fraction")
        metrics[f"{layer}.calls"] = _metric(sum(
            calls[f"{cls}.{method}"]
            for owner, _module, cls, method in ENTRY_POINTS
            if owner == layer), "count")

    def self_s(layer):
        return metrics[f"{layer}.self_s"]["value"]

    def per_call_s(key):
        share = probe.per_call_samples[key] / samples
        return share * traced_wall / max(calls[key], 1)

    def ratio(part, whole):
        return part / whole if whole else 0.0

    invocations = calls["Orchestrator.invoke"]
    prefetched = work["prefetched_pages"]
    # Per-request host time exists on a closed loop only; it is taken
    # from the untraced passes, which the sampler does not slow down.
    cold_ms = [ms for p in untraced for ms in p.cold_start_host_ms]
    deciles = (statistics.quantiles(cold_ms, n=10) if len(cold_ms) > 1
               else [0.0] * 9)
    extra = {
        "sim.events": (work["events"], "count"),
        "sim.ns_per_event": (1e9 * ratio(self_s("sim"), work["events"]),
                             "ns"),
        "vm.execute_phase_calls": (calls["VCpu.execute_phase"], "count"),
        "vm.instantiate_calls": (calls["SnapshotStore.instantiate"],
                                 "count"),
        "memory.install_calls": (calls["GuestMemory.install"], "count"),
        "memory.install_ns_per_call": (
            1e9 * per_call_s("GuestMemory.install"), "ns"),
        "memory.uffd_faults": (calls["UserFaultFd.raise_fault"], "count"),
        "memory.copy_batch_calls": (calls["UserFaultFd.copy_batch"],
                                    "count"),
        "storage.hit_cost_calls": (calls["HostPageCache.hit_cost"],
                                   "count"),
        "storage.fault_in_calls": (calls["HostPageCache.fault_in"],
                                   "count"),
        "storage.page_cache_hit_ratio": (ratio(
            work["page_cache_hits"],
            work["page_cache_hits"] + work["page_cache_misses"]),
            "fraction"),
        "storage.device_read_bytes": (work["device_read_bytes"], "B"),
        "snapstore.ensure_calls": (
            calls["TieredSnapshotStore.ensure_for_restore"], "count"),
        "snapstore.promotions": (work["promotions"], "count"),
        "snapstore.evictions": (work["evictions"], "count"),
        "snapstore.local_hit_ratio": (ratio(
            work["local_hits"], work["local_hits"] + work["remote_misses"]),
            "fraction"),
        "core.policy_for_calls": (calls["ReapManager.policy_for"], "count"),
        "core.demand_faults": (work["demand_faults"], "count"),
        "core.prefetched_pages": (prefetched, "count"),
        "core.prefetch_useful_ratio": (ratio(
            prefetched - work["unused_prefetched"], prefetched),
            "fraction"),
        "orchestrator.invocations": (invocations, "count"),
        "orchestrator.cold_starts": (work["cold_starts"], "count"),
        "orchestrator.warm_ratio": (ratio(
            work["invocations"] - work["cold_starts"], work["invocations"]),
            "fraction"),
        "orchestrator.host_us_per_invocation": (
            1e6 * ratio(self_s("orchestrator"), invocations), "us"),
        "functions.trace_for_calls": (calls["FunctionBehavior.trace_for"],
                                      "count"),
        "functions.trace_for_us_per_call": (
            1e6 * per_call_s("FunctionBehavior.trace_for"), "us"),
        "cold_start_host_ms_p50": (deciles[4], "ms"),
        "cold_start_host_ms_p90": (deciles[8], "ms"),
        "trace_overhead": (traced_wall / min(p.wall_s for p in untraced),
                           "ratio"),
        "unattributed_share": (1.0 - sum(
            metrics[f"{layer}.self_share"]["value"] for layer in LAYERS),
            "fraction"),
    }
    for name, (value, unit) in extra.items():
        metrics[name] = _metric(value, unit)
    return metrics


def main(argv=None, scale: float = 1.0) -> int:
    """Entry point; ``scale`` shrinks every workload (self-tests only)."""
    args = _parse(argv)
    scrub_environment()
    _import_program()
    from perfbench.probes import LayerProbe
    from perfbench.workloads import WORKLOADS, run_pass

    if args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"known: {', '.join(WORKLOADS)}")
    probe = LayerProbe() if args.trace else None
    started = time.perf_counter()
    # The first pass grows the heap and fills lazy caches: its output is
    # checked like any other, but its times are not reported.
    warmup = run_pass(args.workload, args.seed, scale)
    untraced, traced = [], []
    longest = 0.0
    while True:
        pass_started = time.perf_counter()
        tracing = probe is not None and len(traced) < len(untraced)
        if tracing:
            with probe:
                result = run_pass(args.workload, args.seed, scale,
                                  probe=probe)
            traced.append(result)
        else:
            result = run_pass(args.workload, args.seed, scale)
            untraced.append(result)
        longest = max(longest, time.perf_counter() - pass_started)
        print(f"pass {len(untraced) + len(traced)}"
              f"{' (traced)' if tracing else ''}: "
              f"setup {result.setup_s:.3f}s wall {result.wall_s:.3f}s "
              f"digest {result.digest}", file=sys.stderr)
        enough = (len(untraced) >= MIN_PASSES
                  and (probe is None or len(traced) >= MIN_PASSES))
        # Stop before a pass would overrun the time budget.
        if enough and (time.perf_counter() - started + longest
                       > args.seconds):
            break

    passes = [warmup] + untraced + traced
    digests = sorted({p.digest for p in passes})
    pinned = None
    if scale == 1.0:
        pins = json.loads(PINNED_DIGESTS.read_text())
        pinned = pins.get(args.workload, {}).get(str(args.seed))
    # Call counts are as deterministic as the digest.
    calls_agree = probe is None or all(
        calls == probe.phase_calls[0] for calls in probe.phase_calls)
    correct = (len(digests) == 1 and pinned in (None, digests[0])
               and calls_agree)
    attempted = sum(p.arrivals for p in passes)
    failed = sum(p.failed for p in passes) if correct else attempted
    metrics = (per_layer(untraced, traced, probe) if probe is not None
               else end_to_end(untraced))
    print("detail " + json.dumps({
        "workload": args.workload, "seed": args.seed, "passes": len(passes),
        "digests": digests, "pinned_digest": pinned,
        "work": passes[0].work}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
