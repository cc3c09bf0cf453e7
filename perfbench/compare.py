"""Compare two ``python -m perfbench run`` result files.

For every workload and end-to-end metric: both medians and quartiles, the
ratio B/A, the metric's bound from ``BENCHMARK.json`` and one verdict:

* ``within bound`` -- B is no worse than A by more than the bound;
* ``regression`` -- B is worse than A by more than the bound;
* ``unresolved`` -- the run-to-run spread (quartile distance over median)
  of A or B is wider than the bound, so the difference cannot be told
  from noise, unless every run of B reads better than every run of A.

Digests and work counters are deterministic: any difference between the
two files is flagged as drift, because then the two sides did not do the
same work and their timings do not compare.
"""

from __future__ import annotations

import statistics
from typing import Any


def summarize(values: list[float]) -> dict[str, float]:
    """Median and quartiles (equal to the median for a single value)."""
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median, "q1": median, "q3": median}
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def _spread(summary: dict[str, float]) -> float:
    return (summary["q3"] - summary["q1"]) / summary["median"]


def verdict(old: list[float], new: list[float], better: str,
            bound: float) -> str:
    """The verdict for the runs of one metric on one workload."""
    sign = 1.0 if better == "lower" else -1.0
    old_summary, new_summary = summarize(old), summarize(new)
    worse_by = sign * (new_summary["median"] - old_summary["median"]) \
        / old_summary["median"]
    if max(_spread(old_summary), _spread(new_summary)) > bound:
        if all(sign * n < sign * o for n in new for o in old):
            return "within bound"
        return "unresolved"
    return "regression" if worse_by > bound else "within bound"


def compare(old: dict[str, Any], new: dict[str, Any],
            benchmark: dict[str, Any]) -> tuple[list[dict], list[str]]:
    """Rows per workload x end-to-end metric, plus drift findings."""
    rows, drift = [], []
    for name in dict.fromkeys([*old["workloads"], *new["workloads"]]):
        a, b = old["workloads"].get(name), new["workloads"].get(name)
        if a is None or b is None:
            drift.append(f"{name}: only in {'B' if a is None else 'A'}")
            continue
        if a["digests"] != b["digests"]:
            drift.append(f"{name}: digests differ: {a['digests']} vs "
                         f"{b['digests']}")
        for key in sorted(set(a["work"]) | set(b["work"])):
            if a["work"].get(key) != b["work"].get(key):
                drift.append(f"{name}: work counter {key}: "
                             f"{a['work'].get(key)} vs {b['work'].get(key)}")
        for metric in benchmark["end_to_end"]:
            old_values = [run[metric["name"]] for run in a["runs"]]
            new_values = [run[metric["name"]] for run in b["runs"]]
            old_summary, new_summary = (summarize(old_values),
                                        summarize(new_values))
            rows.append({
                "workload": name, "metric": metric["name"],
                "a": old_summary, "b": new_summary,
                "ratio": new_summary["median"] / old_summary["median"],
                "bound": metric["bound"],
                "verdict": verdict(old_values, new_values, metric["better"],
                                   metric["bound"]),
            })
    return rows, drift


def format_rows(rows: list[dict]) -> str:
    """The comparison as a text table."""
    def cell(summary):
        return (f"{summary['median']:.4g} "
                f"[{summary['q1']:.4g}, {summary['q3']:.4g}]")

    header = (f"{'workload':<18} {'metric':<18} {'A median [q1, q3]':>30} "
              f"{'B median [q1, q3]':>30} {'B/A':>6} {'bound':>6}  verdict")
    lines = [header]
    for row in rows:
        lines.append(
            f"{row['workload']:<18} {row['metric']:<18} {cell(row['a']):>30} "
            f"{cell(row['b']):>30} {row['ratio']:>6.3f} "
            f"{row['bound']:>6.2f}  {row['verdict']}")
    return "\n".join(lines)
