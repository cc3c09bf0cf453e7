"""perfbench command line: run every workload, trace it, compare results.

    python -m perfbench run [--seed 42] [--repeat 3] [--out FILE]
    python -m perfbench trace [--seed 42] [--out FILE]
    python -m perfbench compare A.json B.json

Run from the repository root.  Each workload run is its own subprocess of
``perfbench/run.py`` (single-threaded, one at a time); repeats go
round-robin across the workloads, so slow drift of the machine spreads
over all of them instead of landing on one.  ``run`` reports the
end-to-end metrics of ``BENCHMARK.json`` as median and quartiles over the
repeats; ``trace`` runs each workload once with ``--trace 1`` and prints
the per-layer table.  Both write a JSON result file (default under
``.perfbench/``) that ``compare`` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

from perfbench.compare import compare, format_rows, summarize

ROOT = Path(__file__).resolve().parent.parent
RUN_PY = Path(__file__).resolve().parent / "run.py"
BENCHMARK = ROOT / "BENCHMARK.json"

#: Generous per-run limit: a run is --seconds plus at most one pass.
RUN_TIMEOUT_S = 600


def _benchmark() -> dict:
    return json.loads(BENCHMARK.read_text())


def _git_rev() -> str:
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10, check=False)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _environment() -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "git_rev": _git_rev(), "loadavg_start": list(os.getloadavg())}


def _run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One ``run.py`` subprocess; returns its result and detail lines."""
    command = [sys.executable, str(RUN_PY), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S, check=False)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2 or not lines[-2].startswith("detail "):
        raise SystemExit(f"perfbench: {workload} produced no result "
                         f"(exit {proc.returncode}):\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["detail"] = json.loads(lines[-2][len("detail "):])
    return result


def _collect(kind: str, workloads: list[str], seed: int, seconds: int,
             repeat: int) -> dict:
    report = {"kind": kind, "seed": seed, "seconds": seconds,
              "repeat": repeat, "environment": _environment(),
              "workloads": {}}
    for index in range(repeat):
        for workload in workloads:
            print(f"[{index + 1}/{repeat}] {workload} ...", file=sys.stderr,
                  flush=True)
            result = _run_one(workload, seed, seconds,
                              1 if kind == "trace" else 0)
            entry = report["workloads"].setdefault(workload, {
                "runs": [], "units": {}, "correct": True, "attempted": 0,
                "failed": 0, "digests": [], "work": result["detail"]["work"],
                "pinned_digest": result["detail"]["pinned_digest"]})
            entry["runs"].append({name: metric["value"] for name, metric
                                  in result["metrics"].items()})
            entry["units"] = {name: metric["unit"] for name, metric
                              in result["metrics"].items()}
            entry["attempted"] += result["attempted"]
            entry["failed"] += result["failed"]
            entry["digests"] = sorted(set(entry["digests"])
                                      | set(result["detail"]["digests"]))
            entry["correct"] = (entry["correct"] and result["correct"]
                                and len(entry["digests"]) == 1
                                and entry["work"]
                                == result["detail"]["work"])
    report["environment"]["loadavg_end"] = list(os.getloadavg())
    return report


def _print_run(report: dict) -> None:
    print(f"{'workload':<18} {'metric':<18} {'median':>12} "
          f"{'q1':>12} {'q3':>12}  unit")
    for workload, entry in report["workloads"].items():
        for name, unit in entry["units"].items():
            summary = summarize([run[name] for run in entry["runs"]])
            print(f"{workload:<18} {name:<18} {summary['median']:>12.5g} "
                  f"{summary['q1']:>12.5g} {summary['q3']:>12.5g}  {unit}")


def _print_trace(report: dict) -> None:
    workloads = list(report["workloads"])
    first = report["workloads"][workloads[0]]
    print(f"{'metric':<38}" + "".join(f"{name:>19}" for name in workloads)
          + "  unit")
    for name, unit in first["units"].items():
        values = [report["workloads"][workload]["runs"][0][name]
                  for workload in workloads]
        print(f"{name:<38}" + "".join(
            f"{value:>19d}" if isinstance(value, int) else f"{value:>19.4g}"
            for value in values) + f"  {unit}")


def _print_status(report: dict) -> bool:
    ok = True
    for workload, entry in report["workloads"].items():
        pinned = entry["pinned_digest"]
        state = "ok" if entry["correct"] and not entry["failed"] else "FAILED"
        ok = ok and state == "ok"
        print(f"{workload}: {state}, digest {', '.join(entry['digests'])}"
              f"{' (pinned)' if pinned else ''}, "
              f"{entry['failed']}/{entry['attempted']} failed")
    return ok


def _write(report: dict, out: str | None) -> None:
    path = Path(out) if out else ROOT / ".perfbench" / (
        f"{report['kind']}-seed{report['seed']}.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {path}", file=sys.stderr)


def main(argv=None) -> int:
    benchmark = _benchmark()
    names = [workload["name"] for workload in benchmark["workloads"]]
    parser = argparse.ArgumentParser(
        prog="python -m perfbench", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    for kind in ("run", "trace"):
        sub = commands.add_parser(kind)
        sub.add_argument("--seed", type=int, default=42)
        sub.add_argument("--out", help="result file")
        if kind == "run":
            sub.add_argument("--repeat", type=int, default=3)
    sub = commands.add_parser("compare")
    sub.add_argument("a")
    sub.add_argument("b")
    args = parser.parse_args(argv)

    if args.command == "compare":
        old, new = (json.loads(Path(path).read_text())
                    for path in (args.a, args.b))
        rows, drift = compare(old, new, benchmark)
        print(format_rows(rows))
        for finding in drift:
            print(f"DRIFT {finding}")
        regressions = [row for row in rows if row["verdict"] == "regression"]
        return 1 if regressions or drift else 0

    repeat = args.repeat if args.command == "run" else 1
    report = _collect(args.command, names, args.seed,
                      benchmark["run_seconds"], repeat)
    if args.command == "run":
        _print_run(report)
    else:
        _print_trace(report)
    ok = _print_status(report)
    _write(report, args.out)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
