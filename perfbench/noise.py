"""Run-to-run spread of the end-to-end metrics, which the bounds rest on.

    python3 perfbench/noise.py collect OUT.jsonl
    python3 perfbench/noise.py report A.jsonl [B.jsonl]

Run from the repository root.  ``collect`` runs ``perfbench/run.py
--trace 0`` for every workload and seeds 1 to 10, round-robin, each for
``run_seconds`` of ``BENCHMARK.json``, and appends one line per run: the
workload, the seed, the reported metrics, and the set-up and measured
seconds of every timed pass.

``report`` prints, per workload and end-to-end metric, the median of the
runs and their spread: the distance between the first and third quartile
(``statistics.quantiles``, n=4) as a share of the median.  A bound must be
at least three times the widest spread.  For the measured phase it also
prints the spread the median pass of each run would have had.  Given a
second file, it prints by how much the second median is worse than the
first, which must stay within the bound.
"""

from __future__ import annotations

import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)
_PASS = re.compile(r"^pass \d+: setup ([0-9.]+)s wall ([0-9.]+)s", re.M)


def _benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def collect(out: Path) -> None:
    benchmark = _benchmark()
    with out.open("a") as sink:
        for seed in SEEDS:
            for workload in benchmark["workloads"]:
                name = workload["name"]
                proc = subprocess.run(
                    [sys.executable, "perfbench/run.py", "--workload", name,
                     "--seed", str(seed),
                     "--seconds", str(benchmark["run_seconds"]),
                     "--trace", "0"],
                    cwd=ROOT, capture_output=True, text=True, timeout=180,
                    check=False)
                if proc.returncode != 0:
                    raise SystemExit(f"{name} seed {seed} failed "
                                     f"(exit {proc.returncode}):\n"
                                     f"{proc.stderr}")
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                passes = [[float(setup), float(wall)] for setup, wall
                          in _PASS.findall(proc.stderr)]
                sink.write(json.dumps({
                    "workload": name, "seed": seed,
                    "metrics": {key: metric["value"] for key, metric
                                in result["metrics"].items()},
                    "passes": passes}) + "\n")
                sink.flush()
                print(f"{name} seed {seed}: done", file=sys.stderr)


def _spread(values: list[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def _runs(path: Path) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {}
    for line in path.read_text().splitlines():
        run = json.loads(line)
        runs.setdefault(run["workload"], []).append(run)
    return runs


def report(paths: list[Path]) -> None:
    benchmark = _benchmark()
    sets = [_runs(path) for path in paths]
    print(f"{'workload':<18} {'metric':<18} {'runs':>4} "
          + "".join(f"{'median':>11} {'spread':>7} " for _ in sets)
          + f"{'bound':>6}" + ("  2nd worse by" if len(sets) > 1 else ""))
    for workload in (w["name"] for w in benchmark["workloads"]):
        for metric in benchmark["end_to_end"]:
            name, sign = metric["name"], (
                1.0 if metric["better"] == "lower" else -1.0)
            medians, cells = [], ""
            for runs in sets:
                values = [run["metrics"][name] for run in runs[workload]]
                medians.append(statistics.median(values))
                cells += f"{medians[-1]:>11.5g} {_spread(values):>7.2%} "
            line = (f"{workload:<18} {name:<18} "
                    f"{len(sets[0][workload]):>4} {cells}"
                    f"{metric['bound']:>6.2f}")
            if len(medians) > 1:
                worse = sign * (medians[1] - medians[0]) / medians[0]
                line += f"  {worse:>+12.2%}"
            print(line)
        for index, runs in enumerate(sets):
            median_pass = [statistics.median(wall for _setup, wall
                                             in run["passes"])
                           for run in runs[workload]]
            counts = [len(run["passes"]) for run in runs[workload]]
            print(f"{'':<18} set {index + 1}: {min(counts)}-{max(counts)} "
                  f"timed passes per run; median-pass wall spread "
                  f"{_spread(median_pass):.2%}")


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "collect":
        collect(Path(argv[1]))
    elif 2 <= len(argv) <= 3 and argv[0] == "report":
        report([Path(path) for path in argv[1:]])
    else:
        raise SystemExit(__doc__)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
