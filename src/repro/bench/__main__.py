"""CLI for the experiment harness: ``python -m repro.bench <command>``.

Subcommands::

    list                      show every experiment id (and its title)
    run EXPERIMENT [...]      run one or more experiments by id/alias
    all                       run every experiment
    metrics EXPERIMENT [...]  run experiments with the metrics registry
                              installed and render the per-cell registry
                              (see docs/observability.md)
    trace generate FILE       synthesize an invocation trace to a file
    trace inspect FILE        summarize a trace file's shape
    lint [ARGS...]            run the determinism linter (alias of
                              ``python -m repro.lint``; see
                              docs/static-analysis.md)
    clean-cache               drop the on-disk result cache

``run``/``all`` accept ``--trace-out FILE`` to record sim-time spans
for every cell and export them as Chrome ``trace_event`` JSON
(Perfetto-loadable; forces serial, uncached execution so every span is
actually recorded in-process).

``run`` and ``all`` share the execution flags: ``--jobs N`` fans cells
out over N worker processes, ``--seed`` picks the experiment seed,
``--force`` ignores (and refreshes) cached cell results, ``--no-cache``
disables the cache entirely, ``--cache-dir`` relocates it,
``--shard cells|experiments`` picks the dispatch granularity, and
``--format table|json|csv`` selects the output encoding.

``trace generate`` is deterministic: the same ``(--rate-class,
--functions, --duration, --seed)`` always writes a byte-identical file
(see :mod:`repro.orchestrator.trace`).  The ``trace_*`` experiments run
through ``run`` like any other id.

See also :mod:`repro.bench.runner` and :mod:`repro.bench.cache`.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.analysis.report import (
    format_table,
    render_csv,
    render_json,
    rows_to_csv,
)
from repro.bench.cache import ResultCache
from repro.bench.experiments import ALIASES, EXPERIMENTS, resolve
from repro.bench.runner import Runner
from repro.obs import metrics as obs_metrics
from repro.obs import tracer as obs_tracer

def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", "-j", type=int, default=1, metavar="N",
                        help="worker processes for cell execution "
                             "(default: 1, serial)")
    parser.add_argument("--seed", type=int, default=42,
                        help="experiment seed (default: 42)")
    parser.add_argument("--force", action="store_true",
                        help="re-simulate even when cached results exist")
    parser.add_argument("--no-cache", action="store_true",
                        help="do not read or write the result cache")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="result cache location (default: .repro-cache, "
                             "or $REPRO_CACHE_DIR)")
    parser.add_argument("--shard", choices=("cells", "experiments"),
                        default="cells",
                        help="dispatch granularity for --jobs > 1 "
                             "(default: cells)")
    parser.add_argument("--format", choices=("table", "json", "csv"),
                        default="table", dest="fmt",
                        help="output encoding (default: table)")
    parser.add_argument("--trace-out", default=None, metavar="FILE",
                        dest="trace_out",
                        help="record sim-time spans and write a Chrome "
                             "trace_event JSON file (forces --jobs 1 and "
                             "--no-cache so spans are recorded in-process)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's tables and figures.")
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="list experiment ids")

    run = commands.add_parser("run", help="run selected experiments")
    run.add_argument("experiments", nargs="+", metavar="EXPERIMENT",
                     help="experiment id or alias (see 'list')")
    _add_run_flags(run)

    everything = commands.add_parser("all", help="run every experiment")
    _add_run_flags(everything)

    metrics = commands.add_parser(
        "metrics", help="run experiments with the metrics registry on "
                        "and render the per-cell metric values")
    metrics.add_argument("experiments", nargs="+", metavar="EXPERIMENT",
                         help="experiment id or alias (see 'list')")
    metrics.add_argument("--seed", type=int, default=42,
                         help="experiment seed (default: 42)")
    metrics.add_argument("--format", choices=("table", "json", "csv"),
                         default="table", dest="fmt",
                         help="output encoding (default: table)")

    trace = commands.add_parser(
        "trace", help="generate / inspect invocation trace files")
    actions = trace.add_subparsers(dest="action", required=True)
    generate = actions.add_parser(
        "generate", help="synthesize a deterministic trace to FILE")
    generate.add_argument("output", metavar="FILE",
                          help="trace file to write (JSON lines)")
    generate.add_argument("--rate-class", default="azure",
                          dest="rate_class",
                          help="sporadic | periodic | bursty | azure "
                               "(default: azure, the mixed population)")
    generate.add_argument("--functions", default="helloworld,pyaes,"
                                                 "json_serdes",
                          metavar="A,B,...",
                          help="comma-separated catalog function names")
    generate.add_argument("--duration", type=float, default=600.0,
                          metavar="SECONDS",
                          help="trace length in seconds (default: 600)")
    generate.add_argument("--seed", type=int, default=42,
                          help="generator seed (default: 42)")
    inspect = actions.add_parser(
        "inspect", help="summarize a trace file's shape")
    inspect.add_argument("trace_file", metavar="FILE",
                         help="trace file to read")
    inspect.add_argument("--format", choices=("table", "json", "csv"),
                         default="table", dest="fmt",
                         help="output encoding (default: table); csv "
                              "emits the per-function rows for external "
                              "tooling")

    # "lint" is dispatched in main() before parsing (its flags belong to
    # repro.lint's own parser); registered here so it shows in --help.
    commands.add_parser(
        "lint", help="run the determinism linter (python -m repro.lint)")

    clean = commands.add_parser("clean-cache",
                                help="delete cached cell results")
    clean.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="result cache location (default: .repro-cache, "
                            "or $REPRO_CACHE_DIR)")
    return parser


def _cmd_list() -> int:
    width = max(len(name) for name in EXPERIMENTS)
    for name, experiment in EXPERIMENTS.items():
        print(f"{name.ljust(width)}  {experiment.title}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.orchestrator.trace import InvocationTrace, TraceSpec, synthesize

    if args.action == "generate":
        from repro.functions import get_profile

        names = tuple(name.strip() for name in args.functions.split(",")
                      if name.strip())
        try:
            for name in names:
                get_profile(name)
            spec = TraceSpec(functions=names, rate_class=args.rate_class,
                             duration_s=args.duration)
        except (KeyError, ValueError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        trace = synthesize(spec, seed=args.seed)
        try:
            trace.save(args.output)
        except OSError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        print(f"wrote {len(trace)} event(s) over "
              f"{trace.duration_s:.1f}s for {len(names)} function(s) "
              f"to {args.output}")
        return 0

    try:
        trace = InvocationTrace.load(args.trace_file)
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    summary = trace.summary()
    if args.fmt == "json":
        print(json.dumps(summary, indent=2))
    elif args.fmt == "csv":
        print(rows_to_csv(summary["per_function"]), end="")
    else:
        print(f"{summary['events']} event(s), {summary['functions']} "
              f"function(s), {summary['duration_s']}s")
        if summary["meta"]:
            print(f"meta: {json.dumps(summary['meta'])}")
        if summary["per_function"]:
            print()
            print(format_table(summary["per_function"]))
    return 0


def _cmd_clean_cache(args: argparse.Namespace) -> int:
    removed = ResultCache(args.cache_dir).clear()
    print(f"removed {removed} cached cell result(s)")
    return 0


def _check_names(names: list[str]) -> int:
    """Validate experiment ids/aliases; 0 on success, 2 with a message."""
    try:
        for name in names:
            resolve(name)
    except KeyError:
        known = "\n  ".join(sorted(EXPERIMENTS))
        aliases = ", ".join(sorted(ALIASES))
        print(f"error: unknown experiment {name!r}\n"
              f"valid ids:\n  {known}\n"
              f"aliases: {aliases}", file=sys.stderr)
        return 2
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    status = _check_names(args.experiments)
    if status:
        return status
    registry = obs_metrics.install()
    try:
        # Serial and uncached: the registry lives in this process, and a
        # cache hit would replay a payload without ever running the cell
        # (no metrics to snapshot).
        Runner(jobs=1, cache=None).run(args.experiments, seed=args.seed)
        registry.finish()
    finally:
        obs_metrics.uninstall()
    rows = registry.rows()
    if args.fmt == "json":
        print(json.dumps({"cells": registry.cells}, indent=2,
                         sort_keys=True))
    elif args.fmt == "csv":
        print(rows_to_csv(rows, lead_columns=("cell", "metric", "value")),
              end="")
    else:
        if rows:
            print(format_table(rows))
        else:
            print("(no metrics recorded)")
    return 0


def _cmd_run(args: argparse.Namespace, names: list[str]) -> int:
    status = _check_names(names)
    if status:
        return status
    if args.trace_out is not None:
        # Spans are recorded by in-process instrumentation: worker
        # processes and cache replays would both yield silent gaps.
        if args.jobs != 1:
            print("note: --trace-out forces --jobs 1", file=sys.stderr)
        args.jobs = 1
        args.no_cache = True
        tracer = obs_tracer.install()
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    runner = Runner(jobs=args.jobs, cache=cache, force=args.force,
                    shard=args.shard)
    try:
        outcome = runner.run(names, seed=args.seed)
    finally:
        if args.trace_out is not None:
            obs_tracer.uninstall()
    if args.trace_out is not None:
        try:
            count = tracer.write(args.trace_out)
        except OSError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        print(f"wrote {count} trace event(s) to {args.trace_out} "
              f"(load at https://ui.perfetto.dev)", file=sys.stderr)
    if args.fmt == "json":
        print(render_json(outcome.results, stats=outcome.stats.as_dict()))
    elif args.fmt == "csv":
        print(render_csv(outcome.results), end="")
    else:
        for result in outcome.results:
            print(result.render())
            print()
    print(outcome.stats.summary(), file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["lint"]:
        # Forward everything verbatim: the linter owns its own flags
        # (argparse REMAINDER cannot capture a leading --flag).
        from repro.lint.cli import main as lint_main
        return lint_main(argv[1:])
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list()
        if args.command == "trace":
            return _cmd_trace(args)
        if args.command == "clean-cache":
            return _cmd_clean_cache(args)
        if args.command == "metrics":
            return _cmd_metrics(args)
        names = list(EXPERIMENTS) if args.command == "all" \
            else args.experiments
        return _cmd_run(args, names)
    except BrokenPipeError:
        # Output piped into a pager/head that exited early; not an error.
        return 0


if __name__ == "__main__":
    sys.exit(main())
