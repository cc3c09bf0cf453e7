"""Tests for the ``python -m repro.bench`` command-line interface."""

import json

import pytest

from repro.bench.__main__ import main
from repro.bench.experiments import EXPERIMENTS


def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig8" in out
    assert "table1" in out
    assert len(out.strip().splitlines()) == len(EXPERIMENTS)


def test_cli_runs_single_experiment(capsys, tmp_path):
    assert main(["run", "table1", "--cache-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "helloworld" in out
    assert "Table 1" in out


def test_cli_seed_flag(capsys, tmp_path):
    assert main(["run", "fig3", "--seed", "7",
                 "--cache-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "mean_run_length" in out


def test_cli_run_subcommand_with_alias(capsys, tmp_path):
    assert main(["run", "fig3_contiguity", "--no-cache"]) == 0
    assert "fig3" in capsys.readouterr().out


def test_cli_run_multiple_experiments(capsys):
    assert main(["run", "fig3", "fio", "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert "fig3" in out
    assert "fio" in out


def test_cli_unknown_experiment_is_a_helpful_error(capsys):
    assert main(["run", "fig99", "--no-cache"]) == 2
    err = capsys.readouterr().err
    assert "unknown experiment 'fig99'" in err
    assert "fig8" in err  # the valid ids are listed
    assert "fig8_reap_speedup" in err  # and the aliases


def test_cli_jobs_flag(capsys, tmp_path):
    assert main(["run", "fig3", "--jobs", "2",
                 "--cache-dir", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    assert "mean_run_length" in captured.out
    assert "worker(s)" in captured.err


def test_cli_stats_go_to_stderr_not_stdout(capsys):
    assert main(["run", "fio", "--no-cache"]) == 0
    captured = capsys.readouterr()
    assert "from cache" in captured.err
    assert "from cache" not in captured.out


def test_cli_format_json(capsys):
    assert main(["run", "fio", "--format", "json", "--no-cache"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["experiments"][0]["experiment"] == "fio"
    assert blob["stats"]["cells_total"] == 3


def test_cli_format_csv(capsys):
    assert main(["run", "fig3", "--format", "csv", "--no-cache"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("experiment,function,mean_run_length")
    assert len(lines) == 11  # header + ten functions


def test_cli_force_flag(capsys, tmp_path):
    assert main(["run", "fio", "--cache-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    assert main(["run", "fio", "--force", "--cache-dir", str(tmp_path)]) == 0
    assert "0/3 from cache" in capsys.readouterr().err


def test_cli_cached_second_run(capsys, tmp_path):
    assert main(["run", "fio", "--cache-dir", str(tmp_path)]) == 0
    first = capsys.readouterr()
    assert main(["run", "fio", "--cache-dir", str(tmp_path)]) == 0
    second = capsys.readouterr()
    assert second.out == first.out
    assert "3/3 from cache" in second.err


def test_cli_clean_cache(capsys, tmp_path):
    assert main(["run", "fio", "--cache-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    assert main(["clean-cache", "--cache-dir", str(tmp_path)]) == 0
    assert "removed 3" in capsys.readouterr().out
    assert main(["clean-cache", "--cache-dir", str(tmp_path)]) == 0
    assert "removed 0" in capsys.readouterr().out


def test_cli_requires_a_command():
    with pytest.raises(SystemExit):
        main([])


def test_cli_experiment_without_subcommand_is_a_usage_error(capsys):
    # An experiment id is not a subcommand: argparse rejects it (exit 2).
    with pytest.raises(SystemExit) as excinfo:
        main(["fig3"])
    assert excinfo.value.code == 2
    assert "invalid choice: 'fig3'" in capsys.readouterr().err


# -- trace subcommand ------------------------------------------------------


def test_cli_trace_generate_is_deterministic(capsys, tmp_path):
    first = tmp_path / "a.jsonl"
    second = tmp_path / "b.jsonl"
    argv = ["trace", "generate", "--rate-class", "bursty",
            "--functions", "helloworld,pyaes", "--duration", "300",
            "--seed", "7"]
    assert main(argv[:2] + [str(first)] + argv[2:]) == 0
    assert main(argv[:2] + [str(second)] + argv[2:]) == 0
    out = capsys.readouterr().out
    assert "wrote" in out
    assert first.read_bytes() == second.read_bytes()


def test_cli_trace_generate_then_inspect(capsys, tmp_path):
    path = tmp_path / "trace.jsonl"
    assert main(["trace", "generate", str(path), "--rate-class", "azure",
                 "--duration", "240", "--seed", "3"]) == 0
    capsys.readouterr()
    assert main(["trace", "inspect", str(path)]) == 0
    out = capsys.readouterr().out
    assert "function(s)" in out
    assert "interarrival_cv" in out
    assert main(["trace", "inspect", str(path), "--format", "json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["meta"]["rate_class"] == "azure"
    assert blob["events"] == sum(row["events"]
                                 for row in blob["per_function"])


def test_cli_trace_inspect_csv(capsys, tmp_path):
    import csv
    import io

    path = tmp_path / "trace.jsonl"
    assert main(["trace", "generate", str(path), "--rate-class", "azure",
                 "--duration", "240", "--seed", "3"]) == 0
    capsys.readouterr()
    assert main(["trace", "inspect", str(path), "--format", "json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert main(["trace", "inspect", str(path), "--format", "csv"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    # The CSV export carries exactly the per-function table.
    assert [row["function"] for row in rows] == [
        entry["function"] for entry in blob["per_function"]]
    assert sum(int(row["events"]) for row in rows) == blob["events"]


def test_cli_trace_generate_rejects_bad_input(capsys, tmp_path):
    path = str(tmp_path / "t.jsonl")
    assert main(["trace", "generate", path,
                 "--rate-class", "nope"]) == 2
    assert "unknown rate class" in capsys.readouterr().err
    assert main(["trace", "generate", path,
                 "--functions", "not_a_function"]) == 2
    assert "unknown function" in capsys.readouterr().err


def test_cli_trace_inspect_rejects_non_trace_file(capsys, tmp_path):
    bogus = tmp_path / "bogus.jsonl"
    bogus.write_text('{"rows": []}\n')
    assert main(["trace", "inspect", str(bogus)]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["trace", "inspect", str(tmp_path / "missing.jsonl")]) == 2


def test_cli_trace_generate_unwritable_path_is_friendly(capsys, tmp_path):
    assert main(["trace", "generate",
                 str(tmp_path / "no-such-dir" / "t.jsonl")]) == 2
    assert "error:" in capsys.readouterr().err


# -- perf subcommand -------------------------------------------------------


def test_cli_perf_list_cells(capsys):
    assert main(["perf", "--list"]) == 0
    out = capsys.readouterr().out
    for cell_id in ("trace_scale", "tail_latency",
                    "snapstore_tiering", "chunk_index"):
        assert cell_id in out


def test_cli_perf_smoke_writes_valid_report(capsys, tmp_path):
    from repro.bench import perf

    report_path = tmp_path / "perf.json"
    assert main(["perf", "--cells", "chunk_index",
                 "--output", str(report_path)]) == 0
    captured = capsys.readouterr()
    assert "chunk_index" in captured.out
    assert "wrote" in captured.err
    report = json.loads(report_path.read_text())
    assert perf.validate_report(report) == []
    record = report["cells"]["chunk_index"]
    assert record["wall_s"] > 0
    assert record["payload_digest"]


def test_cli_perf_self_compare_is_noop_speedup(capsys, tmp_path):
    report_path = tmp_path / "perf.json"
    assert main(["perf", "--cells", "chunk_index",
                 "--output", str(report_path)]) == 0
    capsys.readouterr()
    # Comparing a report to itself: ~1.0x, no drift, exit 0 even with a
    # strict --fail-below floor.
    assert main(["perf", "--compare", str(report_path),
                 "--against", str(report_path),
                 "--fail-below", "0.99"]) == 0
    out = capsys.readouterr().out
    assert "1.00x" in out
    assert "RESULT DRIFT" not in out


def test_cli_perf_fail_below_trips_exit_3(capsys, tmp_path):
    from repro.bench import perf

    report_path = tmp_path / "perf.json"
    assert main(["perf", "--cells", "chunk_index",
                 "--output", str(report_path)]) == 0
    capsys.readouterr()
    report = perf.load_report(str(report_path))
    slower = json.loads(json.dumps(report))
    cell = slower["cells"]["chunk_index"]
    # Halve throughput (or double wall for event-free cells).
    cell["events_per_sec"] = cell["events_per_sec"] / 2 or 0.0
    cell["wall_s"] = cell["wall_s"] * 2
    slow_path = tmp_path / "slower.json"
    slow_path.write_text(json.dumps(slower))
    assert main(["perf", "--compare", str(report_path),
                 "--against", str(slow_path),
                 "--fail-below", "0.9"]) == 3
    assert "speedup below" in capsys.readouterr().err


def test_cli_perf_unknown_cell_is_friendly(capsys):
    assert main(["perf", "--cells", "nope"]) == 2
    err = capsys.readouterr().err
    assert "unknown perf cell" in err
    assert "trace_scale" in err


def test_cli_perf_against_requires_compare(capsys, tmp_path):
    assert main(["perf", "--against", str(tmp_path / "x.json")]) == 2
    assert "--against requires --compare" in capsys.readouterr().err


def test_cli_perf_rejects_invalid_report_schema(capsys, tmp_path):
    bogus = tmp_path / "bogus.json"
    bogus.write_text(json.dumps({"schema_version": 99, "cells": {}}))
    report_path = tmp_path / "perf.json"
    assert main(["perf", "--cells", "chunk_index",
                 "--output", str(report_path)]) == 0
    capsys.readouterr()
    assert main(["perf", "--compare", str(bogus),
                 "--against", str(report_path)]) == 2
    assert "schema_version" in capsys.readouterr().err


def test_cli_lint_alias_forwards_to_linter(capsys, tmp_path):
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")
    assert main(["lint", str(clean)]) == 0
    assert "0 violations" in capsys.readouterr().out
    # Flags after `lint` belong to the linter's own parser.
    assert main(["lint", "--list-rules"]) == 0
    assert "REPRO-D001" in capsys.readouterr().out
    dirty = tmp_path / "dirty.py"
    dirty.write_text("import time\n\ndef f():\n    return time.time()\n")
    assert main(["lint", "--format", "json", str(dirty)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["counts"] == {"REPRO-D001": 1}
