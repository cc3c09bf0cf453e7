"""Ablations of the modelled design choices (see docs/experiments.md)."""

from conftest import run_once

from repro.bench.experiments import run_experiment


def test_ablations(benchmark, report):
    result = run_once(benchmark, run_experiment, "ablations")
    report(result)
    by_kind = {}
    for row in result.rows:
        by_kind.setdefault(row["ablation"], []).append(
            (row["setting"], row["cold_ms"]))
    # Wider mmap readahead windows help the lazy baseline (less disk).
    readahead = dict(by_kind["mmap_readahead_pages"])
    assert readahead[1] > readahead[4]
    # More thin-pool queue depth helps parallel PF handling, saturating.
    depths = dict(by_kind["thinpool_queue_depth"])
    assert depths[1] > depths[4] >= depths[16]
    # More monitor workers help parallel PF handling, saturating.
    workers = dict(by_kind["parallel_pf_workers"])
    assert workers[1] > workers[16]
    assert workers[16] <= workers[4]
