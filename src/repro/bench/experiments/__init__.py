"""Experiment registry: one entry per paper table/figure (docs/experiments.md).

Every entry is an :class:`~repro.bench.experiments.spec.Experiment`
instance exposing the declarative ``cells() -> run_cell() -> assemble()``
triple consumed by :class:`repro.bench.runner.Runner`; calling the
instance (or :func:`run_experiment`) runs it serially.  Experiments are
addressable by their canonical id (``fig8``) or any legacy alias
(``fig8_reap_speedup``).
"""

from __future__ import annotations

from typing import Callable

from repro.bench.experiments.chaos_eval import SloScorecard
from repro.bench.experiments.floor_eval import FloorStudy
from repro.bench.experiments.characterization import (
    Fig2ColdVsWarm,
    Fig3Contiguity,
    Fig4Footprints,
    Fig5Reuse,
    Table1Catalog,
)
from repro.bench.experiments.reap_eval import (
    FallbackDetection,
    Fig7DesignPoints,
    Fig8ReapSpeedup,
    Mispredictions,
    RecordOverhead,
)
from repro.bench.experiments.scale_eval import (
    Ablations,
    Fig9Scalability,
    FioMicrobench,
    HddComparison,
    RemoteStorage,
    TailLatency,
    WarmBackground,
)
from repro.bench.experiments.snapstore_eval import (
    SnapstoreCapacity,
    SnapstoreTiering,
)
from repro.bench.experiments.spec import Cell, Experiment
from repro.bench.experiments.trace_eval import (
    TraceClusterScale,
    TraceReplayEval,
)
from repro.bench.harness import ExperimentResult

__all__ = [
    "ALIASES",
    "Cell",
    "EXPERIMENTS",
    "Experiment",
    "resolve",
    "run_experiment",
]

#: Registry in the paper's presentation order (``bench all`` runs this).
EXPERIMENTS: dict[str, Callable[..., ExperimentResult]] = {
    experiment.id: experiment for experiment in (
        Table1Catalog(),
        Fig2ColdVsWarm(),
        Fig3Contiguity(),
        Fig4Footprints(),
        Fig5Reuse(),
        Fig7DesignPoints(),
        Fig8ReapSpeedup(),
        Fig9Scalability(),
        FioMicrobench(),
        HddComparison(),
        WarmBackground(),
        RecordOverhead(),
        Mispredictions(),
        FallbackDetection(),
        Ablations(),
        RemoteStorage(),
        TailLatency(),
        TraceReplayEval(),
        TraceClusterScale(),
        SnapstoreCapacity(),
        SnapstoreTiering(),
        SloScorecard(),
        FloorStudy(),
    )
}

#: Alias -> canonical id (the few spellings docs, tests and CI use).
ALIASES: dict[str, str] = {
    alias: experiment.id
    for experiment in EXPERIMENTS.values()
    for alias in experiment.aliases
}


def resolve(name: str) -> str:
    """Canonical experiment id for ``name`` (id or alias).

    Raises :class:`KeyError` with the full list of valid ids, so callers
    (CLI included) surface a helpful message instead of a bare miss.
    """
    if name in EXPERIMENTS:
        return name
    if name in ALIASES:
        return ALIASES[name]
    known = ", ".join(sorted(EXPERIMENTS))
    raise KeyError(f"unknown experiment {name!r}; known: {known}")


def run_experiment(name: str, **kwargs) -> ExperimentResult:
    """Run a registered experiment by id or alias (e.g. ``fig8``)."""
    return EXPERIMENTS[resolve(name)].run(**kwargs)
