"""Benchmark harness: one experiment per paper table/figure.

Each experiment function in :mod:`repro.bench.experiments` regenerates
the data behind one table or figure of the paper and returns an
:class:`ExperimentResult` with comparison rows (measured vs published).
The ``benchmarks/`` directory wraps these in pytest-benchmark entry
points; they can also be run directly::

    python -m repro.bench run fig8
"""

from repro.bench.experiments import EXPERIMENTS, run_experiment
from repro.bench.harness import ExperimentResult, Testbed
from repro.bench import reference

__all__ = [
    "EXPERIMENTS",
    "run_experiment",
    "ExperimentResult",
    "Testbed",
    "reference",
]
