"""Declarative experiment specification: cells, runners, assembly.

Every paper table/figure is an :class:`Experiment` that decomposes into
independent *cells* -- the smallest unit of simulation work (typically
one ``(seed, config)`` pair, e.g. a single function on a single storage
backend).  The split serves three purposes:

* **Parallelism.**  Cells share no state (each builds its own
  :class:`~repro.sim.engine.Environment`), so the runner in
  :mod:`repro.bench.runner` can execute them on worker processes in any
  order without changing the result.
* **Caching.**  A cell's payload is a pure function of its parameters
  and the code version, so :mod:`repro.bench.cache` can store it
  content-addressed and replay it on later runs.
* **Incrementality.**  Re-running ``bench all`` after touching one
  experiment re-simulates only the invalidated cells.

The contract: :meth:`Experiment.cells` enumerates the work
declaratively, :meth:`Experiment.run_cell` executes exactly one cell
using *only* ``cell.params`` (never ambient state), and
:meth:`Experiment.assemble` folds the JSON-serializable payloads --
in cell order -- into an :class:`~repro.bench.harness.ExperimentResult`.

See also :mod:`repro.bench.runner` (parallel execution),
:mod:`repro.bench.cache` (result store), and
:mod:`repro.bench.experiments` (the registry).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.bench.harness import ExperimentResult
from repro.obs import metrics as obs_metrics
from repro.obs import tracer as obs_tracer


@dataclass(frozen=True)
class Cell:
    """One independent unit of experiment work.

    ``params`` must be JSON-serializable: it is hashed into the cache
    key and shipped to worker processes, and it must fully determine the
    cell's payload (together with the code version).
    """

    experiment: str
    label: str
    params: dict[str, Any] = field(default_factory=dict)

    def describe(self) -> str:
        """Short human-readable identifier, e.g. ``fig8/helloworld``."""
        return f"{self.experiment}/{self.label}"


def run_cell_checked(experiment: "Experiment", cell: Cell) -> dict[str, Any]:
    """Run one cell, under the sim sanitizer when it is enabled.

    With ``REPRO_SANITIZE=1`` the sanitizer registry is reset before
    the cell and the end-of-run leak check (held grants, pinned tier
    entries, unserved faults) runs after it -- the reset makes each
    cell's accounting independent, matching the cells-share-no-state
    contract.  Both execution paths (serial :meth:`Experiment.run` and
    the parallel runner) funnel through here.

    The observability layer hooks in here too: when a span tracer or a
    metrics registry is installed (they never are by default), the cell
    label is announced before the cell runs, so spans carry
    ``experiment/label``-prefixed process names and the registry
    snapshots per cell.
    """
    from repro.sim import sanitizer

    tracer = obs_tracer.ACTIVE
    if tracer is not None:
        tracer.begin_cell(cell.describe())
    registry = obs_metrics.ACTIVE
    if registry is not None:
        registry.begin_cell(cell.describe())
    try:
        if not sanitizer.enabled():
            return experiment.run_cell(cell)
        sanitizer.reset()
        payload = experiment.run_cell(cell)
        sanitizer.assert_no_leaks(context=cell.describe())
        return payload
    finally:
        if registry is not None:
            registry.finish()


class Experiment:
    """Base class for one table/figure reproduction.

    Subclasses set :attr:`id` / :attr:`title` / :attr:`aliases` and
    implement the ``cells -> run_cell -> assemble`` triple.  Calling the
    instance runs all cells serially in-process; the parallel path lives
    in :class:`repro.bench.runner.Runner`.
    """

    id: str = ""
    title: str = ""
    #: Alternate CLI spellings (legacy function names).
    aliases: tuple[str, ...] = ()

    def cells(self, **kwargs: Any) -> list[Cell]:
        """Enumerate the independent cells for the given parameters."""
        raise NotImplementedError

    def run_cell(self, cell: Cell) -> dict[str, Any]:
        """Execute one cell; must depend only on ``cell.params``.

        Returns a JSON-serializable payload (the cache stores it
        verbatim, so tuples come back as lists -- prefer lists/dicts).
        """
        raise NotImplementedError

    def assemble(self, payloads: list[dict[str, Any]],
                 **kwargs: Any) -> ExperimentResult:
        """Fold cell payloads (in :meth:`cells` order) into a result."""
        raise NotImplementedError

    def run(self, **kwargs: Any) -> ExperimentResult:
        """Serial reference path: run every cell in-process, in order."""
        from repro.bench.cache import canonicalize

        cells = self.cells(**kwargs)
        payloads = [canonicalize(run_cell_checked(self, cell))
                    for cell in cells]
        return self.assemble(payloads, **kwargs)

    #: Experiments stay callable so the registry keeps its historical
    #: ``dict[str, Callable[..., ExperimentResult]]`` shape.
    def __call__(self, **kwargs: Any) -> ExperimentResult:
        return self.run(**kwargs)

    def _cell(self, label: str, **params: Any) -> Cell:
        """Convenience constructor tagging the cell with this id."""
        return Cell(self.id, str(label), params)

    def result(self, title: str | None = None) -> ExperimentResult:
        """Fresh empty result shell for :meth:`assemble`."""
        return ExperimentResult(self.id, title or self.title)
