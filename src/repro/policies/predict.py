"""Cross-generation working-set prediction on top of REAP.

REAP prefetches exactly the first recorded working set, so every page a
later invocation touches outside it demand-faults (§7.1's unique
pages).  The ``predict`` policy augments the install with the union of
the working sets *previous generations* actually demanded, harvested
from :class:`repro.core.manager.ReapManager` history
(``FunctionReapState.ws_history``): the recorded set of each record
generation plus the pages earlier predict invocations demand-faulted.
Pages in the prediction but not in the recorded WS file are read from
the snapshot memory file (readahead path) or installed as zero pages.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.core.context import LatencyBreakdown
from repro.core.files import ReapArtifacts
from repro.core.monitor import PrefetchMonitor, UffdMonitor
from repro.core.policies import ReapPolicy
from repro.memory.guest import ContentMode
from repro.memory.working_set import contiguous_runs
from repro.sim.engine import Event
from repro.sim.units import PAGE_SIZE
from repro.storage.device import ReadKind
from repro.vm.host import WorkerHost
from repro.vm.microvm import MicroVM
from repro.vm.snapshot import Snapshot

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.manager import FunctionReapState, ReapManager

#: Prior working-set generations unioned into the prediction.
PREDICT_WINDOW = 3


class _ObservingMonitor(PrefetchMonitor):
    """Prefetch monitor that also collects the demanded page set."""

    def __init__(self, *args: Any, sink: set[int], **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._sink = sink

    def observe(self, page: int) -> None:
        self._sink.add(page)


class PredictPolicy(ReapPolicy):
    """REAP install extended with pages predicted from prior generations."""

    name = "predict"

    def __init__(self, host: WorkerHost, snapshot: Snapshot,
                 breakdown: LatencyBreakdown,
                 artifacts: Optional[ReapArtifacts] = None,
                 predicted_extra: tuple[int, ...] = ()) -> None:
        super().__init__(host, snapshot, breakdown, artifacts=artifacts)
        self.predicted_extra = tuple(predicted_extra)
        #: Pages demand-faulted during this invocation (the manager adds
        #: them to the function's working-set history).
        self.demanded_pages: set[int] = set()
        self._installed: frozenset[int] = frozenset()

    @classmethod
    def inputs(cls, manager: "ReapManager",
               state: "FunctionReapState") -> dict[str, Any]:
        recent: set[int] = set().union(*state.ws_history[-PREDICT_WINDOW:])
        return {"predicted_extra": tuple(sorted(
            recent - state.artifacts.page_set))}

    @property
    def prefetched_page_set(self) -> frozenset[int]:
        """Recorded plus predicted pages: everything installed eagerly."""
        return self._installed

    def _make_monitor(self, vm: MicroVM) -> UffdMonitor:
        return _ObservingMonitor(
            self.host, self.uffd, vm.memory.backing_file, self.artifacts,
            name=f"{self.name}:{vm.name}", sink=self.demanded_pages,
            extra_fault_us=self.snapshot.profile.fault_cpu_us)

    def prepare(self, vm: MicroVM) -> Generator[Event, Any, None]:
        yield from super().prepare(vm)
        recorded = self.artifacts.page_set
        extra = [page for page in self.predicted_extra
                 if page not in recorded
                 and not vm.memory.is_present(page)]
        self._installed = recorded | frozenset(extra)
        if not extra:
            return
        env = self.host.env
        params = self.host.params
        memory_file = vm.memory.backing_file
        full_content = vm.memory.content_mode is ContentMode.FULL
        resident = [page for page in extra if memory_file.has_block(page)]
        fresh = [page for page in extra
                 if not memory_file.has_block(page)]
        started = env.now
        if resident:
            runs = contiguous_runs(resident)
            for run_start, run_length in runs:
                yield from self.host.page_cache.read(
                    memory_file, run_start * PAGE_SIZE,
                    run_length * PAGE_SIZE, kind=ReadKind.READAHEAD)
            yield env.timeout(self.host.install_batch_us(
                len(runs), len(resident) * PAGE_SIZE))
            if full_content:
                data = [memory_file.read_block(page) for page in resident]
            else:
                data = None
            self.uffd.copy_batch(resident, data)
        for page in fresh:
            yield env.timeout(params.uffd_zeropage_us)
            self.uffd.zeropage(page)
        self.breakdown.install_ws_us += env.now - started
        self.breakdown.prefetched_pages += len(extra)
        self.breakdown.extra["predicted_extra_pages"] = len(extra)
