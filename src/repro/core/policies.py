"""Restore policies: vanilla snapshots, REAP, and the Fig. 7 design points.

A policy owns everything between "VMM state is loaded" and "instance
stopped": how guest memory is (or is not) populated before resume, how
demand faults are served during execution, and what artifacts are
produced afterwards.  Each class declares its inputs (the artifact
kinds it reads, whether it prefetches, extra constructor keywords);
:meth:`repro.core.manager.ReapManager.policy_for` builds every policy
and :data:`repro.policies.POLICIES` registers them all.  The five here
map to the paper as:

==============  ==========================================================
``vanilla``     Baseline Firecracker snapshots: kernel lazy paging from
                the memory file, one fault at a time (§2.3, Fig. 7 bar 1)
``record``      REAP's first invocation: userfaultfd monitor serves
                faults and records the trace + WS files (§5.2.1)
``parallel_pf``  Design point: trace-driven *parallel* page-sized reads,
                no WS file (Fig. 7 bar 2)
``ws_file``     Design point: single *buffered* read of the WS file
                (through the page cache; Fig. 7 bar 3)
``reap``        Full REAP: single O_DIRECT read of the WS file + eager
                batch install; only unique pages demand-fault
                (§5.2.2-5.2.3, Fig. 7 bar 4)
==============  ==========================================================
"""

from __future__ import annotations

import abc
import itertools
from collections import deque
from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.core.context import LatencyBreakdown
from repro.core.files import ReapArtifacts, TraceFile
from repro.core.monitor import PrefetchMonitor, RecordMonitor, UffdMonitor
from repro.memory.guest import BackingMode, ContentMode
from repro.memory.uffd import UserFaultFd
from repro.sim.engine import Event
from repro.sim.units import PAGE_SIZE
from repro.storage.device import ReadKind
from repro.vm.host import WorkerHost
from repro.vm.microvm import MicroVM
from repro.vm.snapshot import Snapshot
from repro.vm.vcpu import FaultHandler, InlineFaultHandler

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.manager import FunctionReapState, ReapManager

_policy_ids = itertools.count()


class RestorePolicy(abc.ABC):
    """Strategy for populating a restored instance's guest memory."""

    name: str = "abstract"
    backing: BackingMode = BackingMode.FILE_LAZY
    #: Artifact kinds a tiered store promotes and pins before the restore.
    artifact_kinds: tuple[str, ...] = ("vmm", "mem")
    #: Installs recorded pages before resume: needs recorded artifacts
    #: and takes part in the §7.1/§7.2 misprediction accounting.
    prefetches: bool = False
    #: Trace process name (the manager sets the owning worker's).
    obs_proc: str = "worker0"
    #: The userfaultfd and its serving monitor (uffd policies only).
    uffd: Optional[UserFaultFd] = None
    monitor: Optional[UffdMonitor] = None
    #: Pages demand-faulted this invocation that join the function's
    #: working-set history (``predict`` collects them).
    demanded_pages: frozenset[int] = frozenset()

    def __init__(self, host: WorkerHost, snapshot: Snapshot,
                 breakdown: LatencyBreakdown,
                 artifacts: Optional[ReapArtifacts] = None) -> None:
        self.host = host
        self.snapshot = snapshot
        self.breakdown = breakdown
        self.artifacts = artifacts
        self.policy_id = next(_policy_ids)
        breakdown.policy = self.name

    @classmethod
    def inputs(cls, manager: "ReapManager",
               state: "FunctionReapState") -> dict[str, Any]:
        """Extra constructor keywords drawn from the REAP manager."""
        return {}

    @property
    def prefetched_page_set(self) -> Optional[frozenset[int]]:
        """Pages installed before resume (``None`` for lazy policies)."""
        return self.artifacts.page_set if self.prefetches else None

    def attach(self, vm: MicroVM) -> None:
        """Bind to a freshly instantiated VM (register uffd, start monitor)."""

    def prepare(self, vm: MicroVM) -> Generator[Event, Any, None]:
        """Eagerly populate memory before resume (prefetch policies)."""
        return
        yield  # pragma: no cover - makes this a generator

    @abc.abstractmethod
    def fault_handler(self, vm: MicroVM) -> Optional[FaultHandler]:
        """The vCPU's handler for missing pages during execution."""

    def inline_fault_handler(
            self, vm: MicroVM) -> Optional[InlineFaultHandler]:
        """The vCPU's in-place handler, tried before :meth:`fault_handler`.

        ``None`` (the default) when the faulting thread does not serve
        its own faults, as under userfaultfd, where the monitor does.
        """
        return None

    def finish(self, vm: MicroVM) -> Generator[Event, Any,
                                               Optional[ReapArtifacts]]:
        """Post-invocation work (stop monitors, write record artifacts)."""
        return None
        yield  # pragma: no cover - makes this a generator

    def on_teardown(self) -> None:
        """Synchronous hook before the instance is torn down.

        Policies with background state (the overlap stream, shared
        residency registrations) override this; the base policies have
        nothing to release beyond what the orchestrator already stops.
        """


class VanillaPolicy(RestorePolicy):
    """Baseline: the host kernel lazily pages the memory file in."""

    name = "vanilla"
    backing = BackingMode.FILE_LAZY

    def fault_handler(self, vm: MicroVM) -> FaultHandler:
        page_cache = self.host.page_cache
        memory_file = vm.memory.backing_file
        breakdown = self.breakdown

        fault_cpu_us = self.snapshot.profile.fault_cpu_us
        env = self.host.env
        fault_in = page_cache.fault_in
        hit_cost = page_cache.hit_cost
        written = memory_file._written_blocks
        install = vm.memory.install
        advance = env.advance
        timeout = env.timeout

        def handler(page: int) -> Generator[Event, Any, None]:
            breakdown.demand_faults += 1
            # Minor-fault fast path: no fault_in generator for hits.
            cost = hit_cost(memory_file, page)
            if cost is not None:
                if not advance(cost):
                    yield timeout(cost)
                if page not in written:
                    breakdown.zero_faults += 1
                install(page)
                return
            was_major = yield from fault_in(memory_file, page)
            if was_major:
                breakdown.major_faults += 1
                if fault_cpu_us > 0.0 and not advance(fault_cpu_us):
                    yield timeout(fault_cpu_us)
            elif page not in written:
                breakdown.zero_faults += 1
            install(page)

        return handler

    def inline_fault_handler(self, vm: MicroVM) -> InlineFaultHandler:
        page_cache = self.host.page_cache
        memory_file = vm.memory.backing_file
        breakdown = self.breakdown
        fault_cpu_us = self.snapshot.profile.fault_cpu_us
        # The generator path spends the CPU cost only when it is > 0.
        major_tail = fault_cpu_us if fault_cpu_us > 0.0 else None
        fault_in_place = page_cache.fault_in_place
        written = memory_file._written_blocks
        install = vm.memory.install

        def handler(page: int) -> bool:
            was_major = fault_in_place(memory_file, page, major_tail)
            if was_major is None:
                return False
            breakdown.demand_faults += 1
            if was_major:
                breakdown.major_faults += 1
            elif page not in written:
                breakdown.zero_faults += 1
            install(page)
            return True

        return handler


class _UffdPolicy(RestorePolicy):
    """Shared plumbing for every userfaultfd-based policy."""

    backing = BackingMode.UFFD

    def attach(self, vm: MicroVM) -> None:
        self.uffd = UserFaultFd(self.host.env, vm.memory)
        self.monitor = self._make_monitor(vm)
        self.monitor.start()

    @abc.abstractmethod
    def _make_monitor(self, vm: MicroVM) -> UffdMonitor:
        """Build the mode-specific monitor goroutine."""

    def fault_handler(self, vm: MicroVM) -> FaultHandler:
        if self.uffd is None:
            raise RuntimeError(f"{self.name}: attach() not called")
        uffd = self.uffd

        def handler(page: int) -> Generator[Event, Any, None]:
            wake = uffd.raise_fault(page)
            yield wake

        return handler

    def finish(self, vm: MicroVM) -> Generator[Event, Any,
                                               Optional[ReapArtifacts]]:
        if self.monitor is not None:
            self.monitor.stop()
            self._fold_fault_counts()
        return None
        yield  # pragma: no cover

    def _fold_fault_counts(self) -> None:
        """Add the monitor's fault counters to the breakdown."""
        monitor = self.monitor
        self.breakdown.demand_faults += monitor.demand_faults
        self.breakdown.major_faults += monitor.major_faults
        self.breakdown.zero_faults += monitor.zero_faults

    def _load_trace(self) -> Generator[Event, Any, TraceFile]:
        trace_file = self.artifacts.trace.file
        yield from self.host.page_cache.read(
            trace_file, 0, self.artifacts.trace.serialized_size)
        return TraceFile.load(trace_file)

    def _artifact_prefix(self, vm: MicroVM) -> str:
        return (f"reap/{self.snapshot.function_name}"
                f"/e{self.snapshot.epoch}-p{self.policy_id}")


class RecordPolicy(_UffdPolicy):
    """REAP record mode: serve every fault in userspace, capture the trace."""

    name = "record"

    def _make_monitor(self, vm: MicroVM) -> UffdMonitor:
        return RecordMonitor(self.host, self.uffd, vm.memory.backing_file,
                             artifact_prefix=self._artifact_prefix(vm),
                             name=f"record:{vm.name}",
                             extra_fault_us=self.snapshot.profile.fault_cpu_us)

    def finish(self, vm: MicroVM) -> Generator[Event, Any,
                                               Optional[ReapArtifacts]]:
        monitor = self.monitor
        if monitor is None:
            raise RuntimeError("record policy finished without attach()")
        monitor.stop()
        artifacts = yield from monitor.finalize()
        self._fold_fault_counts()
        self.artifacts = artifacts
        return artifacts


class ParallelPfPolicy(_UffdPolicy):
    """Design point: parallel trace-driven page reads (no WS file)."""

    name = "parallel_pf"
    artifact_kinds = ("vmm", "trace", "mem")
    prefetches = True

    def __init__(self, host: WorkerHost, snapshot: Snapshot,
                 breakdown: LatencyBreakdown,
                 artifacts: Optional[ReapArtifacts] = None,
                 workers: int = 16) -> None:
        super().__init__(host, snapshot, breakdown, artifacts)
        self.workers = workers

    @classmethod
    def inputs(cls, manager: "ReapManager",
               state: "FunctionReapState") -> dict[str, Any]:
        return {"workers": manager.params.parallel_workers}

    def _make_monitor(self, vm: MicroVM) -> UffdMonitor:
        return PrefetchMonitor(self.host, self.uffd,
                               vm.memory.backing_file, self.artifacts,
                               name=f"parallel-pf:{vm.name}",
                               extra_fault_us=self.snapshot.profile.fault_cpu_us)

    def prepare(self, vm: MicroVM) -> Generator[Event, Any, None]:
        env = self.host.env
        started = env.now
        trace = yield from self._load_trace()
        queue = deque(trace.pages)
        memory_file = vm.memory.backing_file
        params = self.host.params
        full_content = vm.memory.content_mode is ContentMode.FULL

        def worker() -> Generator[Event, Any, None]:
            while queue:
                page = queue.popleft()
                if memory_file.has_block(page):
                    yield from self.host.page_cache.read(
                        memory_file, page * PAGE_SIZE, PAGE_SIZE,
                        kind=ReadKind.READAHEAD)
                    yield env.timeout(params.uffd_copy_us)
                    self.uffd.copy(page, memory_file.read_block(page)
                                   if full_content else None)
                else:
                    yield env.timeout(params.uffd_zeropage_us)
                    self.uffd.zeropage(page)

        jobs = [env.process(worker(), name=f"pf-worker-{index}")
                for index in range(self.workers)]
        yield env.all_of(jobs)
        self.breakdown.fetch_ws_us = env.now - started
        self.breakdown.prefetched_pages = len(trace.pages)


class WsFilePolicy(_UffdPolicy):
    """Design point: one *buffered* WS-file read, then eager install."""

    name = "ws_file"
    artifact_kinds = ("vmm", "trace", "ws")
    prefetches = True
    direct_io = False

    def _make_monitor(self, vm: MicroVM) -> UffdMonitor:
        return PrefetchMonitor(self.host, self.uffd,
                               vm.memory.backing_file, self.artifacts,
                               name=f"{self.name}:{vm.name}",
                               extra_fault_us=self.snapshot.profile.fault_cpu_us)

    def prepare(self, vm: MicroVM) -> Generator[Event, Any, None]:
        env = self.host.env
        artifacts = self.artifacts
        # Fetch phase: trace (tiny) + the whole WS file in one read.
        started = env.now
        trace = yield from self._load_trace()
        yield from self.host.page_cache.read(
            artifacts.working_set.file, 0,
            artifacts.working_set.payload_bytes, direct=self.direct_io)
        self.breakdown.fetch_ws_us = env.now - started
        # Install phase: one ioctl per contiguous run + the memcpy.
        started = env.now
        install_us = self.host.install_batch_us(
            artifacts.working_set.run_count,
            artifacts.working_set.payload_bytes)
        yield env.timeout(install_us)
        if vm.memory.content_mode is ContentMode.FULL:
            data = [artifacts.working_set.page_content(slot)
                    for slot in range(len(trace.pages))]
        else:
            data = None
        self.uffd.copy_batch(list(trace.pages), data)
        self.breakdown.install_ws_us = env.now - started
        self.breakdown.prefetched_pages = len(trace.pages)


class ReapPolicy(WsFilePolicy):
    """Full REAP: O_DIRECT WS fetch + eager install (§5.2.2-5.2.3)."""

    name = "reap"
    direct_io = True
