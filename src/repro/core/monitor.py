"""REAP monitor threads (the paper's per-instance goroutines, §5.2).

A monitor polls its instance's userfaultfd for fault events and resolves
them.  The three concrete behaviours:

* :class:`UffdMonitor` -- the demand-serving loop shared by all modes:
  read event -> locate page in the guest memory file -> buffered read
  through the thin-pool path (or a zero-fill for pages the snapshot
  never wrote) -> ``UFFDIO_COPY`` install -> wake the vCPU.
* :class:`RecordMonitor` -- additionally records the first-touch order
  into a :class:`~repro.memory.trace.TraceRecorder`, and on
  :meth:`finalize` writes the trace file and the compact WS file (the
  one-time cost §6.4 quantifies).
* :class:`PrefetchMonitor` -- the post-prefetch demand loop; everything
  in the recorded working set was installed eagerly, so it only sees the
  invocation's unique pages (§7.1).

When nothing could observe the handoff, the faulting vCPU runs the
monitor's service itself (:meth:`UffdMonitor.serve_in_place`), with the
same timing, event count and bookkeeping.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.core.files import ReapArtifacts, TraceFile, WorkingSetFile
from repro.memory.guest import ContentMode
from repro.memory.trace import TraceRecorder
from repro.memory.uffd import PageFaultEvent, UserFaultFd
from repro.sim.engine import Event, Interrupt, Process
from repro.sim.units import MS, PAGE_SIZE
from repro.storage.device import IoRequest, ReadKind
from repro.storage.filesystem import SimFile
from repro.vm.host import WorkerHost


class UffdMonitor:
    """Demand-fault serving loop over a userfaultfd."""

    def __init__(self, host: WorkerHost, uffd: UserFaultFd,
                 memory_file: SimFile, name: str = "monitor",
                 extra_fault_us: float = 0.0) -> None:
        self.host = host
        self.uffd = uffd
        self.memory_file = memory_file
        self.name = name
        #: Per-major-fault guest/kernel overhead of the workload (the
        #: profile's calibrated ``fault_cpu_us``).
        self.extra_fault_us = extra_fault_us
        self.demand_faults = 0
        self.major_faults = 0
        self.zero_faults = 0
        self._process: Optional[Process] = None
        self._pending_get: Optional[Event] = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Spawn the monitor goroutine."""
        if self._process is not None:
            raise RuntimeError(f"{self.name} already started")
        self._process = self.host.env.process(self._run(), name=self.name)

    def stop(self) -> None:
        """Tear the monitor down (instance finished its invocation)."""
        if self._process is not None and self._process.is_alive:
            self._process.interrupt("stop")

    @property
    def running(self) -> bool:
        """Whether the serving loop is alive."""
        return self._process is not None and self._process.is_alive

    # -- the serving loop ----------------------------------------------------

    def _run(self) -> Generator[Event, Any, None]:
        try:
            while True:
                self._pending_get = self.uffd.read_event()
                fault: PageFaultEvent = yield self._pending_get
                self._pending_get = None
                yield from self._serve(fault)
        except Interrupt:
            if self._pending_get is not None:
                self.uffd.cancel_read(self._pending_get)
                self._pending_get = None

    def _serve(self, fault: PageFaultEvent) -> Generator[Event, Any, None]:
        params = self.host.params
        env = self.host.env
        page = fault.page
        delay = params.uffd_event_us + params.monitor_dispatch_us
        if not env.advance(delay):
            yield env.timeout(delay)
        if self.memory_file.has_block(page):
            # §5.2.1: the monitor maps the guest memory file as a regular
            # virtual memory region, so its own access to the page is an
            # mmap fault with the kernel's fault-around window.  Served
            # in place with the copy delay when nothing can tell.
            page_cache = self.host.page_cache
            copy_us = params.uffd_copy_us
            was_major = page_cache.fault_in_place(
                self.memory_file, page, copy_us + self.extra_fault_us,
                copy_us)
            if was_major is None:
                was_major = yield from page_cache.fault_in(
                    self.memory_file, page)
                delay = copy_us + (self.extra_fault_us if was_major
                                   else 0.0)
                if not env.advance(delay):
                    yield env.timeout(delay)
        else:
            was_major = None
            if not env.advance(params.uffd_zeropage_us):
                yield env.timeout(params.uffd_zeropage_us)
        self._commit(page, was_major)

    def serve_in_place(self, page: int) -> bool:
        """Serve a vCPU's fault on ``page`` in place, if nothing can tell.

        The synchronous form of :meth:`UserFaultFd.raise_fault` and this
        monitor's round trip: the read event's dispatch, :meth:`_serve`
        and the wake's dispatch.  It runs only when the monitor is
        parked on the fd's one blocked read with no fault pending or
        queued, and the whole service passes
        :meth:`Environment.advance_to` at its end: the lead delay, then
        the page access (:meth:`HostPageCache.fault_in_place`, which
        also answers for the device) or the zero-fill, then the install
        delay, counting every event the round trip would.  Then it
        commits what :meth:`_serve` would (counters, :meth:`observe`,
        the install) and returns ``True``; the monitor stays parked on
        the same read.  Otherwise it changes nothing and returns
        ``False``, and the caller raises the fault.
        """
        uffd = self.uffd
        if uffd.closed:
            return False
        memory = uffd.memory
        memory.check_page(page)
        getter = self._pending_get
        if (getter is None or page in memory._present
                or getter._cb is not self._process
                or getter._cbs is not None
                or uffd.idle_reader() is not getter):
            return False
        host = self.host
        params = host.params
        env = host.env
        # The round trip's events: the read's dispatch and the lead
        # delay before the access, the wake's dispatch after it.
        start = env._now + (params.uffd_event_us
                            + params.monitor_dispatch_us)
        memory_file = self.memory_file
        if memory_file.has_block(page):
            copy_us = params.uffd_copy_us
            was_major = host.page_cache.fault_in_place(
                memory_file, page, copy_us + self.extra_fault_us, copy_us,
                start=start, extra_events=3)
            if was_major is None:
                return False
        elif env.advance_to(start + params.uffd_zeropage_us, 4):
            was_major = None
        else:
            return False
        uffd.faults_raised += 1
        self._commit(page, was_major)
        return True

    def _commit(self, page: int, was_major: Optional[bool]) -> None:
        """Count a served fault and install its page.

        ``was_major`` tells whether the access to a page of the memory
        file was a major fault; ``None`` marks a page the snapshot never
        wrote, which is mapped as a zero page.
        """
        self.demand_faults += 1
        self.observe(page)
        if was_major is None:
            self.zero_faults += 1
            self.uffd.zeropage(page)
            return
        if was_major:
            self.major_faults += 1
        payload = (self.memory_file.read_block(page)
                   if self._carries_content() else None)
        self.uffd.copy(page, payload)

    def _carries_content(self) -> bool:
        return self.uffd.memory.content_mode is ContentMode.FULL

    def observe(self, page: int) -> None:
        """Hook for subclasses; called for every served fault."""


class RecordMonitor(UffdMonitor):
    """Monitor in record mode: serves faults *and* captures the trace."""

    def __init__(self, host: WorkerHost, uffd: UserFaultFd,
                 memory_file: SimFile, artifact_prefix: str,
                 name: str = "record-monitor",
                 extra_fault_us: float = 0.0) -> None:
        super().__init__(host, uffd, memory_file, name, extra_fault_us)
        self.artifact_prefix = artifact_prefix
        self.recorder = TraceRecorder()

    def observe(self, page: int) -> None:
        self.recorder.observe(page)

    def finalize(self) -> Generator[Event, Any, ReapArtifacts]:
        """Write the trace + WS files; returns the artifacts.

        This is REAP's one-time record cost: serializing the trace and
        streaming the packed working set out to disk with an fsync each
        (§6.4: +15-87 % on the first invocation, amortized forever after).
        """
        host = self.host
        pages = self.recorder.as_tuple()
        if not pages:
            raise RuntimeError("record monitor observed no faults")
        trace = TraceFile.create(host.filesystem,
                                 f"{self.artifact_prefix}/trace", pages,
                                 device=host.device)
        working_set = WorkingSetFile.build(
            host.filesystem, f"{self.artifact_prefix}/ws", pages,
            self.memory_file,
            content=self.uffd.memory.content_mode, device=host.device)
        # Timing: both artifacts stream to the raw device, then fsync.
        yield from host.device.write(IoRequest(
            lba=trace.file.to_lba(0),
            nbytes=max(trace.serialized_size, PAGE_SIZE),
            kind=ReadKind.WRITE))
        yield from host.device.write(IoRequest(
            lba=working_set.file.to_lba(0),
            nbytes=working_set.payload_bytes, kind=ReadKind.WRITE))
        yield host.env.timeout(2 * 1.0 * MS)  # one fsync per artifact
        return ReapArtifacts(trace=trace, working_set=working_set)


class PrefetchMonitor(UffdMonitor):
    """Monitor in prefetch mode: serves only post-prefetch misses."""

    def __init__(self, host: WorkerHost, uffd: UserFaultFd,
                 memory_file: SimFile, artifacts: ReapArtifacts,
                 name: str = "prefetch-monitor",
                 extra_fault_us: float = 0.0) -> None:
        super().__init__(host, uffd, memory_file, name, extra_fault_us)
        self.artifacts = artifacts
