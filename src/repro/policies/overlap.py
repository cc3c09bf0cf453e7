"""Prefetch/resume overlap: the vCPU runs while the WS streams in.

REAP serializes the whole working-set fetch + install ahead of resume
(§5.2.2); Tan et al. observe that most of that window is I/O the guest
does not yet need.  The ``overlap`` policy resumes the vCPU right after
the (tiny) trace read and streams the WS file in fixed-size segments in
the background.  A demand fault on a page whose segment has not arrived
*blocks on the in-flight transfer* instead of issuing its own read;
faults outside the recorded set take the normal userfaultfd path.

The background stream is a first-class simulation process: an interrupt
mid-stream (worker crash, teardown) unwinds it through ``finally``,
releasing every blocked waiter so nothing leaks -- the regression test
in ``tests/test_policies.py`` pins this.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.core.context import LatencyBreakdown
from repro.core.files import ReapArtifacts
from repro.core.policies import WsFilePolicy
from repro.memory.guest import ContentMode
from repro.memory.working_set import contiguous_runs
from repro.obs import tracer as obs_tracer
from repro.sim.engine import Event, Interrupt, Process
from repro.sim.units import PAGE_SIZE
from repro.vm.host import WorkerHost
from repro.vm.microvm import MicroVM
from repro.vm.snapshot import Snapshot
from repro.vm.vcpu import FaultHandler, InlineFaultHandler

#: Pages per background-stream segment.
SEGMENT_PAGES = 64


class OverlapPolicy(WsFilePolicy):
    """Resume immediately; stream the WS concurrently, segment by segment."""

    name = "overlap"
    direct_io = True

    def __init__(self, host: WorkerHost, snapshot: Snapshot,
                 breakdown: LatencyBreakdown,
                 artifacts: Optional[ReapArtifacts] = None) -> None:
        super().__init__(host, snapshot, breakdown, artifacts=artifacts)
        #: WS pages whose segment has not been installed yet.
        self._remaining: set[int] = set()
        #: Per-page events of faults blocked on the in-flight transfer.
        self._waiters: dict[int, Event] = {}
        self._stream_proc: Optional[Process] = None
        self._done: Optional[Event] = None

    def prepare(self, vm: MicroVM) -> Generator[Event, Any, None]:
        env = self.host.env
        started = env.now
        trace = yield from self._load_trace()
        # Only the trace read is on the critical path; the WS transfer
        # itself overlaps execution (accounted in overlap_stream_us).
        self.breakdown.fetch_ws_us = env.now - started
        pages = list(trace.pages)
        self._remaining = set(pages)
        self._done = env.event()
        self._stream_proc = env.process(
            self._stream(vm, pages), name=f"overlap-stream:{vm.name}")

    def _stream(self, vm: MicroVM,
                pages: list[int]) -> Generator[Event, Any, None]:
        env = self.host.env
        ws = self.artifacts.working_set
        started = env.now
        full_content = vm.memory.content_mode is ContentMode.FULL
        tracer = obs_tracer.ACTIVE
        span = None
        if tracer is not None:
            span = tracer.begin("prefetch_overlap", started,
                                lane=f"overlap:{vm.name}",
                                proc=self.obs_proc, cat="policy",
                                args={"pages": len(pages),
                                      "segment_pages": SEGMENT_PAGES})
        installed = 0
        try:
            for start in range(0, len(pages), SEGMENT_PAGES):
                segment = pages[start:start + SEGMENT_PAGES]
                nbytes = len(segment) * PAGE_SIZE
                yield from self.host.page_cache.read(
                    ws.file, start * PAGE_SIZE, nbytes,
                    direct=self.direct_io)
                install_us = self.host.install_batch_us(
                    len(contiguous_runs(segment)), nbytes)
                yield env.timeout(install_us)
                if full_content:
                    data = [ws.page_content(start + slot)
                            for slot in range(len(segment))]
                else:
                    data = None
                self.uffd.copy_batch(segment, data)
                installed += len(segment)
                self._arrived(segment)
        except Interrupt:
            # Torn down mid-stream (crash, eviction): release everyone
            # blocked on the transfer; the fall-through below still runs.
            pass
        finally:
            self._release_all()
            self.breakdown.prefetched_pages = installed
            self.breakdown.extra["overlap_stream_us"] = env.now - started
            if not self._done.triggered:
                self._done.succeed()
            if tracer is not None:
                tracer.end(span, env.now, args={"installed": installed})

    def _arrived(self, segment: list[int]) -> None:
        remaining = self._remaining
        waiters = self._waiters
        for page in segment:
            remaining.discard(page)
            waiter = waiters.pop(page, None)
            if waiter is not None:
                waiter.succeed()

    def _release_all(self) -> None:
        """Wake every blocked fault; never-streamed pages demand-fault."""
        self._remaining.clear()
        waiters = self._waiters
        self._waiters = {}
        for waiter in waiters.values():
            waiter.succeed()

    def fault_handler(self, vm: MicroVM) -> FaultHandler:
        if self.uffd is None:
            raise RuntimeError(f"{self.name}: attach() not called")
        uffd = self.uffd
        memory = vm.memory
        env = self.host.env
        breakdown = self.breakdown
        remaining = self._remaining
        waiters = self._waiters

        def handler(page: int) -> Generator[Event, Any, None]:
            if page in remaining:
                # Blocked on the in-flight transfer, not a fresh read.
                breakdown.extra["overlap_blocked_faults"] = (
                    breakdown.extra.get("overlap_blocked_faults", 0) + 1)
                waiter = waiters.get(page)
                if waiter is None:
                    waiter = env.event()
                    waiters[page] = waiter
                yield waiter
                if memory.is_present(page):
                    return
                # Stream aborted before this page: fall through.
            wake = uffd.raise_fault(page)
            yield wake

        return handler

    def inline_fault_handler(self, vm: MicroVM) -> InlineFaultHandler:
        serve_in_place = super().inline_fault_handler(vm)
        remaining = self._remaining

        def handler(page: int) -> bool:
            # A page still streaming waits on the transfer, never in place.
            return page not in remaining and serve_in_place(page)

        return handler

    def finish(self, vm: MicroVM) -> Generator[Event, Any, None]:
        # The invocation may outrun the tail of the stream (the last
        # segments carry pages it never touched); drain it before the
        # monitor stops so the instance parks with no transfer in flight.
        if self._stream_proc is not None and self._stream_proc.is_alive:
            yield self._done
        result = yield from super().finish(vm)
        return result

    def on_teardown(self) -> None:
        proc = self._stream_proc
        if proc is not None and proc.is_alive:
            proc.interrupt("teardown")
