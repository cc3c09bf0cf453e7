"""vCPU model: replays first-touch access traces with guest compute.

The vCPU walks the pages of one invocation phase in order.  Pages already
present cost nothing beyond their share of guest compute; a missing page
suspends the vCPU and runs the *fault handler* the active restore policy
provided -- the kernel's lazy file path for vanilla snapshots, or a
userfaultfd wait for REAP-managed instances.  This serialization of page
faults with execution is precisely the §4.2 pathology: "page faults are
processed serially because the faulting thread is halted".

A policy whose faults are served by the faulting thread itself (vanilla,
and the anonymous warm path) also supplies an *inline* handler: the vCPU
tries it first, and it serves the fault in place when nothing else could
observe its service (see "Faults served in place" in
``docs/performance.md``).  The generator handler runs only when it
declines.  A uffd policy supplies none: another process, the monitor,
serves its faults.

Guest compute is spread evenly across the phase's accesses, so a phase
with all pages resident takes exactly its warm duration.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional, Sequence

from repro.obs import tracer as obs_tracer
from repro.sim.engine import Environment, Event

#: A fault handler resolves one missing page; driven with ``yield from``.
FaultHandler = Callable[[int], Generator[Event, Any, None]]
#: Resolves one missing page as plain synchronous code when no other
#: process could observe its service; returns ``False``, having changed
#: nothing, when it cannot, and the vCPU then drives the
#: :data:`FaultHandler`.
InlineFaultHandler = Callable[[int], bool]


class VCpu:
    """Single vCPU of a MicroVM (the paper boots 1-vCPU instances)."""

    def __init__(self, env: Environment) -> None:
        self.env = env
        #: Faults taken across all phases executed by this vCPU.
        self.faults_taken = 0

    def execute_phase(self, memory, pages: Sequence[int], compute_us: float,
                      fault_handler: FaultHandler | None,
                      obs_lane: Optional[str] = None,
                      obs_proc: str = "worker0",
                      inline_handler: InlineFaultHandler | None = None,
                      ) -> Generator[Event, Any, None]:
        """Run one invocation phase.

        ``pages`` is the phase's first-touch sequence; ``compute_us`` the
        guest compute budget for the phase.  ``fault_handler`` resolves
        missing pages; ``None`` asserts that none can occur (warm path).
        ``inline_handler``, when given, is tried first for each missing
        page, and ``fault_handler`` runs only when it declines.
        ``obs_lane``/``obs_proc`` name the trace lane for fault-window
        spans when the span tracer is installed.
        """
        if compute_us < 0:
            raise ValueError(f"negative compute budget: {compute_us}")
        env = self.env
        if not pages:
            if compute_us > 0 and not env.advance(compute_us):
                yield env.timeout(compute_us)
            return
        # A *fault window* is a maximal run of consecutive missing pages:
        # one span per window (not per fault) keeps traces readable while
        # still showing exactly where the §4.2 serial-fault pathology
        # bites.  A window closes lazily, at the next fault that does not
        # continue it or at phase end, at the time after its last fault
        # (present pages never move the clock), so the tracer costs two
        # branches per fault and nothing per present page.
        tracer = obs_tracer.ACTIVE if obs_lane is not None else None
        window = None
        window_faults = 0
        per_access = compute_us / len(pages)
        # Hot loop: hoist the present-set, the clock advance and the
        # timeout factory so the all-resident case costs one set lookup
        # and one float add per page.  ``since`` is the compute
        # accumulated since the last fault, an incremental sum (not
        # ``per_access * n``) so timeout values are bit-identical to the
        # reference loop.  With no compute budget it counts accesses
        # instead and no compute is yielded; either way ``since == step``
        # at a fault exactly when the previous page faulted too.
        step = per_access or 1.0
        since = 0.0
        present = memory._present
        advance = env.advance
        timeout = env.timeout
        for page in pages:
            since += step
            if page in present:
                continue
            if fault_handler is None:
                raise RuntimeError(
                    f"page {page} missing during warm execution")
            if tracer is not None and window is not None and since != step:
                tracer.end(window, env.now, args={"faults": window_faults})
                window = None
            if per_access and not advance(since):
                yield timeout(since)
            since = 0.0
            if tracer is not None:
                if window is None:
                    window = tracer.begin("fault_window", env.now,
                                          lane=obs_lane, proc=obs_proc,
                                          cat="paging")
                    window_faults = 0
                window_faults += 1
            self.faults_taken += 1
            if inline_handler is None or not inline_handler(page):
                yield from fault_handler(page)
        if window is not None:
            tracer.end(window, env.now, args={"faults": window_faults})
        if per_access and since > 0.0 and not advance(since):
            yield timeout(since)
