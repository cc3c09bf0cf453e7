"""First-touch access traces of function invocations.

An :class:`AccessTrace` is the ordered sequence of guest-physical pages a
function instance touches for the first time during one invocation,
partitioned into the two phases the paper's latency breakdown uses:

* ``CONNECTION`` -- pages touched while the orchestrator re-establishes
  its gRPC connection to the server inside the VM (guest network stack,
  agent code).  Under vanilla snapshots these faults are what makes
  "Connection restoration" so slow; REAP prefetches them, shrinking the
  phase ~45x (§6.3).
* ``PROCESSING`` -- pages touched while the function handler runs.

Traces are pure data; the vCPU model replays them against a
:class:`~repro.memory.guest.GuestMemory` to produce timing.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator, Sequence


class AccessPhase(enum.Enum):
    """Which part of the invocation a page access belongs to."""

    CONNECTION = "connection"
    PROCESSING = "processing"


@dataclass(frozen=True)
class AccessTrace:
    """Ordered unique first-touch pages of one invocation."""

    connection_pages: tuple[int, ...]
    processing_pages: tuple[int, ...]
    #: Guest compute time attributable to each phase, in microseconds
    #: (the time the invocation would take with all pages resident).
    connection_compute_us: float = 0.0
    processing_compute_us: float = 0.0
    label: str = ""

    def __post_init__(self) -> None:
        combined = self.connection_pages + self.processing_pages
        # C-speed duplicate check; walk to name the offender only on
        # failure (one trace is validated per invocation).
        if len(set(combined)) != len(combined):
            seen: set[int] = set()
            for page in combined:
                if page in seen:
                    raise ValueError(
                        f"duplicate page {page} in access trace")
                seen.add(page)

    @classmethod
    def of_distinct_pages(cls, connection_pages: tuple[int, ...],
                          processing_pages: tuple[int, ...],
                          connection_compute_us: float = 0.0,
                          processing_compute_us: float = 0.0,
                          label: str = "") -> "AccessTrace":
        """Build a trace whose pages the caller has shown to be distinct.

        Skips the duplicate check of the constructor, which costs a set
        of every page: :class:`~repro.functions.behavior.FunctionBehavior`
        checks its layout once and each invocation's unique pages
        against it, which gives the same guarantee.
        """
        trace = object.__new__(cls)
        setattr_ = object.__setattr__
        setattr_(trace, "connection_pages", connection_pages)
        setattr_(trace, "processing_pages", processing_pages)
        setattr_(trace, "connection_compute_us", connection_compute_us)
        setattr_(trace, "processing_compute_us", processing_compute_us)
        setattr_(trace, "label", label)
        return trace

    @property
    def pages(self) -> tuple[int, ...]:
        """All pages in access order (connection phase first)."""
        return self.connection_pages + self.processing_pages

    @property
    def page_set(self) -> frozenset[int]:
        """The invocation's working set as a set."""
        return frozenset(self.pages)

    def __len__(self) -> int:
        return len(self.connection_pages) + len(self.processing_pages)

    def iter_phase(self, phase: AccessPhase) -> Iterator[int]:
        """Iterate the pages of one phase in access order."""
        if phase is AccessPhase.CONNECTION:
            return iter(self.connection_pages)
        return iter(self.processing_pages)

    def phase_pages(self, phase: AccessPhase) -> tuple[int, ...]:
        """The pages of one phase."""
        if phase is AccessPhase.CONNECTION:
            return self.connection_pages
        return self.processing_pages

    def phase_compute_us(self, phase: AccessPhase) -> float:
        """The guest compute budget of one phase."""
        if phase is AccessPhase.CONNECTION:
            return self.connection_compute_us
        return self.processing_compute_us


@dataclass
class TraceRecorder:
    """Accumulates a trace while a monitor observes faults (record phase)."""

    pages: list[int] = field(default_factory=list)
    _seen: set[int] = field(default_factory=set)

    def observe(self, page: int) -> bool:
        """Record a fault; returns False if the page repeated."""
        if page in self._seen:
            return False
        self._seen.add(page)
        self.pages.append(page)
        return True

    def as_tuple(self) -> tuple[int, ...]:
        """The recorded first-touch order."""
        return tuple(self.pages)


def merge_traces(traces: Sequence[AccessTrace]) -> frozenset[int]:
    """Union of the working sets of several invocations."""
    merged: set[int] = set()
    for trace in traces:
        merged |= trace.page_set
    return frozenset(merged)
