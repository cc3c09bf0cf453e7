"""Engine profiler: wall-time per event class and process name.

Attributes the dispatch loop's real (host) time to ``(event class,
process name)`` pairs: resuming process ``monitor`` on a ``Timeout``
costs so many microseconds of Python, firing a bare callback on an
``Event`` so many more.  The output is a sorted hotspot table --
which models burn the wall clock, not the simulated one.

Enabled by exporting ``REPRO_PROFILE=1`` before the process starts, or
programmatically via :func:`install` (``bench perf --profile`` does the
latter).  :meth:`repro.sim.engine.Environment.run` reads :data:`ACTIVE`
once per call into a local; when it is ``None`` the only per-event
cost is that local's ``is None`` test in the single dispatch loop.

The profiler reads the host clock, which is exactly what a profiler is
for; results are reported out-of-band and never feed back into
simulated state, so determinism of the simulation is unaffected.
"""

from __future__ import annotations

import os

# Wall-clock policy: profiling measures real dispatch cost by design.
# The readings stay in the profiler report and never reach simulated
# time, RNG streams, or experiment payloads.
from time import perf_counter  # lint: allow[REPRO-D001]
from typing import Optional


class EngineProfiler:
    """Accumulates dispatch counts and wall seconds per hotspot key."""

    def __init__(self) -> None:
        #: ``(event_class, process_name) -> [count, wall_seconds]``.
        self._by_key: dict[tuple[str, str], list] = {}

    def record(self, event_class: str, process_name: str,
               wall_s: float) -> None:
        """Account one dispatched item."""
        entry = self._by_key.get((event_class, process_name))
        if entry is None:
            self._by_key[(event_class, process_name)] = [1, wall_s]
        else:
            entry[0] += 1
            entry[1] += wall_s

    def reset(self) -> None:
        """Drop all accumulated samples."""
        self._by_key = {}

    @property
    def total_events(self) -> int:
        """Dispatched items recorded so far."""
        return sum(entry[0] for entry in self._by_key.values())

    @property
    def total_wall_s(self) -> float:
        """Wall seconds attributed so far."""
        return sum(entry[1] for entry in self._by_key.values())

    def hotspot_rows(self) -> list[dict]:
        """Rows sorted hottest-first (wall time, then count, then key)."""
        total = self.total_wall_s or 1.0
        rows = []
        for (event_class, process_name), (count, wall) in sorted(
                self._by_key.items(),
                key=lambda item: (-item[1][1], -item[1][0], item[0])):
            rows.append({
                "event_class": event_class,
                "process": process_name,
                "events": count,
                "wall_ms": wall * 1e3,
                "share_pct": 100.0 * wall / total,
                "ns_per_event": (wall / count) * 1e9,
            })
        return rows

    def format_table(self) -> str:
        """The hotspot table as aligned text."""
        from repro.analysis.report import format_table

        rows = self.hotspot_rows()
        if not rows:
            return "(no events profiled)"
        header = (f"engine profile: {self.total_events:,} events, "
                  f"{self.total_wall_s * 1e3:.1f} ms dispatch wall time")
        return f"{header}\n{format_table(rows)}"


#: The installed profiler, or ``None``.  ``REPRO_PROFILE=1`` enables it
#: for the whole process; ``bench perf --profile`` installs it in-proc.
ACTIVE: Optional[EngineProfiler] = (
    EngineProfiler() if os.environ.get("REPRO_PROFILE") == "1" else None)


def install(profiler: EngineProfiler | None = None) -> EngineProfiler:
    """Enable profiling; returns the active profiler."""
    global ACTIVE
    ACTIVE = profiler if profiler is not None else EngineProfiler()
    return ACTIVE


def uninstall() -> None:
    """Disable profiling."""
    global ACTIVE
    ACTIVE = None
