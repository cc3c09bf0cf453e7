"""Periodicity-driven speculative prewarm (hybrid-histogram style).

The Azure trace analysis behind the hybrid-histogram keep-alive policy
(Shahrad et al.; the trace synthesizer's ``periodic`` class) shows a
large population of functions with strongly periodic inter-arrival
times.  The ``prewarm`` scheme layers speculation over the keep-alive
defaults: per function, a log2-bucketed histogram of observed gaps is
maintained; once one bucket clearly dominates, the next arrival is
predicted as the median gap of that bucket and an instance is restored
(through the regular REAP path, connection phase included) shortly
*before* the predicted arrival -- which then hits warm.

Speculative instances respect the scheme's memory budget: a prewarm
that would push the worker's warm-pool footprint past
``memory_budget_mb`` is skipped, keeping the floor study's
equal-memory-budget comparison honest.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional

from repro.obs import tracer as obs_tracer
from repro.sim.engine import Event, Interrupt, Process
from repro.sim.units import MIB, SEC

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.orchestrator.orchestrator import Orchestrator
    from repro.policies.layer import PolicyLayerParameters

#: How long before the predicted arrival a prewarm fires, seconds.
MARGIN_S = 2.0
#: Gap observations required before predicting.
MIN_SAMPLES = 3
#: Fraction of gaps the dominant bucket must hold.
TOP_FRACTION = 0.5
#: Gap observations retained per function.
GAP_HISTORY = 64


class PrewarmManager:
    """Per-function gap histograms driving speculative restores."""

    def __init__(self, orchestrator: "Orchestrator",
                 params: "PolicyLayerParameters") -> None:
        self.orchestrator = orchestrator
        self.params = params
        self._last_arrival: dict[str, float] = {}
        self._gaps: dict[str, list[float]] = {}
        self._timers: dict[str, Process] = {}
        #: Speculative restores actually performed.
        self.prewarms = 0
        #: Predictions skipped for budget or an already-warm pool.
        self.skipped = 0

    # -- observation ------------------------------------------------------

    def observe(self, name: str, arrived_at: float) -> None:
        """Feed one arrival; may (re)schedule the function's timer."""
        last = self._last_arrival.get(name)
        self._last_arrival[name] = arrived_at
        if last is None:
            return
        gap = arrived_at - last
        if gap <= 0.0:
            return
        gaps = self._gaps.setdefault(name, [])
        gaps.append(gap)
        del gaps[:-GAP_HISTORY]
        predicted = self._predict_gap(gaps)
        if predicted is None:
            return
        self._schedule(name, arrived_at + predicted)

    def _predict_gap(self, gaps: list[float]) -> Optional[float]:
        """Median gap of the dominant log2 bucket, if one dominates."""
        if len(gaps) < MIN_SAMPLES:
            return None
        buckets: dict[int, list[float]] = {}
        for gap in gaps:
            buckets.setdefault(int(gap).bit_length(), []).append(gap)
        # Deterministic tie-break: the smallest dominant bucket wins.
        top_key = min(buckets,
                      key=lambda key: (-len(buckets[key]), key))
        top = buckets[top_key]
        if len(top) < TOP_FRACTION * len(gaps):
            return None
        ordered = sorted(top)
        return ordered[len(ordered) // 2]

    # -- timers -----------------------------------------------------------

    def _schedule(self, name: str, predicted_arrival: float) -> None:
        fire_at = predicted_arrival - MARGIN_S * SEC
        env = self.orchestrator.env
        if fire_at <= env.now:
            return
        old = self._timers.get(name)
        if old is not None and old.is_alive:
            old.interrupt("rescheduled")
        self._timers[name] = env.process(
            self._timer(name, fire_at), name=f"prewarm-timer:{name}")

    def _timer(self, name: str,
               fire_at: float) -> Generator[Event, None, None]:
        env = self.orchestrator.env
        try:
            yield env.timeout(fire_at - env.now)
        except Interrupt:
            return
        orchestrator = self.orchestrator
        if not orchestrator.has_function(name):
            return
        if orchestrator.function(name).warm:
            self.skipped += 1
            return
        if not self._budget_allows(name):
            self.skipped += 1
            tracer = obs_tracer.ACTIVE
            if tracer is not None:
                tracer.instant("prewarm_skipped", env.now, lane="prewarm",
                               proc=orchestrator.obs_proc, cat="policy",
                               args={"function": name,
                                     "reason": "memory_budget"})
            return
        try:
            warmed = yield from orchestrator.prewarm(name)
        except Interrupt:
            # Torn down mid-restore (cell drain, crash): the prewarm
            # path already released the instance and its pins.
            return
        if warmed:
            self.prewarms += 1

    def _budget_allows(self, name: str) -> bool:
        budget_bytes = self.params.memory_budget_mb * MIB
        orchestrator = self.orchestrator
        used = 0
        for deployed in orchestrator.deployed_names():
            entry = orchestrator.function(deployed)
            used += len(entry.warm) * entry.profile.boot_footprint_bytes
        incoming = orchestrator.function(name).profile.boot_footprint_bytes
        return used + incoming <= budget_bytes

    def stop(self) -> None:
        """Interrupt every live timer (end-of-cell drain)."""
        for timer in self._timers.values():
            if timer.is_alive:
                timer.interrupt("stopped")
        self._timers.clear()
