"""The pluggable cold-start policy layer (scheme registry + wiring).

An :class:`~repro.orchestrator.orchestrator.Orchestrator` built with
``policy_params`` owns one :class:`ColdStartPolicyLayer`; the layer
intercepts automatic restore-mode selection, builds the scheme-specific
policies, and feeds completed invocations back into the scheme's state
(prediction history, prewarm histograms).  Without ``policy_params``
(the default everywhere) the orchestrator never touches this module --
the golden-digest tests pin that the layer is zero-cost when off.

Schemes, all layered over the REAP record/prefetch machinery:

==============  =========================================================
``vanilla``     No layer behavior (baseline; comparison convenience)
``reap``        No layer behavior (full REAP, §5.2)
``overlap``     Prefetch/resume overlap (:mod:`repro.policies.overlap`)
``predict``     Cross-generation WS prediction (:mod:`repro.policies.predict`)
``shared``      Co-resident chunk sharing (:mod:`repro.policies.shared`)
``prewarm``     Periodicity-driven speculation (:mod:`repro.policies.prewarm`)
==============  =========================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.core.context import LatencyBreakdown
from repro.core.manager import WS_HISTORY_LIMIT
from repro.core.policies import RestorePolicy
from repro.policies.overlap import OverlapPolicy
from repro.policies.predict import PredictPolicy
from repro.policies.prewarm import PrewarmManager
from repro.policies.shared import SharedPolicy, SharedResidency
from repro.vm.snapshot import Snapshot

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.orchestrator.orchestrator import Orchestrator

#: Every scheme the layer accepts (the floor_study zoo).
SCHEMES: tuple[str, ...] = ("vanilla", "reap", "overlap", "predict",
                            "shared", "prewarm")

#: Schemes that replace the auto-selected prefetch policy.
_COLD_PATH_SCHEMES = ("overlap", "predict", "shared")


@dataclass(frozen=True)
class PolicyLayerParameters:
    """Cell-param-friendly configuration of the policy layer."""

    #: Which scheme this worker runs (see :data:`SCHEMES`).
    scheme: str = "reap"
    #: Warm-pool footprint cap enforced on speculative instances.
    memory_budget_mb: float = 1024.0
    #: Pages per background-stream segment (``overlap``).
    overlap_segment_pages: int = 64
    #: Prior generations unioned into the prediction (``predict``).
    predict_window: int = 3
    #: How long before the predicted arrival a prewarm fires, seconds.
    prewarm_margin_s: float = 2.0
    #: Gap observations required before predicting (``prewarm``).
    prewarm_min_samples: int = 3
    #: Fraction of gaps the dominant bucket must hold (``prewarm``).
    prewarm_top_fraction: float = 0.5
    #: Gap observations retained per function (``prewarm``).
    prewarm_history: int = 64

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            known = ", ".join(SCHEMES)
            raise ValueError(
                f"unknown policy scheme {self.scheme!r}; known: {known}")

    def to_params(self) -> dict[str, object]:
        """JSON-serializable form for experiment cell params."""
        return {"scheme": self.scheme,
                "memory_budget_mb": self.memory_budget_mb}


class ColdStartPolicyLayer:
    """Scheme dispatch and feedback loops of one worker's orchestrator."""

    def __init__(self, orchestrator: "Orchestrator",
                 params: PolicyLayerParameters) -> None:
        self.orchestrator = orchestrator
        self.params = params
        self.residency: Optional[SharedResidency] = (
            SharedResidency() if params.scheme == "shared" else None)
        self.prewarm: Optional[PrewarmManager] = (
            PrewarmManager(orchestrator, params)
            if params.scheme == "prewarm" else None)

    # -- mode selection ---------------------------------------------------

    def select_mode(self, name: str, selected: str) -> str:
        """Map the auto-selected mode to this layer's scheme.

        Only the prefetch decision is overridden: ``record`` (no
        artifacts yet) and ``vanilla`` (fallback) pass through, so the
        §7.2 state machine keeps working underneath every scheme.
        """
        if self.params.scheme in _COLD_PATH_SCHEMES and selected == "reap":
            return self.params.scheme
        return selected

    # -- policy construction ----------------------------------------------

    def policy_for(self, snapshot: Snapshot, breakdown: LatencyBreakdown,
                   mode: str) -> RestorePolicy:
        """Build the policy for ``mode``; base modes delegate to REAP."""
        reap = self.orchestrator.reap
        if mode not in _COLD_PATH_SCHEMES:
            return reap.policy_for(snapshot, breakdown, mode)
        state = reap.state_for(snapshot.function_name)
        artifacts = state.artifacts
        if artifacts is None:
            raise RuntimeError(
                f"{snapshot.function_name}: no recorded artifacts for "
                f"policy {mode!r}")
        policy: RestorePolicy
        if mode == "overlap":
            policy = OverlapPolicy(
                reap.host, snapshot, breakdown, artifacts=artifacts,
                segment_pages=self.params.overlap_segment_pages)
        elif mode == "predict":
            policy = PredictPolicy(
                reap.host, snapshot, breakdown, artifacts=artifacts,
                predicted_extra=self._predicted_extra(state, artifacts))
        else:
            policy = SharedPolicy(
                reap.host, snapshot, breakdown, artifacts=artifacts,
                residency=self.residency)
        policy.obs_proc = self.orchestrator.obs_proc
        return policy

    def _predicted_extra(self, state, artifacts) -> tuple[int, ...]:
        window = state.ws_history[-self.params.predict_window:]
        if not window:
            return ()
        union: set[int] = set().union(*window)
        return tuple(sorted(union - set(artifacts.page_set)))

    # -- feedback ---------------------------------------------------------

    def observe_complete(self, name: str, policy: RestorePolicy) -> None:
        """Fold one finished cold invocation into scheme state."""
        if policy.name != "predict":
            return
        demanded = getattr(policy, "demanded_pages", None)
        if demanded:
            state = self.orchestrator.reap.state_for(name)
            state.ws_history.append(frozenset(demanded))
            del state.ws_history[:-WS_HISTORY_LIMIT]

    def observe_invocation(self, name: str, arrived_at: float) -> None:
        """Feed one arrival (warm or cold) to the prewarm histograms."""
        if self.prewarm is not None:
            self.prewarm.observe(name, arrived_at)

    def stop(self) -> None:
        """Cancel background work (prewarm timers); end-of-cell drain."""
        if self.prewarm is not None:
            self.prewarm.stop()
