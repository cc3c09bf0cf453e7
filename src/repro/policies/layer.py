"""The cold-start policy layer: scheme selection and its side state.

Every :class:`~repro.orchestrator.orchestrator.Orchestrator` owns one
:class:`ColdStartPolicyLayer`.  The layer maps the auto-selected restore
mode to the worker's scheme, installs the ``shared`` scheme's chunk
residency on the REAP manager, and runs the ``prewarm`` timers.  The
policies themselves are built by
:meth:`repro.core.manager.ReapManager.policy_for` like every other
restore policy.  The default scheme, ``reap``, changes nothing.

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

from repro.policies.prewarm import PrewarmManager
from repro.policies.shared import SharedResidency

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.orchestrator.orchestrator import Orchestrator

#: Every scheme the layer accepts (the floor_study zoo).
SCHEMES: tuple[str, ...] = ("vanilla", "reap", "overlap", "predict",
                            "shared", "prewarm")

#: Schemes that run the restore policy of the same name in place of an
#: auto-selected ``reap`` restore.
_COLD_PATH_SCHEMES = ("overlap", "predict", "shared")


@dataclass(frozen=True)
class PolicyLayerParameters:
    """Cell-param-friendly configuration of the policy layer."""

    #: Which scheme this worker runs (see :data:`SCHEMES`).
    scheme: str = "reap"
    #: Warm-pool footprint cap enforced on speculative instances.
    memory_budget_mb: float = 1024.0

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
        orchestrator.reap.residency = self.residency
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

    # -- feedback ---------------------------------------------------------

    def observe_invocation(self, name: str, arrived_at: float) -> None:
        """Feed one arrival (warm or cold) to the prewarm histograms."""
        if self.prewarm is not None:
            self.prewarm.observe(name, arrived_at)

    def stop(self) -> None:
        """Cancel background work (prewarm timers); end-of-cell drain."""
        if self.prewarm is not None:
            self.prewarm.stop()
