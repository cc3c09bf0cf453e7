"""Every restore policy, and the cold-start policy zoo beyond vanilla/REAP.

:data:`POLICIES` is the registry of all restore policies: the paper's
five (:mod:`repro.core.policies`) and the ``floor_study`` schemes that
are policies of their own -- prefetch/resume overlap, cross-generation
working-set prediction and co-resident chunk sharing.  The orchestrator
resolves a mode name to its class through it, and
:meth:`repro.core.manager.ReapManager.policy_for` builds the instance.
The per-worker :class:`ColdStartPolicyLayer` picks the scheme and runs
periodicity-driven prewarm, the one scheme that is not a policy.
"""

from __future__ import annotations

from repro.core.policies import (
    ParallelPfPolicy,
    ReapPolicy,
    RecordPolicy,
    RestorePolicy,
    VanillaPolicy,
    WsFilePolicy,
)
from repro.policies.layer import (
    SCHEMES,
    ColdStartPolicyLayer,
    PolicyLayerParameters,
)
from repro.policies.overlap import OverlapPolicy
from repro.policies.predict import PredictPolicy
from repro.policies.prewarm import PrewarmManager
from repro.policies.shared import SharedPolicy, SharedResidency

#: Every restore policy class; ``invoke(mode=...)`` takes their names.
POLICIES: tuple[type[RestorePolicy], ...] = (
    VanillaPolicy, RecordPolicy, ParallelPfPolicy, WsFilePolicy, ReapPolicy,
    OverlapPolicy, PredictPolicy, SharedPolicy)

_BY_NAME = {policy.name: policy for policy in POLICIES}


def policy_class(name: str) -> type[RestorePolicy]:
    """The registered policy class called ``name``."""
    try:
        return _BY_NAME[name]
    except KeyError:
        known = ", ".join(sorted(_BY_NAME))
        raise KeyError(f"unknown policy {name!r}; known: {known}") from None


__all__ = [
    "POLICIES",
    "SCHEMES",
    "ColdStartPolicyLayer",
    "OverlapPolicy",
    "PolicyLayerParameters",
    "PredictPolicy",
    "PrewarmManager",
    "SharedPolicy",
    "SharedResidency",
    "policy_class",
]
