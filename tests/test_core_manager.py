"""Tests for the REAP manager: mode selection and §7.2 fallback."""

import pytest

from repro.core.manager import ReapManager, ReapParameters
from repro.functions import FunctionProfile
from repro.memory import ContentMode
from repro.orchestrator import Orchestrator
from repro.sim import Environment
from repro.vm import SnapshotStore, WorkerHost


def unstable_profile(divergence=0.9):
    return FunctionProfile(
        name="unstable",
        description="working set never repeats",
        vm_memory_mb=32,
        boot_footprint_mb=4.0,
        warm_ms=2.0,
        connection_pages=30,
        processing_pages=100,
        unique_pages=10,
        contiguity_mean=2.2,
        record_divergence=divergence,
    )


def stable_profile():
    return FunctionProfile(
        name="stable",
        description="well-behaved function",
        vm_memory_mb=32,
        boot_footprint_mb=4.0,
        warm_ms=2.0,
        connection_pages=30,
        processing_pages=100,
        unique_pages=3,
        contiguity_mean=2.2,
    )


def make_orch(profile, params=None):
    env = Environment()
    host = WorkerHost(env, seed=9)
    orch = Orchestrator(host, seed=9, content=ContentMode.METADATA,
                        reap_params=params)
    env.run(until=env.process(orch.deploy(profile)))
    return env, orch


def invoke(env, orch, name, **kwargs):
    return env.run(until=env.process(orch.invoke(name, **kwargs)))


def test_mode_progression_record_then_reap():
    env, orch = make_orch(stable_profile())
    assert orch.reap.mode_for("stable") == "record"
    first = invoke(env, orch, "stable")
    assert first.mode == "record"
    assert orch.reap.mode_for("stable") == "reap"
    second = invoke(env, orch, "stable")
    assert second.mode == "reap"


def test_stable_function_never_falls_back():
    env, orch = make_orch(stable_profile())
    for _ in range(6):
        invoke(env, orch, "stable")
    state = orch.reap.state_for("stable")
    assert not state.fallback_to_vanilla
    assert state.re_records == 0
    assert state.history.count("reap") == 5


def test_unstable_function_re_records_then_falls_back():
    params = ReapParameters(mispredict_threshold=0.3,
                            mispredict_streak_limit=2, max_re_records=1)
    env, orch = make_orch(unstable_profile(), params)
    modes = [invoke(env, orch, "unstable").mode for _ in range(8)]
    state = orch.reap.state_for("unstable")
    assert state.re_records == 1
    assert state.fallback_to_vanilla
    # record -> reap, reap (mispredicting) -> record again -> reap, reap
    # -> vanilla forever.
    assert modes[0] == "record"
    assert modes[3] == "record"
    assert modes[-1] == "vanilla"


def test_streak_resets_on_good_invocation():
    manager_params = ReapParameters(mispredict_threshold=0.3,
                                    mispredict_streak_limit=3)
    env, orch = make_orch(stable_profile(), manager_params)
    invoke(env, orch, "stable")
    for _ in range(4):
        invoke(env, orch, "stable")
    assert orch.reap.state_for("stable").mispredict_streak == 0


def test_policy_for_rejects_prefetch_without_artifacts():
    env, orch = make_orch(stable_profile())
    snapshot = orch.function("stable").snapshot
    from repro.core.context import LatencyBreakdown
    from repro.core.policies import WsFilePolicy
    with pytest.raises(RuntimeError):
        orch.reap.policy_for(snapshot, LatencyBreakdown(), WsFilePolicy)


def test_manager_state_isolated_per_function():
    host = WorkerHost(Environment())
    manager = ReapManager(host, SnapshotStore(host))
    state_a = manager.state_for("a")
    state_b = manager.state_for("b")
    assert state_a is not state_b
    assert manager.state_for("a") is state_a
