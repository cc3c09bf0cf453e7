"""Tests for restore policies and monitors over the full stack.

These drive cold invocations through the orchestrator in *full-content*
mode on a small function, so every policy is checked not just for timing
but for byte-exact guest memory reconstruction.
"""

import pytest

from repro.functions import FunctionBehavior, FunctionProfile
from repro.memory import ContentMode
from repro.orchestrator import Orchestrator
from repro.policies import POLICIES
from repro.sim import Environment
from repro.vm import WorkerHost


def tiny_profile(**overrides):
    defaults = dict(
        name="tiny",
        description="tiny function for policy tests",
        vm_memory_mb=32,
        boot_footprint_mb=4.0,
        warm_ms=2.0,
        connection_pages=40,
        processing_pages=80,
        unique_pages=12,
        unique_zero_fraction=0.5,
        contiguity_mean=2.3,
    )
    defaults.update(overrides)
    return FunctionProfile(**defaults)


def make_stack(content=ContentMode.FULL, profile=None):
    env = Environment()
    host = WorkerHost(env, seed=3)
    orch = Orchestrator(host, seed=3, content=content)
    profile = profile or tiny_profile()
    proc = env.process(orch.deploy(profile))
    env.run(until=proc)
    return env, host, orch, profile


def invoke(env, orch, name, **kwargs):
    proc = env.process(orch.invoke(name, **kwargs))
    return env.run(until=proc)


def test_policy_registry_complete():
    assert [policy.name for policy in POLICIES] == [
        "vanilla", "record", "parallel_pf", "ws_file", "reap",
        "overlap", "predict", "shared"]


def test_unknown_mode_raises_key_error_listing_known_names():
    env, host, orch, profile = make_stack()
    with pytest.raises(KeyError) as raised:
        invoke(env, orch, "tiny", mode="nope")
    message = str(raised.value)
    assert "'nope'" in message
    for policy in POLICIES:
        assert policy.name in message


def test_vanilla_restores_exact_content():
    env, host, orch, profile = make_stack()
    result = invoke(env, orch, "tiny", mode="vanilla", keep_warm=True)
    vm = orch.function("tiny").warm[0].vm
    snapshot = orch.function("tiny").snapshot
    for page in result.trace.pages:
        assert vm.memory.is_present(page)
        assert vm.memory.read_page(page) == \
            snapshot.memory_file.read_block(page)


@pytest.mark.parametrize("mode", ["reap", "ws_file", "parallel_pf"])
def test_prefetch_policies_restore_exact_content(mode):
    env, host, orch, profile = make_stack()
    invoke(env, orch, "tiny")  # record
    result = invoke(env, orch, "tiny", mode=mode, keep_warm=True)
    vm = orch.function("tiny").warm[0].vm
    snapshot = orch.function("tiny").snapshot
    boundary = profile.boot_footprint_pages
    for page in result.trace.pages:
        assert vm.memory.is_present(page)
        if page < boundary:
            assert vm.memory.read_page(page) == \
                snapshot.memory_file.read_block(page)
        else:
            # Fresh allocations are zero-filled.
            assert vm.memory.read_page(page) == bytes(4096)


def test_record_produces_artifacts_covering_trace():
    env, host, orch, profile = make_stack()
    result = invoke(env, orch, "tiny")
    assert result.mode == "record"
    state = orch.reap.state_for("tiny")
    assert state.artifacts is not None
    assert state.artifacts.page_set == result.trace.page_set
    # Artifact files exist on the host filesystem.
    assert host.filesystem.exists(state.artifacts.trace.file.name)
    assert host.filesystem.exists(state.artifacts.working_set.file.name)


def test_record_ws_file_content_matches_memory_file():
    env, host, orch, profile = make_stack()
    invoke(env, orch, "tiny")
    state = orch.reap.state_for("tiny")
    snapshot = orch.function("tiny").snapshot
    ws = state.artifacts.working_set
    for slot, page in enumerate(ws.pages):
        assert ws.page_content(slot) == snapshot.memory_file.read_block(page)


def test_reap_serves_only_unique_pages_as_demand_faults():
    env, host, orch, profile = make_stack()
    invoke(env, orch, "tiny")  # record
    result = invoke(env, orch, "tiny")  # reap
    assert result.mode == "reap"
    breakdown = result.breakdown
    # Prefetched everything from the record; only unique pages fault.
    assert breakdown.prefetched_pages == profile.stable_pages + \
        profile.unique_pages
    assert breakdown.demand_faults <= profile.unique_pages + 2
    assert breakdown.demand_faults >= profile.unique_pages - 2


def test_reap_eliminates_most_faults_vs_vanilla():
    env, host, orch, profile = make_stack()
    vanilla = invoke(env, orch, "tiny", mode="vanilla").breakdown
    invoke(env, orch, "tiny")  # record
    reap = invoke(env, orch, "tiny").breakdown
    # Paper: REAP eliminates ~97 % of page faults on average.
    assert reap.demand_faults < 0.2 * vanilla.demand_faults
    assert reap.total_us < vanilla.total_us


def test_policies_forcing_requires_artifacts():
    env, host, orch, profile = make_stack()
    with pytest.raises(RuntimeError, match="no recorded artifacts"):
        invoke(env, orch, "tiny", mode="reap")


def test_monitor_stops_after_invocation():
    env, host, orch, profile = make_stack()
    invoke(env, orch, "tiny")
    result = invoke(env, orch, "tiny", keep_warm=False)
    assert result.mode == "reap"
    env.run()  # drain: no monitor may be left alive spinning
    # The instance was torn down; a fresh cold start still works.
    result2 = invoke(env, orch, "tiny")
    assert result2.mode == "reap"


def test_unused_prefetched_counted():
    profile = tiny_profile(record_divergence=0.5, unique_pages=0)
    env, host, orch, _ = make_stack(profile=profile)
    invoke(env, orch, "tiny")  # record with divergent working set
    result = invoke(env, orch, "tiny")
    # About half the recorded processing pages were never touched.
    assert result.breakdown.unused_prefetched > 0
    assert result.breakdown.demand_faults > 0


def test_metadata_mode_runs_all_policies():
    env, host, orch, profile = make_stack(content=ContentMode.METADATA)
    vanilla = invoke(env, orch, "tiny", mode="vanilla")
    invoke(env, orch, "tiny")
    reap = invoke(env, orch, "tiny")
    pf = invoke(env, orch, "tiny", mode="parallel_pf")
    ws = invoke(env, orch, "tiny", mode="ws_file")
    assert vanilla.breakdown.total_us > reap.breakdown.total_us
    assert pf.breakdown.total_us > 0
    assert ws.breakdown.total_us > 0


def test_timing_identical_between_content_modes():
    """Content tracking must not change simulated time."""
    times = {}
    for content in (ContentMode.FULL, ContentMode.METADATA):
        env, host, orch, profile = make_stack(content=content)
        invoke(env, orch, "tiny", mode="vanilla")
        invoke(env, orch, "tiny")
        reap = invoke(env, orch, "tiny")
        times[content] = reap.breakdown.total_us
    assert times[ContentMode.FULL] == pytest.approx(
        times[ContentMode.METADATA])
