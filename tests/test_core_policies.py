"""Tests for restore policies and monitors over the full stack.

These drive cold invocations through the orchestrator in *full-content*
mode on a small function, so every policy is checked not just for timing
but for byte-exact guest memory reconstruction.
"""

from types import SimpleNamespace

import pytest

from repro.core.context import LatencyBreakdown
from repro.core.monitor import RecordMonitor
from repro.functions import FunctionBehavior, FunctionProfile
from repro.memory import BackingMode, ContentMode, GuestMemory, UserFaultFd
from repro.memory.uffd import PageFaultEvent
from repro.orchestrator import Orchestrator
from repro.policies import POLICIES
from repro.policies.overlap import OverlapPolicy
from repro.sim import Environment
from repro.sim.units import PAGE_SIZE
from repro.storage import SimFile
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


@pytest.mark.parametrize("mode", ["vanilla", "ws_file", "reap"])
def test_metadata_cold_start_reads_no_content(mode, monkeypatch):
    """Timed reads charge time only: in metadata mode a restore never
    builds the bytes of the WS file or of the memory file."""
    env, host, orch, profile = make_stack(content=ContentMode.METADATA)
    invoke(env, orch, "tiny")  # record
    watched = {orch.reap.state_for("tiny").artifacts.working_set.file,
               orch.function("tiny").snapshot.memory_file}
    reads = []
    original = SimFile.read

    def counting_read(self, offset, nbytes):
        if self in watched:
            reads.append((self.name, offset, nbytes))
        return original(self, offset, nbytes)

    monkeypatch.setattr(SimFile, "read", counting_read)
    result = invoke(env, orch, "tiny", mode=mode)
    assert result.mode == mode
    assert result.breakdown.total_us > 0
    assert reads == []


# -- uffd faults served in place ---------------------------------------------
#
# ``UffdMonitor.serve_in_place`` must be indistinguishable from the
# vCPU raising the fault and the monitor serving it: same clock, same
# event count, same counters, recorded trace, installs, LRU order and
# device statistics.  When it cannot promise that, it must decline
# having touched nothing.

#: Written pages of the test memory file; the rest are sparse holes.
_WRITTEN = 48


def monitor_world(fastpath=True):
    env = Environment(fastpath=fastpath)
    host = WorkerHost(env, seed=3)
    file = host.filesystem.create("mem", 64 * PAGE_SIZE,
                                  device=host.snapshot_device)
    for block in range(_WRITTEN):
        file.write_block(block, bytes([block + 1]) * PAGE_SIZE)
    memory = GuestMemory(file.size, mode=BackingMode.UFFD,
                         content=ContentMode.FULL, backing_file=file)
    uffd = UserFaultFd(env, memory)
    monitor = RecordMonitor(host, uffd, file, artifact_prefix="test",
                            extra_fault_us=25.0)
    monitor.start()
    env.run()  # the monitor parks on its first read
    return SimpleNamespace(env=env, host=host, file=file, memory=memory,
                           uffd=uffd, monitor=monitor)


def _counters(world):
    monitor, uffd, memory = world.monitor, world.uffd, world.memory
    cache = world.host.page_cache
    return (monitor.demand_faults, monitor.major_faults,
            monitor.zero_faults, list(monitor.recorder.pages),
            uffd.faults_raised, uffd.pages_copied,
            list(memory.install_order),
            {page: memory.read_page(page) for page in memory._present},
            [(version, block) for _file, version, block in cache._cached],
            cache.hits, cache.misses,
            world.host.device.stats.to_dict(),
            world.host.snapshot_device.stats.to_dict())


def live_state(world):
    """Everything a uffd fault may change, inside a process step."""
    env, uffd = world.env, world.uffd
    return (env.now, env._advanced, list(env._immediate), list(env._heap),
            world.monitor._pending_get, list(uffd._events._getters),
            list(uffd._events._items), dict(uffd._pending),
            *_counters(world))


def end_state(world):
    """Everything a uffd fault may change, outside a run."""
    return (world.env.now, world.env.events_processed,
            world.monitor.running, world.uffd.queued_events,
            len(world.uffd._pending), *_counters(world))


def uffd_fault(world, page, in_place=True, prelude=None, fallback=True):
    """Fault ``page`` from a fresh vCPU-like process after ``prelude``.

    With ``in_place``, try ``serve_in_place`` first; on a decline,
    check that it changed nothing, then (with ``fallback``) raise the
    fault and wait for the monitor.  Returns ``serve_in_place``'s answer
    (``None`` without ``in_place``).
    """
    answers = []

    def vcpu():
        if prelude is not None:
            yield from prelude(world)
        if in_place:
            before = live_state(world)
            served = world.monitor.serve_in_place(page)
            answers.append(served)
            if served:
                return
            assert live_state(world) == before
            if not fallback:
                return
        yield world.uffd.raise_fault(page)

    world.env.run(until=world.env.process(vcpu()))
    return answers[0] if answers else None


#: (pages faulted first, faulting page, events of its service)
_UFFD_ACCEPTED = {
    "zero": ((), _WRITTEN + 2, 4),
    "hit": ((0,), 1, 5),
    "major_window4": ((), 0, None),
    "major_window2": ((6,), 4, None),
}


@pytest.mark.parametrize("case", sorted(_UFFD_ACCEPTED))
def test_serve_in_place_matches_the_monitor_round_trip(case):
    warmed, page, events = _UFFD_ACCEPTED[case]
    served, driven = monitor_world(), monitor_world()
    for earlier in warmed:
        uffd_fault(served, earlier, in_place=False)
        uffd_fault(driven, earlier, in_place=False)
    before = served.env.events_processed
    assert uffd_fault(served, page) is True
    uffd_fault(driven, page, in_place=False)
    assert end_state(served) == end_state(driven)
    assert served.monitor.running
    # The vCPU's own bootstrap and completion, plus the service.
    if events is not None:
        assert served.env.events_processed - before == 2 + events


def test_serve_in_place_keeps_the_monitor_parked_on_the_same_read():
    world = monitor_world()
    uffd_fault(world, 0, in_place=False)
    parked = world.monitor._pending_get
    for page in (1, 2, _WRITTEN + 1):
        assert uffd_fault(world, page) is True
    assert world.monitor._pending_get is parked
    assert world.uffd.idle_reader() is parked


def _queued_item(world):
    world.uffd._events._items.append(
        PageFaultEvent(page=9, raised_at=world.env.now))
    return
    yield  # pragma: no cover - makes this a generator


def _pending_fault(world):
    world.uffd._pending[9] = PageFaultEvent(page=9, raised_at=world.env.now)
    return
    yield  # pragma: no cover - makes this a generator


def _second_reader(world):
    world.uffd.read_event()
    return
    yield  # pragma: no cover - makes this a generator


def _shared_read(world):
    def other():
        yield world.monitor._pending_get

    world.env.process(other())
    yield world.env.timeout(1.0)


def _foreign_waiter(world):
    # The read's one callback is not the monitor's loop.
    world.monitor._pending_get._cb = lambda event: None
    return
    yield  # pragma: no cover - makes this a generator


def _closed(world):
    world.uffd.close()
    return
    yield  # pragma: no cover - makes this a generator


def _stopped(world):
    world.monitor.stop()
    yield world.env.timeout(1.0)


def _present(world):
    world.memory.install(3)
    return
    yield  # pragma: no cover - makes this a generator


#: States the round trip would treat differently, or that no protocol
#: step reaches with the monitor parked (a queued item, a pending fault
#: next to a parked read): each guard is checked alone.
_UFFD_DECLINED = {
    "queued_item": _queued_item,
    "pending_fault": _pending_fault,
    "second_reader": _second_reader,
    "shared_read": _shared_read,
    "foreign_waiter": _foreign_waiter,
    "closed_uffd": _closed,
    "stopped_monitor": _stopped,
    "present_page": _present,
}


@pytest.mark.parametrize("case", sorted(_UFFD_DECLINED))
def test_serve_in_place_declines_touching_nothing(case):
    world = monitor_world()
    assert uffd_fault(world, 3, prelude=_UFFD_DECLINED[case],
                      fallback=False) is False


def _busy_monitor(world):
    def other():
        yield world.uffd.raise_fault(0)

    world.env.process(other())
    yield world.env.timeout(1.0)
    assert world.monitor._pending_get is None


@pytest.mark.parametrize("prelude", [None, _busy_monitor],
                         ids=["slow_path", "busy_monitor"])
def test_serve_in_place_declines_and_the_round_trip_serves(prelude):
    fastpath = prelude is not None
    served, driven = monitor_world(fastpath), monitor_world(fastpath)
    assert uffd_fault(served, 5, prelude=prelude) is False
    uffd_fault(driven, 5, in_place=False, prelude=prelude)
    assert end_state(served) == end_state(driven)


def test_serve_in_place_declines_under_a_tiebreak_seed(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE_TIEBREAK", "7")
    served, driven = monitor_world(), monitor_world()
    assert not served.env._fastpath
    for page in (0, 1, _WRITTEN + 1):
        assert uffd_fault(served, page) is False
        uffd_fault(driven, page, in_place=False)
    assert end_state(served) == end_state(driven)


def test_serve_in_place_rejects_a_page_outside_the_region():
    world = monitor_world()

    def vcpu():
        with pytest.raises(ValueError, match="outside region"):
            world.monitor.serve_in_place(64)
        with pytest.raises(ValueError, match="outside region"):
            world.uffd.raise_fault(64)
        yield world.env.timeout(1.0)

    world.env.run(until=world.env.process(vcpu()))
    assert world.uffd.faults_raised == 0


@pytest.mark.parametrize("case", ["zero", "hit", "major_window4"])
def test_serve_in_place_declines_a_heap_entry_due_by_its_end(case):
    warmed, page, _events = _UFFD_ACCEPTED[case]

    def start_at_one(world):
        yield world.env.timeout(1.0)

    reference = monitor_world()
    for earlier in warmed:
        uffd_fault(reference, earlier, in_place=False)
    start = reference.env.now + 1.0
    uffd_fault(reference, page, in_place=False, prelude=start_at_one)
    end = reference.env.now

    def timer_due(at):
        def prelude(world):
            def timer():
                yield world.env.timeout(at - world.env.now)

            world.env.process(timer())
            yield from start_at_one(world)

        return prelude

    for due, accepted in ((end, False), (end - 0.5, False),
                          (end + 0.5, True)):
        world = monitor_world()
        for earlier in warmed:
            uffd_fault(world, earlier, in_place=False)
        assert world.env.now + 1.0 == start
        answer = uffd_fault(world, page, prelude=timer_due(due))
        assert answer is accepted, due
        driven = monitor_world()
        for earlier in warmed:
            uffd_fault(driven, earlier, in_place=False)
        uffd_fault(driven, page, in_place=False, prelude=timer_due(due))
        assert end_state(world) == end_state(driven), due


def test_overlap_never_serves_a_streaming_page_in_place():
    # A page whose segment has not arrived waits on the transfer (the
    # generator handler); only the others may go to the monitor.
    env, host, orch, profile = make_stack(content=ContentMode.METADATA)
    invoke(env, orch, "tiny")  # record
    state = orch.reap.state_for("tiny")
    policy = OverlapPolicy(host, orch.function("tiny").snapshot,
                           LatencyBreakdown(), artifacts=state.artifacts)
    asked = []
    policy.monitor = SimpleNamespace(
        serve_in_place=lambda page: asked.append(page) or True)
    policy._remaining = {5, 6}
    handler = policy.inline_fault_handler(None)
    assert handler(5) is False
    assert handler(7) is True
    policy._remaining.clear()
    assert handler(6) is True
    assert asked == [7, 6]
