"""Tests for the host page cache: fault path, buffered reads, O_DIRECT."""

from types import SimpleNamespace

import pytest

from repro.sim import Environment
from repro.sim.units import MIB, PAGE_SIZE
from repro.storage import (
    Filesystem,
    HddDevice,
    HostPageCache,
    PageCacheParameters,
    RemoteDevice,
    SsdDevice,
    ThinPoolDevice,
)


def make_host(params=None):
    env = Environment()
    ssd = SsdDevice(env)
    fs = Filesystem(ssd)
    cache = HostPageCache(env, params)
    original_create = fs.create

    def create_written(name, size, **kwargs):
        file = original_create(name, size, **kwargs)
        file.mark_written_blocks(range(file.block_count))
        return file

    fs.create = create_written
    return env, ssd, fs, cache


def run(env, generator):
    proc = env.process(generator)
    start = env.now
    value = env.run(until=proc)
    return env.now - start, value


def test_fault_miss_then_hit():
    env, _ssd, fs, cache = make_host()
    file = fs.create("mem", 1 * MIB)
    miss_time, was_major = run(env, cache.fault_in(file, 0))
    assert was_major
    assert miss_time > 100  # device read dominates
    hit_time, was_major = run(env, cache.fault_in(file, 0))
    assert not was_major
    assert hit_time == pytest.approx(cache.params.hit_us)


def test_fault_readahead_window_caches_neighbours():
    env, _ssd, fs, cache = make_host()
    file = fs.create("mem", 1 * MIB)
    run(env, cache.fault_in(file, 10))
    window = cache.params.mmap_readahead_pages
    for index in range(10, 10 + window):
        assert cache.is_cached(file, index)
    assert not cache.is_cached(file, 10 + window)
    # Neighbour faults are now minor.
    _t, was_major = run(env, cache.fault_in(file, 11))
    assert not was_major


def test_fault_window_clipped_at_file_end():
    env, _ssd, fs, cache = make_host()
    file = fs.create("tiny", 2 * PAGE_SIZE)
    run(env, cache.fault_in(file, 1))
    assert cache.is_cached(file, 1)
    assert cache.cached_pages == 1


def test_fault_window_stops_at_cached_page():
    env, _ssd, fs, cache = make_host()
    file = fs.create("mem", 1 * MIB)
    run(env, cache.fault_in(file, 5))  # caches 5..8
    cache_size_before = cache.cached_pages
    run(env, cache.fault_in(file, 3))  # window 3,4 then stops at cached 5
    assert cache.cached_pages == cache_size_before + 2


def test_drop_caches_forces_major_faults_again():
    env, _ssd, fs, cache = make_host()
    file = fs.create("mem", 1 * MIB)
    run(env, cache.fault_in(file, 0))
    cache.drop_caches()
    assert cache.cached_pages == 0
    _t, was_major = run(env, cache.fault_in(file, 0))
    assert was_major


def test_buffered_read_charges_time_and_keeps_content():
    # A timed read builds no bytes: it charges the device and page-cache
    # time, caches the blocks it covered, and leaves the content to
    # SimFile.read.
    env, _ssd, fs, cache = make_host()
    file = fs.create("data", 1 * MIB)
    payload = b"\x5a" * 10000
    file.write(777, payload)
    elapsed, value = run(env, cache.read(file, 777, 10000))
    assert value is None
    assert elapsed > 0
    assert all(cache.is_cached(file, block) for block in range(3))
    assert file.read(777, 10000) == payload


def test_read_outside_the_file_is_rejected_before_any_time_passes():
    env, _ssd, fs, cache = make_host()
    file = fs.create("data", 1 * MIB)
    for direct in (False, True):
        with pytest.raises(ValueError, match="outside file"):
            run(env, cache.read(file, MIB - PAGE_SIZE, 2 * PAGE_SIZE,
                                direct=direct))
    assert env.now == 0


def test_buffered_reread_is_much_faster():
    env, _ssd, fs, cache = make_host()
    file = fs.create("data", 1 * MIB)
    cold, _ = run(env, cache.read(file, 0, 256 * 1024))
    warm, _ = run(env, cache.read(file, 0, 256 * 1024))
    assert warm < cold / 5


def test_direct_read_bypasses_cache():
    env, _ssd, fs, cache = make_host()
    file = fs.create("data", 8 * MIB)
    _t, _content = run(env, cache.read(file, 0, 8 * MIB, direct=True))
    assert cache.cached_pages == 0


def test_direct_large_read_faster_than_buffered():
    """The Fig. 7 'WS file' vs 'REAP' gap: page-cache costs are real."""
    env, _ssd, fs, cache = make_host()
    file = fs.create("ws", 8 * MIB)
    buffered, _ = run(env, cache.read(file, 0, 8 * MIB))

    env2, _ssd2, fs2, cache2 = make_host()
    file2 = fs2.create("ws", 8 * MIB)
    direct, _ = run(env2, cache2.read(file2, 0, 8 * MIB, direct=True))
    assert direct < buffered * 0.75


def test_write_through_populates_cache_and_content():
    env, _ssd, fs, cache = make_host()
    file = fs.create("out", 1 * MIB)
    payload = b"\x11" * (3 * PAGE_SIZE)
    _t, _ = run(env, cache.write(file, 0, payload))
    assert file.read(0, len(payload)) == payload
    assert cache.is_cached(file, 0)
    assert cache.is_cached(file, 2)


def test_write_invalidates_previously_cached_content():
    env, _ssd, fs, cache = make_host()
    file = fs.create("data", 1 * MIB)
    run(env, cache.read(file, 0, PAGE_SIZE))
    assert cache.is_cached(file, 0)
    file.write(0, b"new")  # version bump invalidates stale keys
    assert not cache.is_cached(file, 0)


def test_lru_capacity_evicts_oldest():
    params = PageCacheParameters(capacity_pages=4)
    env, _ssd, fs, cache = make_host(params)
    file = fs.create("data", 1 * MIB)
    for block in range(6):
        run(env, cache.read(file, block * PAGE_SIZE, PAGE_SIZE))
    assert cache.cached_pages == 4
    assert not cache.is_cached(file, 0)
    assert cache.is_cached(file, 5)


def test_hit_miss_counters():
    env, _ssd, fs, cache = make_host()
    file = fs.create("data", 1 * MIB)
    run(env, cache.fault_in(file, 0))
    run(env, cache.fault_in(file, 0))
    assert cache.misses == 1
    assert cache.hits == 1


# -- faults served in place ------------------------------------------------------
#
# ``fault_in_place`` must be indistinguishable from driving ``fault_in``
# and then the caller's tail step: same clock, same event count, same
# LRU order, counters and device statistics.  When it cannot promise
# that, it must decline having touched nothing.

#: Far beyond any fault chain: a holder's sleep that never interferes.
_LONG_US = 1e9
#: A tail the uffd monitor takes (UFFDIO_COPY) and a calibrated
#: per-major-fault CPU cost, as the policies pass them.
_COPY_US = 14.0
_CPU_US = 25.0


def fault_world(device="thinpool", size=64 * PAGE_SIZE, holes=(),
                fragment_bytes=None, fastpath=True):
    env = Environment(fastpath=fastpath)
    ssd = SsdDevice(env)
    pool = ThinPoolDevice(env, ssd)
    target = {"thinpool": lambda: pool, "ssd": lambda: ssd,
              "hdd": lambda: HddDevice(env),
              "remote": lambda: RemoteDevice(env, ssd)}[device]()
    file = Filesystem(ssd).create("mem", size, device=target,
                                  fragment_bytes=fragment_bytes)
    file.mark_written_blocks(block for block in range(file.block_count)
                             if block not in holes)
    return SimpleNamespace(env=env, ssd=ssd, pool=pool, file=file,
                           cache=HostPageCache(env))


def lru_order(cache):
    """The cached blocks in LRU order (file ids differ between worlds)."""
    return [(version, block) for _file, version, block in cache._cached]


def world_state(world):
    """Everything a fault may change, outside a run."""
    return (world.env.now, world.env.events_processed,
            lru_order(world.cache), world.cache.hits, world.cache.misses,
            world.pool.stats.to_dict(), world.ssd.stats.to_dict(),
            world.file.device.stats.to_dict())


def live_state(world):
    """Everything a fault may change, inside a process step."""
    env = world.env
    return (env.now, env._advanced, list(env._immediate), list(env._heap),
            lru_order(world.cache), world.cache.hits, world.cache.misses,
            world.pool.stats.to_dict(), world.ssd.stats.to_dict(),
            world.file.device.stats.to_dict(),
            world.pool._slots.count, world.ssd._controller.count,
            world.ssd._channels.count)


def serve(world, block, tails=(None, None), in_place=True, prelude=None):
    """Fault ``block`` from a fresh process, then take the tail step.

    With ``in_place``, try ``fault_in_place`` first and fall back to the
    generator path on a decline, checking that the decline changed
    nothing.  Returns ``fault_in_place``'s answer (``None`` without
    ``in_place``).
    """
    env, cache = world.env, world.cache
    major_tail, minor_tail = tails
    answers = []

    def body():
        if prelude is not None:
            yield from prelude(world)
        if in_place:
            before = live_state(world)
            answer = cache.fault_in_place(world.file, block, major_tail,
                                          minor_tail)
            answers.append(answer)
            if answer is not None:
                return
            assert live_state(world) == before
        was_major = yield from cache.fault_in(world.file, block)
        tail = major_tail if was_major else minor_tail
        if tail is not None and not env.advance(tail):
            yield env.timeout(tail)

    env.run(until=env.process(body()))
    return answers[0] if answers else None


def warm(world, *blocks):
    for block in blocks:
        serve(world, block, in_place=False)


_TAILS = {
    "none": (None, None),
    "vanilla_cpu": (_CPU_US, None),
    "monitor": (_COPY_US, _COPY_US),
    "monitor_cpu": (_COPY_US + _CPU_US, _COPY_US),
}

#: (world keywords, pages faulted first, faulting block, major?)
_ACCEPTED = {
    "hit": ({}, (8,), 9, False),
    "hole": ({"holes": (20,)}, (), 20, False),
    "window4": ({}, (), 0, True),
    "window3_hole": ({"holes": (33,)}, (), 30, True),
    "window2_cached": ({}, (12,), 10, True),
    "window1_hole": ({"holes": (31,)}, (), 30, True),
    "window2_eof": ({"size": 10 * PAGE_SIZE + 100}, (), 9, True),
    "raw_ssd": ({"device": "ssd"}, (), 0, True),
}


@pytest.mark.parametrize("tails", sorted(_TAILS))
@pytest.mark.parametrize("case", sorted(_ACCEPTED))
def test_fault_in_place_matches_generator_path(case, tails):
    kwargs, warmed, block, major = _ACCEPTED[case]
    served, driven = fault_world(**kwargs), fault_world(**kwargs)
    warm(served, *warmed)
    warm(driven, *warmed)
    assert world_state(served) == world_state(driven)
    assert serve(served, block, _TAILS[tails]) is major
    serve(driven, block, _TAILS[tails], in_place=False)
    assert world_state(served) == world_state(driven)


def test_fault_in_place_window_sizes():
    # The accepted major cases cover every window length.
    for case, pages in (("window4", 4), ("window3_hole", 3),
                        ("window2_cached", 2), ("window1_hole", 1),
                        ("window2_eof", 2)):
        kwargs, warmed, block, _major = _ACCEPTED[case]
        world = fault_world(**kwargs)
        warm(world, *warmed)
        cached = world.cache.cached_pages
        serve(world, block)
        assert world.cache.cached_pages - cached == pages, case


def _hold(resource, slots):
    def prelude(world):
        def holder():
            grants = [resource(world).request() for _ in range(slots)]
            try:
                for grant in grants:
                    yield grant
                yield world.env.timeout(_LONG_US)
            finally:
                for grant in grants:
                    resource(world).release(grant)

        world.env.process(holder())
        yield world.env.timeout(1.0)

    return prelude


def _busy_immediate(world):
    world.env.event().succeed()
    return
    yield  # pragma: no cover - makes this a generator


def _shared_waker(world):
    env = world.env
    gate = env.event()

    def other():
        yield gate
        yield env.timeout(_LONG_US)

    env.process(other())
    yield env.timeout(1.0)
    # ``other`` was first to wait, so this step runs while the gate
    # still lists it among its callbacks.
    gate.succeed()
    yield gate


_DECLINED = {
    "thinpool_slots_held": ({}, _hold(lambda w: w.pool._slots, 4)),
    "controller_busy": ({}, _hold(lambda w: w.ssd._controller, 1)),
    "channels_busy": ({}, _hold(lambda w: w.ssd._channels, 16)),
    "immediate_busy": ({}, _busy_immediate),
    "shared_waker": ({}, _shared_waker),
    "slow_path": ({"fastpath": False}, None),
    "hdd_host": ({"device": "hdd"}, None),
    "remote_host": ({"device": "remote"}, None),
    "two_extents": ({"fragment_bytes": 2 * PAGE_SIZE}, None),
}


@pytest.mark.parametrize("case", sorted(_DECLINED))
def test_fault_in_place_declines_touching_nothing(case):
    kwargs, prelude = _DECLINED[case]
    served, driven = fault_world(**kwargs), fault_world(**kwargs)
    block = 1  # a 4-page window; with 2-page extents it spans two
    assert serve(served, block, _TAILS["monitor_cpu"],
                 prelude=prelude) is None
    serve(driven, block, _TAILS["monitor_cpu"], in_place=False,
          prelude=prelude)
    assert world_state(served) == world_state(driven)


def test_fault_in_place_declines_outside_a_process():
    world = fault_world()
    before = world_state(world)
    assert world.cache.fault_in_place(world.file, 0) is None
    assert world_state(world) == before


@pytest.mark.parametrize("case", ["hit", "hole", "window4"])
def test_fault_in_place_declines_a_heap_entry_due_by_its_end(case):
    kwargs, warmed, block, _major = _ACCEPTED[case]

    def start_at_one(world):
        yield world.env.timeout(1.0)

    reference = fault_world(**kwargs)
    warm(reference, *warmed)
    serve(reference, block, _TAILS["monitor_cpu"], in_place=False,
          prelude=start_at_one)
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
        world = fault_world(**kwargs)
        warm(world, *warmed)
        start = world.env.now
        # The timer's heap entry lands at exactly ``due``.
        assert start + (due - start) == due
        answer = serve(world, block, _TAILS["monitor_cpu"],
                       prelude=timer_due(due))
        assert (answer is not None) is accepted, due
