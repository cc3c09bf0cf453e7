"""Tests for the host page cache: fault path, buffered reads, O_DIRECT."""

import pytest

from repro.sim import Environment
from repro.sim.units import MIB, PAGE_SIZE
from repro.storage import (
    Filesystem,
    HostPageCache,
    PageCacheParameters,
    SsdDevice,
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
