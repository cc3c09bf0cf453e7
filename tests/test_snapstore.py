"""Tests for the tiered content-addressed snapshot store."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.context import LatencyBreakdown
from repro.core.policies import ReapPolicy
from repro.functions import FunctionProfile
from repro.functions.content import page_bytes
from repro.memory.working_set import reuse_between
from repro.orchestrator.orchestrator import Orchestrator
from repro.policies import POLICIES
from repro.sim.engine import Environment
from repro.sim.units import MIB, PAGE_SIZE, SEC
from repro.snapstore.chunks import (
    ZERO_PAGE_DIGEST,
    ChunkIndex,
    compressed_chunk_bytes,
    page_digest,
    snapshot_page_digest,
)
from repro.snapstore.store import TieredSnapshotStore
from repro.snapstore.tier import EVICTION_POLICIES, TierParameters
from repro.vm.host import WorkerHost


def toy(name="toy"):
    return FunctionProfile(
        name=name,
        description="toy",
        vm_memory_mb=32,
        boot_footprint_mb=6.0,
        warm_ms=4.0,
        connection_pages=50,
        processing_pages=120,
        unique_pages=10,
        contiguity_mean=2.4,
    )


def make_orchestrator(params=None, seed=7):
    env = Environment()
    host = WorkerHost(env, seed=seed)
    orch = Orchestrator(host, seed=seed, snapstore_params=params)
    return env, orch


def deploy(env, orch, profile):
    env.run(until=env.process(orch.deploy(profile)))


def tier_kinds(orch, name="toy"):
    """Artifact kinds of ``name`` registered in the orchestrator's tier."""
    return {entry.kind
            for entry in orch.snapshot_store.cache.entries_for(name)}


# -- chunk index ----------------------------------------------------------


def test_page_digest_rejects_partial_pages():
    with pytest.raises(ValueError):
        page_digest(b"short")


def test_snapshot_page_digest_matches_content_model():
    assert snapshot_page_digest("fn", 0, 3) == page_digest(
        page_bytes("fn", 0, 3))


def test_zero_chunk_compresses_to_metadata():
    assert compressed_chunk_bytes(ZERO_PAGE_DIGEST) < 256
    other = page_digest(page_bytes("fn", 0, 0))
    assert PAGE_SIZE * 0.35 <= compressed_chunk_bytes(other) \
        <= PAGE_SIZE * 0.75


def test_chunk_index_dedups_identical_pages():
    index = ChunkIndex()
    digests = [snapshot_page_digest("fn", 0, page) for page in range(10)]
    index.add_object("a", digests)
    added = index.add_object("b", digests)
    # Second object introduces no new chunks or stored bytes.
    assert added["new_chunks"] == 0
    assert added["new_stored_bytes"] == 0
    assert index.logical_bytes == 20 * PAGE_SIZE
    assert index.unique_bytes == 10 * PAGE_SIZE
    assert index.dedup_ratio == pytest.approx(2.0)
    assert index.compression_ratio > 1.0


def test_chunk_index_release_reclaims_unreferenced_chunks():
    index = ChunkIndex()
    shared = [snapshot_page_digest("fn", 0, page) for page in range(5)]
    index.add_object("a", shared)
    index.add_object("b", shared + [ZERO_PAGE_DIGEST])
    stored_with_both = index.stored_bytes
    freed = index.release_object("b")
    # Only the zero chunk was exclusive to b.
    assert freed == compressed_chunk_bytes(ZERO_PAGE_DIGEST)
    assert index.stored_bytes == stored_with_both - freed
    assert index.reclaimed_bytes == freed
    assert not index.has_object("b")
    with pytest.raises(KeyError):
        index.release_object("b")


def test_chunk_index_rejects_duplicate_object_ids():
    index = ChunkIndex()
    index.add_object("a", [ZERO_PAGE_DIGEST])
    with pytest.raises(ValueError):
        index.add_object("a", [ZERO_PAGE_DIGEST])


@given(st.sets(st.integers(min_value=0, max_value=400), max_size=60),
       st.sets(st.integers(min_value=0, max_value=400), max_size=60))
@settings(max_examples=40, deadline=None)
def test_shared_fraction_matches_reuse_between_property(first, second):
    """Property: on two invocations' page sets whose contents are
    distinct per page (the deterministic snapshot content model),
    content-addressed dedup equals the paper's page-number-based
    Fig. 5 reuse metric."""
    index = ChunkIndex()
    index.add_object("inv0",
                     [snapshot_page_digest("fn", 0, p) for p in sorted(first)])
    index.add_object("inv1",
                     [snapshot_page_digest("fn", 0, p) for p in sorted(second)])
    stats = reuse_between(first, second)
    assert index.shared_fraction("inv0", "inv1") == pytest.approx(
        stats.same_fraction)


def test_shared_fraction_empty_object_is_zero():
    index = ChunkIndex()
    index.add_object("a", [ZERO_PAGE_DIGEST])
    index.add_object("b", [])
    assert index.shared_fraction("a", "b") == 0.0


# -- tier cache -----------------------------------------------------------


def test_tier_params_validation():
    with pytest.raises(ValueError):
        TierParameters(local_capacity_bytes=0)
    with pytest.raises(ValueError):
        TierParameters(eviction="nope")
    assert set(EVICTION_POLICIES) == {"lru", "lfu", "ws_aware"}


def make_cache(capacity_mb=1, eviction="lru", seed=3):
    env = Environment()
    host = WorkerHost(env, seed=seed)
    store = TieredSnapshotStore(host, TierParameters(
        local_capacity_bytes=capacity_mb * MIB, eviction=eviction))
    return env, host, store


def make_file(host, name, n_pages):
    file = host.filesystem.create(name, n_pages * PAGE_SIZE,
                                  device=host.snapshot_device)
    file.mark_written_blocks(range(n_pages))
    return file


def test_register_within_budget_stays_local():
    env, host, store = make_cache(capacity_mb=1)
    file = make_file(host, "a", 100)
    entry = store.cache.register(file, "fn", "mem")
    assert entry.local
    assert file.device is host.snapshot_device
    assert store.cache.local_bytes_used == 100 * PAGE_SIZE


def test_register_over_budget_evicts_lru():
    env, host, store = make_cache(capacity_mb=1)  # 256 pages
    first = make_file(host, "a", 200)
    entry_a = store.cache.register(first, "fn_a", "mem")
    env.run(until=1000.0)
    second = make_file(host, "b", 200)
    entry_b = store.cache.register(second, "fn_b", "mem")
    # The colder artifact was demoted: its device is now the remote path.
    assert not entry_a.local
    assert first.device is store.remote
    assert entry_b.local
    assert store.cache.stats.evictions == 1
    assert store.cache.stats.demoted_bytes == 200 * PAGE_SIZE
    assert store.local_bytes("fn_a") == 0
    assert store.local_bytes("fn_b") == 200 * PAGE_SIZE


def test_oversized_artifact_is_remote_from_birth():
    env, host, store = make_cache(capacity_mb=1)
    big = make_file(host, "big", 300)
    entry = store.cache.register(big, "fn", "mem")
    assert not entry.local
    assert big.device is store.remote
    # Not counted as an eviction of a resident artifact.
    assert store.cache.stats.evictions == 0


def test_ensure_local_promotes_and_charges_remote_time():
    env, host, store = make_cache(capacity_mb=1)
    file = make_file(host, "a", 200)
    entry = store.cache.register(file, "fn", "mem")
    store.cache._demote(entry)
    assert file.device is store.remote
    before = env.now
    process = env.process(store.cache.ensure_local("fn", ("mem",)))
    pinned = env.run(until=process)
    assert env.now > before  # the bulk remote fetch took simulated time
    assert entry.local and file.device is host.snapshot_device
    assert store.cache.stats.promotions == 1
    assert store.cache.stats.promoted_bytes == 200 * PAGE_SIZE
    assert [e.file.name for e in pinned] == ["a"]
    store.cache.unpin(pinned)


def test_pinned_entries_are_never_evicted():
    env, host, store = make_cache(capacity_mb=1)
    first = make_file(host, "a", 200)
    entry_a = store.cache.register(first, "fn_a", "mem")
    process = env.process(store.cache.ensure_local("fn_a", ("mem",)))
    pinned = env.run(until=process)
    second = make_file(host, "b", 200)
    entry_b = store.cache.register(second, "fn_b", "mem")
    # fn_a is pinned by an in-flight restore; the newcomer goes remote.
    assert entry_a.local
    assert not entry_b.local
    store.cache.unpin(pinned)
    with pytest.raises(RuntimeError):
        store.cache.unpin(pinned)


def test_lfu_evicts_least_hit_artifact():
    env, host, store = make_cache(capacity_mb=1, eviction="lfu")
    hot = make_file(host, "hot", 120)
    cold = make_file(host, "cold", 120)
    store.cache.register(hot, "fn_hot", "mem")
    entry_cold = store.cache.register(cold, "fn_cold", "mem")
    process = env.process(store.cache.ensure_local("fn_hot", ("mem",)))
    store.cache.unpin(env.run(until=process))
    newcomer = make_file(host, "new", 120)
    store.cache.register(newcomer, "fn_new", "mem")
    assert not entry_cold.local  # zero hits, evicted before the hot one
    assert store.local_bytes("fn_hot") > 0


def test_ws_aware_sacrifices_memory_files_first():
    env, host, store = make_cache(capacity_mb=1, eviction="ws_aware")
    mem = make_file(host, "mem", 100)
    ws = make_file(host, "ws", 100)
    entry_mem = store.cache.register(mem, "fn", "mem")
    entry_ws = store.cache.register(ws, "fn", "ws")
    env.run(until=1000.0)
    # The ws file is more recently registered *and* the mem file is the
    # preferred victim kind regardless of recency.
    newcomer = make_file(host, "other", 100)
    store.cache.register(newcomer, "fn2", "mem")
    assert not entry_mem.local
    assert entry_ws.local


def test_release_during_promotion_leaves_file_remote():
    env, host, store = make_cache(capacity_mb=1)
    file = make_file(host, "a", 200)
    entry = store.cache.register(file, "fn", "mem")
    store.cache._demote(entry)
    process = env.process(store.cache.ensure_local("fn", ("mem",)))
    env.run(until=env.now + 1.0)  # transfer in flight
    store.cache.release("a")      # superseded generation reclaimed
    env.run(until=process)
    # The dead artifact is not re-admitted: it stays on the remote path,
    # is not counted as a promotion, and charges no budget.
    assert not entry.local
    assert file.device is store.remote
    assert store.cache.stats.promotions == 0
    assert store.cache.local_bytes_used == 0
    assert store.local_bytes("fn") == 0


# -- orchestrator / snapshot-store integration ----------------------------


def test_capture_reclaims_superseded_generation():
    env, orch = make_orchestrator()
    deploy(env, orch, toy())
    first = orch.snapshot_store.get("toy")
    assert orch.host.filesystem.exists(first.memory_file.name)
    env.run(until=env.process(orch.refresh_snapshot("toy")))
    second = orch.snapshot_store.get("toy")
    assert second.epoch == first.epoch + 1
    # The old generation's files were reclaimed and counted.
    assert not orch.host.filesystem.exists(first.memory_file.name)
    assert not orch.host.filesystem.exists(first.vmm_file.name)
    stats = orch.snapshot_store.stats
    assert stats.captures == 2
    assert stats.reclaimed_snapshots == 1
    # Written (non-hole) bytes, as du would count a sparse memory file.
    assert stats.reclaimed_bytes == (first.memory_file.written_bytes
                                     + first.vmm_file.written_bytes)
    assert stats.reclaimed_bytes < (first.memory_file.size
                                    + first.vmm_file.size)
    # The replacement generation is still on disk.
    assert orch.host.filesystem.exists(second.memory_file.name)


def test_tiered_store_registers_snapshot_and_reap_artifacts():
    env, orch = make_orchestrator(TierParameters(
        local_capacity_bytes=64 * MIB))
    deploy(env, orch, toy())
    kinds = tier_kinds(orch)
    assert kinds == {"vmm", "mem"}
    env.run(until=env.process(orch.invoke("toy")))  # record
    kinds = tier_kinds(orch)
    assert kinds == {"vmm", "mem", "ws", "trace"}
    # Refresh invalidates the recording and swaps the snapshot files.
    env.run(until=env.process(orch.refresh_snapshot("toy")))
    kinds = tier_kinds(orch)
    assert kinds == {"vmm", "mem"}


def test_evicted_restore_pays_the_remote_path():
    # 10 MiB holds one function's vmm+mem bundle (~8.6 MB) but not two.
    small = TierParameters(local_capacity_bytes=10 * MIB)
    env, orch = make_orchestrator(small)
    deploy(env, orch, toy("a"))
    deploy(env, orch, toy("b"))  # evicts a's artifacts (6 MB mem each)
    assert orch.snapshot_store.locality_bytes("b") > \
        orch.snapshot_store.locality_bytes("a")
    env_ref, ref = make_orchestrator(None, seed=7)
    deploy(env_ref, ref, toy("a"))
    deploy(env_ref, ref, toy("b"))
    remote = env.run(until=env.process(
        orch.invoke("a", mode="vanilla")))
    local = env_ref.run(until=env_ref.process(
        ref.invoke("a", mode="vanilla")))
    # The evicted restore promoted from the remote service and was
    # slower than the all-local reference by the promote time.
    assert orch.snapshot_store.cache.stats.promotions >= 1
    promote_us = remote.breakdown.extra["snapstore_promote_us"]
    assert promote_us > 0.0
    assert remote.latency_ms > local.latency_ms
    assert remote.latency_ms == pytest.approx(
        local.latency_ms + promote_us / 1000.0, rel=0.05)


def test_unbounded_tier_never_touches_remote():
    env, orch = make_orchestrator(TierParameters())
    deploy(env, orch, toy())
    env.run(until=env.process(orch.invoke("toy")))
    env.run(until=env.process(orch.invoke("toy")))
    stats = orch.snapshot_store.cache.stats
    assert stats.promotions == 0
    assert stats.evictions == 0
    assert stats.remote_misses == 0


#: The kinds each restore mode promotes: vanilla and record fault out of
#: the memory file, parallel_pf reads the trace then faults, and every
#: REAP-shaped policy reads only the trace + WS files (§7.1).
PROMOTED_KINDS = {
    "vanilla": {"vmm", "mem"},
    "record": {"vmm", "mem"},
    "parallel_pf": {"vmm", "trace", "mem"},
    "ws_file": {"vmm", "trace", "ws"},
    "reap": {"vmm", "trace", "ws"},
    "overlap": {"vmm", "trace", "ws"},
    "predict": {"vmm", "trace", "ws"},
    "shared": {"vmm", "trace", "ws"},
}


@pytest.mark.parametrize("mode", [policy.name for policy in POLICIES])
def test_reap_restore_leaves_memory_file_remote(mode):
    # A restore promotes exactly the kinds its policy declares: REAP
    # brings back only the small trace/WS artifacts (plus vmm) after an
    # eviction of everything and serves its few demand faults from the
    # remote memory file (§7.1).
    env, orch = make_orchestrator(TierParameters(
        local_capacity_bytes=64 * MIB))
    profile = toy()
    deploy(env, orch, profile)
    env.run(until=env.process(orch.invoke("toy")))  # record
    snapshot = orch.snapshot_store.get("toy")
    demoted = {}
    for entry in orch.snapshot_store.cache.entries_for("toy"):
        orch.snapshot_store.cache._demote(entry)
        demoted[entry.file.name] = entry.kind
    result = env.run(until=env.process(orch.invoke("toy", mode=mode)))
    assert result.mode == mode
    # A forced record registers fresh trace/WS files; only the demoted
    # ones tell what the restore promoted.
    local = {demoted[entry.file.name]
             for entry in orch.snapshot_store.cache.entries_for("toy")
             if entry.local and entry.file.name in demoted}
    assert local == PROMOTED_KINDS[mode]
    if "mem" not in local:
        assert snapshot.memory_file.device is orch.snapshot_store.remote


def test_fallback_to_vanilla_releases_tiered_artifacts():
    env, orch = make_orchestrator(TierParameters(
        local_capacity_bytes=64 * MIB))
    deploy(env, orch, toy())
    env.run(until=env.process(orch.invoke("toy")))  # record
    assert any(entry.kind == "ws"
               for entry in orch.snapshot_store.cache.entries_for("toy"))
    state = orch.reap.state_for("toy")
    state.re_records = orch.reap.params.max_re_records
    state.mispredict_streak = orch.reap.params.mispredict_streak_limit
    # A reap restore whose every prefetched page missed.
    breakdown = LatencyBreakdown(prefetched_pages=1)
    policy = orch.reap.policy_for(orch.snapshot_store.get("toy"),
                                  breakdown, ReapPolicy)
    policy.monitor = type("M", (), {"demand_faults": 10 ** 6})()

    orch.reap.complete("toy", policy)
    assert state.fallback_to_vanilla
    # The dead recording no longer occupies the tiers.
    kinds = tier_kinds(orch)
    assert kinds == {"vmm", "mem"}


def test_locality_bytes_without_tier_counts_all_artifacts():
    env, orch = make_orchestrator()
    deploy(env, orch, toy())
    snapshot = orch.snapshot_store.get("toy")
    assert orch.snapshot_store.locality_bytes("toy") == (
        snapshot.vmm_file.size + snapshot.memory_file.size)
    assert orch.snapshot_store.locality_bytes("missing") == 0


# -- one store per worker: untiered vs tiered placement -------------------

ALL_KINDS = ("vmm", "mem", "trace", "ws")

#: Tier and chaos counters of the tiered lifecycle below (a 6 MiB tier,
#: so restores promote, evict and bypass), pinned from the tiered store
#: as it was before it became a :class:`SnapshotStore` subclass.
LIFECYCLE_HOME_TIER = {
    "registered": 8, "released": 6, "evictions": 4,
    "demoted_bytes": 13238272, "promotions": 2, "promoted_bytes": 5242880,
    "local_hits": 15, "remote_misses": 7, "bypassed": 5, "coalesced": 0,
    "promote_timeouts": 0, "unreachable": 0}
LIFECYCLE_SURVIVOR_TIER = {
    "registered": 2, "released": 0, "evictions": 2,
    "demoted_bytes": 6619136, "promotions": 1, "promoted_bytes": 2621440,
    "local_hits": 0, "remote_misses": 2, "bypassed": 1, "coalesced": 0,
    "promote_timeouts": 0, "unreachable": 0}
LIFECYCLE_CHAOS = {
    "crashes": 1, "joins": 0, "outages": 0, "latency_spikes": 0,
    "aborted_inflight": 0, "lost_local_bytes": 2621440, "rereplicated": 1,
    "rereplication_failures": 0}


def unstable(name="toy"):
    """A function whose recordings mispredict: re-record, then fallback."""
    return FunctionProfile(
        name=name, description="working set never repeats",
        vm_memory_mb=32, boot_footprint_mb=4.0, warm_ms=2.0,
        connection_pages=30, processing_pages=100, unique_pages=10,
        contiguity_mean=2.2, record_divergence=0.9)


@pytest.mark.parametrize("tiered", [False, True],
                         ids=["untiered", "tiered"])
def test_store_placement_through_record_fallback_refresh_and_crash(tiered):
    from repro.chaos import (
        ChaosController,
        FaultPlan,
        RetryPolicy,
        WorkerCrash,
    )
    from repro.core.manager import ReapParameters
    from repro.orchestrator.cluster import Cluster, _affinity_digest

    params = TierParameters(local_capacity_bytes=6 * MIB) if tiered \
        else None
    env = Environment()
    with Cluster(env, n_workers=2, seed=11, snapstore_params=params,
                 reap_params=ReapParameters(
                     mispredict_threshold=0.3, mispredict_streak_limit=2,
                     max_re_records=1)) as cluster:
        assert cluster.retry.max_retries == 0
        env.run(until=env.process(cluster.deploy(unstable())))
        home = min(cluster.workers,
                   key=lambda worker: _affinity_digest("toy", worker))
        survivor = cluster.workers[1 - home.index]
        orch = home.orchestrator
        store = orch.snapshot_store
        assert isinstance(store, TieredSnapshotStore) == tiered

        # Record, mispredict into a re-record, then fall back to vanilla.
        modes = [env.run(until=env.process(orch.invoke("toy"))).mode
                 for _ in range(8)]
        assert modes[0] == modes[3] == "record"
        assert modes[-1] == "vanilla"
        assert orch.reap.state_for("toy").fallback_to_vanilla
        env.run(until=env.process(orch.refresh_snapshot("toy")))
        snapshot = store.get("toy")

        if tiered:
            def restore_pins():
                pins = yield from store.ensure_for_restore(
                    "toy", ALL_KINDS, LatencyBreakdown())
                store.unpin(pins)
                return pins

            pins = env.run(until=env.process(restore_pins()))
            # The fallback and the refresh left only the new snapshot.
            assert {entry.kind for entry in pins} == {"vmm", "mem"}
            assert store.locality_bytes("toy") == \
                store.cache.local_bytes("toy")
        else:
            # All local: no pins, no sim time, nothing queued or yielded.
            queued = (len(env._heap), len(env._immediate))
            started = env.now
            with pytest.raises(StopIteration) as stop:
                next(store.ensure_for_restore("toy", ALL_KINDS,
                                              LatencyBreakdown()))
            pins = stop.value.value
            store.unpin(pins)
            assert pins == []
            assert env.now <= started  # sim time did not advance
            assert (len(env._heap), len(env._immediate)) == queued
            assert store.locality_bytes("toy") == (
                snapshot.vmm_file.size + snapshot.memory_file.size)
            assert store.lose_local() == 0

        plan = FaultPlan(events=(WorkerCrash(at_s=env.now / SEC + 0.01,
                                             worker=home.index),),
                         retry=RetryPolicy(max_retries=3))
        chaos = ChaosController(cluster, plan)
        assert cluster.retry is plan.retry
        env.run(until=env.timeout(1.0 * SEC))
        env.run(until=env.process(chaos.drain()))
    assert chaos.stats.crashes == 1
    pulls = [proc.name for proc in chaos._background]
    if tiered:
        assert pulls == ["rereplicate:toy"]
        assert store.cache.stats.to_dict() == LIFECYCLE_HOME_TIER
        assert (survivor.orchestrator.snapshot_store.cache.stats.to_dict()
                == LIFECYCLE_SURVIVOR_TIER)
        assert chaos.stats.to_dict() == LIFECYCLE_CHAOS
    else:
        assert pulls == []
        assert chaos.stats.lost_local_bytes == 0
        assert chaos.stats.rereplicated == 0
