"""Tests for the Knative-style autoscaler and the multi-worker cluster."""

import pytest

from repro.functions import FunctionProfile
from repro.orchestrator import Autoscaler, AutoscalerParameters, Cluster
from repro.orchestrator.orchestrator import Orchestrator
from repro.sim import Environment, SEC
from repro.vm import WorkerHost


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


def make_scaled(params=None):
    env = Environment()
    host = WorkerHost(env, seed=7)
    orch = Orchestrator(host, seed=7)
    scaler = Autoscaler(orch, params)
    env.run(until=env.process(orch.deploy(toy())))
    return env, orch, scaler


def test_first_request_cold_second_warm():
    env, orch, scaler = make_scaled()
    first = env.run(until=env.process(scaler.invoke("toy")))
    second = env.run(until=env.process(scaler.invoke("toy")))
    assert first.mode != "warm"
    assert second.mode == "warm"
    state = scaler.state_for("toy")
    assert state.cold_starts == 1
    assert state.warm_hits == 1
    scaler.stop()


def test_concurrent_requests_scale_out():
    env, orch, scaler = make_scaled()
    results = []

    def req():
        outcome = yield from scaler.invoke("toy")
        results.append(outcome)

    jobs = [env.process(req()) for _ in range(3)]
    env.run(until=env.all_of(jobs))
    state = scaler.state_for("toy")
    # All three arrived with no warm instance free: three cold starts.
    assert state.cold_starts == 3
    assert len(orch.function("toy").warm) == 3
    scaler.stop()


def test_idle_instances_reaped_after_keepalive():
    params = AutoscalerParameters(keepalive_s=60.0, scan_period_s=10.0)
    env, orch, scaler = make_scaled(params)
    env.run(until=env.process(scaler.invoke("toy")))
    assert len(orch.function("toy").warm) == 1
    env.run(until=env.now + 200 * SEC)
    assert len(orch.function("toy").warm) == 0
    assert scaler.state_for("toy").evictions == 1
    scaler.stop()


def test_recently_used_instances_survive_reaper():
    params = AutoscalerParameters(keepalive_s=300.0, scan_period_s=10.0)
    env, orch, scaler = make_scaled(params)
    env.run(until=env.process(scaler.invoke("toy")))
    env.run(until=env.now + 100 * SEC)
    assert len(orch.function("toy").warm) == 1
    scaler.stop()


def test_cluster_deploy_and_route():
    env = Environment()
    cluster = Cluster(env, n_workers=2, seed=11)
    env.run(until=env.process(cluster.deploy(toy())))
    first = env.run(until=env.process(cluster.invoke("toy")))
    assert first.mode != "warm"
    # The follow-up request routes to the worker holding the warm
    # instance.
    second = env.run(until=env.process(cluster.invoke("toy")))
    assert second.mode == "warm"
    assert cluster.balancer.stats.warm_routed >= 1
    cluster.shutdown()


def test_cluster_spreads_concurrent_load():
    env = Environment()
    cluster = Cluster(env, n_workers=2, seed=11)
    env.run(until=env.process(cluster.deploy(toy())))
    results = []

    def req():
        outcome = yield from cluster.invoke("toy")
        results.append(outcome)

    jobs = [env.process(req()) for _ in range(4)]
    env.run(until=env.all_of(jobs))
    assert len(results) == 4
    # Both workers served something.
    assert len(cluster.balancer.stats.by_worker) == 2
    cluster.shutdown()


def test_cluster_requires_workers():
    with pytest.raises(ValueError):
        Cluster(Environment(), n_workers=0)


def test_unknown_function_routes_to_least_loaded():
    env = Environment()
    cluster = Cluster(env, n_workers=2, seed=11)
    env.run(until=env.process(cluster.deploy(toy())))

    def failing():
        with pytest.raises(KeyError):
            yield from cluster.invoke("ghost")

    env.run(until=env.process(failing()))
    cluster.shutdown()


# -- load-balancer routing (warm / locality / spread) ----------------------


def make_tiered_cluster(capacity_mb=10, **kwargs):
    from repro.sim.units import MIB
    from repro.snapstore.tier import TierParameters

    env = Environment()
    cluster = Cluster(env, n_workers=2, seed=11,
                      snapstore_params=TierParameters(
                          local_capacity_bytes=capacity_mb * MIB),
                      **kwargs)
    env.run(until=env.process(cluster.deploy(toy())))
    return env, cluster


def test_warm_preference_beats_load_spread():
    env = Environment()
    cluster = Cluster(env, n_workers=2, seed=11)
    env.run(until=env.process(cluster.deploy(toy())))
    # Put a warm instance on worker 1 only, then load it heavily.
    env.run(until=env.process(
        cluster.workers[1].autoscaler.invoke("toy")))
    cluster.workers[1].outstanding = 5
    chosen = cluster.balancer.pick("toy")
    assert chosen.index == 1
    assert cluster.balancer.stats.warm_routed == 1
    cluster.shutdown()


def test_busy_warm_instances_fall_back_to_cold_route():
    env = Environment()
    cluster = Cluster(env, n_workers=2, seed=11)
    env.run(until=env.process(cluster.deploy(toy())))
    env.run(until=env.process(
        cluster.workers[1].autoscaler.invoke("toy")))
    # The only warm instance is saturated: in_flight == warm pool size.
    cluster.workers[1].autoscaler.state_for("toy").in_flight = 1
    cluster.workers[1].outstanding = 1
    chosen = cluster.balancer.pick("toy")
    assert chosen.index == 0  # cold route, least outstanding
    assert cluster.balancer.stats.warm_routed == 0
    cluster.shutdown()


def test_spread_tie_break_is_deterministic():
    env = Environment()
    cluster = Cluster(env, n_workers=3, seed=11, locality_aware=False)
    env.run(until=env.process(cluster.deploy(toy())))
    # Equal outstanding everywhere: blind routing breaks ties by index.
    picks = {cluster.balancer.pick("toy").index for _ in range(5)}
    assert picks == {0}
    cluster.shutdown()


def test_affinity_tie_break_is_deterministic_and_sticky():
    env = Environment()
    cluster = Cluster(env, n_workers=3, seed=11)
    env.run(until=env.process(cluster.deploy(toy())))
    # No tier: every worker holds the same bytes, so the rendezvous
    # hash decides -- the same home every time for one function.
    picks = {cluster.balancer.pick("toy").index for _ in range(5)}
    assert len(picks) == 1
    cluster.shutdown()


def test_locality_preference_routes_to_artifact_holder():
    env, cluster = make_tiered_cluster()
    # Evict everything from worker 0's tier; worker 1 keeps its copy.
    store = cluster.workers[0].orchestrator.snapshot_store
    for entry in store.cache.entries_for("toy"):
        store.cache._demote(entry)
    assert cluster.workers[0].orchestrator.snapshot_store \
        .locality_bytes("toy") == 0
    chosen = cluster.balancer.pick("toy")
    assert chosen.index == 1
    assert cluster.balancer.stats.locality_routed == 1
    cluster.shutdown()


def test_locality_overflow_guard_spreads_under_skew():
    env, cluster = make_tiered_cluster()
    store = cluster.workers[0].orchestrator.snapshot_store
    for entry in store.cache.entries_for("toy"):
        store.cache._demote(entry)
    # The artifact holder is far busier than the empty worker: the
    # overflow guard routes around it rather than queueing the restore.
    cluster.workers[1].outstanding = \
        cluster.balancer.locality_max_skew + 1
    chosen = cluster.balancer.pick("toy")
    assert chosen.index == 0
    assert cluster.balancer.stats.locality_routed == 0
    cluster.shutdown()


def test_locality_blind_balancer_ignores_placement():
    env, cluster = make_tiered_cluster(locality_aware=False)
    store = cluster.workers[0].orchestrator.snapshot_store
    for entry in store.cache.entries_for("toy"):
        store.cache._demote(entry)
    # Blind routing spreads by load alone: equal outstanding -> index 0,
    # even though only worker 1 still holds the artifacts locally.
    chosen = cluster.balancer.pick("toy")
    assert chosen.index == 0
    assert cluster.balancer.stats.locality_routed == 0
    cluster.shutdown()
