"""Fault injection, failover routing, and the resilience they exercise."""

import pytest

from repro.chaos import (
    ChaosController,
    FaultEvent,
    FaultPlan,
    RemoteLatencySpike,
    RemoteOutage,
    RetryPolicy,
    SCENARIOS,
    WorkerCrash,
    WorkerJoin,
    scenario_plan,
    synthesize_plan,
)
from repro.functions import FunctionProfile
from repro.orchestrator import Cluster
from repro.orchestrator.cluster import (
    InvocationShed,
    _affinity_digest,
)
from repro.orchestrator.orchestrator import Orchestrator
from repro.sim import Environment, SEC
from repro.sim.units import KIB, MIB
from repro.snapstore.tier import TierParameters
from repro.storage import (
    IoRequest,
    RemoteDevice,
    RemoteStorageParameters,
    SsdDevice,
)
from repro.storage.device import ReadKind
from repro.storage.remote import RemoteFaultState, RemoteOutageError
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


def rendezvous_home(cluster, name):
    """The worker the cold route's affinity tie-break prefers."""
    return min(cluster.workers,
               key=lambda worker: _affinity_digest(name, worker))


# -- fault plans ------------------------------------------------------------


def test_fault_plan_orders_events_by_time():
    plan = FaultPlan(events=(WorkerJoin(at_s=9.0),
                             WorkerCrash(at_s=1.0, worker=0)))
    assert [event.kind for event in plan.events] == \
        ["worker_crash", "worker_join"]


def test_fault_plan_roundtrips_through_dict():
    plan = FaultPlan(
        events=(WorkerCrash(at_s=1.0, worker=2),
                RemoteOutage(at_s=2.0, duration_s=0.5, mode="stall"),
                RemoteLatencySpike(at_s=3.0, duration_s=1.0,
                                   latency_multiplier=6.0,
                                   bandwidth_factor=0.5)),
        retry=RetryPolicy(max_retries=5, backoff_base_s=0.1))
    assert FaultPlan.from_dict(plan.to_dict()) == plan


def test_fault_event_validation():
    with pytest.raises(ValueError):
        FaultEvent(at_s=1.0, kind="meteor_strike")
    with pytest.raises(ValueError):
        FaultEvent(at_s=-1.0, kind="worker_crash")
    with pytest.raises(ValueError):
        RemoteOutage(at_s=1.0, duration_s=1.0, mode="maybe")
    with pytest.raises(ValueError):
        RemoteLatencySpike(at_s=1.0, duration_s=1.0, bandwidth_factor=0.0)
    with pytest.raises(ValueError):
        RetryPolicy(max_retries=-1)


def test_every_scenario_builds_a_plan():
    for scenario in SCENARIOS:
        plan = scenario_plan(scenario, duration_s=1000.0)
        assert all(0.0 <= event.at_s <= 1000.0 for event in plan.events)
    with pytest.raises(ValueError):
        scenario_plan("alien_invasion", duration_s=1000.0)


def test_synthesized_plans_are_deterministic():
    first = synthesize_plan(seed=7, duration_s=600.0, n_workers=3)
    second = synthesize_plan(seed=7, duration_s=600.0, n_workers=3)
    assert first == second
    assert first != synthesize_plan(seed=8, duration_s=600.0, n_workers=3)
    assert all(worker_event.worker < 3 for worker_event in first.events
               if worker_event.kind == "worker_crash")


# -- remote fault state (device level) --------------------------------------


def faulty_remote(env, mode="fail", until=100_000.0):
    remote = RemoteDevice(env, SsdDevice(env), RemoteStorageParameters(
        network_latency_us=100.0, service_overhead_us=50.0))
    remote.fault = RemoteFaultState(outage_until=until, outage_mode=mode)
    return remote


def test_fail_outage_raises_then_recovers():
    env = Environment()
    remote = faulty_remote(env, mode="fail", until=100_000.0)

    def scenario():
        with pytest.raises(RemoteOutageError):
            yield from remote.read(IoRequest(lba=0, nbytes=4 * KIB))
        yield env.timeout(100_000.0)
        yield from remote.read(IoRequest(lba=0, nbytes=4 * KIB))

    env.run(until=env.process(scenario()))
    assert remote.fault.failed_ops == 1


def test_fail_outage_stalls_demand_faults():
    # The kernel paging path cannot surface an I/O error to the guest
    # (hard-mount semantics): demand faults park instead of failing.
    env = Environment()
    remote = faulty_remote(env, mode="fail", until=100_000.0)
    proc = env.process(remote.read(IoRequest(
        lba=0, nbytes=4 * KIB, kind=ReadKind.DEMAND_FAULT)))
    env.run(until=proc)
    assert env.now > 100_000.0
    assert remote.fault.stalled_ops == 1
    assert remote.fault.failed_ops == 0


def test_stall_outage_parks_until_lift():
    env = Environment()
    remote = faulty_remote(env, mode="stall", until=50_000.0)
    proc = env.process(remote.read(IoRequest(lba=0, nbytes=4 * KIB)))
    env.run(until=proc)
    assert env.now > 50_000.0
    assert remote.fault.stalled_ops == 1


def test_latency_spike_slows_requests():
    env = Environment()
    healthy = RemoteDevice(env, SsdDevice(env))
    proc = env.process(healthy.read(IoRequest(lba=0, nbytes=64 * KIB)))
    env.run(until=proc)
    healthy_us = env.now

    env2 = Environment()
    spiky = RemoteDevice(env2, SsdDevice(env2))
    spiky.fault = RemoteFaultState(spike_until=10 ** 9,
                                   latency_multiplier=8.0,
                                   bandwidth_factor=0.25)
    proc = env2.process(spiky.read(IoRequest(lba=0, nbytes=64 * KIB)))
    env2.run(until=proc)
    assert env2.now > 2 * healthy_us
    assert spiky.fault.spiked_ops == 1


# -- worker crash, failover, join -------------------------------------------


def test_crash_aborts_inflight_and_failover_retries():
    env = Environment()
    with Cluster(env, n_workers=2, seed=11) as cluster:
        env.run(until=env.process(cluster.deploy(toy())))
        home = rendezvous_home(cluster, "toy")
        # 200us after the invocation below starts: mid-restore.
        chaos = ChaosController(cluster, FaultPlan(events=(
            WorkerCrash(at_s=(env.now + 200.0) / SEC,
                        worker=home.index),)))
        result = env.run(until=env.process(cluster.invoke("toy")))
    # The restore was killed mid-flight on the home worker, replayed on
    # the survivor, and completed there.
    assert result.mode != "warm"
    assert chaos.stats.crashes == 1
    assert chaos.stats.aborted_inflight == 1
    assert cluster.balancer.stats.retries == 1
    assert cluster.balancer.stats.cordoned == 1
    survivor = cluster.workers[1 - home.index]
    assert cluster.balancer.stats.by_worker[survivor.index] >= 1
    assert home.cordoned and not survivor.cordoned


def test_crash_of_last_worker_sheds_invocations():
    env = Environment()
    with Cluster(env, n_workers=1, seed=11) as cluster:
        env.run(until=env.process(cluster.deploy(toy())))
        ChaosController(cluster, FaultPlan(events=(
            WorkerCrash(at_s=(env.now + 200.0) / SEC, worker=0),)))
        outcome = {}

        def request():
            try:
                yield from cluster.invoke("toy")
            except InvocationShed as shed:
                outcome["shed"] = shed

        env.run(until=env.process(request()))
    assert outcome["shed"].function == "toy"
    assert cluster.balancer.stats.shed == 1
    assert cluster.balancer.stats.retries == 1


def test_join_restores_capacity_after_crash():
    env = Environment()
    with Cluster(env, n_workers=2, seed=11) as cluster:
        env.run(until=env.process(cluster.deploy(toy())))
        chaos = ChaosController(cluster, FaultPlan(events=(
            WorkerCrash(at_s=(env.now + 0.1 * SEC) / SEC, worker=0),
            WorkerJoin(at_s=(env.now + 0.2 * SEC) / SEC),)))
        # The join itself deploys every profile (seconds of sim time).
        env.run(until=env.timeout(10.0 * SEC))
        assert chaos.stats.joins == 1
        assert len(cluster.workers) == 3
        joined = cluster.workers[2]
        assert joined.orchestrator.has_function("toy")
        # The replacement is immediately routable.
        cluster.workers[1].cordoned = True
        assert cluster.balancer.pick("toy").index == 2


def test_crash_loses_local_tier_and_rereplicates():
    env = Environment()
    with Cluster(env, n_workers=2, seed=11,
                 snapstore_params=TierParameters(
                     local_capacity_bytes=64 * MIB)) as cluster:
        env.run(until=env.process(cluster.deploy(toy())))
        home = rendezvous_home(cluster, "toy")
        chaos = ChaosController(cluster, FaultPlan(events=(
            WorkerCrash(at_s=0.01, worker=home.index),)))
        env.run(until=env.timeout(1.0 * SEC))
        env.run(until=env.process(chaos.drain()))
    assert chaos.stats.lost_local_bytes > 0
    assert not any(entry.local for entry
                   in home.orchestrator.snapstore.cache.entries_for("toy"))
    # The function's artifacts were re-homed onto the survivor.
    assert chaos.stats.rereplicated == 1
    survivor = cluster.workers[1 - home.index]
    assert all(entry.local for entry in
               survivor.orchestrator.snapstore.cache.entries_for("toy"))


def test_remote_outage_retries_then_sheds():
    env = Environment()
    with Cluster(env, n_workers=2, seed=11,
                 snapstore_params=TierParameters(
                     local_capacity_bytes=64 * MIB)) as cluster:
        env.run(until=env.process(cluster.deploy(toy())))
        # Every artifact is remote-only, and the remote service is dark
        # for far longer than the whole retry budget.
        for worker in cluster.workers:
            cache = worker.orchestrator.snapstore.cache
            for entry in cache.entries_for("toy"):
                cache._demote(entry)
        ChaosController(cluster, FaultPlan(events=(
            RemoteOutage(at_s=0.0, duration_s=100.0, mode="fail"),)))
        outcome = {}

        def request():
            try:
                yield from cluster.invoke("toy")
            except InvocationShed as shed:
                outcome["shed"] = shed

        env.run(until=env.process(request()))
    assert "shed" in outcome
    assert cluster.balancer.stats.retries == 2  # default budget
    assert cluster.balancer.stats.shed == 1


# -- routing under partial deployment / cordons -----------------------------


def test_cold_route_skips_undeployed_workers():
    # Regression: the cold path used to consider every worker, so a
    # function deployed on a subset could route to a worker without it.
    env = Environment()
    with Cluster(env, n_workers=2, seed=11) as cluster:
        env.run(until=env.process(
            cluster.workers[0].orchestrator.deploy(toy())))
        for _ in range(5):
            assert cluster.balancer.pick("toy").index == 0
        result = env.run(until=env.process(cluster.invoke("toy")))
        assert result.mode != "warm"


def test_undeployed_function_still_raises_key_error():
    env = Environment()
    with Cluster(env, n_workers=2, seed=11) as cluster:
        env.run(until=env.process(cluster.deploy(toy())))
        with pytest.raises(KeyError):
            cluster.balancer.pick("ghost")


def test_cordoned_workers_are_never_picked():
    env = Environment()
    with Cluster(env, n_workers=3, seed=11) as cluster:
        env.run(until=env.process(cluster.deploy(toy())))
        cluster.workers[0].cordoned = True
        cluster.workers[2].cordoned = True
        picks = {cluster.balancer.pick("toy").index for _ in range(5)}
        assert picks == {1}


# -- cluster lifecycle ------------------------------------------------------


def test_cluster_context_manager_shuts_down_idempotently():
    env = Environment()
    with Cluster(env, n_workers=2, seed=11) as cluster:
        env.run(until=env.process(cluster.deploy(toy())))
    env.run()  # drain the queued reaper interrupts
    for worker in cluster.workers:
        assert not worker.autoscaler._reaper.is_alive
    cluster.shutdown()  # second call is a no-op
    cluster.shutdown()


def test_chaos_free_invoke_keeps_zero_bookkeeping():
    env = Environment()
    with Cluster(env, n_workers=2, seed=11) as cluster:
        env.run(until=env.process(cluster.deploy(toy())))
        env.run(until=env.process(cluster.invoke("toy")))
    stats = cluster.balancer.stats
    assert stats.retries == stats.shed == stats.cordoned == 0
    assert all(not worker.inflight for worker in cluster.workers)


def test_chaos_free_invoke_runs_in_the_calling_process():
    env = Environment()
    with Cluster(env, n_workers=2, seed=11) as cluster:
        env.run(until=env.process(cluster.deploy(toy())))
        caller = env.process(cluster.invoke("toy"), name="caller")
        env.run(until=env.now + 200.0)  # mid-restore
        inflight = [list(worker.inflight) for worker in cluster.workers]
        env.run(until=caller)
    # The attempt is registered under the caller itself (no child
    # process), and the registration is gone once the call returns.
    assert sorted(inflight, key=len) == [[], [caller]]
    assert all(not worker.inflight for worker in cluster.workers)


# -- tier resilience --------------------------------------------------------


def make_tiered_orchestrator(seed=7, **tier_kwargs):
    env = Environment()
    host = WorkerHost(env, seed=seed)
    orch = Orchestrator(host, seed=seed, snapstore_params=TierParameters(
        local_capacity_bytes=64 * MIB, **tier_kwargs))
    env.run(until=env.process(orch.deploy(toy())))
    return env, orch


def test_promote_deadline_bypasses_to_serve_remote():
    env, orch = make_tiered_orchestrator(promote_timeout_us=1_000.0)
    cache = orch.snapstore.cache
    for entry in cache.entries_for("toy"):
        cache._demote(entry)
    # Promotes park behind a stalled remote; the deadline abandons them
    # and the restore serves the artifacts remotely in place.
    orch.snapstore.remote.fault = RemoteFaultState(
        outage_until=0.5 * SEC, outage_mode="stall")
    result = env.run(until=env.process(orch.invoke("toy",
                                                   mode="vanilla")))
    stats = orch.snapstore.stats
    assert stats.promote_timeouts >= 1
    assert stats.promotions == 0
    assert result.latency_ms > 0.0
    # Nothing stays pinned or half-promoted after the bypass.
    assert all(entry.pins == 0 and entry.promote_done is None
               for entry in cache.entries_for("toy"))


def test_unreachable_artifacts_degrade_reap_to_vanilla():
    env, orch = make_tiered_orchestrator()
    env.run(until=env.process(orch.invoke("toy")))  # record
    cache = orch.snapstore.cache
    # Only the REAP artifacts go remote; vmm+mem stay local, so the
    # degraded vanilla restore can complete without the remote service.
    for entry in cache.entries_for("toy"):
        if entry.kind in ("trace", "ws"):
            cache._demote(entry)
    orch.snapstore.remote.fault = RemoteFaultState(
        outage_until=10 ** 9, outage_mode="fail")
    result = env.run(until=env.process(orch.invoke("toy")))
    assert result.mode == "vanilla"
    assert result.breakdown.extra["degraded_to_vanilla"] is True
    assert orch.snapstore.stats.unreachable >= 1


def test_outage_window_end_restores_promotion():
    env, orch = make_tiered_orchestrator()
    cache = orch.snapstore.cache
    for entry in cache.entries_for("toy"):
        cache._demote(entry)
    orch.snapstore.remote.fault = RemoteFaultState(
        outage_until=0.1 * SEC, outage_mode="fail")

    def scenario():
        yield env.timeout(0.2 * SEC)  # past the outage window
        result = yield from orch.invoke("toy", mode="vanilla")
        return result

    env.run(until=env.process(scenario()))
    assert orch.snapstore.stats.promotions >= 1
    assert orch.snapstore.stats.unreachable == 0


# -- the slo_scorecard experiment -------------------------------------------


def scorecard_cells(**kwargs):
    from repro.bench.experiments import EXPERIMENTS

    experiment = EXPERIMENTS["slo_scorecard"]
    return experiment, experiment.cells(**kwargs)


def test_scorecard_registered_with_scenario_x_scheme_grid():
    experiment, cells = scorecard_cells()
    assert experiment.id == "slo_scorecard"
    assert len(cells) == len(SCENARIOS) * 2
    labels = {cell.label for cell in cells}
    assert "crash/reap" in labels and "baseline/vanilla" in labels


def test_scorecard_crash_cell_is_deterministic():
    experiment, cells = scorecard_cells(scenarios=("crash",),
                                        duration_s=300.0)
    cell = next(c for c in cells if c.label == "crash/reap")
    first = experiment.run_cell(cell)
    second = experiment.run_cell(cell)
    assert first == second
    assert first["row"]["crashes"] == 1


def test_scorecard_baseline_runs_fault_free():
    experiment, cells = scorecard_cells(scenarios=("baseline",),
                                        duration_s=300.0)
    for cell in cells:
        payload = experiment.run_cell(cell)
        assert payload["availability"] == 1.0
        assert payload["shed"] == 0
        assert payload["retries"] == 0
        assert payload["chaos"]["crashes"] == 0
