"""The cold-start policy zoo: scheme behavior, sharing properties, crashes.

Covers the :mod:`repro.policies` layer three ways:

* scheme behavior -- each of the four schemes does what its docstring
  claims on a live testbed (overlap beats REAP cold-for-cold, predict
  prefetches prior generations' demand sets, shared elides fetches for
  co-resident chunks, prewarm converts predictable arrivals into warm
  hits) and the default scheme adds nothing;
* residency properties -- refcounted chunk sharing over seeded random
  acquire/release interleavings (:func:`harness.seeded_cases` drives
  the case generation): refcounts never go negative, evicting a shared
  chunk charges only the last releaser, and ``shared_fraction`` agrees
  with :func:`repro.memory.working_set.reuse_between`;
* crash regression -- interrupting a prefetch/resume overlap mid-stream
  (the PR-9 worker-crash fault) unwinds the background stream and
  leaves nothing behind under ``REPRO_SANITIZE=1``.
"""

from __future__ import annotations

import random

import pytest

from harness import seeded_cases
from repro.bench.harness import Testbed
from repro.functions import get_profile
from repro.memory.working_set import reuse_between
from repro.obs import tracer as obs_tracer
from repro.orchestrator.cluster import Cluster
from repro.policies import (
    POLICIES,
    SCHEMES,
    ColdStartPolicyLayer,
    OverlapPolicy,
    PolicyLayerParameters,
    PredictPolicy,
    PrewarmManager,
    SharedPolicy,
    SharedResidency,
    policy_class,
)
from repro.sim import sanitizer
from repro.sim.engine import Environment, Interrupt
from repro.sim.units import SEC


def policy_testbed(scheme="reap", seed=7, **params):
    policy_params = PolicyLayerParameters(scheme=scheme, **params)
    testbed = Testbed(seed=seed, policy_params=policy_params)
    testbed.deploy(get_profile("helloworld"))
    return testbed


def page_digest_map(pages):
    """Distinct 16-byte digest per page number (content ~ identity)."""
    return [page.to_bytes(16, "big") for page in pages]


# -- layer parameters and wiring --------------------------------------------


def test_layer_parameters_validate_scheme():
    with pytest.raises(ValueError):
        PolicyLayerParameters(scheme="psychic")
    assert PolicyLayerParameters(scheme="overlap").to_params() == {
        "scheme": "overlap", "memory_budget_mb": 1024.0}


def test_layer_off_by_default():
    testbed = Testbed(seed=7)
    testbed.deploy(get_profile("helloworld"))
    layer = testbed.orchestrator.policy_layer
    # Every orchestrator has a layer; the default scheme adds nothing.
    assert layer.params == PolicyLayerParameters(scheme="reap")
    assert layer.residency is None and layer.prewarm is None
    assert testbed.orchestrator.reap.residency is None
    assert testbed.invoke("helloworld").mode == "record"
    assert testbed.invoke("helloworld", use_warm=False).mode == "reap"


def test_layer_only_redirects_the_reap_mode():
    testbed = policy_testbed(scheme="overlap")
    layer = testbed.orchestrator.policy_layer
    assert isinstance(layer, ColdStartPolicyLayer)
    assert layer.select_mode("helloworld", "record") == "record"
    assert layer.select_mode("helloworld", "vanilla") == "vanilla"
    assert layer.select_mode("helloworld", "reap") == "overlap"


def test_forced_zoo_modes_resolve_through_registry():
    # The default scheme never selects overlap, but the name resolves
    # through the registry like every other forced mode.
    testbed = policy_testbed()
    testbed.invoke("helloworld")  # record
    result = testbed.invoke("helloworld", mode="overlap", use_warm=False)
    assert result.mode == "overlap"
    assert "overlap_stream_us" in result.breakdown.extra


def test_forced_zoo_policy_traces_under_its_worker():
    env = Environment()
    tracer = obs_tracer.install()
    try:
        with Cluster(env, n_workers=2, seed=11) as cluster:
            env.run(until=env.process(
                cluster.deploy(get_profile("helloworld"))))
            orchestrator = cluster.workers[1].orchestrator
            env.run(until=env.process(
                orchestrator.invoke("helloworld")))  # record
            env.run(until=env.process(orchestrator.invoke(
                "helloworld", mode="overlap", use_warm=False)))
    finally:
        obs_tracer.uninstall()
    spans = tracer.spans_named("prefetch_overlap")
    assert spans
    assert {span.proc for span in spans} == {"worker1"}


# -- scheme behavior ---------------------------------------------------------


def cold_latency(testbed, mode):
    result = testbed.invoke("helloworld", mode=mode, use_warm=False)
    assert result.mode == mode
    return result.latency_us


def test_overlap_beats_reap_cold_for_cold():
    testbed = policy_testbed()
    testbed.invoke("helloworld")  # record
    reap = cold_latency(testbed, "reap")
    overlap = cold_latency(testbed, "overlap")
    assert overlap < reap
    # The stream still installs the full recorded set eventually.
    result = testbed.invoke("helloworld", mode="overlap", use_warm=False)
    state = testbed.orchestrator.reap.state_for("helloworld")
    assert result.breakdown.prefetched_pages == \
        len(state.artifacts.pages)


def test_predict_prefetches_prior_generations():
    testbed = policy_testbed(scheme="predict")
    first = testbed.invoke("helloworld", use_warm=False)
    assert first.mode == "record"
    second = testbed.invoke("helloworld", use_warm=False)
    assert second.mode == "predict"
    # Generation 1 only has the recorded set: nothing extra to predict.
    assert "predicted_extra_pages" not in second.breakdown.extra
    third = testbed.invoke("helloworld", use_warm=False)
    assert third.mode == "predict"
    # Generation 2 unions the previous generation's demand faults in.
    assert third.breakdown.extra["predicted_extra_pages"] > 0
    state = testbed.orchestrator.reap.state_for("helloworld")
    assert len(state.ws_history) >= 2


def test_shared_elides_fetches_for_co_resident_chunks():
    testbed = policy_testbed(scheme="shared")
    testbed.invoke("helloworld", use_warm=False)  # record
    # Hold one instance warm so its chunks stay resident.
    testbed.invoke("helloworld", use_warm=False, keep_warm=True)
    layer = testbed.orchestrator.policy_layer
    assert layer.residency.live_objects == 1
    baseline = policy_testbed()
    baseline.invoke("helloworld")
    reap = cold_latency(baseline, "reap")
    co_resident = testbed.invoke("helloworld", use_warm=False)
    assert co_resident.mode == "shared"
    assert co_resident.breakdown.extra["shared_hit_pages"] > 0
    assert co_resident.latency_us < reap


def test_shared_residency_released_on_teardown():
    testbed = policy_testbed(scheme="shared")
    testbed.invoke("helloworld", use_warm=False)
    testbed.invoke("helloworld", use_warm=False, keep_warm=True)
    layer = testbed.orchestrator.policy_layer
    assert layer.residency.live_objects == 1
    entry = testbed.orchestrator.function("helloworld")
    while entry.warm:
        testbed.orchestrator._teardown_instance(entry.warm.pop())
    assert layer.residency.live_objects == 0
    assert layer.residency.index.chunk_count == 0


def test_prewarm_converts_predictable_arrivals_to_warm_hits():
    testbed = policy_testbed(scheme="prewarm")
    layer = testbed.orchestrator.policy_layer

    def drive():
        modes = []
        for _ in range(8):
            result = yield from testbed.orchestrator.invoke("helloworld")
            modes.append(result.mode)
            yield testbed.env.timeout(30.0 * SEC)
        layer.stop()
        return modes

    modes = testbed.run(drive())
    assert modes[0] == "record"
    assert "warm" in modes  # a timer fired ahead of a predicted arrival
    assert layer.prewarm.prewarms >= 1


def test_prewarm_budget_blocks_speculation():
    testbed = policy_testbed(scheme="prewarm", memory_budget_mb=0.0)
    layer = testbed.orchestrator.policy_layer

    def drive():
        modes = []
        for _ in range(8):
            result = yield from testbed.orchestrator.invoke("helloworld")
            modes.append(result.mode)
            yield testbed.env.timeout(30.0 * SEC)
        layer.stop()
        return modes

    modes = testbed.run(drive())
    assert "warm" not in modes
    assert layer.prewarm.prewarms == 0
    assert layer.prewarm.skipped >= 1


# -- residency properties ----------------------------------------------------


def random_object_digests(rng):
    pages = rng.sample(range(512), rng.randrange(4, 40))
    # Duplicate a few pages so intra-object dedup paths run too.
    pages += rng.sample(pages, min(len(pages), rng.randrange(0, 4)))
    return page_digest_map(pages)


@pytest.mark.parametrize("case", seeded_cases(seed=2024, count=12))
def test_residency_refcounts_never_negative(case):
    rng = random.Random(case.seed)
    residency = SharedResidency()
    live = {}
    for step in range(30):
        if live and rng.random() < 0.4:
            object_id = rng.choice(sorted(live))
            freed = residency.release(object_id)
            assert freed >= 0
            del live[object_id]
        else:
            object_id = f"vm{step}"
            live[object_id] = random_object_digests(rng)
            residency.acquire(object_id, live[object_id])
        assert all(count > 0
                   for count in residency.index._refs.values())
        assert residency.live_objects == len(live)
    for object_id in sorted(live):
        residency.release(object_id)
    assert residency.index.chunk_count == 0
    assert residency.live_objects == 0
    # Releasing an unknown object is a no-op, never an underflow.
    assert residency.release("never-acquired") == 0


@pytest.mark.parametrize("case", seeded_cases(seed=7, count=8))
def test_shared_chunk_eviction_charges_last_releaser(case):
    rng = random.Random(case.seed)
    shared_pages = rng.sample(range(256), 24)
    first_only = rng.sample(range(256, 512), 10)
    second_only = rng.sample(range(512, 768), 10)
    residency = SharedResidency()
    residency.acquire("first", page_digest_map(shared_pages + first_only))
    residency.acquire("second",
                      page_digest_map(shared_pages + second_only))
    index = residency.index
    stored_shared = sum(index._sizes[digest]
                        for digest in page_digest_map(shared_pages))
    stored_first_only = sum(index._sizes[digest]
                            for digest in page_digest_map(first_only))
    # First releaser pays only for its exclusive chunks...
    freed_first = residency.release("first")
    assert freed_first == stored_first_only
    for digest in page_digest_map(shared_pages):
        assert index.contains(digest)
    # ...the shared bytes are charged to whoever releases last.
    freed_second = residency.release("second")
    assert freed_second >= stored_shared
    assert index.chunk_count == 0


@pytest.mark.parametrize("case", seeded_cases(seed=99, count=8))
def test_shared_fraction_matches_reuse_between(case):
    rng = random.Random(case.seed)
    first = rng.sample(range(1024), rng.randrange(8, 80))
    second = rng.sample(range(1024), rng.randrange(8, 80))
    residency = SharedResidency()
    residency.acquire("base", page_digest_map(first))
    residency.acquire("other", page_digest_map(second))
    expected = reuse_between(first, second).same_fraction
    assert residency.shared_fraction("base", "other") == \
        pytest.approx(expected)


def test_resident_pages_counts_intra_object_duplicates():
    residency = SharedResidency()
    digests = page_digest_map([1, 2, 2, 3, 3, 3])
    # Nothing resident yet: only the repeat copies count as shared.
    assert residency.resident_pages(digests) == 3
    residency.acquire("holder", page_digest_map([2]))
    assert residency.resident_pages(digests) == 4


# -- crash regression --------------------------------------------------------


def test_overlap_interrupt_mid_stream_releases_transfer(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    sanitizer.reset()
    testbed = policy_testbed()
    testbed.invoke("helloworld")  # record
    reference = testbed.invoke("helloworld", mode="reap", use_warm=False)
    orchestrator = testbed.orchestrator
    env = testbed.env

    def driver():
        try:
            yield from orchestrator.invoke("helloworld", mode="overlap",
                                           use_warm=False)
        except Interrupt:
            return "interrupted"
        return "completed"

    process = env.process(driver(), name="crash-driver")
    # Land inside the restore window, while the WS stream is in flight.
    mid_stream = env.now + reference.breakdown.load_vmm_us \
        + reference.breakdown.fetch_ws_us * 0.5
    env.run(until=mid_stream)
    assert process.is_alive
    process.interrupt("worker-crash")
    assert env.run(until=process) == "interrupted"
    # One more tick lets the background stream unwind its finally.
    env.run(until=env.now + 1.0)
    sanitizer.assert_no_leaks(context="overlap mid-stream crash")
    # The crashed instance is gone; the next invocation works.
    assert not orchestrator.function("helloworld").warm
    result = testbed.invoke("helloworld", mode="overlap", use_warm=False)
    assert result.mode == "overlap"
    sanitizer.assert_no_leaks(context="overlap after crash recovery")


def test_scheme_constants_agree_with_registry():
    assert SCHEMES == ("vanilla", "reap", "overlap", "predict", "shared",
                       "prewarm")
    for name, cls in (("overlap", OverlapPolicy),
                      ("predict", PredictPolicy),
                      ("shared", SharedPolicy)):
        assert policy_class(name) is cls
        assert cls in POLICIES
    # prewarm is a scheme, not a restore policy.
    assert PrewarmManager is not None
    with pytest.raises(KeyError):
        policy_class("prewarm")
