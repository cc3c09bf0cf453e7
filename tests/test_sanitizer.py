"""Tests for the runtime sim sanitizer (``repro.sim.sanitizer``).

Covers the two modes -- tie-break perturbation and end-of-run leak
accounting -- plus regression tests for the exception-path leaks the
sanitizer (and REPRO-R001) surfaced in the existing tree: an Interrupt
while queued on a resource, and an Interrupt mid tier-promotion.
"""

import json

import pytest

from repro.bench.cache import canonicalize
from repro.bench.experiments import Fig7DesignPoints
from repro.bench.experiments.spec import Cell, Experiment, run_cell_checked
from repro.bench.perf import payload_digest
from repro.memory import BackingMode, ContentMode, GuestMemory, UserFaultFd
from repro.sim import sanitizer
from repro.sim.engine import Environment, Interrupt
from repro.sim.resources import Resource
from repro.sim.units import MIB, PAGE_SIZE
from repro.snapstore.store import TieredSnapshotStore
from repro.snapstore.tier import TierParameters
from repro.storage import Filesystem, SsdDevice
from repro.vm.host import WorkerHost


@pytest.fixture(autouse=True)
def clean_registry():
    sanitizer.reset()
    yield
    sanitizer.reset()


# -- tie-break perturbation --------------------------------------------------


def test_sequence_mixer_is_bijective():
    for seed in (0, 1, 42, 2**31):
        mix = sanitizer.sequence_mixer(seed)
        sample = range(10_000)
        assert len({mix(i) for i in sample}) == len(sample)


def test_tiebreak_seed_parsing(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE_TIEBREAK", raising=False)
    assert sanitizer.tiebreak_seed() is None
    monkeypatch.setenv("REPRO_SANITIZE_TIEBREAK", "")
    assert sanitizer.tiebreak_seed() is None
    monkeypatch.setenv("REPRO_SANITIZE_TIEBREAK", "17")
    assert sanitizer.tiebreak_seed() == 17
    monkeypatch.setenv("REPRO_SANITIZE_TIEBREAK", "not-a-seed")
    with pytest.raises(ValueError):
        sanitizer.tiebreak_seed()


def _same_time_wake_order(monkeypatch, tiebreak):
    """Completion order of 8 events all scheduled for t=5."""
    monkeypatch.delenv("REPRO_SANITIZE_TIEBREAK", raising=False)
    if tiebreak is not None:
        monkeypatch.setenv("REPRO_SANITIZE_TIEBREAK", str(tiebreak))
    env = Environment()
    log = []

    def sleeper(tag):
        yield env.timeout(5)
        log.append((tag, env.now))

    for tag in range(8):
        env.process(sleeper(tag))
    env.run()
    return log


def test_tiebreak_env_forces_slowpath(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE_TIEBREAK", "3")
    assert Environment()._fastpath is False
    monkeypatch.delenv("REPRO_SANITIZE_TIEBREAK")
    assert Environment()._fastpath is True


def test_uncontended_grant_key_is_mixed(monkeypatch):
    # The inline grant in Resource.request must draw its heap key from
    # the engine's mixer like every other zero-delay occurrence, or it
    # escapes the shuffle (and its raw key can collide with mixed ones).
    monkeypatch.setenv("REPRO_SANITIZE_TIEBREAK", "7")
    env = Environment()
    resource = Resource(env)
    request = resource.request()
    try:
        (_when, key, item), = env._heap
        assert item is request
        assert key == sanitizer.sequence_mixer(7)(0)
        assert env._sequence == 1
    finally:
        resource.release(request)


def test_tiebreak_permutes_same_time_ties(monkeypatch):
    baseline = _same_time_wake_order(monkeypatch, None)
    assert [tag for tag, _ in baseline] == list(range(8))
    perturbed = _same_time_wake_order(monkeypatch, 1)
    # Same events at the same simulated times -- different tie order.
    assert sorted(perturbed) == sorted(baseline)
    assert perturbed != baseline
    # And deterministically so, per seed.
    assert _same_time_wake_order(monkeypatch, 1) == perturbed


# -- regression: interrupt while queued on a resource ------------------------


def test_interrupt_while_queued_cancels_request():
    """An Interrupt during the acquire wait must cancel the queued
    request; before the fix the dead process's request stayed in the
    queue and consumed the next free slot forever."""
    env = Environment()
    resource = Resource(env, capacity=1)
    order = []

    def holder():
        yield from resource.acquire(10)
        order.append("holder")

    def victim():
        try:
            yield from resource.acquire(10)
            order.append("victim")
        except Interrupt:
            order.append("interrupted")

    def late():
        yield env.timeout(15)
        yield from resource.acquire(10)
        order.append("late")

    env.process(holder())
    victim_process = env.process(victim())

    def killer():
        yield env.timeout(2)
        victim_process.interrupt("test")

    env.process(killer())
    env.process(late())
    env.run()
    assert order == ["interrupted", "holder", "late"]
    assert resource.count == 0
    assert resource.queue_length == 0


# -- regression: interrupt mid tier-promotion --------------------------------


def _tier_setup():
    env = Environment()
    host = WorkerHost(env, seed=3)
    store = TieredSnapshotStore(host, TierParameters(
        local_capacity_bytes=1 * MIB))
    file = host.filesystem.create("a", 200 * PAGE_SIZE,
                                  device=host.snapshot_device)
    file.mark_written_blocks(range(200))
    entry = store.cache.register(file, "fn", "mem")
    store.cache._demote(entry)
    return env, store, file, entry


def test_ensure_local_interrupted_mid_promote_unpins_and_uncharges():
    env, store, file, entry = _tier_setup()
    failed = []

    def restorer():
        try:
            yield from store.cache.ensure_local("fn", ("mem",))
        except Interrupt:
            failed.append(env.now)

    process = env.process(restorer())

    def killer():
        yield env.timeout(1.0)  # transfer in flight
        process.interrupt("die")

    env.process(killer())
    env.run()
    assert failed
    assert entry.pins == 0, "interrupted restore leaked its pins"
    assert entry.promote_done is None
    assert entry.charged is False, "failed promotion kept its budget"
    assert entry.local is False
    assert store.cache.local_bytes_used == 0
    assert file.device is store.remote


def test_ensure_local_interrupted_promotion_wakes_coalesced_waiter():
    env, store, _file, entry = _tier_setup()
    waiter_done = []

    def restorer():
        try:
            yield from store.cache.ensure_local("fn", ("mem",))
        except Interrupt:
            pass

    def waiter():
        pinned = yield from store.cache.ensure_local("fn", ("mem",))
        store.cache.unpin(pinned)
        waiter_done.append(env.now)

    process = env.process(restorer())

    def start_waiter():
        yield env.timeout(0.5)
        yield from waiter()

    def killer():
        yield env.timeout(1.0)
        process.interrupt("die")

    env.process(start_waiter())
    env.process(killer())
    env.run()
    # The waiter neither hangs nor leaks; the artifact stays remote.
    assert waiter_done
    assert entry.pins == 0
    assert store.cache.stats.coalesced == 1


# -- leak accounting ---------------------------------------------------------


def test_enabled_reads_environment(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    assert sanitizer.enabled() is False
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    assert sanitizer.enabled() is True


def test_resource_leaks_are_reported(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    env = Environment()
    resource = Resource(env, capacity=2)
    grant = resource.request()
    env.run()
    report = sanitizer.leak_report()
    assert len(report) == 1
    assert "1 grant(s) held" in report[0]
    with pytest.raises(sanitizer.LeakError):
        sanitizer.assert_no_leaks(context="unit test")
    resource.release(grant)
    assert sanitizer.leak_report() == []
    sanitizer.assert_no_leaks()


def test_tier_pin_leaks_are_reported(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    env, store, _file, entry = _tier_setup()
    process = env.process(store.cache.ensure_local("fn", ("mem",)))
    pinned = env.run(until=process)
    report = sanitizer.leak_report()
    assert any("pin(s)" in line for line in report)
    store.cache.unpin(pinned)
    assert sanitizer.leak_report() == []


def test_uffd_unserved_faults_are_reported(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    env = Environment()
    fs = Filesystem(SsdDevice(env))
    backing = fs.create("mem", 1 * MIB)
    memory = GuestMemory(backing.size, mode=BackingMode.UFFD,
                         content=ContentMode.METADATA,
                         backing_file=backing)
    uffd = UserFaultFd(env, memory)
    uffd.raise_fault(7)
    env.run()
    report = sanitizer.leak_report()
    assert any("unserved fault" in line for line in report)
    # Serving the fault clears the leak: an idle open uffd is legal
    # (warm instances keep one).
    event = uffd.read_event()
    env.run()
    uffd.copy(event.value.page)
    assert sanitizer.leak_report() == []


def test_tracking_is_off_without_env(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    env = Environment()
    resource = Resource(env, capacity=1)
    resource.request()
    assert sanitizer.leak_report() == []


# -- cell-boundary integration ----------------------------------------------


class _LeakyExperiment(Experiment):
    id = "leaky"
    title = "leaks a grant"

    def cells(self, **kwargs):
        return [Cell(self.id, "only", {})]

    def run_cell(self, cell):
        self.env = Environment()
        self.resource = Resource(self.env, capacity=1)
        self.grant = self.resource.request()  # lint: allow[REPRO-R001]
        self.env.run()
        return {"ok": True}


def test_run_cell_checked_raises_on_leak(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    experiment = _LeakyExperiment()
    (cell,) = experiment.cells()
    with pytest.raises(sanitizer.LeakError) as excinfo:
        run_cell_checked(experiment, cell)
    assert "leaky/only" in str(excinfo.value)


def test_run_cell_checked_passthrough_when_disabled(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    experiment = _LeakyExperiment()
    (cell,) = experiment.cells()
    assert run_cell_checked(experiment, cell) == {"ok": True}


def _fig7_digest(monkeypatch, tiebreak=None, sanitize=False):
    monkeypatch.delenv("REPRO_SANITIZE_TIEBREAK", raising=False)
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    if tiebreak is not None:
        monkeypatch.setenv("REPRO_SANITIZE_TIEBREAK", str(tiebreak))
    if sanitize:
        monkeypatch.setenv("REPRO_SANITIZE", "1")
    experiment = Fig7DesignPoints()
    (cell,) = experiment.cells(seed=42, functions=("helloworld",))
    payload = run_cell_checked(experiment, cell)
    return payload_digest(canonicalize(payload))


def test_fig7_digest_invariant_under_tiebreak_perturbation(monkeypatch):
    """The acceptance criterion: a full design-point cell run under
    tie-break perturbation (and the leak checker) produces a
    byte-identical result digest -- the model's outputs do not depend
    on arbitrary same-timestamp event ordering."""
    baseline = _fig7_digest(monkeypatch)
    for seed in (1, 12345):
        assert _fig7_digest(monkeypatch, tiebreak=seed,
                            sanitize=True) == baseline
