"""Faults served in place, end to end through the restore policies.

``VanillaPolicy``'s inline handler, the warm path's anonymous one and
``UffdMonitor._serve`` serve a fault as plain synchronous code when no
other process could observe it.  Every invocation here runs twice from
the same state: once as built, once with every in-place path forced to
decline, so the generator path serves each fault.  Clock, event count,
fault counters, page-cache LRU order and counters, device statistics
and the guest's present pages must all match.
"""

import pytest

from repro.functions import FunctionProfile
from repro.memory import ContentMode
from repro.orchestrator import Orchestrator
from repro.sim import Environment
from repro.storage import HostPageCache
from repro.vm import WorkerHost


def tiny_profile(fault_cpu_us):
    return FunctionProfile(
        name="tiny", description="tiny function for fault-path tests",
        vm_memory_mb=32, boot_footprint_mb=4.0, warm_ms=2.0,
        connection_pages=40, processing_pages=80, unique_pages=12,
        unique_zero_fraction=0.5, contiguity_mean=2.3,
        fault_cpu_us=fault_cpu_us)


def force_generator_path(monkeypatch):
    """Make every in-place fault path decline."""
    monkeypatch.setattr(HostPageCache, "fault_in_place",
                        lambda self, *args: None)
    handlers = Orchestrator._anonymous_fault_handlers
    monkeypatch.setattr(
        Orchestrator, "_anonymous_fault_handlers",
        lambda self, vm, breakdown: (handlers(self, vm, breakdown)[0],
                                     None))


def count_fault_in(monkeypatch):
    calls = []
    fault_in = HostPageCache.fault_in

    def counted(self, file, block):
        calls.append(block)
        return fault_in(self, file, block)

    monkeypatch.setattr(HostPageCache, "fault_in", counted)
    return calls


def run_invocations(invocations, fault_cpu_us, storage="ssd"):
    env = Environment()
    host = WorkerHost(env, seed=3, storage=storage)
    orch = Orchestrator(host, seed=3, content=ContentMode.METADATA)
    env.run(until=env.process(orch.deploy(tiny_profile(fault_cpu_us))))
    results = []
    for kwargs in invocations:
        proc = env.process(orch.invoke("tiny", **kwargs))
        results.append(env.run(until=proc))
    cache = host.page_cache
    warm = orch.function("tiny").warm
    return {
        "now": env.now,
        "events": env.events_processed,
        "results": [(result.mode, result.started_at, result.finished_at,
                     result.breakdown.to_dict()) for result in results],
        "lru": [(version, block) for _file, version, block in cache._cached],
        "hits": cache.hits,
        "misses": cache.misses,
        "device": host.device.stats.to_dict(),
        "snapshot_device": host.snapshot_device.stats.to_dict(),
        "present": [sorted(instance.vm.memory._present)
                    for instance in warm],
        "faults_taken": [instance.vm.vcpu.faults_taken for instance in warm],
    }


_INVOCATIONS = {
    # Vanilla cold start (kernel lazy paging), then a second cold start
    # on a warm page cache (hits), then the warm path (anonymous faults).
    "vanilla": [dict(mode="vanilla"),
                dict(mode="vanilla", flush_page_cache=False,
                     keep_warm=True),
                dict()],
    # REAP record: the uffd monitor serves every fault.
    "record": [dict(mode="record")],
}


@pytest.mark.parametrize("fault_cpu_us", [0.0, 25.0], ids=["cpu0", "cpu25"])
@pytest.mark.parametrize("scenario", sorted(_INVOCATIONS))
def test_in_place_faults_match_the_generator_path(scenario, fault_cpu_us,
                                                  monkeypatch):
    invocations = _INVOCATIONS[scenario]
    calls = count_fault_in(monkeypatch)
    served = run_invocations(invocations, fault_cpu_us)
    in_place_calls = len(calls)
    force_generator_path(monkeypatch)
    driven = run_invocations(invocations, fault_cpu_us)
    assert served == driven
    # The generator path ran only for the faults that declined.
    assert len(calls) - in_place_calls > 10 * max(in_place_calls, 1)
    if scenario == "vanilla":
        assert any(result[3]["major_faults"] for result in served["results"])
        assert served["results"][-1][0] == "warm"
        assert served["results"][-1][3]["zero_faults"] > 0


def test_hdd_hosts_serve_major_faults_through_the_generator_path(
        monkeypatch):
    # A disk seek depends on the head position, so the HDD never answers
    # an uncontended read: every major fault declines, while hits and
    # holes are still served in place.
    calls = count_fault_in(monkeypatch)
    served = run_invocations(_INVOCATIONS["vanilla"][:1], 25.0,
                             storage="hdd")
    breakdown = served["results"][0][3]
    assert len(calls) == breakdown["major_faults"] > 0
    assert breakdown["demand_faults"] > len(calls)
    force_generator_path(monkeypatch)
    assert run_invocations(_INVOCATIONS["vanilla"][:1], 25.0,
                           storage="hdd") == served
