"""Faults served in place, end to end through the restore policies.

``VanillaPolicy``'s inline handler, the warm path's anonymous one,
``UffdMonitor._serve`` and ``UffdMonitor.serve_in_place`` (a uffd
fault served by the faulting vCPU, with no handoff to the monitor)
serve a fault as plain synchronous code when no other process could
observe it.  Every invocation here runs twice from the same state: once
as built, once with every in-place path forced to decline, so the
generator path serves each fault.  Clock, event count, fault counters,
page-cache LRU order and counters, device statistics, the guest's
present pages and install order, and every monitor's and userfaultfd's
counters and recorded trace must all match.
"""

import pytest

from repro.core.monitor import UffdMonitor
from repro.core.policies import _UffdPolicy
from repro.functions import FunctionProfile
from repro.memory import ContentMode
from repro.orchestrator import Orchestrator
from repro.sim import Environment
from repro.storage import HostPageCache
from repro.vm import WorkerHost


def tiny_profile(fault_cpu_us, **overrides):
    fields = dict(
        name="tiny", description="tiny function for fault-path tests",
        vm_memory_mb=32, boot_footprint_mb=4.0, warm_ms=2.0,
        connection_pages=40, processing_pages=80, unique_pages=12,
        unique_zero_fraction=0.5, contiguity_mean=2.3,
        fault_cpu_us=fault_cpu_us)
    fields.update(overrides)
    return FunctionProfile(**fields)


def force_generator_path(monkeypatch):
    """Make every in-place fault path decline."""
    monkeypatch.setattr(HostPageCache, "fault_in_place",
                        lambda self, *args, **kwargs: None)
    monkeypatch.setattr(UffdMonitor, "serve_in_place",
                        lambda self, page: False)
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


def watch_uffd_policies(monkeypatch):
    """Collect every userfaultfd policy attached from now on."""
    attached = []
    attach = _UffdPolicy.attach

    def watched(self, vm):
        attach(self, vm)
        attached.append(self)

    monkeypatch.setattr(_UffdPolicy, "attach", watched)
    return attached


def count_served_in_place(monkeypatch):
    """Record the page of every uffd fault the vCPU served in place."""
    accepted = []
    serve_in_place = UffdMonitor.serve_in_place

    def counted(self, page):
        served = serve_in_place(self, page)
        if served:
            accepted.append(page)
        return served

    monkeypatch.setattr(UffdMonitor, "serve_in_place", counted)
    return accepted


def uffd_state(policy):
    """A uffd policy's monitor, fd and guest memory after its invocation."""
    monitor, uffd = policy.monitor, policy.uffd
    recorder = getattr(monitor, "recorder", None)
    return {
        "policy": policy.name,
        "faults": (monitor.demand_faults, monitor.major_faults,
                   monitor.zero_faults),
        "uffd": (uffd.faults_raised, uffd.pages_copied, uffd.queued_events,
                 len(uffd._pending), uffd.closed),
        "running": monitor.running,
        "trace": None if recorder is None else list(recorder.pages),
        "install_order": list(uffd.memory.install_order),
        "present": sorted(uffd.memory._present),
    }


def run_invocations(invocations, fault_cpu_us, storage="ssd",
                    policies=(), after_each=None, profile=None):
    """Deploy the tiny function and run ``invocations`` in order.

    ``policies`` is a list :func:`watch_uffd_policies` fills,
    ``after_each`` is called after every invocation, and ``profile``
    overrides fields of the tiny profile.
    """
    env = Environment()
    host = WorkerHost(env, seed=3, storage=storage)
    orch = Orchestrator(host, seed=3, content=ContentMode.METADATA)
    env.run(until=env.process(orch.deploy(
        tiny_profile(fault_cpu_us, **(profile or {})))))
    first_policy = len(policies)
    results = []
    for kwargs in invocations:
        proc = env.process(orch.invoke("tiny", **kwargs))
        results.append(env.run(until=proc))
        if after_each is not None:
            after_each()
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
        "uffd_policies": [uffd_state(policy)
                          for policy in policies[first_policy:]],
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
    # A record, then a prefetching restore whose monitor serves only the
    # invocation's unique pages (file-backed and zero-fill alike).
    "reap": [dict(mode="record"), dict(mode="reap")],
    "ws_file": [dict(mode="record"), dict(mode="ws_file")],
    "parallel_pf": [dict(mode="record"), dict(mode="parallel_pf")],
    # The working set streams in while the vCPU runs: a fault on a page
    # still streaming waits on the transfer and is never served in place.
    "overlap": [dict(mode="record"), dict(mode="overlap")],
}

#: Profile overrides: a working set large enough that the overlap
#: stream is still running when the vCPU touches its pages.
_PROFILES = {
    "overlap": dict(boot_footprint_mb=12.0, connection_pages=200,
                    processing_pages=800),
}


@pytest.mark.parametrize("fault_cpu_us", [0.0, 25.0], ids=["cpu0", "cpu25"])
@pytest.mark.parametrize("scenario", sorted(_INVOCATIONS))
def test_in_place_faults_match_the_generator_path(scenario, fault_cpu_us,
                                                  monkeypatch):
    invocations = _INVOCATIONS[scenario]
    calls = count_fault_in(monkeypatch)
    policies = watch_uffd_policies(monkeypatch)
    accepted = count_served_in_place(monkeypatch)
    progress = []
    profile = _PROFILES.get(scenario)
    served = run_invocations(invocations, fault_cpu_us, policies=policies,
                             after_each=lambda: progress.append(
                                 len(accepted)),
                             profile=profile)
    in_place_calls = len(calls)
    force_generator_path(monkeypatch)
    driven = run_invocations(invocations, fault_cpu_us, policies=policies,
                             profile=profile)
    assert served == driven
    # The generator path ran only for the faults that declined.
    assert len(calls) - in_place_calls > 10 * max(in_place_calls, 1)
    if scenario == "vanilla":
        assert any(result[3]["major_faults"] for result in served["results"])
        assert served["results"][-1][0] == "warm"
        assert served["results"][-1][3]["zero_faults"] > 0
        assert not accepted
        return
    # Every uffd invocation had faults its vCPU served in place, and
    # those faults and the monitor's agree in number.
    counts = [after - before
              for before, after in zip([0, *progress], progress)]
    states = served["uffd_policies"]
    assert [state["policy"] for state in states] == [
        kwargs["mode"] for kwargs in invocations]
    for count, state in zip(counts, states):
        demand, major, zero = state["faults"]
        assert 0 < count <= demand == state["uffd"][0]
        assert zero > 0 and demand > zero
    if fault_cpu_us and scenario == "record":
        assert states[0]["faults"][1] > 0
    if scenario == "overlap":
        assert served["results"][-1][3]["extra"]["overlap_blocked_faults"]


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
