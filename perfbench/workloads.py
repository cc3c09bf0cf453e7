"""The four perfbench workloads: inputs from a seed, one pass at a time.

A *pass* builds a fresh simulated system (timed as set-up: from
``Environment()`` through deploy and record), then drives one fixed batch
of invocations through the program's public APIs (timed as the measured
phase).  Every input -- arrival times, the simulator's own seed -- comes
from the ``seed`` argument, so two passes with one seed do the same work
and must produce the same digest.

The traces are built here rather than by :func:`repro.orchestrator.trace.
synthesize`: the synthesizer draws each function's rate from a Pareto tail,
so the work in a trace (and with it every host-time metric) would swing by
tens of percent from seed to seed.  These generators keep the Azure shape
-- sporadic endpoints whose every arrival is cold, bursty pipeline stages
that are cold only at the head of a burst, periodic timers that stay warm
-- but fix the number of arrivals and the cold/warm split per function, so
a seed moves *when* things happen, not *how much* happens.
"""

from __future__ import annotations

import gc
import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.bench.harness import Testbed
from repro.functions import catalog_names, get_profile
from repro.functions.catalog import recommended_keepalive_s
from repro.orchestrator import (
    AutoscalerParameters,
    Cluster,
    InvocationTrace,
    SchemeInvoker,
    TraceEvent,
    TraceReplayer,
)
from repro.orchestrator.cluster import InvocationShed
from repro.sim import MIB, Environment, RandomStream
from repro.snapstore import TierParameters

#: The Azure mix of ``trace_scale``: sporadic interactive endpoints and
#: bursty pipeline stages (the classes ``default_rate_class`` assigns).
AZURE_SPORADIC = ("helloworld", "cnn_serving")
AZURE_BURSTY = ("image_rotate", "json_serdes")

#: Autoscaler reaper period in every cluster workload.
SCAN_PERIOD_S = 15.0

#: Gap before a sporadic arrival or a burst head: longer than the azure
#: keep-alive (120 s) plus one reaper scan, so the instance is gone and the
#: arrival is a cold start.
IDLE_GAP_S = (150.0, 450.0)

#: Gap inside a burst: longer than any cold start of the mix and far
#: shorter than the keep-alive, so every arrival after the head is warm.
BURST_GAP_S = (2.0, 6.0)
BURST_SIZE = 6

#: Timer periods of ``warm_periodic`` (seconds).  Two batch jobs
#: (lr_training, video_processing) and four light endpoints; the periodic
#: keep-alive (600 s) exceeds every period, so only first arrivals are cold.
PERIODIC_S = {"helloworld": 60.0, "chameleon": 60.0, "pyaes": 90.0,
              "lr_serving": 90.0, "lr_training": 120.0,
              "video_processing": 120.0}
PERIODIC_JITTER = 0.05

#: Local snapshot tier of ``azure_reap_tiered`` (per worker).  A REAP
#: restore needs a function's VMM state, trace and working-set files:
#: 47 MiB for cnn_serving, 10-25 MiB for each other function of the mix,
#: 106 MiB in all.  52 MiB holds cnn_serving's set or two of the others,
#: so neither worker can keep its share of the mix and most cold restores
#: promote and evict.  At 60 MiB and above, locality routing splits the
#: mix across the two workers and the churn stops.
TIER_CAPACITY_BYTES = 52 * MIB


@dataclass
class System:
    """A set-up simulated system, ready for its measured phase."""

    env: Environment
    orchestrators: list
    #: Runs the measured phase; returns (arrivals, completed results).
    #: An arrival whose simulation raised has no result.
    drive: Callable[[], tuple[int, list]]
    #: Front-end routing counters, when there is a front end.
    route_stats: Callable[[], dict] = lambda: {}
    close: Callable[[], None] = lambda: None
    #: Host milliseconds of each cold start, filled by ``drive`` on a
    #: closed loop (one request in flight); empty on an open loop, where
    #: the host time of one request cannot be told apart.
    cold_start_host_ms: list[float] = field(default_factory=list)


@dataclass
class PassResult:
    """What one pass measured and produced."""

    setup_s: float
    wall_s: float
    arrivals: int
    completed: int
    failed: int
    digest: str
    #: Deterministic work done by the measured phase (machine-independent).
    work: dict[str, int]
    #: See :attr:`System.cold_start_host_ms`.
    cold_start_host_ms: list[float]


class _Recorder:
    """Invoker wrapper that keeps every result.

    An invocation whose simulation raises is surfaced to the trace
    replayer as shed, so the open loop keeps running and the pass reports
    an arrival without a result instead of aborting.
    """

    def __init__(self, invoker) -> None:
        self.invoker = invoker
        self.results: list = []

    def invoke(self, name: str, **kwargs):
        try:
            result = yield from self.invoker.invoke(name, **kwargs)
        except Exception as error:
            raise InvocationShed(name, 1) from error
        self.results.append(result)
        return result


# -- traces ------------------------------------------------------------------


def _azure_trace(seed: int, cycles: int) -> InvocationTrace:
    """``cycles`` cold arrivals per sporadic function and ``cycles`` bursts
    of :data:`BURST_SIZE` per bursty function."""
    root = RandomStream(seed, "perfbench", "azure")
    events = []
    for name in AZURE_SPORADIC + AZURE_BURSTY:
        stream = root.child(name)
        burst = 1 if name in AZURE_SPORADIC else BURST_SIZE
        at_s = stream.uniform(0.0, IDLE_GAP_S[1])
        for _ in range(cycles):
            for index in range(burst):
                if index:
                    at_s += stream.uniform(*BURST_GAP_S)
                events.append(TraceEvent(at_s=at_s, function=name))
            at_s += stream.uniform(*IDLE_GAP_S)
    return InvocationTrace(events, meta={"seed": seed, "cycles": cycles})


def _periodic_trace(seed: int, hours: float) -> InvocationTrace:
    """Jittered timers, a fixed number of firings per function."""
    root = RandomStream(seed, "perfbench", "periodic")
    events = []
    for name, period in PERIODIC_S.items():
        stream = root.child(name)
        phase = stream.uniform(PERIODIC_JITTER * period, period)
        for tick in range(int(hours * 3600.0 / period)):
            jitter = stream.uniform(-PERIODIC_JITTER, PERIODIC_JITTER)
            events.append(TraceEvent(
                at_s=phase + (tick + jitter) * period, function=name))
    return InvocationTrace(events, meta={"seed": seed, "hours": hours})


# -- systems -----------------------------------------------------------------


def _cluster_system(seed: int, trace: InvocationTrace, scheme: str,
                    keepalive_s: float,
                    snapstore_params: TierParameters | None = None) -> System:
    env = Environment()
    cluster = Cluster(env, n_workers=2, seed=seed,
                      autoscaler_params=AutoscalerParameters(
                          keepalive_s=keepalive_s,
                          scan_period_s=SCAN_PERIOD_S),
                      snapstore_params=snapstore_params)
    functions = trace.functions()
    for name in functions:
        env.run(until=env.process(cluster.deploy(get_profile(name))))
    if scheme == "reap":
        # One record per function per worker, as trace_scale does, so
        # the measured replay starts in prefetch mode.
        for worker in cluster.workers:
            for name in functions:
                env.run(until=env.process(worker.orchestrator.invoke(name)))
    recorder = _Recorder(SchemeInvoker(cluster, scheme))

    def drive() -> tuple[int, list]:
        replayer = TraceReplayer(env, recorder, trace)
        env.run(until=env.process(replayer.run()))
        return len(trace), recorder.results

    return System(
        env=env,
        orchestrators=[worker.orchestrator for worker in cluster.workers],
        drive=drive,
        route_stats=cluster.balancer.stats.to_dict, close=cluster.shutdown)


def _azure_vanilla(seed: int, scale: float) -> System:
    return _cluster_system(seed, _azure_trace(seed, _count(6, scale)),
                           "vanilla", recommended_keepalive_s("azure"))


def _azure_reap_tiered(seed: int, scale: float) -> System:
    return _cluster_system(
        seed, _azure_trace(seed, _count(10, scale)), "reap",
        recommended_keepalive_s("azure"),
        TierParameters(local_capacity_bytes=TIER_CAPACITY_BYTES,
                       eviction="lru"))


def _warm_periodic(seed: int, scale: float) -> System:
    return _cluster_system(seed, _periodic_trace(seed, 1.5 * scale), "reap",
                           recommended_keepalive_s("periodic"))


def _catalog_cold(seed: int, scale: float) -> System:
    testbed = Testbed(seed=seed)
    names = catalog_names()
    for name in names:
        testbed.deploy(get_profile(name))
    for name in names:
        testbed.invoke(name)  # record
    rounds = _count(2, scale)
    results: list = []
    host_ms: list[float] = []

    def drive() -> tuple[int, list]:
        # Closed loop, one caller: each cold start waits for the previous.
        # The REAP half runs in auto mode; the manager may re-record or
        # fall back to vanilla after mispredictions (video_processing).
        for _ in range(rounds):
            for name in names:
                for mode in ("vanilla", None):
                    started = time.perf_counter()
                    try:
                        results.append(testbed.invoke(name, mode=mode))
                    except Exception:
                        continue  # counted: an arrival without a result
                    host_ms.append(1e3 * (time.perf_counter() - started))
        return 2 * rounds * len(names), results

    return System(env=testbed.env, orchestrators=[testbed.orchestrator],
                  drive=drive, cold_start_host_ms=host_ms)


def _count(base: int, scale: float) -> int:
    return max(1, round(base * scale))


#: Workload name -> set-up of one pass.  Why each workload exists is
#: recorded in ``BENCHMARK.json`` and ``perfbench/README.md``.
WORKLOADS: dict[str, Callable[[int, float], System]] = {
    "azure_vanilla": _azure_vanilla,
    "azure_reap_tiered": _azure_reap_tiered,
    "warm_periodic": _warm_periodic,
    "catalog_cold": _catalog_cold,
}


# -- one pass ----------------------------------------------------------------


def _work(system: System, results: list, events: int) -> dict[str, int]:
    """Deterministic counters of the work the system has done so far."""
    hosts = [orchestrator.host for orchestrator in system.orchestrators]
    tiers = [orchestrator.snapstore for orchestrator in system.orchestrators
             if orchestrator.snapstore is not None]
    work = {
        "events": events,
        "invocations": len(results),
        "cold_starts": sum(1 for result in results if result.mode != "warm"),
        "demand_faults": sum(r.breakdown.demand_faults for r in results),
        "prefetched_pages": sum(r.breakdown.prefetched_pages
                                for r in results),
        "unused_prefetched": sum(r.breakdown.unused_prefetched
                                 for r in results),
        "page_cache_hits": sum(host.page_cache.hits for host in hosts),
        "page_cache_misses": sum(host.page_cache.misses for host in hosts),
        "device_read_bytes": sum(host.device.stats.read_bytes
                                 for host in hosts)
        + sum(tier.remote.stats.read_bytes for tier in tiers),
    }
    for key in ("promotions", "evictions", "local_hits", "remote_misses"):
        work[key] = sum(getattr(tier.stats, key) for tier in tiers)
    return work


def _digest(system: System, results: list) -> str:
    """Hash of the simulated output: every invocation's function, mode,
    start and finish, plus the routing and tier counters."""
    payload = {
        "invocations": [[result.function, result.mode, result.started_at,
                         result.finished_at] for result in results],
        "route": system.route_stats(),
        "tiers": [orchestrator.snapstore.stats.to_dict()
                  for orchestrator in system.orchestrators
                  if orchestrator.snapstore is not None],
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def run_pass(name: str, seed: int, scale: float = 1.0,
             probe=None) -> PassResult:
    """Set up ``name`` from ``seed`` and run its measured phase once.

    ``probe`` (a :class:`perfbench.probes.LayerProbe`, already installed)
    is started and stopped around the measured phase only.
    """
    gc.collect()
    started = time.perf_counter()
    system = WORKLOADS[name](seed, scale)
    setup_s = time.perf_counter() - started
    before = _work(system, [], system.env.events_processed)
    if probe is not None:
        probe.start()
    started = time.perf_counter()
    arrivals, results = system.drive()
    wall_s = time.perf_counter() - started
    if probe is not None:
        probe.stop()
    system.close()
    after = _work(system, results, system.env.events_processed)
    work = {key: after[key] - before[key] for key in after}
    return PassResult(setup_s=setup_s, wall_s=wall_s, arrivals=arrivals,
                      completed=len(results),
                      failed=arrivals - len(results),
                      digest=_digest(system, results), work=work,
                      cold_start_host_ms=system.cold_start_host_ms)
