"""Remote (disaggregated) snapshot storage.

§2.3 and §7.1 of the paper discuss keeping snapshots in a remote storage
service (S3/EBS-style) instead of the local SSD: retrieval speed then
depends on the network round trip and link bandwidth on top of the
service's internal disks.  REAP's advantage *grows* in that setting —
it moves a minimal amount of state in one large transfer, while lazy
paging pays a round trip per small read.

:class:`RemoteDevice` wraps any backing device with a network hop: each
request pays one round-trip latency and streams its payload over a
shared, capacity-one link.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator

from repro.sim.engine import Environment, Event
from repro.sim.resources import Resource
from repro.sim.units import mbps_to_bytes_per_us
from repro.storage.device import (
    BlockDevice,
    DeviceStats,
    IoRequest,
    ReadKind,
)


@dataclass(frozen=True)
class RemoteStorageParameters:
    """Network path to the storage service."""

    #: One-way network latency (request + response = 2x).
    network_latency_us: float = 250.0
    #: Link bandwidth between worker and storage service.
    network_bandwidth_mbps: float = 1200.0
    #: Fixed service-side request handling overhead.
    service_overhead_us: float = 120.0


class RemoteOutageError(RuntimeError):
    """A remote-storage request failed because the service is down."""


@dataclass
class RemoteFaultState:
    """Mutable failure switches of one (or several) remote devices.

    A chaos controller owns one instance and assigns it to every
    worker's remote device, so outage/spike windows apply fleet-wide.
    Windows are expressed as absolute sim times: a request checks
    ``env.now`` against them on entry, which keeps the healthy path a
    single ``is None`` branch and the faulty path free of extra
    processes.
    """

    #: Requests entering before this sim time hit the outage.
    outage_until: float = 0.0
    #: ``"fail"`` raises :class:`RemoteOutageError` immediately;
    #: ``"stall"`` parks the request until the outage lifts.
    outage_mode: str = "fail"
    #: Requests entering before this sim time see degraded service.
    spike_until: float = 0.0
    #: Latency/overhead multiplier during the spike window.
    latency_multiplier: float = 1.0
    #: Bandwidth multiplier (< 1 slows transfers) during the spike.
    bandwidth_factor: float = 1.0
    # -- counters (read by the chaos scorecard) --------------------------
    failed_ops: int = 0
    stalled_ops: int = 0
    spiked_ops: int = 0


class RemoteDevice:
    """A backing device reached over the network."""

    def __init__(self, env: Environment, backing: BlockDevice,
                 params: RemoteStorageParameters | None = None,
                 name: str = "remote") -> None:
        self.env = env
        self.backing = backing
        self.params = params or RemoteStorageParameters()
        self.name = name
        self.stats = DeviceStats()
        #: Failure switches; ``None`` (the default) keeps every request
        #: on the healthy path at the cost of one attribute load.
        self.fault: RemoteFaultState | None = None
        self._link = Resource(env, capacity=1)
        self._bytes_per_us = mbps_to_bytes_per_us(
            self.params.network_bandwidth_mbps)

    def read(self, request: IoRequest) -> Generator[Event, Any, None]:
        """Fetch a range from the remote service."""
        yield from self._round_trip(request, self.backing.read)
        self.stats.record(request, self.env.now)

    def uncontended_read_end(self, start: float,
                             nbytes: int) -> tuple[float, int] | None:
        """Never answers: outages, spikes and the shared link decide."""
        return None

    def write(self, request: IoRequest) -> Generator[Event, Any, None]:
        """Push a range to the remote service."""
        yield from self._round_trip(request, self.backing.write)
        self.stats.record(request, self.env.now)

    def _round_trip(self, request: IoRequest,
                    backing_op) -> Generator[Event, Any, None]:
        params = self.params
        latency = params.network_latency_us
        overhead = params.service_overhead_us
        bytes_per_us = self._bytes_per_us
        fault = self.fault
        if fault is not None:
            if self.env.now < fault.outage_until:
                if (fault.outage_mode == "fail"
                        and request.kind is not ReadKind.DEMAND_FAULT):
                    # Control-plane reads (promotes, prefetch, VMM-state
                    # loads) fail fast so the failover machinery reacts.
                    fault.failed_ops += 1
                    raise RemoteOutageError(
                        f"{self.name}: remote storage unreachable "
                        f"(outage until t={fault.outage_until:.0f}us)")
                # Stall: the request parks until the outage lifts, then
                # proceeds at normal service rates.  Demand page faults
                # always stall -- the kernel paging path has no way to
                # surface an I/O error to the guest (hard-mount
                # semantics), so the vCPU hangs until service returns.
                fault.stalled_ops += 1
                yield self.env.timeout(fault.outage_until - self.env.now)
            if self.env.now < fault.spike_until:
                fault.spiked_ops += 1
                latency *= fault.latency_multiplier
                overhead *= fault.latency_multiplier
                bytes_per_us *= fault.bandwidth_factor
        yield self.env.timeout(latency + overhead)
        yield from backing_op(request)
        # Response payload streams over the shared link.
        transfer_us = request.nbytes / bytes_per_us
        yield from self._link.acquire(transfer_us)
        yield self.env.timeout(latency)
