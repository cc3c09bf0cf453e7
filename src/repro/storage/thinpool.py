"""Thin-pool (devmapper) wrapper device.

Containerd provisions Firecracker snapshot state on devmapper thin
devices.  That block path has a small internal queue depth: requests
beyond it wait, regardless of how parallel the SSD underneath is.  This
single modelling choice explains two otherwise puzzling measurements in
the paper:

* the Parallel-PF design point (Fig. 7) only reaches ~130 MB/s despite 16
  worker goroutines -- its page reads funnel through the thin pool;
* baseline cold starts scale near-linearly with concurrent instances
  (Fig. 9) while collectively extracting only tens of MB/s from an
  850 MB/s SSD.

REAP's working-set files are regular files on the host filesystem and
bypass this wrapper entirely, which is part of why its prefetch phase can
saturate the device.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator

from repro.sim.engine import Environment, Event
from repro.sim.resources import Resource
from repro.storage.device import BlockDevice, DeviceStats, IoRequest, ReadKind


@dataclass(frozen=True)
class ThinPoolParameters:
    """Thin-pool behaviour knobs."""

    #: Number of requests the pool keeps in flight at the backing device.
    queue_depth: int = 4
    #: Fixed per-request mapping overhead (dm btree lookup etc.).
    mapping_overhead_us: float = 4.0


class ThinPoolDevice:
    """A devmapper-thin-style shim over a backing device."""

    def __init__(self, env: Environment, backing: BlockDevice,
                 params: ThinPoolParameters | None = None,
                 name: str = "thinpool") -> None:
        self.env = env
        self.backing = backing
        self.params = params or ThinPoolParameters()
        self.name = name
        self.stats = DeviceStats()
        self._slots = Resource(env, capacity=self.params.queue_depth)

    def read(self, request: IoRequest) -> Generator[Event, Any, None]:
        """Serve a read through the pool's limited queue."""
        env = self.env
        grant = self._slots.request()
        try:
            if not env.take(grant):
                yield grant
            if not env.advance(self.params.mapping_overhead_us):
                yield env.timeout(self.params.mapping_overhead_us)
            yield from self.backing.read(request)
        finally:
            self._slots.release(grant)
        self.stats.record(request, self.env.now)

    def uncontended_read_end(self, start: float,
                             nbytes: int) -> tuple[float, int] | None:
        """End and step count of a read that queues nowhere.

        Needs a free slot (a take and the mapping advance), then asks
        the backing device from the end of the mapping delay.
        """
        if not self._slots.available:
            return None
        answer = self.backing.uncontended_read_end(
            start + self.params.mapping_overhead_us, nbytes)
        if answer is None:
            return None
        end, steps = answer
        return end, steps + 2

    def commit_read(self, nbytes: int, kind: ReadKind, when: float) -> None:
        """Record a read answered by :meth:`uncontended_read_end`."""
        self.backing.commit_read(nbytes, kind, when)
        self.stats.record_io(nbytes, kind, when)

    def write(self, request: IoRequest) -> Generator[Event, Any, None]:
        """Serve a write through the pool's limited queue."""
        grant = self._slots.request()
        try:
            yield grant
            yield self.env.timeout(self.params.mapping_overhead_us)
            yield from self.backing.write(request)
        finally:
            self._slots.release(grant)
        self.stats.record(request, self.env.now)
