"""HDD timing model for the §6.3 hard-disk experiment.

A single actuator (capacity-1 resource) serves requests one at a time.
A request that is not sequential with the previously served one pays an
average seek plus half-rotation penalty; back-to-back sequential requests
stream at the platter transfer rate.  Defaults approximate the paper's
2 TB 7200 RPM WD SATA3 drive: ~8.5 ms seek, 8.33 ms per revolution,
~150 MB/s streaming.

Random 4 KiB reads therefore cost ~12.7 ms each -- two orders of
magnitude above the SSD -- which is why REAP's single large read wins by
5.4x end-to-end on this device.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator

from repro.sim.engine import Environment, Event
from repro.sim.resources import Resource
from repro.sim.units import mbps_to_bytes_per_us
from repro.storage.device import DeviceStats, IoRequest


@dataclass(frozen=True)
class HddParameters:
    """Constants for the 7200 RPM disk model."""

    average_seek_us: float = 8_500.0
    rotation_us: float = 8_333.0  # one revolution at 7200 RPM
    transfer_mbps: float = 150.0
    write_transfer_mbps: float = 140.0
    #: A request starting within this many bytes of the previous end
    #: counts as sequential and skips the seek + rotation penalty.
    sequential_window_bytes: int = 512 * 1024


class HddDevice:
    """Single-actuator rotating disk."""

    def __init__(self, env: Environment,
                 params: HddParameters | None = None,
                 name: str = "hdd") -> None:
        self.env = env
        self.params = params or HddParameters()
        self.name = name
        self.stats = DeviceStats()
        self._actuator = Resource(env, capacity=1)
        self._bytes_per_us = mbps_to_bytes_per_us(self.params.transfer_mbps)
        self._write_bytes_per_us = mbps_to_bytes_per_us(
            self.params.write_transfer_mbps)
        self._head_position: int | None = None

    def read(self, request: IoRequest) -> Generator[Event, Any, None]:
        """Serve a read request."""
        yield from self._serve(request, self._bytes_per_us)
        self.stats.record(request, self.env.now)

    def uncontended_read_end(self, start: float,
                             nbytes: int) -> tuple[float, int] | None:
        """Never answers: a read's seek depends on the head position."""
        return None

    def write(self, request: IoRequest) -> Generator[Event, Any, None]:
        """Serve a write request."""
        yield from self._serve(request, self._write_bytes_per_us)
        self.stats.record(request, self.env.now)

    def _serve(self, request: IoRequest,
               bytes_per_us: float) -> Generator[Event, Any, None]:
        grant = self._actuator.request()
        try:
            yield grant
            service = request.nbytes / bytes_per_us
            if not self._is_sequential(request.lba):
                service += (self.params.average_seek_us
                            + self.params.rotation_us / 2.0)
            self._head_position = request.lba + request.nbytes
            yield self.env.timeout(service)
        finally:
            self._actuator.release(grant)

    def _is_sequential(self, lba: int) -> bool:
        if self._head_position is None:
            return False
        distance = abs(lba - self._head_position)
        return distance <= self.params.sequential_window_bytes
