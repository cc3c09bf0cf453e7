"""SSD timing model.

The model has three contention points, which together reproduce the
paper's fio calibration triplet (§5.2.3):

* a **controller** (capacity 1) that spends ``controller_us`` on every
  request -- this is the per-request software/interface overhead that
  caps small-read IOPS;
* sixteen **flash channels**; a small (random) read occupies one channel
  for ``flash_read_us`` plus the link transfer of its payload;
* a **stream engine** (capacity 1) through which large reads move in
  ``chunk_bytes`` chunks at ``seq_bandwidth_mbps`` -- concurrent large
  streams interleave chunk-by-chunk and share the peak bandwidth fairly
  (the effect that makes REAP disk-bound past 16 concurrent loads, §6.5).

Calibration sanity (defaults): a lone 4 KiB read costs
``11.5 + 108 + 4096/link ≈ 127 µs`` -> ~32 MB/s; sixteen concurrent 4 KiB
readers are controller-limited at ``4096 B / 11.5 µs ≈ 356 MB/s``; one
large read streams at 850 MB/s.  The fio-style benchmark in
``benchmarks/bench_fio_ssd.py`` regenerates all three numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator

from repro.sim.engine import Environment, Event
from repro.sim.resources import Resource
from repro.sim.units import KIB, mbps_to_bytes_per_us
from repro.storage.device import DeviceStats, IoRequest, ReadKind


@dataclass(frozen=True)
class SsdParameters:
    """Calibrated constants for the SSD model (see module docstring)."""

    controller_us: float = 11.5
    flash_read_us: float = 108.0
    flash_write_us: float = 190.0
    link_bandwidth_mbps: float = 550.0
    seq_bandwidth_mbps: float = 850.0
    seq_write_bandwidth_mbps: float = 520.0
    channels: int = 16
    #: Requests at or below this size take the random (channel) path.
    random_threshold_bytes: int = 128 * KIB
    #: Large transfers move through the stream engine in chunks this big.
    chunk_bytes: int = 512 * KIB
    #: Sequential-bandwidth loss per additional concurrent stream: with k
    #: streams interleaving, effective bandwidth is
    #: ``seq_bw / (1 + penalty * (k - 1))``.  Calibrated to §6.5, where
    #: 64 concurrent REAP fetches extract ~493 MB/s of the 850 MB/s peak.
    stream_interleave_penalty: float = 0.0115


class SsdDevice:
    """Queue-aware SSD; see module docstring for the calibration story."""

    def __init__(self, env: Environment,
                 params: SsdParameters | None = None,
                 name: str = "ssd") -> None:
        self.env = env
        self.params = params or SsdParameters()
        self.name = name
        self.stats = DeviceStats()
        self._controller = Resource(env, capacity=1)
        self._channels = Resource(env, capacity=self.params.channels)
        self._stream_engine = Resource(env, capacity=1)
        self._active_streams = 0
        self._link_bytes_per_us = mbps_to_bytes_per_us(
            self.params.link_bandwidth_mbps)
        self._seq_bytes_per_us = mbps_to_bytes_per_us(
            self.params.seq_bandwidth_mbps)
        self._seq_write_bytes_per_us = mbps_to_bytes_per_us(
            self.params.seq_write_bandwidth_mbps)

    # -- public API ------------------------------------------------------

    def read(self, request: IoRequest) -> Generator[Event, Any, None]:
        """Serve a read request (drive with ``yield from``)."""
        params = self.params
        if request.nbytes <= params.random_threshold_bytes:
            # Inlined controller + channel acquire: one random read runs
            # per demand-fault window, so the two Resource.acquire
            # delegation frames are measurable.  The event sequence is
            # identical to ``yield from resource.acquire(hold)`` twice
            # (uncontended grants taken in place, as there).
            env = self.env
            controller = self._controller
            grant = controller.request()
            try:
                if not env.take(grant):
                    yield grant
                if not env.advance(params.controller_us):
                    yield env.timeout(params.controller_us)
            finally:
                controller.release(grant)
            service = (params.flash_read_us
                       + request.nbytes / self._link_bytes_per_us)
            channels = self._channels
            grant = channels.request()
            try:
                if not env.take(grant):
                    yield grant
                if not env.advance(service):
                    yield env.timeout(service)
            finally:
                channels.release(grant)
        else:
            yield from self._streamed(request, self._seq_bytes_per_us)
        self.stats.record(request, self.env.now)

    def uncontended_read_end(self, start: float,
                             nbytes: int) -> tuple[float, int] | None:
        """End and step count of a random read that queues nowhere.

        Answers only for the random path with the controller and a
        channel free: controller hold, then channel hold, as in
        :meth:`read` (a take and an advance each).  A streamed read
        declines.
        """
        params = self.params
        if (nbytes > params.random_threshold_bytes
                or not self._controller.available
                or not self._channels.available):
            return None
        end = start + params.controller_us
        end += params.flash_read_us + nbytes / self._link_bytes_per_us
        return end, 4

    def commit_read(self, nbytes: int, kind: ReadKind, when: float) -> None:
        """Record a read answered by :meth:`uncontended_read_end`."""
        self.stats.record_io(nbytes, kind, when)

    def write(self, request: IoRequest) -> Generator[Event, Any, None]:
        """Serve a write request."""
        params = self.params
        if request.nbytes <= params.random_threshold_bytes:
            env = self.env
            controller = self._controller
            grant = controller.request()
            try:
                yield grant
                yield env.timeout(params.controller_us)
            finally:
                controller.release(grant)
            service = (params.flash_write_us
                       + request.nbytes / self._link_bytes_per_us)
            channels = self._channels
            grant = channels.request()
            try:
                yield grant
                yield env.timeout(service)
            finally:
                channels.release(grant)
        else:
            yield from self._streamed(request, self._seq_write_bytes_per_us)
        self.stats.record(request, self.env.now)

    # -- internals -------------------------------------------------------

    def _streamed(self, request: IoRequest,
                  bytes_per_us: float) -> Generator[Event, Any, None]:
        self._active_streams += 1
        try:
            remaining = request.nbytes
            while remaining > 0:
                chunk = min(remaining, self.params.chunk_bytes)
                yield from self._controller.acquire(self.params.controller_us)
                slowdown = 1.0 + (self.params.stream_interleave_penalty
                                  * (self._active_streams - 1))
                yield from self._stream_engine.acquire(
                    chunk * slowdown / bytes_per_us)
                remaining -= chunk
        finally:
            self._active_streams -= 1
