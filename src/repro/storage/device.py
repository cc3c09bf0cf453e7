"""Block-device abstraction and I/O accounting.

Devices only model *timing*; bytes live in :mod:`repro.storage.filesystem`.
A device serves :class:`IoRequest` objects through its ``read``/``write``
generator methods, and keeps a :class:`DeviceStats` tally that experiments
use to report effective bandwidths (e.g. the 43 MB/s the baseline extracts
from the SSD versus REAP's 533 MB/s, §6.2).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Generator, Protocol

from repro.sim.engine import Environment, Event
from repro.sim.units import SEC


class ReadKind(enum.Enum):
    """Why an I/O happened -- used only for accounting breakdowns."""

    DEMAND_FAULT = "demand_fault"
    READAHEAD = "readahead"
    BUFFERED = "buffered"
    DIRECT = "direct"
    WRITE = "write"

    # Members are singletons and only ever keyed in dicts (whose
    # iteration order is insertion order, independent of hash), so the
    # identity hash is safe -- and avoids Enum's Python-level __hash__
    # on every per-request stats update.
    __hash__ = object.__hash__


class IoRequest:
    """A single device request.

    ``lba`` is the byte offset on the device; ``nbytes`` the transfer
    size.  ``kind`` tags the request for statistics.

    A plain ``__slots__`` class rather than a frozen dataclass: one is
    allocated per device access (the hottest model allocation after
    timeouts), and frozen-dataclass construction pays
    ``object.__setattr__`` per field.
    """

    __slots__ = ("lba", "nbytes", "kind")

    def __init__(self, lba: int, nbytes: int,
                 kind: ReadKind = ReadKind.BUFFERED) -> None:
        if lba < 0 or nbytes <= 0:
            raise ValueError(f"invalid request lba={lba} nbytes={nbytes}")
        self.lba = lba
        self.nbytes = nbytes
        self.kind = kind

    def __repr__(self) -> str:
        return (f"IoRequest(lba={self.lba!r}, nbytes={self.nbytes!r}, "
                f"kind={self.kind!r})")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IoRequest):
            return NotImplemented
        return (self.lba == other.lba and self.nbytes == other.nbytes
                and self.kind == other.kind)

    def __hash__(self) -> int:
        return hash((self.lba, self.nbytes, self.kind))


@dataclass
class DeviceStats:
    """Cumulative I/O counters for one device."""

    read_bytes: int = 0
    write_bytes: int = 0
    read_requests: int = 0
    write_requests: int = 0
    bytes_by_kind: dict[ReadKind, int] = field(default_factory=dict)
    first_io_at: float | None = None
    last_io_at: float | None = None

    def record(self, request: IoRequest, now: float) -> None:
        """Account one completed request at simulated time ``now``."""
        self.record_io(request.nbytes, request.kind, now)

    def record_io(self, nbytes: int, kind: ReadKind, now: float) -> None:
        """Account one completed transfer of ``nbytes`` at ``now``."""
        if kind is ReadKind.WRITE:
            self.write_bytes += nbytes
            self.write_requests += 1
        else:
            self.read_bytes += nbytes
            self.read_requests += 1
        by_kind = self.bytes_by_kind
        by_kind[kind] = by_kind.get(kind, 0) + nbytes
        if self.first_io_at is None:
            self.first_io_at = now
        self.last_io_at = now

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable counter snapshot.

        ``bytes_by_kind`` keys become the enum values (``demand_fault``,
        ``readahead``, ...) so the export is plain-string keyed.
        """
        return {
            "read_bytes": self.read_bytes,
            "write_bytes": self.write_bytes,
            "read_requests": self.read_requests,
            "write_requests": self.write_requests,
            "bytes_by_kind": {kind.value: nbytes
                              for kind, nbytes in self.bytes_by_kind.items()},
            "first_io_at": self.first_io_at,
            "last_io_at": self.last_io_at,
        }

    def effective_read_mbps(self, elapsed_us: float) -> float:
        """Read bandwidth in MB/s over an elapsed window of simulated time."""
        if elapsed_us <= 0:
            return 0.0
        return self.read_bytes / 1e6 / (elapsed_us / SEC)

    def snapshot(self) -> "DeviceStats":
        """A copy, so callers can diff before/after an experiment phase."""
        return DeviceStats(
            read_bytes=self.read_bytes,
            write_bytes=self.write_bytes,
            read_requests=self.read_requests,
            write_requests=self.write_requests,
            bytes_by_kind=dict(self.bytes_by_kind),
            first_io_at=self.first_io_at,
            last_io_at=self.last_io_at,
        )

    def delta_read_bytes(self, earlier: "DeviceStats") -> int:
        """Read bytes accumulated since an earlier snapshot."""
        return self.read_bytes - earlier.read_bytes


class BlockDevice(Protocol):
    """Minimal protocol the page cache and filesystem expect."""

    env: Environment
    stats: DeviceStats

    def read(self, request: IoRequest) -> Generator[Event, Any, None]:
        """Serve a read; a generator to drive with ``yield from``."""
        ...

    def write(self, request: IoRequest) -> Generator[Event, Any, None]:
        """Serve a write."""
        ...

    def uncontended_read_end(self, start: float,
                             nbytes: int) -> tuple[float, int] | None:
        """When a read started at ``start`` would end, if it waits for nothing.

        Returns ``(end, steps)``: the completion time of an ``nbytes``
        read that finds every slot it needs free, computed by the same
        float additions :meth:`read` makes, and the number of in-place
        steps (grant takes and clock advances) it would take.  ``None``
        when the device cannot tell without running the read (a busy
        slot, or a path with state of its own).  Pure: changes nothing.
        """
        ...

    def commit_read(self, nbytes: int, kind: ReadKind, when: float) -> None:
        """Account a read answered by :meth:`uncontended_read_end`.

        Records exactly the statistics :meth:`read` would have recorded
        on this device and the devices under it, at completion ``when``.
        Called only after an answer, so a device that never answers need
        not define it.
        """
        ...
