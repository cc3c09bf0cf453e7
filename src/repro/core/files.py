"""REAP's on-disk artifacts: the trace file and the working-set file.

Both formats are real byte layouts written into :class:`SimFile` objects
and parsed back, so round-trip integrity is testable:

* **Trace file** (§5.2.1): the byte offsets, inside the snapshot's guest
  memory file, of every working-set page, in fault order.  Layout::

      magic "REAPTRC1" | u32 count | u32 pad | u64 checksum | u64 offsets...

  where the checksum is the first 8 bytes of SHA-256 over the offsets.

* **Working-set file**: copies of those pages packed contiguously in the
  same order, so the entire working set is one large sequential read.
  In full-content mode page bytes are physically copied from the memory
  file and can be verified; in metadata mode only the layout exists.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from functools import cached_property

from repro.memory.guest import ContentMode
from repro.memory.working_set import contiguous_runs
from repro.sim.units import PAGE_SIZE
from repro.storage.filesystem import Filesystem, SimFile

TRACE_MAGIC = b"REAPTRC1"
_HEADER = struct.Struct("<8sII Q")


class ArtifactFormatError(RuntimeError):
    """A trace/WS file failed validation when loaded."""


def _offsets_checksum(offsets: bytes) -> int:
    return int.from_bytes(hashlib.sha256(offsets).digest()[:8], "little")


@dataclass(frozen=True)
class TraceFile:
    """Parsed trace-file artifact."""

    file: SimFile
    pages: tuple[int, ...]

    @property
    def serialized_size(self) -> int:
        """Bytes of the serialized representation."""
        return _HEADER.size + 8 * len(self.pages)

    @staticmethod
    def serialize(pages: tuple[int, ...]) -> bytes:
        """Serialize page numbers as guest-memory-file byte offsets."""
        offsets = struct.pack(f"<{len(pages)}Q",
                              *[page * PAGE_SIZE for page in pages])
        header = _HEADER.pack(TRACE_MAGIC, len(pages), 0,
                              _offsets_checksum(offsets))
        return header + offsets

    @classmethod
    def create(cls, filesystem: Filesystem, name: str,
               pages: tuple[int, ...], device=None) -> "TraceFile":
        """Write a new trace file (content only; callers charge I/O time)."""
        payload = cls.serialize(pages)
        file = filesystem.create(name, max(len(payload), PAGE_SIZE),
                                 device=device)
        file.write(0, payload)
        return cls(file=file, pages=tuple(pages))

    @classmethod
    def load(cls, file: SimFile) -> "TraceFile":
        """Parse and validate a trace file's content."""
        header = file.read(0, _HEADER.size)
        magic, count, _pad, checksum = _HEADER.unpack(header)
        if magic != TRACE_MAGIC:
            raise ArtifactFormatError(f"bad trace magic in {file.name!r}")
        offsets_raw = file.read(_HEADER.size, 8 * count)
        if _offsets_checksum(offsets_raw) != checksum:
            raise ArtifactFormatError(f"trace checksum mismatch in "
                                      f"{file.name!r}")
        offsets = struct.unpack(f"<{count}Q", offsets_raw)
        pages = []
        for offset in offsets:
            if offset % PAGE_SIZE:
                raise ArtifactFormatError(
                    f"unaligned offset {offset} in {file.name!r}")
            pages.append(offset // PAGE_SIZE)
        return cls(file=file, pages=tuple(pages))


@dataclass(frozen=True)
class WorkingSetFile:
    """The compact working-set file artifact."""

    file: SimFile
    pages: tuple[int, ...]

    @property
    def payload_bytes(self) -> int:
        """Size of the packed working set."""
        return len(self.pages) * PAGE_SIZE

    @cached_property
    def run_count(self) -> int:
        """Contiguous guest-physical runs (one install ioctl per run).

        Computed on first access: the artifact never changes, and every
        REAP and WS-file restore reads it.
        """
        return len(contiguous_runs(self.pages))

    @classmethod
    def build(cls, filesystem: Filesystem, name: str,
              pages: tuple[int, ...], memory_file: SimFile,
              content: ContentMode, device=None) -> "WorkingSetFile":
        """Pack the pages of ``memory_file`` into a new WS file.

        Content is copied physically in full-content mode; metadata mode
        records only the layout.  Timing is charged by the caller (the
        record monitor's finalize step).
        """
        if not pages:
            raise ValueError("working set must not be empty")
        if len(set(pages)) != len(pages):
            raise ValueError("working set contains duplicate pages")
        size = len(pages) * PAGE_SIZE
        file = filesystem.create(name, size, device=device)
        if content is ContentMode.FULL:
            for slot, page in enumerate(pages):
                file.write_block(slot, memory_file.read_block(page))
        else:
            file.mark_written_blocks(range(len(pages)))
        return cls(file=file, pages=tuple(pages))

    def page_content(self, slot: int) -> bytes:
        """Bytes of the ``slot``-th packed page."""
        return self.file.read_block(slot)

    def verify_against(self, memory_file: SimFile) -> bool:
        """Check every packed page against the snapshot memory file."""
        return all(self.page_content(slot) == memory_file.read_block(page)
                   for slot, page in enumerate(self.pages))


@dataclass(frozen=True)
class ReapArtifacts:
    """The pair of artifacts REAP keeps per function (§5.2)."""

    trace: TraceFile
    working_set: WorkingSetFile

    def __post_init__(self) -> None:
        if self.trace.pages != self.working_set.pages:
            raise ValueError("trace and WS file page orders disagree")

    @property
    def pages(self) -> tuple[int, ...]:
        """The recorded working set in fault order."""
        return self.trace.pages

    @property
    def page_set(self) -> frozenset[int]:
        """The recorded working set as a set."""
        return frozenset(self.trace.pages)
