"""Tests for REAP's trace-file and working-set-file formats."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.files import (
    ArtifactFormatError,
    ReapArtifacts,
    TraceFile,
    WorkingSetFile,
)
from repro.memory.guest import ContentMode
from repro.memory.working_set import contiguous_runs
from repro.sim import Environment
from repro.sim.units import MIB, PAGE_SIZE
from repro.storage import Filesystem, SsdDevice


def make_fs():
    env = Environment()
    return Filesystem(SsdDevice(env))


def make_memory_file(fs, pages_with_content):
    memory_file = fs.create("mem", 4 * MIB)
    for page in pages_with_content:
        memory_file.write_block(page, bytes([page % 256]) * PAGE_SIZE)
    return memory_file


def test_trace_roundtrip():
    fs = make_fs()
    pages = (5, 1, 9, 300, 2)
    trace = TraceFile.create(fs, "trace", pages)
    loaded = TraceFile.load(trace.file)
    assert loaded.pages == pages


def test_trace_preserves_fault_order():
    fs = make_fs()
    pages = tuple(reversed(range(50)))
    trace = TraceFile.create(fs, "trace", pages)
    assert TraceFile.load(trace.file).pages == pages


def test_trace_rejects_corrupted_magic():
    fs = make_fs()
    trace = TraceFile.create(fs, "trace", (1, 2, 3))
    trace.file.write(0, b"XXXXXXXX")
    with pytest.raises(ArtifactFormatError, match="magic"):
        TraceFile.load(trace.file)


def test_trace_rejects_corrupted_offsets():
    fs = make_fs()
    trace = TraceFile.create(fs, "trace", (1, 2, 3))
    # Flip a byte inside the offsets payload.
    header_size = 24
    original = trace.file.read(header_size, 1)
    trace.file.write(header_size, bytes([original[0] ^ 0xFF]))
    with pytest.raises(ArtifactFormatError, match="checksum"):
        TraceFile.load(trace.file)


def test_trace_serialized_size():
    fs = make_fs()
    trace = TraceFile.create(fs, "trace", tuple(range(100)))
    assert trace.serialized_size == 24 + 800


def test_ws_file_full_content_copies_pages():
    fs = make_fs()
    memory_file = make_memory_file(fs, [3, 7, 11])
    ws = WorkingSetFile.build(fs, "ws", (7, 3, 11), memory_file,
                              content=ContentMode.FULL)
    assert ws.page_content(0) == bytes([7]) * PAGE_SIZE
    assert ws.page_content(1) == bytes([3]) * PAGE_SIZE
    assert ws.verify_against(memory_file)


def test_ws_file_detects_content_mismatch():
    fs = make_fs()
    memory_file = make_memory_file(fs, [3, 7])
    ws = WorkingSetFile.build(fs, "ws", (3, 7), memory_file,
                              content=ContentMode.FULL)
    memory_file.write_block(3, bytes([99]) * PAGE_SIZE)
    assert not ws.verify_against(memory_file)


def test_ws_file_metadata_mode_marks_blocks():
    fs = make_fs()
    memory_file = make_memory_file(fs, [1])
    ws = WorkingSetFile.build(fs, "ws", (1, 2), memory_file,
                              content=ContentMode.METADATA)
    assert ws.file.has_block(0)
    assert ws.file.has_block(1)
    assert ws.payload_bytes == 2 * PAGE_SIZE


def test_ws_file_rejects_empty_or_duplicates():
    fs = make_fs()
    memory_file = make_memory_file(fs, [1])
    with pytest.raises(ValueError):
        WorkingSetFile.build(fs, "ws1", (), memory_file,
                             content=ContentMode.METADATA)
    with pytest.raises(ValueError):
        WorkingSetFile.build(fs, "ws2", (1, 1), memory_file,
                             content=ContentMode.METADATA)


def test_ws_run_count():
    fs = make_fs()
    memory_file = make_memory_file(fs, [])
    ws = WorkingSetFile.build(fs, "ws", (1, 2, 3, 10, 20, 21), memory_file,
                              content=ContentMode.METADATA)
    assert ws.run_count == 3


def test_ws_run_count_is_computed_once(monkeypatch):
    from repro.core import files

    fs = make_fs()
    memory_file = make_memory_file(fs, [])
    pages = (7, 1, 2, 3, 10, 20, 21, 8)
    ws = WorkingSetFile.build(fs, "ws", pages, memory_file,
                              content=ContentMode.METADATA)
    calls = []

    def counting_runs(page_set):
        calls.append(page_set)
        return contiguous_runs(page_set)

    monkeypatch.setattr(files, "contiguous_runs", counting_runs)
    assert ws.run_count == len(contiguous_runs(pages)) == 4
    assert ws.run_count == 4
    assert len(calls) == 1


def test_artifacts_require_matching_orders():
    fs = make_fs()
    memory_file = make_memory_file(fs, [1, 2])
    trace = TraceFile.create(fs, "trace", (1, 2))
    ws = WorkingSetFile.build(fs, "ws", (2, 1), memory_file,
                              content=ContentMode.METADATA)
    with pytest.raises(ValueError):
        ReapArtifacts(trace=trace, working_set=ws)
    good = ReapArtifacts(
        trace=trace,
        working_set=WorkingSetFile.build(fs, "ws2", (1, 2), memory_file,
                                         content=ContentMode.METADATA))
    assert good.pages == (1, 2)
    assert good.page_set == frozenset({1, 2})


@given(st.lists(st.integers(min_value=0, max_value=1023), min_size=1,
                max_size=200, unique=True))
@settings(max_examples=50, deadline=None)
def test_trace_roundtrip_property(pages):
    fs = make_fs()
    trace = TraceFile.create(fs, "trace", tuple(pages))
    assert TraceFile.load(trace.file).pages == tuple(pages)


@given(st.lists(st.integers(min_value=0, max_value=255), min_size=1,
                max_size=40, unique=True))
@settings(max_examples=30, deadline=None)
def test_ws_file_content_roundtrip_property(pages):
    fs = make_fs()
    memory_file = fs.create("mem", 1 * MIB)
    for page in pages:
        memory_file.write_block(page, bytes([page]) * PAGE_SIZE)
    ws = WorkingSetFile.build(fs, "ws", tuple(pages), memory_file,
                              content=ContentMode.FULL)
    assert ws.verify_against(memory_file)
    for slot, page in enumerate(pages):
        assert ws.page_content(slot) == bytes([page]) * PAGE_SIZE
