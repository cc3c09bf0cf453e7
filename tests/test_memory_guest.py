"""Tests for guest memory regions and content integrity."""

import pytest

from repro.memory import BackingMode, ContentMode, GuestMemory
from repro.memory.guest import MemoryIntegrityError
from repro.sim import Environment
from repro.sim.units import MIB, PAGE_SIZE
from repro.storage import Filesystem, SsdDevice


def make_backing(size=1 * MIB):
    env = Environment()
    fs = Filesystem(SsdDevice(env))
    return fs.create("memfile", size)


def test_size_must_be_page_multiple():
    with pytest.raises(ValueError):
        GuestMemory(PAGE_SIZE + 1)
    with pytest.raises(ValueError):
        GuestMemory(0)


def test_lazy_modes_require_backing_file():
    with pytest.raises(ValueError):
        GuestMemory(1 * MIB, mode=BackingMode.FILE_LAZY)
    with pytest.raises(ValueError):
        GuestMemory(1 * MIB, mode=BackingMode.UFFD)


def test_install_marks_present_and_orders():
    memory = GuestMemory(1 * MIB)
    memory.install(5)
    memory.install(2)
    memory.install(5)  # repeat is a no-op
    assert memory.is_present(5)
    assert memory.is_present(2)
    assert memory.faulted_pages() == [5, 2]
    assert memory.present_pages == 2
    assert memory.resident_bytes == 2 * PAGE_SIZE


def test_install_out_of_range_rejected():
    memory = GuestMemory(1 * MIB)
    with pytest.raises(ValueError):
        memory.install(memory.page_count)
    with pytest.raises(ValueError):
        memory.install(-1)


def test_full_content_pulls_bytes_from_backing():
    backing = make_backing()
    payload = bytes([0xAB]) * PAGE_SIZE
    backing.write_block(3, payload)
    memory = GuestMemory(backing.size, mode=BackingMode.FILE_LAZY,
                         content=ContentMode.FULL, backing_file=backing)
    memory.install(3)
    assert memory.read_page(3) == payload


def test_full_content_verifies_installed_bytes():
    backing = make_backing()
    backing.write_block(0, bytes([1]) * PAGE_SIZE)
    memory = GuestMemory(backing.size, mode=BackingMode.UFFD,
                         content=ContentMode.FULL, backing_file=backing)
    with pytest.raises(MemoryIntegrityError):
        memory.install(0, bytes([2]) * PAGE_SIZE)
    # Correct bytes install fine.
    memory.install(0, bytes([1]) * PAGE_SIZE)
    assert memory.is_present(0)


def test_metadata_mode_does_not_track_content():
    memory = GuestMemory(1 * MIB)
    memory.install(0)
    with pytest.raises(RuntimeError):
        memory.read_page(0)


def test_write_page_requires_presence():
    backing = make_backing()
    memory = GuestMemory(backing.size, mode=BackingMode.FILE_LAZY,
                         content=ContentMode.FULL, backing_file=backing)
    with pytest.raises(RuntimeError):
        memory.write_page(0, bytes(PAGE_SIZE))
    memory.install(0)
    new_bytes = bytes([9]) * PAGE_SIZE
    memory.write_page(0, new_bytes)
    assert memory.read_page(0) == new_bytes


def test_populate_all_and_populate():
    memory = GuestMemory(16 * PAGE_SIZE)
    memory.populate([1, 3, 5])
    assert memory.present_pages == 3
    memory.populate_all()
    assert memory.present_pages == 16


def test_install_many_dedupes_in_first_occurrence_order():
    memory = GuestMemory(1 * MIB)
    memory.install(4)
    assert memory.install_many([7, 4, 2, 7, 9, 2]) == 3
    assert memory.faulted_pages() == [4, 7, 2, 9]
    assert memory.install_many([]) == 0
    assert memory.install_many([2, 9]) == 0
    assert memory.present_pages == 4


def test_install_many_bounds_check_installs_nothing():
    memory = GuestMemory(1 * MIB)
    with pytest.raises(ValueError, match=f"page {memory.page_count} "):
        memory.install_many([1, memory.page_count, 2, -1])
    with pytest.raises(ValueError, match="page -1 "):
        memory.install_many([3, -1])
    assert memory.present_pages == 0 and memory.faulted_pages() == []


def test_install_many_full_content_verifies_each_page():
    backing = make_backing()
    for page in (0, 1, 2):
        backing.write_block(page, bytes([page + 1]) * PAGE_SIZE)
    memory = GuestMemory(backing.size, mode=BackingMode.UFFD,
                         content=ContentMode.FULL, backing_file=backing)
    good = [bytes([page + 1]) * PAGE_SIZE for page in (0, 1, 2)]
    assert memory.install_many([0, 1, 0], [good[0], good[1], good[0]]) == 2
    with pytest.raises(MemoryIntegrityError):
        memory.install_many([2], [bytes([9]) * PAGE_SIZE])
    assert not memory.is_present(2)
    assert memory.install_many([2], [good[2]]) == 1
    assert memory.read_page(2) == good[2]
