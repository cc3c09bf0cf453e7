"""Tests for the simulated userfaultfd protocol."""

import pytest

from repro.memory import BackingMode, ContentMode, GuestMemory, UserFaultFd
from repro.memory.guest import MemoryIntegrityError
from repro.memory.uffd import UffdError
from repro.sim import Environment
from repro.sim.units import MIB, PAGE_SIZE
from repro.storage import Filesystem, SsdDevice


def make_uffd(content=ContentMode.METADATA):
    env = Environment()
    fs = Filesystem(SsdDevice(env))
    backing = fs.create("mem", 1 * MIB)
    memory = GuestMemory(backing.size, mode=BackingMode.UFFD,
                         content=content, backing_file=backing)
    return env, backing, memory, UserFaultFd(env, memory)


def test_fault_blocks_until_monitor_copies():
    env, _backing, memory, uffd = make_uffd()
    resumed = []

    def vcpu():
        wake = uffd.raise_fault(7)
        yield wake
        resumed.append(env.now)

    def monitor():
        event = yield uffd.read_event()
        assert event.page == 7
        yield env.timeout(50)
        uffd.copy(event.page)

    env.process(vcpu())
    env.process(monitor())
    env.run()
    assert resumed == [50]
    assert memory.is_present(7)
    assert uffd.pages_copied == 1


def test_fault_on_present_page_fires_immediately():
    env, _backing, memory, uffd = make_uffd()
    memory.install(3)
    wake = uffd.raise_fault(3)
    assert wake.triggered
    assert uffd.faults_raised == 0


def test_double_fault_coalesces_to_one_event():
    env, _backing, _memory, uffd = make_uffd()
    woken = []

    def toucher(tag):
        wake = uffd.raise_fault(9)
        yield wake
        woken.append(tag)

    def monitor():
        event = yield uffd.read_event()
        yield env.timeout(10)
        uffd.copy(event.page)

    env.process(toucher("a"))
    env.process(toucher("b"))
    env.process(monitor())
    env.run()
    assert sorted(woken) == ["a", "b"]
    assert uffd.faults_raised == 2
    assert uffd.queued_events == 0


def test_copy_batch_skips_present_pages():
    env, _backing, memory, uffd = make_uffd()
    memory.install(1)
    installed = uffd.copy_batch([0, 1, 2])
    assert installed == 2
    assert memory.present_pages == 3


def test_copy_batch_wakes_waiting_faulters():
    env, _backing, _memory, uffd = make_uffd()
    woken = []

    def vcpu():
        wake = uffd.raise_fault(4)
        yield wake
        woken.append(env.now)

    def monitor():
        yield env.timeout(25)
        uffd.copy_batch([3, 4, 5])

    env.process(vcpu())
    env.process(monitor())
    env.run()
    assert woken == [25]


def test_copy_carries_content_in_full_mode():
    env, backing, memory, uffd = make_uffd(ContentMode.FULL)
    payload = bytes([0x42]) * PAGE_SIZE
    backing.write_block(2, payload)
    uffd.copy(2, payload)
    assert memory.read_page(2) == payload


def test_zeropage_installs_zeros():
    env, _backing, memory, uffd = make_uffd(ContentMode.FULL)
    uffd.zeropage(11)
    assert memory.read_page(11) == bytes(PAGE_SIZE)


def test_closed_uffd_rejects_operations():
    env, _backing, _memory, uffd = make_uffd()
    uffd.close()
    with pytest.raises(UffdError):
        uffd.raise_fault(0)
    with pytest.raises(UffdError):
        uffd.copy(0)


def test_monitor_event_queue_counts():
    env, _backing, _memory, uffd = make_uffd()

    def vcpu(page):
        wake = uffd.raise_fault(page)
        yield wake

    env.process(vcpu(1))
    env.process(vcpu(2))
    env.run(until=0)
    assert uffd.queued_events == 2


def test_copy_batch_length_mismatch_rejected_up_front():
    # A short (or long) data list must fail before any page is touched:
    # a mid-batch IndexError would leave the region partially populated
    # with some waiters already woken.
    env, _backing, memory, uffd = make_uffd()
    with pytest.raises(UffdError, match="3 page.*2 payload"):
        uffd.copy_batch([0, 1, 2], data=[b"a", b"b"])
    with pytest.raises(UffdError, match="2 page.*3 payload"):
        uffd.copy_batch([0, 1], data=[b"a", b"b", b"c"])
    assert memory.present_pages == 0
    assert uffd.pages_copied == 0


def test_copy_batch_partial_present_with_data_stays_aligned():
    # Present pages are skipped but their payload slot is still theirs:
    # page i always pairs with data[i].
    env, backing, memory, uffd = make_uffd(ContentMode.FULL)
    payloads = []
    for page in (3, 4, 5):
        payload = bytes([0x40 + page]) * PAGE_SIZE
        backing.write_block(page, payload)
        payloads.append(payload)
    memory.install(4)  # pre-present: its payload must be skipped, not shifted
    installed = uffd.copy_batch([3, 4, 5], data=payloads)
    assert installed == 2
    assert memory.read_page(3) == payloads[0]
    assert memory.read_page(5) == payloads[2]


def test_copy_batch_mismatch_still_wakes_nobody():
    env, _backing, _memory, uffd = make_uffd()
    woken = []

    def vcpu():
        wake = uffd.raise_fault(1)
        yield wake
        woken.append(env.now)

    def monitor():
        yield env.timeout(5)
        with pytest.raises(UffdError):
            uffd.copy_batch([1, 2], data=[b"only-one"])

    env.process(vcpu())
    env.process(monitor())
    env.run(until=50)
    assert woken == []


def test_copy_batch_wakes_pending_faulters_in_batch_order():
    env, _backing, memory, uffd = make_uffd()
    woken = []

    def vcpu(page):
        yield uffd.raise_fault(page)
        woken.append(page)

    def monitor():
        yield env.timeout(10)
        # 9 repeats and 6 was never faulted: neither changes the order.
        assert uffd.copy_batch([9, 6, 2, 9, 5]) == 4
        assert uffd.pages_copied == 4

    for page in (5, 2, 9):
        env.process(vcpu(page))
    env.process(monitor())
    env.run()
    assert woken == [9, 2, 5]
    assert memory.faulted_pages() == [9, 6, 2, 5]
    assert uffd.copy_batch([2, 5, 9]) == 0
    assert uffd.pages_copied == 4


def test_copy_batch_mismatched_full_content_payload_raises():
    env, backing, _memory, uffd = make_uffd(ContentMode.FULL)
    backing.write_block(1, bytes([1]) * PAGE_SIZE)
    with pytest.raises(MemoryIntegrityError):
        uffd.copy_batch([0, 1], data=[bytes(PAGE_SIZE),
                                      bytes([2]) * PAGE_SIZE])
