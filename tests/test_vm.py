"""Tests for the MicroVM substrate: lifecycle, boot, snapshot, vCPU."""

import pytest

from repro.functions import FunctionBehavior, FunctionProfile
from repro.memory import BackingMode, ContentMode
from repro.sim import Environment, MS
from repro.vm import (
    MicroVM,
    SnapshotStore,
    VCpu,
    VmState,
    VmStateError,
    WorkerHost,
    boot_microvm,
)
from repro.memory.guest import GuestMemory
from repro.sim.units import MIB


def toy_profile(**overrides):
    defaults = dict(
        name="toy",
        description="toy function",
        vm_memory_mb=64,
        boot_footprint_mb=8.0,
        warm_ms=5.0,
        connection_pages=64,
        processing_pages=128,
        unique_pages=16,
        contiguity_mean=2.2,
        init_ms=100.0,
    )
    defaults.update(overrides)
    return FunctionProfile(**defaults)


def make_host(seed=1):
    env = Environment()
    return env, WorkerHost(env, seed=seed)


def boot(env, host, profile, content=ContentMode.METADATA):
    behavior = FunctionBehavior(profile, seed=5)
    proc = env.process(boot_microvm(host, profile, behavior, content))
    return env.run(until=proc)


# -- lifecycle ----------------------------------------------------------------

def test_vm_lifecycle_transitions():
    env, host = make_host()
    profile = toy_profile()
    memory = GuestMemory(profile.vm_memory_mb * MIB)
    vm = MicroVM(env, profile, FunctionBehavior(profile, seed=1), memory)
    assert vm.state is VmState.CREATED
    vm.transition(VmState.BOOTING)
    vm.transition(VmState.RUNNING)
    vm.transition(VmState.PAUSED)
    vm.transition(VmState.RUNNING)
    vm.transition(VmState.STOPPED)


def test_vm_rejects_illegal_transition():
    env, host = make_host()
    profile = toy_profile()
    memory = GuestMemory(profile.vm_memory_mb * MIB)
    vm = MicroVM(env, profile, FunctionBehavior(profile, seed=1), memory)
    with pytest.raises(VmStateError):
        vm.transition(VmState.PAUSED)
    vm.transition(VmState.RUNNING)
    vm.transition(VmState.STOPPED)
    with pytest.raises(VmStateError):
        vm.transition(VmState.RUNNING)


def test_pausing_drops_connection():
    env, host = make_host()
    profile = toy_profile()
    vm = boot(env, host, profile)
    assert vm.is_warm
    vm.transition(VmState.PAUSED)
    assert not vm.connected
    assert not vm.is_warm


# -- boot ---------------------------------------------------------------------

def test_boot_takes_hundreds_of_ms():
    env, host = make_host()
    start = env.now
    vm = boot(env, host, toy_profile())
    elapsed_ms = (env.now - start) / MS
    # containerd + rootfs + spawn + kernel + agents + init: ~800 ms.
    assert 500 <= elapsed_ms <= 1500
    assert vm.state is VmState.RUNNING
    assert vm.connected


def test_boot_populates_footprint():
    env, host = make_host()
    profile = toy_profile()
    vm = boot(env, host, profile)
    assert vm.memory.present_pages == profile.boot_footprint_pages


def test_boot_with_full_content_fills_pages():
    env, host = make_host()
    profile = toy_profile(boot_footprint_mb=1.0, connection_pages=20,
                          processing_pages=30, unique_pages=4)
    vm = boot(env, host, profile, content=ContentMode.FULL)
    page = vm.memory.read_page(0)
    assert len(page) == 4096
    assert page != bytes(4096)


def test_concurrent_boots_serialize_on_containerd():
    env, host = make_host()
    profile = toy_profile()
    finishes = []

    def one_boot():
        behavior = FunctionBehavior(profile, seed=5)
        yield from boot_microvm(host, profile, behavior)
        finishes.append(env.now)

    for _ in range(3):
        env.process(one_boot())
    env.run()
    # Staggered by the containerd serialized section.
    serial_us = host.params.containerd_serial_ms * MS
    assert finishes[1] - finishes[0] == pytest.approx(serial_us, rel=0.01)
    assert finishes[2] - finishes[1] == pytest.approx(serial_us, rel=0.01)


# -- snapshot -------------------------------------------------------------------

def test_capture_creates_files_and_stops_vm():
    env, host = make_host()
    profile = toy_profile()
    vm = boot(env, host, profile)
    store = SnapshotStore(host)
    proc = env.process(store.capture(vm))
    snapshot = env.run(until=proc)
    assert vm.state is VmState.STOPPED
    assert snapshot.resident_pages == profile.boot_footprint_pages
    assert snapshot.memory_file.size == profile.vm_memory_mb * MIB
    assert store.get("toy") is snapshot
    assert store.exists("toy")


def test_capture_marks_resident_blocks_written():
    env, host = make_host()
    profile = toy_profile()
    vm = boot(env, host, profile)
    store = SnapshotStore(host)
    proc = env.process(store.capture(vm))
    snapshot = env.run(until=proc)
    boundary = profile.boot_footprint_pages
    assert snapshot.memory_file.has_block(0)
    assert snapshot.memory_file.has_block(boundary - 1)
    assert not snapshot.memory_file.has_block(boundary)


def test_capture_full_content_copies_page_bytes():
    env, host = make_host()
    profile = toy_profile(boot_footprint_mb=1.0, connection_pages=20,
                          processing_pages=30, unique_pages=4)
    vm = boot(env, host, profile, content=ContentMode.FULL)
    expected = vm.memory.read_page(7)
    store = SnapshotStore(host)
    proc = env.process(store.capture(vm))
    snapshot = env.run(until=proc)
    assert snapshot.memory_file.read_block(7) == expected


def test_capture_keep_vm_running():
    env, host = make_host()
    vm = boot(env, host, toy_profile())
    store = SnapshotStore(host)
    proc = env.process(store.capture(vm, stop_vm=False))
    env.run(until=proc)
    assert vm.state is VmState.RUNNING


def test_instantiate_from_snapshot_lazy_and_empty():
    env, host = make_host()
    profile = toy_profile()
    vm = boot(env, host, profile)
    store = SnapshotStore(host)
    proc = env.process(store.capture(vm))
    snapshot = env.run(until=proc)
    restored = store.instantiate(snapshot, BackingMode.FILE_LAZY)
    assert restored.state is VmState.CREATED
    assert restored.memory.present_pages == 0
    # Default: a private (devmapper-CoW-style) view over the same bytes.
    assert restored.memory.backing_file is not snapshot.memory_file
    assert (restored.memory.backing_file.read_block(0)
            == snapshot.memory_file.read_block(0))
    shared = store.instantiate(snapshot, BackingMode.FILE_LAZY,
                               private_view=False)
    assert shared.memory.backing_file is snapshot.memory_file
    with pytest.raises(ValueError):
        store.instantiate(snapshot, BackingMode.ANONYMOUS)


def test_get_missing_snapshot_raises():
    env, host = make_host()
    store = SnapshotStore(host)
    with pytest.raises(KeyError):
        store.get("nothing")


# -- vCPU ---------------------------------------------------------------------

def test_vcpu_warm_phase_is_pure_compute():
    env, host = make_host()
    memory = GuestMemory(1 * MIB)
    memory.populate(range(10))
    vcpu = VCpu(env)
    proc = env.process(vcpu.execute_phase(memory, list(range(10)), 1000.0,
                                          fault_handler=None))
    env.run(until=proc)
    assert env.now == pytest.approx(1000.0)
    assert vcpu.faults_taken == 0


def test_vcpu_faults_serialize_with_compute():
    env, host = make_host()
    memory = GuestMemory(1 * MIB)
    vcpu = VCpu(env)

    def handler(page):
        yield env.timeout(100.0)
        memory.install(page)

    proc = env.process(vcpu.execute_phase(memory, [0, 1, 2], 300.0, handler))
    env.run(until=proc)
    assert env.now == pytest.approx(600.0)
    assert vcpu.faults_taken == 3


def test_vcpu_warm_phase_missing_page_is_an_error():
    env, host = make_host()
    memory = GuestMemory(1 * MIB)
    vcpu = VCpu(env)

    def body():
        with pytest.raises(RuntimeError):
            yield from vcpu.execute_phase(memory, [0], 10.0, None)

    proc = env.process(body())
    env.run(until=proc)


def test_vcpu_empty_page_list_still_computes():
    env, host = make_host()
    memory = GuestMemory(1 * MIB)
    vcpu = VCpu(env)
    proc = env.process(vcpu.execute_phase(memory, [], 500.0, None))
    env.run(until=proc)
    assert env.now == pytest.approx(500.0)


def test_vcpu_rejects_negative_compute():
    env, host = make_host()
    memory = GuestMemory(1 * MIB)
    vcpu = VCpu(env)

    def body():
        with pytest.raises(ValueError):
            yield from vcpu.execute_phase(memory, [], -1.0, None)

    proc = env.process(body())
    env.run(until=proc)


def test_vcpu_tries_the_inline_handler_first():
    def run(with_inline):
        env, host = make_host()
        memory = GuestMemory(1 * MIB)
        vcpu = VCpu(env)
        served = []

        def handler(page):
            served.append(("generator", page))
            if not env.advance(100.0):
                yield env.timeout(100.0)
            memory.install(page)

        def inline(page):
            # Declines odd pages, which then take the generator path.
            if page % 2 or not env.advance(100.0):
                return False
            served.append(("inline", page))
            memory.install(page)
            return True

        proc = env.process(vcpu.execute_phase(
            memory, [0, 1, 2, 3, 0], 500.0, handler,
            inline_handler=inline if with_inline else None))
        env.run(until=proc)
        return env.now, env.events_processed, vcpu.faults_taken, served

    now, events, faults, served = run(with_inline=True)
    assert served == [("inline", 0), ("generator", 1), ("inline", 2),
                      ("generator", 3)]
    reference = run(with_inline=False)
    assert (now, events, faults) == reference[:3] == (900.0, events, 4)
