"""Simulated ``userfaultfd(2)``.

This is the mechanism REAP is built on (§5.2): the hypervisor registers a
VM's guest memory region and hands the descriptor to a monitor thread in
the vHive-CRI orchestrator.  Faulting vCPUs block; the kernel forwards a
fault *event* (with the faulting address) to the descriptor; the monitor
resolves it by installing page contents with a ``UFFDIO_COPY`` ioctl,
which also wakes the faulting thread.

The simulation keeps the same three-party protocol:

* the **vCPU side** calls :meth:`UserFaultFd.raise_fault` and waits on
  the returned event;
* the **monitor side** blocks on :meth:`read_event` (the ``epoll`` loop
  of the paper's goroutine monitors) and calls :meth:`copy` /
  :meth:`copy_batch` to install pages;
* installs into the target :class:`GuestMemory` verify content against
  the snapshot backing file in full-content mode.

Double-faults on a page already being served coalesce onto the same
event, as the kernel does.

See also :mod:`repro.core.monitor` (the monitor-side consumers),
:mod:`repro.memory.guest` (where pages get installed), and
:mod:`repro.vm.vcpu` (the faulting side).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.memory.guest import GuestMemory
from repro.sim import sanitizer
from repro.sim.engine import Environment, Event
from repro.sim.resources import Store


class UffdError(RuntimeError):
    """Protocol misuse of the userfaultfd simulation."""


@dataclass
class PageFaultEvent:
    """One fault notification as read by the monitor."""

    page: int
    raised_at: float
    #: Events to trigger when the page is installed (blocked vCPUs).
    waiters: list[Event] = field(default_factory=list)


class UserFaultFd:
    """A registered userfaultfd for one guest-memory region."""

    def __init__(self, env: Environment, memory: GuestMemory) -> None:
        sanitizer.track_uffd(self)
        self.env = env
        self.memory = memory
        self._events: Store = Store(env)
        self._pending: dict[int, PageFaultEvent] = {}
        self.faults_raised = 0
        self.pages_copied = 0
        self.closed = False

    # -- faulting side (vCPU / hypervisor) --------------------------------

    def raise_fault(self, page: int) -> Event:
        """Report a first touch of ``page``; returns the wake event.

        If the page is already present (a race the kernel also tolerates)
        the returned event fires immediately.
        """
        self._check_open()
        self.memory.check_page(page)
        wake = self.env.event()
        if self.memory.is_present(page):
            wake.succeed()
            return wake
        self.faults_raised += 1
        pending = self._pending.get(page)
        if pending is not None:
            pending.waiters.append(wake)
            return wake
        fault = PageFaultEvent(page=page, raised_at=self.env.now,
                               waiters=[wake])
        self._pending[page] = fault
        self._events.put(fault)
        return wake

    # -- monitor side ------------------------------------------------------

    def read_event(self) -> Event:
        """Block until the next fault event arrives (monitor ``epoll``)."""
        self._check_open()
        return self._events.get()

    def cancel_read(self, pending_get: Event) -> None:
        """Withdraw a blocked :meth:`read_event` (monitor shutdown)."""
        self._events.cancel_get(pending_get)

    def idle_reader(self) -> Event | None:
        """The one blocked :meth:`read_event`, if it is all the fd holds.

        ``None`` when a fault is pending or queued, or when no reader or
        more than one waits.  A monitor parked on the returned read may
        serve a fault without the event round trip (see
        :meth:`repro.core.monitor.UffdMonitor.serve_in_place`).
        """
        if self._pending:
            return None
        return self._events.sole_getter()

    @property
    def queued_events(self) -> int:
        """Fault events delivered but not yet read by the monitor."""
        return len(self._events)

    def copy(self, page: int, data: bytes | None = None) -> None:
        """``UFFDIO_COPY``: install one page and wake its waiters."""
        self._check_open()
        self.memory.install(page, data)
        self.pages_copied += 1
        self._wake(page)

    def copy_batch(self, pages: list[int],
                   data: list[bytes] | None = None) -> int:
        """Install many pages (REAP's eager working-set install).

        Returns the number of pages actually installed (already-present
        pages are skipped, as ``UFFDIO_COPY`` reports ``EEXIST``).  The
        pages go in through :meth:`GuestMemory.install_many`; then the
        vCPUs blocked on any of them wake, in batch order.

        A ``data`` list whose length differs from ``pages`` raises
        :class:`UffdError` before any page is installed -- the kernel
        rejects a malformed ``uffdio_copy`` range up front, and a
        mid-batch failure here would leave the region partially
        populated with some waiters already woken.
        """
        self._check_open()
        if data is not None and len(data) != len(pages):
            raise UffdError(
                f"copy_batch: {len(pages)} page(s) but {len(data)} "
                f"payload(s)")
        installed = self.memory.install_many(pages, data)
        self.pages_copied += installed
        pending = self._pending
        if pending:
            for page in pages:
                if page in pending:
                    self._wake(page)
        return installed

    def zeropage(self, page: int) -> None:
        """``UFFDIO_ZEROPAGE``: map a zero page."""
        self._check_open()
        from repro.sim.units import PAGE_SIZE
        data = bytes(PAGE_SIZE) if (
            self.memory.content_mode.value == "full") else None
        self.memory.install(page, data, verify=False)
        self.pages_copied += 1
        self._wake(page)

    def close(self) -> None:
        """Tear down the registration (instance shutdown)."""
        self.closed = True

    # -- internals -----------------------------------------------------------

    def _wake(self, page: int) -> None:
        fault = self._pending.pop(page, None)
        if fault is None:
            return
        for waiter in fault.waiters:
            if not waiter.triggered:
                waiter.succeed()

    def _check_open(self) -> None:
        if self.closed:
            raise UffdError("userfaultfd is closed")
