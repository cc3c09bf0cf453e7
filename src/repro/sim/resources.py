"""Contended resources for the event engine.

These model the serialization points of the worker host:

* :class:`Resource` -- a FIFO multi-server queue (disk controller, flash
  channels, host CPU pool).
* :class:`PriorityResource` -- the same, but requests carry priorities
  (used e.g. to let latency-critical demand faults overtake background
  prefetch chunks in ablation studies).
* :class:`Store` -- an unbounded message queue (monitor fault-event
  queues, i.e. the simulated userfaultfd file descriptor).
"""

from __future__ import annotations

import heapq
from collections import deque
from heapq import heappush
from typing import Any, Generator, Optional

from repro.sim import sanitizer
from repro.sim.engine import Environment, Event, SimulationError

_new_request = object.__new__


class Request(Event):
    """A pending acquisition of a :class:`Resource` slot."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        # Inlined Event.__init__ -- requests are allocated once per
        # device I/O, a hot path in every storage-bound experiment.
        self.env = resource.env
        self._cb = None
        self._cbs = None
        self._value = None
        self._exception = None
        self._triggered = False
        self._processed = False
        self._defused = False
        self.resource = resource

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.resource.release(self)


class Resource:
    """A multi-server FIFO resource with ``capacity`` slots."""

    def __init__(self, env: Environment, capacity: int = 1) -> None:
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        sanitizer.track_resource(self)
        self.env = env
        self.capacity = capacity
        self._users: set[Request] = set()
        self._queue: deque[Request] = deque()

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._queue)

    @property
    def available(self) -> bool:
        """Whether a request made now would be granted at once.

        A queued request implies a full resource (a release grants the
        queue head at once), so a free slot is the whole test.
        """
        return len(self._users) < self.capacity

    def request(self) -> Request:
        """Request a slot; the returned event fires when granted."""
        # Allocate without type.__call__ (one Request per device I/O).
        request = _new_request(Request)
        request.env = self.env
        request._cb = None
        request._cbs = None
        request._value = None
        request._exception = None
        request._triggered = False
        request._processed = False
        request._defused = False
        request.resource = self
        users = self._users
        if not self._queue and len(users) < self.capacity:
            # Uncontended fast path: grant inline.  Equivalent to
            # append + _grant (a non-empty queue implies a full resource,
            # so this branch fires exactly when _grant would pop the
            # request straight back off); the inline trigger mirrors
            # Event.succeed without the extra call.
            users.add(request)
            request._triggered = True
            request._value = request
            env = self.env
            if env._fastpath:
                env._immediate.append(request)
            else:
                heappush(env._heap, (env._now, env._next_seq(), request))
        else:
            self._queue.append(request)
            self._grant()
        return request

    def release(self, request: Request) -> None:
        """Release a previously granted slot."""
        if request in self._users:
            self._users.discard(request)
            # A grant carries itself as its value; drop that self-cycle so
            # the request dies by refcount (the loop runs with the cyclic
            # collector off).
            request._value = None
            self._grant()
        else:
            # Releasing an ungranted request cancels it.
            try:
                self._queue.remove(request)
            except ValueError:
                pass

    def _grant(self) -> None:
        while self._queue and len(self._users) < self.capacity:
            request = self._queue.popleft()
            self._users.add(request)
            request.succeed(request)

    def acquire(self, hold_time: float) -> Generator[Event, Any, None]:
        """Convenience process body: hold one slot for ``hold_time``.

        Usage: ``yield from resource.acquire(service_time)``.
        """
        request = self.request()
        env = self.env
        try:
            # The wait itself is inside the try: an Interrupt while
            # queued must cancel the request, or the slot leaks when it
            # is eventually granted to a dead process (REPRO-R001).
            if not env.take(request):
                yield request
            if not env.advance(hold_time):
                yield env.timeout(hold_time)
        finally:
            self.release(request)


class PriorityRequest(Request):
    """A resource request carrying a priority (lower value = sooner)."""

    __slots__ = ("priority",)

    def __init__(self, resource: "PriorityResource", priority: float) -> None:
        super().__init__(resource)
        self.priority = priority


class PriorityResource(Resource):
    """A resource whose queue is ordered by request priority, then FIFO."""

    def __init__(self, env: Environment, capacity: int = 1) -> None:
        super().__init__(env, capacity)
        self._pqueue: list[tuple[float, int, PriorityRequest]] = []
        self._tickets = 0

    @property
    def queue_length(self) -> int:
        return len(self._pqueue)

    def request(self, priority: float = 0.0) -> PriorityRequest:  # type: ignore[override]
        request = PriorityRequest(self, priority)
        heapq.heappush(self._pqueue, (priority, self._tickets, request))
        self._tickets += 1
        self._grant()
        return request

    def release(self, request: Request) -> None:
        if request in self._users:
            self._users.discard(request)
            request._value = None  # see Resource.release
            self._grant()
        else:
            self._pqueue = [entry for entry in self._pqueue
                            if entry[2] is not request]
            heapq.heapify(self._pqueue)

    def _grant(self) -> None:
        pqueue = getattr(self, "_pqueue", None)
        if pqueue is None:
            # Called from the base-class constructor before our own
            # attributes exist; nothing can be queued yet.
            return
        while pqueue and len(self._users) < self.capacity:
            _prio, _ticket, request = heapq.heappop(pqueue)
            self._users.add(request)
            request.succeed(request)

    def acquire(self, hold_time: float,
                priority: float = 0.0) -> Generator[Event, Any, None]:
        """Hold one slot for ``hold_time`` at the given priority."""
        request = self.request(priority)
        try:
            # See Resource.acquire: the wait must be covered by the
            # finally so an Interrupt while queued cancels the request.
            yield request
            yield self.env.timeout(hold_time)
        finally:
            self.release(request)


class Store:
    """An unbounded FIFO of items with blocking ``get``.

    Models message queues such as the simulated userfaultfd event stream
    read by REAP monitor threads.
    """

    def __init__(self, env: Environment) -> None:
        self.env = env
        self._items: deque[Any] = deque()
        self._getters: deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Deposit ``item``, waking the oldest waiting getter if any."""
        if self._getters:
            getter = self._getters.popleft()
            getter.succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Return an event that fires with the next available item."""
        event = Event(self.env)
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event

    def sole_getter(self) -> Optional[Event]:
        """The one pending ``get`` when nothing is queued, else ``None``."""
        getters = self._getters
        if self._items or len(getters) != 1:
            return None
        return getters[0]

    def get_nowait(self) -> Optional[Any]:
        """Pop an item if one is ready, else ``None``."""
        if self._items:
            return self._items.popleft()
        return None

    def cancel_get(self, event: Event) -> None:
        """Withdraw a pending getter (e.g. when a monitor shuts down)."""
        try:
            self._getters.remove(event)
        except ValueError:
            pass
