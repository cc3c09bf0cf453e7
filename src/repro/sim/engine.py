"""The discrete-event engine: clock, events, and processes.

A :class:`Process` wraps a Python generator.  The generator yields
:class:`Event` objects; when a yielded event fires, the engine resumes the
generator with the event's value.  This is the execution substrate for all
the concurrent activity in the model -- monitor goroutines serving page
faults, vCPUs replaying memory traces, disk channels draining queues.

Two properties matter for reproduction quality:

* **Determinism.**  Ties in the event queue break on schedule order: two
  events at the same timestamp always fire in the order they were
  scheduled, no matter which internal queue carried them.
* **Error transparency.**  An exception raised inside a process propagates
  to whoever waits on it (and out of :meth:`Environment.run` if nobody
  does), so broken models fail loudly instead of silently dropping work.

**The fast path.**  Replaying trace-scale workloads pushes hundreds of
thousands of events through this loop, so the engine keeps per-event
overhead minimal:

* every event class uses ``__slots__`` (no per-event ``__dict__``);
* zero-delay occurrences (``succeed``/``fail``, resource grants,
  already-due wakeups) go through a FIFO *immediate* deque in O(1)
  instead of the time heap -- ordering is provably identical because a
  heap entry due at the current time was always scheduled earlier (and
  the loop drains due heap entries before immediates);
* callbacks on already-processed events and process bootstraps are
  queued as bare ``(callback, event)`` pairs instead of proxy
  :class:`Event` allocations;
* a waiting :class:`Process` registers *itself* as the callback (the
  dispatch loop detects it by type and resumes it directly), so the
  common wait path allocates no bound-method object;
* :meth:`Environment.run` has exactly one pop/dispatch loop for all
  three ``until`` forms, with dispatch inlined rather than a per-event
  method call (see "Why dispatch is inlined" in
  ``docs/performance.md``), with no optional hook adding a per-event
  branch;
* :meth:`Environment.timeout` builds the :class:`Timeout` in a single
  frame (no ``type.__call__``/``__init__`` double dispatch).

Setting ``fastpath=False`` on :class:`Environment` (or exporting
``REPRO_ENGINE_SLOWPATH=1``) routes every occurrence through the
reference time heap; ``tests/test_perf_equivalence.py`` pins that both
paths produce byte-identical experiment results and process the same
number of events.

See also :mod:`repro.sim.rng` (the other half of the determinism
story: named seed derivation) and the "How determinism works" note in
``docs/experiments.md``.
"""

from __future__ import annotations

import gc
import os
from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

from repro.sim import sanitizer

#: Process-wide count of events processed by every Environment, so a
#: caller can count the events of environments it never sees (an
#: experiment's internal one, say).  Monotonic; never reset.
_events_processed_total = 0

_INF = float("inf")


def events_processed_total() -> int:
    """Events processed by all environments in this process so far."""
    return _events_processed_total


class SimulationError(RuntimeError):
    """Raised for structural misuse of the engine (not model errors)."""


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    Carries an arbitrary ``cause``; the paper's models use this to cancel
    in-flight monitor work when an instance is torn down.
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence that processes can wait on.

    An event is *triggered* once, with either a value (:meth:`succeed`) or
    an exception (:meth:`fail`).  Callbacks registered before triggering
    run when the engine processes the event.
    """

    __slots__ = ("env", "_cb", "_cbs", "_value", "_exception", "_triggered",
                 "_processed", "_defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        # Callback storage is split into a single slot (``_cb``, covering
        # the overwhelmingly common one-waiter case with no list
        # allocation) plus a lazily created overflow list (``_cbs``).
        self._cb: Optional[Callable[["Event"], None]] = None
        self._cbs: Optional[list[Callable[["Event"], None]]] = None
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self._triggered = False
        self._processed = False
        # _defused is set when some waiter consumed a failure, so
        # unhandled failures can still be detected for fire-and-forget
        # events.
        self._defused = False

    @property
    def callbacks(self) -> Optional[list[Callable[["Event"], None]]]:
        """Registered callbacks (``None`` once the event is processed).

        Provided for introspection; registration should go through
        :meth:`_add_callback` (or by yielding the event from a process).
        A waiting process is stored as the process object itself; it is
        presented here as its ``_resume`` method so identity checks like
        ``proc._resume in event.callbacks`` keep working.
        """
        if self._processed:
            return None
        entries = [] if self._cb is None else [self._cb]
        if self._cbs:
            entries.extend(self._cbs)
        return [entry._resume if type(entry) is Process else entry
                for entry in entries]

    @property
    def triggered(self) -> bool:
        """Whether :meth:`succeed`/:meth:`fail` has been called."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """Whether the engine has already run this event's callbacks."""
        return self._processed

    @property
    def ok(self) -> bool:
        """Whether the event succeeded (valid only once triggered)."""
        return self._triggered and self._exception is None

    @property
    def value(self) -> Any:
        """The success value (or the failure exception) of the event."""
        if not self._triggered:
            raise SimulationError("event value read before trigger")
        return self._exception if self._exception is not None else self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._triggered:
            raise SimulationError("event triggered twice")
        self._triggered = True
        self._value = value
        env = self.env
        if env._fastpath:
            env._immediate.append(self)
        else:
            heappush(env._heap, (env._now, env._next_seq(), self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception."""
        if self._triggered:
            raise SimulationError("event triggered twice")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._triggered = True
        self._exception = exception
        env = self.env
        if env._fastpath:
            env._immediate.append(self)
        else:
            heappush(env._heap, (env._now, env._next_seq(), self))
        return self

    def _add_callback(self, callback: Callable[["Event"], None]) -> None:
        if self._processed:
            # Already processed: run the callback via a zero-delay queue
            # entry so ordering stays inside the engine.  The callback
            # still receives *this* event (waiters check identity against
            # what they yielded).
            self.env._schedule_call(callback, self)
        elif self._cb is None:
            self._cb = callback
        elif self._cbs is None:
            self._cbs = [callback]
        else:
            self._cbs.append(callback)


class Timeout(Event):
    """An event that fires ``delay`` time units in the future.

    Built only by :meth:`Environment.timeout`.
    """

    __slots__ = ()


class AllOf(Event):
    """Fires when every child event has fired; value is the list of values.

    Fails fast with the first child failure.
    """

    __slots__ = ("_children", "_pending")

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self._children = list(events)
        self._pending = len(self._children)
        if self._pending == 0:
            self.succeed([])
            return
        for event in self._children:
            event._add_callback(self._on_child)

    def _on_child(self, event: Event) -> None:
        if self._triggered:
            return
        if not event.ok:
            event._defused = True
            self.fail(event.value)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed([child._value for child in self._children])


class AnyOf(Event):
    """Fires when the first child event fires; value is ``(index, value)``."""

    __slots__ = ("_children",)

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self._children = list(events)
        if not self._children:
            process = env._active_process
            where = (f" (in process {process.name!r})"
                     if process is not None else "")
            raise SimulationError(
                f"AnyOf requires at least one event{where}")
        for index, event in enumerate(self._children):
            event._add_callback(lambda ev, i=index: self._on_child(i, ev))

    def _on_child(self, index: int, event: Event) -> None:
        if self._triggered:
            if not event.ok:
                event._defused = True
            return
        if not event.ok:
            event._defused = True
            self.fail(event.value)
            return
        self.succeed((index, event._value))


ProcessGenerator = Generator[Event, Any, Any]

#: Allocate an event without running ``type.__call__`` (hot-path helper).
_new_event = object.__new__


class _Bootstrap:
    """Inert stand-in event that delivers ``None`` to a new process."""

    __slots__ = ()
    _value = None
    _exception = None


_BOOTSTRAP = _Bootstrap()


class Process(Event):
    """A running generator; itself an event that fires on completion."""

    __slots__ = ("_generator", "_send", "name", "_waiting_on")

    def __init__(self, env: "Environment", generator: ProcessGenerator,
                 name: str = "") -> None:
        super().__init__(env)
        if not hasattr(generator, "send"):
            raise SimulationError("process body must be a generator")
        self._generator = generator
        self._send = generator.send
        self.name = name or getattr(generator, "__name__", "process")
        self._waiting_on: Optional[Event] = None
        # Kick off the first step at the current time (no proxy Event:
        # a bare callback entry resumes us with a None value).
        env._schedule_call(self, _BOOTSTRAP)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self._triggered:
            return
        env = self.env
        wake = Event(env)
        wake._triggered = True
        wake._exception = Interrupt(cause)
        wake._defused = True
        self._waiting_on = None
        wake._cb = self
        if env._fastpath:
            env._immediate.append(wake)
        else:
            heappush(env._heap, (env._now, env._next_seq(), wake))

    def _resume(self, event: Event) -> None:
        if self._triggered:
            return
        # Ignore wakeups from events we stopped waiting on (e.g. after an
        # interrupt raced with the original wait target).
        waiting = self._waiting_on
        if waiting is not None and event is not waiting:
            if not event.ok:
                event._defused = True
            return
        self._waiting_on = None
        env = self.env
        env._active_process = self
        try:
            if event._exception is not None:
                event._defused = True
                target = self._generator.throw(event._exception)
            else:
                target = self._send(event._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - propagate to waiters
            self.fail(exc)
            return
        finally:
            env._active_process = None
        try:
            processed = target._processed
        except AttributeError:
            self.fail(SimulationError(
                f"process {self.name!r} yielded {target!r}, not an Event"))
            return
        self._waiting_on = target
        # Register ourselves (not a bound method) as the waiter; the
        # dispatch loops detect Process entries by type.
        if processed:
            env._schedule_call(self, target)
        elif target._cb is None:
            target._cb = self
        elif target._cbs is None:
            target._cbs = [self]
        else:
            target._cbs.append(self)


class Environment:
    """The simulation environment: clock plus event queue.

    ``fastpath`` selects the optimized zero-delay immediate queue
    (default); pass ``False`` -- or export ``REPRO_ENGINE_SLOWPATH=1``
    -- to route everything through the reference time heap.  Both paths
    process events in exactly the same order.
    """

    __slots__ = ("_now", "_heap", "_sequence", "_seq_mix", "_immediate",
                 "_fastpath", "_active_process", "events_processed")

    def __init__(self, initial_time: float = 0.0,
                 fastpath: Optional[bool] = None) -> None:
        self._now = float(initial_time)
        self._heap: list[tuple[float, int, Any]] = []
        self._sequence = 0
        self._immediate: deque[Any] = deque()
        if fastpath is None:
            fastpath = not os.environ.get("REPRO_ENGINE_SLOWPATH")
        self._fastpath = bool(fastpath)
        # Sanitizer tie-break perturbation: under a
        # REPRO_SANITIZE_TIEBREAK seed, heap sequence numbers pass
        # through a seeded bijection, deterministically shuffling the
        # pop order of same-timestamp events.  Forces the slowpath so
        # *every* zero-delay event is subject to the shuffle.
        tiebreak = sanitizer.tiebreak_seed()
        if tiebreak is None:
            self._seq_mix: Optional[Callable[[int], int]] = None
        else:
            self._seq_mix = sanitizer.sequence_mixer(tiebreak)
            self._fastpath = False
        #: The process currently being resumed (None outside a resume);
        #: lets structural errors name their offending process.
        self._active_process: Optional[Process] = None
        #: Events processed by this environment (see also the module
        #: counter :func:`events_processed_total`).
        self.events_processed = 0

    def _next_seq(self) -> int:
        """Next heap tie-break key (mixed under the sanitizer)."""
        sequence = self._sequence
        self._sequence = sequence + 1
        mix = self._seq_mix
        return sequence if mix is None else mix(sequence)

    @property
    def now(self) -> float:
        """Current simulated time, in microseconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process being resumed right now (``None`` between resumes)."""
        return self._active_process

    def event(self) -> Event:
        """Create an untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event firing ``delay`` from now.

        Built in one frame (``object.__new__`` plus direct slot stores)
        instead of ``Timeout(...)``: timeouts are the hottest allocation
        in every model and the class-call double dispatch is measurable.
        """
        if delay < 0:
            raise SimulationError(f"negative timeout: {delay}")
        event = _new_event(Timeout)
        event.env = self
        event._cb = None
        event._cbs = None
        event._value = value
        event._exception = None
        event._triggered = True
        event._processed = False
        event._defused = False
        if delay == 0.0 and self._fastpath:
            self._immediate.append(event)
        else:
            heappush(self._heap, (self._now + delay, self._next_seq(), event))
        return event

    def process(self, generator: ProcessGenerator, name: str = "") -> Process:
        """Launch a process from a generator."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that fires when all ``events`` fired."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that fires when the first of ``events`` fires."""
        return AnyOf(self, events)

    def _schedule_call(self, callback: Callable[[Any], None],
                       event: Any) -> None:
        if self._fastpath:
            self._immediate.append((callback, event))
        else:
            heappush(self._heap,
                     (self._now, self._next_seq(), (callback, event)))

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run the event loop.

        ``until`` may be ``None`` (run to exhaustion), a time, or an
        :class:`Event` (run until it is processed, returning its value).
        When ``until`` is a time, the clock always advances to it, even
        if the queue empties early.

        All three forms share one pop/dispatch loop.  An event target
        runs with an infinite deadline and stops right after the
        target's own dispatch: only dispatching an event marks it
        processed, so one identity test per event suffices and callbacks
        added to the target while running still run.
        """
        global _events_processed_total
        target = None
        if isinstance(until, Event):
            target = until
            # An already-processed target returns without dispatching:
            # a deadline of -inf stops the loop before its first pop.
            deadline = -_INF if target._processed else _INF
        else:
            deadline = _INF if until is None else float(until)
        heap = self._heap
        immediate = self._immediate
        count = 0
        # The loop allocates short-lived container objects (events, call
        # tuples, generators) at a rate that keeps the cyclic collector
        # busy for no benefit -- nearly everything dies by refcount.
        # Suspend it for the duration of the run.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            while True:
                if heap and (not immediate or heap[0][0] <= self._now):
                    when = heap[0][0]
                    if when > deadline:
                        break
                    when, _seq, item = heappop(heap)
                    self._now = when
                elif immediate:
                    if self._now > deadline:
                        break
                    item = immediate.popleft()
                else:
                    break
                count += 1
                if type(item) is tuple:
                    callback, event = item
                    if type(callback) is Process:
                        callback._resume(event)
                    else:
                        callback(event)
                    continue
                item._processed = True
                callback = item._cb
                if callback is not None:
                    item._cb = None
                    if type(callback) is Process:
                        callback._resume(item)
                    else:
                        callback(item)
                    more = item._cbs
                    if more:
                        item._cbs = None
                        for callback in more:
                            if type(callback) is Process:
                                callback._resume(item)
                            else:
                                callback(item)
                elif item._exception is not None and not item._defused:
                    # A failure nobody waited for: surface it rather
                    # than lose it.
                    raise item._exception
                if item is target:
                    break
        finally:
            if gc_was_enabled:
                gc.enable()
            self.events_processed += count
            _events_processed_total += count
        if target is None:
            if until is not None:
                self._now = max(self._now, deadline)
            return None
        if not target._processed:
            raise SimulationError(
                "event queue exhausted before target event fired")
        if target._exception is not None:
            raise target._exception
        return target._value
