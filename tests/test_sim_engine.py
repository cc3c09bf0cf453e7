"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    Environment,
    Interrupt,
    Resource,
    SimulationError,
)
from repro.sim import engine


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_timeout_advances_clock():
    env = Environment()
    done = []

    def body():
        yield env.timeout(10)
        done.append(env.now)
        yield env.timeout(5)
        done.append(env.now)

    env.process(body())
    env.run()
    assert done == [10, 15]


def test_timeout_value_passthrough():
    env = Environment()
    seen = []

    def body():
        value = yield env.timeout(1, value="payload")
        seen.append(value)

    env.process(body())
    env.run()
    assert seen == ["payload"]


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1)


def test_run_until_time_stops_early():
    env = Environment()
    fired = []

    def body():
        yield env.timeout(100)
        fired.append("late")

    env.process(body())
    env.run(until=50)
    assert fired == []
    assert env.now == 50
    env.run()
    assert fired == ["late"]


def test_run_until_event_returns_value():
    env = Environment()

    def body():
        yield env.timeout(3)
        return 42

    proc = env.process(body())
    assert env.run(until=proc) == 42
    assert env.now == 3


def test_events_at_same_time_fire_in_schedule_order():
    env = Environment()
    order = []

    def make(tag):
        def body():
            yield env.timeout(5)
            order.append(tag)
        return body

    for tag in ["a", "b", "c"]:
        env.process(make(tag)())
    env.run()
    assert order == ["a", "b", "c"]


def test_process_waits_on_manual_event():
    env = Environment()
    gate = env.event()
    got = []

    def waiter():
        value = yield gate
        got.append((env.now, value))

    def opener():
        yield env.timeout(7)
        gate.succeed("open")

    env.process(waiter())
    env.process(opener())
    env.run()
    assert got == [(7, "open")]


def test_event_cannot_trigger_twice():
    env = Environment()
    event = env.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)


def test_process_exception_propagates_to_waiter():
    env = Environment()

    def failing():
        yield env.timeout(1)
        raise ValueError("boom")

    def waiter():
        with pytest.raises(ValueError, match="boom"):
            yield env.process(failing())
        return "handled"

    proc = env.process(waiter())
    assert env.run(until=proc) == "handled"


def test_unhandled_process_exception_raises_from_run():
    env = Environment()

    def failing():
        yield env.timeout(1)
        raise ValueError("unwatched")

    env.process(failing())
    with pytest.raises(ValueError, match="unwatched"):
        env.run()


def test_all_of_collects_values():
    env = Environment()

    def body(delay, value):
        yield env.timeout(delay)
        return value

    def main():
        procs = [env.process(body(d, d * 10)) for d in (3, 1, 2)]
        values = yield AllOf(env, procs)
        return values

    proc = env.process(main())
    assert env.run(until=proc) == [30, 10, 20]
    assert env.now == 3


def test_all_of_empty_fires_immediately():
    env = Environment()

    def main():
        values = yield AllOf(env, [])
        return (env.now, values)

    proc = env.process(main())
    assert env.run(until=proc) == (0.0, [])


def test_any_of_returns_first():
    env = Environment()

    def body(delay, value):
        yield env.timeout(delay)
        return value

    def main():
        procs = [env.process(body(d, f"v{d}")) for d in (5, 2, 9)]
        index, value = yield AnyOf(env, procs)
        return (env.now, index, value)

    proc = env.process(main())
    assert env.run(until=proc) == (2, 1, "v2")


def test_interrupt_delivers_cause():
    env = Environment()
    log = []

    def sleeper():
        try:
            yield env.timeout(100)
        except Interrupt as interrupt:
            log.append((env.now, interrupt.cause))

    def interrupter(target):
        yield env.timeout(4)
        target.interrupt("teardown")

    target = env.process(sleeper())
    env.process(interrupter(target))
    env.run()
    assert log == [(4, "teardown")]


def test_interrupted_process_ignores_stale_wakeup():
    env = Environment()
    log = []

    def sleeper():
        try:
            yield env.timeout(10)
            log.append("slept")
        except Interrupt:
            yield env.timeout(100)
            log.append("resumed-after-interrupt")

    def interrupter(target):
        yield env.timeout(5)
        target.interrupt()

    target = env.process(sleeper())
    env.process(interrupter(target))
    env.run()
    assert log == ["resumed-after-interrupt"]
    assert env.now == 105


def test_interrupting_dead_process_is_noop():
    env = Environment()

    def body():
        yield env.timeout(1)

    proc = env.process(body())
    env.run()
    assert not proc.is_alive
    proc.interrupt()  # must not raise
    env.run()


def test_yielding_non_event_fails_process():
    env = Environment()

    def bad():
        yield 42

    def waiter():
        with pytest.raises(SimulationError):
            yield env.process(bad())
        return "caught"

    proc = env.process(waiter())
    assert env.run(until=proc) == "caught"


def test_process_return_value_available_after_run():
    env = Environment()

    def body():
        yield env.timeout(2)
        return "result"

    proc = env.process(body())
    env.run()
    assert proc.value == "result"
    assert not proc.is_alive


def test_waiting_on_already_processed_event():
    env = Environment()
    results = []

    def early():
        yield env.timeout(1)
        return "early"

    def late(target):
        yield env.timeout(10)
        value = yield target
        results.append((env.now, value))

    target = env.process(early())
    env.process(late(target))
    env.run()
    assert results == [(10, "early")]


def test_run_until_event_on_exhausted_queue_raises():
    env = Environment()
    never = env.event()
    with pytest.raises(SimulationError):
        env.run(until=never)


def test_run_until_time_advances_clock_when_queue_empties_early():
    env = Environment()

    def body():
        yield env.timeout(5)

    env.process(body())
    env.run(until=200)
    # The queue emptied at t=5, but the clock must still land on the
    # requested deadline (so back-to-back run(until=...) calls stay
    # aligned with wall-clock-style schedules).
    assert env.now == 200
    env.run(until=300)
    assert env.now == 300


def test_run_until_time_in_the_past_still_advances_monotonically():
    env = Environment()
    env.run(until=50)
    env.run(until=10)  # earlier deadline: clock must not go backwards
    assert env.now == 50


def test_any_of_empty_list_raises_naming_process():
    env = Environment()

    def body():
        yield AnyOf(env, [])

    env.process(body(), name="chooser")
    with pytest.raises(SimulationError, match="chooser"):
        env.run()


def test_any_of_empty_list_outside_process():
    env = Environment()
    with pytest.raises(SimulationError, match="at least one event"):
        AnyOf(env, [])


def test_all_of_fails_with_first_child_failure():
    env = Environment()
    caught = []

    def failer(delay, message):
        yield env.timeout(delay)
        raise RuntimeError(message)

    def waiter():
        children = [env.process(failer(1, "first")),
                    env.process(failer(2, "second"))]
        try:
            yield AllOf(env, children)
        except RuntimeError as exc:
            caught.append(str(exc))
        # Drain the second failure so it does not surface unhandled.
        try:
            yield children[1]
        except RuntimeError:
            pass

    proc = env.process(waiter())
    env.run(until=proc)
    assert caught == ["first"]


def test_any_of_failure_before_success_propagates():
    env = Environment()
    caught = []

    def failer():
        yield env.timeout(1)
        raise RuntimeError("boom")

    def slow():
        yield env.timeout(5)
        return "late"

    def waiter():
        try:
            yield AnyOf(env, [env.process(failer()), env.process(slow())])
        except RuntimeError as exc:
            caught.append(str(exc))

    env.process(waiter())
    env.run()
    assert caught == ["boom"]


def test_any_of_late_failure_after_winner_is_defused():
    env = Environment()
    got = []

    def winner():
        yield env.timeout(1)
        return "won"

    def late_failer():
        yield env.timeout(3)
        raise RuntimeError("late boom")

    def waiter():
        index, value = yield AnyOf(
            env, [env.process(winner()), env.process(late_failer())])
        got.append((index, value))

    env.process(waiter())
    env.run()  # must not raise the late failure: AnyOf defuses it
    assert got == [(0, "won")]


def test_interrupt_races_wait_target_at_same_timestamp():
    env = Environment()
    log = []

    def sleeper():
        try:
            value = yield env.timeout(5, value="slept")
            log.append(("value", value, env.now))
        except Interrupt as interrupt:
            log.append(("interrupt", interrupt.cause, env.now))
            # The original timeout still fires after us; it must be
            # swallowed as a stale wakeup, not resume the generator.
            yield env.timeout(10)
            log.append(("resumed", env.now))

    def interrupter(target):
        yield env.timeout(5)
        target.interrupt(cause="now")

    target = env.process(sleeper())
    env.process(interrupter(target))
    env.run()
    # The t=5 timeout was scheduled before the interrupt, so it wins
    # the tie and the process completes normally without interruption
    # ... unless the interrupt arrives first. Pin the actual order.
    assert log[0] == ("value", "slept", 5)
    assert len(log) == 1


@pytest.mark.parametrize("fastpath", [True, False], ids=["fast", "slow"])
def test_interrupt_wins_over_a_wait_target_due_at_the_same_time(fastpath):
    # The interrupter's sleep was queued first, so at t=5 it sends the
    # interrupt while the sleeper's own timeout is still due: the sleeper
    # must see the interrupt, and its timeout must be dropped as stale.
    env = Environment(fastpath=fastpath)
    log = []

    def sleeper():
        try:
            value = yield env.timeout(5, value="slept")
            log.append(("value", value, env.now))
        except Interrupt as interrupt:
            log.append(("interrupt", interrupt.cause, env.now))
            yield env.timeout(1)
            log.append(("resumed", env.now))

    def interrupter():
        yield env.timeout(5)
        target.interrupt(cause="now")

    env.process(interrupter())
    target = env.process(sleeper())
    env.run()
    assert log == [("interrupt", "now", 5), ("resumed", 6)]


@pytest.mark.parametrize("fastpath", [True, False], ids=["fast", "slow"])
def test_the_first_of_two_interrupts_sent_together_wins(fastpath):
    env = Environment(fastpath=fastpath)
    log = []

    def sleeper():
        try:
            yield env.timeout(10)
        except Interrupt as interrupt:
            log.append((interrupt.cause, env.now))
            yield env.timeout(1)
            log.append(("resumed", env.now))

    def interrupter():
        yield env.timeout(5)
        target.interrupt(cause="first")
        target.interrupt(cause="second")

    target = env.process(sleeper())
    env.process(interrupter())
    env.run()
    assert log == [("first", 5), ("resumed", 6)]


def test_interrupt_before_wait_target_fires():
    env = Environment()
    log = []

    def sleeper():
        try:
            yield env.timeout(10, value="slept")
            log.append("slept")
        except Interrupt as interrupt:
            log.append(("interrupt", interrupt.cause, env.now))

    def interrupter(target):
        yield env.timeout(5)
        target.interrupt(cause="early")

    target = env.process(sleeper())
    env.process(interrupter(target))
    env.run()
    assert log == [("interrupt", "early", 5)]


def test_callback_on_processed_event_runs_through_engine_queue():
    env = Environment()
    order = []

    def body():
        yield env.timeout(1)

    proc = env.process(body())
    env.run()
    assert proc.processed
    # Registering on an already-processed event must defer through the
    # engine queue (preserving engine ordering), not run synchronously.
    proc._add_callback(lambda event: order.append("late-callback"))
    assert order == []
    env.run()
    assert order == ["late-callback"]


def test_callbacks_property_reports_waiting_processes():
    env = Environment()
    gate = env.event()

    def waiter():
        yield gate

    proc = env.process(waiter())
    env.run(until=0)
    callbacks = gate.callbacks
    assert proc._resume in callbacks
    gate.succeed()
    env.run()
    assert gate.callbacks is None  # processed events expose no callbacks


def test_same_timestamp_fifo_across_heap_and_immediate_queues():
    for fastpath in (True, False):
        env = Environment(fastpath=fastpath)
        order = []

        def zero_hop(tag, env=env, order=order):
            yield env.timeout(0)
            order.append(tag)

        def delayed(tag, env=env, order=order):
            yield env.timeout(5)
            order.append(tag)
            yield env.timeout(0)
            order.append(tag + "-zero")

        env.process(delayed("a"))
        env.process(delayed("b"))
        env.process(zero_hop("z"))
        env.run()
        assert order == ["z", "a", "b", "a-zero", "b-zero"], fastpath


def test_events_processed_counters_advance():
    before_total = __import__(
        "repro.sim.engine", fromlist=["x"]).events_processed_total()
    env = Environment()

    def body():
        for _ in range(10):
            yield env.timeout(1)

    env.process(body())
    env.run()
    after_total = __import__(
        "repro.sim.engine", fromlist=["x"]).events_processed_total()
    assert env.events_processed > 0
    assert after_total - before_total == env.events_processed


# -- the single run() loop: all three ``until`` forms, plain and wrapped --


@pytest.fixture(params=[False, True], ids=["plain", "profiled"])
def profiled(request, monkeypatch):
    """Run plain, or with ``Environment.run`` and ``Environment.process``
    wrapped by call counters on the class, the way an outside profiler
    (``perfbench``'s layer probes) wraps them.  The loop must behave the
    same either way, and a wrapped run must reach the wrappers."""
    calls = {"run": 0, "process": 0}
    if request.param:
        for name in calls:
            original = Environment.__dict__[name]

            def counting(*args, _original=original, _name=name, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(Environment, name, counting)
    yield request.param
    if request.param:
        assert calls["run"] > 0 and calls["process"] > 0


def _mixed_traffic_run(form):
    """Heap and immediate-queue traffic under one ``until`` form."""
    env = Environment()

    def worker(period, value):
        for _ in range(4):
            yield env.timeout(period)
            gate = env.event()
            gate.succeed()
            yield gate  # a zero-delay hop through the immediate queue
        return value

    slow = env.process(worker(7.0, "slow"))
    env.process(worker(3.0, "fast"))
    until = {"none": None, "time": 15.0, "event": slow}[form]
    return env.run(until=until), env.now


@pytest.mark.parametrize("form, expected", [
    ("none", (None, 28.0)),
    ("time", (None, 15.0)),
    ("event", ("slow", 28.0)),
])
def test_run_forms(form, expected):
    assert _mixed_traffic_run(form) == expected


def test_run_until_processed_event_returns_immediately(profiled):
    env = Environment()

    def body():
        yield env.timeout(1)
        return "done"

    def bystander():
        yield env.timeout(5)

    proc = env.process(body())
    assert env.run(until=proc) == "done"
    env.process(bystander())
    before = env.events_processed
    assert env.run(until=proc) == "done"
    # Nothing dispatched: the bystander's bootstrap is still queued.
    assert env.events_processed == before
    assert env.now == 1


def test_callbacks_added_to_target_during_run_still_run(profiled):
    env = Environment()
    target = env.event()
    seen = []

    def late_waiter():
        yield env.timeout(1)
        value = yield target
        seen.append(("waiter", value, env.now))

    def opener():
        yield env.timeout(2)
        target._add_callback(
            lambda event: seen.append(("callback", event.value, env.now)))
        target.succeed("open")

    env.process(late_waiter())
    env.process(opener())
    assert env.run(until=target) == "open"
    assert sorted(seen) == [("callback", "open", 2), ("waiter", "open", 2)]


def test_exhausted_queue_before_target_raises(profiled):
    env = Environment()
    never = env.event()

    def body():
        yield env.timeout(3)

    env.process(body())
    with pytest.raises(SimulationError, match="exhausted before target"):
        env.run(until=never)
    assert env.now == 3


# -- in-place clock advance ----------------------------------------------------


def test_advance_from_a_bootstrap_step_moves_the_clock():
    env = Environment()
    seen = []

    def body():
        seen.append(env.advance(5.0))
        seen.append(env.now)
        yield env.timeout(1.0)

    env.process(body())
    env.run()
    assert seen == [True, 5.0] and env.now == 6.0


def test_advance_declines_an_equal_time_heap_entry():
    env = Environment()
    seen = []

    def other():
        yield env.timeout(10.0)

    def body():
        yield env.timeout(1.0)
        seen.append(env.advance(9.0))   # 10.0 ties the heap head
        seen.append(env.advance(8.5))   # strictly earlier: advances
        seen.append(env.now)

    env.process(other())
    env.process(body())
    env.run()
    assert seen == [False, True, 9.5]


def test_advance_stays_within_the_run_deadline():
    env = Environment()
    seen = []

    def body():
        yield env.timeout(1.0)
        seen.append(env.advance(5.0))   # 6.0 is past until=4.0
        seen.append(env.advance(3.0))   # exactly the deadline
        seen.append(env.now)
        yield env.timeout(1.0)
        seen.append("late")

    env.process(body())
    env.run(until=4.0)
    assert seen == [False, True, 4.0]
    assert env.now == 4.0


def test_advance_never_passes_the_run_target():
    env = Environment()
    target = env.timeout(1.0)
    seen = []

    def waiter():
        yield target
        seen.append(env.advance(5.0))

    env.process(waiter())
    env.run(until=target)
    assert seen == [False]
    assert env.now == 1.0


def test_advance_declines_while_the_immediate_deque_is_busy():
    env = Environment()
    seen = []

    def body():
        yield env.timeout(1.0)
        gate = env.event()
        gate.succeed()
        seen.append(env.advance(1.0))
        yield gate
        seen.append(env.advance(1.0))
        seen.append(env.now)

    env.process(body())
    env.run()
    assert seen == [False, True, 2.0]


def test_advance_declines_a_wakeup_shared_with_other_waiters():
    env = Environment()
    shared = env.timeout(1.0)
    seen = []

    def waiter(name):
        yield shared
        seen.append((name, env.advance(1.0)))

    env.process(waiter("a"))
    env.process(waiter("b"))
    env.run()
    assert seen == [("a", False), ("b", False)]
    assert env.now == 1.0


def test_advance_outside_a_process_step_or_off_the_fast_path(monkeypatch):
    env = Environment()
    assert env.advance(1.0) is False
    seen = []
    event = env.event()
    event._add_callback(lambda _event: seen.append(env.advance(1.0)))
    event.succeed()
    env.run()
    assert seen == [False] and env.now == 0.0

    def body(env):
        seen.append(env.advance(1.0))
        yield env.timeout(1.0)

    seen.clear()
    slow = Environment(fastpath=False)
    slow.process(body(slow))
    slow.run()
    monkeypatch.setenv("REPRO_SANITIZE_TIEBREAK", "7")
    perturbed = Environment()
    perturbed.process(body(perturbed))
    perturbed.run()
    assert seen == [False, False]
    assert slow.now == 1.0 and perturbed.now == 1.0


def test_advance_declines_a_negative_delay():
    env = Environment()
    seen = []

    def body():
        yield env.timeout(2.0)
        seen.append(env.advance(-1.0))

    env.process(body())
    env.run()
    assert seen == [False] and env.now == 2.0


# -- in-place chain advance ---------------------------------------------------


def _chain(env, resource, steps):
    """The step-by-step form of a chain: a take and a hold per grant."""
    for delay in steps:
        grant = resource.request()
        try:
            if not env.take(grant):
                yield grant
            if not env.advance(delay):
                yield env.timeout(delay)
        finally:
            resource.release(grant)


@pytest.mark.parametrize("fastpath", [True, False], ids=["fast", "slow"])
def test_advance_to_counts_a_chain_like_its_steps(fastpath):
    steps = (0.1, 11.5, 108.0 + 4096 / 550.0)
    runs, seen = [], []
    for in_place in (True, False):
        env = Environment(fastpath=fastpath)
        resource = Resource(env)

        def body():
            yield env.timeout(1.0)
            if in_place:
                when = env.now
                for delay in steps:
                    when += delay
                seen.append(env.advance_to(when, 2 * len(steps)))
                if seen[-1]:
                    return
            yield from _chain(env, resource, steps)

        env.process(body())
        env.run()
        runs.append((env.now, env.events_processed, resource.count))
    assert runs[0] == runs[1]
    assert seen == [fastpath]


def test_advance_to_declines_a_heap_entry_due_by_its_end():
    env = Environment()
    seen = []

    def other():
        yield env.timeout(10.0)

    def body():
        yield env.timeout(1.0)
        seen.append(env.advance_to(10.0, 3))   # ties the heap head
        seen.append(env.advance_to(11.0, 3))   # the head is earlier
        seen.append(env.advance_to(9.5, 3))    # strictly earlier: moves
        seen.append(env.now)

    env.process(other())
    before = env.events_processed
    env.process(body())
    env.run()
    assert seen == [False, False, True, 9.5]
    # Two bootstraps, two timeouts, two completions and the chain.
    assert env.events_processed - before == 6 + 3


def test_advance_to_declines_what_advance_declines(monkeypatch):
    env = Environment()
    assert env.advance_to(1.0, 2) is False        # outside a process
    seen = []

    def busy():
        yield env.timeout(1.0)
        gate = env.event()
        gate.succeed()
        seen.append(env.advance_to(2.0, 2))       # immediate deque busy
        yield gate
        seen.append(env.advance_to(0.5, 2))       # earlier than now
        seen.append(env.advance_to(5.0, 2))       # past until=4.0
        seen.append(env.advance_to(4.0, 2))       # exactly the deadline

    env.process(busy())
    env.run(until=4.0)
    assert seen == [False, False, False, True] and env.now == 4.0

    shared = Environment()
    wake = shared.timeout(1.0)
    seen.clear()

    def waiter():
        yield wake
        seen.append(shared.advance_to(2.0, 2))

    shared.process(waiter())
    shared.process(waiter())
    shared.run()
    assert seen == [False, False]

    def body(env):
        seen.append(env.advance_to(1.0, 2))
        yield env.timeout(1.0)

    seen.clear()
    slow = Environment(fastpath=False)
    slow.process(body(slow))
    slow.run()
    monkeypatch.setenv("REPRO_SANITIZE_TIEBREAK", "7")
    perturbed = Environment()
    perturbed.process(body(perturbed))
    perturbed.run()
    assert seen == [False, False]


@pytest.mark.parametrize("fastpath", [True, False], ids=["fast", "slow"])
def test_each_advance_counts_as_one_event(fastpath):
    engine = __import__("repro.sim.engine", fromlist=["x"])
    env = Environment(fastpath=fastpath)
    advanced = []

    def body():
        for _ in range(10):
            if env.advance(1.5):
                advanced.append(env.now)
            else:
                yield env.timeout(1.5)

    before = engine.events_processed_total()
    env.process(body())
    env.run()
    # Bootstrap, ten timeouts (in place or not) and the completion.
    assert env.events_processed == 12
    assert engine.events_processed_total() - before == 12
    assert env.now == 15.0
    assert len(advanced) == (10 if fastpath else 0)


@pytest.mark.parametrize("interrupt_at", [5.0, 3.0], ids=["tie", "earlier"])
def test_interrupt_due_no_later_than_the_advance_lands_first(interrupt_at):
    def run(fastpath):
        env = Environment(fastpath=fastpath)
        log = []

        def sleeper():
            yield env.timeout(1.0)
            try:
                if not env.advance(4.0):
                    yield env.timeout(4.0, value="slept")
                log.append(("sleeper", env.now))
            except Interrupt as interrupt:
                log.append(("interrupted", interrupt.cause, env.now))

        def interrupter(target):
            yield env.timeout(interrupt_at)
            log.append(("interrupt", env.now))
            target.interrupt(cause="stop")

        target = env.process(sleeper())
        env.process(interrupter(target))
        env.run()
        return log

    log = run(fastpath=True)
    assert log == run(fastpath=False)
    assert log[0] == ("interrupt", interrupt_at)


# -- in-place grant take -------------------------------------------------------


def _on_both_paths(scenario):
    """Run ``scenario(env, log, taken)`` on the fast and the slow path.

    The scenario builds its processes and returns the ``until`` argument
    of the run (``None`` for exhaustion).  Both paths must log the same
    things, end at the same time and process the same number of events;
    the slow path never takes.  Returns the fast path's log and take
    results.
    """
    runs = []
    for fastpath in (True, False):
        env = Environment(fastpath=fastpath)
        log, taken = [], []
        env.run(until=scenario(env, log, taken))
        runs.append((log, env.now, env.events_processed, taken))
    (log, now, events, taken), (slow_log, slow_now, slow_events,
                                slow_taken) = runs
    assert (log, now, events) == (slow_log, slow_now, slow_events)
    assert not any(slow_taken)
    return log, taken


def _acquire(env, resource, log, taken, name, hold=2.0):
    """Process body: take (or wait for) one slot, hold it, release it."""
    request = resource.request()
    try:
        taken.append(env.take(request))
        if not taken[-1]:
            yield request
        log.append((name, "granted", env.now, request.processed))
        yield env.timeout(hold)
    finally:
        resource.release(request)
    log.append((name, "released", env.now))


def test_take_consumes_an_uncontended_grant_in_place():
    def scenario(env, log, taken):
        resource = Resource(env)

        def body():
            yield env.timeout(1.0)
            yield from _acquire(env, resource, log, taken, "a")

        env.process(body())

    log, taken = _on_both_paths(scenario)
    assert taken == [True]
    assert log == [("a", "granted", 1.0, True), ("a", "released", 3.0)]


def test_take_declines_on_the_slow_path_and_under_a_tiebreak_seed(
        monkeypatch):
    def run(env):
        resource = Resource(env)
        log, taken = [], []

        def body():
            yield from _acquire(env, resource, log, taken, "a")

        env.process(body())
        env.run()
        return log, taken, env.events_processed

    fast = run(Environment())
    slow = run(Environment(fastpath=False))
    monkeypatch.setenv("REPRO_SANITIZE_TIEBREAK", "7")
    perturbed = run(Environment())
    assert fast[1] == [True]
    assert slow[1] == perturbed[1] == [False]
    assert fast[0] == slow[0] == perturbed[0]
    assert fast[2] == slow[2] == perturbed[2]


def test_take_declines_outside_a_process_step():
    env = Environment()
    resource = Resource(env)
    request = resource.request()
    assert env.take(request) is False
    resource.release(request)
    env.run()

    def scenario(env, log, taken):
        resource = Resource(env)

        def callback(_event):
            request = resource.request()
            taken.append(env.take(request))
            resource.release(request)
            log.append(("callback", env.now))

        event = env.timeout(1.0)
        event._add_callback(callback)

    log, taken = _on_both_paths(scenario)
    assert taken == [False] and log == [("callback", 1.0)]


@pytest.mark.parametrize("first", [True, False], ids=["before", "after"])
def test_take_declines_unless_the_grant_is_alone_in_the_immediate_deque(
        first):
    def scenario(env, log, taken):
        resource = Resource(env)

        def other(gate):
            yield gate
            log.append(("other", env.now))

        def body():
            yield env.timeout(1.0)
            gate = env.event()
            env.process(other(gate))
            if first:
                gate.succeed()
            request = resource.request()
            if not first:
                gate.succeed()
            try:
                taken.append(env.take(request))
                if not taken[-1]:
                    yield request
                log.append(("body", env.now))
            finally:
                resource.release(request)

        env.process(body())

    log, taken = _on_both_paths(scenario)
    assert taken == [False]
    # Whatever was queued first in the deque also runs first.
    expected = [("other", 1.0), ("body", 1.0)]
    assert log == (expected if first else expected[::-1])


def test_take_declines_a_heap_entry_due_now():
    def scenario(env, log, taken):
        resource = Resource(env)

        def body():
            yield env.timeout(1.0)
            yield from _acquire(env, resource, log, taken, "body")

        def other():
            yield env.timeout(1.0)   # scheduled after body's: due next
            log.append(("other", env.now))

        env.process(body())
        env.process(other())

    log, taken = _on_both_paths(scenario)
    assert taken == [False]
    # The due heap entry runs before the grant is dispatched.
    assert log[:2] == [("other", 1.0), ("body", "granted", 1.0, True)]


def test_take_declines_a_wakeup_shared_with_other_waiters():
    def scenario(env, log, taken):
        shared = env.timeout(1.0)

        def waiter(name):
            yield shared
            yield from _acquire(env, Resource(env), log, taken, name)

        env.process(waiter("a"))
        env.process(waiter("b"))

    log, taken = _on_both_paths(scenario)
    assert taken == [False, False]
    assert [entry[:2] for entry in log] == [
        ("a", "granted"), ("b", "granted"), ("a", "released"),
        ("b", "released")]


def test_take_declines_a_failed_event_or_one_with_other_waiters():
    def scenario(env, log, taken):
        def body():
            yield env.timeout(1.0)
            failed = env.event()
            failed.fail(RuntimeError("lost grant"))
            taken.append(env.take(failed))
            try:
                if not taken[-1]:
                    yield failed
            except RuntimeError as error:
                log.append(("raised", str(error), env.now))
            watched = env.event()
            both = env.all_of([watched])
            watched.succeed("v")
            taken.append(env.take(watched))
            if not taken[-1]:
                yield watched
            log.append(("all_of", (yield both), env.now))

        env.process(body())

    log, taken = _on_both_paths(scenario)
    assert taken == [False, False]
    assert log == [("raised", "lost grant", 1.0), ("all_of", ["v"], 1.0)]


def test_take_stays_within_the_run_deadline():
    def scenario(env, log, taken):
        resource = Resource(env)

        def body():
            yield env.timeout(4.0)
            yield from _acquire(env, resource, log, taken, "a")

        env.process(body())
        return 4.0

    log, taken = _on_both_paths(scenario)
    # At exactly the deadline the loop would still dispatch the grant.
    assert taken == [True]
    assert log == [("a", "granted", 4.0, True)]


def test_take_declines_during_the_dispatch_of_the_run_target():
    def scenario(env, log, taken):
        resource = Resource(env)
        target = env.timeout(1.0)

        def waiter():
            yield target
            yield from _acquire(env, resource, log, taken, "a")

        env.process(waiter())
        return target

    log, taken = _on_both_paths(scenario)
    assert taken == [False]
    # The run ends with the target's dispatch; the grant stays queued.
    assert log == []


def test_a_queued_request_is_never_taken():
    def scenario(env, log, taken):
        resource = Resource(env)

        def holder():
            yield env.timeout(0.5)
            yield from _acquire(env, resource, log, taken, "holder",
                                hold=4.5)

        def body():
            yield env.timeout(1.0)
            request = resource.request()
            try:
                log.append(("queued", request.triggered))
                taken.append(env.take(request))
                if not taken[-1]:
                    yield request
                log.append(("body", "granted", env.now))
            finally:
                resource.release(request)

        env.process(holder())
        env.process(body())

    log, taken = _on_both_paths(scenario)
    assert taken == [True, False]
    assert ("queued", False) in log
    assert ("body", "granted", 5.0) in log


@pytest.mark.parametrize("fastpath", [True, False], ids=["fast", "slow"])
def test_each_take_counts_as_one_event(fastpath):
    env = Environment(fastpath=fastpath)
    resource = Resource(env)
    log, taken = [], []

    def body():
        for index in range(10):
            yield from _acquire(env, resource, log, taken, index, hold=1.5)

    before = engine.events_processed_total()
    env.process(body())
    env.run()
    # Bootstrap, ten grants and ten holds (in place or not), completion.
    assert env.events_processed == 22
    assert engine.events_processed_total() - before == 22
    assert env.now == 15.0
    assert taken == [fastpath] * 10


@pytest.mark.parametrize("interrupt_at", [5.0, 3.0], ids=["tie", "earlier"])
def test_interrupt_sent_while_a_grant_is_pending_lands_first(interrupt_at):
    def scenario(env, log, taken):
        resource = Resource(env)

        def holder():
            yield env.timeout(0.5)
            yield from _acquire(env, resource, log, taken, "holder",
                                hold=4.5)

        def body():
            yield env.timeout(1.0)
            try:
                yield from _acquire(env, resource, log, taken, "body")
            except Interrupt as interrupt:
                log.append(("interrupted", interrupt.cause, env.now))

        def later():
            yield env.timeout(2.0)
            yield from _acquire(env, resource, log, taken, "later")

        def interrupter(target):
            yield env.timeout(interrupt_at)
            log.append(("interrupt", env.now))
            target.interrupt(cause="stop")

        env.process(holder())
        target = env.process(body())
        env.process(later())
        env.process(interrupter(target))

    log, taken = _on_both_paths(scenario)
    assert taken[0] is True and not any(taken[1:])
    first = next(entry for entry in log if entry[0] != "holder")
    assert first == ("interrupt", interrupt_at)
    assert ("interrupted", "stop", interrupt_at) in log
    # The cancelled (or just granted) request passes the slot on to the
    # next waiter when the holder releases it.
    assert ("later", "granted", 5.0, True) in log
