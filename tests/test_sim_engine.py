"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    Environment,
    Interrupt,
    SimulationError,
)


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
