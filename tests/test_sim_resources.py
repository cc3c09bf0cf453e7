"""Unit tests for simulation resources (FIFO, priority, store)."""

import gc

import pytest

from repro.sim import Environment, PriorityResource, Resource, Store


def test_resource_serializes_on_capacity_one():
    env = Environment()
    resource = Resource(env, capacity=1)
    spans = []

    def worker(tag):
        # lint: allow[REPRO-R001] -- nothing in this body can raise.
        start_req = resource.request()
        yield start_req
        start = env.now
        yield env.timeout(10)
        resource.release(start_req)
        spans.append((tag, start, env.now))

    for tag in ("a", "b", "c"):
        env.process(worker(tag))
    env.run()
    assert spans == [("a", 0, 10), ("b", 10, 20), ("c", 20, 30)]


def test_resource_parallelism_matches_capacity():
    env = Environment()
    resource = Resource(env, capacity=2)
    finishes = []

    def worker():
        yield from resource.acquire(10)
        finishes.append(env.now)

    for _ in range(4):
        env.process(worker())
    env.run()
    assert finishes == [10, 10, 20, 20]


def test_resource_counts_and_queue_length():
    env = Environment()
    resource = Resource(env, capacity=1)

    def holder():
        yield from resource.acquire(5)

    def observer():
        yield env.timeout(1)
        assert resource.count == 1
        assert resource.queue_length == 1

    env.process(holder())
    env.process(holder())
    env.process(observer())
    env.run()
    assert resource.count == 0
    assert resource.queue_length == 0


def test_resource_release_of_queued_request_cancels_it():
    env = Environment()
    resource = Resource(env, capacity=1)
    order = []

    def holder():
        yield from resource.acquire(5)
        order.append("holder-done")

    def canceller():
        # The unpaired release IS the test: cancelling a still-queued
        # request.  # lint: allow[REPRO-R001]
        request = resource.request()
        yield env.timeout(1)
        resource.release(request)  # still queued: cancel
        order.append("cancelled")

    def third():
        yield env.timeout(2)
        yield from resource.acquire(1)
        order.append("third-done")

    env.process(holder())
    env.process(canceller())
    env.process(third())
    env.run()
    assert order == ["cancelled", "holder-done", "third-done"]


def test_resource_rejects_zero_capacity():
    env = Environment()
    with pytest.raises(Exception):
        Resource(env, capacity=0)


def test_priority_resource_orders_by_priority():
    env = Environment()
    resource = PriorityResource(env, capacity=1)
    order = []

    def seed():
        # Hold the resource so later arrivals queue up.
        yield from resource.acquire(10)
        order.append("seed")

    def worker(tag, priority, arrival):
        yield env.timeout(arrival)
        yield from resource.acquire(1, priority=priority)
        order.append(tag)

    env.process(seed())
    env.process(worker("low", 5, 1))
    env.process(worker("high", 0, 2))
    env.process(worker("mid", 3, 3))
    env.run()
    assert order == ["seed", "high", "mid", "low"]


def test_priority_resource_fifo_within_same_priority():
    env = Environment()
    resource = PriorityResource(env, capacity=1)
    order = []

    def seed():
        yield from resource.acquire(10)

    def worker(tag, arrival):
        yield env.timeout(arrival)
        yield from resource.acquire(1, priority=1)
        order.append(tag)

    env.process(seed())
    env.process(worker("first", 1))
    env.process(worker("second", 2))
    env.run()
    assert order == ["first", "second"]


def test_store_put_then_get():
    env = Environment()
    store = Store(env)
    got = []

    def consumer():
        item = yield store.get()
        got.append((env.now, item))

    store.put("x")
    env.process(consumer())
    env.run()
    assert got == [(0.0, "x")]


def test_store_get_blocks_until_put():
    env = Environment()
    store = Store(env)
    got = []

    def consumer():
        item = yield store.get()
        got.append((env.now, item))

    def producer():
        yield env.timeout(9)
        store.put("late")

    env.process(consumer())
    env.process(producer())
    env.run()
    assert got == [(9, "late")]


def test_store_fifo_order_many_items():
    env = Environment()
    store = Store(env)
    got = []

    def consumer():
        for _ in range(3):
            item = yield store.get()
            got.append(item)

    for item in (1, 2, 3):
        store.put(item)
    env.process(consumer())
    env.run()
    assert got == [1, 2, 3]


def test_store_get_nowait_and_len():
    env = Environment()
    store = Store(env)
    assert store.get_nowait() is None
    store.put("a")
    store.put("b")
    assert len(store) == 2
    assert store.get_nowait() == "a"
    assert len(store) == 1


def test_store_cancel_get_removes_waiter():
    env = Environment()
    store = Store(env)
    delivered = []

    def consumer():
        pending = store.get()
        yield env.timeout(1)
        store.cancel_get(pending)
        # A later put must not wake the cancelled getter.
        yield env.timeout(10)

    def producer():
        yield env.timeout(2)
        store.put("item")
        delivered.append(len(store))

    env.process(consumer())
    env.process(producer())
    env.run()
    # Item sat in the store because the only getter was cancelled.
    assert delivered == [1]
    assert store.get_nowait() == "item"


@pytest.mark.parametrize("resource_class", [Resource, PriorityResource])
def test_released_grants_leave_no_cyclic_garbage(resource_class):
    # The event loop runs with the cyclic collector off, so a request
    # kept alive by a reference cycle would stay in memory until the run
    # returns.  Released grants must die by refcount alone.
    gc.collect()
    gc.disable()
    try:
        env = Environment()
        resource = resource_class(env, capacity=1)

        def user(hold):
            for _ in range(20):
                yield from resource.acquire(hold)

        env.process(user(1.0))    # contended: the two users queue
        env.process(user(2.0))
        env.run()
        assert resource.count == 0

        def alone():
            for _ in range(20):    # uncontended: granted at once
                yield from resource.acquire(1.0)

        env.process(alone())
        env.run()
        del env, resource
        assert gc.collect() == 0
    finally:
        gc.enable()
