"""Unit tests for Resource and Store."""

import pytest

from repro.sim import Environment, Resource, Store, run_process


def test_resource_grants_immediately_under_capacity():
    env = Environment()
    res = Resource(env, capacity=2)

    def proc():
        r1 = res.request()
        yield r1
        r2 = res.request()
        yield r2
        return env.now

    assert run_process(env, proc()) == 0.0


def test_resource_capacity_validated():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def test_resource_queues_when_full():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def holder():
        req = res.request()
        yield req
        order.append(("holder-acquired", env.now))
        yield env.timeout(5.0)
        res.release(req)

    def waiter():
        yield env.timeout(1.0)  # arrive while held
        req = res.request()
        yield req
        order.append(("waiter-acquired", env.now))
        res.release(req)

    env.process(holder())
    env.process(waiter())
    env.run()
    assert order == [("holder-acquired", 0.0), ("waiter-acquired", 5.0)]


def test_resource_fifo_ordering():
    env = Environment()
    res = Resource(env, capacity=1)
    acquired = []

    def client(i, arrival):
        yield env.timeout(arrival)
        req = res.request()
        yield req
        acquired.append(i)
        yield env.timeout(1.0)
        res.release(req)

    for i in range(5):
        env.process(client(i, arrival=i * 0.1))
    env.run()
    assert acquired == [0, 1, 2, 3, 4]


def test_release_unheld_request_rejected():
    env = Environment()
    res = Resource(env, capacity=1)

    def proc():
        req1 = res.request()
        yield req1
        req2 = res.request()  # queued, not granted
        with pytest.raises(RuntimeError):
            res.release(req2)
        res.cancel(req2)
        res.release(req1)

    run_process(env, proc())
    assert res.count == 0


def test_cancel_queued_request():
    env = Environment()
    res = Resource(env, capacity=1)

    def proc():
        req1 = res.request()
        yield req1
        req2 = res.request()
        res.cancel(req2)
        with pytest.raises(RuntimeError):
            res.cancel(req2)  # already cancelled
        res.release(req1)
        # The cancelled request must not have been granted.
        assert res.count == 0

    run_process(env, proc())


def test_queue_length_tracks_waiters():
    env = Environment()
    res = Resource(env, capacity=1)

    def holder():
        req = res.request()
        yield req
        yield env.timeout(10.0)
        res.release(req)

    def waiter():
        yield env.timeout(1.0)
        req = res.request()
        yield req
        res.release(req)

    env.process(holder())
    env.process(waiter())
    env.run(until=2.0)
    assert res.queue_length == 1
    env.run()
    assert res.queue_length == 0


def test_store_put_then_get():
    env = Environment()
    store = Store(env)
    store.put("a")
    store.put("b")

    def proc():
        first = yield store.get()
        second = yield store.get()
        return (first, second)

    assert run_process(env, proc()) == ("a", "b")


def test_store_get_blocks_until_put():
    env = Environment()
    store = Store(env)

    def producer():
        yield env.timeout(2.0)
        store.put("item")

    def consumer():
        item = yield store.get()
        return (env.now, item)

    env.process(producer())
    assert run_process(env, consumer()) == (2.0, "item")


def test_store_multiple_getters_fifo():
    env = Environment()
    store = Store(env)
    received = []

    def consumer(tag):
        item = yield store.get()
        received.append((tag, item))

    def producer():
        yield env.timeout(1.0)
        store.put("x")
        store.put("y")

    env.process(consumer("first"))
    env.process(consumer("second"))
    env.process(producer())
    env.run()
    assert received == [("first", "x"), ("second", "y")]


def test_store_try_get():
    env = Environment()
    store = Store(env)
    assert store.try_get() is None
    store.put(7)
    assert len(store) == 1
    assert store.try_get() == 7
    assert store.try_get() is None
