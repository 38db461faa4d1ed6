"""Locks, conditions, channels, the CPU run queue — including renege
behavior."""

import pytest

from repro.hw.cpu import CPU
from repro.hw.platforms import DECSTATION_5000_200
from repro.sim import (
    Channel,
    Condition,
    Interrupt,
    Lock,
    Timeout,
)
from repro.sim.errors import SimulationError
from repro.stack.context import ExecutionContext


def test_lock_mutual_exclusion_fifo(sim):
    lock = Lock(sim)
    order = []

    def worker(name):
        yield from lock.acquire()
        order.append("%s-in" % name)
        yield Timeout(10)
        order.append("%s-out" % name)
        lock.release()

    sim.spawn(worker("a"))
    sim.spawn(worker("b"))
    sim.run()
    assert order == ["a-in", "a-out", "b-in", "b-out"]


def test_lock_release_unlocked_raises(sim):
    lock = Lock(sim)
    with pytest.raises(SimulationError):
        lock.release()


def test_lock_try_acquire(sim):
    lock = Lock(sim)
    assert lock.try_acquire()
    assert not lock.try_acquire()
    lock.release()
    assert lock.try_acquire()


def test_lock_renege_on_interrupt_does_not_leak(sim):
    """Interrupting a queued waiter must not leave the lock held forever.

    Regression test for the ghost-holder bug found during integration.
    """
    lock = Lock(sim)
    got = []

    def holder():
        yield from lock.acquire()
        yield Timeout(100)
        lock.release()

    def victim():
        try:
            yield from lock.acquire()
        except Interrupt:
            return "interrupted"
        lock.release()
        return "acquired"

    def survivor():
        yield Timeout(1)
        yield from lock.acquire()
        got.append(sim.now)
        lock.release()

    sim.spawn(holder())
    victim_proc = sim.spawn(victim())
    sim.spawn(survivor())
    sim.call_later(50, victim_proc.interrupt)
    sim.run()
    assert victim_proc.value == "interrupted"
    assert got == [100]  # the survivor got the lock when the holder freed it
    assert not lock.locked


def test_lock_renege_after_handoff_forwards(sim):
    """If the lock was handed to a dying waiter, it moves to the next."""
    lock = Lock(sim)
    events = []

    def holder():
        yield from lock.acquire()
        yield Timeout(10)
        lock.release()  # hands off to victim

    def victim():
        try:
            yield from lock.acquire()
            events.append("victim-acquired")
        except Interrupt:
            events.append("victim-interrupted")
            return

    def heir():
        yield Timeout(1)
        yield from lock.acquire()
        events.append("heir-acquired")
        lock.release()

    sim.spawn(holder())
    victim_proc = sim.spawn(victim())
    sim.spawn(heir())
    # Interrupt at exactly the hand-off time: queued behind the succeed.
    sim.call_later(10, victim_proc.interrupt)
    sim.run()
    assert "heir-acquired" in events
    assert not lock.locked


def test_priority_lock_orders_waiters(sim):
    """The CPU run queue grants by priority, not arrival order."""
    cpu = CPU(sim, DECSTATION_5000_200)
    order = []

    def worker(name, priority, start):
        ctx = ExecutionContext(sim, cpu, priority=priority)
        yield Timeout(start)
        yield ctx.charge(name, 50)
        order.append(name)

    sim.spawn(worker("first", 5, 0))
    sim.spawn(worker("low", 9, 1))
    sim.spawn(worker("high", 0, 2))
    sim.run()
    assert order == ["first", "high", "low"]


def test_priority_lock_waiting_count(sim):
    cpu = CPU(sim, DECSTATION_5000_200)
    holder = ExecutionContext(sim, cpu, priority=0)
    waiter = ExecutionContext(sim, cpu, priority=1)

    def hold():
        yield holder.charge("holder", 100)

    def wait():
        yield waiter.charge("waiter", 1)

    sim.spawn(hold())
    sim.spawn(wait())
    sim.run(until=50)
    assert cpu.contention() == 1
    sim.run()
    assert cpu.contention() == 0
    assert not cpu.scheduler.locked


def test_condition_wait_notify(sim):
    cond = Condition(sim)
    log = []

    def waiter():
        yield from cond.lock.acquire()
        yield from cond.wait()
        log.append(("woke", sim.now))
        cond.lock.release()

    def notifier():
        yield Timeout(30)
        yield from cond.lock.acquire()
        cond.notify()
        cond.lock.release()

    sim.spawn(waiter())
    sim.spawn(notifier())
    sim.run()
    assert log == [("woke", 30)]


def test_condition_wait_without_lock_raises(sim):
    cond = Condition(sim)

    def bad():
        yield from cond.wait()

    proc = sim.spawn(bad())
    sim.run()
    assert not proc.ok
    assert isinstance(proc.value, SimulationError)


def test_condition_notify_all(sim):
    cond = Condition(sim)
    woken = []

    def waiter(name):
        yield from cond.lock.acquire()
        yield from cond.wait()
        woken.append(name)
        cond.lock.release()

    for name in "abc":
        sim.spawn(waiter(name))

    def notifier():
        yield Timeout(5)
        yield from cond.lock.acquire()
        cond.notify_all()
        cond.lock.release()

    sim.spawn(notifier())
    sim.run()
    assert sorted(woken) == ["a", "b", "c"]


def test_channel_fifo(sim):
    chan = Channel(sim)
    got = []

    def producer():
        for i in range(3):
            yield from chan.put(i)
            yield Timeout(1)

    def consumer():
        for _ in range(3):
            item = yield from chan.get()
            got.append(item)

    sim.spawn(producer())
    sim.spawn(consumer())
    sim.run()
    assert got == [0, 1, 2]


def test_channel_bounded_blocks_producer(sim):
    chan = Channel(sim, capacity=1)
    timeline = []

    def producer():
        yield from chan.put("a")
        timeline.append(("put-a", sim.now))
        yield from chan.put("b")  # blocks until consumer takes "a"
        timeline.append(("put-b", sim.now))

    def consumer():
        yield Timeout(100)
        item = yield from chan.get()
        timeline.append(("got-%s" % item, sim.now))

    sim.spawn(producer())
    sim.spawn(consumer())
    sim.run()
    assert timeline == [("put-a", 0), ("got-a", 100), ("put-b", 100)]


def test_channel_try_ops(sim):
    chan = Channel(sim, capacity=1)
    assert chan.try_put("x")
    assert not chan.try_put("y")
    ok, item = chan.try_get()
    assert ok and item == "x"
    ok, item = chan.try_get()
    assert not ok and item is None


def test_channel_capacity_validation(sim):
    with pytest.raises(ValueError):
        Channel(sim, capacity=0)


def test_channel_getter_renege_forwards_wakeup(sim):
    """An interrupted getter must hand its wakeup to the next getter."""
    chan = Channel(sim)
    got = []

    def getter(name):
        try:
            item = yield from chan.get()
        except Interrupt:
            return "%s-interrupted" % name
        got.append((name, item))
        return "%s-got" % name

    g1 = sim.spawn(getter("g1"))
    sim.spawn(getter("g2"))

    def producer():
        yield Timeout(10)
        g1.interrupt()  # scheduled first...
        yield from chan.put("item")  # ...then the item arrives

    sim.spawn(producer())
    sim.run()
    assert got == [("g2", "item")]
