"""Synchronization primitives in simulated time.

The blocking operations of :class:`Lock`, :class:`Condition` and
:class:`Channel` are generators meant to be driven with ``yield from``
inside a process.  None of them charge CPU time by themselves; cost
accounting is the caller's job (see :mod:`repro.stack.context`).
:class:`PriorityLock` is the CPU run queue, driven only by the process
machinery when a process yields a :class:`~repro.sim.process.Charge`.

Every blocking operation *reneges* cleanly: if an exception (an
:class:`~repro.sim.errors.Interrupt` from another process, or
``GeneratorExit`` at teardown) reaches a process while it waits, the
waiter withdraws from the queue — and if the resource had already been
handed to it, the hand-off is forwarded to the next waiter instead of
leaking.  Without this, interrupting a thread that is queued on a lock
would leave the lock held by a ghost forever.
"""

from collections import deque
from heapq import heappop, heappush
from itertools import count

from repro.sim.errors import SimulationError
from repro.sim.events import Event


class _Waiter:
    """A queue entry that can be withdrawn (lazy removal)."""

    __slots__ = ("event", "alive")

    def __init__(self, event):
        self.event = event
        self.alive = True


class _CpuWaiter:
    """A process whose in-flight charge is queued for the CPU.

    :meth:`PriorityLock.release` wakes it by scheduling the process's
    ``_charge_granted`` method directly (no per-contention Event), and
    sets ``granted`` so a process interrupted before that entry runs
    knows to forward the CPU.  ``queued_at`` lets the grant attribute
    the queued interval to the packet's trace as contention.
    """

    __slots__ = ("proc", "alive", "granted", "queued_at")

    def __init__(self, proc):
        self.proc = proc
        self.alive = True
        self.granted = False
        self.queued_at = None

    def __repr__(self):
        return "<cpu waiter %s%s>" % (
            self.proc.name, "" if self.alive else " done")


class Lock:
    """A FIFO mutual-exclusion lock."""

    def __init__(self, sim, name=""):
        self._sim = sim
        self._locked = False
        #: FIFO of waiters.  Wait queues are plain lists, popped with
        #: ``pop(0)``: they are short, and an idle one costs 56 B where
        #: an empty deque costs 760 B.
        self._waiters = []
        self.name = name
        self._waiter_name = "lock:%s" % name

    @property
    def locked(self):
        return self._locked

    def acquire(self):
        """``yield from lock.acquire()``"""
        if not self._locked:
            self._locked = True
            return
        waiter = _Waiter(Event(self._sim, name=self._waiter_name))
        self._waiters.append(waiter)
        try:
            yield waiter.event
        except BaseException:
            waiter.alive = False
            if waiter.event.triggered:
                # The lock was handed to us as we died: pass it on.
                self.release()
            raise

    def try_acquire(self):
        """Non-blocking acquire; returns True on success."""
        if self._locked:
            return False
        self._locked = True
        return True

    def release(self):
        if not self._locked:
            raise SimulationError("release of unlocked %r" % self)
        while self._waiters:
            waiter = self._waiters.pop(0)
            if waiter.alive:
                # Hand the lock directly to the next waiter: stays locked.
                waiter.event.succeed()
                return
        self._locked = False

    def __repr__(self):
        return "<Lock %s %s>" % (self.name, "held" if self._locked else "free")


class PriorityLock:
    """The CPU run queue: grants the CPU to the highest-priority charge.

    Lower numeric priority wins (priority 0 preempts priority 10 at the
    next release point).  Equal priorities are FIFO.  Only the process
    machinery's charge path drives it (see
    :mod:`repro.sim.process`): an uncontended charge takes the lock by
    setting ``_locked``; a contended one queues with
    :meth:`enqueue_charge`; every charge ends in :meth:`release`.  This
    class is the only code that knows the queue's layout.
    """

    def __init__(self, sim, name=""):
        self._sim = sim
        self._locked = False
        #: ``(priority, seq, _CpuWaiter)`` entries; withdrawn ones stay
        #: until popped (lazy removal), so ``_live`` counts the rest.
        self._heap = []
        self._live = 0
        self._seq = count()
        self.name = name
        #: Cumulative count of charges that had to wait.
        self.contended = 0
        #: Telemetry hook (bound by a MetricsRegistry while enabled;
        #: None costs one test per contended enqueue/release).
        self.depth_gauge = None

    @property
    def locked(self):
        return self._locked

    def enqueue_charge(self, proc, priority):
        """Queue ``proc``'s in-flight charge for the CPU; returns its
        :class:`_CpuWaiter`.

        The waiter is cached on the process and reused contention after
        contention; the process drops the cache whenever a renege leaves
        a stale reference in the heap (see :meth:`Process._resume`).
        """
        waiter = proc._cw
        if waiter is None:
            waiter = proc._cw = _CpuWaiter(proc)
        waiter.alive = True
        waiter.granted = False
        waiter.queued_at = self._sim._now
        heappush(self._heap, (priority, next(self._seq), waiter))
        self._live += 1
        self.contended += 1
        gauge = self.depth_gauge
        if gauge is not None:
            gauge.record(self._live)
        return waiter

    def withdraw(self, waiter):
        """Renege a queued ``waiter`` (lazy removal)."""
        if waiter.alive:
            waiter.alive = False
            self._live -= 1

    def release(self):
        """Hand the CPU to the best live waiter, or free it."""
        if not self._locked:
            raise SimulationError("release of unlocked %r" % self)
        heap = self._heap
        while heap:
            waiter = heappop(heap)[2]
            if waiter.alive:
                waiter.alive = False
                waiter.granted = True
                self._live -= 1
                self._sim._ready.append(
                    (waiter.proc._charge_granted, (waiter,)))
                gauge = self.depth_gauge
                if gauge is not None:
                    gauge.record(self._live)
                return
        self._locked = False

    def waiting(self):
        """Number of queued charges."""
        return self._live


class Condition:
    """A condition variable tied to a :class:`Lock`.

    ``wait()`` atomically releases the lock and suspends; waking reacquires
    the lock before returning, exactly like POSIX condition variables.
    """

    def __init__(self, sim, lock=None, name=""):
        self._sim = sim
        self.lock = lock if lock is not None else Lock(sim, name + ".lock")
        self._waiters = []
        self.name = name
        self._waiter_name = "cond:%s" % name

    def wait(self):
        """``yield from cond.wait()`` — caller must hold the lock."""
        if not self.lock.locked:
            raise SimulationError("wait() on %r without holding its lock" % self)
        waiter = _Waiter(Event(self._sim, name=self._waiter_name))
        self._waiters.append(waiter)
        self.lock.release()
        try:
            yield waiter.event
        except BaseException:
            if waiter.alive:
                waiter.alive = False
            elif waiter.event.triggered:
                # We consumed a notify we will never act on: re-notify.
                self.notify(1)
            raise
        yield from self.lock.acquire()

    def notify(self, n=1):
        """Wake up to ``n`` waiters (they still must reacquire the lock)."""
        woken = 0
        while self._waiters and woken < n:
            waiter = self._waiters.pop(0)
            if waiter.alive:
                waiter.alive = False
                waiter.event.succeed()
                woken += 1
        return woken

    def notify_all(self):
        return self.notify(len(self._waiters))

    def waiting(self):
        return sum(1 for w in self._waiters if w.alive)


class Channel:
    """A FIFO message queue between processes.

    ``capacity=None`` makes it unbounded (``put`` never blocks).  A bounded
    channel blocks producers when full, which models back-pressure such as
    a full device transmit queue.
    """

    def __init__(self, sim, capacity=None, name=""):
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 or None")
        self._sim = sim
        self._capacity = capacity
        #: The traffic: a deque.  The waiter FIFOs are lists (see Lock).
        self._items = deque()
        self._getters = []
        self._putters = []
        self.name = name
        self._put_name = "chan.put:%s" % name
        self._get_name = "chan.get:%s" % name

    def __len__(self):
        return len(self._items)

    @property
    def capacity(self):
        return self._capacity

    def _wake(self, waiters):
        while waiters:
            waiter = waiters.pop(0)
            if waiter.alive:
                waiter.alive = False
                waiter.event.succeed()
                return True
        return False

    def put(self, item):
        """``yield from chan.put(item)``"""
        while self._capacity is not None and len(self._items) >= self._capacity:
            waiter = _Waiter(Event(self._sim, name=self._put_name))
            self._putters.append(waiter)
            try:
                yield waiter.event
            except BaseException:
                waiter.alive = False
                if waiter.event.triggered:
                    self._wake(self._putters)  # forward the free slot
                raise
        self._items.append(item)
        if self._getters:
            self._wake(self._getters)

    def try_put(self, item):
        """Non-blocking put; returns False if the channel is full."""
        if self._capacity is not None and len(self._items) >= self._capacity:
            return False
        self._items.append(item)
        if self._getters:
            self._wake(self._getters)
        return True

    def get(self):
        """``item = yield from chan.get()``"""
        while not self._items:
            waiter = _Waiter(Event(self._sim, name=self._get_name))
            self._getters.append(waiter)
            try:
                yield waiter.event
            except BaseException:
                waiter.alive = False
                if waiter.event.triggered:
                    self._wake(self._getters)  # forward the wakeup
                raise
        item = self._items.popleft()
        if self._putters:
            self._wake(self._putters)
        return item

    def try_get(self):
        """Non-blocking get; returns (True, item) or (False, None)."""
        if not self._items:
            return False, None
        item = self._items.popleft()
        if self._putters:
            self._wake(self._putters)
        return True, item
