"""The charging subgenerator that the :class:`~repro.sim.process.Charge`
request replaced, kept as the differential oracle for
``tests/test_sim_charge.py``.

``ReferenceCPU.execute`` is the plain form of one CPU charge: acquire an
event-waiter priority lock (reneging on any exception while queued, and
forwarding a hand-off that reached a dying waiter), sleep the cost,
release, account.  Every engine interaction happens where the process
machinery's charge path promises to reproduce it.
"""

import heapq
from itertools import count

from repro.sim.events import Event
from repro.sim.process import Timeout


class _Waiter:
    __slots__ = ("event", "alive")

    def __init__(self, event):
        self.event = event
        self.alive = True


class ReferencePriorityLock:
    """Lowest priority first, FIFO among equals; one Event per waiter."""

    def __init__(self, sim):
        self._sim = sim
        self._locked = False
        self._heap = []
        self._live = 0
        self._seq = count()

    def acquire(self, priority):
        """``yield from lock.acquire(priority)``"""
        if not self._locked:
            self._locked = True
            return
        waiter = _Waiter(Event(self._sim, name="plock"))
        heapq.heappush(self._heap, (priority, next(self._seq), waiter))
        self._live += 1
        try:
            yield waiter.event
        except BaseException:
            if waiter.alive:
                waiter.alive = False
                self._live -= 1
            if waiter.event.triggered:
                self.release()  # handed to us as we died: pass it on
            raise

    def release(self):
        while self._heap:
            waiter = heapq.heappop(self._heap)[2]
            if waiter.alive:
                waiter.alive = False
                self._live -= 1
                waiter.event.succeed()
                return
        self._locked = False


class ReferenceCPU:
    """The counters of :class:`~repro.hw.cpu.CPU`, charged by subgenerator."""

    def __init__(self, sim):
        self._sched = ReferencePriorityLock(sim)
        self.busy_time = 0.0
        self.charge_count = 0

    def execute(self, cost, priority, account=None):
        """``yield from cpu.execute(cost, priority, account)``"""
        if cost < 0:
            raise ValueError("negative CPU cost: %r" % cost)
        if cost == 0:
            return
        yield from self._sched.acquire(priority)
        try:
            yield Timeout(cost)
        finally:
            self._sched.release()
        self.busy_time += cost
        self.charge_count += 1
        if account is not None:
            account(cost)

    def contention(self):
        return self._sched._live
