"""Coroutine processes.

A :class:`Process` drives a generator.  The generator suspends by yielding:

* ``Timeout(dt)`` — resume ``dt`` microseconds later,
* an :class:`~repro.sim.events.Event` — resume when it fires (the yield
  expression evaluates to the event's value; failed events re-raise their
  exception inside the generator),
* a :class:`Charge` — hold the CPU for one layer visit: queue for it
  at a priority, sleep the cost, release it and bill the layer,
* another :class:`Process` — processes are events, so this joins it.

A hold is the unit of CPU time: the release point after it is the only
place another process can take the CPU, and the tracer records one span
per hold.  A layer visit is one hold, however many sub-steps (a trap, a
copy, the driver's work) its cost sums; visits to different layers stay
separate holds, so an interrupt waits for at most one layer.

A process is itself an event that fires with the generator's return value,
so processes can be joined or waited on like any other event.

Timeouts take an allocation-free fast path: instead of building an
``Event`` plus a callback closure per timeout, the process schedules its
own resume directly.  The resume still takes the same two queue hops the
event path took (fire at the deadline, dispatch one ready item later),
so the simulated order of every run is bit-identical to the event-based
implementation — only the wall-clock cost changes.  The first hop is the
ready deque's own C ``append``: the timer entry's callable appends the
fire entry, and a fire made stale by an interrupt no-ops on its token
check, exactly as a skipped hop would have.  :func:`_push_timer` is that
two-hop push, shared by timeouts and CPU charges.
"""

from heapq import heappush

from repro.sim.errors import Interrupt, SimulationError
from repro.sim.events import Event, PENDING, SUCCEEDED


def _push_timer(sim, delay, fire):
    """Run ``fire`` = ``(fn, args)`` ``delay`` microseconds from now by
    the two-hop path (see module docstring).

    Branches on the computed time, exactly as ``call_at`` does: a
    positive delay small enough to round away must still ride the ready
    deque, never leave a stale now-entry on the heap.
    """
    ready_append = sim._ready.append
    when = sim._now + delay
    if when > sim._now:
        heappush(sim._queue, (when, next(sim._seq), ready_append, (fire,)))
    else:
        ready_append((ready_append, (fire,)))


class Timeout:
    """Yielded by a process to advance simulated time by ``delay``."""

    __slots__ = ("delay", "value")

    def __init__(self, delay, value=None):
        if delay < 0:
            raise ValueError("negative delay: %r" % delay)
        self.delay = delay
        self.value = value

    def __repr__(self):
        return "Timeout(%r)" % self.delay


class Charge:
    """Yielded by a process to hold the CPU for one layer visit.

    A charge request is one hold: a ``(layer, cost)`` pair plus where to
    bill it (a :class:`~repro.hw.cpu.CPU`, a scheduling priority, and a
    :class:`~repro.stack.instrument.LayerAccounting`).  The process
    machinery executes it directly — acquire the CPU at ``priority``,
    sleep ``cost``, release, account — without a charging subgenerator,
    which removes one generator frame plus one full coroutine-chain
    resume per CPU hand-off.  The engine-visible schedule (acquire,
    sleep and release points, in sequence order) is identical to that
    subgenerator's, which ``tests/charge_reference.py`` keeps as the
    differential oracle.  Charges are the only way simulated code spends
    CPU time, and the release point after each one is the only place
    where another process can take the CPU, so code sums the sub-steps
    of one layer visit into one charge.
    """

    __slots__ = ("cpu", "priority", "accounting", "layer", "cost")

    def __init__(self, cpu, priority, accounting, layer, cost):
        self.cpu = cpu
        self.priority = priority
        self.accounting = accounting
        self.layer = layer
        self.cost = cost

    def __repr__(self):
        return "Charge(%s=%r)" % (self.layer, self.cost)


class Process(Event):
    """A running coroutine.  Create via :meth:`Simulator.spawn`."""

    __slots__ = ("_generator", "_wait_token", "_alive", "_event_cb",
                 "_charge", "_charge_waiter", "_cw",
                 "waiting_on", "trace_ctx", "request_ctx")

    def __init__(self, sim, generator, name=""):
        if not hasattr(generator, "send"):
            raise TypeError(
                "spawn() needs a generator, got %r -- did you call the "
                "function instead of passing its generator?" % (generator,)
            )
        super().__init__(sim, name=name or getattr(generator, "__name__", "proc"))
        self._generator = generator
        self._wait_token = object()
        self._alive = True
        #: Prebound event callback, created once so waiting on an event
        #: allocates nothing per wait.
        self._event_cb = self._on_event
        #: The in-flight :class:`Charge`, and the lock waiter while it
        #: is queued for the CPU.
        self._charge = None
        self._charge_waiter = None
        #: Reusable CPU waiter (see PriorityLock.enqueue_charge): one
        #: contention needs no allocation at all once this exists.
        self._cw = None
        #: The Event or Timeout this process is currently blocked on
        #: (deadlock diagnostics); None while runnable or finished.
        self.waiting_on = None
        #: Trace id of the packet this process is currently working on
        #: (see :mod:`repro.trace`); None when no trace is active.
        self.trace_ctx = None
        #: Workload request id this process is issuing (stamped by a
        #: :class:`~repro.trace.request.RequestTracer` around a client's
        #: send burst); None otherwise.
        self.request_ctx = None

    @property
    def alive(self):
        """True until the generator finishes or fails."""
        return self._alive

    def interrupt(self, cause=None):
        """Throw :class:`Interrupt` into the process at the current time.

        Whatever the process was waiting on is abandoned (its eventual
        trigger is ignored).  Interrupting a finished process is an error.
        """
        if not self._alive:
            raise SimulationError("cannot interrupt finished process %r" % self)
        token = self._wait_token = object()  # invalidate the pending wait
        self.waiting_on = None  # the abandoned wait must not resume us
        self._sim.call_soon(self._resume, _Failure(Interrupt(cause)), token)

    # ------------------------------------------------------------------

    def _resume(self, trigger, token):
        """Advance the generator.  ``trigger`` is None (first resume), an
        Event that fired, or a _Failure carrying an exception to throw."""
        if token is not self._wait_token or not self._alive:
            return  # stale wakeup (the process was interrupted meanwhile)
        if self._charge is not None:
            # Only an interrupt can land here mid-charge.  Abandon the
            # charge as a charging subgenerator's except/finally blocks
            # would: withdraw a queued CPU waiter (forwarding the CPU if
            # it was handed to us as we died), or release the CPU we
            # hold mid-sleep.
            sched = self._charge.cpu._sched
            waiter = self._charge_waiter
            if waiter is None:
                sched.release()
            else:
                sched.withdraw(waiter)
                if waiter.granted:
                    sched.release()
                # A dead heap entry (or a stale grant in the ready
                # deque) may still reference the cached waiter: never
                # reuse it.
                self._charge_waiter = self._cw = None
            self._charge = None
        self.waiting_on = None
        self._sim.current = self
        try:
            if trigger is None:
                target = self._generator.send(None)
            elif type(trigger) is _Failure:
                target = self._generator.throw(trigger.exception)
            elif trigger._state is SUCCEEDED:
                target = self._generator.send(trigger._value)
            else:
                target = self._generator.throw(trigger._value)
        except StopIteration as stop:
            self._finish_ok(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - propagate into waiters
            self._finish_fail(exc)
            return
        finally:
            self._sim.current = None
        self._wait_for(target)

    def _on_event(self, event):
        """Event-fired callback.  Guarded by identity with the current
        wait target, so a wait abandoned by an interrupt stays dead."""
        if event is self.waiting_on:
            self._resume(event, self._wait_token)

    def _timeout_fire(self, value, token):
        """Second hop: resume the generator with the timeout's value."""
        if token is not self._wait_token or not self._alive:
            return
        self.waiting_on = None
        sim = self._sim
        sim.current = self
        try:
            target = self._generator.send(value)
        except StopIteration as stop:
            sim.current = None
            self._finish_ok(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - propagate into waiters
            sim.current = None
            self._finish_fail(exc)
            return
        sim.current = None
        self._wait_for(target)

    def _wait_for(self, target):
        """Suspend on whatever the generator yielded.

        Loops because a zero-cost :class:`Charge` completes without
        suspending: the generator is resumed synchronously (exactly as
        driving an empty charging subgenerator used to behave) and may
        yield a new target.
        """
        gen = self._generator
        sim = self._sim
        while True:
            token = self._wait_token = object()
            cls = type(target)
            if cls is Timeout:
                # Allocation-free fast path: no Event, no callback
                # closure (see module docstring).
                self.waiting_on = target
                _push_timer(sim, target.delay,
                            (self._timeout_fire, (target.value, token)))
                return
            if cls is Charge:
                status = self._start_charge(target, token)
                if status is None:
                    return  # queued for the CPU or sleeping the cost
            elif cls is Event or cls is Process or isinstance(target, Event):
                # Exact-class tests first: they are plain bytecode, and
                # nearly every event wait is a bare Event or a join.
                self.waiting_on = target
                target.add_callback(self._event_cb)
                return
            else:
                self._finish_fail(
                    SimulationError(
                        "process %r yielded %r; expected Timeout, Charge, "
                        "Event, or Process" % (self, target)
                    )
                )
                return
            # The charge finished (or failed) without suspending:
            # continue the generator within this same engine item.
            sim.current = self
            try:
                if status is True:
                    target = gen.send(None)
                else:  # a validation error to raise at the yield site
                    target = gen.throw(status)
            except StopIteration as stop:
                sim.current = None
                self._finish_ok(stop.value)
                return
            except BaseException as exc:  # noqa: BLE001
                sim.current = None
                self._finish_fail(exc)
                return
            sim.current = None

    # ------------------------------------------------------------------
    # Charge execution.  One CPU charge = acquire the scheduler lock at
    # the charge's priority, sleep its cost, release, account.  Every
    # engine interaction (lock waiter enqueue, hand-off dispatch, timer
    # hop and fire, release hand-off) consumes sequence numbers at
    # exactly the moments the equivalent charging subgenerator did, so
    # the simulated schedule is bit-identical.
    # ------------------------------------------------------------------

    def _start_charge(self, charge, token):
        """Begin billing ``charge``.

        Returns None if the process suspended (queued for the CPU or
        sleeping the cost), True if it cost zero (the charge is
        complete), or an exception to raise in the generator (negative
        cost).
        """
        cost = charge.cost
        if cost > 0:
            self._charge = charge
            sched = charge.cpu._sched
            if sched._locked:
                self._charge_waiter = self.waiting_on = sched.enqueue_charge(
                    self, charge.priority)
            else:
                sched._locked = True
                self._charge_waiter = None
                self.waiting_on = charge
                _push_timer(self._sim, cost, (self._charge_fire, (token,)))
            return None
        if cost == 0:
            return True
        return ValueError("negative CPU cost: %r" % cost)

    def _charge_granted(self, waiter):
        """The CPU was handed to this process's queued waiter.

        Scheduled directly onto the ready deque by
        :meth:`~repro.sim.sync.PriorityLock.release` (no per-contention
        Event).  The identity guard keeps a stale grant dead after an
        interrupt: a renege clears ``_charge_waiter`` and forwards the
        hand-off before this entry can run.
        """
        if waiter is not self._charge_waiter or not self._alive:
            return  # reneged (interrupt); release() forwarding handles it
        charge = self._charge
        if self.trace_ctx is not None:
            # The queued interval is CPU contention on the packet's
            # critical path.  Pure observation (a ring append) — the
            # schedule is byte-identical with tracing on or off.
            accounting = charge.accounting
            tracer = accounting.tracer
            if tracer is not None and tracer.enabled:
                waited = self._sim._now - waiter.queued_at
                if waited > 0:
                    tracer.record_wait(
                        self.trace_ctx, accounting.owner, charge.layer,
                        "contention", waiter.queued_at, waited)
        self._charge_waiter = None
        self.waiting_on = charge
        _push_timer(self._sim, charge.cost,
                    (self._charge_fire, (self._wait_token,)))

    def _charge_fire(self, token):
        """The charge's sleep elapsed: release, account, resume."""
        if token is not self._wait_token or not self._alive:
            return
        sim = self._sim
        # The whole fire runs as this process: the tracer reads
        # sim.current to attribute spans.
        sim.current = self
        charge = self._charge
        self._charge = None
        cpu = charge.cpu
        cpu._sched.release()
        layer = charge.layer
        cost = charge.cost
        cpu.busy_time += cost
        cpu.charge_count += 1
        accounting = charge.accounting
        accounting.totals[layer] += cost
        accounting.counts[layer] += 1
        tracer = accounting.tracer
        if tracer is not None and tracer.enabled:
            tracer.record(accounting.owner, layer, cost)
        self.waiting_on = None
        try:
            target = self._generator.send(None)
        except StopIteration as stop:
            sim.current = None
            self._finish_ok(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - propagate into waiters
            sim.current = None
            self._finish_fail(exc)
            return
        sim.current = None
        self._wait_for(target)

    def _finish_ok(self, value):
        self._alive = False
        self.waiting_on = None
        if self._state == PENDING:
            self.succeed(value)

    def _finish_fail(self, exc):
        self._alive = False
        self.waiting_on = None
        if self._state == PENDING:
            self.fail(exc)
        else:  # pragma: no cover - defensive
            raise exc

    def __repr__(self):
        return "<Process %s %s>" % (self.name, "alive" if self._alive else "done")


class _Failure:
    """Internal marker: resume the generator by throwing an exception."""

    __slots__ = ("exception",)

    def __init__(self, exception):
        self.exception = exception
