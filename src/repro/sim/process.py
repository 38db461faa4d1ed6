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

Every resume goes through :meth:`Process._step`: send a value into the
generator (or throw an exception into it), then suspend on what it
yields.  The engine callbacks that wake a process — its first resume or
an interrupt, an event it waits on, a timeout or a charge's sleep
elapsing, the CPU handed to its queued charge — only check that the
wakeup is still wanted and call ``_step``.

A timeout or a charge's sleep is not an ``Event``: ``_step`` schedules
the process's own fire method in two queue hops, as a timeout event
would have been fired and then dispatched.  The heap entry at the
deadline is the ready deque's C ``append`` with the fire as its
argument; running it puts the fire behind the items already ready at
that instant, so the simulated order is the event path's.

A fire carries the process's wait token, and runs only while that token
is current.  The token is replaced when :meth:`Process.interrupt`
abandons a wait, and once more when the abandoned wait was a charge's
sleep (whose fire a CPU grant may have scheduled after the interrupt),
so a fire scheduled before the interrupt stays dead.  Between
interrupts a process has at most one live fire, the one of the wait it
is in.
"""

from heapq import heappush

from repro.sim.errors import Interrupt, SimulationError
from repro.sim.events import Event, PENDING, SUCCEEDED


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
        trigger is ignored).  The running process itself waits on
        nothing, so interrupting it does nothing (a server's crash hook
        runs in the handler the crash kills).  Interrupting a finished
        process is an error.
        """
        if not self._alive:
            raise SimulationError("cannot interrupt finished process %r" % self)
        if self._sim.current is self:
            return
        token = self._wait_token = object()  # invalidate the pending wait
        self.waiting_on = None  # the abandoned wait must not resume us
        self._sim.call_soon(self._resume, Interrupt(cause), token)

    # ------------------------------------------------------------------
    # Wakeups.  Each checks that it is still wanted, then calls _step.
    # ------------------------------------------------------------------

    def _resume(self, exc, token):
        """The first resume (``exc`` None), or an interrupt."""
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
                # A grant that ran after the interrupt scheduled the
                # sleep's fire under the interrupt's token: kill it.
                self._wait_token = object()
            else:
                sched.withdraw(waiter)
                if waiter.granted:
                    sched.release()
                # A dead heap entry (or a stale grant in the ready
                # deque) may still reference the cached waiter: never
                # reuse it.
                self._charge_waiter = self._cw = None
            self._charge = None
        self._step(None, exc)

    def _on_event(self, event):
        """Event-fired callback.  Guarded by identity with the current
        wait target, so a wait abandoned by an interrupt stays dead."""
        if event is self.waiting_on:
            if event._state is SUCCEEDED:
                self._step(event._value, None)
            else:
                self._step(None, event._value)

    def _timeout_fire(self, value, token):
        """A timeout elapsed: resume the generator with its value."""
        if token is self._wait_token and self._alive:
            self._step(value, None)

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
        self._step(None, None, charge)

    def _charge_fire(self, token):
        """The charge's sleep elapsed: release, account, resume."""
        if token is not self._wait_token or not self._alive:
            return
        # The accounting runs as this process: the tracer reads
        # sim.current to attribute spans.
        self._sim.current = self
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
        self._step(None, None)

    # ------------------------------------------------------------------

    def _step(self, value, exc, granted=None):
        """Send ``value`` into the generator (or throw ``exc``), then
        suspend on what it yields.

        A charge of zero cost completes without suspending, so the loop
        resumes the generator again within this same engine item (and a
        negative cost is thrown back at its yield site).  ``granted`` is
        the process's queued charge once the CPU is handed to it: the
        generator is not resumed, the charge's sleep just begins.

        Every engine interaction (a CPU waiter's enqueue, a fire's two
        hops) draws sequence numbers at exactly the moments a charging
        subgenerator and timeout events would, so the simulated
        schedule is bit-identical to theirs.
        """
        sim = self._sim
        target = granted
        self.waiting_on = None
        while True:
            if target is None:
                sim.current = self
                try:
                    if exc is None:
                        target = self._generator.send(value)
                    else:
                        target = self._generator.throw(exc)
                except StopIteration as stop:
                    sim.current = None
                    self._finish_ok(stop.value)
                    return
                except BaseException as err:  # noqa: BLE001 - propagate into waiters
                    sim.current = None
                    self._finish_fail(err)
                    return
                sim.current = None
            cls = type(target)
            if cls is Charge:
                delay = target.cost
                if not delay > 0:
                    value = exc = target = None
                    if delay != 0:
                        exc = ValueError("negative CPU cost: %r" % delay)
                    continue
                if granted is None:
                    sched = target.cpu._sched
                    self._charge = target
                    if sched._locked:
                        self._charge_waiter = self.waiting_on = (
                            sched.enqueue_charge(self, target.priority))
                        return
                    sched._locked = True
                self._charge_waiter = None
                fire = (self._charge_fire, (self._wait_token,))
            elif cls is Timeout:
                delay = target.delay
                fire = (self._timeout_fire, (target.value, self._wait_token))
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
            self.waiting_on = target
            # The fire's two hops.  Branch on the computed time, as
            # call_at does: a positive delay small enough to round away
            # must still ride the ready deque, never leave a stale
            # now-entry on the heap.
            ready_append = sim._ready.append
            when = sim._now + delay
            if when > sim._now:
                heappush(sim._queue,
                         (when, next(sim._seq), (ready_append, (fire,))))
            else:
                ready_append((ready_append, (fire,)))
            return

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
