"""Coroutine processes.

A :class:`Process` drives a generator.  The generator suspends by yielding:

* ``Timeout(dt)`` — resume ``dt`` microseconds later,
* an :class:`~repro.sim.events.Event` — resume when it fires (the yield
  expression evaluates to the event's value; failed events re-raise their
  exception inside the generator),
* another :class:`Process` — processes are events, so this joins it.

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
check, exactly as a skipped hop would have.
"""

from heapq import heappop, heappush

from repro.sim.errors import Interrupt, SimulationError
from repro.sim.events import Event, PENDING, SUCCEEDED
from repro.sim.sync import _Waiter


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
    """Yielded by a process to charge CPU time, pair by pair.

    A charge request carries ``(layer, cost)`` pairs plus where to bill
    them (a :class:`~repro.hw.cpu.CPU`, a scheduling priority, and a
    :class:`~repro.stack.instrument.LayerAccounting`).  The process
    machinery executes it directly — acquire the CPU at ``priority``,
    sleep ``cost``, release, account, repeat — without resuming the
    generator between pairs, which removes one generator frame plus one
    full coroutine-chain resume per CPU hand-off compared with driving
    an equivalent charging subgenerator.  The engine-visible schedule
    (every acquire, sleep, and release point, in sequence order) is
    identical to that subgenerator's.
    """

    __slots__ = ("cpu", "priority", "accounting", "pairs", "n")

    def __init__(self, cpu, priority, accounting, pairs):
        self.cpu = cpu
        self.priority = priority
        self.accounting = accounting
        self.pairs = pairs
        self.n = len(pairs)

    def __repr__(self):
        return "Charge(%s)" % ", ".join(
            "%s=%r" % (layer, cost) for layer, cost in self.pairs
        )


class Process(Event):
    """A running coroutine.  Create via :meth:`Simulator.spawn`."""

    __slots__ = ("_generator", "_wait_token", "_alive", "_event_cb",
                 "_charge", "_charge_i", "_charge_waiter", "_cw",
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
        #: The in-flight :class:`Charge`, the index of the pair being
        #: billed, and the lock waiter if that pair is queued for the CPU.
        self._charge = None
        self._charge_i = 0
        self._charge_waiter = None
        #: Reusable CPU-lock waiter (see PriorityLock.enqueue_charge):
        #: one contention needs no allocation at all once this exists.
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
            # charge exactly as the old charging subgenerator's
            # except/finally blocks did: withdraw a queued CPU waiter
            # (forwarding the lock if it was handed to us as we died),
            # or release the CPU we hold mid-sleep.
            sched = self._charge.cpu._sched
            waiter = self._charge_waiter
            if waiter is not None:
                sched.withdraw(waiter)
                if waiter.granted:
                    sched.release()
                self._charge_waiter = None
                # A dead heap entry (or a stale grant in the ready
                # deque) may still reference the cached waiter: never
                # reuse it.
                self._cw = None
            elif sched._heap:
                sched.release()
            else:
                sched._locked = False
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

        Loops because an all-zero-cost :class:`Charge` completes without
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
                # closure, and the call_at dispatch inlined.  The first
                # hop is ready.append itself (see module docstring).
                # Branch on the computed time, exactly as call_at does:
                # a positive delay small enough to round away must still
                # ride the ready deque, never leave a stale now-entry on
                # the heap.
                self.waiting_on = target
                ready_append = sim._ready.append
                fire = (self._timeout_fire, (target.value, token))
                when = sim._now + target.delay
                if when > sim._now:
                    heappush(sim._queue,
                             (when, next(sim._seq), ready_append, (fire,)))
                else:
                    ready_append((ready_append, (fire,)))
                return
            if cls is Charge:
                # Inline of _start_charge_pair's first iteration for the
                # overwhelmingly common shape — a single positive-cost
                # pair — to skip a call per charge.  Must stay an exact
                # mirror of that method.
                cost = target.pairs[0][1]
                if cost > 0:
                    self._charge = target
                    self._charge_i = 0
                    sched = target.cpu._sched
                    if sched._locked:
                        # Inline of sched.enqueue_charge (one call per
                        # CPU contention; must stay an exact mirror).
                        waiter = self._cw
                        if waiter is None:
                            waiter = self._cw = _Waiter(None)
                            waiter.proc = self
                        waiter.alive = True
                        waiter.granted = False
                        waiter.queued_at = sim._now
                        heappush(sched._heap,
                                 (target.priority, next(sched._seq), waiter))
                        sched._live += 1
                        sched.contended += 1
                        gauge = sched.depth_gauge
                        if gauge is not None:
                            gauge.record(sched._live)
                        self._charge_waiter = waiter
                        self.waiting_on = waiter
                    else:
                        sched._locked = True
                        self._charge_waiter = None
                        self.waiting_on = target
                        ready_append = sim._ready.append
                        fire = (self._charge_fire, (token,))
                        when = sim._now + cost
                        if when > sim._now:
                            heappush(sim._queue,
                                     (when, next(sim._seq),
                                      ready_append, (fire,)))
                        else:
                            ready_append((ready_append, (fire,)))
                    return
                status = self._start_charge_pair(target, 0, token)
                if status is None:
                    return  # queued for the CPU or sleeping on a pair
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
    # the charge's priority, sleep its cost, release, account — repeated
    # per (layer, cost) pair without resuming the generator in between.
    # Every engine interaction (lock waiter enqueue, hand-off dispatch,
    # timer hop and fire, release hand-off) consumes sequence numbers at
    # exactly the moments the equivalent charging subgenerator did, so
    # the simulated schedule is bit-identical.
    # ------------------------------------------------------------------

    def _start_charge_pair(self, charge, i, token):
        """Begin billing ``charge.pairs[i:]``.

        Returns None if the process suspended (queued for the CPU or
        sleeping the pair's cost), True if every remaining pair cost
        zero (the charge is complete), or an exception to raise in the
        generator (negative cost).
        """
        pairs = charge.pairs
        n = charge.n
        while i < n:
            cost = pairs[i][1]
            if cost == 0:
                i += 1
                continue
            if cost < 0:
                self._charge = None
                return ValueError("negative CPU cost: %r" % cost)
            self._charge = charge
            self._charge_i = i
            sched = charge.cpu._sched
            if sched._locked:
                # Inline of sched.enqueue_charge (see _wait_for).
                waiter = self._cw
                if waiter is None:
                    waiter = self._cw = _Waiter(None)
                    waiter.proc = self
                waiter.alive = True
                waiter.granted = False
                waiter.queued_at = self._sim._now
                heappush(sched._heap,
                         (charge.priority, next(sched._seq), waiter))
                sched._live += 1
                sched.contended += 1
                gauge = sched.depth_gauge
                if gauge is not None:
                    gauge.record(sched._live)
                self._charge_waiter = waiter
                self.waiting_on = waiter
            else:
                sched._locked = True
                self._charge_waiter = None
                self.waiting_on = charge
                sim = self._sim
                ready_append = sim._ready.append
                fire = (self._charge_fire, (token,))
                when = sim._now + cost
                if when > sim._now:
                    heappush(sim._queue,
                             (when, next(sim._seq), ready_append, (fire,)))
                else:
                    ready_append((ready_append, (fire,)))
            return None
        self._charge = None
        return True

    def _charge_granted(self, waiter):
        """The CPU lock was handed to this process's queued waiter.

        Scheduled directly onto the ready deque by
        :meth:`~repro.sim.sync.PriorityLock.release` (no per-contention
        Event).  The identity guard keeps a stale grant dead after an
        interrupt, exactly as the old event callback's ``waiting_on``
        check did: a renege clears ``_charge_waiter`` and forwards the
        hand-off before this entry can run.
        """
        if waiter is not self._charge_waiter or not self._alive:
            return  # reneged (interrupt); release() forwarding handles it
        charge = self._charge
        cost = charge.pairs[self._charge_i][1]
        if self.trace_ctx is not None:
            # The queued interval is CPU contention on the packet's
            # critical path.  Pure observation (a ring append) — the
            # schedule is byte-identical with tracing on or off.
            accounting = charge.accounting
            tracer = accounting.tracer
            if (tracer is not None and tracer.enabled
                    and waiter.queued_at is not None):
                waited = self._sim._now - waiter.queued_at
                if waited > 0:
                    tracer.record_wait(
                        self.trace_ctx, accounting.owner,
                        charge.pairs[self._charge_i][0], "contention",
                        waiter.queued_at, waited)
        self._charge_waiter = None
        self.waiting_on = charge
        sim = self._sim
        token = self._wait_token
        ready_append = sim._ready.append
        fire = (self._charge_fire, (token,))
        when = sim._now + cost
        if when > sim._now:
            heappush(sim._queue,
                     (when, next(sim._seq), ready_append, (fire,)))
        else:
            ready_append((ready_append, (fire,)))

    def _charge_fire(self, token):
        """A charge pair's sleep elapsed: release, account, next pair."""
        if token is not self._wait_token or not self._alive:
            return
        sim = self._sim
        # The whole fire runs as this process, exactly as it did when the
        # release/accounting code lived inside a resumed subgenerator —
        # the tracer reads sim.current to attribute spans.
        sim.current = self
        charge = self._charge
        cpu = charge.cpu
        sched = cpu._sched
        heap = sched._heap
        if heap:
            # Inline of sched.release() — we hold the lock, so hand it
            # to the highest-priority live waiter (one call per charge
            # completion under contention; must stay an exact mirror).
            while heap:
                _prio, _seq, waiter = heappop(heap)
                if waiter.alive:
                    waiter.alive = False
                    sched._live -= 1
                    proc = waiter.proc
                    if proc is not None:  # charge fast waiter
                        waiter.granted = True
                        sim._ready.append((proc._charge_granted, (waiter,)))
                    else:
                        waiter.event.succeed()
                    gauge = sched.depth_gauge
                    if gauge is not None:
                        gauge.record(sched._live)
                    break
            else:
                sched._locked = False
        else:
            sched._locked = False
        i = self._charge_i
        layer, cost = charge.pairs[i]
        cpu.busy_time += cost
        cpu.charge_count += 1
        accounting = charge.accounting
        if accounting.enabled:
            accounting.totals[layer] += cost
            accounting.counts[layer] += 1
            tracer = accounting.tracer
            if tracer is not None and tracer.enabled:
                tracer.record(accounting.owner, layer, cost)
        i += 1
        if i < charge.n:
            status = self._start_charge_pair(charge, i, token)
            if status is None:
                sim.current = None
                return  # next pair queued or sleeping
        else:  # last pair done — the single-pair common case
            self._charge = None
            status = True
        self.waiting_on = None
        try:
            if status is True:
                target = self._generator.send(None)
            else:
                target = self._generator.throw(status)
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
