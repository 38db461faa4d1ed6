"""The simulation event loop.

The :class:`Simulator` owns a virtual clock (a float, in microseconds by
convention throughout this project) and two scheduling structures:

* a priority queue (heap) of items scheduled for a *future* time, as
  ``(when, seq, fn, args)`` tuples — plain tuples beat any class here,
  both to allocate and to compare;
* a FIFO ready deque of ``(fn, payload)`` items at the *current* time
  (``call_soon`` work and triggered-event dispatches), which skips the
  heap entirely on the zero-delay fast path.

Ties in time on the heap are broken by a global insertion sequence
number, which makes every run fully deterministic.  Ready items need no
sequence number at all: the deque is only ever refilled from the heap
while empty (at a time advance, in heap — i.e. sequence — order), and
everything appended afterwards lands behind in insertion order, so FIFO
position alone reproduces exactly the order a single shared-counter
heap would have produced.  The fast paths change wall-clock time only,
never the simulated order.
"""

import heapq
from collections import deque
from itertools import count

from repro.sim.errors import Deadlock
from repro.sim.events import PENDING, Event
from repro.sim.process import Process, Timeout
from repro.trace.flight import FlightRecorder


class Simulator:
    """A discrete-event simulator with a microsecond virtual clock."""

    def __init__(self):
        self._now = 0.0
        #: Future work: a heap of (when, seq, fn, args).
        self._queue = []
        #: Same-timestamp work: a FIFO of (fn, args) callables and
        #: (None, event) dispatches, all at the current time.
        self._ready = deque()
        self._seq = count()
        self._live_processes = 0
        self._live = set()
        #: The :class:`Process` whose generator frame is currently being
        #: advanced, or None between resumes.  Synchronous callbacks (CPU
        #: accounting, tracing) read this to attribute work to a process.
        self.current = None
        #: Always-on flight recorder (see :mod:`repro.trace.flight`):
        #: spawn/exit events are appended inline below; layers note
        #: their own rare events via ``sim.flight.note(...)``.
        self.flight = FlightRecorder(self)

    @property
    def now(self):
        """Current simulated time in microseconds."""
        return self._now

    # ------------------------------------------------------------------
    # Scheduling primitives
    # ------------------------------------------------------------------

    def event(self, name=""):
        """Create a fresh, untriggered :class:`Event`."""
        return Event(self, name=name)

    def timeout(self, delay, value=None):
        """Create an event that fires ``delay`` microseconds from now."""
        if delay < 0:
            raise ValueError("negative delay: %r" % delay)
        ev = Event(self, name="timeout")
        self.call_at(self._now + delay, ev.succeed, value)
        return ev

    def call_soon(self, fn, *args):
        """Run ``fn(*args)`` at the current simulated time, after the
        currently-executing item finishes."""
        self._ready.append((fn, args))

    def call_at(self, when, fn, *args):
        """Run ``fn(*args)`` at absolute simulated time ``when``."""
        if when > self._now:
            heapq.heappush(self._queue, (when, next(self._seq), fn, args))
        elif when == self._now:
            self._ready.append((fn, args))
        else:
            raise ValueError("cannot schedule in the past: %r < %r" % (when, self._now))

    def call_later(self, delay, fn, *args):
        """Run ``fn(*args)`` after ``delay`` microseconds."""
        self.call_at(self._now + delay, fn, *args)

    def _schedule_event(self, event):
        """Queue a triggered event's callbacks for dispatch (engine use).

        Dispatch always happens at the current time, so it rides the
        ready deque and never touches the heap."""
        self._ready.append((None, event))

    # ------------------------------------------------------------------
    # Processes
    # ------------------------------------------------------------------

    def spawn(self, generator, name=""):
        """Start a new coroutine process running ``generator``.

        Returns the :class:`Process`, which is itself an event that fires
        with the generator's return value when it finishes.
        """
        proc = Process(self, generator, name=name)
        self._live_processes += 1
        self._live.add(proc)
        proc.add_callback(self._process_done)
        self.call_soon(proc._resume, None, proc._wait_token)
        # Inline flight-recorder append (bounded deque; no method call
        # on this path — see repro.trace.flight for the rationale).
        flight = self.flight
        flight.recorded += 1
        flight.events.append((self._now, "spawn", name))
        return proc

    def _process_done(self, event):
        self._live_processes -= 1
        self._live.discard(event)
        flight = self.flight
        flight.recorded += 1
        flight.events.append((self._now, "exit", event.name))

    def _blocked_report(self):
        """(name, waiting-on) pairs for every live process, for Deadlock
        diagnostics.  Deterministic order: by process name then id."""
        report = []
        for proc in sorted(self._live, key=lambda p: (p.name, id(p))):
            target = proc.waiting_on
            report.append((proc.name or repr(proc),
                           repr(target) if target is not None else "nothing"))
        return report

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------

    def step(self):
        """Execute the next scheduled item.  Returns False if none remain.

        The ready deque holds items at the current time, in sequence
        order; the heap holds strictly-future items.  The invariant is
        maintained at time-advance: every heap entry for the new instant
        is drained into the deque at once (heap pops come out in
        sequence order, and nothing can be scheduled at the current time
        via the heap afterwards), so the hot path never peeks the heap.
        """
        ready = self._ready
        if ready:
            fn, payload = ready.popleft()
            if fn is not None:
                fn(*payload)
            else:  # dispatch: run a triggered event's callbacks
                callbacks, payload.callbacks = payload.callbacks, None
                for callback in callbacks:
                    callback(payload)
            return True
        queue = self._queue
        if not queue:
            return False
        when, _seq, fn, args = heapq.heappop(queue)
        self._now = when
        heappop = heapq.heappop
        while queue and queue[0][0] == when:
            item = heappop(queue)
            ready.append((item[2], item[3]))
        fn(*args)
        return True

    def run(self, until=None, detect_deadlock=False):
        """Run the simulation.

        With ``until=None`` runs until no scheduled items remain.  With a
        time bound, stops once the clock would pass ``until`` and sets the
        clock to exactly ``until``.  With ``detect_deadlock=True``, raises
        :class:`Deadlock` if live processes remain when the queue drains.
        """
        if until is not None and until < self._now:
            raise ValueError("until %r is in the past (now=%r)" % (until, self._now))
        step = self.step
        if until is None:
            while step():
                pass
        else:
            while True:
                if self._ready:
                    step()
                    continue
                queue = self._queue
                if not queue or queue[0][0] > until:
                    break
                step()
            self._now = until
        if detect_deadlock and self._live_processes > 0:
            raise Deadlock(
                "%d process(es) blocked with no scheduled events"
                % self._live_processes,
                blocked=self._blocked_report(),
                flight=self.flight.snapshot(),
            )

    def run_process(self, generator, until=None, name=""):
        """Spawn ``generator`` and run until it finishes; return its value.

        Unlike :meth:`run`, this stops as soon as the process completes,
        so perpetual background processes (timers, input threads) do not
        keep the call from returning.  Raises :class:`Deadlock` if the
        event queue drains (or ``until`` passes) before it finishes.
        """
        proc = self.spawn(generator, name=name)
        step = self.step
        while proc._state is PENDING and (self._ready or self._queue):
            if until is not None and not self._ready and self._queue[0][0] > until:
                break
            step()
        if not proc.triggered:
            raise Deadlock("process %r did not finish" % (name or proc),
                           blocked=self._blocked_report(),
                           flight=self.flight.snapshot())
        if not proc.ok:
            raise proc.value
        return proc.value

    def run_all(self, generators, until=None):
        """Spawn several processes; run until all finish; return values."""
        procs = [self.spawn(gen) for gen in generators]
        # Track completion without rescanning every process per step:
        # pop finished processes off the tail; the list empties on the
        # exact step the last pending process triggers, matching the old
        # all(p.triggered ...) scan tick for tick.
        #
        # This is the driver loop under every benchmark, so the body of
        # :meth:`step` is inlined here (dispatch a ready item, else
        # advance the clock and drain the heap) — it must stay an exact
        # mirror of step().
        pending = list(procs)
        ready = self._ready
        queue = self._queue
        heappop = heapq.heappop
        pending_state = PENDING
        # ``last`` caches pending[-1]; refreshed only when the tail pops.
        last = pending[-1] if pending else None
        while last is not None:
            if last._state is not pending_state:
                pending.pop()
                last = pending[-1] if pending else None
                continue
            if ready:
                fn, payload = ready.popleft()
                if fn is not None:
                    fn(*payload)
                else:  # dispatch a triggered event's callbacks
                    callbacks, payload.callbacks = payload.callbacks, None
                    for callback in callbacks:
                        callback(payload)
                continue
            # The bound is tested here only: once per clock advance,
            # never per ready item.
            if not queue or (until is not None and queue[0][0] > until):
                break
            when, _seq, fn, args = heappop(queue)
            self._now = when
            while queue and queue[0][0] == when:
                item = heappop(queue)
                ready.append((item[2], item[3]))
            fn(*args)
        results = []
        for proc in procs:
            if not proc.triggered:
                raise Deadlock("process %r did not finish" % proc,
                               blocked=self._blocked_report(),
                               flight=self.flight.snapshot())
            if not proc.ok:
                raise proc.value
            results.append(proc.value)
        return results

    def sleep(self, delay):
        """Convenience generator: ``yield from sim.sleep(dt)``."""
        yield Timeout(delay)
