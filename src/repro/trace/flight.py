"""The always-on flight recorder: a bounded ring of recent rare events.

Packet tracing (:mod:`repro.trace.recorder`) is opt-in and per-packet;
the flight recorder is its cheap, *always-on* complement: every
simulator keeps a small ring of recent coarse events — process spawns
and exits, control-plane operations, chaos/window markers — so that
when a run dies (a :class:`~repro.sim.errors.Deadlock`, a chaos
invariant violation) the last moments are reconstructable after the
fact, like an aircraft flight recorder.

Design constraints, in order:

* **Always on, near-zero cost.**  The hot paths that record
  (``Simulator.spawn`` / process exit) inline a bounded
  ``deque.append`` plus a lifetime counter — no method call, no
  formatting, no conditional.  Everything expensive (rendering a
  timeline, a chrome trace) happens only at dump time.
* **Bounded and honest.**  The ring holds :data:`DEFAULT_CAPACITY`
  events; older ones fall off, but the lifetime ``recorded`` counter
  keeps the ``evicted`` count exact, so a wrap is never silently
  reported as "no loss".
* **Engine-agnostic.**  Events are plain ``(t_us, kind, detail)``
  tuples; the recorder never touches the event queue, charges no CPU,
  and draws no randomness, so attaching it is bit-passive — benchmark
  output is byte-identical with it on (it always is).

Dump formats: :func:`timeline` (a text table, newest last) and
:func:`chrome_trace` (instant events for ``chrome://tracing`` /
Perfetto).  :func:`dump_deadlock` combines the ring with a
:class:`~repro.sim.errors.Deadlock`'s blocked-process report into one
post-mortem document.
"""

import json
from collections import deque

#: Ring capacity: enough to cover the final few scheduling rounds of
#: any run without ever mattering for memory.
DEFAULT_CAPACITY = 512


class FlightRecorder:
    """Bounded ring of ``(t_us, kind, detail)`` events for one engine.

    Hot call sites append to :attr:`events` and bump :attr:`recorded`
    inline; everything else goes through :meth:`note`.
    """

    __slots__ = ("_sim", "capacity", "events", "recorded")

    def __init__(self, sim, capacity=DEFAULT_CAPACITY):
        self._sim = sim
        self.capacity = capacity
        self.events = deque(maxlen=capacity)
        self.recorded = 0  # lifetime appends; never resets

    def note(self, kind, detail=""):
        """Record one event at the current simulated time."""
        self.recorded += 1
        self.events.append((self._sim.now, kind, detail))

    @property
    def evicted(self):
        """Events that fell off the ring (lifetime, exact)."""
        return self.recorded - len(self.events)

    def snapshot(self):
        """An immutable copy of the ring, oldest first."""
        return tuple(self.events)

    def __repr__(self):
        return "<FlightRecorder %d/%d events (%d evicted)>" % (
            len(self.events), self.capacity, self.evicted)


# ----------------------------------------------------------------------
# Rendering (dump-time only)
# ----------------------------------------------------------------------

def timeline(recorder, blocked=(), title="flight recorder"):
    """A text post-mortem: the ring as a table, newest last, plus the
    blocked-process report when one is supplied."""
    lines = ["=== %s: last %d of %d event(s), %d evicted ==="
             % (title, len(recorder.events), recorder.recorded,
                recorder.evicted)]
    for t, kind, detail in recorder.events:
        lines.append("%16.3f us  %-12s %s" % (t, kind, detail))
    if not recorder.events:
        lines.append("(empty ring: nothing was recorded)")
    if blocked:
        lines.append("--- blocked processes ---")
        for name, waiting_on in blocked:
            lines.append("%s <- waiting on %s" % (name, waiting_on))
    return "\n".join(lines)


def chrome_trace(recorder):
    """The ring as chrome://tracing / Perfetto instant events."""
    trace_events = []
    for t, kind, detail in recorder.events:
        trace_events.append({
            "name": "%s %s" % (kind, detail) if detail else kind,
            "ph": "i",          # instant event
            "ts": t,            # already microseconds
            "s": "g",           # global scope
            "pid": 0,
            "tid": 0,
            "cat": kind,
        })
    return {"traceEvents": trace_events,
            "displayTimeUnit": "ms",
            "otherData": {"recorded": recorder.recorded,
                          "evicted": recorder.evicted}}


def dump_deadlock(recorder, exc, path):
    """Write a post-mortem for ``exc`` (a Deadlock): ``path`` gets the
    text timeline, ``path + ".json"`` the chrome trace.  Returns the
    text for callers that also want it on a console."""
    text = "%s\n\n%s\n" % (
        timeline(recorder, blocked=getattr(exc, "blocked", ()),
                 title="deadlock post-mortem"),
        "deadlock: %s" % exc)
    with open(path, "w") as fh:
        fh.write(text)
    with open(path + ".json", "w") as fh:
        json.dump(chrome_trace(recorder), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return text
