"""The fault pipeline: transits, stages, and the one plan.

A :class:`FaultPlan` is an ordered list of :class:`FaultStage` objects
and one seeded RNG.  The same plan drives either plane it is attached
to:

* the wire (:meth:`FaultPlan.attach`): a frame that finished serializing
  becomes a :class:`Transit` and goes through each stage's
  :meth:`~FaultStage.transit` in order.  A stage may drop it (return
  ``[]``), mutate it (corruption, added delay, excluded receivers), or
  fan it out (duplication); the survivors are delivered after their
  accumulated delay;
* the control plane (:meth:`FaultPlan.attach_server`): every message on
  an RPC or IPC port goes through each stage's
  :meth:`~FaultStage.on_message` — ``port`` is ``"rpc"`` for a request,
  ``"reply"`` for a reply and ``"ipc"`` for a packet delivery — and
  every request the server dequeues through :meth:`~FaultStage.on_serve`.

Every hook of the base class is a no-op, so a stage overrides only the
hooks of the plane it perturbs, and a stage draws from the RNG only for
its own port.

Determinism: all randomness comes from the plan's single ``rng`` and the
stage order is fixed, so a run is a pure function of (workload, seed).
An unattached plan costs nothing; an attached plan with no stages arms
no deadlines and perturbs no schedules.
"""

import random

#: Server calls that may block indefinitely by design; per-attempt
#: deadlines and drop/duplicate faults do not apply to them by default.
#: Dropping a call that has no deadline would wedge its caller forever,
#: which is a test-harness bug rather than an interesting fault.
LONG_OPS = frozenset({
    "proxy_select", "proxy_accept", "accept", "recv", "recvfrom", "select",
})

#: Default per-attempt reply deadline for short control ops once a plan
#: with stages is attached (microseconds).
DEFAULT_DEADLINE_US = 500_000.0


class Transit:
    """One frame in flight between serialization and delivery.

    ``delay_us`` accumulates extra delivery delay (on top of the wire's
    propagation delay); ``exclude`` is a set of NICs that must not receive
    this transit (receiver-side blackholing).
    """

    __slots__ = ("frame", "sender", "delay_us", "exclude")

    def __init__(self, frame, sender, delay_us=0.0, exclude=None):
        self.frame = frame
        self.sender = sender
        self.delay_us = delay_us
        self.exclude = exclude if exclude is not None else set()

    def copy(self):
        return Transit(self.frame, self.sender, self.delay_us,
                       set(self.exclude))

    def __repr__(self):
        return "<Transit %d bytes +%.1fus>" % (len(self.frame), self.delay_us)


class FaultStage:
    """Base class for one composable fault.

    Every hook defaults to doing nothing; the fault hooks get the plan's RNG.
    Counters are surfaced through :meth:`counters` and aggregated by the
    plan for ``analysis.netstat``.
    """

    name = "stage"

    def install(self, wire, sim):
        """Called once when the plan is attached to a wire."""

    def transit(self, t, rng, now):
        """Transform one :class:`Transit`; return the surviving transits."""
        return [t]

    def on_message(self, port, op, rng):
        """Return ``(drop, duplicate, delay_us)`` for one message, or None."""
        return None

    def on_serve(self, op, rng):
        """Return ``(stall_us, fail_exc, crash_when)`` or None."""
        return None

    def counters(self):
        return {}

    def __repr__(self):
        pairs = " ".join("%s=%s" % kv for kv in sorted(self.counters().items()))
        return "<%s %s>" % (type(self).__name__, pairs)


class FaultPlan:
    """An ordered, seeded pipeline of fault stages.

    ``default_deadline_us`` is the per-attempt reply deadline armed for
    short ops while the plan has stages and is attached to a server (long
    ops never get an implicit deadline; see :data:`LONG_OPS`).
    """

    def __init__(self, stages=(), seed=None, rng=None,
                 default_deadline_us=DEFAULT_DEADLINE_US):
        self.stages = list(stages)
        if rng is None:
            rng = random.Random(0 if seed is None else seed)
        self.rng = rng
        self.default_deadline_us = default_deadline_us
        self.wire = None
        self.frames_in = 0
        self.frames_delivered = 0

    def add(self, stage):
        self.stages.append(stage)
        if self.wire is not None:
            stage.install(self.wire, self.wire._sim)
        return self

    # -- the wire --------------------------------------------------------

    def attach(self, wire, sim):
        self.wire = wire
        for stage in self.stages:
            stage.install(wire, sim)

    def apply(self, frame, sender, now):
        """Run one serialized frame through the pipeline.

        Returns the list of :class:`Transit` objects to deliver (empty if
        every copy was dropped).
        """
        self.frames_in += 1
        transits = [Transit(frame, sender)]
        for stage in self.stages:
            survivors = []
            for t in transits:
                survivors.extend(stage.transit(t, self.rng, now))
            transits = survivors
            if not transits:
                break
        self.frames_delivered += len(transits)
        return transits

    # -- the control plane ---------------------------------------------

    def attach_server(self, server, libraries=()):
        """Hook this plan into a server's RPC port, its kernel->server
        packet-input port, and (for Library-IPC apps) the per-session
        delivery ports the libraries create from now on."""
        server.rpc.faults = self
        port = getattr(server, "_input_port", None)
        if port is not None:
            port.faults = self
        for library in libraries:
            library.control_faults = self
        return self

    def deadline_for(self, op):
        if not self.stages or op in LONG_OPS:
            return None
        return self.default_deadline_us

    def on_message(self, port, op):
        """Aggregate the stages' decisions on one message, in stage order:
        ``(drop, duplicate, delay_us)``."""
        drop = dup = False
        delay = 0.0
        for stage in self.stages:
            action = stage.on_message(port, op, self.rng)
            if action is not None:
                d, u, extra = action
                drop = drop or d
                dup = dup or u
                delay += extra
        return drop, dup, delay

    def on_serve(self, op):
        """``(stall_us, fail_exc, crash_when)`` for one dequeued request:
        stalls add up, the first failure and the first crash win."""
        stall = 0.0
        fail = None
        crash = None
        for stage in self.stages:
            action = stage.on_serve(op, self.rng)
            if action is not None:
                s, f, c = action
                stall += s
                if fail is None:
                    fail = f
                if crash is None:
                    crash = c
        return stall, fail, crash

    # -- reporting -----------------------------------------------------

    def counters(self):
        """Per-stage counters, keyed by stage name (deduplicated)."""
        report = {}
        for i, stage in enumerate(self.stages):
            key = stage.name
            if key in report:
                key = "%s#%d" % (stage.name, i)
            report[key] = stage.counters()
        return report

    def total(self, counter):
        """Sum one named counter across every stage that exposes it."""
        return sum(c.get(counter, 0) for c in
                   (stage.counters() for stage in self.stages))

    def __repr__(self):
        return "<FaultPlan %d stages>" % len(self.stages)
