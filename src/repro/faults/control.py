"""Control-plane fault injection: RPCs, IPC channels, and the server.

The wire pipeline (:mod:`repro.faults.plan`) exercises the *data* path;
this module aims the same seeded-stage machinery at the control plane —
the proxy RPCs of Table 1, the per-packet IPC delivery ports of the
Library-IPC configuration, and the OS server's own request handling:

* request faults — drop, delay, duplicate a client's RPC request;
* reply faults — delay a server reply so replies arrive reordered (or
  after the caller's deadline, exercising the replay path);
* IPC faults — drop/duplicate/delay packet-delivery messages;
* serve faults — slow-op CPU stalls, transient op failures
  (:class:`~repro.kernel.ipc.ServerBusy`), and crash-during-op, landing
  the crash deterministically *before* or *after* a named handler's side
  effects.

Determinism matches the wire plan's contract: every decision draws from
the plan's single seeded RNG in arrival order, so an injected schedule is
a pure function of (workload, seed).  An unattached plan costs nothing;
an attached plan with no stages arms no deadlines and perturbs no
schedules (the zero-overhead property tests pin this).

Safety rule: request/reply stages skip :data:`LONG_OPS` — calls that
legitimately block for unbounded time (accept, recv, select) — unless a
stage is given an explicit ``ops`` filter.  Dropping a call that has no
deadline would otherwise wedge its caller forever, which is a test-harness
bug rather than an interesting fault.
"""

import random

from repro.kernel.ipc import ServerBusy

#: Server calls that may block indefinitely by design; per-attempt
#: deadlines and drop/duplicate faults do not apply to them by default.
LONG_OPS = frozenset({
    "proxy_select", "proxy_accept", "accept", "recv", "recvfrom", "select",
})

#: Default per-attempt reply deadline for short control ops once a plan
#: with stages is attached (microseconds).
DEFAULT_DEADLINE_US = 500_000.0


class ControlFaultStage:
    """Base class for one composable control-plane fault.

    Subclasses override the hooks for the planes they perturb; every hook
    receives the plan's RNG so the whole schedule stays seed-determined.
    """

    name = "control-stage"

    def _targets(self, op):
        """Default op filter: explicit ``ops`` wins; otherwise skip the
        indefinitely-blocking calls (see module docstring)."""
        ops = getattr(self, "ops", None)
        if ops is not None:
            return op in ops
        return op not in LONG_OPS

    def on_request(self, op, rng):
        """Return ``(drop, duplicate, delay_us)`` or None."""
        return None

    def on_reply(self, op, rng):
        """Return extra reply delay in microseconds (0 for none)."""
        return 0.0

    def on_ipc(self, rng):
        """Return ``(drop, duplicate, delay_us)`` or None."""
        return None

    def on_serve(self, op, rng):
        """Return ``(stall_us, fail_exc, crash_when)`` or None."""
        return None

    def counters(self):
        return {}

    def __repr__(self):
        pairs = " ".join("%s=%s" % kv for kv in sorted(self.counters().items()))
        return "<%s %s>" % (type(self).__name__, pairs)


# ----------------------------------------------------------------------
# RPC request / reply stages
# ----------------------------------------------------------------------


class RpcDrop(ControlFaultStage):
    """The kernel loses the request message; the caller recovers via its
    per-attempt deadline and an idempotent (req_id) retry."""

    name = "rpc-drop"

    def __init__(self, rate, ops=None):
        self.rate = rate
        self.ops = frozenset(ops) if ops is not None else None
        self.dropped = 0

    def on_request(self, op, rng):
        if self._targets(op) and rng.random() < self.rate:
            self.dropped += 1
            return (True, False, 0.0)
        return None

    def counters(self):
        return {"dropped": self.dropped}


class RpcDelay(ControlFaultStage):
    """Extra in-transit latency on the request message."""

    name = "rpc-delay"

    def __init__(self, rate, delay_us, jitter_us=0.0, ops=None):
        self.rate = rate
        self.delay_us = delay_us
        self.jitter_us = jitter_us
        self.ops = frozenset(ops) if ops is not None else None
        self.delayed = 0

    def on_request(self, op, rng):
        if self._targets(op) and rng.random() < self.rate:
            self.delayed += 1
            return (False, False,
                    self.delay_us + rng.random() * self.jitter_us)
        return None

    def counters(self):
        return {"delayed": self.delayed}


class RpcDuplicate(ControlFaultStage):
    """The request message is delivered twice; the server's replay cache
    must keep the handler's side effects single-shot."""

    name = "rpc-duplicate"

    def __init__(self, rate, ops=None):
        self.rate = rate
        self.ops = frozenset(ops) if ops is not None else None
        self.duplicated = 0

    def on_request(self, op, rng):
        if self._targets(op) and rng.random() < self.rate:
            self.duplicated += 1
            return (False, True, 0.0)
        return None

    def counters(self):
        return {"duplicated": self.duplicated}


class RpcReplyDelay(ControlFaultStage):
    """Delay the reply message: replies reorder, and past the caller's
    deadline the op completes server-side with the reply dropped —
    exactly the at-least-once window the replay cache exists for."""

    name = "rpc-reply-delay"

    def __init__(self, rate, delay_us, jitter_us=0.0, ops=None):
        self.rate = rate
        self.delay_us = delay_us
        self.jitter_us = jitter_us
        self.ops = frozenset(ops) if ops is not None else None
        self.delayed = 0

    def on_reply(self, op, rng):
        if self._targets(op) and rng.random() < self.rate:
            self.delayed += 1
            return self.delay_us + rng.random() * self.jitter_us
        return 0.0

    def counters(self):
        return {"delayed": self.delayed}


# ----------------------------------------------------------------------
# IPC packet-delivery stages (the Library-IPC per-packet message ports
# and the servers' kernel->server packet input port)
# ----------------------------------------------------------------------


class IpcLoss(ControlFaultStage):
    """Drop a packet-delivery message in the kernel; the transport's
    own retransmission recovers (data-plane resilience, PR 1)."""

    name = "ipc-loss"

    def __init__(self, rate):
        self.rate = rate
        self.dropped = 0

    def on_ipc(self, rng):
        if rng.random() < self.rate:
            self.dropped += 1
            return (True, False, 0.0)
        return None

    def counters(self):
        return {"dropped": self.dropped}


class IpcDuplicate(ControlFaultStage):
    name = "ipc-duplicate"

    def __init__(self, rate):
        self.rate = rate
        self.duplicated = 0

    def on_ipc(self, rng):
        if rng.random() < self.rate:
            self.duplicated += 1
            return (False, True, 0.0)
        return None

    def counters(self):
        return {"duplicated": self.duplicated}


class IpcDelay(ControlFaultStage):
    name = "ipc-delay"

    def __init__(self, rate, delay_us, jitter_us=0.0):
        self.rate = rate
        self.delay_us = delay_us
        self.jitter_us = jitter_us
        self.delayed = 0

    def on_ipc(self, rng):
        if rng.random() < self.rate:
            self.delayed += 1
            return (False, False,
                    self.delay_us + rng.random() * self.jitter_us)
        return None

    def counters(self):
        return {"delayed": self.delayed}


# ----------------------------------------------------------------------
# Server-side stages
# ----------------------------------------------------------------------


class ServerSlowOp(ControlFaultStage):
    """The handler blocks before doing its work (a page fault being
    serviced, a lock held elsewhere): ops complete but their tail
    stretches, and the stalled request keeps occupying an admission
    slot without burning the host CPU."""

    name = "server-slow-op"

    def __init__(self, rate, stall_us, ops=None):
        self.rate = rate
        self.stall_us = stall_us
        self.ops = frozenset(ops) if ops is not None else None
        self.stalled = 0

    def on_serve(self, op, rng):
        if self._targets(op) and rng.random() < self.rate:
            self.stalled += 1
            return (self.stall_us, None, None)
        return None

    def counters(self):
        return {"stalled": self.stalled}


class ServerFlakyOp(ControlFaultStage):
    """The handler fails transiently before any side effect; the client
    sees a retryable :class:`~repro.kernel.ipc.ServerBusy`."""

    name = "server-flaky-op"

    def __init__(self, rate, ops=None):
        self.rate = rate
        self.ops = frozenset(ops) if ops is not None else None
        self.failed = 0

    def on_serve(self, op, rng):
        if self._targets(op) and rng.random() < self.rate:
            self.failed += 1
            return (0.0, ServerBusy("transient failure in %s" % op), None)
        return None

    def counters(self):
        return {"failed": self.failed}


class ServerCrashOnOp(ControlFaultStage):
    """Crash the server while handling the nth matching op.

    ``when="before"`` crashes with the request consumed but no side
    effects run (the client's retry re-executes); ``when="after"``
    crashes between the handler's side effects and its reply — the
    at-least-once window where replay/re-registration must make the
    retried op safe.  Fires once per plan (the controller restarts the
    server; a crash loop is a different experiment).
    """

    name = "server-crash-on-op"

    def __init__(self, op, nth=1, when="before"):
        if when not in ("before", "after"):
            raise ValueError("when must be 'before' or 'after'")
        self.op = op
        self.nth = nth
        self.when = when
        self.matched = 0
        self.crashes = 0

    def on_serve(self, op, rng):
        if op != self.op or self.crashes:
            return None
        self.matched += 1
        if self.matched == self.nth:
            self.crashes += 1
            return (0.0, None, self.when)
        return None

    def counters(self):
        return {"matched": self.matched, "crashes": self.crashes}


# ----------------------------------------------------------------------
# The plan
# ----------------------------------------------------------------------


class ControlFaultPlan:
    """An ordered, seeded pipeline of control-plane fault stages.

    Attach with :meth:`attach`; all four hooks aggregate their stages'
    decisions in stage order.  ``default_deadline_us`` is the per-attempt
    reply deadline armed for short ops while the plan has stages (long
    ops never get an implicit deadline; see :data:`LONG_OPS`).
    """

    def __init__(self, stages=(), seed=None, rng=None,
                 default_deadline_us=DEFAULT_DEADLINE_US):
        self.stages = list(stages)
        if rng is None:
            rng = random.Random(0 if seed is None else seed)
        self.rng = rng
        self.default_deadline_us = default_deadline_us
        self.requests_seen = 0
        self.ipc_seen = 0

    def add(self, stage):
        self.stages.append(stage)
        return self

    def deadline_for(self, op):
        if not self.stages or op in LONG_OPS:
            return None
        return self.default_deadline_us

    # -- hooks called from repro.kernel.ipc ----------------------------

    def on_request(self, op):
        self.requests_seen += 1
        drop = dup = False
        delay = 0.0
        for stage in self.stages:
            action = stage.on_request(op, self.rng)
            if action is not None:
                d, u, extra = action
                drop = drop or d
                dup = dup or u
                delay += extra
        return drop, dup, delay

    def on_reply(self, op):
        delay = 0.0
        for stage in self.stages:
            delay += stage.on_reply(op, self.rng)
        return delay

    def on_ipc(self):
        self.ipc_seen += 1
        drop = dup = False
        delay = 0.0
        for stage in self.stages:
            action = stage.on_ipc(self.rng)
            if action is not None:
                d, u, extra = action
                drop = drop or d
                dup = dup or u
                delay += extra
        return drop, dup, delay

    def on_serve(self, op):
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

    # -- wiring --------------------------------------------------------

    def attach(self, server, libraries=()):
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

    # -- reporting (mirrors FaultPlan) ---------------------------------

    def counters(self):
        report = {}
        for i, stage in enumerate(self.stages):
            key = stage.name
            if key in report:
                key = "%s#%d" % (stage.name, i)
            report[key] = stage.counters()
        return report

    def total(self, counter):
        return sum(c.get(counter, 0) for c in
                   (stage.counters() for stage in self.stages))

    def __repr__(self):
        return "<ControlFaultPlan %d stages>" % len(self.stages)
