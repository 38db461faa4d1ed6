"""Control-plane fault stages: RPCs, IPC channels, and the server.

The wire stages (:mod:`repro.faults.stages`) exercise the *data* path;
the stages here aim the same :class:`~repro.faults.plan.FaultPlan` at the
control plane — the proxy RPCs of Table 1, the per-packet IPC delivery
ports of the Library-IPC configuration, and the OS server's own request
handling.  Attach the plan with
:meth:`~repro.faults.plan.FaultPlan.attach_server`:

* message faults — drop, duplicate or delay one message on one port:
  a client's RPC request (``"rpc"``), a server reply (``"reply"``: replies
  arrive reordered, or after the caller's deadline, exercising the replay
  path) or a packet delivery (``"ipc"``).  Each of the three bodies is
  one class, and each named stage is that body bound to its port;
* serve faults — slow-op stalls, transient op failures
  (:class:`~repro.kernel.ipc.ServerBusy`), and crash-during-op, landing
  the crash deterministically *before* or *after* a named handler's side
  effects.

Safety rule: RPC and serve stages skip
:data:`~repro.faults.plan.LONG_OPS` — calls that legitimately block for
unbounded time (accept, recv, select) — unless a stage is given an
explicit ``ops`` filter.  IPC stages take no ``ops``: they target every
packet delivery.
"""

from repro.faults.plan import LONG_OPS, FaultStage
from repro.kernel.ipc import ServerBusy


class _Rated(FaultStage):
    """A fault that fires at ``rate`` on the ops it targets: explicit
    ``ops`` wins, otherwise every op outside :data:`LONG_OPS`.  The RNG
    is drawn only for a targeted op."""

    def __init__(self, rate, ops=None):
        self.rate = rate
        self.ops = frozenset(ops) if ops is not None else None

    def _fires(self, op, rng):
        if self.ops is not None:
            targeted = op in self.ops
        else:
            targeted = op not in LONG_OPS
        return targeted and rng.random() < self.rate


class _Drop(_Rated):
    def __init__(self, rate, ops=None):
        super().__init__(rate, ops)
        self.dropped = 0

    def on_message(self, port, op, rng):
        if port == self.port and self._fires(op, rng):
            self.dropped += 1
            return (True, False, 0.0)
        return None

    def counters(self):
        return {"dropped": self.dropped}


class _Duplicate(_Rated):
    def __init__(self, rate, ops=None):
        super().__init__(rate, ops)
        self.duplicated = 0

    def on_message(self, port, op, rng):
        if port == self.port and self._fires(op, rng):
            self.duplicated += 1
            return (False, True, 0.0)
        return None

    def counters(self):
        return {"duplicated": self.duplicated}


class _Delay(_Rated):
    def __init__(self, rate, delay_us, jitter_us=0.0, ops=None):
        super().__init__(rate, ops)
        self.delay_us = delay_us
        self.jitter_us = jitter_us
        self.delayed = 0

    def on_message(self, port, op, rng):
        if port == self.port and self._fires(op, rng):
            self.delayed += 1
            return (False, False,
                    self.delay_us + rng.random() * self.jitter_us)
        return None

    def counters(self):
        return {"delayed": self.delayed}


class RpcDrop(_Drop):
    """The kernel loses the request message; the caller recovers via its
    per-attempt deadline and an idempotent (req_id) retry."""

    name = "rpc-drop"
    port = "rpc"


class RpcDuplicate(_Duplicate):
    """The request message is delivered twice; the server's replay cache
    must keep the handler's side effects single-shot."""

    name = "rpc-duplicate"
    port = "rpc"


class RpcDelay(_Delay):
    """Extra in-transit latency on the request message."""

    name = "rpc-delay"
    port = "rpc"


class RpcReplyDelay(_Delay):
    """Delay the reply message: replies reorder, and past the caller's
    deadline the op completes server-side with the reply dropped —
    exactly the at-least-once window the replay cache exists for."""

    name = "rpc-reply-delay"
    port = "reply"


class IpcLoss(_Drop):
    """Drop a packet-delivery message in the kernel; the transport's
    own retransmission recovers."""

    name = "ipc-loss"
    port = "ipc"

    def __init__(self, rate):
        super().__init__(rate)


class IpcDuplicate(_Duplicate):
    name = "ipc-duplicate"
    port = "ipc"

    def __init__(self, rate):
        super().__init__(rate)


class IpcDelay(_Delay):
    name = "ipc-delay"
    port = "ipc"

    def __init__(self, rate, delay_us, jitter_us=0.0):
        super().__init__(rate, delay_us, jitter_us)


# ----------------------------------------------------------------------
# Server-side stages
# ----------------------------------------------------------------------


class ServerSlowOp(_Rated):
    """The handler blocks before doing its work (a page fault being
    serviced, a lock held elsewhere): ops complete but their tail
    stretches, and the stalled request keeps occupying an admission
    slot without burning the host CPU."""

    name = "server-slow-op"

    def __init__(self, rate, stall_us, ops=None):
        super().__init__(rate, ops)
        self.stall_us = stall_us
        self.stalled = 0

    def on_serve(self, op, rng):
        if self._fires(op, rng):
            self.stalled += 1
            return (self.stall_us, None, None)
        return None

    def counters(self):
        return {"stalled": self.stalled}


class ServerFlakyOp(_Rated):
    """The handler fails transiently before any side effect; the client
    sees a retryable :class:`~repro.kernel.ipc.ServerBusy`."""

    name = "server-flaky-op"

    def __init__(self, rate, ops=None):
        super().__init__(rate, ops)
        self.failed = 0

    def on_serve(self, op, rng):
        if self._fires(op, rng):
            self.failed += 1
            return (0.0, ServerBusy("transient failure in %s" % op), None)
        return None

    def counters(self):
        return {"failed": self.failed}


class ServerCrashOnOp(FaultStage):
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
