"""Mach-style IPC: message ports and RPC.

Costs follow the paper's analysis of the server-based placement: a data-
carrying RPC copies its payload twice on each side of each crossing (four
copies end-to-end: user buffer -> message -> kernel -> server message ->
mbuf chain), plus fixed per-message and stub costs, plus the trap.  Those
charges are what make the UX server's ``entry/copyin`` and
``copyout/exit`` rows in Table 4 so expensive.
"""

from repro.sim.events import any_of
from repro.sim.sync import Channel
from repro.trace import adopt_trace, current_trace


class ServerCrashed(Exception):
    """An RPC failed because the receiving server died.

    Raised in the client when the server's RPC port goes down while the
    call is queued or in flight, or when a call is attempted against a
    port that is already down.  Clients that can retry (the proxy library,
    the metastate cache) catch this and back off until the port reopens.

    This is also the root of the *retryable* control-plane failure
    family: :class:`DeadlineExpired` and :class:`ServerBusy` subclass it
    so every existing ``except ServerCrashed`` retry path transparently
    covers dropped requests, abandoned replies, and shed load.
    """

    def __init__(self, reason="server crashed"):
        super().__init__(reason)
        self.reason = reason


class DeadlineExpired(ServerCrashed):
    """An RPC was abandoned at its per-attempt deadline.

    The reply (if one ever comes) is dropped; the caller may retry with
    the same request id, which the server's replay cache deduplicates.
    """


class ServerBusy(ServerCrashed):
    """The server shed this request (admission control) or failed it
    transiently; the operation did not run and is safe to retry."""


#: Reply-event payload for a call the client abandoned at its deadline;
#: lets a late :meth:`RPCPort.reply` detect the abandonment and count a
#: dropped reply instead of raising into a dead wait.
_ABANDONED = ("abandoned", 0, None)


class Message:
    """One IPC message (an RPC request when it carries a reply event)."""

    __slots__ = ("op", "args", "data", "data_len", "reply_event", "trace",
                 "req_id")

    def __init__(self, op, args=(), data=b"", data_len=None, reply_event=None,
                 trace=None, req_id=None):
        self.op = op
        self.args = args
        self.data = data
        self.data_len = data_len if data_len is not None else len(data)
        self.reply_event = reply_event
        #: Packet-trace id this message is part of (see :mod:`repro.trace`);
        #: stamped at send time, adopted by the receiving process.
        self.trace = trace
        #: Idempotency key for at-least-once delivery: retried or
        #: fault-duplicated requests carry the same id, and the server's
        #: replay cache guarantees the handler's side effects run once
        #: per id per incarnation.  None (the default) opts out.
        self.req_id = req_id

    def __repr__(self):
        return "<Message %s len=%d>" % (self.op, self.data_len)


class MessagePort:
    """A one-way Mach port: senders enqueue, one receiver dequeues.

    Used for packet delivery in the Library-IPC configuration ("the packet
    filter uses Mach IPC to deliver each incoming packet to the protocol
    in a separate message").
    """

    def __init__(self, sim, name="port"):
        self._sim = sim
        self._queue = Channel(sim, name=name)
        self.name = name
        self.messages = 0
        #: Control-plane fault plan hook (None while disabled: the hot
        #: path pays one None test and nothing else — the bit-passivity
        #: contract of the metrics/trace subsystems).
        self.faults = None

    def send(self, ctx, layer, message):
        """Kernel/sender side: fixed message cost; payload copy is charged
        separately by the caller (it depends on source memory type)."""
        if message.trace is None:
            message.trace = current_trace(self._sim)
        yield ctx.charge(layer, ctx.params.mach_msg)
        if self.faults is not None:
            drop, dup, delay_us = self.faults.on_ipc()
            if drop:
                return  # the kernel lost the message; sender already paid
            if delay_us:
                self._sim.call_later(delay_us, self._late_put, message)
                if dup:
                    self._sim.call_later(delay_us, self._late_put, message)
                self.messages += 1
                return
            if dup:
                self._queue.try_put(message)
                self.messages += 1
        self._queue.try_put(message)
        self.messages += 1

    def _late_put(self, message):
        """Deliver a fault-delayed message (it may now arrive reordered
        behind messages sent after it)."""
        self._queue.try_put(message)

    def receive(self, ctx, layer):
        """Receiver side: one boundary crossing plus the message cost."""
        message = yield from self._queue.get()
        # The receiving process picks up the packet's trace, so its
        # copyout/processing charges land on the right timeline.
        adopt_trace(self._sim, message.trace)
        yield ctx.charge(layer, ctx.params.mach_msg + ctx.params.trap_return)
        return message

    def pending(self):
        return len(self._queue)


class RPCPort:
    """A request/reply Mach port pair, as used for every proxy/server call."""

    def __init__(self, sim, name="rpc"):
        self._sim = sim
        self._requests = Channel(sim, name=name)
        self.name = name
        self.calls = 0
        #: Crash-failure reason while the port is down, else None.
        self._broken = None
        #: Reply events for requests the server has dequeued but not yet
        #: answered; failed en masse when the port goes down.
        self._outstanding = set()
        self._reopen_waiters = []
        self._down_waiters = []
        self.retried_calls = 0
        self.replies_dropped = 0
        #: Control-plane fault plan (None while disabled — bit-passive).
        self.faults = None
        #: Admission control: maximum queued+in-flight requests before
        #: the server sheds new arrivals with :class:`ServerBusy`.
        #: None (the default) means unbounded, the historical behavior.
        self.max_pending = None
        self.requests_shed = 0
        self.deadline_expiries = 0

    @property
    def broken(self):
        return self._broken is not None

    # ------------------------------------------------------------------
    # Crash / recovery
    # ------------------------------------------------------------------

    def down(self, reason="server crashed"):
        """The receiver died: fail every queued and in-flight request.

        Clients waiting on replies see :class:`ServerCrashed`; subsequent
        :meth:`call` attempts fail immediately until :meth:`up`.
        """
        self._broken = reason
        waiters, self._down_waiters = self._down_waiters, []
        for event in waiters:
            if not event.triggered:
                event.succeed()
        while True:
            got, message = self._requests.try_get()
            if not got:
                break
            if message.reply_event is not None and not message.reply_event.triggered:
                message.reply_event.fail(ServerCrashed(reason))
        for reply_event in list(self._outstanding):
            if not reply_event.triggered:
                reply_event.fail(ServerCrashed(reason))
        self._outstanding.clear()

    def up(self):
        """The receiver is back: accept calls again, wake reopen waiters."""
        self._broken = None
        waiters, self._reopen_waiters = self._reopen_waiters, []
        for event in waiters:
            if not event.triggered:
                event.succeed()

    def wait_reopen(self):
        """An event that fires the next time the port comes (back) up."""
        event = self._sim.event("%s.reopen" % self.name)
        if not self.broken:
            event.succeed()
        else:
            self._reopen_waiters.append(event)
        return event

    def wait_down(self):
        """An event that fires the next time the port goes down (fires
        immediately if it is already down)."""
        event = self._sim.event("%s.down" % self.name)
        if self.broken:
            event.succeed()
        else:
            self._down_waiters.append(event)
        return event

    # ------------------------------------------------------------------
    # Client side
    # ------------------------------------------------------------------

    def call(self, ctx, op, args=(), data=b"", layer="rpc", req_id=None,
             deadline_us=None):
        """Synchronous RPC: send a request, block for the reply.

        Charges the client side's costs: trap in, stub, message, and two
        copies of any payload; then symmetric costs for the reply.  If the
        server replies with an exception instance, it is re-raised here —
        errors cross the RPC boundary like any BSD errno would.

        ``req_id`` travels with the request for the server's replay cache
        (idempotent at-least-once delivery).  ``deadline_us`` bounds the
        reply wait: past it the call is abandoned with
        :class:`DeadlineExpired` and a late reply is counted in
        ``replies_dropped``.  When a control-fault plan is attached and no
        explicit deadline was given, the plan's per-op default applies —
        otherwise no timer is armed (the bit-passive happy path).
        """
        if self.broken:
            raise ServerCrashed(self._broken)
        p = ctx.params
        ctx.crossings.server_rpcs += 1
        yield ctx.charge_boundary_crossing(layer)
        yield ctx.charge(layer, p.rpc_stub + p.mach_msg)
        if data:
            yield ctx.charge_copy(layer, len(data))
        dropped = False
        duplicate = False
        if self.faults is not None:
            drop, dup, delay_us = self.faults.on_request(op)
            dropped, duplicate = drop, dup
            if delay_us:
                yield self._sim.timeout(delay_us)
            if deadline_us is None:
                deadline_us = self.faults.deadline_for(op)
            if dropped and deadline_us is None:
                # Never let a fault-dropped request hang its caller.
                deadline_us = self.faults.default_deadline_us
        if (self.max_pending is not None
                and len(self._requests) + len(self._outstanding)
                >= self.max_pending):
            self.requests_shed += 1
            raise ServerBusy("%s shed %s: queue full" % (self.name, op))
        reply_event = self._sim.event("%s.reply" % self.name)
        message = Message(op, args=args, data=bytes(data),
                          reply_event=reply_event,
                          trace=current_trace(self._sim), req_id=req_id)
        if not dropped:
            self._requests.try_put(message)
            self.calls += 1
            if duplicate:
                # The duplicate is a distinct message sharing the reply
                # event: whichever handler answers first wins, the other
                # reply is dropped (or deduplicated by req_id server-side).
                self._requests.try_put(
                    Message(op, args=args, data=message.data,
                            reply_event=reply_event, trace=message.trace,
                            req_id=req_id))
        if deadline_us is not None:
            timer = self._sim.timeout(deadline_us)
            winner, value = yield any_of(self._sim, [reply_event, timer])
            if winner is timer:
                self.deadline_expiries += 1
                if not reply_event.triggered:
                    reply_event.succeed(_ABANDONED)
                raise DeadlineExpired(
                    "no reply to %s within %.0fus" % (op, deadline_us))
            result, reply_len, reply_trace = value
        else:
            result, reply_len, reply_trace = yield reply_event
        if reply_trace is not None:
            # e.g. a recv RPC: the reply carries the received packet's
            # trace, so the client's copyout charges join that timeline.
            adopt_trace(self._sim, reply_trace)
        yield ctx.charge(layer, p.mach_msg + p.trap_return)
        if reply_len:
            yield ctx.charge_copy(layer, reply_len)
        if isinstance(result, BaseException):
            raise result
        return result

    # ------------------------------------------------------------------
    # Server side
    # ------------------------------------------------------------------

    def serve(self, ctx, layer="rpc"):
        """Dequeue the next request, charging the server's receive costs."""
        message = yield from self._requests.get()
        if message.reply_event is not None:
            self._outstanding.add(message.reply_event)
        adopt_trace(self._sim, message.trace)
        p = ctx.params
        yield ctx.charge(layer, p.mach_msg + p.rpc_stub)
        if message.data_len:
            yield ctx.charge_copy(layer, message.data_len)
        return message

    def reply(self, ctx, message, result=None, reply_len=0, layer="rpc"):
        """Send the reply, charging the server's send costs.

        If the reply event was already failed (the server crashed while
        this handler ran and the client gave up on the call), the reply is
        silently dropped — mirroring a send-once right that died with the
        client's wait.
        """
        self._outstanding.discard(message.reply_event)
        if message.reply_event.triggered:
            self.replies_dropped += 1
            return
        p = ctx.params
        yield ctx.charge(layer, p.mach_msg + p.rpc_stub)
        if reply_len:
            yield ctx.charge_copy(layer, reply_len)
        payload = (result, reply_len, current_trace(self._sim))
        if self.faults is not None:
            delay_us = self.faults.on_reply(message.op)
            if delay_us:
                # The reply message lingers in transit: it may arrive
                # reordered behind replies sent after it, or find its
                # caller already gone (deadline expiry, crash).
                self._sim.call_later(
                    delay_us, self._deliver_late_reply, message, payload)
                return
        message.reply_event.succeed(payload)

    def _deliver_late_reply(self, message, payload):
        if message.reply_event.triggered:
            self.replies_dropped += 1
            return
        message.reply_event.succeed(payload)

    def pending(self):
        return len(self._requests)
