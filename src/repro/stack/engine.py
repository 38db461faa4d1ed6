"""The protocol engine: socket-level TCP/UDP over IP over Ethernet.

One :class:`NetworkStack` instance is the protocol machinery for one
placement: the in-kernel stack, the UX server's stack, the OS server's
setup stack, or one application's protocol library.  All of them run this
same code (as the paper reuses the BSD code everywhere); what differs is
the :class:`~repro.stack.context.ExecutionContext` (whose CPU priority,
lock package, and accounting they charge) and the :class:`NetEnv` (how
frames reach the wire and how ARP/routing metastate is found).

The socket-level verbs live on the two *transports* — :class:`TCPSession`
(a bytestream) and :class:`UDPSession` (messages) — under one spelling:
``connect``, ``send(data, dst=None)``, ``recv(max_bytes)`` -> ``(data,
src)``, ``poll``, ``close``, ``set_option``.  :class:`NetworkStack` is
the core they share: session creation and migration, IP output, demux,
ICMP and the TCP timers.

Blocking operations are generators to be driven inside a simulation
process.  Calls into the sans-I/O TCP machine itself are atomic (no
yields), so the engine is race-free under the cooperative scheduler.
"""

from repro.mem.mbuf import MbufStats
from repro.net import arp, ethernet, icmp, ip, udp
from repro.net.ports import PortManager
from repro.net.tcp import TCPConfig, TCPConnection, TCPState
from repro.net.tcp.header import SYN, TCPSegment
from repro.net.tcp.output import rst_for
from repro.net.tcp.tcb import TCPError
from repro.net.tcp.timers import FAST_TICK_US, SLOW_TICK_US
from repro.sim.events import any_of
from repro.sim.process import Timeout
from repro.stack.instrument import Layer
from repro.stack.timewait import TimeWait
from repro.trace import adopt_trace, current_trace


class SocketTimeout(Exception):
    """A blocking socket operation exceeded its deadline."""


class PortUnreachable(Exception):
    """ICMP port unreachable arrived for a connected UDP session — the
    moral equivalent of BSD's ECONNREFUSED on a connected datagram
    socket."""


class Notifier:
    """Edge-triggered broadcast wakeup: waiters re-check their condition."""

    def __init__(self, sim, name=""):
        self._sim = sim
        self._event = sim.event(name)
        self.waiters = 0

    def wait(self):
        """``yield notifier.wait()`` — wakes on the next :meth:`fire`."""
        self.waiters += 1
        return self._event

    def fire(self):
        if self._event.triggered:
            return
        event, self._event = self._event, self._sim.event(self._event.name)
        self.waiters = 0
        event.succeed()


class NetEnv:
    """How a stack reaches the network: wire output plus metastate.

    * ``send_frame(ctx, frame)`` — generator; puts a full Ethernet frame
      on the wire, charging the caller's context (placements route this
      through the kernel's send trap or straight to the device).
    * ``resolve(ctx, next_hop_ip)`` — generator returning the MAC address
      (in-kernel ARP, server ARP, or the library's cached metastate);
      ``send_frame`` bills the lookup itself, in the frame's hold.
    * ``route(dst_ip)`` — plain call returning the next-hop IP, or None
      when the answer has to be fetched first: the library's cached
      route entries were invalidated by the server (Section 3.3).
    * ``prime_route(ctx, dst_ip)`` — generator doing that fetch and
      returning the next-hop IP.  Only a stack whose ``route`` can
      return None needs one.
    """

    def __init__(self, local_ip, local_mac, send_frame, resolve, route,
                 prime_route=None):
        self.local_ip = local_ip
        self.local_mac = local_mac
        self.send_frame = send_frame
        self.resolve = resolve
        self.route = route
        self.prime_route = prime_route


class TCPSession:
    """The bytestream transport: a TCP endpoint plus its blocking-IO
    plumbing."""

    __slots__ = ("stack", "conn", "notify", "accept_queue", "backlog",
                 "children", "parent", "selected", "recv_timeout_us",
                 "last_rx_trace", "last_rx_time", "last_tx_trace",
                 "owns_port", "closed", "tw", "draining")

    def __init__(self, stack, conn, owns_port=True):
        self.stack = stack
        self.conn = conn
        self.notify = Notifier(stack.ctx.sim, "tcp.notify")
        self.accept_queue = []  # completed child sessions (listeners only)
        self.backlog = 0
        self.children = {}  # pending (not yet accepted) child sessions
        self.parent = None
        self.selected = False  # a select() is outstanding on this session
        self.recv_timeout_us = None  # SO_RCVTIMEO, None = block forever
        #: Trace id of the most recent inbound segment (per-packet
        #: tracing); the receiver's copyout adopts it.
        self.last_rx_trace = None
        #: When that segment landed in the receive buffer — consumed by
        #: the next tcp_recv to attribute socket-buffer wait, then reset.
        self.last_rx_time = None
        #: Trace id of the most recent outbound segment; an RTO episode
        #: in the timer loop is attributed to this trace.
        self.last_tx_trace = None
        #: Whether closing this session releases its local port binding
        #: (false for accepted children, which share the listener's port,
        #: and for sessions migrated in from another stack).
        self.owns_port = owns_port
        #: The owner has called close() (shutdown() leaves it open): no
        #: one will read or write through this object again, so TIME_WAIT
        #: may replace it with a :class:`TimeWait` record.
        self.closed = False
        #: The TimeWait record that stands for this session in the stack:
        #: set once it was compacted (a timer pass still holding the
        #: session ticks the record) or while it is one rebuilt from a
        #: record to take a segment.
        self.tw = None
        #: A process is in :meth:`TCPStack._tcp_drain` for this session:
        #: True, or the Event it fires when done if someone waits on it.
        self.draining = False

    @property
    def local(self):
        return self.conn.local

    @property
    def remote(self):
        return self.conn.remote

    @property
    def state(self):
        return self.conn.state

    def __repr__(self):
        return "<TCPSession %s:%d %s>" % (*self.conn.local, self.conn.state.name)

    def listen(self, backlog=5):
        if self.conn.state != TCPState.CLOSED:
            raise TCPError("listen on active session")
        self.conn.open_passive()
        self.backlog = max(1, backlog)
        self.stack._tcp[(self.local[1], None, None)] = self

    def connect(self, remote):
        """Active open; blocks until ESTABLISHED or failure."""
        stack = self.stack
        conn = self.conn
        conn.open_active(remote)
        stack._register(self)
        yield from stack._tcp_drain(self)
        while True:
            if conn.is_established:
                return
            if conn.state == TCPState.CLOSED:
                stack._deregister(self)
                conn.raise_if_dead()
                raise TCPError("connection failed")
            yield self.notify.wait()

    def accept(self):
        """Block until a completed connection is available; return it."""
        while True:
            if self.accept_queue:
                return self.accept_queue.pop(0)
            if self.conn.state != TCPState.LISTEN:
                raise TCPError("accept on non-listening session")
            yield self.notify.wait()

    def send(self, data, dst=None):
        """Blocking send of all of ``data`` (charges the copyin path);
        returns the byte count.  A stream has one peer: ``dst`` is
        ignored, as BSD ignores the address of a sendto on one."""
        stack = self.stack
        ctx = stack.ctx
        p = ctx.params
        conn = self.conn
        data = bytes(data)
        sent = 0
        stack._trace_send_entry(len(data))
        # The protocol-entry lock joins the first copyin's hold.
        entry = ctx.locks.lock_cost
        while sent < len(data):
            taken = conn.send(data[sent:])
            if taken:
                cost = entry + p.mbuf_alloc
                if not stack.shared_buffers:
                    cost += ctx.copy_cost(taken)
                entry = 0.0
                yield ctx.charge(Layer.ENTRY_COPYIN, cost)
                stack.mbuf_stats.allocated += 1
                sent += taken
                yield from stack._tcp_drain(self)
            else:
                if entry:
                    yield ctx.charge(Layer.ENTRY_COPYIN, entry)
                    entry = 0.0
                yield self.notify.wait()
                conn.raise_if_dead()
        return sent

    def recv(self, max_bytes=None):
        """Blocking receive of up to ``max_bytes`` (None: whatever is
        buffered); returns ``(data, peer)``, with ``b""`` at EOF (peer
        closed).

        With SO_RCVTIMEO set (``recv_timeout_us``) the call raises
        :class:`SocketTimeout` if no data arrives in time.
        """
        stack = self.stack
        ctx = stack.ctx
        sim = ctx.sim
        conn = self.conn
        timeout_us = self.recv_timeout_us
        deadline = None if timeout_us is None else sim.now + timeout_us
        while True:
            available = conn.receivable()
            if available:
                tracer = ctx.accounting.tracer
                if self.last_rx_trace is not None:
                    # Join the inbound segment's timeline for the copyout.
                    adopt_trace(sim, self.last_rx_trace)
                    rx_time = self.last_rx_time
                    self.last_rx_time = None  # consume: record once
                    if (tracer is not None and tracer.enabled
                            and rx_time is not None):
                        waited = sim.now - rx_time
                        if waited > 0:
                            tracer.record_wait(
                                self.last_rx_trace, stack.name,
                                "socket_queue", "queue", rx_time, waited)
                elif tracer is not None and tracer.requests is not None:
                    adopt_trace(sim, None)
                data = conn.receive(
                    available if max_bytes is None else max_bytes)
                if stack.shared_buffers:
                    yield ctx.charge(Layer.COPYOUT_EXIT, ctx.params.proc_call)
                else:
                    yield ctx.charge_copy(Layer.COPYOUT_EXIT, len(data))
                yield from stack._tcp_drain(self)  # window updates
                return data, conn.remote
            if conn.at_eof():
                return b"", conn.remote
            conn.raise_if_dead()
            if conn.state == TCPState.CLOSED:
                return b"", conn.remote
            yield from stack._wait_or_timeout(self.notify, deadline)

    def poll(self):
        """Non-blocking readiness snapshot (select support)."""
        conn = self.conn
        return {
            "readable": conn.receivable() > 0
            or conn.at_eof()
            or bool(self.accept_queue)
            or conn.state == TCPState.CLOSED,
            "writable": conn.is_established and conn.snd_buffer.space() > 0,
            "error": conn.error is not None,
        }

    def set_option(self, option, value):
        """Apply one socket option; False when there is no such option."""
        conn = self.conn
        if option == "rcvbuf":
            conn.rcv_buffer.set_hiwat(value)
        elif option == "sndbuf":
            conn.snd_buffer.set_hiwat(value)
        elif option == "nodelay":
            conn.config.nodelay = bool(value)
        elif option == "rcvtimeo":
            self.recv_timeout_us = value
        elif option == "keepalive":
            conn.config.keepalive = bool(value)
        else:
            return False
        return True

    def shutdown(self):
        """shutdown(SHUT_WR): send FIN after queued data, keep reading.

        The session stays where it is (unlike close, which migrates it in
        the library placement); the read half remains usable until the
        peer's FIN arrives.
        """
        self.conn.close()
        yield from self.stack._tcp_drain(self)

    def close(self):
        """Close (FIN); does not linger for the handshake to finish."""
        self.closed = True
        self.conn.close()
        yield from self.stack._tcp_drain(self)
        self.stack._maybe_reap(self)


class UDPSession:
    """The message transport: a UDP endpoint's datagram queue plus
    blocking-IO plumbing."""

    DEFAULT_HIWAT = 41600  # BSD's udp receive-buffer default

    def __init__(self, stack, local, hiwat=DEFAULT_HIWAT):
        self.stack = stack
        self.local = local  # (ip, port)
        self.remote = None
        self.queue = []  # [(src_addr, payload, trace_id, enqueued_at)]
        self.queued_bytes = 0
        self.hiwat = hiwat
        self.notify = Notifier(stack.ctx.sim, "udp.notify")
        self.drops = 0
        self.selected = False
        self.recv_timeout_us = None  # SO_RCVTIMEO, None = block forever
        self.error = None  # an exception instance (ICMP error delivery)
        #: Telemetry hook (receive-queue occupancy, bytes); bound by the
        #: metrics registry when enabled, else None.
        self.depth_gauge = None
        if stack.metrics.enabled:
            stack.metrics.attach_udp_gauge(self, stack.name)

    def enqueue(self, src_addr, payload, trace=None):
        if self.queued_bytes + len(payload) > self.hiwat:
            self.drops += 1
            return False
        self.queue.append((src_addr, payload, trace,
                           self.stack.ctx.sim.now))
        self.queued_bytes += len(payload)
        gauge = self.depth_gauge
        if gauge is not None:
            gauge.record(self.queued_bytes)
        return True

    def dequeue(self):
        src, payload, trace, enqueued_at = self.queue.pop(0)
        self.queued_bytes -= len(payload)
        gauge = self.depth_gauge
        if gauge is not None:
            gauge.record(self.queued_bytes)
        return src, payload, trace, enqueued_at

    def __repr__(self):
        return "<UDPSession %s:%d>" % self.local

    def connect(self, remote):
        """Pin the remote endpoint (BSD 'connected' UDP).  Nothing to
        wait for: the empty result is what a caller's ``yield from``
        (the stream's handshake is a generator) runs through."""
        sessions = self.stack._udp
        sessions.pop((self.local[1], None, None), None)
        self.remote = remote
        sessions[(self.local[1], remote[0], remote[1])] = self
        return ()

    def send(self, data, dst=None):
        """Send one datagram (blocking only on the device queue);
        returns its length."""
        stack = self.stack
        ctx = stack.ctx
        p = ctx.params
        if dst is None:
            dst = self.remote
        if dst is None:
            raise ValueError("unconnected UDP send needs a destination")
        stack._trace_send_entry(len(data))
        if stack.udp_send_copies and not stack.shared_buffers:
            yield ctx.charge(
                Layer.ENTRY_COPYIN,
                p.socket_layer + ctx.copy_cost(len(data)) + p.mbuf_alloc)
        else:
            # The library references the caller's data in place: entry is
            # a procedure call (Table 4: 6-7 us flat for library UDP).
            yield ctx.charge(Layer.ENTRY_COPYIN, p.proc_call)
        stack.mbuf_stats.allocated += 1
        datagram = udp.encapsulate(
            stack.env.local_ip, dst[0], self.local[1], dst[1], data
        )
        yield ctx.charge(
            Layer.TCP_UDP_OUTPUT,
            ctx.checksum_cost(len(datagram))
            + (p.header_build + p.socket_layer + ctx.locks.lock_cost))
        yield from stack.ip_output(ip.PROTO_UDP, dst[0], datagram)
        return len(data)

    def recv(self, max_bytes=None):
        """Blocking receive of one whole datagram (``max_bytes`` does
        not truncate it); returns ``(payload, src_addr)``.

        A pending ICMP error on a connected session is raised (once), as
        BSD reports ECONNREFUSED on the next operation.  With SO_RCVTIMEO
        set (``recv_timeout_us``) the call raises :class:`SocketTimeout`.
        """
        stack = self.stack
        ctx = stack.ctx
        sim = ctx.sim
        timeout_us = self.recv_timeout_us
        deadline = None if timeout_us is None else sim.now + timeout_us
        while not self.queue:
            if self.error is not None:
                error, self.error = self.error, None
                raise error
            yield from stack._wait_or_timeout(self.notify, deadline)
        src, payload, rx_trace, enqueued_at = self.dequeue()
        tracer = ctx.accounting.tracer
        if rx_trace is not None:
            adopt_trace(sim, rx_trace)
            if tracer is not None and tracer.enabled:
                waited = sim.now - enqueued_at
                if waited > 0:
                    tracer.record_wait(rx_trace, stack.name, "socket_queue",
                                       "queue", enqueued_at, waited)
        elif tracer is not None and tracer.requests is not None:
            # Selective mode: this datagram is untraced — clear any
            # stale context so the copyout is not misattributed.
            adopt_trace(sim, None)
        if stack.shared_buffers:
            yield ctx.charge(Layer.COPYOUT_EXIT, ctx.params.proc_call)
        else:
            yield ctx.charge_copy(Layer.COPYOUT_EXIT, len(payload))
        return payload, src

    def poll(self):
        return {"readable": bool(self.queue), "writable": True,
                "error": False}

    def set_option(self, option, value):
        """Apply one socket option; False when there is no such option
        (the stream-only ones are accepted and change nothing)."""
        if option == "rcvbuf":
            self.hiwat = value
        elif option == "rcvtimeo":
            self.recv_timeout_us = value
        else:
            return option in ("sndbuf", "nodelay", "keepalive")
        return True

    def close(self):
        """Forget the session and release its port.  Returns the empty
        teardown a caller's ``yield from`` runs through (see connect)."""
        sessions = self.stack._udp
        if self.remote:
            sessions.pop(
                (self.local[1], self.remote[0], self.remote[1]), None
            )
        sessions.pop((self.local[1], None, None), None)
        try:
            self.stack.ports["udp"].release(
                self.stack.env.local_ip, self.local[1])
        except KeyError:
            pass
        return ()


class NetworkStack:
    """TCP/UDP/IP protocol machinery bound to one execution context."""

    def __init__(self, ctx, env, metrics, name="", udp_send_copies=True,
                 shared_buffers=False, tcp_defaults=None):
        self.ctx = ctx
        self.env = env
        self.name = name
        #: The host's MetricsRegistry.  Sessions created on this stack
        #: attach their telemetry through it when enabled.
        self.metrics = metrics
        #: False models the library's reference-passing UDP send path.
        self.udp_send_copies = udp_send_copies
        #: True models the NEWAPI shared application/stack buffers (§4.2).
        self.shared_buffers = shared_buffers
        self.tcp_defaults = tcp_defaults or {}
        self.ports = {"tcp": PortManager("tcp"), "udp": PortManager("udp")}
        #: (lport, rip, rport) -> TCPSession, or the TimeWait record of a
        #: closed one; listeners under (lport, None, None).
        self._tcp = {}
        self._udp = {}
        self.mbuf_stats = MbufStats()
        self.reassembler = ip.Reassembler(lambda: ctx.sim.now)
        self._ip_ident = 0
        self._shutdown = False
        self.unmatched_tcp = 0
        self.unmatched_udp = 0
        self.ip_input_errors = 0
        self.not_for_host = 0
        #: 4-tuple -> forward target of each session migrated away from
        #: this stack.  A straggler — a segment this stack's filter took
        #: before the session's new filter existed — never draws a RST:
        #: it goes on through the target's ``deliver`` (the new owner's
        #: filter delivery), or is dropped when the target is None.
        self.migrated = {}
        self.stragglers_forwarded = 0
        #: Called with (proto, local_port, remote_addr, exception) when an
        #: ICMP error matches no session in this stack — the OS server
        #: uses it to upcall errors into application-managed sessions.
        self.icmp_error_hook = None
        self._pings = {}  # (ident, seq) -> Event
        self._ping_ident = 0
        self.icmp_echoes_answered = 0
        self.icmp_errors_sent = 0
        self.select_notify = Notifier(ctx.sim, "select")
        self._timer_proc = ctx.sim.spawn(self._timer_loop(), name="%s.timers" % name)

    def shutdown(self, interrupt=False):
        """Stop the timer loop (ends the simulation's pending work).

        With ``interrupt=True`` the timer process is torn down immediately
        instead of on its next tick — the crash path, and the way a test
        quiesces a stack without running out the clock.
        """
        self._shutdown = True
        if interrupt and self._timer_proc.alive:
            self._timer_proc.interrupt("stack shutdown")

    # ==================================================================
    # Session creation, and what both transports' verbs share
    # ==================================================================

    def tcp_config(self, **overrides):
        settings = dict(self.tcp_defaults)
        settings.update(overrides)
        return TCPConfig(**settings)

    def tcp_create(self, local_port=None, config=None):
        """Create an unconnected TCP session (plain call, no charges)."""
        if local_port is None:
            local_port = self.ports["tcp"].bind_ephemeral(self.env.local_ip)
        else:
            self.ports["tcp"].bind(self.env.local_ip, local_port)
        conn = TCPConnection(
            (self.env.local_ip, local_port), config=config or self.tcp_config()
        )
        return self._session(conn)

    def _session(self, conn, owns_port=True):
        """A new session over ``conn``, probed while the metrics registry
        is enabled."""
        if self.metrics.enabled:
            self.metrics.attach_tcp_probe(conn, self.name)
        return TCPSession(self, conn, owns_port)

    def _trace_send_entry(self, size):
        """Start a "send" trace for callers that entered the stack
        directly (placement socket APIs begin one at their own entry, in
        which case this is a no-op)."""
        tracer = self.ctx.accounting.tracer
        if (tracer is not None and tracer.enabled
                and tracer.current() is None):
            tracer.begin("send", host=self.name, size=size)

    def _wait_or_timeout(self, notifier, deadline):
        """Wait for a notifier firing, honouring an optional deadline."""
        if deadline is None:
            yield notifier.wait()
            return
        remaining = deadline - self.ctx.sim.now
        if remaining <= 0:
            raise SocketTimeout("receive timed out")
        yield any_of(
            self.ctx.sim, [notifier.wait(), self.ctx.sim.timeout(remaining)]
        )
        if self.ctx.sim.now >= deadline:
            raise SocketTimeout("receive timed out")

    # ------------------------------------------------------------------
    # Session registration and migration
    # ------------------------------------------------------------------

    def _register(self, session):
        lport = session.local[1]
        rip, rport = session.remote if session.remote else (None, None)
        self._tcp[(lport, rip, rport)] = session

    def _deregister(self, session):
        """Remove a session from this stack's demux table, which is also
        what the timer pass ticks."""
        lport = session.local[1]
        rip, rport = session.remote if session.remote else (None, None)
        self._tcp.pop((lport, rip, rport), None)

    def adopt_tcp_state(self, state, config=None):
        """Import a migrated TCP session into this stack (Section 3.2)."""
        conn = TCPConnection((0, 0), config=config or self.tcp_config())
        conn.import_state(state)
        session = self._session(conn, owns_port=False)
        self.clear_tombstone(conn.local[1], conn.remote)
        self._register(session)
        return session

    def tcp_migration_snapshot(self, session):
        """Sequence-space metadata a server records about a session that
        lives in this (library) stack — what re-registration replays."""
        conn = session.conn
        return {"snd_nxt": conn.snd_nxt, "rcv_nxt": conn.rcv_nxt}

    def export_tcp_session(self, session, forward_to=None):
        """Export a session's state and remove it from this stack.

        The 4-tuple is tombstoned so stragglers still in this stack's
        input path do not trigger RSTs while the session lives elsewhere;
        with ``forward_to`` (a filter delivery) they are handed on to the
        session's new owner instead of being dropped.
        """
        self._deregister(session)
        lport = session.local[1]
        rip, rport = session.remote if session.remote else (None, None)
        self.migrated[(lport, rip, rport)] = forward_to
        return session.conn.export_state()

    def clear_tombstone(self, local_port, remote):
        """Drop a tombstone: the session migrated back to this stack, or
        its new owner's filter is gone (no straggler can reach us)."""
        rip, rport = remote if remote else (None, None)
        self.migrated.pop((local_port, rip, rport), None)

    def _maybe_reap(self, session):
        """Deregister sessions that reached CLOSED."""
        if session.conn.state == TCPState.CLOSED:
            self._deregister(session)
            self._release_port(session, session.local[1])

    def _release_port(self, entry, lport):
        if entry.owns_port:
            entry.owns_port = False
            try:
                self.ports["tcp"].release(self.env.local_ip, lport)
            except KeyError:
                pass  # already released

    def _compact(self, session):
        """Replace a closed TIME_WAIT session by its :class:`TimeWait`
        record — or hand a revived one back to the record it came from."""
        record = session.tw
        if record is not None:
            record.capture(session)
            return
        record = session.tw = TimeWait(session)
        self._tcp[(record.lport, record.rip, record.rport)] = record

    def _revive(self, record):
        """The whole session a TimeWait record stands for, to take one
        segment (``record.live`` until :meth:`_compact` hands it back).
        Not a new session: no tcp_probe is attached."""
        session = record.live = TCPSession(
            self, record.connection(self.env.local_ip),
            owns_port=record.owns_port)
        session.closed = True
        session.selected = record.selected
        session.tw = record
        return session

    def _retire(self, record):
        """Reap a TimeWait record whose 2MSL expired."""
        self._tcp.pop((record.lport, record.rip, record.rport), None)
        self._release_port(record, record.lport)

    # ------------------------------------------------------------------

    def udp_create(self, local_port=None, hiwat=UDPSession.DEFAULT_HIWAT):
        if local_port is None:
            local_port = self.ports["udp"].bind_ephemeral(self.env.local_ip)
        else:
            self.ports["udp"].bind(self.env.local_ip, local_port)
        session = UDPSession(self, (self.env.local_ip, local_port), hiwat=hiwat)
        self._udp[(local_port, None, None)] = session
        return session

    def adopt_udp_session(self, local, remote=None,
                          hiwat=UDPSession.DEFAULT_HIWAT):
        """Install a migrated (server-created) UDP session."""
        session = UDPSession(self, local, hiwat=hiwat)
        session.remote = remote
        if remote:
            self._udp[(local[1], remote[0], remote[1])] = session
        else:
            self._udp[(local[1], None, None)] = session
        return session

    # ==================================================================
    # IP output
    # ==================================================================

    def ip_output(self, proto, dst_ip, payload, ttl=None):
        """Wrap ``payload`` in IP (+Ethernet) and transmit, fragmenting to
        the MTU when necessary."""
        p = self.ctx.params
        self._ip_ident = (self._ip_ident + 1) & 0xFFFF
        yield self.ctx.charge(Layer.IP_OUTPUT, p.ip_output_overhead)
        packet = ip.encapsulate(
            self.env.local_ip, dst_ip, proto, payload, ident=self._ip_ident,
            ttl=ttl if ttl is not None else ip.DEFAULT_TTL,
        )
        next_hop = self.env.route(dst_ip)
        if next_hop is None:
            # A route change reached this application between two
            # segments (a retransmit timer asks nobody first): refetch,
            # as resolve() below does for an invalidated ARP mapping.
            next_hop = yield from self.env.prime_route(self.ctx, dst_ip)
        for frag in ip.fragment(packet, ethernet.MTU):
            mac = yield from self.env.resolve(self.ctx, next_hop)
            frame = ethernet.encapsulate(
                mac, self.env.local_mac, ethernet.ETHERTYPE_IP, frag
            )
            yield from self.env.send_frame(self.ctx, frame)

    def _tcp_drain(self, session):
        """Transmit everything the TCP machine queued (charging the
        tcp_output layer costs).

        One drainer per session: a process that finds another one mid-
        drain leaves its segments to it, since that drainer loops until
        the outbox is empty.  Two drainers taking turns between yields
        would put later segments on the wire ahead of earlier ones.
        """
        proc = self.ctx.sim.current
        tid = proc.trace_ctx if proc is not None else None
        if tid is not None:
            session.last_tx_trace = tid
        if session.draining:
            return
        conn = session.conn
        session.draining = True
        try:
            while conn._outbox:  # has_output() inlined (hot drain loop)
                for seg in conn.take_output():
                    p = self.ctx.params
                    yield self.ctx.charge(
                        Layer.TCP_UDP_OUTPUT,
                        (p.header_build + p.socket_layer
                         + self.ctx.locks.lock_cost)
                        + self.ctx.checksum_cost(len(seg.payload) + 20))
                    packed = seg.pack(self.env.local_ip, conn.remote[0])
                    yield from self.ip_output(ip.PROTO_TCP, conn.remote[0],
                                              packed)
        finally:
            done, session.draining = session.draining, False
            if done is not True:
                done.succeed()
        self._maybe_reap(session)

    def _tcp_flush(self, session):
        """Drain ``session``, returning only once its outbox is empty:
        another process's drain in progress is waited out."""
        while True:
            yield from self._tcp_drain(session)
            if not session.draining:
                return
            if session.draining is True:
                session.draining = self.ctx.sim.event("tcp.drained")
            yield session.draining

    # ==================================================================
    # Receive path
    # ==================================================================

    def input_frame(self, frame):
        """Process one Ethernet frame handed up by the packet filter.

        Charges the receive-path layers: mbuf packaging, IP input, TCP/UDP
        input (including the checksum over the data), and user wakeup.
        """
        p = self.ctx.params
        yield self.ctx.charge(
            Layer.MBUF_QUEUE, p.mbuf_alloc + self.ctx.locks.lock_cost
        )
        self.mbuf_stats.allocated += 1
        try:
            _eth, packet = ethernet.decapsulate(frame)
        except ValueError:
            return
        yield self.ctx.charge(Layer.IPINTR, p.ipintr_overhead)
        try:
            packet = self.reassembler.input(packet)
        except ValueError:
            return
        if packet is None:
            return  # fragment: incomplete
        try:
            header, payload = ip.decapsulate(packet, verify=True)
        except ValueError:
            # A corrupted IP header must cost this one frame, not the
            # input loop that carried it — every later frame on the
            # session funnels through the same consumer process.
            self.ip_input_errors += 1
            return
        if header.dst != self.env.local_ip:
            # To our station address but another host's IP (a stale ARP
            # entry, a misdirected route): the NIC's station filter only
            # keeps out frames for other MACs.  The in-kernel placements
            # catch whole protocols with one filter, so the packet gets
            # this far; answering it (RSTs, port unreachables) or
            # delivering it to a same-port session would corrupt the
            # real owner's sessions.  BSD's ip_input drops here unless
            # the host is a forwarder; so do we.
            self.not_for_host += 1
            return
        if header.proto == ip.PROTO_TCP:
            yield from self._tcp_input(header, payload, frame)
        elif header.proto == ip.PROTO_UDP:
            yield from self._udp_input(header, payload, packet)
        elif header.proto == ip.PROTO_ICMP:
            yield from self._icmp_input(header, payload)

    def _tcp_input(self, header, payload, frame):
        p = self.ctx.params
        cost = self.ctx.checksum_cost(len(payload))
        try:
            seg = TCPSegment.unpack(header.src, header.dst, payload)
        except ValueError:
            # A corrupt segment is dropped silently, as TCP does, once
            # its checksum is paid for.
            yield self.ctx.charge(Layer.TCP_UDP_INPUT, cost)
            return
        yield self.ctx.charge(
            Layer.TCP_UDP_INPUT,
            cost + (p.header_build + self.ctx.locks.lock_cost
                    + p.socket_layer))
        key = (seg.dst_port, header.src, seg.src_port)
        if key in self.migrated:
            # A straggler for a migrated session: on to its new owner,
            # paid for on this stack's context.
            target = self.migrated[key]
            if target is not None:
                self.stragglers_forwarded += 1
                yield from target.deliver(self.ctx, frame, False, 0.0)
            return
        session = self._tcp_demux(header.src, seg)
        if session is None:
            self.unmatched_tcp += 1
            rst = rst_for(seg)
            if rst is not None:
                packed = rst.pack(self.env.local_ip, header.src)
                yield from self.ip_output(ip.PROTO_TCP, header.src, packed)
            return
        if session.__class__ is TimeWait:
            session = session.live or self._revive(session)
        conn = session.conn
        was_listener = conn.state == TCPState.LISTEN
        sim = self.ctx.sim
        proc = sim.current
        session.last_rx_trace = proc.trace_ctx if proc is not None else None
        session.last_rx_time = sim._now
        conn.segment_arrives(seg, src_ip=header.src)
        if was_listener and conn.state == TCPState.SYN_RECEIVED:
            self._register(session)
        yield from self._wake(session.notify, session.selected)
        yield from self._tcp_drain(session)
        self._promote_child(session)
        if conn.state == TCPState.CLOSED:
            self._maybe_reap(session)
        elif conn.state == TCPState.TIME_WAIT and TimeWait.fits(session):
            self._compact(session)

    def _tcp_demux(self, src_ip, seg):
        """Find the session for a segment: exact 4-tuple, then listener."""
        exact = self._tcp.get((seg.dst_port, src_ip, seg.src_port))
        if exact is not None:
            return exact
        listener = self._tcp.get((seg.dst_port, None, None))
        if listener is None:
            return None
        # A listener never processes segments itself: each SYN gets a
        # fresh child connection (BSD's sonewconn), bounded by the backlog.
        # Anything else — say a straggler ACK from a connection that died
        # with a crashed server incarnation — must NOT clone a child: the
        # unmatched path answers it with a RST addressed from the segment.
        if not seg.flags & SYN:
            return None
        if len(listener.children) + len(listener.accept_queue) >= listener.backlog:
            return None  # backlog full: drop, the peer will retry
        # Children inherit the listener's buffer sizes and options, as
        # BSD-accepted sockets do.
        lcfg = listener.conn.config
        child_conn = TCPConnection(
            (self.env.local_ip, seg.dst_port),
            config=self.tcp_config(
                snd_buf=listener.conn.snd_buffer.hiwat,
                rcv_buf=listener.conn.rcv_buffer.hiwat,
                nodelay=lcfg.nodelay,
                delayed_ack=lcfg.delayed_ack,
                mss=lcfg.mss,
                window_scale=lcfg.window_scale,
            ),
        )
        child_conn.open_passive()
        child = self._session(child_conn, owns_port=False)
        child.parent = listener
        listener.children[(src_ip, seg.src_port)] = child
        return child

    def _promote_child(self, session):
        """Move a completed child connection onto its listener's queue."""
        listener = session.parent
        if listener is None:
            return
        if session.conn.state in (TCPState.ESTABLISHED, TCPState.CLOSE_WAIT):
            key = (session.remote[0], session.remote[1])
            if key in listener.children:
                del listener.children[key]
                listener.accept_queue.append(session)
                listener.notify.fire()
        elif session.conn.state == TCPState.CLOSED:
            key = (session.remote[0], session.remote[1]) if session.remote else None
            listener.children.pop(key, None)

    def _udp_input(self, header, payload, packet=None):
        p = self.ctx.params
        cost = self.ctx.checksum_cost(len(payload))
        try:
            uh, data = udp.decapsulate(header.src, header.dst, payload)
        except ValueError:
            yield self.ctx.charge(Layer.TCP_UDP_INPUT, cost)
            return
        yield self.ctx.charge(
            Layer.TCP_UDP_INPUT,
            cost + (p.header_build + self.ctx.locks.lock_cost)
            + p.socket_layer)
        session = self._udp.get((uh.dst_port, header.src, uh.src_port))
        if session is None:
            session = self._udp.get((uh.dst_port, None, None))
        if session is None:
            self.unmatched_udp += 1
            if packet is not None:
                yield from self._send_port_unreachable(header, packet)
            return
        session.enqueue((header.src, uh.src_port), data,
                        trace=current_trace(self.ctx.sim))
        yield from self._wake(session.notify, session.selected)

    # ==================================================================
    # ICMP (the "exceptional packets" of Section 3.1)
    # ==================================================================

    def _send_port_unreachable(self, header, original_packet):
        message = icmp.ICMPMessage.port_unreachable(original_packet)
        self.icmp_errors_sent += 1
        yield self.ctx.charge(
            Layer.TCP_UDP_OUTPUT, self.ctx.params.header_build
        )
        yield from self.ip_output(ip.PROTO_ICMP, header.src, message.pack())

    def _icmp_input(self, header, payload):
        cost = self.ctx.checksum_cost(len(payload))
        try:
            message = icmp.ICMPMessage.unpack(payload)
        except ValueError:
            yield self.ctx.charge(Layer.TCP_UDP_INPUT, cost)
            return
        yield self.ctx.charge(Layer.TCP_UDP_INPUT,
                              cost + self.ctx.params.header_build)
        if message.type == icmp.TYPE_ECHO_REQUEST:
            self.icmp_echoes_answered += 1
            reply = message.echo_reply()
            yield from self.ip_output(ip.PROTO_ICMP, header.src, reply.pack())
        elif message.type == icmp.TYPE_ECHO_REPLY:
            event = self._pings.pop((message.ident, message.seq), None)
            if event is not None and not event.triggered:
                event.succeed(("reply", header.src, self.ctx.sim.now))
        elif message.is_error:
            self._icmp_error(header, message)

    def _icmp_error(self, outer_header, message):
        """Deliver an ICMP error to the session that provoked it."""
        quoted = message.quoted_packet()
        try:
            inner = ip.IPHeader.unpack(quoted, verify=False)
        except ValueError:
            return
        if inner.proto == ip.PROTO_ICMP and len(quoted) >= inner.header_len + 8:
            # An error about one of our echo probes: resolve the pending
            # ping with who reported it (the traceroute mechanism).
            ident = int.from_bytes(
                quoted[inner.header_len + 4 : inner.header_len + 6], "big"
            )
            seq = int.from_bytes(
                quoted[inner.header_len + 6 : inner.header_len + 8], "big"
            )
            event = self._pings.pop((ident, seq), None)
            if event is not None and not event.triggered:
                kind = ("exceeded"
                        if message.type == icmp.TYPE_TIME_EXCEEDED
                        else "unreachable")
                event.succeed((kind, outer_header.src, self.ctx.sim.now))
            return
        if inner.proto != ip.PROTO_UDP or len(quoted) < inner.header_len + 4:
            return  # TCP errors are left to its own retransmit machinery
        sport = int.from_bytes(
            quoted[inner.header_len : inner.header_len + 2], "big"
        )
        dport = int.from_bytes(
            quoted[inner.header_len + 2 : inner.header_len + 4], "big"
        )
        error = PortUnreachable(
            "udp port %d unreachable at %s" % (dport, inner.dst)
        )
        session = self._udp.get((sport, inner.dst, dport))
        if session is not None:
            session.error = error
            session.notify.fire()
        elif self.icmp_error_hook is not None:
            self.icmp_error_hook(ip.PROTO_UDP, sport, (inner.dst, dport), error)

    def icmp_probe(self, dst_ip, ttl=None, payload_size=56,
                   timeout_us=5_000_000.0):
        """Send one ICMP echo probe; returns (status, reporter_ip, rtt_us).

        ``status`` is "reply" (the target answered), "exceeded" (a router
        killed the TTL — the traceroute signal), "unreachable", or
        "timeout".  ``reporter_ip`` identifies who answered.
        """
        self._ping_ident = (self._ping_ident + 1) & 0xFFFF
        key = (self._ping_ident, 1)
        request = icmp.ICMPMessage.echo_request(
            key[0], key[1], payload=b"\x00" * payload_size
        )
        event = self.ctx.sim.event("ping")
        self._pings[key] = event
        started = self.ctx.sim.now
        try:
            yield from self.ip_output(ip.PROTO_ICMP, dst_ip, request.pack(),
                                      ttl=ttl)
        except arp.ArpTimeout:
            self._pings.pop(key, None)
            return ("timeout", None, None)
        timeout = self.ctx.sim.timeout(timeout_us)
        winner, value = yield any_of(self.ctx.sim, [event, timeout])
        if winner is event:
            status, reporter, when = value
            return (status, reporter, when - started)
        self._pings.pop(key, None)
        return ("timeout", None, None)

    def ping(self, dst_ip, payload_size=56, timeout_us=5_000_000.0):
        """Send an ICMP echo request; returns the RTT in microseconds, or
        None on timeout.  (The simulated /sbin/ping.)"""
        status, _reporter, rtt = yield from self.icmp_probe(
            dst_ip, payload_size=payload_size, timeout_us=timeout_us
        )
        return rtt if status == "reply" else None

    def traceroute(self, dst_ip, max_hops=16, timeout_us=3_000_000.0):
        """Discover the path to ``dst_ip`` hop by hop.

        Returns a list of (hop_number, reporter_ip_or_None, rtt_us_or_None)
        ending at the target (or after ``max_hops``).
        """
        hops = []
        for ttl in range(1, max_hops + 1):
            status, reporter, rtt = yield from self.icmp_probe(
                dst_ip, ttl=ttl, timeout_us=timeout_us
            )
            if status == "timeout":
                hops.append((ttl, None, None))
            else:
                hops.append((ttl, reporter, rtt))
                if status == "reply":
                    break
        return hops

    def _wake(self, notifier, selected=False):
        """Fire a notifier, charging the wakeup cost if anyone is waiting."""
        if notifier.waiters:
            yield self.ctx.charge_wakeup(Layer.WAKEUP_USER)
        notifier.fire()
        if selected:
            self.select_notify.fire()

    # ==================================================================
    # Timers
    # ==================================================================

    def _timer_loop(self):
        """Drive TCP's 200 ms fast and 500 ms slow timers: each tick
        visits every session the stack owns, as 1993 BSD's
        ``tcp_fasttimo``/``tcp_slowtimo`` did."""
        elapsed = 0.0
        next_slow = SLOW_TICK_US
        while not self._shutdown:
            yield Timeout(FAST_TICK_US)
            elapsed += FAST_TICK_US
            slow = elapsed >= next_slow
            if slow:
                next_slow += SLOW_TICK_US
                # Telemetry piggybacks on the slow tick: pull gauges get
                # sampled here without any dedicated simulation process.
                # Every stack's timer loop ticks at the same instants, so
                # the registry dedupes by simulated time.
                self.metrics.sample()
            yield from self._tick_sessions(slow)

    def _tick_sessions(self, slow):
        """One timer pass over a snapshot of the sessions.

        The snapshot lives in this frame, not the timer loop's: a session
        reaped or compacted during the pass must not stay reachable from
        the loop's suspended frame until the next tick."""
        sessions = list(self._tcp.values())
        tracer = self.ctx.accounting.tracer
        trace_rexmt = tracer is not None and tracer.enabled
        for session in sessions:
            # A TimeWait record, or a session compacted into one since
            # the snapshot: the record is what this pass ticks — or the
            # session it is revived as while it takes a segment.
            record = session if session.__class__ is TimeWait else session.tw
            if record is not None:
                if record.live is None:
                    self._tick_time_wait(record, slow)
                    continue
                session = record.live
            conn = session.conn
            if conn.state == TCPState.CLOSED:
                self._maybe_reap(session)
                continue
            conn.tick_fast()
            if slow:
                if trace_rexmt and session.last_tx_trace is not None:
                    # Observe an RTO episode: if this slow tick fires the
                    # retransmit timer, the interval the sender just sat
                    # out (approximated by the pre-backoff RTO) is
                    # loss-recovery time on the last traced outbound
                    # segment's request.  Pure observation — tick_slow
                    # runs identically either way.
                    before = conn.stats.retransmits
                    rto_us = conn.rtt.rto_ticks() * SLOW_TICK_US
                    conn.tick_slow()
                    if conn.stats.retransmits > before:
                        now = self.ctx.sim.now
                        tracer.record_wait(
                            session.last_tx_trace, self.name,
                            "tcp_rexmt", "loss-recovery",
                            now - rto_us, rto_us)
                else:
                    conn.tick_slow()
            if conn.has_output():
                yield from self._tcp_drain(session)
                yield from self._wake(session.notify, session.selected)
            elif slow and conn.state == TCPState.CLOSED:
                yield from self._wake(session.notify, session.selected)

    def _tick_time_wait(self, record, slow):
        """A record's part of a timer pass: what ``tick_slow``, the wakeup
        and the reap do to a whole session in TIME_WAIT (its fast tick,
        idle count and notifier have no one left to observe them)."""
        if not record.ticks:
            # Expired on an earlier pass: reaped now, like a whole
            # session the pass finds CLOSED.
            self._retire(record)
            return
        if slow:
            record.ticks -= 1
            if not record.ticks and record.selected:
                self.select_notify.fire()

    # ==================================================================
    # Introspection
    # ==================================================================

    def tcp_session_count(self):
        return len(self._tcp)

    def time_wait_count(self):
        """Sessions waiting out 2MSL, whole or as TimeWait records (they
        still hold a demux entry and, if they own one, their port)."""
        return sum(1 for entry in self._tcp.values()
                   if entry.state == TCPState.TIME_WAIT)

    def udp_session_count(self):
        return len(self._udp)
