"""The operating system server of the paper's decomposed architecture.

The server manages everything that is *not* the send/receive fast path
(Figure 1): session creation and naming (the port namespace), connection
establishment and teardown, the shared routing/ARP metastate, fork and
select cooperation, and cleanup after dying applications.  Data transfer
never touches it while a session is application-managed.

It extends the UX machinery (it is, as in the paper, a derivative of
CMU's UNIX server): sessions migrated *back* from applications — by fork,
or while closing — are served through the ordinary RPC data path of
:class:`~repro.osserver.unix_server.UnixServer`.

Migration follows Section 3.2 exactly: a migrating session carries its
local endpoint, remote endpoint, connection state variables (with any
queued data), and a packet-filter port; the server installs/removes the
kernel packet filters on every transition.  "Any queued data" includes
segments the server's own filter took just before the session left:
they are forwarded to the session's new filter, not dropped.
"""

from repro.filter.compile import compile_session_filter
from repro.kernel.kernel import IPCDelivery
from repro.net import ip
from repro.net.ports import PortInUse
from repro.net.tcp.header import TCPSegment, RST, ACK
from repro.net.tcp.state import TCPState
from repro.stack.engine import Notifier
from repro.stack.instrument import Layer
from repro.trace import adopt_trace, begin_send_trace
from repro.core.sockets import (
    SOCK_DGRAM,
    SOCK_STREAM,
    SocketError,
    config_from_opts,
)
from repro.osserver.unix_server import REMAP_PER_BYTE, UnixServer

#: How long a dead application's ports stay quarantined (microseconds);
#: the paper delays the reopening of aborted connections.
PORT_QUARANTINE_US = 60 * 1_000_000.0


class SessionRecord:
    """The server's record of one decomposed network session."""

    __slots__ = ("sid", "kind", "app_id", "mode", "lport", "remote",
                 "app_filter", "server_filter", "server_handle", "owns_port",
                 "server_session", "last_snd_nxt", "last_rcv_nxt")

    def __init__(self, sid, kind, app_id):
        self.sid = sid
        self.kind = kind
        self.app_id = app_id
        self.mode = "embryonic"  # embryonic -> app / server -> closed
        self.lport = None
        self.remote = None
        self.app_filter = None  # kernel FilterHandle while app-managed
        self.server_filter = None  # kernel FilterHandle while server-managed
        self.server_handle = None  # UX-style fd while server-managed
        self.owns_port = True  # accepted children share the listener's port
        self.server_session = None  # engine session while server-managed
        # Sequence state at migration-out time: enough for the server to
        # abort the connection credibly if the application dies (§3.2).
        self.last_snd_nxt = 0
        self.last_rcv_nxt = 0


class NetServer(UnixServer):
    """The paper's OS server: UX plus the proxy/migration interface."""

    #: proxy_select parks on app-supplied timeouts just like UX select,
    #: so it is latency-tracked but exempt from the slow-op log.
    SLOW_OP_EXEMPT = UnixServer.SLOW_OP_EXEMPT | {"proxy_select"}

    def __init__(self, host, accounting=None, tcp_defaults=None,
                 heavyweight_sync=True, name=None):
        super().__init__(
            host,
            accounting=accounting,
            tcp_defaults=tcp_defaults,
            heavyweight_sync=heavyweight_sync,
            name=name or ("%s.netserver" % host.name),
        )
        self._apps = {}  # app_id -> ProtocolLibrary
        self._app_status = {}  # app_id -> Notifier (select cooperation)
        # ICMP is "exceptional" traffic (Section 3.1): it arrives via the
        # catch-all filters at the OS server, which answers echoes and
        # upcalls errors into the application session they belong to.
        self.stack.icmp_error_hook = self._icmp_error_upcall
        self.icmp_upcalls = 0
        self._records = {}
        self._next_sid = 1
        self.quarantined_ports = {}  # port -> release deadline
        self.migrations_out = 0
        self.migrations_in = 0
        self.aborted_for_death = 0
        # Crash/restart state (the failure-isolation half of the paper's
        # argument: the server can die and restart while library-resident
        # sessions keep moving data).
        self.alive = True
        self.generation = 0
        self.crashes = 0
        self.sessions_restored = 0
        self._background = {}  # sid -> graceful-close Process

    def _alloc_sid(self):
        sid = self._next_sid
        self._next_sid += 1
        return sid

    # ==================================================================
    # Crash and restart (failure isolation, the decomposition payoff)
    # ==================================================================

    def crash(self):
        """Kill this server incarnation, abruptly.

        Everything task-local dies: the RPC dispatcher and packet-input
        loops, in-flight request handlers, background closes, the stack
        (with its timers), the descriptor table, every session record, and
        the kernel filters the *server* owns.  What survives is exactly
        what lives elsewhere: per-session kernel filters pointing into
        application libraries, the libraries' own stacks and cached
        metastate, and the host-level ARP service.  Clients with calls in
        flight see :class:`~repro.kernel.ipc.ServerCrashed`.
        """
        if not self.alive:
            raise SocketError("crash() on a dead server")
        self.alive = False
        self.crashes += 1
        self.rpc.down("netserver crashed")
        for proc in (self._dispatch_proc, self._input_proc):
            if proc.alive:
                proc.interrupt("server crashed")
        for proc in list(self._inflight.values()):
            if proc.alive:
                proc.interrupt("server crashed")
        self._inflight.clear()
        for proc in list(self._background.values()):
            if proc.alive:
                proc.interrupt("server crashed")
        self._background.clear()
        for handle in self._catch_all_handles:
            self.host.kernel.remove_filter(handle)
        self._catch_all_handles = []
        for record in self._records.values():
            if record.server_filter is not None:
                self.host.kernel.remove_filter(record.server_filter)
                record.server_filter = None
        self._records = {}
        self._apps = {}
        self._app_status = {}
        self.quarantined_ports = {}
        # The dead incarnation's stack: stop its timers now.  The object
        # stays referenced (netstat of a dead server is legal) until
        # restart() replaces it.
        self.stack.shutdown(interrupt=True)

    def restart(self):
        """Boot a fresh incarnation and reopen the RPC port.

        The port namespace and session records start empty; surviving
        libraries repopulate them through ``proxy_reregister`` RPCs (their
        re-registration watchers fire as soon as the port reopens).
        """
        if self.alive:
            raise SocketError("restart() on a live server")
        self.generation += 1
        self.alive = True
        self._boot()
        self.stack.icmp_error_hook = self._icmp_error_upcall
        self.rpc.up()

    def op_proxy_reregister(self, message):
        """A surviving library reports itself and its live sessions after
        a restart; the server rebuilds records, port bindings, kernel
        filter bookkeeping, and listeners from the report.

        Idempotent per session id (retried RPCs may replay it); listeners
        are rebuilt in full (fresh engine session + server filter), while
        app-managed sessions only need their record and port binding back
        — their data path never left the application.
        """
        library, sessions = message.args
        self.register_app(library)
        restored = 0
        handles = {}  # sid -> fresh server handle, for rebuilt listeners
        # Listeners first, so an accepted child's shared port resolves to
        # owns_port=False via the bind conflict below.
        for snap in sorted(sessions, key=lambda s: not s.get("listener")):
            sid = snap["sid"]
            if sid in self._records:
                # A retry already rebuilt this one; still report its
                # handle so the replayed reply carries the full map.
                existing = self._records[sid].server_handle
                if existing is not None:
                    handles[sid] = existing
                continue
            self._next_sid = max(self._next_sid, sid + 1)
            record = SessionRecord(sid, snap["kind"], library.app_id)
            record.lport = snap["lport"]
            record.remote = tuple(snap["remote"]) if snap.get("remote") else None
            if record.lport is not None:
                proto = "tcp" if snap["kind"] == SOCK_STREAM else "udp"
                try:
                    self.stack.ports[proto].bind(self.host.ip, record.lport)
                except PortInUse:
                    record.owns_port = False
            self._records[sid] = record
            if snap.get("embryonic"):
                # A crash caught this session between proxy_socket and its
                # bind/connect: the bare record (sid, kind, maybe a
                # reserved port) is all the retried RPC needs to proceed.
                restored += 1
                continue
            if snap.get("listener"):
                listener = self._stream_for(record, snap.get("opts"))
                listener.listen(snap.get("backlog", 5))
                record.server_session = listener
                record.mode = "server"
                # The rebuilt listener's filter is a port wildcard; it
                # must sit BEHIND the surviving sessions' exact filters
                # (demux is first-match), exactly where the original
                # install order left it before the crash.  front=True
                # here would steal live connections' inbound segments
                # into the listener's stack.
                record.server_filter = self._install_server_filter(
                    ip.PROTO_TCP, record.lport, None, front=False
                )
                record.server_handle = self.fds.alloc(
                    SOCK_STREAM, listener
                ).fd
                handles[sid] = record.server_handle
            else:
                record.mode = "app"
                record.last_snd_nxt = snap.get("snd_nxt", 0)
                record.last_rcv_nxt = snap.get("rcv_nxt", 0)
                record.app_filter = snap.get("app_filter")
            restored += 1
        self.sessions_restored += restored
        yield self.ctx.charge(
            Layer.ENTRY_COPYIN, self.ctx.params.socket_layer
        )
        return (restored, handles), 0

    # ------------------------------------------------------------------
    # Application registration
    # ------------------------------------------------------------------

    def register_app(self, library):
        """Register an application's protocol library with the server.

        Wires the metastate invalidation callbacks of Section 3.3: changes
        to the authoritative ARP cache or route table invalidate the app's
        cached copy.
        """
        self._apps[library.app_id] = library
        self._app_status[library.app_id] = Notifier(
            self.host.sim, "appstatus%d" % library.app_id
        )
        self.host.arp.register_invalidation(library.metastate.invalidate_arp)
        self.host.route_table.register_invalidation(
            library.metastate.invalidate_routes)
        return library.app_id

    def _library(self, app_id):
        try:
            return self._apps[app_id]
        except KeyError:
            raise SocketError("unregistered application %r" % app_id) from None

    def _record(self, sid):
        try:
            return self._records[sid]
        except KeyError:
            raise SocketError("unknown session id %r" % sid) from None

    # ------------------------------------------------------------------
    # Filter plumbing
    # ------------------------------------------------------------------

    def _install_server_filter(self, proto, lport, remote, front=True):
        """Point a session's packets at the server's own input port."""
        rip, rport = remote if remote else (None, None)
        program = compile_session_filter(
            proto, self.host.ip, lport, remote_ip=rip, remote_port=rport
        )
        return self.host.kernel.install_filter(
            program,
            IPCDelivery(self._input_port, remap_per_byte=REMAP_PER_BYTE),
            accounting=self.accounting,
            name="%s.srvfilter:%d" % (self.name, lport),
            front=front,
        )

    def _install_app_filter(self, record, proto, remote):
        """Create the app-side packet-filter port and point the session's
        packets at it.  Returns the receiver the library will drain."""
        library = self._library(record.app_id)
        delivery, receiver = library.make_delivery()
        rip, rport = remote if remote else (None, None)
        program = compile_session_filter(
            proto, self.host.ip, record.lport, remote_ip=rip, remote_port=rport
        )
        record.app_filter = self.host.kernel.install_filter(
            program,
            delivery,
            accounting=library.accounting,
            name="%s.appfilter:%d" % (self.name, record.lport),
            front=True,
        )
        library.note_app_filter(record.sid, record.app_filter)
        return receiver

    def _remove_app_filter(self, record):
        if record.app_filter is not None:
            self.host.kernel.remove_filter(record.app_filter)
            record.app_filter = None
            library = self._apps.get(record.app_id)
            if library is not None:
                library.forget_app_filter(record.sid)
            if record.kind == SOCK_STREAM:
                # Its stragglers' forward target is gone with it.
                self.stack.clear_tombstone(record.lport, record.remote)

    def _migrate_out(self, record, session):
        """Hand an established stream to its application (Section 3.2):
        point its packets at a fresh app filter and export its state.
        Segments our own filter took before the app filter existed are
        still queued for this stack; the exported 4-tuple forwards them
        through the app filter's delivery.  Returns ``(state,
        receiver)``."""
        receiver = self._install_app_filter(record, ip.PROTO_TCP,
                                            record.remote)
        state = self.stack.export_tcp_session(
            session, forward_to=record.app_filter.delivery)
        record.last_snd_nxt = state["snd_nxt"]
        record.last_rcv_nxt = state["rcv_nxt"]
        record.mode = "app"
        self.migrations_out += 1
        return state, receiver

    def _stream_for(self, record, opts):
        """A fresh TCP session on the port ``record`` owns."""
        session = self.stack.tcp_create(
            config=config_from_opts(self.stack, opts))
        # tcp_create bound an ephemeral port; the record's is the real one.
        self.stack.ports["tcp"].release(self.host.ip, session.local[1])
        session.conn.local = (self.host.ip, record.lport)
        session.owns_port = False
        return session

    def _alloc_port(self, proto_name, port):
        self._expire_quarantine()
        if port and port in self.quarantined_ports:
            raise SocketError("port %d is quarantined" % port)
        manager = self.stack.ports[proto_name]
        if port:
            return manager.bind(self.host.ip, port)
        while True:
            candidate = manager.bind_ephemeral(self.host.ip)
            if candidate not in self.quarantined_ports:
                return candidate
            manager.release(self.host.ip, candidate)

    def _expire_quarantine(self):
        now = self.host.sim.now
        expired = [p for p, t in self.quarantined_ports.items() if t <= now]
        for port in expired:
            del self.quarantined_ports[port]

    # ==================================================================
    # Proxy interface (the server-side half of Table 1)
    # ==================================================================

    def op_proxy_socket(self, message):
        app_id, kind = message.args
        self._library(app_id)  # validate registration
        if kind not in (SOCK_STREAM, SOCK_DGRAM):
            raise SocketError("unsupported socket type %r" % kind)
        sid = self._alloc_sid()
        self._records[sid] = SessionRecord(sid, kind, app_id)
        yield self.ctx.charge(Layer.ENTRY_COPYIN, self.ctx.params.socket_layer)
        return sid, 0

    def op_proxy_bind(self, message):
        """Set the local endpoint.  UDP sessions migrate to the app here;
        TCP sessions only get their port reserved (Section 3.2)."""
        sid, port = message.args
        record = self._record(sid)
        if record.kind == SOCK_DGRAM:
            record.lport = self._alloc_port("udp", port)
            receiver = self._install_app_filter(record, ip.PROTO_UDP, None)
            record.mode = "app"
            self.migrations_out += 1
            yield self.ctx.charge(
                Layer.ENTRY_COPYIN, self.ctx.params.socket_layer
            )
            return (record.lport, receiver), 0
        record.lport = self._alloc_port("tcp", port)
        yield self.ctx.charge(Layer.ENTRY_COPYIN, self.ctx.params.socket_layer)
        return (record.lport, None), 0

    def op_proxy_connect(self, message):
        """Set the remote endpoint; both protocols migrate to the app.

        For TCP the server performs the entire multi-phase handshake (the
        extra RPC is negligible next to it, Section 3.2) and hands over
        the established session's state variables.
        """
        sid, addr, opts = message.args
        record = self._record(sid)
        addr = tuple(addr)
        if record.kind == SOCK_DGRAM:
            if record.lport is None:
                record.lport = self._alloc_port("udp", 0)
            elif record.mode == "app":
                # Re-connecting a bound session narrows its filter.
                self._remove_app_filter(record)
            record.remote = addr
            receiver = self._install_app_filter(record, ip.PROTO_UDP, addr)
            record.mode = "app"
            self.migrations_out += 1
            return (record.lport, receiver), 0

        if record.lport is None:
            record.lport = self._alloc_port("tcp", 0)
        server_filter = self._install_server_filter(
            ip.PROTO_TCP, record.lport, None
        )
        session = self._stream_for(record, opts)
        try:
            yield from session.connect(addr)
        except Exception:
            self.host.kernel.remove_filter(server_filter)
            raise
        record.remote = addr
        self.host.kernel.remove_filter(server_filter)
        state, receiver = self._migrate_out(record, session)
        return (record.lport, state, receiver), 0

    def op_proxy_listen(self, message):
        """Open passively: the server awaits and completes connections."""
        sid, backlog, opts = message.args
        record = self._record(sid)
        if record.kind != SOCK_STREAM:
            raise SocketError("listen on a datagram session")
        if record.lport is None:
            record.lport = self._alloc_port("tcp", 0)
        listener = self._stream_for(record, opts)
        listener.listen(backlog)
        record.server_session = listener
        record.mode = "server"  # the listener itself stays with the server
        record.server_filter = self._install_server_filter(
            ip.PROTO_TCP, record.lport, None
        )
        # The listener gets a server-side descriptor so the app can put
        # it in a select set alongside migrated data sessions.
        record.server_handle = self.fds.alloc(SOCK_STREAM, listener).fd
        yield self.ctx.charge(Layer.ENTRY_COPYIN, self.ctx.params.socket_layer)
        return (record.lport, record.server_handle), 0

    def op_proxy_accept(self, message):
        """Migrate a passively-opened, established session to the app."""
        sid, app_id = message.args
        record = self._record(sid)
        listener = record.server_session
        if listener is None:
            raise SocketError("accept before listen")
        child = yield from listener.accept()
        child_sid = self._alloc_sid()
        child_record = SessionRecord(child_sid, SOCK_STREAM, app_id)
        child_record.lport = record.lport
        child_record.owns_port = False
        child_record.remote = child.remote
        self._records[child_sid] = child_record
        state, receiver = self._migrate_out(child_record, child)
        return (child_sid, child.remote, state, receiver), 0

    def op_proxy_return(self, message):
        """A session migrates back to the server (fork, Section 3.2).

        The state travels as RPC payload (it contains the queued data);
        afterwards the session is server-managed and the app's descriptor
        maps to an ordinary server handle.
        """
        sid, state = message.args
        record = self._record(sid)
        if record.mode != "app":
            raise SocketError("proxy_return of a session not app-managed")
        self._remove_app_filter(record)
        if record.kind == SOCK_STREAM:
            session = self.stack.adopt_tcp_state(state)
            record.server_filter = self._install_server_filter(
                ip.PROTO_TCP, record.lport, record.remote
            )
        else:
            session = self.stack.adopt_udp_session(
                (self.host.ip, record.lport), remote=record.remote
            )
            record.server_filter = self._install_server_filter(
                ip.PROTO_UDP, record.lport, record.remote
            )
        record.server_session = session
        desc = self.fds.alloc(record.kind, session)
        record.server_handle = desc.fd
        record.mode = "server"
        self.migrations_in += 1
        yield self.ctx.charge(Layer.ENTRY_COPYIN, self.ctx.params.socket_layer)
        return record.server_handle, 0

    def op_proxy_close(self, message):
        """Clean shutdown: the session migrates back and the server runs
        the teardown handshake (FIN exchange, TIME_WAIT) on its own time."""
        sid, state = message.args
        record = self._records.get(sid)
        if record is None:
            # The record died with a crashed incarnation and was never
            # re-registered (an embryonic or post-fork server-managed
            # session): the retried close has nothing left to tear down.
            yield self.ctx.charge(
                Layer.ENTRY_COPYIN, self.ctx.params.socket_layer
            )
            return None, 0
        if record.kind == SOCK_DGRAM:
            self._remove_app_filter(record)
            self._release_record_port(record, "udp")
            del self._records[sid]
            yield self.ctx.charge(
                Layer.ENTRY_COPYIN, self.ctx.params.socket_layer
            )
            return None, 0
        session = None
        if record.mode == "app":
            self._remove_app_filter(record)
            if state is not None:
                session = self.stack.adopt_tcp_state(state)
                self.migrations_in += 1
                record.server_filter = self._install_server_filter(
                    ip.PROTO_TCP, record.lport, record.remote
                )
        elif record.mode == "server":
            if record.server_handle is not None:
                self.fds.free(record.server_handle)
                record.server_handle = None
            session = record.server_session
            if session is not None and session.conn.state == TCPState.LISTEN:
                session.conn.close()
                self.stack._deregister(session)
                self._remove_server_filter(record)
                session = None
        if session is not None:
            # Kept (closed) until the teardown is done: crash() still
            # has to find its server filter.
            record.mode = "closed"
            self._spawn_close(record, session)
        else:
            # Nothing left to tear down (a listener, an embryonic or a
            # never-connected session): give the port back now.
            self._release_record_port(record, "tcp")
            del self._records[sid]
        return None, 0

    def _remove_server_filter(self, record):
        if record.server_filter is not None:
            self.host.kernel.remove_filter(record.server_filter)
            record.server_filter = None

    def _spawn_close(self, record, session):
        """Run a graceful close in the background, tracked so crash() can
        interrupt it."""
        self._background[record.sid] = self.host.sim.spawn(
            self._graceful_close(record, session),
            name="%s.close%d" % (self.name, record.sid),
        )

    def _graceful_close(self, record, session):
        """Drive a returned session through its FIN exchange, then forget
        the record.

        Teardown is done at TIME_WAIT: what is left — acking a
        retransmitted FIN, the 2MSL wait, giving the port back when the
        stack reaps the CLOSED session — is the stack's, so the session
        takes over the record's port.  The exact server filter goes now:
        the TCP catch-all feeds the same input port, and 2MSL's worth of
        exact filters would sit in front of every live session's.
        """
        session.owns_port = record.owns_port
        try:
            yield from session.close()
            while session.conn.state not in (TCPState.TIME_WAIT,
                                             TCPState.CLOSED):
                yield session.notify.wait()
            self._remove_server_filter(record)
            self._records.pop(record.sid, None)
        finally:
            self._background.pop(record.sid, None)

    def _release_record_port(self, record, proto_name):
        if record.owns_port and record.lport is not None:
            try:
                self.stack.ports[proto_name].release(self.host.ip, record.lport)
            except KeyError:
                pass
            record.lport = None

    # ==================================================================
    # Cooperative select (Section 3.2's "information gap" bridge)
    # ==================================================================

    def op_proxy_status(self, message):
        """An application signals that an app-managed session changed
        status, releasing any select blocked on its behalf."""
        (app_id,) = message.args
        self._app_status[app_id].fire()
        yield self.ctx.charge(Layer.ENTRY_COPYIN, self.ctx.params.proc_call)
        return None, 0

    def op_proxy_select(self, message):
        """select() over the server-managed descriptors of one app, also
        waking when the app reports local status via proxy_status."""
        app_id, read_handles, write_handles, timeout = message.args
        deadline = None if timeout is None else self.ctx.sim.now + timeout
        yield self.ctx.charge(
            Layer.ENTRY_COPYIN, self.ctx.params.select_overhead
        )
        ready = yield from self.layer.select(
            read_handles, write_handles, deadline,
            wake=self._app_status[app_id],
        )
        if ready is None:
            # The app saw local status change: return so it rechecks.
            return ([], [], True), 0
        return (*ready, False), 0

    def health_snapshot(self):
        report = super().health_snapshot()
        report["records"] = sum(
            1 for r in self._records.values() if r.mode != "closed"
        )
        report["apps"] = len(self._apps)
        report["quarantined_ports"] = len(self.quarantined_ports)
        return report

    def _icmp_error_upcall(self, proto, local_port, remote_addr, error):
        """Deliver an ICMP error to the application session it belongs
        to — the error arrived at the server (ICMP filters point here)
        but the session lives in an application's library."""
        for record in self._records.values():
            if (record.mode == "app" and record.kind == SOCK_DGRAM
                    and record.lport == local_port):
                library = self._apps.get(record.app_id)
                if library is None:
                    continue
                key = (local_port, remote_addr[0], remote_addr[1])
                session = library.stack._udp.get(key)
                if session is None:
                    session = library.stack._udp.get((local_port, None, None))
                if session is not None:
                    session.error = error
                    session.notify.fire()
                    self.icmp_upcalls += 1
                    return

    # ==================================================================
    # Metastate service (Section 3.3)
    # ==================================================================

    def op_meta_arp(self, message):
        app_id, next_hop_ip = message.args
        self._library(app_id)
        yield self.ctx.charge(Layer.ETHER_OUTPUT, self.ctx.params.proc_call)
        mac = yield from self.host.arp.resolve(self.ctx, next_hop_ip)
        return mac, 0

    def op_meta_route(self, message):
        """The route entries, most specific first.  A host's table is a
        handful of entries, so the whole of it is the reply (still
        ``reply_len`` 0: a few words in the message, no data copy) and
        the application matches every later destination by itself."""
        yield self.ctx.charge(Layer.ENTRY_COPYIN, self.ctx.params.proc_call)
        return tuple(self.host.route_table.routes()), 0

    # ==================================================================
    # Process-death cleanup (Section 3.2, "Terminating session state")
    # ==================================================================

    def app_terminated(self, app_id):
        """The kernel reported an application's death: abort its live
        sessions by resetting remote peers, and quarantine the ports.

        Returns a generator to be driven in a simulation process.
        """
        records = [
            r
            for r in self._records.values()
            if r.app_id == app_id and r.mode == "app"
        ]
        for record in records:
            self._remove_app_filter(record)
            if record.kind == SOCK_STREAM and record.remote is not None:
                yield from self._send_abort_rst(record)
                self.quarantined_ports[record.lport] = (
                    self.host.sim.now + PORT_QUARANTINE_US
                )
                self.aborted_for_death += 1
            self._release_record_port(
                record, "tcp" if record.kind == SOCK_STREAM else "udp"
            )
            record.mode = "closed"
        self._apps.pop(app_id, None)
        # A dead app sends nothing more, so nothing acknowledges its last
        # reply (a recv payload, a migration state): drop it here.
        self._replay_cache.pop((app_id,), None)

    def _send_abort_rst(self, record):
        """Reset the remote peer of a dead application's connection.

        The server does not know the dead app's *current* sequence state,
        but it remembers what it was at migration time; a RST sequenced
        there lands inside the peer's window unless the dead app moved a
        full window of data afterwards (in which case the peer's own
        retransmissions will eventually meet the quarantined port).
        """
        rst = TCPSegment(
            src_port=record.lport,
            dst_port=record.remote[1],
            seq=record.last_snd_nxt,
            ack=record.last_rcv_nxt,
            flags=RST | ACK,
        )
        packed = rst.pack(self.host.ip, record.remote[0])
        # The RST is a server-originated packet: shed whatever trace
        # context this cleanup process inherited and give it a timeline
        # of its own.
        adopt_trace(self.host.sim, None)
        begin_send_trace(self.ctx, self.host.name, len(packed))
        yield from self.stack.ip_output(ip.PROTO_TCP, record.remote[0], packed)
