"""The proxy socket layer (Table 1 of the paper).

The proxy is "a small body of code that resides in the application's
address space" exporting a procedure-call interface *identical* to the
socket system-call interface.  Each call is handled locally, forwarded
untouched to the operating system server, or translated into an alternate
sequence of server calls:

=============  ==================  =========================================
Proxy export   Server export        Action
=============  ==================  =========================================
socket         proxy_socket        create a server-managed session
bind           proxy_bind          set local address; UDP migrates to app
connect        proxy_connect       set remote address; UDP+TCP migrate
listen         proxy_listen        open passively; server awaits connections
accept         proxy_accept        migrate an established session to the app
send*/recv*    (none)              data transfer — the server is not involved
fork           proxy_return        sessions return to the server before fork
select         proxy_status        cooperative status exchange
close          proxy_close         session returns; server runs the teardown
=============  ==================  =========================================
"""

import random

from repro.hw.cpu import Priority
from repro.stack.context import ExecutionContext
from repro.stack.instrument import Layer
from repro.core.resilience import ResilientCaller
from repro.core.sockets import (
    SOCK_DGRAM,
    SOCK_STREAM,
    SocketAPI,
    SocketError,
    config_from_opts,
    is_ready,
    set_option,
)
from repro.sim.events import any_of
from repro.trace import begin_send_trace

#: The Table 1 mapping: each socket call and the server export that
#: handles it (None: the library handles it alone).
PROXY_CALL_MAP = {
    "socket": "proxy_socket",
    "bind": "proxy_bind",
    "connect": "proxy_connect",
    "listen": "proxy_listen",
    "accept": "proxy_accept",
    "send/recv (all variants)": None,
    "fork": "proxy_return",
    "select": "proxy_status",
    "close": "proxy_close",
}


class ProxySocket:
    """Per-descriptor proxy state."""

    __slots__ = ("sid", "kind", "mode", "session", "server_handle",
                 "lport", "remote", "opts", "input_key", "backlog")

    def __init__(self, sid, kind):
        self.sid = sid
        self.kind = kind
        self.mode = "embryonic"  # embryonic -> app -> server -> closed
        self.session = None  # engine session while app-managed
        self.server_handle = None  # server fd while server-managed
        self.lport = None
        self.remote = None
        self.opts = {}
        self.input_key = None
        self.backlog = None  # listeners remember it for re-registration


class ProxySocketAPI(SocketAPI):
    """The BSD socket interface over the decomposed protocol service."""

    def __init__(self, library, server, fork_factory=None):
        super().__init__()
        self.library = library
        self.server = server
        self.rpc = server.rpc
        self.stack = library.stack
        self.app_id = library.app_id
        self._fork_factory = fork_factory
        self._select_outstanding = False
        self._status_watcher = None
        host = library.host
        self.ctx = ExecutionContext(
            host.sim,
            host.cpu,
            priority=Priority.APPLICATION,
            accounting=library.accounting,
            crossings=library.ctx.crossings,
            name="%s.proxy" % library.name,
        )
        # Crash resilience: every proxy RPC retries with seeded backoff
        # jitter, and a watcher re-registers this app's surviving sessions
        # whenever the server's port reopens after a crash.
        self._retry_rng = random.Random(1000 + library.app_id)
        self.reregistrations = 0
        #: While not None: the server restarted but our sessions are not
        #: re-registered yet; retrying RPCs wait on this event so they
        #: never hit a server that does not know their ids.
        self._rereg_ready = None
        #: sid -> snapshot for sessions whose close RPC is in flight: the
        #: descriptor is already freed, but the server must still learn
        #: about them if it restarts before the close lands.
        self._closing = {}
        #: sid -> snapshot for sessions whose migrate-to-server RPC is in
        #: flight: the TCP state has been exported out of the local stack,
        #: so a crash in this window must rebuild the server record before
        #: the retried ``proxy_return`` replays the state.
        self._migrating = {}
        #: All proxy RPCs go through one :class:`ResilientCaller`;
        #: request ids are (app_id, sid, seq).
        self.resilient = ResilientCaller(
            self.rpc, self.ctx, self._retry_rng, gate=self._gate)
        self._req_seq = 0
        library.metastate.caller.gate = self._gate
        library.proxy_api = self
        self._reregister_watcher = host.sim.spawn(
            self._server_watcher(), name="%s.rereg" % library.name
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _proxy_entry(self, layer=Layer.ENTRY_COPYIN):
        """Entering the proxy is a procedure call, not a trap."""
        yield self.ctx.charge(layer, self.ctx.params.proc_call)

    def _rpc(self, op, *args, sid=0, data=b"", layer=Layer.ENTRY_COPYIN):
        """One logical proxy op: stamped with a fresh (app, sid, seq)
        request id so retries and fault-duplicates replay server-side
        instead of re-running side effects."""
        self._req_seq += 1
        req_id = (self.app_id, sid, self._req_seq)
        result = yield from self.resilient.call(
            op, args=args, data=data, layer=layer, req_id=req_id,
        )
        return result

    def _gate(self):
        return self._rereg_ready

    def _server_watcher(self):
        """Wait for the server to die, close the re-registration gate,
        then — once the server is back — re-register this application's
        surviving sessions and reopen the gate.  Loops forever (the server
        may crash any number of times)."""
        while True:
            yield self.rpc.wait_down()
            self._rereg_ready = self.ctx.sim.event(
                "%s.rereg-gate" % self.library.name
            )
            yield self.rpc.wait_reopen()
            yield from self._reregister()
            gate, self._rereg_ready = self._rereg_ready, None
            gate.succeed()

    def _reregister(self):
        """Report this app and its live sessions to a freshly restarted
        server (see ``NetServer.op_proxy_reregister``).

        App-managed sessions are reported with their sequence snapshot and
        surviving kernel-filter handle; listeners with enough to rebuild
        them server-side.  Post-fork *server-managed* data sessions died
        with the server and cannot be reported back.
        """
        sessions = []
        seen = set()
        for snaps in (self._closing, self._migrating):
            for snap in snaps.values():
                if snap["sid"] in seen:
                    continue
                seen.add(snap["sid"])
                sessions.append(dict(snap))
        for desc in self.fds.descriptors():
            psock = desc.payload
            if psock is None or psock.sid in seen:
                continue
            seen.add(psock.sid)
            if psock.mode == "embryonic":
                # A crash while proxy_socket/bind/connect is in flight:
                # the retried RPC needs the bare record to exist in the
                # restarted server or it dies on "unknown session id".
                sessions.append({
                    "sid": psock.sid,
                    "kind": psock.kind,
                    "lport": psock.lport,
                    "remote": None,
                    "embryonic": True,
                    "opts": dict(psock.opts),
                })
            elif psock.mode == "app" and psock.session is not None:
                snap = self._snapshot(psock)
                if psock.kind == SOCK_STREAM:
                    snap.update(
                        self.stack.tcp_migration_snapshot(psock.session)
                    )
                sessions.append(snap)
            elif (psock.mode == "server" and psock.kind == SOCK_STREAM
                    and psock.backlog is not None):
                sessions.append({
                    "sid": psock.sid,
                    "kind": psock.kind,
                    "lport": psock.lport,
                    "remote": None,
                    "listener": True,
                    "backlog": psock.backlog or 5,
                    "opts": dict(psock.opts),
                })
        # Deliberately ungated: this RPC is what opens the gate.
        _restored, handles = yield from ResilientCaller(
            self.rpc, self.ctx, self._retry_rng
        ).call("proxy_reregister", args=(self.library, sessions),
               layer=Layer.ENTRY_COPYIN)
        # Server-side descriptors from the dead incarnation are gone.
        # Rebuilt listeners get their fresh handle from the reply; other
        # server-managed sessions (post-fork data sessions) died with the
        # crash, and a None handle makes select report them ready so the
        # caller's next operation surfaces a clean error instead of
        # touching a recycled descriptor in the new incarnation.
        for desc in self.fds.descriptors():
            psock = desc.payload
            if psock is not None and psock.mode == "server":
                psock.server_handle = handles.get(psock.sid)
        self.reregistrations += 1

    def _snapshot(self, psock):
        """What a restarted server needs to know about an app-managed
        session (see ``NetServer.op_proxy_reregister``)."""
        return {
            "sid": psock.sid,
            "kind": psock.kind,
            "lport": psock.lport,
            "remote": psock.remote,
            "app_filter": self.library.session_filters.get(psock.sid),
        }

    def _withdraw(self, psock, pending):
        """Take an app-managed session out of the local stack, ahead of
        the RPC that hands it to the server.  Returns the state that RPC
        carries (a stream's; None for a datagram session) and leaves a
        snapshot in ``pending``: the state now exists only in the
        caller's frame, so a server that restarts before the RPC lands
        must hear of the session from re-registration first."""
        if psock.kind == SOCK_STREAM:
            yield from self.stack._tcp_flush(psock.session)
            state = self.stack.export_tcp_session(psock.session)
        else:
            yield from psock.session.close()
            state = None
        pending[psock.sid] = self._snapshot(psock)
        return state

    def _detach(self, psock):
        """Stop a withdrawn session's input thread.  Nothing else feeds
        its 4-tuple into the local stack, so the tombstone goes too."""
        self.library.detach_input(psock.input_key)
        if psock.kind == SOCK_STREAM:
            self.stack.clear_tombstone(psock.lport, psock.remote)

    def _adopt_tcp(self, psock, state, receiver):
        yield from self._prime_metastate(psock.remote[0])
        session = self.stack.adopt_tcp_state(
            state, config=config_from_opts(self.stack, psock.opts)
        )
        psock.session = session
        psock.mode = "app"
        psock.input_key = ("tcp", psock.lport, psock.remote)
        self.library.attach_input(receiver, key=psock.input_key)

    def _prime_metastate(self, dst_ip):
        """Warm the route and ARP caches when a session migrates in, so
        the send fast path never talks to the server (Section 3.3)."""
        meta = self.library.metastate
        next_hop = yield from meta.prime_route(self.ctx, dst_ip)
        yield self.ctx.charge(Layer.ETHER_OUTPUT, self.ctx.params.proc_call)
        yield from meta.resolve(self.ctx, next_hop)

    def _adopt_udp(self, psock, receiver):
        session = self.stack.adopt_udp_session(
            (self.library.host.ip, psock.lport), remote=psock.remote
        )
        psock.session = session
        psock.mode = "app"
        psock.input_key = ("udp", psock.lport, psock.remote)
        self.library.attach_input(receiver, key=psock.input_key)

    # ------------------------------------------------------------------
    # Creation and naming
    # ------------------------------------------------------------------

    def socket(self, kind):
        yield from self._proxy_entry()
        sid = yield from self._rpc("proxy_socket", self.app_id, kind)
        desc = self.fds.alloc(kind, ProxySocket(sid, kind))
        return desc.fd

    def bind(self, fd, port):
        psock = self.fds.get(fd).payload
        yield from self._proxy_entry()
        if psock.mode != "embryonic":
            raise SocketError("socket already bound")
        lport, receiver = yield from self._rpc("proxy_bind", psock.sid, port,
                                               sid=psock.sid)
        psock.lport = lport
        if psock.kind == SOCK_DGRAM:
            # A bound UDP session migrates to the application immediately.
            self._adopt_udp(psock, receiver)

    # ------------------------------------------------------------------
    # Connection management
    # ------------------------------------------------------------------

    def connect(self, fd, addr):
        psock = self.fds.get(fd).payload
        yield from self._proxy_entry()
        if psock.mode == "app" and psock.kind == SOCK_DGRAM:
            # Re-connect of a bound UDP socket: the filter narrows, so the
            # session bounces through the server.
            self.library.detach_input(psock.input_key)
            yield from psock.session.close()
        result = yield from self._rpc("proxy_connect", psock.sid, addr,
                                      psock.opts, sid=psock.sid)
        if psock.kind == SOCK_DGRAM:
            psock.lport, receiver = result
            psock.remote = tuple(addr)
            self._adopt_udp(psock, receiver)
            yield from self._prime_metastate(psock.remote[0])
        else:
            psock.lport, state, receiver = result
            psock.remote = tuple(addr)
            yield from self._adopt_tcp(psock, state, receiver)

    def listen(self, fd, backlog=5):
        psock = self.fds.get(fd).payload
        yield from self._proxy_entry()
        psock.lport, psock.server_handle = yield from self._rpc(
            "proxy_listen", psock.sid, backlog, psock.opts, sid=psock.sid
        )
        psock.mode = "server"  # listeners stay with the OS server
        psock.backlog = backlog

    def accept(self, fd):
        listener = self.fds.get(fd).payload
        yield from self._proxy_entry()
        child_sid, remote, state, receiver = yield from self._rpc(
            "proxy_accept", listener.sid, self.app_id, sid=listener.sid
        )
        psock = ProxySocket(child_sid, SOCK_STREAM)
        psock.lport = listener.lport
        psock.remote = tuple(remote)
        psock.opts = dict(listener.opts)
        yield from self._adopt_tcp(psock, state, receiver)
        desc = self.fds.alloc(SOCK_STREAM, psock)
        return desc.fd, psock.remote

    # ------------------------------------------------------------------
    # Data transfer: entirely within the application for app-managed
    # sessions; routed through the server otherwise (post-fork)
    # ------------------------------------------------------------------

    def send(self, fd, data, addr=None):
        psock = self.fds.get(fd).payload
        # Socket entry: each outbound packet starts its own trace.
        begin_send_trace(self.ctx, self.library.host.name, len(data))
        yield from self._proxy_entry()
        if (addr is not None and psock.mode == "embryonic"
                and psock.kind == SOCK_DGRAM):
            # BSD auto-binds: the session gets an ephemeral port and
            # migrates into the application on first use.
            lport, receiver = yield from self._rpc("proxy_bind", psock.sid, 0,
                                                   sid=psock.sid)
            psock.lport = lport
            self._adopt_udp(psock, receiver)
        if psock.mode == "app":
            if psock.kind == SOCK_DGRAM:
                dst = addr or psock.remote
                if dst is None:
                    raise SocketError("no destination for datagram")
                if not self.library.metastate.has_route(dst[0]):
                    yield from self._prime_metastate(dst[0])
            n = yield from psock.session.send(data, addr)
            return n
        if psock.mode == "server":
            if addr is None:
                n = yield from self._rpc("send", psock.server_handle,
                                         data=bytes(data), sid=psock.sid)
            else:
                n = yield from self._rpc("sendto", psock.server_handle, addr,
                                         data=bytes(data), sid=psock.sid)
            return n
        raise SocketError("send on unconnected socket")

    def sendto(self, fd, data, addr):
        return self.send(fd, data, tuple(addr))

    def recv(self, fd, max_bytes):
        psock = self.fds.get(fd).payload
        yield from self._proxy_entry(Layer.COPYOUT_EXIT)
        if psock.mode == "app":
            data, _src = yield from psock.session.recv(max_bytes)
            return data
        if psock.mode == "server":
            data = yield from self._rpc(
                "recv", psock.server_handle, max_bytes, sid=psock.sid,
                layer=Layer.COPYOUT_EXIT,
            )
            return data
        raise SocketError("recv on unconnected socket")

    def recvfrom(self, fd):
        psock = self.fds.get(fd).payload
        yield from self._proxy_entry(Layer.COPYOUT_EXIT)
        if psock.mode == "app":
            received = yield from psock.session.recv()
            return received
        if psock.mode == "server":
            src, data = yield from self._rpc(
                "recvfrom", psock.server_handle, sid=psock.sid,
                layer=Layer.COPYOUT_EXIT,
            )
            return data, src
        raise SocketError("recvfrom on unbound socket")

    # ------------------------------------------------------------------
    # Teardown and fork: sessions migrate back to the server
    # ------------------------------------------------------------------

    def shutdown(self, fd):
        """Half-close: the write side finishes, but unlike close the
        session does NOT migrate — reads continue in the application."""
        psock = self.fds.get(fd).payload
        yield from self._proxy_entry()
        if psock.mode == "app" and psock.kind == SOCK_STREAM:
            yield from psock.session.shutdown()
        elif psock.mode == "server":
            yield from self._rpc("shutdown", psock.server_handle,
                                 sid=psock.sid)
        else:
            raise SocketError("shutdown on a non-stream or unconnected fd")

    def close(self, fd):
        desc = self.fds.free(fd)
        if desc is None:
            return  # another process still holds the descriptor
        psock = desc.payload
        yield from self._proxy_entry()
        if psock.mode == "app":
            state = yield from self._withdraw(psock, self._closing)
            yield from self._rpc("proxy_close", psock.sid, state,
                                 sid=psock.sid)
            self._closing.pop(psock.sid, None)
            self._detach(psock)
        elif psock.mode in ("server", "embryonic"):
            yield from self._rpc("proxy_close", psock.sid, None,
                                 sid=psock.sid)
        psock.mode = "closed"

    def migrate_to_server(self, fd):
        """Return one session to the server (the fork preparation step).

        Crash-hardened: once the TCP state is exported it exists only in
        this call's frame, so the sid is snapshotted into ``_migrating``
        before the RPC — a server crash mid-``proxy_return`` then rebuilds
        the record during re-registration and the retried RPC (same
        request id) replays the state instead of stranding the psock on
        "unknown session id"."""
        psock = self.fds.get(fd).payload
        if psock.mode != "app":
            return
        state = yield from self._withdraw(psock, self._migrating)
        try:
            handle = yield from self._rpc("proxy_return", psock.sid, state,
                                          sid=psock.sid)
        finally:
            self._migrating.pop(psock.sid, None)
        self._detach(psock)
        psock.session = None
        psock.server_handle = handle
        psock.mode = "server"

    def fork(self):
        """BSD fork: both processes' descriptors must name the same I/O
        streams, so every app-managed session returns to the server first
        (Table 1's fork row).  Returns a generator yielding the child API.
        """
        if self._fork_factory is None:
            raise SocketError("this proxy was created without fork support")
        for fd in list(self.fds.open_fds()):
            yield from self.migrate_to_server(fd)
        child = self._fork_factory()
        for desc in self.fds.descriptors():
            child.fds.adopt(desc)
        return child

    def ping(self, dst_ip, **_kwargs):
        """Ping is an OS-server service (it needs raw IP access, which
        applications do not get)."""
        yield from self._proxy_entry()
        rtt = yield from self._rpc("ping", dst_ip)
        return rtt

    def traceroute(self, dst_ip, max_hops=16):
        yield from self._proxy_entry()
        hops = yield from self._rpc("traceroute", dst_ip, max_hops)
        return hops

    # ------------------------------------------------------------------
    # The cooperative select (Section 3.2)
    # ------------------------------------------------------------------

    def setsockopt(self, fd, option, value):
        psock = self.fds.get(fd).payload
        yield from self._proxy_entry()
        psock.opts[option] = value
        if psock.mode == "app" and psock.session is not None:
            set_option(psock.session, option, value)
        elif psock.mode == "server":
            yield from self._rpc("setsockopt", psock.server_handle, option,
                                 value, sid=psock.sid)

    def select(self, read_fds, write_fds=(), timeout=None):
        yield from self._proxy_entry()
        deadline = None if timeout is None else self.ctx.sim.now + timeout
        self._ensure_status_watcher()
        while True:
            local_r, srv_r = self._partition(read_fds, "readable")
            local_w, srv_w = self._partition(write_fds, "writable")
            ready_r = [fd for fd, ready in local_r if ready]
            ready_w = [fd for fd, ready in local_w if ready]
            if ready_r or ready_w:
                return ready_r, ready_w
            remaining = None
            if deadline is not None:
                remaining = deadline - self.ctx.sim.now
                if remaining <= 0:
                    return [], []
            for fd, _ready in local_r + local_w:
                session = self.fds.get(fd).payload.session
                if session is not None:
                    session.selected = True
            if srv_r or srv_w:
                # Block in the server; our status watcher will poke it via
                # proxy_status if a local session becomes ready meanwhile.
                self._select_outstanding = True
                try:
                    res_r, res_w, _hint = yield from self._rpc(
                        "proxy_select", self.app_id,
                        [h for _fd, h in srv_r], [h for _fd, h in srv_w],
                        remaining,
                    )
                finally:
                    self._select_outstanding = False
                handle_map = {h: fd for fd, h in srv_r + srv_w}
                if res_r or res_w:
                    return (
                        [handle_map[h] for h in res_r],
                        [handle_map[h] for h in res_w],
                    )
                # Either a local status change or a timeout: loop and
                # re-check (the deadline check above ends the loop).
            else:
                waits = [self.stack.select_notify.wait()]
                if remaining is not None:
                    waits.append(self.ctx.sim.timeout(remaining))
                yield any_of(self.ctx.sim, waits)

    def _partition(self, fds, field):
        """Split one select set into ``[(fd, ready)]`` for descriptors
        this process can test itself and ``[(fd, handle)]`` for those
        the server must."""
        local, server = [], []
        for fd in fds:
            psock = self.fds.get(fd).payload
            if psock.mode != "server":
                local.append((fd, is_ready(psock.session, field)))
            elif psock.server_handle is None:
                # The session died with a crashed server incarnation:
                # report it ready so the caller's next operation on it
                # fails cleanly rather than wedging this select.
                local.append((fd, True))
            else:
                server.append((fd, psock.server_handle))
        return local, server

    def _ensure_status_watcher(self):
        """The library-side half of the cooperative interface: when a
        selected local session changes status while a server select is
        outstanding, notify the server (proxy_status) to unblock it."""
        if self._status_watcher is not None and self._status_watcher.alive:
            return
        self._status_watcher = self.ctx.sim.spawn(
            self._watch_status(), name="%s.selwatch" % self.library.name
        )

    def _watch_status(self):
        while True:
            yield self.stack.select_notify.wait()
            if self._select_outstanding:
                yield from self._rpc("proxy_status", self.app_id)

    # ------------------------------------------------------------------
    # Control-plane health and stats
    # ------------------------------------------------------------------

    def server_health(self):
        """Query the server's admission/health snapshot (``proxy_health``)."""
        yield from self._proxy_entry()
        report = yield from self._rpc("proxy_health")
        return report

    def control_stats(self):
        """Client-side control-plane counters for netstat/chaos reports."""
        return {
            "app": self.library.name,
            "retries": self.resilient.retries,
            "reregistrations": self.reregistrations,
        }
