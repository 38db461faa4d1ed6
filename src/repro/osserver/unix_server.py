"""The single-server placement: CMU UX / BNR2SS style.

The entire socket layer and protocol stack live in one user-level server
task.  Every application socket call is a Mach RPC; packet input arrives
from the kernel's packet filter as IPC.  Control and data therefore cross
"twice as many protection boundaries" as in-kernel protocols, and the
server's internal synchronization is the heavyweight simulated-spl
package — the two effects Table 4 charges the server placement for.
"""

import random
from collections import deque
from itertools import count

from repro.filter.compile import compile_ip_protocol_filter
from repro.metrics.registry import Histogram
from repro.hw.cpu import Priority
from repro.kernel.ipc import MessagePort, RPCPort
from repro.kernel.kernel import IPCDelivery
from repro.net import ip
from repro.sim.errors import Interrupt
from repro.stack.context import ExecutionContext, light_locks, spl_locks
from repro.stack.engine import NetEnv, NetworkStack
from repro.stack.instrument import Layer, LayerAccounting
from repro.trace import adopt_trace, begin_send_trace
from repro.core.sockets import (
    SOCK_DGRAM,
    SOCK_STREAM,
    FDTable,
    SocketAPI,
    SocketError,
    SocketLayer,
)

#: Kernel->server packet delivery is by page remapping in UX, nearly free
#: per byte (Table 4's kernel copyout row for the server barely grows
#: with message size).
REMAP_PER_BYTE = 0.024

#: Completed request-id results remembered per incarnation, so retried or
#: fault-duplicated RPCs replay their reply instead of re-running side
#: effects.  FIFO-evicted; a crash wipes it (retries then re-execute
#: against re-registered state, which is the documented semantics).
REPLAY_CACHE_LIMIT = 512

#: An op taking longer than this (simulated microseconds, dispatch to
#: reply-ready) earns an entry in the bounded slow-op log.
SLOW_OP_US = 5_000.0

#: Slow-op log capacity: newest entries win, flight-recorder style.
SLOW_OP_LOG = 32


class UnixServer:
    """A user-level UNIX server owning the host's protocol stack."""

    #: Ops that park by design (app-supplied timeouts), so a long stay
    #: is expected, not anomalous: they still feed the per-op latency
    #: histograms but never the slow-op log, which would otherwise fill
    #: with by-contract waits and evict the genuinely slow entries.
    SLOW_OP_EXEMPT = frozenset({"select"})

    def __init__(self, host, accounting=None, tcp_defaults=None,
                 heavyweight_sync=True, name=None):
        self.host = host
        sim = host.sim
        self.name = name or ("%s.ux" % host.name)
        self.accounting = accounting or LayerAccounting()
        self._tcp_defaults = tcp_defaults
        locks = spl_locks(host.platform) if heavyweight_sync else light_locks(
            host.platform
        )
        self.ctx = ExecutionContext(
            sim,
            host.cpu,
            priority=Priority.SERVER,
            locks=locks,
            accounting=self.accounting,
            name=self.name,
        )
        # The RPC port outlives server incarnations: clients keep a send
        # right across a crash; the port just reports broken until restart.
        self.rpc = RPCPort(sim, name="%s.rpc" % self.name)
        self._handler_seq = count()
        #: message -> handler Process, for crash() to interrupt cleanly.
        self._inflight = {}
        # Cumulative control-plane counters (survive restarts; the replay
        # caches themselves are per-incarnation and reset in _boot).
        self.replays_served = 0
        self.duplicates_held = 0
        self.ops_stalled = 0
        self.ops_failed = 0
        #: Per-op service latency (dispatch to reply-ready): one
        #: log-bucket histogram per RPC op, plus a bounded ring of the
        #: slowest recent ops.  Cumulative across restarts, like the
        #: counters above; replayed duplicates are not re-counted.
        self.op_latency = {}
        self.slow_ops = deque(maxlen=SLOW_OP_LOG)
        self._boot()
        metrics = getattr(host, "metrics", None)
        if metrics is not None:
            metrics.observe_server(self)

    def _boot(self):
        """Build one server incarnation: stack, descriptor space, packet
        input, and the two service loops.  Called at construction and
        again on restart after a crash."""
        host = self.host
        sim = host.sim
        env = NetEnv(
            local_ip=host.ip,
            local_mac=host.mac,
            send_frame=self._send_frame,
            resolve=host.arp.resolve,
            route=host.route,
        )
        self.stack = NetworkStack(
            self.ctx,
            env,
            name=self.name,
            udp_send_copies=True,
            tcp_defaults=self._tcp_defaults,
            metrics=getattr(host, "metrics", None),
        )
        self.fds = FDTable(first_fd=1000)  # server-side descriptor space
        self.layer = SocketLayer(self.stack, self.fds)
        old_port = getattr(self, "_input_port", None)
        self._input_port = MessagePort(sim, name="%s.pktin" % self.name)
        if old_port is not None:
            # An attached control-fault plan survives the incarnation.
            self._input_port.faults = old_port.faults
        #: req_id -> (result, reply_len) for completed requests, plus the
        #: FIFO eviction order; see REPLAY_CACHE_LIMIT.
        self._replay_cache = {}
        self._replay_order = []
        #: req_id -> [held duplicate Messages] while the original handler
        #: is still running; they are answered when it completes.
        self._replay_inflight = {}
        # One catch-all per protocol.  Under the OS server they take
        # stray traffic (RSTs for dead TCP ports, ICMP unreachables for
        # dead UDP ports); per-session filters are installed at the
        # front of the filter list and win.
        self._catch_all_handles = [
            host.kernel.install_filter(
                compile_ip_protocol_filter(proto),
                IPCDelivery(self._input_port, remap_per_byte=REMAP_PER_BYTE),
                accounting=self.accounting,
                name="%s.ipfilter" % self.name,
            )
            for proto in (ip.PROTO_TCP, ip.PROTO_UDP, ip.PROTO_ICMP)
        ]
        self._input_proc = sim.spawn(
            self._input_loop(), name="%s.netin" % self.name
        )
        self._dispatch_proc = sim.spawn(
            self._dispatcher(), name="%s.rpcd" % self.name
        )

    # ------------------------------------------------------------------
    # Network plumbing
    # ------------------------------------------------------------------

    def _send_frame(self, ctx, frame):
        # The server is a user task: sending traps and copies.
        return self.host.kernel.netif_send(ctx, frame, wired=False)

    def _input_loop(self):
        while True:
            message = yield from self._input_port.receive(
                self.ctx, Layer.KERNEL_COPYOUT
            )
            yield from self.stack.input_frame(message.data)

    # ------------------------------------------------------------------
    # RPC dispatch: one handler process per request, so blocking calls
    # (accept, recv, a full send buffer) do not stall the server.
    # ------------------------------------------------------------------

    def _dispatcher(self):
        while True:
            message = yield from self.rpc.serve(self.ctx, layer=Layer.ENTRY_COPYIN)
            proc = self.host.sim.spawn(
                self._handle(message),
                name="%s.h%d" % (self.name, next(self._handler_seq)),
            )
            if proc.alive:
                self._inflight[message] = proc

    def _handle(self, message):
        # The handler runs in its own process; pick up the request's
        # packet trace so server-side charges join the right timeline.
        adopt_trace(self.host.sim, message.trace)
        rid = message.req_id
        try:
            if rid is not None:
                cached = self._replay_cache.get(rid)
                if cached is not None:
                    # Duplicate of a completed request: replay the reply,
                    # never the side effects (at-most-once execution per
                    # id per incarnation).
                    result, reply_len = cached
                    self.replays_served += 1
                    try:
                        yield self.ctx.charge(
                            Layer.ENTRY_COPYIN, self.ctx.params.proc_call
                        )
                        yield from self.rpc.reply(
                            self.ctx, message, result, reply_len=reply_len,
                            layer=Layer.COPYOUT_EXIT,
                        )
                    except Interrupt:
                        pass
                    return
                waiters = self._replay_inflight.get(rid)
                if waiters is not None:
                    # Duplicate while the original is still executing:
                    # park it; the original's completion answers it.
                    self.duplicates_held += 1
                    waiters.append(message)
                    return
                self._replay_inflight[rid] = []
            crash_after = None
            t0 = self.host.sim.now
            try:
                faults = self.rpc.faults
                if faults is not None:
                    stall_us, fail, crash = faults.on_serve(message.op)
                    if stall_us:
                        # A blocking stall (paging, lock wait), not a CPU
                        # burn: the handler sleeps so concurrent requests
                        # still reach the admission check and get shed.
                        self.ops_stalled += 1
                        yield self.host.sim.timeout(stall_us)
                    if crash == "before":
                        # Request consumed, no side effects yet: the
                        # cleanest crash a client can hope for.
                        self._crash_now()
                        return
                    crash_after = crash
                    if fail is not None:
                        self.ops_failed += 1
                        raise fail
                handler = getattr(self, "op_" + message.op, None)
                if handler is None:
                    raise SocketError("unknown server op %r" % message.op)
                result, reply_len = yield from handler(message)
            except Interrupt:
                return  # server crashed mid-op; the client's wait already failed
            except Exception as exc:  # noqa: BLE001 - errno travels back by RPC
                result, reply_len = exc, 0
            elapsed = self.host.sim.now - t0
            hist = self.op_latency.get(message.op)
            if hist is None:
                hist = self.op_latency[message.op] = Histogram(message.op)
            hist.observe(elapsed)
            if elapsed >= SLOW_OP_US and message.op not in self.SLOW_OP_EXEMPT:
                self.slow_ops.append((t0, message.op, elapsed))
            if crash_after == "after":
                # Side effects done, reply lost: the at-least-once window
                # that the replay/re-registration machinery must cover.
                self._crash_now()
                return
            if rid is not None and not isinstance(result, BaseException):
                self._remember_reply(rid, result, reply_len)
            replies = [message]
            if rid is not None:
                replies.extend(self._replay_inflight.pop(rid, ()))
            try:
                for msg in replies:
                    yield from self.rpc.reply(
                        self.ctx, msg, result, reply_len=reply_len,
                        layer=Layer.COPYOUT_EXIT,
                    )
            except Interrupt:
                return
        finally:
            self._inflight.pop(message, None)

    def _remember_reply(self, rid, result, reply_len):
        if rid in self._replay_cache:
            return
        if len(self._replay_order) >= REPLAY_CACHE_LIMIT:
            self._replay_cache.pop(self._replay_order.pop(0), None)
        self._replay_cache[rid] = (result, reply_len)
        self._replay_order.append(rid)

    def _crash_now(self):
        """Serve-fault crash hook: only the restartable NetServer knows
        how to crash; on a plain UnixServer the stage is inert.  The
        crash interrupts this very handler — a stale-token no-op as long
        as the caller returns immediately afterwards."""
        crash = getattr(self, "crash", None)
        if crash is not None and getattr(self, "alive", False):
            crash()

    # ------------------------------------------------------------------
    # Socket operations (server side)
    # ------------------------------------------------------------------

    def op_socket(self, message):
        (kind,) = message.args
        handle = self.layer.socket(kind)
        yield self.ctx.charge(Layer.ENTRY_COPYIN, self.ctx.params.socket_layer)
        return handle, 0

    def op_bind(self, message):
        handle, port = message.args
        desc = self.fds.get(handle)
        yield self.ctx.charge(Layer.ENTRY_COPYIN, self.ctx.params.socket_layer)
        self.layer.bind(desc, port)
        return None, 0

    def op_listen(self, message):
        handle, backlog = message.args
        self.layer.listen(self.fds.get(handle), backlog)
        yield self.ctx.charge(Layer.ENTRY_COPYIN, self.ctx.params.socket_layer)
        return None, 0

    def op_accept(self, message):
        (handle,) = message.args
        accepted = yield from self.layer.accept(self.fds.get(handle))
        return accepted, 0

    def op_connect(self, message):
        handle, addr = message.args
        desc = self.fds.get(handle)
        yield from self.layer.connect(desc, addr)
        if desc.kind == SOCK_DGRAM:
            # A stream's handshake has charged its way through the stack;
            # pinning a datagram peer is socket-layer work only.
            yield self.ctx.charge(
                Layer.ENTRY_COPYIN, self.ctx.params.socket_layer
            )
        return None, 0

    def op_send(self, message):
        (handle,) = message.args
        n = yield from self.layer.send(self.fds.get(handle), message.data)
        return n, 0

    def op_recv(self, message):
        handle, max_bytes = message.args
        data, _src = yield from self.layer.recv(
            self.fds.get(handle), max_bytes
        )
        return data, len(data)

    def op_sendto(self, message):
        handle, addr = message.args
        n = yield from self.layer.send(
            self.fds.get(handle), message.data, addr
        )
        return n, 0

    def op_recvfrom(self, message):
        (handle,) = message.args
        data, src = yield from self.layer.recv(self.fds.get(handle))
        return (src, data), len(data)

    def op_shutdown(self, message):
        (handle,) = message.args
        yield from self.layer.shutdown(self.fds.get(handle))
        return None, 0

    def op_close(self, message):
        (handle,) = message.args
        yield from self.layer.close(self.fds.free(handle))
        return None, 0

    def op_setsockopt(self, message):
        handle, option, value = message.args
        self.layer.setsockopt(self.fds.get(handle), option, value)
        yield self.ctx.charge(Layer.ENTRY_COPYIN, self.ctx.params.proc_call)
        return None, 0

    def op_ping(self, message):
        """ICMP echo on behalf of an application (ping is an OS service;
        applications have no raw-socket access in this architecture)."""
        (dst_ip,) = message.args
        rtt = yield from self.stack.ping(dst_ip)
        return rtt, 0

    def op_traceroute(self, message):
        dst_ip, max_hops = message.args
        hops = yield from self.stack.traceroute(dst_ip, max_hops=max_hops)
        return hops, 0

    def op_select(self, message):
        read_handles, write_handles, timeout = message.args
        deadline = None if timeout is None else self.ctx.sim.now + timeout
        yield self.ctx.charge(
            Layer.ENTRY_COPYIN, self.ctx.params.select_overhead
        )
        ready = yield from self.layer.select(
            read_handles, write_handles, deadline
        )
        return ready, 0

    def op_proxy_health(self, message):
        """Admission/health snapshot for clients and the chaos harness."""
        yield self.ctx.charge(Layer.ENTRY_COPYIN, self.ctx.params.proc_call)
        return self.health_snapshot(), 0

    def health_snapshot(self):
        rpc = self.rpc
        return {
            "pending": rpc.pending(),
            "inflight": len(self._inflight),
            "max_pending": rpc.max_pending,
            "requests_shed": rpc.requests_shed,
            "deadline_expiries": rpc.deadline_expiries,
            "replies_dropped": rpc.replies_dropped,
            "retried_calls": rpc.retried_calls,
            "replays_served": self.replays_served,
            "duplicates_held": self.duplicates_held,
            "ops_stalled": self.ops_stalled,
            "ops_failed": self.ops_failed,
            "generation": getattr(self, "generation", 0),
            "crashes": getattr(self, "crashes", 0),
            "op_latency": {
                op: {"count": hist.count,
                     "mean_us": round(hist.mean(), 3),
                     "p99_us": hist.percentile(0.99),
                     "max_us": hist.max}
                for op, hist in sorted(self.op_latency.items())
            },
            "slow_ops": [{"t_us": t, "op": op, "us": elapsed}
                         for t, op, elapsed in self.slow_ops],
        }

    # ------------------------------------------------------------------

    def sockets(self, policy=None):
        """A socket API instance for one application process."""
        return ServerSocketAPI(self, policy=policy)


class ServerSocketAPI(SocketAPI):
    """BSD sockets where every call is an RPC to the UNIX server.

    Calls now go through a :class:`ResilientCaller` with sequence-stamped
    request ids.  On the default policy the happy path is charge-for-
    charge identical to the historical raw ``rpc.call`` (no retry loop
    overhead in simulated time), but deadlines/breaker/budget knobs can
    be enabled per client via ``policy``.
    """

    _next_client_id = count(1)

    def __init__(self, server, policy=None):
        super().__init__()
        from repro.core.resilience import ResilientCaller

        self.server = server
        host = server.host
        self.ctx = ExecutionContext(
            host.sim,
            host.cpu,
            priority=Priority.APPLICATION,
            accounting=server.accounting,
            crossings=server.ctx.crossings,
            name="%s.app" % host.name,
        )
        self.client_id = next(ServerSocketAPI._next_client_id)
        self.resilient = ResilientCaller(
            server.rpc, self.ctx,
            rng=random.Random(3000 + self.client_id),
            policy=policy, name="%s.app%d" % (host.name, self.client_id),
        )
        self._req_seq = 0

    def _call(self, op, *args, data=b"", layer=Layer.ENTRY_COPYIN):
        self._req_seq += 1
        req_id = ("ux", self.client_id, self._req_seq)
        result = yield from self.resilient.call(
            op, args=args, data=data, layer=layer, req_id=req_id
        )
        return result

    # ------------------------------------------------------------------

    def socket(self, kind):
        handle = yield from self._call("socket", kind)
        desc = self.fds.alloc(kind, handle)
        return desc.fd

    def bind(self, fd, port):
        desc = self.fds.get(fd)
        yield from self._call("bind", desc.payload, port)

    def listen(self, fd, backlog=5):
        desc = self.fds.get(fd)
        yield from self._call("listen", desc.payload, backlog)

    def accept(self, fd):
        desc = self.fds.get(fd)
        child_handle, remote = yield from self._call("accept", desc.payload)
        child = self.fds.alloc(SOCK_STREAM, child_handle)
        return child.fd, remote

    def connect(self, fd, addr):
        desc = self.fds.get(fd)
        yield from self._call("connect", desc.payload, addr)

    def send(self, fd, data):
        desc = self.fds.get(fd)
        begin_send_trace(self.ctx, self.server.host.name, len(data))
        n = yield from self._call("send", desc.payload, data=bytes(data))
        return n

    def recv(self, fd, max_bytes):
        desc = self.fds.get(fd)
        data = yield from self._call(
            "recv", desc.payload, max_bytes, layer=Layer.COPYOUT_EXIT
        )
        return data

    def sendto(self, fd, data, addr):
        desc = self.fds.get(fd)
        begin_send_trace(self.ctx, self.server.host.name, len(data))
        n = yield from self._call("sendto", desc.payload, addr, data=bytes(data))
        return n

    def recvfrom(self, fd):
        desc = self.fds.get(fd)
        src, data = yield from self._call(
            "recvfrom", desc.payload, layer=Layer.COPYOUT_EXIT
        )
        return data, src

    def shutdown(self, fd):
        desc = self.fds.get(fd)
        yield from self._call("shutdown", desc.payload)

    def close(self, fd):
        desc = self.fds.free(fd)
        if desc is not None:
            yield from self._call("close", desc.payload)

    def setsockopt(self, fd, option, value):
        desc = self.fds.get(fd)
        yield from self._call("setsockopt", desc.payload, option, value)

    def select(self, read_fds, write_fds=(), timeout=None):
        read_handles = [self.fds.get(fd).payload for fd in read_fds]
        write_handles = [self.fds.get(fd).payload for fd in write_fds]
        ready_r, ready_w = yield from self._call(
            "select", read_handles, write_handles, timeout
        )
        handle_to_fd = {self.fds.get(fd).payload: fd for fd in
                        list(read_fds) + list(write_fds)}
        return (
            [handle_to_fd[h] for h in ready_r],
            [handle_to_fd[h] for h in ready_w],
        )

    def ping(self, dst_ip, **_kwargs):
        rtt = yield from self._call("ping", dst_ip)
        return rtt

    def traceroute(self, dst_ip, max_hops=16):
        hops = yield from self._call("traceroute", dst_ip, max_hops)
        return hops

    def fork(self):
        """Server-based sockets fork trivially: the sessions live in the
        server, so the child shares the server-side descriptors.  (A
        generator, like every socket call.)"""
        yield self.ctx.charge(
            Layer.ENTRY_COPYIN, self.ctx.params.proc_call
        )
        child = ServerSocketAPI(self.server, policy=self.resilient.policy)
        for desc in self.fds.descriptors():
            child.fds.adopt(desc)
        return child
