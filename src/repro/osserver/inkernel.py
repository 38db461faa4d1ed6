"""The in-kernel protocol placement (Mach 2.5 / Ultrix / 386BSD style).

Protocols run inside the kernel at kernel priority with lightweight
synchronization.  Applications reach them with a trap per socket call;
packet input goes interrupt -> netisr -> protocol with no protection
boundary crossing and no kernel->user copy until the final copyout into
the receiver's buffer (the zeros in Table 4's ``kernel copyout`` row).
"""

from repro.filter.compile import compile_ip_protocol_filter
from repro.hw.cpu import Priority
from repro.kernel.kernel import QueueDelivery
from repro.net import ip
from repro.sim.sync import Channel
from repro.stack.context import ExecutionContext, light_locks
from repro.stack.engine import NetEnv, NetworkStack
from repro.stack.instrument import Layer, LayerAccounting
from repro.trace import adopt_trace, begin_send_trace, frame_trace
from repro.core.sockets import (
    SOCK_DGRAM,
    SOCK_STREAM,
    SocketAPI,
    SocketError,
)


class InKernelNetwork:
    """The kernel-resident protocol stack for one host."""

    def __init__(self, host, accounting=None, tcp_defaults=None):
        self.host = host
        sim = host.sim
        self.accounting = accounting or LayerAccounting()
        self.ctx = ExecutionContext(
            sim,
            host.cpu,
            priority=Priority.KERNEL,
            locks=light_locks(host.platform),
            accounting=self.accounting,
            name="%s.inkernel" % host.name,
        )
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
            name="%s.kstack" % host.name,
            udp_send_copies=True,
            tcp_defaults=tcp_defaults,
            metrics=getattr(host, "metrics", None),
        )
        self._input = Channel(sim, name="%s.netisr" % host.name)
        # One filter per protocol catches all traffic for the host;
        # in-kernel demultiplexing happens in the protocol, not the filter.
        for proto in (ip.PROTO_TCP, ip.PROTO_UDP, ip.PROTO_ICMP):
            host.kernel.install_filter(
                compile_ip_protocol_filter(proto),
                QueueDelivery(self._input),
                accounting=self.accounting,
                name="%s.ipfilter" % host.name,
            )
        sim.spawn(self._input_loop(), name="%s.netin" % host.name)

    def _send_frame(self, ctx, frame):
        # Kernel mbufs are wired: straight to the device, no trap, no copy.
        yield from self.host.kernel.netif_send(ctx, frame, wired=True)

    def _input_loop(self):
        sim = self.host.sim
        while True:
            frame = yield from self._input.get()
            adopt_trace(sim, frame_trace(frame))
            yield from self.stack.input_frame(frame)

    def sockets(self):
        """A socket API instance for one application process."""
        return KernelSocketAPI(self)


class KernelSocketAPI(SocketAPI):
    """BSD sockets entered by trap into the in-kernel stack."""

    def __init__(self, network):
        super().__init__()
        self.network = network
        self.stack = network.stack
        host = network.host
        # Application-side context: user priority, same accounting ledger.
        self.ctx = ExecutionContext(
            host.sim,
            host.cpu,
            priority=Priority.APPLICATION,
            accounting=network.accounting,
            crossings=network.ctx.crossings,
            name="%s.app" % host.name,
        )

    # ------------------------------------------------------------------

    def _enter(self, layer):
        yield self.ctx.charge_boundary_crossing(layer)
        yield self.ctx.charge(layer, self.ctx.params.socket_layer)

    def _exit(self, layer):
        yield self.ctx.charge(layer, self.ctx.params.trap_return)

    # ------------------------------------------------------------------

    def socket(self, kind):
        yield from self._enter(Layer.ENTRY_COPYIN)
        if kind == SOCK_STREAM:
            session = self.stack.tcp_create()
        elif kind == SOCK_DGRAM:
            session = None  # deferred to bind/sendto (needs a port)
        else:
            raise SocketError("unsupported socket type %r" % kind)
        desc = self.fds.alloc(kind, session)
        yield from self._exit(Layer.ENTRY_COPYIN)
        return desc.fd

    def _udp_session(self, desc, port=None):
        if desc.payload is None:
            desc.payload = self.stack.udp_create(local_port=port)
        return desc.payload

    def bind(self, fd, port):
        desc = self.fds.get(fd)
        yield from self._enter(Layer.ENTRY_COPYIN)
        if desc.kind == SOCK_DGRAM:
            if desc.payload is not None:
                raise SocketError("socket already bound")
            self._udp_session(desc, port=port)
        else:
            if desc.payload.conn.local[1] != port:
                # Rebind the TCP session to the requested port.
                old = desc.payload
                self.stack.ports["tcp"].release(
                    self.network.host.ip, old.conn.local[1]
                )
                self.stack.ports["tcp"].bind(self.network.host.ip, port)
                old.conn.local = (self.network.host.ip, port)
        yield from self._exit(Layer.ENTRY_COPYIN)

    def listen(self, fd, backlog=5):
        desc = self.fds.get(fd)
        yield from self._enter(Layer.ENTRY_COPYIN)
        self.stack.tcp_listen(desc.payload, backlog)
        yield from self._exit(Layer.ENTRY_COPYIN)

    def accept(self, fd):
        desc = self.fds.get(fd)
        yield from self._enter(Layer.ENTRY_COPYIN)
        child = yield from self.stack.tcp_accept(desc.payload)
        new_desc = self.fds.alloc(SOCK_STREAM, child)
        yield from self._exit(Layer.ENTRY_COPYIN)
        return new_desc.fd, child.remote

    def connect(self, fd, addr):
        desc = self.fds.get(fd)
        yield from self._enter(Layer.ENTRY_COPYIN)
        if desc.kind == SOCK_DGRAM:
            self.stack.udp_connect(self._udp_session(desc), addr)
        else:
            yield from self.stack.tcp_connect(desc.payload, addr)
        yield from self._exit(Layer.ENTRY_COPYIN)

    def send(self, fd, data):
        desc = self.fds.get(fd)
        begin_send_trace(self.ctx, self.network.host.name, len(data))
        yield from self._enter(Layer.ENTRY_COPYIN)
        if desc.kind == SOCK_DGRAM:
            yield from self.stack.udp_send(desc.payload, data)
            n = len(data)
        else:
            n = yield from self.stack.tcp_send(desc.payload, data)
        yield from self._exit(Layer.ENTRY_COPYIN)
        return n

    def recv(self, fd, max_bytes):
        desc = self.fds.get(fd)
        yield from self._enter(Layer.COPYOUT_EXIT)
        if desc.kind == SOCK_DGRAM:
            _src, data = yield from self.stack.udp_recv(
                desc.payload, timeout_us=desc.payload.recv_timeout_us
            )
        else:
            data = yield from self.stack.tcp_recv(
                desc.payload, max_bytes,
                timeout_us=desc.payload.recv_timeout_us,
            )
        yield from self._exit(Layer.COPYOUT_EXIT)
        return data

    def sendto(self, fd, data, addr):
        desc = self.fds.get(fd)
        begin_send_trace(self.ctx, self.network.host.name, len(data))
        yield from self._enter(Layer.ENTRY_COPYIN)
        yield from self.stack.udp_send(self._udp_session(desc), data, dst=addr)
        yield from self._exit(Layer.ENTRY_COPYIN)
        return len(data)

    def recvfrom(self, fd):
        desc = self.fds.get(fd)
        yield from self._enter(Layer.COPYOUT_EXIT)
        session = self._udp_session(desc)
        src, data = yield from self.stack.udp_recv(
            session, timeout_us=session.recv_timeout_us
        )
        yield from self._exit(Layer.COPYOUT_EXIT)
        return data, src

    def shutdown(self, fd):
        desc = self.fds.get(fd)
        yield from self._enter(Layer.ENTRY_COPYIN)
        yield from self.stack.tcp_shutdown(desc.payload)
        yield from self._exit(Layer.ENTRY_COPYIN)

    def close(self, fd):
        desc = self.fds.free(fd)
        yield from self._enter(Layer.ENTRY_COPYIN)
        if desc is not None and desc.payload is not None:
            if desc.kind == SOCK_DGRAM:
                self.stack.udp_close(desc.payload)
            else:
                yield from self.stack.tcp_close(desc.payload)
        yield from self._exit(Layer.ENTRY_COPYIN)

    def setsockopt(self, fd, option, value):
        desc = self.fds.get(fd)
        yield from self._enter(Layer.ENTRY_COPYIN)
        _apply_sockopt(desc, option, value)
        yield from self._exit(Layer.ENTRY_COPYIN)

    def select(self, read_fds, write_fds=(), timeout=None):
        yield from self._enter(Layer.ENTRY_COPYIN)
        result = yield from _select_on_stack(
            self.ctx, self.stack, self.fds, read_fds, write_fds, timeout
        )
        yield from self._exit(Layer.ENTRY_COPYIN)
        return result

    def ping(self, dst_ip, **kwargs):
        yield from self._enter(Layer.ENTRY_COPYIN)
        rtt = yield from self.stack.ping(dst_ip, **kwargs)
        yield from self._exit(Layer.ENTRY_COPYIN)
        return rtt

    def traceroute(self, dst_ip, max_hops=16):
        yield from self._enter(Layer.ENTRY_COPYIN)
        hops = yield from self.stack.traceroute(dst_ip, max_hops=max_hops)
        yield from self._exit(Layer.ENTRY_COPYIN)
        return hops

    def fork(self):
        """In-kernel sockets fork trivially: sessions live in the kernel,
        so the child API shares the same descriptors.  (A generator, like
        every socket call — the fork itself charges one trap.)"""
        yield from self._enter(Layer.ENTRY_COPYIN)
        child = KernelSocketAPI(self.network)
        for desc in self.fds.descriptors():
            child.fds.adopt(desc)
        yield from self._exit(Layer.ENTRY_COPYIN)
        return child


# ----------------------------------------------------------------------
# Helpers shared with the UX server placement
# ----------------------------------------------------------------------

def _apply_sockopt(desc, option, value):
    session = desc.payload
    if option == "rcvbuf":
        if desc.kind == SOCK_STREAM:
            session.conn.rcv_buffer.set_hiwat(value)
        else:
            session.hiwat = value
    elif option == "sndbuf":
        if desc.kind == SOCK_STREAM:
            session.conn.snd_buffer.set_hiwat(value)
    elif option == "nodelay":
        if desc.kind == SOCK_STREAM:
            session.conn.config.nodelay = bool(value)
    elif option == "rcvtimeo":
        session.recv_timeout_us = value
    elif option == "keepalive":
        if desc.kind == SOCK_STREAM:
            session.conn.config.keepalive = bool(value)
            # An already-idle session may have been parked by the
            # scale-mode tick registry; keepalive duty restarts it.
            session.stack.touch(session)
    else:
        raise SocketError("unknown socket option %r" % option)


def _select_on_stack(ctx, stack, fds, read_fds, write_fds, timeout):
    """select() over descriptors that all live on one stack."""
    from repro.sim.events import any_of

    deadline = None if timeout is None else ctx.sim.now + timeout
    yield ctx.charge(Layer.ENTRY_COPYIN, ctx.params.select_overhead)
    while True:
        ready_r = []
        ready_w = []
        for fd in read_fds:
            desc = fds.get(fd)
            state = _poll_desc(stack, desc)
            if state["readable"] or state["error"]:
                ready_r.append(fd)
        for fd in write_fds:
            desc = fds.get(fd)
            state = _poll_desc(stack, desc)
            if state["writable"] or state["error"]:
                ready_w.append(fd)
        if ready_r or ready_w:
            return ready_r, ready_w
        if deadline is not None and ctx.sim.now >= deadline:
            return [], []
        for fd in list(read_fds) + list(write_fds):
            session = fds.get(fd).payload
            if session is not None:
                session.selected = True
        waits = [stack.select_notify.wait()]
        if deadline is not None:
            waits.append(ctx.sim.timeout(deadline - ctx.sim.now))
        yield any_of(ctx.sim, waits)


def _poll_desc(stack, desc):
    if desc.payload is None:
        return {"readable": False, "writable": True, "error": False}
    if desc.kind == SOCK_DGRAM:
        return stack.udp_poll(desc.payload)
    return stack.tcp_poll(desc.payload)
