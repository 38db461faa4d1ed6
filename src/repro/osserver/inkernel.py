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
from repro.core.sockets import SocketAPI, SocketLayer


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
            metrics=host.metrics,
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
        return self.host.kernel.netif_send(
            ctx, frame, wired=True, lookup_cost=ctx.params.proc_call)

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
        self.layer = SocketLayer(network.stack, self.fds)
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
        ctx = self.ctx
        yield ctx.charge(layer, ctx.crossing_cost() + ctx.params.socket_layer)

    def _exit(self, layer):
        yield self.ctx.charge(layer, self.ctx.params.trap_return)

    # ------------------------------------------------------------------
    # Every verb is the shared socket layer between a trap and its
    # return; a bad fd fails in ``fds.get``, before the trap is charged.

    def socket(self, kind):
        yield from self._enter(Layer.ENTRY_COPYIN)
        fd = self.layer.socket(kind)
        yield from self._exit(Layer.ENTRY_COPYIN)
        return fd

    def bind(self, fd, port):
        desc = self.fds.get(fd)
        yield from self._enter(Layer.ENTRY_COPYIN)
        self.layer.bind(desc, port)
        yield from self._exit(Layer.ENTRY_COPYIN)

    def listen(self, fd, backlog=5):
        desc = self.fds.get(fd)
        yield from self._enter(Layer.ENTRY_COPYIN)
        self.layer.listen(desc, backlog)
        yield from self._exit(Layer.ENTRY_COPYIN)

    def accept(self, fd):
        desc = self.fds.get(fd)
        yield from self._enter(Layer.ENTRY_COPYIN)
        accepted = yield from self.layer.accept(desc)
        yield from self._exit(Layer.ENTRY_COPYIN)
        return accepted

    def connect(self, fd, addr):
        desc = self.fds.get(fd)
        yield from self._enter(Layer.ENTRY_COPYIN)
        yield from self.layer.connect(desc, addr)
        yield from self._exit(Layer.ENTRY_COPYIN)

    def send(self, fd, data, addr=None):
        desc = self.fds.get(fd)
        begin_send_trace(self.ctx, self.network.host.name, len(data))
        yield from self._enter(Layer.ENTRY_COPYIN)
        n = yield from self.layer.send(desc, data, addr)
        yield from self._exit(Layer.ENTRY_COPYIN)
        return n

    def sendto(self, fd, data, addr):
        return self.send(fd, data, addr)

    def recv(self, fd, max_bytes):
        desc = self.fds.get(fd)
        yield from self._enter(Layer.COPYOUT_EXIT)
        data, _src = yield from self.layer.recv(desc, max_bytes)
        yield from self._exit(Layer.COPYOUT_EXIT)
        return data

    def recvfrom(self, fd):
        desc = self.fds.get(fd)
        yield from self._enter(Layer.COPYOUT_EXIT)
        received = yield from self.layer.recv(desc)
        yield from self._exit(Layer.COPYOUT_EXIT)
        return received

    def shutdown(self, fd):
        desc = self.fds.get(fd)
        yield from self._enter(Layer.ENTRY_COPYIN)
        yield from self.layer.shutdown(desc)
        yield from self._exit(Layer.ENTRY_COPYIN)

    def close(self, fd):
        desc = self.fds.free(fd)
        yield from self._enter(Layer.ENTRY_COPYIN)
        yield from self.layer.close(desc)
        yield from self._exit(Layer.ENTRY_COPYIN)

    def setsockopt(self, fd, option, value):
        desc = self.fds.get(fd)
        yield from self._enter(Layer.ENTRY_COPYIN)
        self.layer.setsockopt(desc, option, value)
        yield from self._exit(Layer.ENTRY_COPYIN)

    def select(self, read_fds, write_fds=(), timeout=None):
        yield from self._enter(Layer.ENTRY_COPYIN)
        deadline = None if timeout is None else self.ctx.sim.now + timeout
        yield self.ctx.charge(
            Layer.ENTRY_COPYIN, self.ctx.params.select_overhead
        )
        ready = yield from self.layer.select(read_fds, write_fds, deadline)
        yield from self._exit(Layer.ENTRY_COPYIN)
        return ready

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

