"""A simulated host: CPU + NIC + kernel + shared network metastate.

The host also provides the :class:`ArpService`, which every placement
reuses: it answers ARP requests for the host's address and resolves
next-hop MACs for outgoing traffic.  In the paper's architecture this
lives in the operating system server ("the handling of exceptional
network packets like ARP queries"); in the in-kernel placement it is
kernel code.  Either way it is the authoritative cache that applications
only ever see through the metastate layer.
"""

from repro.filter.compile import compile_arp_filter
from repro.hw.cpu import CPU, Priority
from repro.hw.nic import LANCE, NIC
from repro.kernel.kernel import Kernel, QueueDelivery
from repro.net import arp, ethernet
from repro.net.addr import BROADCAST_MAC, ip_aton, make_mac
from repro.net.routing import RouteTable
from repro.sim.sync import Channel
from repro.stack.context import ExecutionContext
from repro.stack.engine import Notifier
from repro.stack.instrument import Layer

#: How long to wait for an ARP reply before retrying (microseconds).
ARP_RETRY_US = 1_000_000.0
ARP_MAX_TRIES = 5

#: Re-exported for backwards compatibility; defined with the protocol.
ArpTimeout = arp.ArpTimeout


class Host:
    """One machine on the network."""

    _next_id = 1

    def __init__(self, sim, wire, ip_addr, platform, name="host",
                 nic_model=LANCE, integrated_filter=False, prefixlen=24,
                 tracer=None, metrics=None):
        self.sim = sim
        self.name = name
        self.ip = ip_aton(ip_addr)
        self.host_id = Host._next_id
        Host._next_id += 1
        self.mac = make_mac(self.host_id)
        self.platform = platform
        self.tracer = tracer
        self.metrics = metrics
        self.cpu = CPU(sim, platform, name="%s.cpu" % name)
        self.nic = NIC(sim, wire, self.mac, model=nic_model, name="%s.nic" % name)
        self.nic.tracer = tracer
        self.kernel = Kernel(
            sim, self.cpu, self.nic,
            integrated_filter=integrated_filter,
            name="%s.kernel" % name,
            tracer=tracer,
        )
        self.route_table = RouteTable()
        # Route constructor masks the prefix to its length.
        self.route_table.add(self.ip, prefixlen, iface="en0")
        self.arp = ArpService(self)
        if metrics is not None:
            metrics.observe_host(self)

    def route(self, dst_ip):
        """Next-hop IP for ``dst_ip`` (the gateway, or the address itself
        when directly attached)."""
        route = self.route_table.lookup(dst_ip)
        if route is None:
            raise ValueError("no route to %r from %s" % (dst_ip, self.name))
        return route.next_hop(dst_ip)

    def __repr__(self):
        return "<Host %s>" % self.name


class ArpService:
    """Answers ARP requests and resolves next-hop MAC addresses."""

    def __init__(self, host):
        self.host = host
        sim = host.sim
        self.cache = arp.ArpCache(lambda: sim.now)
        self.notify = Notifier(sim, "arp")
        self.generation = 0  # bumped on every cache change (metastate)
        self._invalidation_callbacks = []
        self._queue = Channel(sim, name="%s.arpq" % host.name)
        self.ctx = ExecutionContext(
            sim, host.cpu, priority=Priority.KERNEL, name="%s.arp" % host.name
        )
        host.kernel.install_filter(
            compile_arp_filter(), QueueDelivery(self._queue),
            name="%s.arpfilter" % host.name,
        )
        sim.spawn(self._responder(), name="%s.arpd" % host.name)

    # ------------------------------------------------------------------
    # Metastate hooks (Section 3.3): applications register callbacks so
    # the server can invalidate their cached copies.
    # ------------------------------------------------------------------

    def register_invalidation(self, callback):
        # Idempotent: a library re-registering after a server restart must
        # not end up invoked twice per invalidation.
        if callback not in self._invalidation_callbacks:
            self._invalidation_callbacks.append(callback)

    def _cache_changed(self, ip_addr):
        self.generation += 1
        for callback in self._invalidation_callbacks:
            callback(ip_addr)

    def invalidate(self, ip_addr):
        """Administratively drop a mapping (and all cached copies)."""
        self.cache.invalidate(ip_addr)
        self._cache_changed(ip_addr)

    # ------------------------------------------------------------------

    def _responder(self):
        while True:
            frame = yield from self._queue.get()
            yield self.ctx.charge(Layer.NETISR_FILTER, self.ctx.params.header_build)
            try:
                _eth, payload = ethernet.decapsulate(frame)
                packet = arp.ArpPacket.unpack(payload)
            except ValueError:
                continue
            # Learn the sender's mapping either way.
            self.cache.insert(packet.sender_ip, packet.sender_mac)
            self._cache_changed(packet.sender_ip)
            if packet.op == arp.OP_REQUEST and packet.target_ip == self.host.ip:
                reply = packet.reply_from(self.host.mac)
                frame = ethernet.encapsulate(
                    packet.sender_mac,
                    self.host.mac,
                    ethernet.ETHERTYPE_ARP,
                    reply.pack(),
                )
                yield from self.host.kernel.netif_send(self.ctx, frame, wired=True)
            self.notify.fire()

    def resolve(self, ctx, next_hop_ip):
        """Resolve ``next_hop_ip`` to a MAC, performing the ARP exchange
        on a miss.  Charges a small lookup cost to the caller."""
        yield ctx.charge(Layer.ETHER_OUTPUT, ctx.params.proc_call)
        mac = self.cache.lookup(next_hop_ip)
        if mac is not None:
            return mac
        for _attempt in range(ARP_MAX_TRIES):
            request = arp.ArpPacket.request(self.host.mac, self.host.ip, next_hop_ip)
            frame = ethernet.encapsulate(
                BROADCAST_MAC, self.host.mac, ethernet.ETHERTYPE_ARP, request.pack()
            )
            yield from self.host.kernel.netif_send(ctx, frame, wired=True)
            deadline = self.host.sim.now + ARP_RETRY_US
            while self.host.sim.now < deadline:
                mac = self.cache.lookup(next_hop_ip)
                if mac is not None:
                    return mac
                timeout = self.host.sim.timeout(deadline - self.host.sim.now)
                from repro.sim.events import any_of

                yield any_of(self.host.sim, [self.notify.wait(), timeout])
                mac = self.cache.lookup(next_hop_ip)
                if mac is not None:
                    return mac
        raise ArpTimeout("no ARP reply for %r" % next_hop_ip)
