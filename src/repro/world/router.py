"""An IP router joining Ethernet segments.

The paper's testbed is a single private segment, but its routing-table
metastate (Section 3.3) presumes gatewayed topologies.  This router makes
those topologies buildable: a multi-homed node that forwards IP packets
between segments, decrementing TTL, fragmenting to the outgoing MTU,
answering ARP on every interface, and emitting ICMP time-exceeded when a
TTL dies (which is exactly what traceroute listens for).

Forwarding charges CPU on the router host like any other protocol code,
so multi-hop paths cost simulated time end to end.
"""

from repro.hw.cpu import CPU, Priority
from repro.hw.nic import LANCE, NIC
from repro.net import arp, ethernet, icmp, ip
from repro.net.addr import BROADCAST_MAC, ip_aton, make_mac
from repro.net.routing import RouteTable
from repro.sim.events import any_of
from repro.stack.context import ExecutionContext
from repro.stack.instrument import Layer
from repro.trace import adopt_trace, frame_trace

#: A router's ARP requests per unresolved next hop, and its wait for each.
ARP_TRIES = 3
ARP_WAIT_US = 500_000.0


class RouterInterface:
    """One attachment point: a NIC plus its IP configuration."""

    def __init__(self, router, wire, ip_addr, prefixlen, index,
                 nic_model=LANCE):
        from repro.stack.engine import Notifier

        self.router = router
        self.ip = ip_aton(ip_addr)
        self.prefixlen = prefixlen
        self.mac = make_mac(router.host_id * 1000 + index)
        self.name = "%s.if%d" % (router.name, index)
        self.nic = NIC(router.sim, wire, self.mac, model=nic_model,
                       name=self.name)
        self.arp_cache = arp.ArpCache(lambda: router.sim.now)
        self.arp_notify = Notifier(router.sim, self.name + ".arp")
        router.sim.spawn(self._input_loop(), name=self.name)

    def _input_loop(self):
        while True:
            frame = yield from self.nic.rx_ring.get()
            self.nic.rx_pop_time()  # keep the timestamp deque aligned
            self.nic.rx_release()
            # Whatever this process transmits for the frame inherits its
            # tag (NIC.start_transmit reads the sender's context).
            adopt_trace(self.router.sim, frame_trace(frame))
            yield from self.router._input(self, frame)


class Router:
    """A packet-forwarding node with one interface per attached wire."""

    _next_id = 1000

    def __init__(self, sim, platform, name="router"):
        self.sim = sim
        self.name = name
        self.host_id = Router._next_id
        Router._next_id += 1
        self.cpu = CPU(sim, platform, name="%s.cpu" % name)
        self.ctx = ExecutionContext(sim, self.cpu, priority=Priority.KERNEL,
                                    name=name)
        self.interfaces = []
        self._own_ips = set()
        self.route_table = RouteTable()
        self.forwarded = 0
        self.ttl_expired = 0
        self.no_route = 0

    def attach(self, wire, ip_addr, prefixlen=24, nic_model=LANCE):
        """Add an interface on ``wire``; installs its connected route."""
        iface = RouterInterface(self, wire, ip_addr, prefixlen,
                                len(self.interfaces), nic_model=nic_model)
        self.interfaces.append(iface)
        self._own_ips.add(iface.ip)
        self.route_table.add(iface.ip, prefixlen, iface=iface)
        return iface

    def add_route(self, prefix, prefixlen, gateway):
        """A static route via ``gateway`` (resolved per packet)."""
        route = self.route_table.lookup(ip_aton(gateway))
        if route is None or route.gateway is not None:
            raise ValueError("gateway %r is not directly attached" % gateway)
        self.route_table.add(prefix, prefixlen, iface=route.iface,
                             gateway=gateway)

    def owns_ip(self, addr):
        return addr in self._own_ips

    # ------------------------------------------------------------------
    # Input
    # ------------------------------------------------------------------

    def _input(self, iface, frame):
        p = self.ctx.params
        yield self.ctx.charge(Layer.DEVICE_READ,
                                   p.interrupt_entry
                                   + p.devmem_read_per_byte * len(frame))
        try:
            header, payload = ethernet.decapsulate(frame)
        except ValueError:
            return
        if header.ethertype == ethernet.ETHERTYPE_ARP:
            yield from self._arp_input(iface, payload)
        elif header.ethertype == ethernet.ETHERTYPE_IP:
            yield from self._ip_input(iface, payload)

    def _arp_input(self, iface, payload):
        try:
            packet = arp.ArpPacket.unpack(payload)
        except ValueError:
            return
        iface.arp_cache.insert(packet.sender_ip, packet.sender_mac)
        iface.arp_notify.fire()
        if packet.op == arp.OP_REQUEST and packet.target_ip == iface.ip:
            yield self.ctx.charge(Layer.NETISR_FILTER,
                                       self.ctx.params.header_build)
            reply = packet.reply_from(iface.mac)
            frame = ethernet.encapsulate(
                packet.sender_mac, iface.mac, ethernet.ETHERTYPE_ARP,
                reply.pack(),
            )
            yield from self._transmit(iface, frame)

    def _ip_input(self, in_iface, packet):
        p = self.ctx.params
        yield self.ctx.charge(Layer.IPINTR, p.ipintr_overhead)
        try:
            header = ip.IPHeader.unpack(packet)
        except ValueError:
            return
        if self.owns_ip(header.dst):
            yield from self._local_input(in_iface, header, packet)
            return
        if header.ttl <= 1:
            self.ttl_expired += 1
            yield from self._send_time_exceeded(in_iface, header, packet)
            return
        route = self.route_table.lookup(header.dst)
        if route is None:
            self.no_route += 1
            return
        # Rewrite TTL (and therefore the header checksum).
        _hdr, payload = ip.decapsulate(packet, verify=False)
        rewritten = ip.encapsulate(
            header.src, header.dst, header.proto, payload,
            ident=header.ident, ttl=header.ttl - 1, flags=header.flags,
            frag_off=header.frag_off,
        )
        next_hop = header.dst if route.is_direct else route.gateway
        self.forwarded += 1
        yield self.ctx.charge(Layer.IP_OUTPUT, p.ip_output_overhead)
        for frag in ip.fragment(rewritten, ethernet.MTU):
            yield from self._output(route.iface, next_hop, frag)

    def _local_input(self, in_iface, header, packet):
        """The router itself only speaks ICMP echo (it is not a host)."""
        if header.proto != ip.PROTO_ICMP:
            return
        _hdr, payload = ip.decapsulate(packet, verify=False)
        try:
            message = icmp.ICMPMessage.unpack(payload)
        except ValueError:
            return
        if message.type != icmp.TYPE_ECHO_REQUEST:
            return
        reply = ip.encapsulate(header.dst, header.src, ip.PROTO_ICMP,
                               message.echo_reply().pack())
        route = self.route_table.lookup(header.src)
        if route is None:
            return
        next_hop = header.src if route.is_direct else route.gateway
        yield from self._output(route.iface, next_hop, reply)

    def _send_time_exceeded(self, in_iface, header, packet):
        message = icmp.ICMPMessage(
            icmp.TYPE_TIME_EXCEEDED, code=0, payload=bytes(packet[:28])
        )
        reply = ip.encapsulate(in_iface.ip, header.src, ip.PROTO_ICMP,
                               message.pack())
        # The reply is routed like any packet: the original sender may be
        # several hops behind the interface the doomed packet came in on.
        route = self.route_table.lookup(header.src)
        if route is None:
            return
        next_hop = header.src if route.is_direct else route.gateway
        yield from self._output(route.iface, next_hop, reply)

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------

    def _output(self, iface, next_hop, packet):
        mac = yield from self._resolve(iface, next_hop)
        if mac is None:
            return
        frame = ethernet.encapsulate(mac, iface.mac, ethernet.ETHERTYPE_IP,
                                     packet)
        yield from self._transmit(iface, frame)

    def _transmit(self, iface, frame):
        p = self.ctx.params
        yield self.ctx.charge(
            Layer.ETHER_OUTPUT,
            p.ether_overhead + p.devmem_write_per_byte * len(frame),
        )
        yield from iface.nic.start_transmit(frame)

    def _resolve(self, iface, next_hop):
        mac = iface.arp_cache.lookup(next_hop)
        if mac is not None:
            return mac
        for _ in range(ARP_TRIES):
            request = arp.ArpPacket.request(iface.mac, iface.ip, next_hop)
            frame = ethernet.encapsulate(
                BROADCAST_MAC, iface.mac, ethernet.ETHERTYPE_ARP,
                request.pack(),
            )
            yield from self._transmit(iface, frame)
            deadline = self.sim.now + ARP_WAIT_US
            while self.sim.now < deadline:
                waits = [iface.arp_notify.wait(),
                         self.sim.timeout(deadline - self.sim.now)]
                yield any_of(self.sim, waits)
                mac = iface.arp_cache.lookup(next_hop)
                if mac is not None:
                    return mac
        return None  # unreachable next hop: drop (routers do)
