"""Seeded topology generators for scale-out worlds.

The paper's testbed is two hosts on one Ethernet; its protocol
decomposition argument, though, is about how placements behave under
*load* — which needs worlds big enough to produce queueing.  This module
grows them: a :class:`TopologySpec` names a topology family and its
parameters, and :func:`build_world` deterministically expands it into
hosts, wires, routers, and per-host placements.

Three families cover the study's needs:

``star``
    Every host on its own point-to-point segment into one hub router
    (a switched building network).  All traffic crosses the hub.
``fattree``
    Hosts grouped onto shared edge segments, one edge router each,
    cross-edge traffic striped over spine routers via point-to-point
    uplinks (a two-level folded Clos, "fat-tree-ish").
``wan``
    Sites of hosts joined by a chain of long-haul links with seeded
    multi-millisecond propagation delays.

Everything visible about a world — addressing, link parameters, routes —
derives from ``spec.seed`` via :class:`random.Random`, and is captured in
a canonical description whose SHA-256 is the world's
:meth:`~World.fingerprint`.  The fingerprint deliberately excludes MAC
addresses and host ids (they come from process-global counters, so two
identical worlds built in one process differ there without differing in
behavior).
"""

import json
from dataclasses import dataclass
from hashlib import sha256
from math import ceil
from random import Random

from repro.hw.nic import ETHERLINK_3C503, LANCE
from repro.hw.platforms import DECSTATION_5000_200, GATEWAY_486
from repro.hw.wire import US_PER_BYTE_10MBIT, EthernetWire
from repro.metrics import MetricsRegistry
from repro.net.addr import ip_ntoa
from repro.sim.engine import Simulator
from repro.trace import TraceRecorder
from repro.world.configs import CONFIGS, make_placement
from repro.world.host import Host
from repro.world.router import Router

TOPOLOGY_KINDS = ("star", "fattree", "wan")


@dataclass(frozen=True)
class TopologySpec:
    """One reproducible world, fully determined by its fields."""

    kind: str
    hosts: int
    placement: str = "mach25"
    seed: int = 0
    platform: str = "decstation"
    # fattree parameters
    hosts_per_edge: int = 8
    spines: int = 2
    # wan parameters
    sites: int = 2
    # link parameterization (seeded uniform draws within these ranges)
    leaf_propagation_us: tuple = (0.5, 5.0)
    wan_propagation_us: tuple = (2_000.0, 20_000.0)
    us_per_byte: float = US_PER_BYTE_10MBIT
    # Routers forward on a CPU this many times faster than the host
    # platform (a dedicated forwarding box vs a workstation).
    router_speedup: float = 8.0


def _host_subnet(index):
    """Dotted /24 base (no final octet) for host/edge/site ``index``."""
    hi, lo = divmod(index, 200)
    return "10.%d.%d" % (1 + hi, lo)


def _infra_subnet(index):
    """Dotted /24 base for infrastructure (uplink/long-haul) ``index``."""
    hi, lo = divmod(index, 250)
    return "10.%d.%d" % (200 + hi, lo)


class World:
    """A built topology: sim + hosts + placements + routers + wires.

    Construction happens through the ``add_*`` helpers so the canonical
    description stays in sync with what exists; :func:`build_world` is
    the only intended caller.
    """

    def __init__(self, spec, sim=None, tcp_defaults=None):
        self.spec = spec
        placement_spec = CONFIGS[spec.placement]
        if spec.platform == "decstation":
            base_platform = DECSTATION_5000_200
            self.nic_model = LANCE
        elif spec.platform == "gateway":
            base_platform = GATEWAY_486
            self.nic_model = ETHERLINK_3C503
        else:
            raise ValueError("unknown platform %r" % spec.platform)
        self.placement_spec = placement_spec
        self.host_platform = (
            base_platform.scaled(placement_spec.cpu_scale)
            if placement_spec.cpu_scale != 1.0 else base_platform)
        self.router_platform = base_platform.scaled(1.0 / spec.router_speedup)
        self.sim = sim if sim is not None else Simulator()
        self.tracer = TraceRecorder(self.sim)
        self.metrics = MetricsRegistry(self.sim)
        self.tcp_defaults = tcp_defaults
        self.hosts = []
        self.placements = []
        self.routers = []
        self.wires = []
        self._wire_desc = []
        self._host_desc = []

    # -- construction helpers ------------------------------------------

    def add_wire(self, name, propagation_us=0.0, us_per_byte=None):
        if us_per_byte is None:
            us_per_byte = self.spec.us_per_byte
        wire = EthernetWire(self.sim, us_per_byte=us_per_byte, name=name,
                            propagation_us=propagation_us)
        self.metrics.observe_wire(wire)
        self.wires.append(wire)
        self._wire_desc.append({
            "name": name,
            "propagation_us": round(propagation_us, 6),
            "us_per_byte": us_per_byte,
        })
        return wire

    def add_host(self, wire, ip_addr, name, gateway=None):
        host = Host(
            self.sim, wire, ip_addr, self.host_platform, name=name,
            nic_model=self.nic_model,
            integrated_filter=self.placement_spec.integrated_filter,
            tracer=self.tracer, metrics=self.metrics,
        )
        if gateway is not None:
            host.route_table.add("0.0.0.0", 0, iface="en0",
                                 gateway=gateway)
        placement = make_placement(self.placement_spec, host,
                                   tcp_defaults=self.tcp_defaults)
        self.hosts.append(host)
        self.placements.append(placement)
        self._host_desc.append({
            "name": name,
            "ip": ip_addr,
            "wire": wire.name,
            "gateway": gateway,
            "placement": self.placement_spec.key,
        })
        return host

    def add_router(self, name):
        router = Router(self.sim, self.router_platform, name=name)
        self.routers.append(router)
        return router

    # -- derived views --------------------------------------------------

    def new_app(self, host_index, **kwargs):
        return self.placements[host_index].new_app(**kwargs)

    def description(self):
        """Canonical JSON-able description of the built world."""
        routers = []
        for router in self.routers:
            routers.append({
                "name": router.name,
                "interfaces": [
                    {"ip": ip_ntoa(iface.ip), "prefixlen": iface.prefixlen,
                     "wire": iface.nic._wire.name}
                    for iface in router.interfaces
                ],
                "routes": [
                    [ip_ntoa(r.prefix), r.prefixlen,
                     None if r.gateway is None else ip_ntoa(r.gateway)]
                    for r in router.route_table.routes()
                ],
            })
        spec = self.spec
        return {
            "schema": "repro-world/1",
            "spec": {
                "kind": spec.kind,
                "hosts": spec.hosts,
                "placement": spec.placement,
                "seed": spec.seed,
                "platform": spec.platform,
                "hosts_per_edge": spec.hosts_per_edge,
                "spines": spec.spines,
                "sites": spec.sites,
                "router_speedup": spec.router_speedup,
            },
            "hosts": self._host_desc,
            "wires": self._wire_desc,
            "routers": routers,
        }

    def fingerprint(self):
        """SHA-256 of the canonical description (MAC/host-id free)."""
        canonical = json.dumps(self.description(), sort_keys=True,
                               separators=(",", ":"))
        return sha256(canonical.encode("ascii")).hexdigest()

    def run(self, until=None):
        self.sim.run(until=until)

    def run_all(self, generators, until=None):
        return self.sim.run_all(generators, until=until)


def warm_arp(world):
    """Statically pre-populate every ARP cache in ``world``.

    On each wire, every attached station (host or router interface)
    learns every other station's MAC, exactly as a few seconds of
    chatter would teach them.  Measurement sweeps call this so tail
    percentiles measure queueing, not first-contact ARP round trips.
    (Entries still expire at the normal TTL; sweeps are far shorter.)
    A station's immutable ``(mac, expires)`` entry is one object shared
    by every cache that computes an equal one, so what a pair of
    stations costs is a dict slot.
    """
    stations = {}  # wire -> [(ip, mac, cache), ...]
    for host in world.hosts:
        stations.setdefault(host.nic._wire, []).append(
            (host.ip, host.mac, host.arp.cache))
    for router in world.routers:
        for iface in router.interfaces:
            stations.setdefault(iface.nic._wire, []).append(
                (iface.ip, iface.mac, iface.arp_cache))
    for members in stations.values():
        for ip_addr, mac, _cache in members:
            shared = None
            for other_ip, _other_mac, cache in members:
                if other_ip != ip_addr:
                    entry = cache.entry(mac)
                    if entry != shared:
                        shared = entry
                    cache.put(ip_addr, shared)


def build_world(spec, sim=None, tcp_defaults=None):
    """Expand ``spec`` into a :class:`World`, deterministically."""
    if spec.hosts < 1:
        raise ValueError("a world needs at least one host")
    if spec.kind == "star":
        return _build_star(spec, sim, tcp_defaults)
    if spec.kind == "fattree":
        return _build_fattree(spec, sim, tcp_defaults)
    if spec.kind == "wan":
        return _build_wan(spec, sim, tcp_defaults)
    raise ValueError("unknown topology kind %r (expected one of %s)"
                     % (spec.kind, ", ".join(TOPOLOGY_KINDS)))


def _build_star(spec, sim, tcp_defaults):
    world = World(spec, sim=sim, tcp_defaults=tcp_defaults)
    rng = Random(spec.seed)
    hub = world.add_router("hub")
    for i in range(spec.hosts):
        base = _host_subnet(i)
        propagation = rng.uniform(*spec.leaf_propagation_us)
        wire = world.add_wire("leaf%d" % i, propagation_us=propagation)
        gateway = base + ".254"
        hub.attach(wire, gateway)
        world.add_host(wire, base + ".1", "h%03d" % i, gateway=gateway)
    return world


def _build_fattree(spec, sim, tcp_defaults):
    world = World(spec, sim=sim, tcp_defaults=tcp_defaults)
    rng = Random(spec.seed)
    edges = ceil(spec.hosts / spec.hosts_per_edge)
    spines = max(1, min(spec.spines, edges))
    spine_routers = [world.add_router("spine%d" % s) for s in range(spines)]
    edge_routers = []
    uplink = {}  # (edge, spine) -> (edge-side ip, spine-side ip)
    infra = 0
    placed = 0
    for e in range(edges):
        base = _host_subnet(e)
        wire = world.add_wire(
            "edge%d" % e, propagation_us=rng.uniform(*spec.leaf_propagation_us))
        edge = world.add_router("edge%d" % e)
        edge_routers.append(edge)
        gateway = base + ".254"
        edge.attach(wire, gateway)
        on_this_edge = min(spec.hosts_per_edge, spec.hosts - placed)
        for j in range(on_this_edge):
            world.add_host(wire, base + ".%d" % (j + 1),
                           "h%03d" % placed, gateway=gateway)
            placed += 1
        for s in range(spines):
            up_base = _infra_subnet(infra)
            infra += 1
            up_wire = world.add_wire(
                "up%d-%d" % (e, s),
                propagation_us=rng.uniform(*spec.leaf_propagation_us))
            edge.attach(up_wire, up_base + ".1")
            spine_routers[s].attach(up_wire, up_base + ".2")
            uplink[(e, s)] = (up_base + ".1", up_base + ".2")
    # Cross-edge routes stripe destination subnets over the spines, so
    # both directions of a flow may ride different spines (ECMP-ish but
    # deterministic: spine = destination edge index mod spines).
    for e in range(edges):
        for f in range(edges):
            if f == e:
                continue
            s = f % spines
            edge_routers[e].add_route(_host_subnet(f) + ".0", 24,
                                      uplink[(e, s)][1])
    for s in range(spines):
        for f in range(edges):
            spine_routers[s].add_route(_host_subnet(f) + ".0", 24,
                                       uplink[(f, s)][0])
    return world


def _build_wan(spec, sim, tcp_defaults):
    world = World(spec, sim=sim, tcp_defaults=tcp_defaults)
    rng = Random(spec.seed)
    sites = max(1, min(spec.sites, spec.hosts))
    site_routers = []
    placed = 0
    for i in range(sites):
        base = _host_subnet(i)
        wire = world.add_wire(
            "site%d" % i, propagation_us=rng.uniform(*spec.leaf_propagation_us))
        router = world.add_router("site%d" % i)
        site_routers.append(router)
        gateway = base + ".254"
        router.attach(wire, gateway)
        site_hosts = spec.hosts // sites + (1 if i < spec.hosts % sites else 0)
        for j in range(site_hosts):
            world.add_host(wire, base + ".%d" % (j + 1),
                           "h%03d" % placed, gateway=gateway)
            placed += 1
    # A chain of long-haul links: link i joins site i and site i+1.
    left_ip, right_ip = {}, {}  # site index -> neighbor-side gateway ip
    for i in range(sites - 1):
        base = _infra_subnet(i)
        wire = world.add_wire(
            "haul%d" % i, propagation_us=rng.uniform(*spec.wan_propagation_us))
        site_routers[i].attach(wire, base + ".1")
        site_routers[i + 1].attach(wire, base + ".2")
        right_ip[i] = base + ".2"   # site i's next hop toward i+1
        left_ip[i + 1] = base + ".1"  # site i+1's next hop toward i
    for i in range(sites):
        for j in range(sites):
            if j == i:
                continue
            gateway = right_ip[i] if j > i else left_ip[i]
            site_routers[i].add_route(_host_subnet(j) + ".0", 24, gateway)
    return world
