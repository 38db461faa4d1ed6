"""Cached route entries (Section 3.3).

"Applications cache [route table entries] to avoid communication with
the operating system on the packet send path", and "the server holds
callbacks into each application and invalidates cached entries as they
change".  The application's copy has to be *exact* — for every
destination the answer :meth:`Host.route` gives at the table's current
generation — and cheap: one fetch serves every destination the entries
cover, however many peers an application talks to.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sockets import SOCK_DGRAM, SOCK_STREAM
from repro.faults import Blackhole, FaultPlan
from repro.hw.platforms import DECSTATION_5000_200
from repro.hw.wire import EthernetWire
from repro.net.addr import ip_aton
from repro.sim.engine import Simulator
from repro.world.configs import CONFIGS, Placement, build_network
from repro.world.host import Host
from repro.world.router import Router
from repro.world.topology import TopologySpec, build_world, warm_arp

LIBRARY = "library-shm-ipf"
BOUND = 600_000_000


def _send_path_route(meta, ctx, dst):
    """What ``ip_output`` does: the cache, the server on None."""
    next_hop = meta.route(dst)
    if next_hop is None:
        next_hop = yield from meta.prime_route(ctx, dst)
    return next_hop


def _meta_route_calls(placement):
    row = placement.server.health_snapshot()["op_latency"].get("meta_route")
    return row["count"] if row else 0


# ----------------------------------------------------------------------
# (a) Exactness: the cache against Host.route, under mutation
# ----------------------------------------------------------------------

# The host is 10.0.0.2/24.  A /28 and a /32 sit inside 10.0.5.0/24, so a
# cached /24 or default can be shadowed by an entry fetched later.
_PREFIXES = [
    ("0.0.0.0", 0), ("10.0.5.0", 24), ("10.0.6.0", 24), ("10.0.7.0", 24),
    ("10.0.5.16", 28), ("10.0.5.20", 32), ("10.0.0.0", 24),
]
_GATEWAYS = [None, "10.0.0.1", "10.0.0.9", "10.0.0.254"]
_DESTINATIONS = [ip_aton(a) for a in (
    "10.0.5.20", "10.0.5.21", "10.0.5.17", "10.0.5.40", "10.0.5.1",
    "10.0.6.1", "10.0.6.200", "10.0.7.7", "10.0.0.1", "10.0.0.77",
    "10.9.9.9", "192.168.1.1", "10.0.4.255",
)]

_op = st.one_of(
    st.tuples(st.just("add"), st.sampled_from(_PREFIXES),
              st.sampled_from(_GATEWAYS)),
    st.tuples(st.just("remove"), st.sampled_from(_PREFIXES)),
    st.tuples(st.just("lookup"), st.sampled_from(_DESTINATIONS)),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_op, min_size=1, max_size=40))
def test_cached_route_entries_equal_host_route(ops):
    net, _pa, pb = build_network(LIBRARY)
    api = pb.new_app()
    meta = api.library.metastate
    table = pb.host.route_table
    fetches_allowed = 0
    asked_at = None  # the generation the cache last asked the server at

    for op in ops:
        if op[0] == "add":
            (prefix, prefixlen), gateway = op[1], op[2]
            table.add(prefix, prefixlen, iface="en0", gateway=gateway)
        elif op[0] == "remove":
            table.remove(*op[1])
        else:
            dst = op[1]
            if asked_at != table.generation:
                asked_at = table.generation
                fetches_allowed += 1
            try:
                want = pb.host.route(dst)
            except ValueError:
                want = ValueError
            try:
                got, = net.run_all(
                    [_send_path_route(meta, api.ctx, dst)],
                    until=net.sim.now + BOUND)
            except ValueError:
                got = ValueError
            assert got == want, (op, table.routes())
            # And once more from the memo, with no server in reach.
            if want is not ValueError:
                assert meta.route(dst) == want
    # At most one fetch per generation that saw a lookup — no more than
    # the distinct entries those lookups used.
    assert meta.route_rpcs <= fetches_allowed
    assert _meta_route_calls(pb) == meta.route_rpcs


def test_cached_default_does_not_swallow_a_more_specific_entry():
    net, _pa, pb = build_network(LIBRARY)
    api = pb.new_app()
    meta = api.library.metastate
    table = pb.host.route_table
    table.add("0.0.0.0", 0, iface="en0", gateway="10.0.0.254")
    inside, outside = ip_aton("10.0.5.20"), ip_aton("10.0.5.40")

    def lookup(dst):
        got, = net.run_all([_send_path_route(meta, api.ctx, dst)],
                           until=net.sim.now + BOUND)
        return got

    assert lookup(inside) == ip_aton("10.0.0.254")
    table.add("10.0.5.16", 28, iface="en0", gateway="10.0.0.9")
    assert lookup(inside) == ip_aton("10.0.0.9")
    assert lookup(outside) == ip_aton("10.0.0.254")
    table.add("10.0.5.20", 32, iface="en0")  # direct host route
    assert lookup(inside) == inside
    assert meta.route_rpcs == 3  # one per generation, not per destination
    assert meta.invalidations == 3


def test_table_change_overtaking_the_reply_is_not_cached():
    """The table changes while ``meta_route``'s reply is in flight: the
    callback empties a cache that is still empty, and the stale reply
    must not fill it."""
    net, _pa, pb = build_network(LIBRARY)
    api = pb.new_app()
    meta = api.library.metastate
    dst = ip_aton("10.0.5.20")
    pb.host.route_table.add("0.0.0.0", 0, iface="en0", gateway="10.0.0.254")

    def mutate():
        # After the server read its table, before the client resumes.
        while _meta_route_calls(pb) == 0:
            yield net.sim.timeout(1.0)
        pb.host.route_table.add("10.0.5.20", 32, iface="en0",
                                gateway="10.0.0.9")

    got, _none = net.run_all(
        [_send_path_route(meta, api.ctx, dst), mutate()], until=BOUND)
    assert got == pb.host.route(dst) == ip_aton("10.0.0.9")
    assert meta.route_rpcs == 2


# ----------------------------------------------------------------------
# (b) Fan-out: RPCs per application, not per destination
# ----------------------------------------------------------------------

def test_star_fanout_costs_each_app_a_bounded_number_of_route_rpcs():
    hosts = 16
    world = build_world(TopologySpec(kind="star", hosts=hosts, seed=7,
                                     placement=LIBRARY))
    warm_arp(world)
    apis = [world.new_app(i) for i in range(hosts)]
    addrs = [host.ip for host in world.hosts]
    all_bound = world.sim.event()
    fds = {}
    bound = []

    def send_to_all(i, text):
        for j in range(hosts):
            if j != i:
                yield from apis[i].sendto(fds[i], text, (addrs[j], 9000))

    def first_round(i):
        fds[i] = yield from apis[i].socket(SOCK_DGRAM)
        yield from apis[i].bind(fds[i], 9000)
        bound.append(i)
        if len(bound) == hosts:
            all_bound.succeed()
        yield all_bound
        yield from send_to_all(i, b"hello")

    world.run_all([first_round(i) for i in range(hosts)], until=BOUND)
    world.run(until=world.sim.now + 1_000_000)
    for i, api in enumerate(apis):
        stats = api.library.metastate.stats()
        # One per destination (15) before route entries were cached.
        assert 1 <= stats["route_rpcs"] <= 2
        assert stats["route_hits"] == hosts - 1
        assert api.fds.get(fds[i]).payload.session.queue  # peers got through
    warm = [_meta_route_calls(p) for p in world.placements]
    world.run_all([send_to_all(i, b"again") for i in range(hosts)],
                  until=world.sim.now + BOUND)
    assert [_meta_route_calls(p) for p in world.placements] == warm


# ----------------------------------------------------------------------
# (c) Two hosts: unchanged from before entries were cached
# ----------------------------------------------------------------------

def test_two_host_exchange_still_costs_one_route_and_one_arp_rpc():
    net, pa, pb = build_network(LIBRARY)
    api_a, api_b = pa.new_app(), pb.new_app()
    ready = net.sim.event()

    def server():
        fd = yield from api_a.socket(SOCK_DGRAM)
        yield from api_a.bind(fd, 9700)
        ready.succeed()
        for _ in range(3):
            data, src = yield from api_a.recvfrom(fd)
            yield from api_a.sendto(fd, data, src)

    def client():
        yield ready
        fd = yield from api_b.socket(SOCK_DGRAM)
        yield from api_b.connect(fd, (pa.host.ip, 9700))
        for _ in range(3):
            yield from api_b.send(fd, b"ping")
            yield from api_b.recv(fd, 10)

    net.run_all([server(), client()], until=BOUND)
    for api in (api_a, api_b):
        stats = api.library.metastate.stats()
        assert stats["route_rpcs"] == 1
        assert stats["arp_rpcs"] == 1
        assert stats["route_hits"] == 3


# ----------------------------------------------------------------------
# (d) Invalidation mid-run: the next packet leaves by the new next hop
# ----------------------------------------------------------------------

H1, H2 = "10.0.1.1", "10.0.2.1"
R1_NET1, R1_NET2 = "10.0.1.254", "10.0.2.254"
R2_NET1, R2_NET2 = "10.0.1.253", "10.0.2.253"


def _two_gateway_world(r1_dies_at=None):
    """h1 and h2 on two segments joined by *two* routers; both hosts
    start out routing through r1.  ``r1_dies_at`` stops r1 hearing
    anything on h1's segment from that instant on."""
    sim = Simulator()
    plan = None
    if r1_dies_at is not None:
        plan = FaultPlan(seed=1)
    wire1 = EthernetWire(sim, name="net1", fault_plan=plan)
    wire2 = EthernetWire(sim, name="net2")
    spec = CONFIGS[LIBRARY]
    h1 = Host(sim, wire1, H1, DECSTATION_5000_200, name="h1",
              integrated_filter=spec.integrated_filter)
    h2 = Host(sim, wire2, H2, DECSTATION_5000_200, name="h2",
              integrated_filter=spec.integrated_filter)
    h1.route_table.add("0.0.0.0", 0, iface="en0", gateway=R1_NET1)
    h2.route_table.add("0.0.0.0", 0, iface="en0", gateway=R1_NET2)
    r1 = Router(sim, DECSTATION_5000_200, name="r1")
    r2 = Router(sim, DECSTATION_5000_200, name="r2")
    for router, net1, net2 in ((r1, R1_NET1, R1_NET2),
                               (r2, R2_NET1, R2_NET2)):
        router.attach(wire1, net1)
        router.attach(wire2, net2)
    if plan is not None:
        plan.add(Blackhole(r1_dies_at, float("inf"),
                           nics=[r1.interfaces[0].nic], direction="rx"))
    return sim, Placement(spec, h1), Placement(spec, h2), r1, r2


def test_udp_leaves_by_the_new_next_hop_after_a_route_change():
    sim, p1, p2, r1, r2 = _two_gateway_world()
    api1, api2 = p1.new_app(), p2.new_app()
    meta = api1.library.metastate
    ready = sim.event()
    burst = 5

    def sink():
        fd = yield from api2.socket(SOCK_DGRAM)
        yield from api2.bind(fd, 9800)
        ready.succeed()
        got = []
        for _ in range(3 * burst):
            data, _src = yield from api2.recvfrom(fd)
            got.append(data)
        return got

    def source():
        yield ready
        fd = yield from api1.socket(SOCK_DGRAM)
        forwarded = []
        for phase in range(3):
            for n in range(burst):
                yield from api1.sendto(fd, b"%d.%d" % (phase, n),
                                       (ip_aton(H2), 9800))
            yield sim.timeout(50_000)  # let the burst cross the routers
            forwarded.append((r1.forwarded, r2.forwarded))
            if phase == 0:
                # More specific than the cached default.
                p1.host.route_table.add(H2, 32, iface="en0",
                                        gateway=R2_NET1)
            elif phase == 1:
                p1.host.route_table.remove(H2, 32)
        return forwarded

    got, forwarded = sim.run_all([sink(), source()], until=BOUND)
    assert len(got) == 3 * burst
    assert forwarded == [(burst, 0), (burst, burst), (2 * burst, burst)]
    assert meta.route_rpcs == 3  # one per generation used
    assert meta.invalidations >= 2


def test_tcp_segment_and_timer_retransmit_follow_a_route_change():
    """An established app-mode session: r1 dies, swallowing a segment;
    the route moves to r2 while the application sits in recv(); the
    retransmit fired from the stack's timer loop — nobody primes for it
    — must fetch the new entries and leave through r2."""
    dies_at = 400_000.0
    sim, p1, p2, r1, r2 = _two_gateway_world(r1_dies_at=dies_at)
    api1, api2 = p1.new_app(), p2.new_app()
    meta = api1.library.metastate
    ready = sim.event()
    first, second, third = b"a" * 700, b"b" * 900, b"c" * 300

    def server():
        fd = yield from api2.socket(SOCK_STREAM)
        yield from api2.bind(fd, 9801)
        yield from api2.listen(fd)
        ready.succeed()
        cfd, _peer = yield from api2.accept(fd)
        for chunk in (first, second, third):
            data = yield from api2.recv_exactly(cfd, len(chunk))
            yield from api2.send_all(cfd, data)
        yield from api2.close(cfd)

    def client():
        yield ready
        fd = yield from api1.socket(SOCK_STREAM)
        yield from api1.connect(fd, (ip_aton(H2), 9801))
        yield from api1.send_all(fd, first)
        echoed = [(yield from api1.recv_exactly(fd, len(first)))]
        assert r2.forwarded == 0 and sim.now < dies_at
        yield sim.timeout(dies_at + 1_000 - sim.now)
        yield from api1.send_all(fd, second)  # r1 is deaf: lost
        session = api1.fds.get(fd).payload.session
        before = session.conn.stats.retransmits
        # From here the application only waits; the timer loop acts.
        echoed.append((yield from api1.recv_exactly(fd, len(second))))
        retransmits = session.conn.stats.retransmits - before
        # And an API-driven segment after the change, for completeness.
        yield from api1.send_all(fd, third)
        echoed.append((yield from api1.recv_exactly(fd, len(third))))
        yield from api1.close(fd)
        return echoed, retransmits

    def operator():
        yield sim.timeout(dies_at + 5_000)
        p1.host.route_table.add(H2, 32, iface="en0", gateway=R2_NET1)

    _srv, (echoed, retransmits), _op = sim.run_all(
        [server(), client(), operator()], until=BOUND)
    assert echoed == [first, second, third]
    assert retransmits >= 1
    assert r2.forwarded >= 2  # the retransmit and the third chunk
    assert meta.route_rpcs == 2
    assert meta.invalidations >= 1
