"""Ablation: cached protocol metastate (Section 3.3).

"Applications cache [route and ARP entries] to avoid communication with
the operating system on the packet send path."  This ablation compares
the send path with a warm metastate cache against one that is invalidated
before every send — the worst case the callback machinery can inflict —
once for an ARP mapping (two hosts, one segment) and once for the route
entries (one client, 32 destinations behind one gateway: the fan-out a
per-destination cache would have paid an RPC per peer for).
"""

from conftest import once, show

from repro.analysis.tables import format_table
from repro.core.sockets import SOCK_DGRAM
from repro.net.addr import ip_aton
from repro.world.configs import build_network
from repro.world.topology import TopologySpec, build_world, warm_arp

IP1 = ip_aton("10.0.0.1")
ROUNDS = 40
DESTINATIONS = 32


def measure(invalidate_each_time):
    net, pa, pb = build_network("library-shm-ipf")
    api_a = pa.new_app()
    api_b = pb.new_app()
    ready = net.sim.event()

    def server():
        fd = yield from api_a.socket(SOCK_DGRAM)
        yield from api_a.bind(fd, 9900)
        ready.succeed()
        for _ in range(ROUNDS + 1):
            data, src = yield from api_a.recvfrom(fd)
            yield from api_a.sendto(fd, data, src)

    def client():
        yield ready
        fd = yield from api_b.socket(SOCK_DGRAM)
        yield from api_b.connect(fd, (IP1, 9900))
        yield from api_b.send(fd, b"warm")  # prime everything
        yield from api_b.recv(fd, 10)
        samples = []
        meta = api_b.library.metastate
        for _ in range(ROUNDS):
            if invalidate_each_time:
                next_hop = pb.host.route(IP1)
                meta.invalidate_arp(next_hop)
            start = net.sim.now
            yield from api_b.send(fd, b"ping")
            yield from api_b.recv(fd, 10)
            samples.append(net.sim.now - start)
        return sum(samples) / len(samples), meta.stats()

    _s, (mean_rtt, stats) = net.run_all([server(), client()],
                                        until=300_000_000)
    return mean_rtt / 1000.0, stats


def measure_routes(invalidate_each_time):
    """One echo round trip to each of DESTINATIONS hosts behind the
    star's hub, from one client socket."""
    world = build_world(TopologySpec(kind="star", hosts=DESTINATIONS + 1,
                                     seed=1, placement="library-shm-ipf"))
    warm_arp(world)
    client_api = world.new_app(0)
    listening = []
    all_listening = world.sim.event()

    def server(api):
        fd = yield from api.socket(SOCK_DGRAM)
        yield from api.bind(fd, 9900)
        listening.append(fd)
        if len(listening) == DESTINATIONS:
            all_listening.succeed()
        data, src = yield from api.recvfrom(fd)
        yield from api.sendto(fd, data, src)

    def client():
        yield all_listening
        fd = yield from client_api.socket(SOCK_DGRAM)
        meta = client_api.library.metastate
        samples = []
        for host in world.hosts[1:]:
            if invalidate_each_time:
                meta.invalidate_routes()
            start = world.sim.now
            yield from client_api.sendto(fd, b"ping", (host.ip, 9900))
            yield from client_api.recvfrom(fd)
            samples.append(world.sim.now - start)
        return sum(samples) / len(samples), meta.stats()

    results = world.run_all(
        [client()] + [server(world.new_app(i))
                      for i in range(1, DESTINATIONS + 1)],
        until=300_000_000)
    mean_rtt, stats = results[0]
    return mean_rtt / 1000.0, stats


def test_metastate_cache_ablation(benchmark):
    def run():
        return {
            "ARP, warm": measure(False),
            "ARP, invalidated per send": measure(True),
            "routes, warm": measure_routes(False),
            "routes, invalidated per send": measure_routes(True),
        }

    results = once(benchmark, run)
    rows = []
    for label, (rtt_ms, stats) in results.items():
        rows.append([label, "%.2f" % rtt_ms, "%d" % stats["arp_rpcs"],
                     "%d" % stats["arp_hits"], "%d" % stats["route_rpcs"],
                     "%d" % stats["route_hits"]])
    show(
        "Section 3.3 ablation — cached metastate on the UDP send path",
        format_table(["Cache state", "RTT ms", "ARP RPCs", "ARP hits",
                      "route RPCs", "route hits"], rows),
    )
    warm_rtt, warm_stats = results["ARP, warm"]
    cold_rtt, cold_stats = results["ARP, invalidated per send"]
    # Warm: exactly one ARP RPC ever (at priming); every send hits cache.
    assert warm_stats["arp_rpcs"] == 1
    # Cold: one server round trip per send, visibly slower.
    assert cold_stats["arp_rpcs"] >= ROUNDS
    assert cold_rtt > warm_rtt * 1.10
    warm_rtt, warm_stats = results["routes, warm"]
    cold_rtt, cold_stats = results["routes, invalidated per send"]
    # Warm: the entries fetched once serve all 32 destinations.
    assert warm_stats["route_rpcs"] == 1
    assert warm_stats["route_hits"] == DESTINATIONS
    # Cold: what a per-destination cache paid — a fetch per peer.
    assert cold_stats["route_rpcs"] == DESTINATIONS
    assert cold_rtt > warm_rtt * 1.10
