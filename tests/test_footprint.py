"""What an idle host costs: structures that are never used allocate
nothing, and the warm ARP caches of a segment share one entry per
station.

The per-host limit sits between the two designs (EXPERIMENTS.md,
"Per-host footprint"): a warmed 64-host ``library-shm-ipf`` star world
traced 62.0 KB per host while every wait queue and metric history was
an empty deque and every cache had its own ARP entry per station, and
39.2 KB per host once they were not.
"""

import random
import sys
import tracemalloc

from repro.core.sockets import SOCK_STREAM
from repro.faults import FaultPlan, ServerSlowOp
from repro.metrics.registry import Gauge, TimeSeries
from repro.sim.sync import Channel, Condition, Lock
from repro.world.configs import build_network
from repro.world.topology import TopologySpec, build_world, warm_arp

#: Bytes of an idle wait queue or metric history (an empty list is 56 B;
#: an empty deque is 760 B).
IDLE_CONTAINER_LIMIT = 100
#: Traced bytes per host of a built and warmed 64-host star world.
WORLD_BYTES_PER_HOST_LIMIT = 48 * 1024


def _spec(kind, hosts):
    return TopologySpec(kind=kind, hosts=hosts, hosts_per_edge=8, spines=2,
                        sites=2, router_speedup=8.0, seed=11,
                        placement="library-shm-ipf")


def test_a_warmed_64_host_star_world_stays_under_the_per_host_limit():
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        world = build_world(_spec("star", 64))
        warm_arp(world)
        used = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(world.hosts) == 64
    assert used / 64 < WORLD_BYTES_PER_HOST_LIMIT, used / 64


def test_idle_wait_queues_and_metric_histories_cost_no_deque(sim):
    channel = Channel(sim)
    lock = Lock(sim)
    cond = Condition(sim, lock)
    gauge = Gauge("g", lambda: sim.now)
    series = TimeSeries("s", ("a",))
    for container in (channel._getters, channel._putters, lock._waiters,
                      cond._waiters, gauge.samples, series.samples):
        assert sys.getsizeof(container) < IDLE_CONTAINER_LIMIT, container
    gauge.record(3)
    series.append(1.0, 4)
    assert list(gauge.samples) == [(0.0, 3)]
    assert list(series.samples) == [(1.0, 4)]


def test_warm_arp_shares_one_entry_per_station_and_caches_act_alone():
    world = build_world(_spec("wan", 8))  # two sites, one segment each
    warm_arp(world)
    wire = world.hosts[0].nic._wire
    a, b, c = [h for h in world.hosts if h.nic._wire is wire][:3]
    cache_a, cache_b = a.arp.cache, b.arp.cache
    assert cache_a._entries[c.ip] is cache_b._entries[c.ip]
    assert cache_a.lookup(c.ip) == cache_b.lookup(c.ip) == c.mac

    # Expiry drops the entry from the cache that saw it expire only.
    _mac, expires = cache_a._entries[c.ip]
    cache_a._clock = lambda: expires
    assert cache_a.lookup(c.ip) is None
    assert c.ip not in cache_a._entries
    assert cache_b.lookup(c.ip) == c.mac

    cache_b.invalidate(c.ip)
    assert cache_b.lookup(c.ip) is None
    assert cache_b.lookup(a.ip) == a.mac


def test_a_proxy_that_never_retries_never_builds_a_generator():
    net, pa, _pb = build_network("library-shm-ipf")
    api = pa.new_app(name="app")

    def worker():
        fd = yield from api.socket(SOCK_STREAM)
        yield from api.close(fd)

    net.sim.run_process(worker())
    assert api._retry_rng._rng is None
    assert api.library.metastate.caller.rng._rng is None


def test_a_forced_retry_draws_the_seeded_jitter_stream():
    net, pa, _pb = build_network("library-shm-ipf")
    api = pa.new_app(name="app")
    plan = FaultPlan(
        [ServerSlowOp(rate=1.0, stall_us=300_000.0, ops=("proxy_status",))],
        seed=4)
    plan.attach_server(pa.server, libraries=[api.library])
    pa.server.rpc.max_pending = 1

    def slow():
        yield from api.rpc.call(api.ctx, "proxy_status", args=(api.app_id,))

    def retried():
        yield net.sim.timeout(5_000)
        yield from api.resilient.call("proxy_status", args=(api.app_id,))

    net.run_all([slow(), retried()], until=1_200_000_000)
    draws = api.resilient.retries
    assert draws >= 1
    reference = random.Random(1000 + api.app_id)
    for _ in range(draws):
        reference.random()
    assert api._retry_rng._rng.getstate() == reference.getstate()
    # The metastate caller keeps its own stream, still unbuilt.
    assert api.library.metastate.caller.rng._rng is None
