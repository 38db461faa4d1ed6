"""UX single-server internals: dispatch, concurrency, error transport."""

import pytest

from repro.core.sockets import SOCK_DGRAM, SOCK_STREAM, SocketError
from repro.net.addr import ip_aton
from repro.osserver.unix_server import REPLAY_CACHE_LIMIT
from repro.world.configs import build_network

IP1 = ip_aton("10.0.0.1")
BOUND = 200_000_000


@pytest.fixture
def ux_world():
    return build_network("ux")


def test_unknown_op_returns_error(ux_world):
    net, pa, _pb = ux_world
    api = pa.new_app()

    def prog():
        with pytest.raises(SocketError, match="unknown server op"):
            yield from api._call("frobnicate", 1, 2)
        return True

    assert net.run_all([prog()], until=BOUND)[0]


def test_server_errors_cross_the_rpc_boundary(ux_world):
    net, pa, _pb = ux_world
    api = pa.new_app()

    def prog():
        fd1 = yield from api.socket(SOCK_DGRAM)
        yield from api.bind(fd1, 9600)
        fd2 = yield from api.socket(SOCK_DGRAM)
        try:
            yield from api.bind(fd2, 9600)
        except Exception as exc:
            return type(exc).__name__
        return "no error"

    assert net.run_all([prog()], until=BOUND)[0] == "PortInUse"


def test_blocking_calls_do_not_stall_the_dispatcher(ux_world):
    """One app blocked in accept() must not prevent another app's calls
    from being served (per-request handler processes)."""
    net, pa, _pb = ux_world
    blocked_api = pa.new_app()
    live_api = pa.new_app()
    progress = []

    def blocker():
        fd = yield from blocked_api.socket(SOCK_STREAM)
        yield from blocked_api.bind(fd, 7400)
        yield from blocked_api.listen(fd)
        try:
            yield from blocked_api.accept(fd)  # blocks forever
        except Exception:
            pass

    def worker():
        yield net.sim.timeout(1_000_000)  # let the blocker block
        for i in range(3):
            fd = yield from live_api.socket(SOCK_DGRAM)
            yield from live_api.bind(fd, 9650 + i)
            progress.append(i)
        return len(progress)

    proc_b = net.sim.spawn(blocker())
    count = net.sim.run_process(worker(), until=BOUND)
    assert count == 3
    assert proc_b.alive  # still blocked, as expected


def test_two_apps_share_the_server_port_space(ux_world):
    net, pa, _pb = ux_world
    api1 = pa.new_app()
    api2 = pa.new_app()

    def prog():
        fd1 = yield from api1.socket(SOCK_DGRAM)
        yield from api1.bind(fd1, 9660)
        fd2 = yield from api2.socket(SOCK_DGRAM)
        with pytest.raises(Exception):
            yield from api2.bind(fd2, 9660)
        return True

    assert net.run_all([prog()], until=BOUND)[0]


def test_server_rpc_counts_accumulate(ux_world):
    net, pa, _pb = ux_world
    api = pa.new_app()
    rpc = pa.server.rpc

    def prog():
        before = rpc.calls
        fd = yield from api.socket(SOCK_DGRAM)
        yield from api.bind(fd, 9670)
        yield from api.close(fd)
        return rpc.calls - before

    assert net.run_all([prog()], until=BOUND)[0] == 3


def test_health_snapshot_reports_op_latency_at_one_precision(ux_world):
    # One sample: its mean, p99 and max are the same number, so rounding
    # only the mean could report p99 < mean (23934.683999999997 against
    # 23934.684).
    _net, pa, _pb = ux_world
    server = pa.server
    hist = server.op_latency["proxy_send"] = server.host.metrics.histogram(
        "%s.rpc.op.proxy_send" % server.name)
    hist.observe(23934.683999999997)
    op = server.health_snapshot()["op_latency"]["proxy_send"]
    assert op == {"count": 1, "mean_us": 23934.684, "p99_us": 23934.684,
                  "max_us": 23934.684}


def test_replay_cache_evicts_oldest_first(ux_world):
    """The replay cache holds the last REPLAY_CACHE_LIMIT replies: once
    one more request has completed, a duplicate of the oldest runs again
    (a fresh descriptor), a duplicate of the newest is replayed."""
    net, pa, _pb = ux_world
    api = pa.new_app()
    server = pa.server

    def socket(i):
        handle = yield from server.rpc.call(
            api.ctx, "socket", args=(SOCK_DGRAM,), req_id=("evict", i))
        return handle

    def prog():
        handles = []
        for i in range(REPLAY_CACHE_LIMIT + 1):
            handles.append((yield from socket(i)))
        replays = server.replays_served
        oldest = yield from socket(0)
        newest = yield from socket(REPLAY_CACHE_LIMIT)
        return handles, oldest, newest, server.replays_served - replays

    handles, oldest, newest, replayed = net.run_all([prog()], until=BOUND)[0]
    assert len(set(handles)) == len(handles)
    assert oldest not in handles  # evicted: executed again
    assert newest == handles[-1]  # cached: the original reply
    assert replayed == 1
    assert len(server._replay_cache) == REPLAY_CACHE_LIMIT


def test_udp_data_path_goes_through_server(ux_world):
    net, pa, pb = ux_world
    api_a = pa.new_app()
    api_b = pb.new_app()
    ready = net.sim.event()

    def server():
        fd = yield from api_a.socket(SOCK_DGRAM)
        yield from api_a.bind(fd, 9680)
        ready.succeed()
        data, src = yield from api_a.recvfrom(fd)
        yield from api_a.sendto(fd, data, src)

    def client():
        yield ready
        fd = yield from api_b.socket(SOCK_DGRAM)
        rpcs_before = pb.server.rpc.calls
        yield from api_b.sendto(fd, b"via server", (IP1, 9680))
        data, _src = yield from api_b.recvfrom(fd)
        return data, pb.server.rpc.calls - rpcs_before

    _s, (data, rpc_delta) = net.run_all([server(), client()], until=BOUND)
    assert data == b"via server"
    assert rpc_delta >= 2  # sendto and recvfrom each crossed by RPC


def test_lightweight_sync_variant_builds():
    """The footnote-4 variant: the same server with light locks."""
    import dataclasses

    from repro.world.configs import CONFIGS, Placement
    from repro.world.network import Network
    from repro.hw.platforms import DECSTATION_5000_200

    spec = dataclasses.replace(CONFIGS["ux"], heavyweight_sync=False)
    network = Network()
    host = network.add_host("10.0.0.1", DECSTATION_5000_200)
    placement = Placement(spec, host)
    assert placement._backend.ctx.locks.name == "light"
    heavy = Placement(CONFIGS["ux"], network.add_host("10.0.0.2",
                                                      DECSTATION_5000_200))
    assert heavy._backend.ctx.locks.name == "spl"
    assert (heavy._backend.ctx.locks.wakeup_cost
            > placement._backend.ctx.locks.wakeup_cost)
