"""UX single-server internals: dispatch, concurrency, error transport."""

import pytest

from repro.apps.ttcp import ttcp
from repro.core.sockets import SOCK_DGRAM, SOCK_STREAM, SocketError
from repro.faults import FaultPlan, RpcReplyDelay
from repro.net.addr import ip_aton
from repro.world.configs import build_network

IP1 = ip_aton("10.0.0.1")
IP2 = ip_aton("10.0.0.2")
BOUND = 200_000_000


class _FirstReplyLate(RpcReplyDelay):
    """Delay only the first reply to ``op``, past the caller's deadline."""

    def __init__(self, op, delay_us):
        super().__init__(rate=1.0, delay_us=delay_us, ops=(op,))

    def on_message(self, port, op, rng):
        if self.delayed:
            return None
        return super().on_message(port, op, rng)


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


def _socket_rpc(api, server, req_id, acked=None):
    handle = yield from server.rpc.call(
        api.ctx, "socket", args=(SOCK_DGRAM,), req_id=req_id, acked=acked)
    return handle


def test_duplicate_is_replayed_until_its_caller_sends_again(ux_world):
    """A re-sent id of a completed request gets the original reply while
    its caller has sent nothing newer, even after other callers' ops."""
    net, pa, _pb = ux_world
    api = pa.new_app()
    server = pa.server

    def prog():
        first = yield from _socket_rpc(api, server, ("a", 1))
        for i in range(3):
            yield from _socket_rpc(api, server, ("b", i))
        replays = server.replays_served
        again = yield from _socket_rpc(api, server, ("a", 1))
        return first, again, server.replays_served - replays

    first, again, replayed = net.run_all([prog()], until=BOUND)[0]
    assert again == first
    assert replayed == 1


def test_next_request_acknowledges_the_older_reply(ux_world):
    """Once a request of the caller acknowledging the older id has been
    served, the older reply is gone: re-sending the older id runs the
    operation again (a fresh descriptor), as an id evicted from a bounded
    cache did."""
    net, pa, _pb = ux_world
    api = pa.new_app()
    server = pa.server

    def prog():
        first = yield from _socket_rpc(api, server, ("a", 1), acked=1)
        second = yield from _socket_rpc(api, server, ("a", 2), acked=2)
        replays = server.replays_served
        again = yield from _socket_rpc(api, server, ("a", 1), acked=1)
        return first, second, again, server.replays_served - replays

    first, second, again, replayed = net.run_all([prog()], until=BOUND)[0]
    assert len({first, second, again}) == 3
    assert replayed == 0
    assert server._replay_cache[("a",)] == {1: (again, 0), 2: (second, 0)}


def test_a_sibling_request_does_not_acknowledge_an_outstanding_call(
        ux_world):
    """Two processes share one API, so one caller.  A sendto's reply
    arrives past its deadline; while its process backs off, the sibling
    starts a new recvfrom.  That request must not drop the sendto's
    reply: the retry is replayed, and the datagram leaves once."""
    net, pa, pb = ux_world
    api_a, api_b = pa.new_app(), pb.new_app()
    late = _FirstReplyLate("sendto", delay_us=600_000.0)
    FaultPlan([late], seed=1).attach_server(pa.server)
    bound = net.sim.event()

    def peer():
        fd = yield from api_b.socket(SOCK_DGRAM)
        yield from api_b.bind(fd, 9681)
        bound.succeed()
        got = []
        while not got or got[-1] != b"done":
            data, _src = yield from api_b.recvfrom(fd)
            got.append(data)
            yield from api_b.sendto(fd, data, (IP1, 9680))
        return got

    def reader():
        fd = yield from api_a.socket(SOCK_DGRAM)
        yield from api_a.bind(fd, 9680)
        echoes = []
        for _ in range(2):
            data, _src = yield from api_a.recvfrom(fd)
            echoes.append(data)
        return echoes

    def sender():
        yield bound
        fd = yield from api_a.socket(SOCK_DGRAM)
        yield from api_a.sendto(fd, b"once", (IP2, 9681))
        yield from api_a.sendto(fd, b"done", (IP2, 9681))

    got, echoes, _ = net.run_all([peer(), reader(), sender()], until=BOUND)
    assert late.delayed == 1
    assert pa.server.rpc.deadline_expiries == 1
    assert pa.server.replays_served == 1
    assert got == [b"once", b"done"]
    assert echoes == [b"once", b"done"]


def test_ttcp_leaves_at_most_one_reply_per_caller(ux_world):
    """Every recv reply carries its payload; after a 1 MB transfer the
    server keeps only each caller's newest reply, not the recent recvs."""
    net, pa, pb = ux_world
    result = ttcp(net, pa, pb, total_bytes=1 << 20)
    assert result.bytes_moved == 1 << 20
    for server in (pa.server, pb.server):
        cache = server._replay_cache
        assert cache
        assert all(len(replies) <= 1 for replies in cache.values()), cache


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
