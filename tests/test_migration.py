"""Session migration between the application and the OS server.

These are the paper's Section 3.2 mechanisms, tested on the library
placement specifically: sessions migrate out on connect/accept/bind,
back on fork and close; in-flight data survives; stragglers never draw
RSTs and are forwarded, not lost; dying applications get cleaned up; a
churn of connections leaves nothing behind once TIME_WAIT is over.
"""

import pytest

from repro.core.sockets import SOCK_DGRAM, SOCK_STREAM
from repro.faults import FaultPlan, FaultStage
from repro.net import ip
from repro.net.addr import ip_aton
from repro.net.tcp import output as tcp_output
from repro.net.tcp.header import ACK, SYN
from repro.net.tcp.state import TCPState
from repro.net.tcp.timers import SLOW_TICK_US, TCPTV_MSL
from repro.world.configs import build_network

IP1 = ip_aton("10.0.0.1")
IP2 = ip_aton("10.0.0.2")
BOUND = 200_000_000


@pytest.fixture
def world():
    return build_network("library-shm-ipf")


def test_connect_migrates_session_into_app(world):
    net, pa, pb = world
    api_a = pa.new_app()
    api_b = pb.new_app()
    ready = net.sim.event()

    def server():
        fd = yield from api_a.socket(SOCK_STREAM)
        yield from api_a.bind(fd, 7100)
        yield from api_a.listen(fd)
        ready.succeed()
        cfd, _ = yield from api_a.accept(fd)
        return cfd

    def client():
        yield ready
        fd = yield from api_b.socket(SOCK_STREAM)
        yield from api_b.connect(fd, (IP1, 7100))
        return fd

    net.run_all([server(), client()], until=BOUND)
    # The client's session now lives in its own library stack...
    assert api_b.library.stack.tcp_session_count() == 1
    # ...and the accepting side's accepted child lives in its library.
    assert api_a.library.stack.tcp_session_count() == 1
    # The server kept only the listener.
    assert pa.server.stack.tcp_session_count() == 1  # the LISTEN socket
    assert pb.server.stack.tcp_session_count() == 0
    assert pb.server.migrations_out == 1
    assert pa.server.migrations_out == 1


def test_data_transfer_bypasses_server(world):
    """Figure 1's claim: send/receive never involve the OS server."""
    net, pa, pb = world
    api_a = pa.new_app()
    api_b = pb.new_app()
    ready = net.sim.event()

    def server():
        fd = yield from api_a.socket(SOCK_STREAM)
        yield from api_a.bind(fd, 7101)
        yield from api_a.listen(fd)
        ready.succeed()
        cfd, _ = yield from api_a.accept(fd)
        data = yield from api_a.recv_exactly(cfd, 10000)
        return data

    def client():
        yield ready
        fd = yield from api_b.socket(SOCK_STREAM)
        yield from api_b.connect(fd, (IP1, 7101))
        rpcs_before = api_b.ctx.crossings.server_rpcs
        yield from api_b.send_all(fd, b"z" * 10000)
        return api_b.ctx.crossings.server_rpcs - rpcs_before

    data, rpc_delta = net.run_all([server(), client()], until=BOUND)
    assert len(data) == 10000
    assert rpc_delta == 0  # not one server RPC on the data path


def test_data_arriving_before_accept_migrates_with_session(world):
    """The server completes the handshake and may buffer data before the
    application accepts; that data must arrive with the migrated state."""
    net, pa, pb = world
    api_a = pa.new_app()
    api_b = pb.new_app()
    ready = net.sim.event()
    sent = net.sim.event()

    def server():
        fd = yield from api_a.socket(SOCK_STREAM)
        yield from api_a.bind(fd, 7102)
        yield from api_a.listen(fd)
        ready.succeed()
        yield sent  # deliberately accept late
        yield net.sim.timeout(5_000_000)
        cfd, _ = yield from api_a.accept(fd)
        data = yield from api_a.recv_exactly(cfd, 12)
        return data

    def client():
        yield ready
        fd = yield from api_b.socket(SOCK_STREAM)
        yield from api_b.connect(fd, (IP1, 7102))
        yield from api_b.send_all(fd, b"early birds!")
        sent.succeed()

    data, _ = net.run_all([server(), client()], until=BOUND)
    assert data == b"early birds!"


def test_close_hands_teardown_to_server(world):
    """Clean shutdown migrates the session back; the server drives the
    FIN handshake and eventually releases the port."""
    net, pa, pb = world
    api_a = pa.new_app()
    api_b = pb.new_app()
    ready = net.sim.event()

    def server():
        fd = yield from api_a.socket(SOCK_STREAM)
        yield from api_a.bind(fd, 7103)
        yield from api_a.listen(fd)
        ready.succeed()
        cfd, _ = yield from api_a.accept(fd)
        data = yield from api_a.recv(cfd, 100)
        eof = yield from api_a.recv(cfd, 100)
        yield from api_a.close(cfd)
        yield from api_a.close(fd)
        return data, eof

    def client():
        yield ready
        fd = yield from api_b.socket(SOCK_STREAM)
        yield from api_b.connect(fd, (IP1, 7103))
        yield from api_b.send_all(fd, b"bye")
        yield from api_b.close(fd)
        return "closed"

    (data, eof), _ = net.run_all([server(), client()], until=BOUND)
    assert data == b"bye"
    assert eof == b""
    # The client app no longer owns the session; the server does (and is
    # running it through the shutdown states).
    assert api_b.library.stack.tcp_session_count() == 0
    assert pb.server.migrations_in >= 1
    # Let the 2MSL machinery finish; everything ends CLOSED.
    net.sim.run(until=net.sim.now + 130_000_000)
    for sess in list(pb.server.stack._tcp.values()):
        assert sess.conn.state == TCPState.CLOSED


def test_udp_bind_migrates_immediately(world):
    net, pa, _pb = world
    api = pa.new_app()

    def prog():
        fd = yield from api.socket(SOCK_DGRAM)
        yield from api.bind(fd, 9400)
        return fd

    net.run_all([prog()], until=BOUND)
    assert api.library.stack.udp_session_count() == 1
    assert pa.server.migrations_out == 1


def test_fork_returns_sessions_then_routes_via_server(world):
    net, pa, pb = world
    api_a = pa.new_app()
    api_b = pb.new_app()
    ready = net.sim.event()

    def server():
        fd = yield from api_a.socket(SOCK_STREAM)
        yield from api_a.bind(fd, 7104)
        yield from api_a.listen(fd)
        ready.succeed()
        cfd, _ = yield from api_a.accept(fd)
        one = yield from api_a.recv_exactly(cfd, 4)
        two = yield from api_a.recv_exactly(cfd, 4)
        three = yield from api_a.recv_exactly(cfd, 4)
        return one, two, three

    def client():
        yield ready
        fd = yield from api_b.socket(SOCK_STREAM)
        yield from api_b.connect(fd, (IP1, 7104))
        yield from api_b.send_all(fd, b"pre.")
        child = yield from api_b.fork()
        # After fork both descriptors are server-routed; both may write.
        yield from api_b.send_all(fd, b"par.")
        yield from child.send_all(fd, b"chi.")
        rpcs = api_b.ctx.crossings.server_rpcs
        return rpcs

    (one, two, three), rpcs = net.run_all([server(), client()], until=BOUND)
    assert (one, two, three) == (b"pre.", b"par.", b"chi.")
    assert pb.server.migrations_in == 1
    assert rpcs > 0  # post-fork data moves by RPC


def test_migration_stragglers_do_not_reset(world):
    """Segments racing the accept-time migration must not draw RSTs."""
    net, pa, pb = world
    api_a = pa.new_app()
    api_b = pb.new_app()
    ready = net.sim.event()

    def server():
        fd = yield from api_a.socket(SOCK_STREAM)
        yield from api_a.bind(fd, 7105)
        yield from api_a.listen(fd)
        ready.succeed()
        cfd, _ = yield from api_a.accept(fd)
        data = yield from api_a.recv_exactly(cfd, 30000)
        return data

    def client():
        yield ready
        fd = yield from api_b.socket(SOCK_STREAM)
        yield from api_b.connect(fd, (IP1, 7105))
        # Blast data immediately: some segments arrive while the accept
        # migration is in progress on the peer.
        yield from api_b.send_all(fd, b"s" * 30000)
        return "ok"

    data, _ = net.run_all([server(), client()], until=BOUND)
    assert data == b"s" * 30000
    # No RST was provoked on either host's server stack.
    assert pa.server.stack.unmatched_tcp == 0
    assert pb.server.stack.unmatched_tcp == 0


def test_app_death_aborts_sessions_and_quarantines_ports(world):
    net, pa, pb = world
    api_a = pa.new_app()
    api_b = pb.new_app()
    ready = net.sim.event()
    established = net.sim.event()

    def server():
        fd = yield from api_a.socket(SOCK_STREAM)
        yield from api_a.bind(fd, 7106)
        yield from api_a.listen(fd)
        ready.succeed()
        cfd, _ = yield from api_a.accept(fd)
        established.succeed()
        try:
            while True:
                data = yield from api_a.recv(cfd, 1000)
                if not data:
                    return "eof"
        except Exception as exc:  # the abort RST lands here
            return type(exc).__name__

    def client_then_die():
        yield ready
        fd = yield from api_b.socket(SOCK_STREAM)
        yield from api_b.connect(fd, (IP1, 7106))
        yield established
        # The process dies without closing: the OS server cleans up.
        yield from pb.server.app_terminated(api_b.library.app_id)
        return "dead"

    net.run_all([server(), client_then_die()], until=BOUND)
    assert pb.server.aborted_for_death == 1
    # Nothing will acknowledge the dead app's last reply: it is dropped.
    assert (api_b.library.app_id,) not in pb.server._replay_cache
    assert len(pb.server.quarantined_ports) == 1
    # The quarantined port cannot be rebound immediately.
    port = next(iter(pb.server.quarantined_ports))
    with pytest.raises(Exception):
        pb.server._alloc_port("tcp", port)


def test_metastate_cache_and_invalidation(world):
    net, pa, pb = world
    api_b = pb.new_app()
    api_a = pa.new_app()
    ready = net.sim.event()

    def server():
        fd = yield from api_a.socket(SOCK_DGRAM)
        yield from api_a.bind(fd, 9500)
        ready.succeed()
        for _ in range(3):
            data, src = yield from api_a.recvfrom(fd)
            yield from api_a.sendto(fd, data, src)

    def client():
        yield ready
        fd = yield from api_b.socket(SOCK_DGRAM)
        yield from api_b.connect(fd, (IP1, 9500))
        for _ in range(3):
            yield from api_b.send(fd, b"m")
            yield from api_b.recv(fd, 10)
        return api_b.library.metastate.stats()

    _s, stats = net.run_all([server(), client()], until=BOUND)
    # One ARP RPC on first use; later sends hit the application cache.
    assert stats["arp_rpcs"] == 1
    assert stats["arp_hits"] >= 2
    # Server-driven invalidation empties the cached entry.
    meta = api_b.library.metastate
    pb.host.arp.invalidate(IP1)
    assert meta.arp_cache.lookup(IP1) is None
    assert meta.invalidations >= 1


def test_proxy_table1_mapping_is_exported():
    from repro.core.proxy import PROXY_CALL_MAP

    assert PROXY_CALL_MAP["socket"] == "proxy_socket"
    assert PROXY_CALL_MAP["fork"] == "proxy_return"
    assert PROXY_CALL_MAP["send/recv (all variants)"] is None


# ----------------------------------------------------------------------
# Connection churn: stragglers, TIME_WAIT, leak-freedom
# ----------------------------------------------------------------------

CHURN_PORT = 7110
CHURN_CONNECTIONS = 20
BANNER = b"220 ready\r\n"
TWO_MSL_US = 2 * TCPTV_MSL * SLOW_TICK_US


@pytest.fixture
def rto_fired(monkeypatch):
    """Every TCP retransmission-timer expiry, in any stack."""
    fired = []
    real = tcp_output.retransmit_timeout

    def counting(conn):
        fired.append(conn.local)
        real(conn)

    monkeypatch.setattr(tcp_output, "retransmit_timeout", counting)
    return fired


def _listen(net, api):
    def prog():
        fd = yield from api.socket(SOCK_STREAM)
        yield from api.bind(fd, CHURN_PORT)
        yield from api.listen(fd)
        return fd

    (fd,) = net.run_all([prog()], until=net.sim.now + BOUND)
    return fd


def _churn(net, server, listen_fd, client, banner=False):
    """CHURN_CONNECTIONS connections in turn against ``listen_fd`` on
    10.0.0.1: the client speaks first (a 16-byte echo) or, with
    ``banner``, the server does.  Both ends close at once.  Returns
    each connection's socket-to-close latency."""
    sim = net.sim

    def serve():
        for _ in range(CHURN_CONNECTIONS):
            cfd, _addr = yield from server.accept(listen_fd)
            if banner:
                yield from server.send_all(cfd, BANNER)
                yield from server.recv_exactly(cfd, 4)
            else:
                data = yield from server.recv_exactly(cfd, 16)
                yield from server.send_all(cfd, data)
            yield from server.close(cfd)

    def connect():
        latencies = []
        for i in range(CHURN_CONNECTIONS):
            start = sim.now
            fd = yield from client.socket(SOCK_STREAM)
            yield from client.connect(fd, (IP1, CHURN_PORT))
            if banner:
                assert (yield from client.recv_exactly(fd, len(BANNER))) \
                    == BANNER
                yield from client.send_all(fd, b"QUIT")
            else:
                payload = bytes([i]) * 16
                yield from client.send_all(fd, payload)
                assert (yield from client.recv_exactly(fd, 16)) == payload
            yield from client.close(fd)
            latencies.append(sim.now - start)
        return latencies

    _served, latencies = net.run_all([serve(), connect()],
                                     until=sim.now + BOUND)
    return latencies


def test_client_first_churn_loses_no_segment_to_migration(world, rto_fired):
    """The client's first segment reaches the listener's host while the
    accept-time migration is under way: the listener's server filter
    takes it, and the child is exported before the server's stack gets
    to it.  It is forwarded to the child's new app filter, so no
    connection waits out a retransmission timeout (~1.4 s each)."""
    net, pa, pb = world
    api_a, api_b = pa.new_app(), pb.new_app()
    listen_fd = _listen(net, api_a)
    latencies = _churn(net, api_a, listen_fd, api_b)
    assert rto_fired == []
    assert max(latencies) < 50_000
    assert pa.server.stack.stragglers_forwarded >= 1


class _DuplicateSynAck(FaultStage):
    """Every SYN-ACK arrives twice, 100 us apart: the copy reaches the
    connecting host's OS server after its connect-time export."""

    name = "duplicate-syn-ack"

    def transit(self, t, rng, now):
        frame = t.frame
        tcp = 14 + 4 * (frame[14] & 0x0F) if len(frame) > 34 else None
        if (tcp is not None and frame[23] == ip.PROTO_TCP
                and frame[tcp + 13] & (SYN | ACK) == SYN | ACK):
            twin = t.copy()
            twin.delay_us += 100.0
            return [t, twin]
        return [t]


def test_server_first_churn_forwards_connect_side_stragglers(rto_fired):
    """Server speaks first (a banner right after accept).  The
    connecting host's copy of each duplicated SYN-ACK is a straggler of
    the connect-time export; it goes on to the app like the accept
    side's, and every banner is read without a retransmission."""
    net, pa, pb = build_network("library-shm-ipf",
                                fault_plan=FaultPlan([_DuplicateSynAck()]))
    api_a, api_b = pa.new_app(), pb.new_app()
    listen_fd = _listen(net, api_a)
    latencies = _churn(net, api_a, listen_fd, api_b, banner=True)
    assert rto_fired == []
    assert max(latencies) < 50_000
    assert pb.server.stack.stragglers_forwarded == CHURN_CONNECTIONS


def test_time_wait_sessions_keep_no_filter(world):
    """Both ends close at once, so both hosts hold their sessions in
    TIME_WAIT; the catch-all filters serve them, the filter list is back
    at its pre-churn length."""
    net, pa, pb = world
    api_a, api_b = pa.new_app(), pb.new_app()
    listen_fd = _listen(net, api_a)
    before = [p.host.kernel.filter_count() for p in (pa, pb)]
    _churn(net, api_a, listen_fd, api_b)
    net.sim.run(until=net.sim.now + 1_000_000)  # the last teardown
    assert pa.server.stack.time_wait_count() > CHURN_CONNECTIONS // 2
    assert pb.server.stack.time_wait_count() > CHURN_CONNECTIONS // 2
    assert [p.host.kernel.filter_count() for p in (pa, pb)] == before


def _census(net, placements):
    """What every connection borrows and must give back, per host, and
    the world's live processes."""
    # Settle the current instant: run_all returns as soon as its last
    # process finishes, before that process's exit is dispatched.
    net.sim.run(until=net.sim.now)
    rows = []
    for placement in placements:
        backend = placement._backend
        libraries = list(getattr(backend, "_apps", {}).values())
        stacks = [backend.stack] + [lib.stack for lib in libraries]
        rows.append({
            "records": len(getattr(backend, "_records", ())),
            "tombstones": sum(len(stack.migrated) for stack in stacks),
            "filters": placement.host.kernel.filter_count(),
            "ports": sum(stack.ports[proto].bound_count()
                         for stack in stacks for proto in ("tcp", "udp")),
            "input_threads": sum(lib.input_thread_count()
                                 for lib in libraries),
        })
    return rows, net.sim._live_processes


@pytest.mark.parametrize("placement", ["mach25", "ux", "library-shm-ipf"])
def test_churn_leaves_nothing_behind_after_2msl(placement):
    net, pa, pb = build_network(placement)
    api_a, api_b = pa.new_app(), pb.new_app()
    listen_fd = _listen(net, api_a)
    after_listen = _census(net, (pa, pb))
    _churn(net, api_a, listen_fd, api_b)
    net.sim.run(until=net.sim.now + TWO_MSL_US + 1_000_000)
    assert _census(net, (pa, pb)) == after_listen
    # Each caller's next request acknowledged its earlier replies: no
    # server keeps a reply (a recv payload, a migration state) past it.
    for side in (pa, pb):
        cache = getattr(side._backend, "_replay_cache", {})
        assert all(len(replies) <= 1 for replies in cache.values()), cache
