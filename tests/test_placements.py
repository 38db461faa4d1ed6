"""BSD socket semantics across all three protocol placements.

These tests run against the parametrized ``any_placement_pair`` fixture,
so every behaviour is checked for the in-kernel, server-based, and
library-based systems — the paper's source-compatibility goal.
"""

import pytest

from repro.core.sockets import SOCK_DGRAM, SOCK_STREAM, SocketError
from repro.net.addr import ip_aton

IP1 = ip_aton("10.0.0.1")
IP2 = ip_aton("10.0.0.2")
RUN_BOUND = 120_000_000


def test_tcp_echo_roundtrip(any_placement_pair):
    _name, net, pa, pb = any_placement_pair
    ready = net.sim.event()

    def server(api):
        fd = yield from api.socket(SOCK_STREAM)
        yield from api.bind(fd, 7000)
        yield from api.listen(fd)
        ready.succeed()
        cfd, addr = yield from api.accept(fd)
        assert addr[0] == IP2
        data = yield from api.recv_exactly(cfd, 2000)
        yield from api.send_all(cfd, data[::-1])
        yield from api.close(cfd)
        yield from api.close(fd)

    def client(api):
        yield ready
        fd = yield from api.socket(SOCK_STREAM)
        yield from api.connect(fd, (IP1, 7000))
        message = bytes(range(256)) * 8  # 2048 > 2000: partial reads too
        yield from api.send_all(fd, message[:2000])
        echoed = yield from api.recv_exactly(fd, 2000)
        yield from api.close(fd)
        return echoed == message[:2000][::-1]

    _s, ok = net.run_all([server(pa.new_app()), client(pb.new_app())],
                         until=RUN_BOUND)
    assert ok


def test_udp_exchange_and_addresses(any_placement_pair):
    _name, net, pa, pb = any_placement_pair
    ready = net.sim.event()

    def server(api):
        fd = yield from api.socket(SOCK_DGRAM)
        yield from api.bind(fd, 9000)
        ready.succeed()
        data, src = yield from api.recvfrom(fd)
        yield from api.sendto(fd, b"pong:" + data, src)
        yield from api.close(fd)
        return src

    def client(api):
        yield ready
        fd = yield from api.socket(SOCK_DGRAM)
        yield from api.sendto(fd, b"ping", (IP1, 9000))
        data, src = yield from api.recvfrom(fd)
        yield from api.close(fd)
        return data, src

    src_seen, (data, reply_src) = net.run_all(
        [server(pa.new_app()), client(pb.new_app())], until=RUN_BOUND
    )
    assert data == b"pong:ping"
    assert src_seen[0] == IP2
    assert reply_src == (IP1, 9000)


def test_connected_udp_send_recv(any_placement_pair):
    _name, net, pa, pb = any_placement_pair
    ready = net.sim.event()

    def server(api):
        fd = yield from api.socket(SOCK_DGRAM)
        yield from api.bind(fd, 9001)
        ready.succeed()
        data, src = yield from api.recvfrom(fd)
        yield from api.sendto(fd, data.upper(), src)

    def client(api):
        yield ready
        fd = yield from api.socket(SOCK_DGRAM)
        yield from api.connect(fd, (IP1, 9001))
        yield from api.send(fd, b"shout")
        reply = yield from api.recv(fd, 100)
        return reply

    _s, reply = net.run_all([server(pa.new_app()), client(pb.new_app())],
                            until=RUN_BOUND)
    assert reply == b"SHOUT"


def test_udp_datagram_fragments_and_reassembles(any_placement_pair, request):
    """A 4096-byte datagram leaves as three IP fragments (``ip_output``)
    and must arrive byte-identical (``input_frame`` reassembly)."""
    name, net, pa, pb = any_placement_pair
    if name == "library-shm-ipf":
        request.applymarker(pytest.mark.xfail(
            strict=True,
            reason="non-first fragments miss the session filter and land "
                   "in the server's catch-all, so neither stack ever "
                   "completes the datagram (EXPERIMENTS.md, known gaps)"))
    ready = net.sim.event()
    payload = bytes(range(256)) * 16

    def server(api):
        fd = yield from api.socket(SOCK_DGRAM)
        yield from api.bind(fd, 9002)
        ready.succeed()
        data, _src = yield from api.recvfrom(fd)
        return data

    def client(api):
        yield ready
        fd = yield from api.socket(SOCK_DGRAM)
        yield from api.sendto(fd, payload, (IP1, 9002))

    got, _c = net.run_all([server(pa.new_app()), client(pb.new_app())],
                          until=RUN_BOUND)
    assert got == payload
    # ARP request + reply, then the three fragments.
    assert net.wire.frames_carried == 5


def test_recv_sees_eof_after_peer_close(any_placement_pair):
    _name, net, pa, pb = any_placement_pair
    ready = net.sim.event()

    def server(api):
        fd = yield from api.socket(SOCK_STREAM)
        yield from api.bind(fd, 7001)
        yield from api.listen(fd)
        ready.succeed()
        cfd, _ = yield from api.accept(fd)
        yield from api.send_all(cfd, b"goodbye")
        yield from api.close(cfd)

    def client(api):
        yield ready
        fd = yield from api.socket(SOCK_STREAM)
        yield from api.connect(fd, (IP1, 7001))
        data = yield from api.recv_exactly(fd, 7)
        tail = yield from api.recv(fd, 100)
        yield from api.close(fd)
        return data, tail

    _s, (data, tail) = net.run_all([server(pa.new_app()), client(pb.new_app())],
                                   until=RUN_BOUND)
    assert data == b"goodbye"
    assert tail == b""


def test_bind_conflict_raises(any_placement_pair):
    _name, net, pa, _pb = any_placement_pair
    api1 = pa.new_app()
    api2 = pa.new_app()

    def first():
        fd = yield from api1.socket(SOCK_DGRAM)
        yield from api1.bind(fd, 9100)
        return "bound"

    def second():
        yield net.sim.timeout(10_000)
        fd = yield from api2.socket(SOCK_DGRAM)
        try:
            yield from api2.bind(fd, 9100)
        except Exception as exc:
            return type(exc).__name__
        return "no error"

    _f, err = net.run_all([first(), second()], until=RUN_BOUND)
    assert err in ("PortInUse", "SocketError")


def test_sequential_connections_to_same_listener(any_placement_pair):
    _name, net, pa, pb = any_placement_pair
    ready = net.sim.event()

    def server(api):
        fd = yield from api.socket(SOCK_STREAM)
        yield from api.bind(fd, 7002)
        yield from api.listen(fd, 5)
        ready.succeed()
        results = []
        for _ in range(2):
            cfd, _ = yield from api.accept(fd)
            data = yield from api.recv(cfd, 100)
            results.append(data)
            yield from api.close(cfd)
        return results

    def client(api):
        yield ready
        for tag in (b"first", b"second"):
            fd = yield from api.socket(SOCK_STREAM)
            yield from api.connect(fd, (IP1, 7002))
            yield from api.send_all(fd, tag)
            yield from api.close(fd)
            yield net.sim.timeout(2_000_000)  # let teardown settle

    results, _c = net.run_all([server(pa.new_app()), client(pb.new_app())],
                              until=RUN_BOUND)
    assert results == [b"first", b"second"]


def test_concurrent_clients_one_listener(any_placement_pair):
    _name, net, pa, pb = any_placement_pair
    ready = net.sim.event()
    n_clients = 3

    def server(api):
        fd = yield from api.socket(SOCK_STREAM)
        yield from api.bind(fd, 7003)
        yield from api.listen(fd, 8)
        ready.succeed()
        seen = []
        for _ in range(n_clients):
            cfd, _ = yield from api.accept(fd)
            data = yield from api.recv(cfd, 100)
            seen.append(data)
            yield from api.close(cfd)
        return sorted(seen)

    def client(api, tag):
        yield ready
        fd = yield from api.socket(SOCK_STREAM)
        yield from api.connect(fd, (IP1, 7003))
        yield from api.send_all(fd, tag)
        yield from api.close(fd)

    gens = [server(pa.new_app())]
    for i in range(n_clients):
        gens.append(client(pb.new_app(), b"c%d" % i))
    results = net.run_all(gens, until=RUN_BOUND)
    assert results[0] == [b"c0", b"c1", b"c2"]


def test_select_readable_on_udp(any_placement_pair):
    _name, net, pa, pb = any_placement_pair
    ready = net.sim.event()

    def server(api):
        fd1 = yield from api.socket(SOCK_DGRAM)
        yield from api.bind(fd1, 9200)
        fd2 = yield from api.socket(SOCK_DGRAM)
        yield from api.bind(fd2, 9201)
        ready.succeed()
        readable, _w = yield from api.select([fd1, fd2], timeout=30_000_000)
        assert readable, "select timed out"
        data, _src = yield from api.recvfrom(readable[0])
        return readable[0] == fd2, data

    def client(api):
        yield ready
        yield net.sim.timeout(1_000_000)
        fd = yield from api.socket(SOCK_DGRAM)
        yield from api.sendto(fd, b"to the second", (IP1, 9201))

    (hit_fd2, data), _c = net.run_all(
        [server(pa.new_app()), client(pb.new_app())], until=RUN_BOUND
    )
    assert hit_fd2
    assert data == b"to the second"


def test_select_timeout_returns_empty(any_placement_pair):
    _name, net, pa, _pb = any_placement_pair

    def prog(api):
        fd = yield from api.socket(SOCK_DGRAM)
        yield from api.bind(fd, 9300)
        start = net.sim.now
        r, w = yield from api.select([fd], timeout=500_000)
        return r, w, net.sim.now - start

    r, w, elapsed = net.run_all([prog(pa.new_app())], until=RUN_BOUND)[0]
    assert r == [] and w == []
    assert elapsed >= 500_000


def test_setsockopt_rcvbuf_applies(any_placement_pair):
    _name, net, pa, pb = any_placement_pair
    ready = net.sim.event()

    def server(api):
        fd = yield from api.socket(SOCK_STREAM)
        yield from api.setsockopt(fd, "rcvbuf", 4096)
        yield from api.bind(fd, 7004)
        yield from api.listen(fd)
        ready.succeed()
        cfd, _ = yield from api.accept(fd)
        # Without draining, the 4 KB receive buffer caps what can arrive.
        yield net.sim.timeout(20_000_000)
        data = yield from api.recv(cfd, 100_000)
        return len(data)

    def client(api):
        yield ready
        fd = yield from api.socket(SOCK_STREAM)
        yield from api.connect(fd, (IP1, 7004))
        n = yield from api.send(fd, b"x" * 3000)
        return n

    got, _sent = net.run_all([server(pa.new_app()), client(pb.new_app())],
                             until=RUN_BOUND)
    assert got <= 4096


def test_fork_child_shares_stream(any_placement_pair):
    _name, net, pa, pb = any_placement_pair
    ready = net.sim.event()

    def server(api):
        fd = yield from api.socket(SOCK_STREAM)
        yield from api.bind(fd, 7005)
        yield from api.listen(fd)
        ready.succeed()
        cfd, _ = yield from api.accept(fd)
        d1 = yield from api.recv_exactly(cfd, 7)
        d2 = yield from api.recv_exactly(cfd, 6)
        return d1, d2

    def client(api):
        yield ready
        fd = yield from api.socket(SOCK_STREAM)
        yield from api.connect(fd, (IP1, 7005))
        yield from api.send_all(fd, b"parent|")
        child = yield from api.fork()
        yield from child.send_all(fd, b"child!")
        return "sent"

    (d1, d2), _c = net.run_all([server(pa.new_app()), client(pb.new_app())],
                               until=RUN_BOUND)
    assert d1 == b"parent|"
    assert d2 == b"child!"


def test_bad_fd_raises(any_placement_pair):
    _name, net, pa, _pb = any_placement_pair
    api = pa.new_app()

    def prog():
        with pytest.raises(SocketError):
            yield from api.send(99, b"nope")
        return True

    assert net.run_all([prog()], until=RUN_BOUND)[0]
