"""BSD socket semantics across all three protocol placements.

These tests run against the parametrized ``any_placement_pair`` fixture,
so every behaviour is checked for the in-kernel, server-based, and
library-based systems — the paper's source-compatibility goal.
"""

import pytest

from repro.core.sockets import SOCK_DGRAM, SOCK_STREAM, BadFileDescriptor
from repro.sim.process import Charge
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
    """EBADF from every verb that names a descriptor, and before
    anything is charged: no trap, no RPC, no proxy entry."""
    _name, net, pa, _pb = any_placement_pair
    api = pa.new_app()
    cpu = pa.host.cpu

    def prog():
        yield net.sim.timeout(1_000_000)  # past boot-time charges
        before = cpu.charge_count
        for call in (
            lambda: api.bind(99, 7100), lambda: api.listen(99),
            lambda: api.accept(99), lambda: api.connect(99, (IP2, 7100)),
            lambda: api.send(99, b"nope"), lambda: api.recv(99, 10),
            lambda: api.sendto(99, b"nope", (IP2, 7100)),
            lambda: api.recvfrom(99), lambda: api.shutdown(99),
            lambda: api.close(99),
            lambda: api.setsockopt(99, "rcvbuf", 4096),
        ):
            with pytest.raises(BadFileDescriptor):
                yield from call()
        return cpu.charge_count - before

    assert net.run_all([prog()], until=RUN_BOUND)[0] == 0


# ----------------------------------------------------------------------
# One socket layer: the same script reads the same in every placement
# ----------------------------------------------------------------------

#: Every socket option the stack knows, with a harmless value.
_OPTIONS = (("rcvbuf", 8192), ("sndbuf", 8192), ("nodelay", 1),
            ("keepalive", 1), ("rcvtimeo", 5_000_000.0))


def _outcome(gen):
    """Run one socket call; report its result or its exception type."""
    try:
        result = yield from gen
    except Exception as exc:  # noqa: BLE001 - the type is the finding
        return type(exc).__name__
    return result


def test_one_script_reads_the_same_in_every_placement(any_placement_pair):
    """Stream and datagram verbs, error cases included, against one
    transcript: results and exception types may not depend on where the
    protocol stack lives."""
    _name, net, pa, pb = any_placement_pair
    ready = net.sim.event()
    log = []

    def server(api):
        # Datagram side: a second bind is an error, not a second port.
        u = yield from api.socket(SOCK_DGRAM)
        yield from api.bind(u, 9400)
        log.append(("bind twice", (yield from _outcome(api.bind(u, 9401)))))
        for option, value in _OPTIONS:
            log.append(("udp " + option, (yield from _outcome(
                api.setsockopt(u, option, value)))))
        log.append(("udp bogus", (yield from _outcome(
            api.setsockopt(u, "bogus", 1)))))
        start = net.sim.now
        log.append(("select timeout", (yield from api.select(
            [u], timeout=300_000))))
        assert net.sim.now - start >= 300_000

        s = yield from api.socket(SOCK_STREAM)
        yield from api.bind(s, 7400)
        yield from api.listen(s)
        ready.succeed()
        data, src = yield from api.recvfrom(u)
        log.append(("recvfrom", data, src[0]))
        yield from api.sendto(u, data.upper(), src)
        # The listener is ready once the client's handshake completed.
        log.append(("select listener", (yield from api.select(
            [u, s], timeout=30_000_000)) == ([s], [])))
        c, peer = yield from api.accept(s)
        log.append(("accept", peer[0]))
        for option, value in _OPTIONS:
            log.append(("tcp " + option, (yield from _outcome(
                api.setsockopt(c, option, value)))))
        log.append(("tcp bogus", (yield from _outcome(
            api.setsockopt(c, "bogus", 1)))))
        log.append(("recv", (yield from api.recv_exactly(c, 5))))
        log.append(("recv at eof", (yield from api.recv(c, 100))))
        child = yield from api.fork()
        yield from child.send_all(c, b"HELLO")
        yield from child.close(c)
        yield from api.close(c)
        yield from api.close(s)
        yield from api.close(u)

    def client(api):
        yield ready
        u = yield from api.socket(SOCK_DGRAM)
        yield from api.sendto(u, b"ping", (IP1, 9400))
        log.append(("reply", (yield from api.recvfrom(u))))
        s = yield from api.socket(SOCK_STREAM)
        yield from api.connect(s, (IP1, 7400))
        yield from api.send_all(s, b"hello")
        yield from api.shutdown(s)
        log.append(("after shutdown",
                    (yield from api.recv_exactly(s, 5)),
                    (yield from api.recv(s, 100))))
        yield from api.close(s)
        yield from api.close(u)

    net.run_all([server(pa.new_app()), client(pb.new_app())],
                until=RUN_BOUND)
    assert log == (
        [("bind twice", "SocketError")]
        + [("udp " + option, None) for option, _value in _OPTIONS]
        + [("udp bogus", "SocketError"),
           ("select timeout", ([], [])),
           ("recvfrom", b"ping", IP2),
           ("reply", (b"PING", (IP1, 9400))),
           ("select listener", True),
           ("accept", IP2)]
        + [("tcp " + option, None) for option, _value in _OPTIONS]
        + [("tcp bogus", "SocketError"),
           ("recv", b"hello"),
           ("recv at eof", b""),
           ("after shutdown", b"HELLO", b"")]
    )


def _yield_from_chain(gen):
    names = []
    while gen is not None:
        names.append(getattr(getattr(gen, "gi_code", None), "co_name", "?"))
        gen = getattr(gen, "gi_yieldfrom", None)
    return names


def _probed(gen, chains):
    """Drive ``gen`` by hand, noting its ``yield from`` chain each time
    it parks on a CPU charge."""
    value = None
    while True:
        try:
            target = gen.send(value)
        except StopIteration as stop:
            return stop.value
        if isinstance(target, Charge):
            chains.append(_yield_from_chain(gen))
        value = yield target


#: Generator frames a CPU charge under a bulk ``send`` resumes through,
#: application generator included.  Every frame is paid again on each of
#: a transfer's hundreds of thousands of charges (EXPERIMENTS.md,
#: "Parallel backend & batching": a socket layer that wrapped the data
#: verbs ran bulk_tcp 1.06x), so the chains may not grow.
_SEND_DEPTH = {
    # client, send_all, send, TCPSession.send, _tcp_drain, ip_output,
    # netif_send
    "mach25": 7,
    "library-shm-ipf": 7,
    # client, send_all, send, _call, ResilientCaller.call, _call,
    # RPCPort.call
    "ux": 7,
}


def test_send_path_generator_depth_does_not_grow(any_placement_pair):
    name, net, pa, pb = any_placement_pair
    ready = net.sim.event()
    app_chains, handler_chains = [], []
    if name == "ux":
        handle = pb.server._handle
        pb.server._handle = lambda message: _probed(handle(message),
                                                    handler_chains)

    def server(api):
        fd = yield from api.socket(SOCK_STREAM)
        yield from api.bind(fd, 7006)
        yield from api.listen(fd)
        ready.succeed()
        cfd, _ = yield from api.accept(fd)
        yield from api.recv_exactly(cfd, 200_000)

    def client(api):
        yield ready
        fd = yield from api.socket(SOCK_STREAM)
        yield from api.connect(fd, (IP1, 7006))
        yield from api.send_all(fd, b"d" * 200_000)

    net.run_all([server(pa.new_app()),
                 _probed(client(pb.new_app()), app_chains)],
                until=RUN_BOUND)
    sending = [chain for chain in app_chains if "send_all" in chain]
    bottom = "call" if name == "ux" else "netif_send"
    assert any(chain[-1] == bottom for chain in sending)
    deepest = max(sending, key=len)
    assert len(deepest) <= _SEND_DEPTH[name], deepest
    if name == "ux":
        # _handle, op_send, TCPSession.send, _tcp_drain, ip_output,
        # netif_send
        sending = [chain for chain in handler_chains if "op_send" in chain]
        assert any(chain[-1] == "netif_send" for chain in sending)
        deepest = max(sending, key=len)
        assert len(deepest) <= 6, deepest
