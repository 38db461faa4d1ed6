"""Scale worlds: one demux model, the paper's linear packet-filter scan.

A :class:`~repro.world.topology.World` runs on the plain
:class:`~repro.sim.engine.Simulator`, and its kernels demultiplex the way
every two-host world does: each arriving frame runs the installed filter
programs in list order, each run charged, until one accepts.  The tests
pin that cost (a frame pays for every session filter ahead of its own)
and the precedence ``front=True`` installs give (an exact session beats
its wildcard listener), then check that TCP over a scale world still
resumes after idling.
"""

from repro.core.sockets import SOCK_DGRAM, SOCK_STREAM
from repro.sim.process import Timeout
from repro.world.topology import TopologySpec, build_world, warm_arp

BOUND = 600_000_000


# ----------------------------------------------------------------------
# Linear packet-filter demux
# ----------------------------------------------------------------------

def _star(placement):
    world = build_world(TopologySpec(kind="star", hosts=2, seed=5,
                                     placement=placement))
    warm_arp(world)
    return world


def test_frame_for_the_first_bound_session_runs_every_session_filter():
    """Library sessions install their filters at the front of the list,
    so the first-bound session's filter sits behind the N - 1 bound
    after it: its frame is charged N filter runs."""
    sessions = 40
    world = _star("library-shm")
    receiver, sender = world.new_app(0), world.new_app(1)
    kernel = world.hosts[0].kernel
    dst = (world.hosts[0].ip, 7000)
    fds = []
    got = []

    def bind_all():
        for i in range(sessions):
            fd = yield from receiver.socket(SOCK_DGRAM)
            yield from receiver.bind(fd, 7000 + i)
            fds.append(fd)

    world.run_all([bind_all()], until=BOUND)
    first = kernel._filters[sessions - 1]
    assert first.name.endswith(":7000")
    runs_before = kernel._vm.packets_examined
    matched_before = first.matched

    def send():
        fd = yield from sender.socket(SOCK_DGRAM)
        yield from sender.sendto(fd, b"x", dst)

    def recv():
        data, _src = yield from receiver.recvfrom(fds[0])
        got.append(data)

    world.run_all([send(), recv()], until=world.sim.now + BOUND)
    assert got == [b"x"]
    assert first.matched == matched_before + 1
    assert kernel._vm.packets_examined - runs_before == sessions


def test_exact_session_beats_its_wildcard_listener():
    """An accepted connection's exact filter goes in front of the
    listener's wildcard one, so once the handshake is done the data
    reaches the exact filter and the listener sees nothing more."""
    world = _star("library-shm")
    server, client = world.new_app(0), world.new_app(1)
    kernel = world.hosts[0].kernel
    ready = world.sim.event()
    handles = {}

    def serve():
        fd = yield from server.socket(SOCK_STREAM)
        yield from server.bind(fd, 8000)
        yield from server.listen(fd)
        handles["listener"] = kernel._filters[0]
        ready.succeed()
        child, _addr = yield from server.accept(fd)
        handles["exact"] = kernel._filters[0]
        handles["handshake"] = handles["listener"].matched
        data = yield from server.recv_exactly(child, 3000)
        yield from server.close(child)
        return data

    def connect():
        yield ready
        fd = yield from client.socket(SOCK_STREAM)
        yield from client.connect(fd, (world.hosts[0].ip, 8000))
        yield from client.send_all(fd, b"e" * 3000)
        yield from client.close(fd)

    data, _ = world.run_all([serve(), connect()], until=BOUND)
    assert data == b"e" * 3000
    listener, exact = handles["listener"], handles["exact"]
    assert listener is not exact
    assert exact.name.endswith(".appfilter:8000")
    assert listener.matched == handles["handshake"]
    assert exact.matched >= 3  # 3000 bytes in MSS-sized segments


# ----------------------------------------------------------------------
# TCP in a scale world
# ----------------------------------------------------------------------

def test_scale_world_connection_resumes_after_idling():
    world = _star("mach25")
    # Establish a connection, let it idle for many slow ticks, then send
    # again: the transfer must still complete.
    api_a, api_b = world.new_app(0), world.new_app(1)

    def server():
        fd = yield from api_a.socket(SOCK_STREAM)
        yield from api_a.bind(fd, 7070)
        yield from api_a.listen(fd)
        child, _addr = yield from api_a.accept(fd)
        total = b""
        while len(total) < 6:
            data = yield from api_a.recv(child, 64)
            if not data:
                break
            total += data
        yield from api_a.close(child)
        yield from api_a.close(fd)
        return total

    def client():
        fd = yield from api_b.socket(SOCK_STREAM)
        yield from api_b.connect(fd, (world.hosts[0].ip, 7070))
        yield from api_b.send_all(fd, b"abc")
        yield Timeout(10_000_000.0)  # idle across 20 slow ticks
        yield from api_b.send_all(fd, b"def")
        yield from api_b.close(fd)
        return b"ok"

    got, _ = world.run_all([server(), client()], until=BOUND)
    assert got == b"abcdef"
