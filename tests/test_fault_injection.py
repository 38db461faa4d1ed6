"""End-to-end resilience: TCP survives a lossy, corrupting wire.

Fault injection exercises the full recovery machinery — retransmission
timers, fast retransmit, checksum rejection, reassembly — through each
complete placement, not just the TCP unit harness.
"""

import random

import pytest

from repro.core.sockets import SOCK_DGRAM, SOCK_STREAM
from repro.faults import BernoulliLoss, Corrupt, FaultPlan
from repro.net.addr import ip_aton
from repro.world.configs import build_network

IP1 = ip_aton("10.0.0.1")
BOUND = 1_200_000_000  # loss recovery needs timer time


def run_transfer(net, pa, pb, nbytes=60_000, port=7300):
    ready = net.sim.event()
    api_a = pa.new_app()
    api_b = pb.new_app()
    payload = bytes(random.Random(3).randbytes(nbytes))

    def server():
        fd = yield from api_a.socket(SOCK_STREAM)
        yield from api_a.bind(fd, port)
        yield from api_a.listen(fd)
        ready.succeed()
        cfd, _ = yield from api_a.accept(fd)
        data = yield from api_a.recv_exactly(cfd, nbytes)
        return data

    def client():
        yield ready
        fd = yield from api_b.socket(SOCK_STREAM)
        yield from api_b.connect(fd, (IP1, port))
        yield from api_b.send_all(fd, payload)
        return "sent"

    data, _ = net.run_all([server(), client()], until=BOUND)
    return data == payload


@pytest.mark.parametrize("config", ["mach25", "library-shm-ipf", "ux"])
def test_tcp_survives_packet_loss(config):
    net, pa, pb = build_network(
        config, fault_plan=FaultPlan([BernoulliLoss(0.05)],
                                     rng=random.Random(17)))
    assert run_transfer(net, pa, pb)
    assert net.wire.frames_lost > 0  # faults actually happened


def test_tcp_survives_corruption():
    """Corrupted frames must be rejected by checksums and retransmitted;
    the delivered stream stays byte-exact."""
    net, pa, pb = build_network(
        "library-shm-ipf", fault_plan=FaultPlan([Corrupt(0.05)],
                                                rng=random.Random(23)))
    assert run_transfer(net, pa, pb)
    assert net.wire.frames_corrupted > 0


def test_tcp_survives_heavy_loss_small_transfer():
    net, pa, pb = build_network(
        "mach25", fault_plan=FaultPlan([BernoulliLoss(0.25)],
                                       rng=random.Random(5)))
    assert run_transfer(net, pa, pb, nbytes=8_000, port=7301)


def test_handshake_through_loss():
    """Even SYN/SYN-ACK losses converge via retransmission."""
    rng = random.Random(41)
    net, pa, pb = build_network(
        "library-shm-ipf", fault_plan=FaultPlan([BernoulliLoss(0.3)], rng=rng))
    ready = net.sim.event()
    api_a = pa.new_app()
    api_b = pb.new_app()

    def server():
        fd = yield from api_a.socket(SOCK_STREAM)
        yield from api_a.bind(fd, 7302)
        yield from api_a.listen(fd)
        ready.succeed()
        cfd, _ = yield from api_a.accept(fd)
        return "accepted"

    def client():
        yield ready
        fd = yield from api_b.socket(SOCK_STREAM)
        yield from api_b.connect(fd, (IP1, 7302))
        return "connected"

    res = net.run_all([server(), client()], until=BOUND)
    assert res == ["accepted", "connected"]


def test_udp_is_lossy_by_design():
    """UDP makes no recovery promises: datagrams dropped on the wire are
    simply gone, and the application sees fewer of them."""
    rng = random.Random(9)
    net, pa, pb = build_network(
        "mach25", fault_plan=FaultPlan([BernoulliLoss(0.4)], rng=rng))
    ready = net.sim.event()
    api_a = pa.new_app()
    api_b = pb.new_app()
    total = 40

    def receiver():
        fd = yield from api_a.socket(SOCK_DGRAM)
        yield from api_a.bind(fd, 7303)
        ready.succeed()
        got = 0
        deadline = net.sim.now + 600_000_000
        while net.sim.now < deadline:
            r, _w = yield from api_a.select([fd], timeout=5_000_000)
            if not r:
                if got:
                    break  # the burst ended
                continue  # ARP may still be retrying through the loss
            yield from api_a.recvfrom(fd)
            got += 1
        return got

    def sender():
        yield ready
        fd = yield from api_b.socket(SOCK_DGRAM)
        for i in range(total):
            yield from api_b.sendto(fd, b"d%03d" % i, (IP1, 7303))
            yield net.sim.timeout(10_000)

    got, _s = net.run_all([receiver(), sender()], until=BOUND)
    assert 0 < got < total  # some arrived, some were lost, none recovered
