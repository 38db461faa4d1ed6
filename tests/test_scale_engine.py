"""Scale worlds: what :class:`~repro.sim.scale.ScaleSimulator` selects.

The class shares the base :class:`~repro.sim.engine.Simulator` event
loop, so the first contract is that the two agree on every timer —
distinct deadlines and same-instant ties alike — and that a scale world
still runs real protocol worlds to the same answers (every byte moved)
and stays bit-deterministic run to run.  The rest pins the one
structure the class switches on, the indexed packet-filter demux, and
checks that TCP over a scale world behaves as over a plain one.
"""

from repro.apps.ttcp import ttcp
from repro.core.sockets import SOCK_STREAM
from repro.sim.engine import Simulator
from repro.sim.process import Timeout
from repro.sim.scale import ScaleSimulator
from repro.world.configs import build_network


# ----------------------------------------------------------------------
# ScaleSimulator semantics
# ----------------------------------------------------------------------

def test_scale_sim_timer_order_matches_default_engine():
    def record(sim, log, tag, delays):
        def proc():
            for delay in delays:
                yield Timeout(delay)
                log.append((sim.now, tag))
        return proc()

    def run(sim_cls):
        sim = sim_cls()
        log = []
        # Distinct deadlines and same-instant ties (t = 2.5 twice, four
        # timers at t = 10 spawned out of tag order, a pair landing on
        # the far-future t = 1e6): one event loop, so one order.
        sim.spawn(record(sim, log, "a", [1.0, 1.5, 7.5, 90.0, 999_900.0]))
        sim.spawn(record(sim, log, "b", [1.5, 1.0, 7.5, 89.0, 2e6]))
        sim.spawn(record(sim, log, "d", [10.0, 999_990.0]))
        sim.spawn(record(sim, log, "c", [10.0]))
        sim.run()
        return log

    log = run(Simulator)
    assert log == run(ScaleSimulator)
    # Ties break by insertion sequence — when the timer was set — not
    # by tag or spawn order: "d" and "c" set theirs at t = 0.
    assert [tag for when, tag in log if when == 10.0] == ["d", "c", "a", "b"]
    assert [tag for when, tag in log if when == 1e6] == ["d", "a"]


def test_scale_sim_runs_a_real_world_to_the_same_bytes():
    net, pa, pb = build_network("mach25", sim=ScaleSimulator())
    result = ttcp(net, pb, pa, total_bytes=64 * 1024, rcvbuf_kb=24)
    assert result.bytes_moved == 64 * 1024
    assert 100 < result.throughput_kbs < 1250


def test_scale_sim_is_deterministic_run_to_run():
    def run():
        net, pa, pb = build_network("library-shm", sim=ScaleSimulator())
        result = ttcp(net, pb, pa, total_bytes=32 * 1024, rcvbuf_kb=24)
        return (result.bytes_moved, result.elapsed_us, result.throughput_kbs)

    assert run() == run()


# ----------------------------------------------------------------------
# Indexed packet-filter demux (O(1) in the number of sessions)
# ----------------------------------------------------------------------

import struct

from repro.apps.protolat import protolat
from repro.filter.compile import (
    compile_arp_filter, compile_session_filter)
from repro.filter.insn import Insn, Op
from repro.filter.vm import validate
from repro.hw.platforms import DECSTATION_5000_200
from repro.kernel.kernel import QueueDelivery
from repro.net.addr import ip_aton
from repro.sim.sync import Channel
from repro.world.network import Network


def _udp_frame(src_ip, dst_ip, sport, dport):
    eth = b"\x02\x00" * 6 + b"\x08\x00"
    ip = struct.pack("!BBHHHBBHII", 0x45, 0, 28, 0, 0, 64, 17, 0,
                     ip_aton(src_ip), ip_aton(dst_ip))
    udp = struct.pack("!HHHH", sport, dport, 8, 0)
    return eth + ip + udp


def _scale_host():
    net = Network(sim=ScaleSimulator())
    host = net.add_host("10.0.0.1", DECSTATION_5000_200)
    assert host.kernel._demux_index is not None
    return net, host


def test_indexed_demux_selects_only_the_matching_session():
    _net, host = _scale_host()
    kernel = host.kernel
    handles = [
        kernel.install_filter(
            compile_session_filter(17, host.ip, 20000 + i),
            QueueDelivery(Channel(host.sim)))
        for i in range(100)
    ]
    frame = _udp_frame("10.0.0.2", "10.0.0.1", 555, 20050)
    session_cands = [h for h in kernel._demux_candidates(frame)
                     if getattr(h.program, "demux_key", (None,))[0] == "sess"]
    assert session_cands == [handles[50]]


def test_indexed_demux_exact_session_beats_wildcard():
    _net, host = _scale_host()
    kernel = host.kernel
    wildcard = kernel.install_filter(
        compile_session_filter(6, host.ip, 80),
        QueueDelivery(Channel(host.sim)))
    exact = kernel.install_filter(
        compile_session_filter(6, host.ip, 80,
                               remote_ip=ip_aton("10.0.0.2"),
                               remote_port=555),
        QueueDelivery(Channel(host.sim)), front=True)
    frame = _udp_frame("10.0.0.2", "10.0.0.1", 555, 80)
    # _udp_frame writes proto 17; patch to TCP for this check.
    frame = frame[:23] + b"\x06" + frame[24:]
    cands = kernel._demux_candidates(frame)
    assert cands.index(exact) < cands.index(wildcard)


def test_indexed_demux_routes_arp_to_the_arp_bucket():
    _net, host = _scale_host()
    arp_frame = b"\x02\x00" * 6 + b"\x08\x06" + b"\x00" * 28
    cands = host.kernel._demux_candidates(arp_frame)
    assert cands, "ARP filter installed by ArpService must be a candidate"
    assert all(h.program.demux_key == ("arp",) for h in cands
               if getattr(h.program, "demux_key", None) is not None)
    assert compile_arp_filter().demux_key == ("arp",)


def test_indexed_demux_falls_back_to_unindexed_programs():
    _net, host = _scale_host()
    kernel = host.kernel
    accept_all = validate([Insn(Op.RET, k=0xFFFF)])  # plain list, no key
    handle = kernel.install_filter(accept_all, QueueDelivery(Channel(host.sim)))
    frame = _udp_frame("10.0.0.2", "10.0.0.1", 1, 2)
    assert handle in kernel._demux_candidates(frame)
    assert kernel.remove_filter(handle)
    assert handle not in kernel._demux_candidates(frame)


def test_indexed_demux_remove_filter_cleans_the_index():
    _net, host = _scale_host()
    kernel = host.kernel
    handle = kernel.install_filter(
        compile_session_filter(17, host.ip, 9999),
        QueueDelivery(Channel(host.sim)))
    frame = _udp_frame("10.0.0.2", "10.0.0.1", 1, 9999)
    assert handle in kernel._demux_candidates(frame)
    assert kernel.remove_filter(handle)
    assert handle not in kernel._demux_candidates(frame)
    assert not kernel.remove_filter(handle)  # idempotent, as before


def test_indexed_demux_runs_constant_programs_under_filter_load():
    """With 150 extra sessions installed, an indexed kernel still runs
    only a couple of programs per arriving frame where the linear scan
    runs most of the install list."""

    def run(sim=None):
        net, pa, pb = build_network("mach25", sim=sim)
        for host in net.hosts:
            for i in range(150):
                # front=True puts the noise ahead of the stack's own
                # protocol filters, where a linear scan must wade
                # through it for every arriving frame.
                host.kernel.install_filter(
                    compile_session_filter(17, host.ip, 30000 + i),
                    QueueDelivery(Channel(net.sim)), front=True)
        before = sum(h.kernel._vm.insns_executed for h in net.hosts)
        result = protolat(net, pb, pa, proto="udp", message_size=64, rounds=5)
        after = sum(h.kernel._vm.insns_executed for h in net.hosts)
        assert result.rounds == 5
        return after - before

    linear = run()
    indexed = run(sim=ScaleSimulator())
    assert indexed * 10 < linear


# ----------------------------------------------------------------------
# TCP in a scale world: the same timer pass as on a plain Simulator
# ----------------------------------------------------------------------

def test_scale_world_connection_resumes_after_idling():
    net, pa, pb = build_network("mach25", sim=ScaleSimulator())
    # Establish a connection, let it idle for many slow ticks, then send
    # again: the transfer must still complete.
    api_a, api_b = pa.new_app(), pb.new_app()

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
        yield from api_b.connect(fd, (net.hosts[0].ip, 7070))
        yield from api_b.send_all(fd, b"abc")
        yield Timeout(10_000_000.0)  # idle across 20 slow ticks
        yield from api_b.send_all(fd, b"def")
        yield from api_b.close(fd)
        return b"ok"

    got, _ = net.run_all([server(), client()])
    assert got == b"abcdef"


def _echo_and_close(sim):
    """One library TCP echo, both ends closed, then a quiet second."""
    net, pa, pb = build_network("library-shm-ipf", sim=sim)
    api_a, api_b = pa.new_app(), pb.new_app()
    ready = net.sim.event()

    def server():
        fd = yield from api_a.socket(SOCK_STREAM)
        yield from api_a.bind(fd, 7080)
        yield from api_a.listen(fd)
        ready.succeed()
        child, _addr = yield from api_a.accept(fd)
        data = yield from api_a.recv_exactly(child, 4)
        yield from api_a.send_all(child, data)
        yield from api_a.close(child)
        yield from api_a.close(fd)

    def client():
        yield ready
        fd = yield from api_b.socket(SOCK_STREAM)
        yield from api_b.connect(fd, (net.hosts[0].ip, 7080))
        yield from api_b.send_all(fd, b"ping")
        echo = yield from api_b.recv_exactly(fd, 4)
        yield from api_b.close(fd)
        return echo

    _served, echo = net.run_all([server(), client()])
    assert echo == b"ping"
    net.sim.run(until=net.sim.now + 1_000_000.0)
    return net


def test_scale_engine_carries_the_plain_engines_frames_on_echo_and_close():
    # A library session exported back to its OS server at close leaves
    # the library stack; a stale copy still ticking there would put a
    # delayed ACK (and the peer's answer) on the wire that the plain
    # engine never sends.
    scale = _echo_and_close(ScaleSimulator())
    plain = _echo_and_close(Simulator())
    assert scale.wire.frames_carried == plain.wire.frames_carried
