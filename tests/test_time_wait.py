"""TIME_WAIT through the stack, and its compact form.

The first group pins what a connection in TIME_WAIT does on all three
placements — a retransmitted FIN is re-ACKed, an RST ends it, the port
comes back only when 2MSL expires — the rare path a TIME_WAIT record is
rebuilt on.  The rest pins the record itself: a closed connection
waiting out 2MSL is a :class:`~repro.stack.timewait.TimeWait` record of a
few hundred bytes; nothing else of it stays reachable; and, driven by
random segments and ticks, the record does exactly what the whole
session it replaced would have done.
"""

import gc
import itertools
import tracemalloc
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.netstat import tcp_sessions
from repro.core.sockets import SOCK_STREAM
from repro.faults import FaultPlan, FaultStage
from repro.net import ethernet, ip
from repro.net.addr import ip_aton
from repro.net.tcp import TCPConnection, TCPState
from repro.net.tcp.header import ACK, FIN, RST, SYN, TCPSegment
from repro.net.tcp.timers import FAST_TICK_US, SLOW_TICK_US, TCPTV_MSL
from repro.stack.engine import TCPSession
from repro.stack.timewait import TimeWait
from repro.world.configs import build_network

IP1 = ip_aton("10.0.0.1")  # the listener's host (placement a)
IP2 = ip_aton("10.0.0.2")  # the connecting host (placement b)
PORT = 7300
BOUND = 200_000_000
TWO_MSL_US = 2 * TCPTV_MSL * SLOW_TICK_US
PLACEMENTS = ["mach25", "ux", "library-shm-ipf"]


class WireLog(FaultStage):
    """Logs every TCP segment on the wire as ``(t, src_ip, segment)``;
    optionally loses the first data segment ``lose_from`` sends, and
    sends a copy of the first FIN ``dup_from`` sends ``dup_delay_us``
    later."""

    name = "wire-log"

    def __init__(self, dup_from=None, dup_delay_us=0.0, lose_from=None):
        self.segments = []
        self.dup_from = dup_from
        self.dup_delay_us = dup_delay_us
        self.lose_from = lose_from

    def transit(self, t, rng, now):
        eth, packet = ethernet.decapsulate(t.frame)
        if eth.ethertype != ethernet.ETHERTYPE_IP:
            return [t]
        header, payload = ip.decapsulate(packet)
        if header.proto != ip.PROTO_TCP:
            return [t]
        seg = TCPSegment.unpack(header.src, header.dst, payload)
        if header.src == self.lose_from and seg.payload:
            self.lose_from = None
            return []
        self.segments.append((now, header.src, seg))
        if header.src == self.dup_from and seg.flags & FIN:
            self.dup_from = None
            twin = t.copy()
            twin.delay_us += self.dup_delay_us
            return [t, twin]
        return [t]

    def sent_by(self, src_ip, since=0.0):
        return [seg for t, src, seg in self.segments
                if src == src_ip and t >= since]


def _key(seg):
    return seg.flags, seg.seq, seg.ack, seg.window


def _world(placement, log=None, **kwargs):
    plan = FaultPlan([log]) if log is not None else None
    return build_network(placement, fault_plan=plan, **kwargs)


def _exchange(net, pa, pb, order):
    """One connection to 10.0.0.1:PORT.  ``order`` is who closes first:
    "client" (the server waits for EOF, so only the client ends in
    TIME_WAIT) or "both" (a 16-byte echo, then both close at once, so
    both do).  Returns when both applications are done."""
    server, client = pa.new_app(), pb.new_app()
    ready = net.sim.event()

    def serve():
        fd = yield from server.socket(SOCK_STREAM)
        yield from server.bind(fd, PORT)
        yield from server.listen(fd)
        ready.succeed()
        cfd, _addr = yield from server.accept(fd)
        if order == "both":
            data = yield from server.recv_exactly(cfd, 16)
            yield from server.send_all(cfd, data)
        else:
            while (yield from server.recv(cfd, 100)):
                pass
        yield from server.close(cfd)

    def connect():
        yield ready
        fd = yield from client.socket(SOCK_STREAM)
        yield from client.connect(fd, (IP1, PORT))
        if order == "both":
            yield from client.send_all(fd, b"0123456789abcdef")
            yield from client.recv_exactly(fd, 16)
        yield from client.close(fd)

    net.run_all([serve(), connect()], until=net.sim.now + BOUND)
    net.sim.run(until=net.sim.now + 1_000_000)  # the teardown's last ACKs


# ----------------------------------------------------------------------
# TIME_WAIT input, on every placement
# ----------------------------------------------------------------------

@pytest.mark.parametrize("placement", PLACEMENTS)
def test_retransmitted_fin_in_time_wait_is_reacked(placement):
    """The server's FIN arrives a second time, 5 s late, at a client in
    TIME_WAIT: the client answers with the same ACK as the first time.
    The old FIN sits one octet left of rcv_nxt, so it takes the
    unacceptable-segment path, which ACKs and leaves 2MSL running: the
    port comes back at the first FIN's 2MSL, not the copy's."""
    log = WireLog(dup_from=IP1, dup_delay_us=5_000_000.0)
    net, pa, pb = _world(placement, log)
    _exchange(net, pa, pb, "both")
    stack = pb._backend.stack
    assert stack.time_wait_count() == 1
    fin_at, fin = next((t, seg) for t, src, seg in log.segments
                       if src == IP1 and seg.flags & FIN)
    past_fin = (fin.seq + len(fin.payload) + 1) % (1 << 32)
    first_ack = next(seg for seg in log.sent_by(IP2, since=fin_at)
                     if seg.ack == past_fin)
    net.sim.run(until=fin_at + 6_000_000)
    reack = log.sent_by(IP2, since=fin_at + 5_000_000)
    assert [_key(seg) for seg in reack] == [_key(first_ack)]
    assert stack.time_wait_count() == 1
    ports = stack.ports["tcp"]
    net.sim.run(until=fin_at + TWO_MSL_US - 1_000_000)
    assert ports.bound_count() == 1
    net.sim.run(until=fin_at + TWO_MSL_US + 1_500_000)
    assert ports.bound_count() == 0
    assert stack.tcp_session_count() == 0


@pytest.mark.parametrize("placement", PLACEMENTS)
def test_rst_ends_time_wait(placement):
    """The client closed first, so only it waits out 2MSL.  A late copy
    of the server's FIN draws its re-ACK; the server, whose connection
    is gone, answers with an RST, and the RST ends the client's
    TIME_WAIT (RFC 1337's hazard): the port is back a tick later."""
    log = WireLog(dup_from=IP1, dup_delay_us=5_000_000.0)
    net, pa, pb = _world(placement, log)
    _exchange(net, pa, pb, "client")
    stack = pb._backend.stack
    assert stack.time_wait_count() == 1
    assert pa._backend.stack.time_wait_count() == 0
    fin_at = next(t for t, src, seg in log.segments
                  if src == IP1 and seg.flags & FIN)
    net.sim.run(until=fin_at + 6_000_000)
    assert any(seg.flags & RST
               for seg in log.sent_by(IP1, since=fin_at + 5_000_000))
    assert stack.time_wait_count() == 0
    assert stack.ports["tcp"].bound_count() == 0
    assert stack.tcp_session_count() == 0


@pytest.mark.parametrize("placement", PLACEMENTS)
def test_time_wait_holds_the_port_for_2msl(placement):
    log = WireLog()
    net, pa, pb = _world(placement, log)
    _exchange(net, pa, pb, "client")
    stack = pb._backend.stack
    fin_at = next(t for t, src, seg in log.segments
                  if src == IP1 and seg.flags & FIN)
    net.sim.run(until=fin_at + TWO_MSL_US - 1_000_000)
    assert stack.time_wait_count() == 1
    assert stack.ports["tcp"].bound_count() == 1
    net.sim.run(until=fin_at + TWO_MSL_US + 1_500_000)
    assert stack.time_wait_count() == 0
    assert stack.ports["tcp"].bound_count() == 0


# ----------------------------------------------------------------------
# The compact form
# ----------------------------------------------------------------------

def _live_sessions(four_tuples):
    gc.collect()
    return [obj for obj in gc.get_objects()
            if type(obj) is TCPSession
            and (obj.conn.local, obj.conn.remote) in four_tuples]


@pytest.mark.parametrize("placement", PLACEMENTS)
def test_closed_time_wait_sessions_are_records(placement):
    """Both ends close at once, so both hosts hold the connection in
    TIME_WAIT — as records: no TCPSession or TIME_WAIT TCPConnection is
    reachable, and netstat still reads each one's row."""
    net, pa, pb = _world(placement)
    _exchange(net, pa, pb, "both")
    stacks = [pa._backend.stack, pb._backend.stack]
    entries = [entry for stack in stacks for entry in stack._tcp.values()
               if entry.state == TCPState.TIME_WAIT]
    assert len(entries) == 2
    assert all(isinstance(entry, TimeWait) for entry in entries)
    gc.collect()
    assert not [obj for obj in gc.get_objects()
                if type(obj) is TCPConnection
                and obj.state == TCPState.TIME_WAIT]
    rows = [row for stack in stacks for row in tcp_sessions(stack)
            if row["state"] == "TIME_WAIT"]
    assert len(rows) == 2
    for row in rows:
        assert row["sndq"] == row["rcvq"] == row["retransmits"] == 0
        assert row["cwnd"] > 0 and row["srtt"] > 0
        assert row["buffers"]["snd_space"] > 0


def test_shutdown_keeps_a_time_wait_session_whole():
    """After shutdown(SHUT_WR) the peer's FIN takes the session to
    TIME_WAIT while its owner still reads: it stays a whole session."""
    net, pa, pb = _world("mach25")
    server, client = pa.new_app(), pb.new_app()
    ready = net.sim.event()

    def serve():
        fd = yield from server.socket(SOCK_STREAM)
        yield from server.bind(fd, PORT)
        yield from server.listen(fd)
        ready.succeed()
        cfd, _addr = yield from server.accept(fd)
        while (yield from server.recv(cfd, 100)):
            pass
        yield from server.send_all(cfd, b"late reply")
        yield from server.close(cfd)

    def connect():
        yield ready
        fd = yield from client.socket(SOCK_STREAM)
        yield from client.connect(fd, (IP1, PORT))
        yield from client.shutdown(fd)
        yield net.sim.timeout(1_000_000)
        return fd

    _served, fd = net.run_all([serve(), connect()], until=BOUND)
    stack = pb._backend.stack
    (entry,) = stack._tcp.values()
    assert isinstance(entry, TCPSession)
    assert entry.state == TCPState.TIME_WAIT

    def drain():
        data = yield from client.recv(fd, 100)
        eof = yield from client.recv(fd, 100)
        return data, eof

    assert net.sim.run_process(drain()) == (b"late reply", b"")


def test_reaped_and_compacted_sessions_are_freed_at_once():
    """The passive closer's session is reaped at CLOSED, the active
    closer's compacted at TIME_WAIT; once that instant settles neither
    TCPSession is reachable — the timer loop does not keep its last
    pass's snapshot until the next tick."""
    net, pa, pb = _world("mach25")
    server, client = pa.new_app(), pb.new_app()
    sim = net.sim
    ready = sim.event()

    def serve():
        fd = yield from server.socket(SOCK_STREAM)
        yield from server.bind(fd, PORT)
        yield from server.listen(fd)
        ready.succeed()
        cfd, _addr = yield from server.accept(fd)
        while (yield from server.recv(cfd, 100)):
            pass
        yield from server.close(cfd)

    def connect():
        yield ready
        fd = yield from client.socket(SOCK_STREAM)
        yield from client.connect(fd, (IP1, PORT))
        return fd

    sim.spawn(serve())
    fd = sim.run_process(connect(), until=BOUND)
    a_stack, b_stack = pa._backend.stack, pb._backend.stack
    (client_key,) = b_stack._tcp
    client_pair = ((IP2, client_key[0]), (IP1, PORT))
    server_pair = ((IP1, PORT), (IP2, client_key[0]))
    # A timer pass must have seen both sessions before they go.
    sim.run(until=sim.now + 2 * FAST_TICK_US)
    assert len(_live_sessions({client_pair, server_pair})) == 2

    def close():
        yield from client.close(fd)

    sim.run_process(close())
    while not (isinstance(b_stack._tcp.get(client_key), TimeWait)
               and (PORT, IP2, client_key[0]) not in a_stack._tcp):
        assert sim.step()
    sim.run(until=sim.now)
    assert _live_sessions({client_pair, server_pair}) == []


def _bytes_per_time_wait(placement, connections=100):
    """What the host gets back per connection end when 2MSL ends: the
    memory tracemalloc traces with every connection of an echo churn in
    TIME_WAIT, less what it traces once they have all expired.

    Both ends close at the instant the client has the echo back, so
    their FINs cross and both wait out 2MSL.  (Closing as each side
    finished left the server's close a race against the client's
    read: a delayed-ACK tick landing in between let the server's FIN
    arrive first, and that end closed passively, without TIME_WAIT.)"""
    net, pa, pb = _world(placement)
    server, client = pa.new_app(), pb.new_app()
    stacks = [pa._backend.stack, pb._backend.stack]
    echoed = [net.sim.event()]

    def serve():
        fd = yield from server.socket(SOCK_STREAM)
        yield from server.bind(fd, PORT)
        yield from server.listen(fd)
        for _ in range(connections):
            cfd, _addr = yield from server.accept(fd)
            data = yield from server.recv_exactly(cfd, 16)
            yield from server.send_all(cfd, data)
            yield echoed[0]
            yield from server.close(cfd)

    def connect():
        yield net.sim.timeout(1000.0)
        for i in range(connections):
            fd = yield from client.socket(SOCK_STREAM)
            yield from client.connect(fd, (IP1, PORT))
            yield from client.send_all(fd, bytes([i]) * 16)
            yield from client.recv_exactly(fd, 16)
            event, echoed[0] = echoed[0], net.sim.event()
            event.succeed()
            yield from client.close(fd)

    tracemalloc.start()
    try:
        net.run_all([serve(), connect()], until=BOUND)
        net.sim.run(until=net.sim.now + 1_000_000)  # the last teardown
        gc.collect()
        waiting = sum(stack.time_wait_count() for stack in stacks)
        held = tracemalloc.get_traced_memory()[0]
        net.sim.run(until=net.sim.now + TWO_MSL_US + 1_500_000)
        gc.collect()
        assert sum(stack.time_wait_count() for stack in stacks) == 0
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert waiting == 2 * connections
    return freed / waiting


@pytest.mark.parametrize("placement", PLACEMENTS)
def test_time_wait_costs_under_700_bytes(placement):
    """Whole, a connection end in TIME_WAIT kept 2.5–2.7 KB (session,
    connection, both buffers, reassembly queue, RTT/cwnd/stats/config
    objects, notifier); as a record, with its demux key and (on the
    connecting side) its port binding, it keeps under 700 B."""
    assert _bytes_per_time_wait(placement) <= 700


# ----------------------------------------------------------------------
# The record against the whole session it replaces
# ----------------------------------------------------------------------

SEGMENT_KINDS = ("fin", "fin_at_nxt", "rst", "syn", "ack", "data", "old",
                 "far")


@st.composite
def _cases(draw):
    rcv_buf = draw(st.sampled_from([300, 2048, 24 * 1024]))
    order = draw(st.sampled_from(["client", "server", "both"]))
    # Whoever closes first waits out 2MSL (both, when both do at once).
    victims = {"client": [IP2], "server": [IP1], "both": [IP1, IP2]}
    return {
        "placement": draw(st.sampled_from(PLACEMENTS)),
        "order": order,
        "victim": draw(st.sampled_from(victims[order])),
        "tcp": {"msl_ticks": draw(st.integers(1, 4)),
                "mss": draw(st.sampled_from([100, 536, 1460])),
                "rcv_buf": rcv_buf,
                "snd_buf": draw(st.sampled_from([1024, 24 * 1024])),
                "window_scale": draw(st.sampled_from([None, 0, 3]))},
        "c_bytes": draw(st.integers(0, rcv_buf)),
        "s_bytes": draw(st.integers(0, rcv_buf)),
        "read": draw(st.booleans()),
        "select": draw(st.booleans()),
        "lose": draw(st.booleans()),
        # (delay µs — or, negative, how long before a timer pass the
        # segment leaves, so that the pass falls inside its processing —
        # kind, parameter)
        "script": draw(st.lists(
            st.tuples(st.one_of(st.integers(0, 3_000_000),
                                st.integers(-3000, -1)),
                      st.sampled_from(SEGMENT_KINDS),
                      st.integers(0, 0xFFFF)),
            max_size=4)),
    }


def _crafted(kind, param, snd_nxt, rcv_nxt):
    """A segment from the peer to a host whose last ACK carried
    ``snd_nxt``/``rcv_nxt``.  Ports are filled in by the caller."""
    mod = 1 << 32
    ack = (snd_nxt + (param % 3) - 1) % mod
    if kind == "fin":  # the peer's FIN, retransmitted
        return TCPSegment(0, 0, (rcv_nxt - 1) % mod, snd_nxt, FIN | ACK, param)
    if kind == "fin_at_nxt":
        return TCPSegment(0, 0, rcv_nxt, snd_nxt, FIN | ACK, param)
    if kind == "rst":
        return TCPSegment(0, 0, (rcv_nxt + param % 2 * 70000) % mod, ack,
                          RST | (ACK if param & 4 else 0))
    if kind == "syn":
        return TCPSegment(0, 0, (rcv_nxt + param) % mod, 0, SYN, 8192,
                          mss_option=536)
    if kind == "ack":
        return TCPSegment(0, 0, rcv_nxt, ack, ACK, param)
    if kind == "data":
        return TCPSegment(0, 0, rcv_nxt, snd_nxt, ACK, param,
                          payload=b"d" * (1 + param % 40))
    if kind == "old":
        return TCPSegment(0, 0, (rcv_nxt - 1 - param % 30) % mod, snd_nxt,
                          ACK, param, payload=b"o" * (1 + param % 20))
    return TCPSegment(0, 0, (rcv_nxt + 100000 + param) % mod, snd_nxt, ACK,
                      param)


def _observe(sim, stacks, victim_stack, fires):
    return (sim.now, victim_stack.time_wait_count(),
            victim_stack.tcp_session_count(),
            victim_stack.ports["tcp"].bound_count(), fires[0],
            [tcp_sessions(stack) for stack in stacks],
            [(stack.ctx.cpu.charge_count, stack.ctx.cpu.busy_time)
             for stack in stacks])


def _run_case(case):
    """The case's world, run to the end of its script and of 2MSL: the
    wire's segments and the victim host's state at every step."""
    log = WireLog(lose_from=case["victim"] if case["lose"] else None)
    net, pa, pb = _world(case["placement"], log, tcp_defaults=case["tcp"])
    sim = net.sim
    server, client = pa.new_app(), pb.new_app()
    ready = sim.event()
    order = case["order"]

    def speak(api, fd, send, expect, closes_first):
        if case["select"] and api is (server if case["victim"] == IP1
                                      else client):
            yield from api.select([fd], [], timeout=1000.0)
        if send:
            yield from api.send_all(fd, b"x" * send)
        if not closes_first or case["read"]:
            got = 0
            while got < expect:
                got += len((yield from api.recv(fd, expect - got)))
        if not closes_first:
            while (yield from api.recv(fd, 100)):
                pass
        yield from api.close(fd)

    def serve():
        fd = yield from server.socket(SOCK_STREAM)
        yield from server.bind(fd, PORT)
        yield from server.listen(fd)
        ready.succeed()
        cfd, _addr = yield from server.accept(fd)
        yield from speak(server, cfd, case["s_bytes"], case["c_bytes"],
                         order != "client")

    def connect():
        yield ready
        fd = yield from client.socket(SOCK_STREAM)
        yield from client.connect(fd, (IP1, PORT))
        yield from speak(client, fd, case["c_bytes"], case["s_bytes"],
                         order != "server")

    net.run_all([serve(), connect()], until=BOUND)
    by_ip = {IP1: pa, IP2: pb}
    victim = by_ip[case["victim"]]
    peer = by_ip[IP2 if case["victim"] == IP1 else IP1]
    stacks = [pa._backend.stack, pb._backend.stack]
    victim_stack = victim._backend.stack
    fires = [0]
    notifier = victim_stack.select_notify
    fire = notifier.fire

    def counting_fire():
        fires[0] += 1
        fire()

    notifier.fire = counting_fire
    deadline = sim.now + 30_000_000
    while not victim_stack.time_wait_count() and sim.now < deadline:
        sim.run(until=sim.now + 100_000)
    observed = [_observe(sim, stacks, victim_stack, fires)]
    if victim_stack.time_wait_count():
        # From here on no pass of the victim's timer loop has output to
        # drain, so its passes keep one phase: find it at the next slow
        # pass, counted as the loop hands it to the tick pass.
        slow_passes = [0]
        tick_sessions = victim_stack._tick_sessions

        def counting_tick_sessions(slow):
            slow_passes[0] += slow
            return tick_sessions(slow)

        victim_stack._tick_sessions = counting_tick_sessions
        while not slow_passes[0]:
            sim.step()
        phase = sim.now
        last_ack = log.sent_by(case["victim"])[-1]
        vport, pport = last_ack.src_port, last_ack.dst_port

        def inject(seg):
            seg.src_port, seg.dst_port = pport, vport
            packet = ip.encapsulate(
                peer.host.ip, victim.host.ip, ip.PROTO_TCP,
                seg.pack(peer.host.ip, victim.host.ip))
            frame = ethernet.encapsulate(victim.host.mac, peer.host.mac,
                                         ethernet.ETHERTYPE_IP, packet)
            yield from peer.host.nic.start_transmit(frame)

        for delay, kind, param in case["script"]:
            if delay < 0:
                passes = (sim.now - delay - phase) // FAST_TICK_US + 1
                sim.run(until=phase + passes * FAST_TICK_US + delay)
            else:
                sim.run(until=sim.now + delay)
            sim.run_process(inject(_crafted(kind, param, last_ack.seq,
                                            last_ack.ack)))
            observed.append(_observe(sim, stacks, victim_stack, fires))
        # Every tick until 2MSL is surely over.
        start = (sim.now // FAST_TICK_US + 1) * FAST_TICK_US + 1.0
        for tick in range(int(2 * 4 * SLOW_TICK_US / FAST_TICK_US) + 4):
            sim.run(until=start + tick * FAST_TICK_US)
            observed.append(_observe(sim, stacks, victim_stack, fires))
    wire = [(t, src, _key(seg), seg.src_port, seg.dst_port, seg.payload)
            for t, src, seg in log.segments]
    return wire, observed


def _never_compact(session):
    return False


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=_cases())
def test_record_behaves_as_the_whole_session(case):
    """Drive a connection into TIME_WAIT (random close order, buffers,
    unread data, window scaling, loss, select), feed it random segments
    — FIN retransmission, RST, SYN, stray ACK, data, old and
    out-of-window segments — and run out 2MSL: the world with the
    record and the world that keeps the whole session (the reference)
    emit the same segments at the same times, and the victim host's
    state, port, select wakeups, netstat rows and CPU charges agree at
    every step."""
    with mock.patch("repro.net.tcp.conn._iss_source", itertools.count(1000)):
        with mock.patch.object(TimeWait, "fits",
                               staticmethod(_never_compact)):
            reference = _run_case(case)
    with mock.patch("repro.net.tcp.conn._iss_source", itertools.count(1000)):
        compact = _run_case(case)
    assert compact == reference


def test_syn_reusing_a_reaped_tuple_just_before_a_tick_is_reset_once():
    """A SYN reuses a reaped connection's 4-tuple just before a tick:
    the new connection answers once and the peer's RST ends it.  A
    reaped session still ticked would be reaped again on that tick and
    take the new connection's demux entry: the peer's RST would never
    reach the new one, which would go on retransmitting its SYN-ACK."""
    case = dict(placement="mach25", order="server", victim=IP1,
                tcp=dict(msl_ticks=1, mss=100, rcv_buf=300, snd_buf=1024,
                         window_scale=None),
                c_bytes=0, s_bytes=0, read=False, select=False, lose=False,
                script=[(0, "fin", 0), (-307, "syn", 0)])
    with mock.patch("repro.net.tcp.conn._iss_source", itertools.count(1000)):
        wire, _observed = _run_case(case)
    flags = [(src, key[0]) for _t, src, key, _sport, _dport, _data in wire]
    reuse = flags.index((IP2, SYN), 1)  # the crafted SYN, not the connect
    assert flags[reuse:] == [(IP2, SYN), (IP1, SYN | ACK), (IP2, RST)]
