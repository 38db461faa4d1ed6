"""The TCP connection machine, driven in lockstep over packed bytes.

Every exchanged segment is packed and re-parsed (checksums verified), so
these tests exercise the wire format together with the state machine.
"""

import random

import pytest

from repro.net.tcp import TCPConfig, TCPConnection, TCPState
from repro.net.tcp.header import ACK, FIN, RST, SYN, TCPSegment
from repro.net.tcp.tcb import (
    ConnectionRefused,
    ConnectionReset,
    ConnectionTimedOut,
    NotConnected,
    TCPError,
)
from repro.net.tcp.timers import TCPT_PERSIST, TCPT_REXMT

A_IP, B_IP = 0x0A000001, 0x0A000002


def make_pair(a_cfg=None, b_cfg=None, connect=True, pump_after=True):
    a = TCPConnection((A_IP, 1000), config=a_cfg or TCPConfig(nodelay=True,
                                                              delayed_ack=False))
    b = TCPConnection((B_IP, 2000), config=b_cfg or TCPConfig(nodelay=True,
                                                              delayed_ack=False))
    if connect:
        b.open_passive()
        a.open_active((B_IP, 2000))
        if pump_after:
            pump(a, b)
    return a, b


def pump(a, b, lose=None, rng=None, limit=500):
    """Shuttle packed segments until both outboxes are quiet."""
    moved_total = 0
    for _ in range(limit):
        moved = False
        for src, dst, sip, dip in ((a, b, A_IP, B_IP), (b, a, B_IP, A_IP)):
            for seg in src.take_output():
                moved = True
                moved_total += 1
                if lose and rng and rng.random() < lose:
                    continue
                packed = seg.pack(sip, dip)
                dst.segment_arrives(TCPSegment.unpack(sip, dip, packed))
        if not moved:
            return moved_total
    raise AssertionError("pump did not quiesce")


def tick(*conns):
    for conn in conns:
        conn.tick_slow()
        conn.tick_fast()


# ----------------------------------------------------------------------
# Establishment
# ----------------------------------------------------------------------

def test_three_way_handshake():
    a, b = make_pair(connect=False)
    b.open_passive()
    a.open_active((B_IP, 2000))
    segs = pump(a, b)
    assert a.state == TCPState.ESTABLISHED
    assert b.state == TCPState.ESTABLISHED
    assert segs == 3  # SYN, SYN|ACK, ACK


def test_mss_negotiation_takes_minimum():
    a, b = make_pair(
        a_cfg=TCPConfig(mss=1460, nodelay=True),
        b_cfg=TCPConfig(mss=536, nodelay=True),
    )
    assert a.effective_mss() == 536
    assert b.effective_mss() == 536


def test_syn_retransmission_on_loss():
    a, b = make_pair(connect=False)
    b.open_passive()
    a.open_active((B_IP, 2000))
    a.take_output()  # drop the SYN on the floor
    for _ in range(10):
        tick(a, b)
        pump(a, b)
        if a.state == TCPState.ESTABLISHED:
            break
    assert a.state == TCPState.ESTABLISHED
    assert a.stats.retransmits >= 1


def test_connection_refused_by_rst():
    a = TCPConnection((A_IP, 1000), config=TCPConfig(nodelay=True))
    a.open_active((B_IP, 7))
    (syn,) = a.take_output()
    # No listener: a closed endpoint answers with RST (rst_for semantics).
    closed = TCPConnection((B_IP, 7))
    closed.segment_arrives(syn)
    (rst,) = closed.take_output()
    assert rst.flags & RST
    a.segment_arrives(rst)
    assert a.state == TCPState.CLOSED
    with pytest.raises(ConnectionRefused):
        a.raise_if_dead()


def test_simultaneous_open():
    a = TCPConnection((A_IP, 1000), config=TCPConfig(nodelay=True))
    b = TCPConnection((B_IP, 2000), config=TCPConfig(nodelay=True))
    a.open_active((B_IP, 2000))
    b.open_active((A_IP, 1000))
    pump(a, b)
    assert a.state == TCPState.ESTABLISHED
    assert b.state == TCPState.ESTABLISHED


def test_send_before_established_raises():
    a = TCPConnection((A_IP, 1))
    a.open_active((B_IP, 2))
    with pytest.raises(NotConnected):
        a.send(b"too early")


def test_listener_ignores_rst_and_resets_ack():
    listener = TCPConnection((B_IP, 2000))
    listener.open_passive()
    listener.segment_arrives(TCPSegment(1000, 2000, flags=RST), src_ip=A_IP)
    assert listener.state == TCPState.LISTEN
    listener.segment_arrives(
        TCPSegment(1000, 2000, seq=5, ack=99, flags=ACK), src_ip=A_IP
    )
    (rst,) = listener.take_output()
    assert rst.flags & RST
    assert listener.state == TCPState.LISTEN


# ----------------------------------------------------------------------
# Data transfer
# ----------------------------------------------------------------------

def test_bulk_transfer_integrity():
    a, b = make_pair()
    payload = bytes(random.Random(7).randbytes(50000))
    sent = 0
    received = bytearray()
    while len(received) < len(payload):
        if sent < len(payload):
            sent += a.send(payload[sent:])
        pump(a, b)
        received += b.receive(1 << 20)
    assert bytes(received) == payload
    assert b.stats.bytes_received == len(payload)


def test_bidirectional_transfer():
    a, b = make_pair()
    a.send(b"ping from a")
    b.send(b"pong from b")
    pump(a, b)
    assert b.receive(100) == b"ping from a"
    assert a.receive(100) == b"pong from b"


def test_segments_respect_mss():
    a, b = make_pair(
        a_cfg=TCPConfig(mss=100, nodelay=True, delayed_ack=False),
        b_cfg=TCPConfig(mss=100, nodelay=True, delayed_ack=False),
    )
    a.send(b"z" * 1000)
    for _ in range(100):
        outs = a.take_output()
        if not outs:
            break
        for seg in outs:
            assert len(seg.payload) <= 100
            b.segment_arrives(
                TCPSegment.unpack(A_IP, B_IP, seg.pack(A_IP, B_IP))
            )
        for seg in b.take_output():
            a.segment_arrives(
                TCPSegment.unpack(B_IP, A_IP, seg.pack(B_IP, A_IP))
            )
    assert b.receive(2000) == b"z" * 1000


def test_receive_window_blocks_sender():
    small = TCPConfig(rcv_buf=2048, nodelay=True, delayed_ack=False)
    a, b = make_pair(b_cfg=small)
    a.send(b"w" * 10000)
    pump(a, b)
    # The receiver buffered at most its window; the rest waits unsent.
    assert len(b.rcv_buffer) <= 2048
    assert len(a.snd_buffer) > 0
    # Draining opens the window and lets the rest flow (window updates).
    received = bytearray(b.receive(1 << 20))
    for _ in range(50):
        pump(a, b)
        received += b.receive(1 << 20)
        if len(received) == 10000:
            break
    assert len(received) == 10000


def test_zero_window_persist_probe():
    small = TCPConfig(rcv_buf=1024, nodelay=True, delayed_ack=False)
    a, b = make_pair(b_cfg=small)
    a.send(b"p" * 5000)
    pump(a, b)
    assert a.snd_wnd == 0
    assert a.timer_armed(TCPT_PERSIST) or a.timer_armed(TCPT_REXMT)
    # Do NOT drain b; run the persist machinery for a while.
    for _ in range(30):
        tick(a, b)
        pump(a, b)
    # The probe kept the connection alive; now drain and finish.
    got = bytearray()
    for _ in range(200):
        got += b.receive(1 << 20)
        tick(a, b)
        pump(a, b)
        if len(got) == 5000:
            break
    assert len(got) == 5000


def test_nagle_holds_small_segment():
    cfg = TCPConfig(nodelay=False, delayed_ack=False)
    a, b = make_pair(a_cfg=cfg, b_cfg=cfg)
    a.send(b"first")
    (seg1,) = a.take_output()
    b.segment_arrives(TCPSegment.unpack(A_IP, B_IP, seg1.pack(A_IP, B_IP)))
    # Before the ACK returns, more small data queues but must NOT go out.
    a.send(b"second")
    assert a.take_output() == []
    for seg in b.take_output():
        a.segment_arrives(TCPSegment.unpack(B_IP, A_IP, seg.pack(B_IP, A_IP)))
    pump(a, b)
    assert b.receive(100) == b"firstsecond"


def test_pending_fin_sends_final_short_segment():
    # BSD tcp_output: Nagle does not hold the last segment once a FIN
    # waits behind it, so the close does not wait out the peer's
    # delayed ACK of the outstanding data.
    cfg = TCPConfig(nodelay=False, delayed_ack=False)
    a, b = make_pair(a_cfg=cfg, b_cfg=cfg)
    a.send(b"first")
    (seg1,) = a.take_output()
    a.send(b"last")
    assert a.take_output() == []  # Nagle holds it while "first" is out
    a.close()
    (seg2,) = a.take_output()
    assert seg2.payload == b"last"
    assert seg2.flags & FIN
    for seg in (seg1, seg2):
        b.segment_arrives(TCPSegment.unpack(A_IP, B_IP, seg.pack(A_IP, B_IP)))
    pump(a, b)
    assert b.receive(100) == b"firstlast"
    assert b.at_eof()


def test_nodelay_disables_nagle():
    a, b = make_pair()  # nodelay=True by default here
    a.send(b"one")
    a.take_output()
    a.send(b"two")
    assert len(a.take_output()) == 1  # sent despite outstanding data


def test_delayed_ack_accumulates():
    cfg = TCPConfig(nodelay=True, delayed_ack=True)
    a, b = make_pair(a_cfg=cfg, b_cfg=cfg)
    a.send(b"x")
    (seg,) = a.take_output()
    b.segment_arrives(TCPSegment.unpack(A_IP, B_IP, seg.pack(A_IP, B_IP)))
    assert b.take_output() == []  # ACK withheld
    assert b.delack_pending
    b.tick_fast()
    acks = b.take_output()
    assert len(acks) == 1 and acks[0].flags & ACK


def test_ack_every_second_segment():
    cfg = TCPConfig(nodelay=True, delayed_ack=True)
    a, b = make_pair(a_cfg=cfg, b_cfg=cfg)
    for payload in (b"one", b"two"):
        a.send(payload)
        for seg in a.take_output():
            b.segment_arrives(
                TCPSegment.unpack(A_IP, B_IP, seg.pack(A_IP, B_IP))
            )
    acks = b.take_output()
    assert len(acks) == 1  # the second segment forced the ACK out


def test_out_of_order_delivery_reassembles():
    a, b = make_pair(
        a_cfg=TCPConfig(mss=10, nodelay=True, delayed_ack=False),
        b_cfg=TCPConfig(mss=10, nodelay=True, delayed_ack=False),
    )
    a.cc.cwnd = 10000  # open the congestion window for a burst
    a.send(b"0123456789" * 3)
    segs = a.take_output()
    assert len(segs) >= 3
    reordered = [segs[1], segs[0]] + segs[2:]
    for seg in reordered:
        b.segment_arrives(TCPSegment.unpack(A_IP, B_IP, seg.pack(A_IP, B_IP)))
    assert b.receive(100) == b"0123456789" * 3
    assert b.stats.out_of_order >= 1


def test_duplicate_segment_ignored():
    a, b = make_pair()
    a.send(b"dupdata")
    (seg,) = a.take_output()
    packed = seg.pack(A_IP, B_IP)
    b.segment_arrives(TCPSegment.unpack(A_IP, B_IP, packed))
    b.segment_arrives(TCPSegment.unpack(A_IP, B_IP, packed))
    assert b.receive(100) == b"dupdata"
    assert b.stats.bad_segments >= 1  # the duplicate fell outside the window


def test_fast_retransmit_via_dup_acks():
    cfg = TCPConfig(mss=100, nodelay=True, delayed_ack=False)
    a, b = make_pair(a_cfg=cfg, b_cfg=TCPConfig(mss=100, nodelay=True,
                                                delayed_ack=False))
    # Open the congestion window first.
    for _ in range(6):
        a.send(b"c" * 100)
        pump(a, b)
        b.receive(1000)
    a.send(b"L" * 100)  # this one will be lost
    (lost,) = a.take_output()
    sent_more = []
    for _ in range(4):  # four following segments -> four dup ACKs
        a.send(b"F" * 100)
        sent_more += a.take_output()
    for seg in sent_more:
        b.segment_arrives(TCPSegment.unpack(A_IP, B_IP, seg.pack(A_IP, B_IP)))
    dups = b.take_output()
    assert len(dups) >= 3
    for seg in dups:
        a.segment_arrives(TCPSegment.unpack(B_IP, A_IP, seg.pack(B_IP, A_IP)))
    assert a.cc.fast_retransmits == 1
    assert a.has_output()
    retrans = a._outbox  # peek: the retransmission leads
    assert retrans[0].payload.startswith(b"L")
    pump(a, b)
    for _ in range(10):  # slow-start the tail back out
        tick(a, b)
        pump(a, b)
    # Stream completes correctly after recovery.
    expected = b"c" * 0 + b"L" * 100 + b"F" * 400
    got = b.receive(10000)
    assert got == expected


def test_retransmission_timeout_recovers_lost_data():
    rng = random.Random(11)
    a, b = make_pair()
    payload = bytes(rng.randbytes(30000))
    sent = 0
    received = bytearray()
    guard = 0
    while len(received) < len(payload):
        if sent < len(payload):
            sent += a.send(payload[sent:])
        pump(a, b, lose=0.2, rng=rng)
        chunk = b.receive(1 << 20)
        received += chunk
        if not chunk:
            tick(a, b)
            guard += 1
            assert guard < 3000, "transfer stuck"
    assert bytes(received) == payload
    assert a.stats.retransmits > 0


def test_retransmit_gives_up_after_max_shift():
    a, b = make_pair()
    a.send(b"into the void")
    a.take_output()  # lose it, and everything after
    for _ in range(3000):
        a.tick_slow()
        a.take_output()
        if a.state == TCPState.CLOSED:
            break
    assert a.state == TCPState.CLOSED
    with pytest.raises(ConnectionTimedOut):
        a.raise_if_dead()


def test_send_buffer_backpressure():
    cfg = TCPConfig(snd_buf=1000, nodelay=True, delayed_ack=False)
    a, b = make_pair(a_cfg=cfg)
    taken = a.send(b"B" * 5000)
    assert 0 < taken <= 1000 + 1460  # buffer plus what went straight out


# ----------------------------------------------------------------------
# Teardown
# ----------------------------------------------------------------------

def test_active_close_reaches_time_wait_then_closed():
    a, b = make_pair()
    a.close()
    pump(a, b)
    assert a.state == TCPState.FIN_WAIT_2
    assert b.state == TCPState.CLOSE_WAIT
    b.close()
    pump(a, b)
    assert a.state == TCPState.TIME_WAIT
    assert b.state == TCPState.CLOSED
    for _ in range(4 * a.config.msl_ticks):
        a.tick_slow()
    assert a.state == TCPState.CLOSED
    assert a.error is None  # clean close is not an error


def test_half_close_allows_reverse_data():
    a, b = make_pair()
    a.close()  # a -> b half closed
    pump(a, b)
    b.send(b"still flowing")
    pump(a, b)
    assert a.receive(100) == b"still flowing"
    assert a.at_eof() is False  # b has not closed yet
    b.close()
    pump(a, b)
    assert a.receive(100) == b""
    assert a.at_eof()


def test_fin_consumed_after_data():
    a, b = make_pair()
    a.send(b"last words")
    a.close()
    pump(a, b)
    assert b.receive(100) == b"last words"
    assert b.at_eof()


def test_simultaneous_close():
    a, b = make_pair()
    a.close()
    b.close()
    pump(a, b)
    assert a.state in (TCPState.CLOSING, TCPState.TIME_WAIT)
    for _ in range(4 * a.config.msl_ticks):
        tick(a, b)
        pump(a, b)
    assert a.state == TCPState.CLOSED
    assert b.state == TCPState.CLOSED


def test_close_is_idempotent():
    a, b = make_pair()
    a.close()
    a.close()
    pump(a, b)
    assert a.state == TCPState.FIN_WAIT_2


def test_fin_retransmitted_when_lost():
    a, b = make_pair()
    a.close()
    a.take_output()  # FIN lost
    for _ in range(20):
        tick(a, b)
        pump(a, b)
        if b.state == TCPState.CLOSE_WAIT:
            break
    assert b.state == TCPState.CLOSE_WAIT


def test_abort_sends_rst_peer_sees_reset():
    a, b = make_pair()
    a.send(b"doomed")
    pump(a, b)
    a.abort()
    pump(a, b)
    assert a.state == TCPState.CLOSED
    assert b.state == TCPState.CLOSED
    with pytest.raises(ConnectionReset):
        b.receive(10)


def test_send_after_close_raises():
    a, b = make_pair()
    a.close()
    pump(a, b)
    with pytest.raises(TCPError):
        a.send(b"too late")


def test_time_wait_acks_retransmitted_fin():
    a, b = make_pair()
    a.close()
    pump(a, b)
    b.close()
    # Capture b's FIN and deliver it twice.
    fins = [s for s in b.take_output() if s.flags & FIN]
    assert fins
    packed = fins[0].pack(B_IP, A_IP)
    a.segment_arrives(TCPSegment.unpack(B_IP, A_IP, packed))
    assert a.state == TCPState.TIME_WAIT
    a.take_output()
    a.segment_arrives(TCPSegment.unpack(B_IP, A_IP, packed))
    acks = a.take_output()
    assert acks and acks[0].flags & ACK  # duplicate FIN re-ACKed


# ----------------------------------------------------------------------
# Migration (Section 3.2)
# ----------------------------------------------------------------------

def test_migration_preserves_unacked_and_undelivered_data():
    a, b = make_pair()
    a.send(b"carried across")
    a.take_output()  # the segment is "lost" in flight during migration
    state = a.export_state()
    a2 = TCPConnection((0, 0))
    a2.import_state(state)
    # a's in-flight segment was never delivered; a2 must retransmit it.
    for _ in range(20):
        tick(a2, b)
        pump(a2, b)
        if b.receivable():
            break
    assert b.receive(100) == b"carried across"
    a2.send(b" and more")
    pump(a2, b)
    assert b.receive(100) == b" and more"


def test_migration_rejects_undrained_outbox():
    a, b = make_pair()
    a.send(b"pending")
    with pytest.raises(TCPError):
        a.export_state()  # outbox still holds the data segment


def test_migration_into_active_connection_rejected():
    a, b = make_pair()
    state = a.export_state()
    with pytest.raises(TCPError):
        b.import_state(state)


def test_migrated_receive_queue_travels():
    a, b = make_pair()
    a.send(b"buffered at receiver")
    pump(a, b)
    assert b.receivable() > 0
    state = b.export_state()
    b2 = TCPConnection((0, 0))
    b2.import_state(state)
    assert b2.receive(100) == b"buffered at receiver"
