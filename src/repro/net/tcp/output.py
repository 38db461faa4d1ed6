"""TCP send-side processing (the BSD ``tcp_output`` and timer actions).

All functions operate on a :class:`~repro.net.tcp.conn.TCPConnection`
(imported lazily by that module to avoid a cycle) and queue outgoing
segments on its outbox.
"""

from repro.net.tcp.header import ACK, FIN, PSH, RST, SYN, URG, TCPSegment
from repro.net.tcp.seq import (
    MOD,
    _HALF,
    seq_add,
    seq_diff,
    seq_gt,
    seq_lt,
    seq_max,
)
from repro.net.tcp.state import SYNCHRONIZED, TCPState
from repro.net.tcp.tcb import ConnectionTimedOut
from repro.net.tcp.timers import TCPT_PERSIST, TCPT_REXMT

#: Cap every advertised window at the 16-bit field.
MAX_WINDOW = 65535

#: Persist-probe backoff bounds, in slow ticks (BSD TCPTV_PERSMIN/MAX).
PERSIST_MIN = 10
PERSIST_MAX = 120


def receiver_window(conn):
    """The window to advertise: receive-buffer space with receiver-side
    silly-window avoidance, never reneging on what was already offered.

    Returns the *actual* window in bytes; with RFC 1323 scaling in effect
    it is rounded down to the scale granularity and capped at the scaled
    16-bit maximum."""
    # Inline of rcv_buffer.space() - len(reass) and the seq_diff/min/max
    # cascade — this runs for every segment built.
    buf = conn.rcv_buffer
    free = buf.hiwat - buf.used
    space = (free if free > 0 else 0) - conn.reass.used
    if space < buf.hiwat // 4 and space < conn.eff_mss:
        space = 0  # silly window avoidance (receiver side)
    cap = MAX_WINDOW << conn.rcv_scale
    if space > cap:
        space = cap
    elif space < 0:
        space = 0
    space = (space >> conn.rcv_scale) << conn.rcv_scale
    already_offered = (conn.rcv_adv - conn.rcv_nxt) % MOD
    if already_offered >= _HALF:  # rcv_adv behind rcv_nxt: nothing extra
        return space
    return space if space >= already_offered else already_offered


def _make_segment(conn, seq, flags, payload=b"", mss_option=None,
                  wscale_option=None):
    window = receiver_window(conn)
    # RFC 1323: the window field of a SYN is never scaled.
    field = window if flags & SYN else window >> conn.rcv_scale
    if field > MAX_WINDOW:
        field = MAX_WINDOW
    segment = TCPSegment(
        src_port=conn.local[1],
        dst_port=conn.remote[1],
        seq=seq,
        ack=conn.rcv_nxt if flags & ACK else 0,
        flags=flags,
        window=field,
        payload=payload,
        mss_option=mss_option,
        wscale_option=wscale_option,
    )
    # rcv_adv = seq_max(rcv_adv, rcv_nxt + window), inlined.
    offered = (conn.rcv_nxt + window) % MOD
    if (conn.rcv_adv - offered) % MOD >= _HALF:
        conn.rcv_adv = offered
    conn.ack_now = False
    conn.delack_pending = False
    if flags & ACK:
        conn.stats.acks_sent += 1
    conn.emit(segment)
    return segment


def tcp_output(conn, force=False):
    """Send whatever the connection legally can right now.

    Mirrors the decision structure of BSD's tcp_output: data-bearing
    segments governed by the send window, congestion window, and Nagle;
    then window updates; then bare ACKs; looping while a full-size segment
    went out ("sendalot").
    """
    if conn.state in (TCPState.CLOSED, TCPState.LISTEN):
        return

    # Connection-establishment segments.
    if conn.state == TCPState.SYN_SENT:
        if conn.snd_nxt == conn.iss:
            _send_syn(conn, ACK if conn.irs else 0)
        return
    if conn.state == TCPState.SYN_RECEIVED:
        if conn.snd_nxt == conn.iss:
            _send_syn(conn, ACK)
        elif conn.ack_now:
            # E.g. answering the peer's SYN|ACK in a simultaneous open.
            _make_segment(conn, conn.snd_nxt, ACK)
        return

    idle = conn.snd_una == conn.snd_max
    if idle and conn.t_idle >= conn.rtt.rto_ticks():
        # Slow-start restart after an idle period (Jacobson).
        conn.cc.cwnd = conn.eff_mss

    sendalot = True
    while sendalot:
        sendalot = False
        mss = conn.eff_mss
        # off = max(0, seq_diff(snd_nxt, snd_una)), inlined.
        off = (conn.snd_nxt - conn.snd_una) % MOD
        if off >= _HALF:
            off = 0
        # win = cc.window(snd_wnd) = min(snd_wnd, cwnd), inlined.
        win = conn.snd_wnd
        cwnd = conn.cc.cwnd
        if cwnd < win:
            win = cwnd
        if force and win == 0:
            win = 1  # window probe: force out one byte
        buffered = conn.snd_buffer.used
        # length = max(0, min(buffered - off, win - off, mss)), inlined.
        length = buffered - off
        winoff = win - off
        if winoff < length:
            length = winoff
        if mss < length:
            length = mss
        if length < 0:
            length = 0

        fin_here = (
            conn.fin_queued
            and off + length == buffered
            and not (conn.fin_sent and conn.snd_nxt == conn.snd_max)
        )

        send_data = False
        if length > 0:
            if length == mss:
                send_data = True
            elif idle or conn.config.nodelay:
                send_data = True  # Nagle passes: nothing outstanding
            elif force:
                send_data = True
            elif seq_lt(conn.snd_nxt, conn.snd_max):
                send_data = True  # retransmission of previously sent data
            elif length >= conn.snd_wnd // 2 and conn.snd_wnd > 0:
                send_data = True  # half the peer's window — worth sending

        send_fin = fin_here and (length > 0 or off == buffered)
        if send_fin:
            # BSD: a pending FIN goes out with the final segment, however
            # short; Nagle holds neither a bare FIN nor the data before it.
            send_data = True

        window_update_due = _window_update_due(conn)

        if send_data:
            _send_data_segment(conn, off, length, send_fin)
            if length == mss and off + length < buffered:
                sendalot = True
            continue

        if conn.ack_now or window_update_due:
            _make_segment(conn, conn.snd_nxt, ACK)
            return

        # Nothing sent: arm the persist timer if data waits on zero window.
        if (
            buffered - off > 0
            and conn.snd_wnd == 0
            and not conn.timer_armed(TCPT_REXMT)
            and not conn.timer_armed(TCPT_PERSIST)
        ):
            conn.rtt.rxtshift = 0
            _start_persist(conn)
        return


def _window_update_due(conn):
    """BSD: send a window update if it opens by 2 segments or half a buffer.

    The candidate window is capped at the 16-bit field before comparing
    against what was advertised; otherwise buffers larger than 64 KB make
    every arriving segment look like a huge window opening and the
    receiver ACKs every packet.
    """
    if conn.state not in SYNCHRONIZED:
        return False
    max_window = MAX_WINDOW << conn.rcv_scale
    buf = conn.rcv_buffer
    free = buf.hiwat - buf.used
    new_window = (free if free > 0 else 0) - conn.reass.used
    if new_window > max_window:
        new_window = max_window
    # advertised = seq_diff(rcv_adv, rcv_nxt), inlined (signed).
    advertised = (conn.rcv_adv - conn.rcv_nxt) % MOD
    if advertised >= _HALF:
        advertised -= MOD
    gain = new_window - advertised
    if gain <= 0:
        return False
    if gain >= 2 * conn.eff_mss:
        return True
    hiwat = buf.hiwat
    return gain >= (hiwat if hiwat < max_window else max_window) // 2


def _send_syn(conn, extra_flags):
    segment = _make_segment(
        conn,
        conn.iss,
        SYN | extra_flags,
        mss_option=conn.config.mss,
        wscale_option=conn.config.window_scale,
    )
    conn.snd_nxt = seq_add(conn.iss, 1)
    conn.snd_max = seq_max(conn.snd_max, conn.snd_nxt)
    if conn.t_rtt == 0:
        conn.t_rtt = 1
        conn.rtt_seq = conn.iss
    conn.start_timer(TCPT_REXMT, conn.rtt.rto_ticks())
    return segment


def _send_data_segment(conn, off, length, include_fin):
    payload = conn.snd_buffer.slice_from(off, length)
    flags = ACK
    if include_fin:
        flags |= FIN
    if length and off + length == conn.snd_buffer.used:
        flags |= PSH
    urgent = 0
    if seq_lt(conn.snd_nxt, conn.snd_up):
        # Urgent data lies ahead: point at its end (RFC 793 URG).
        flags |= URG
        urgent = min(seq_diff(conn.snd_up, conn.snd_nxt), 0xFFFF)
    retransmitting = seq_lt(conn.snd_nxt, conn.snd_max)
    segment = _make_segment(conn, conn.snd_nxt, flags, payload=payload)
    segment.urgent = urgent
    if retransmitting:
        conn.stats.retransmits += 1

    advance = length + (1 if include_fin else 0)
    if include_fin:
        conn.fin_sent = True
    old_nxt = conn.snd_nxt
    conn.snd_nxt = seq_add(conn.snd_nxt, advance)
    if seq_gt(conn.snd_nxt, conn.snd_max):
        conn.snd_max = conn.snd_nxt
        # Time this transmission if nothing is being timed (Karn's rule is
        # honoured because retransmissions never start a measurement).
        if conn.t_rtt == 0:
            conn.t_rtt = 1
            conn.rtt_seq = old_nxt
    if not conn.timer_armed(TCPT_REXMT) and conn.snd_nxt != conn.snd_una:
        conn.stop_timer(TCPT_PERSIST)
        conn.start_timer(TCPT_REXMT, conn.rtt.rto_ticks())


def _start_persist(conn):
    ticks = conn.rtt.rto_ticks()
    conn.start_timer(TCPT_PERSIST, min(max(ticks, PERSIST_MIN), PERSIST_MAX))


def _probe(conn, event):
    """Telemetry hook: fire the connection's tcp_probe, if attached."""
    probe = conn.probe
    if probe is not None:
        probe(event)


def retransmit_timeout(conn):
    """The REXMT timer fired: back off and go back to snd_una."""
    if conn.rtt.backoff():
        conn._enter_closed(ConnectionTimedOut("too many retransmissions"))
        return
    conn.cc.on_timeout(conn.flight_size())
    conn.t_rtt = 0  # Karn: abandon any in-progress measurement
    conn.snd_nxt = conn.snd_una
    if conn.state in (TCPState.SYN_SENT, TCPState.SYN_RECEIVED):
        # Re-send the SYN: _send_syn keys off snd_nxt == iss.
        conn.stats.retransmits += 1
        conn.start_timer(TCPT_REXMT, conn.rtt.rto_ticks())
        _send_syn(conn, ACK if conn.state == TCPState.SYN_RECEIVED else 0)
        _probe(conn, "timeout")
        return
    conn.start_timer(TCPT_REXMT, conn.rtt.rto_ticks())
    tcp_output(conn, force=True)
    _probe(conn, "timeout")


def persist_timeout(conn):
    """The persist timer fired: probe the zero window with one byte."""
    conn.rtt.rxtshift = min(conn.rtt.rxtshift + 1, 12)
    tcp_output(conn, force=True)
    _probe(conn, "persist")
    if (
        len(conn.snd_buffer) - max(0, seq_diff(conn.snd_nxt, conn.snd_una)) > 0
        and conn.snd_wnd == 0
    ):
        _start_persist(conn)


def window_update(conn):
    """The user drained the receive buffer; advertise the opening if big."""
    if conn.state not in SYNCHRONIZED:
        return
    if _window_update_due(conn):
        _make_segment(conn, conn.snd_nxt, ACK)


def send_keepalive_probe(conn):
    """The classic keepalive probe: an ACK sequenced one byte *before*
    snd_una, which a live peer must answer with a corrective ACK."""
    from repro.net.tcp.seq import seq_add

    _make_segment(conn, seq_add(conn.snd_una, -1), ACK)


def send_rst(conn):
    """Send a RST from a synchronized connection (user abort)."""
    _make_segment(conn, conn.snd_nxt, RST | ACK)


def rst_for(segment):
    """Build the RST reply to a segment that reached no live connection.

    RFC 793: if the offending segment had an ACK, the RST carries that
    ACK's sequence number; otherwise it ACKs the segment's contents.
    """
    if segment.flags & RST:
        return None  # never reset a reset
    if segment.flags & ACK:
        return TCPSegment(
            src_port=segment.dst_port,
            dst_port=segment.src_port,
            seq=segment.ack,
            flags=RST,
        )
    return TCPSegment(
        src_port=segment.dst_port,
        dst_port=segment.src_port,
        seq=0,
        ack=seq_add(segment.seq, segment.wire_len),
        flags=RST | ACK,
    )
