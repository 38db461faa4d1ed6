"""The TCP connection machine.

:class:`TCPConnection` is a complete, sans-I/O TCP endpoint.  The hosting
environment supplies segments (:meth:`segment_arrives`), drives the two
BSD-style timers (:meth:`tick_slow` every 500 ms, :meth:`tick_fast` every
200 ms of simulated time), performs user operations, and drains the
outbox of segments the machine wants transmitted.

Session migration (the heart of the paper's architecture) is
:meth:`export_state` / :meth:`import_state`: the complete protocol state —
sequence variables, windows, both data queues, timers, and congestion
state — moves between the OS server's address space and the
application's.
"""

from itertools import count as _counter

from repro.net.tcp import input as tcp_input
from repro.net.tcp import output as tcp_output
from repro.net.tcp.congestion import CongestionControl
from repro.net.tcp.header import MSS_ETHERNET
from repro.net.tcp.reassembly import ReassemblyQueue
from repro.net.tcp.seq import seq_diff
from repro.net.tcp.state import SEND_OK, TCPState, legal_transition
from repro.net.tcp.tcb import (
    ConnectionTimedOut,
    NotConnected,
    ReceiveBuffer,
    SendBuffer,
    TCPError,
)
from repro.net.tcp.timers import (
    RTTEstimator,
    TCPT_2MSL,
    TCPT_KEEP,
    TCPT_PERSIST,
    TCPT_REXMT,
    TCPTV_KEEP_IDLE,
    TCPTV_MSL,
)

#: Deterministic initial-sequence-number source (BSD stepped a global).
_iss_source = _counter(1000)


def _next_iss():
    return (next(_iss_source) * 64009) % (1 << 32)


class TCPConfig:
    """Tunables for one connection.

    ``window_scale`` requests RFC 1323 window scaling with the given
    shift (0-14); None disables the option entirely.  Scaling only takes
    effect when both endpoints request it, per the RFC.
    """

    __slots__ = ("mss", "snd_buf", "rcv_buf", "nodelay", "delayed_ack",
                 "msl_ticks", "window_scale", "keepalive",
                 "keepalive_idle_ticks", "keepalive_interval_ticks",
                 "keepalive_probes")

    def __init__(self, mss=MSS_ETHERNET, snd_buf=24 * 1024, rcv_buf=24 * 1024,
                 nodelay=False, delayed_ack=True, msl_ticks=TCPTV_MSL,
                 window_scale=None, keepalive=False,
                 keepalive_idle_ticks=TCPTV_KEEP_IDLE,
                 keepalive_interval_ticks=150, keepalive_probes=8):
        if mss < 1:
            raise ValueError("mss must be positive")
        if window_scale is not None and not 0 <= window_scale <= 14:
            raise ValueError("window_scale must be in 0..14")
        self.mss = mss
        self.snd_buf = snd_buf
        self.rcv_buf = rcv_buf
        self.nodelay = nodelay
        self.delayed_ack = delayed_ack
        self.msl_ticks = msl_ticks
        self.window_scale = window_scale
        #: SO_KEEPALIVE: probe an idle peer, drop it if it stays silent.
        self.keepalive = keepalive
        self.keepalive_idle_ticks = keepalive_idle_ticks
        self.keepalive_interval_ticks = keepalive_interval_ticks
        self.keepalive_probes = keepalive_probes


class TCPStats:
    """Per-connection counters."""

    __slots__ = ("segs_sent", "segs_received", "bytes_sent", "bytes_received",
                 "retransmits", "acks_sent", "dup_acks_received",
                 "out_of_order", "bad_segments")

    def __init__(self):
        self.segs_sent = 0
        self.segs_received = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        self.retransmits = 0
        self.acks_sent = 0
        self.dup_acks_received = 0
        self.out_of_order = 0
        self.bad_segments = 0


class TCPConnection:
    """One TCP endpoint.  See the module docstring for the driving model."""

    # A host holds every connection it closed for 2MSL (TIME_WAIT); an
    # instance dict of ~40 fields would be the largest thing those cost.
    __slots__ = (
        "config", "local", "remote", "name", "state",
        "iss", "snd_una", "snd_nxt", "snd_max", "snd_wnd", "snd_wl1",
        "snd_wl2", "snd_up", "irs", "rcv_nxt", "rcv_adv", "rcv_up",
        "urgent_valid", "snd_scale", "rcv_scale",
        "snd_buffer", "rcv_buffer", "reass",
        "fin_queued", "fin_sent", "fin_received",
        "timers", "_keep_probes_sent", "t_idle", "t_rtt", "rtt_seq", "rtt",
        "cc", "ack_now", "delack_pending", "peer_mss", "eff_mss", "error",
        "stats", "_outbox", "probe",
    )

    def __init__(self, local, remote=None, config=None, name=""):
        self.config = config or TCPConfig()
        self.local = local  # (ip, port)
        self.remote = remote  # (ip, port) or None until connected
        self.name = name
        self.state = TCPState.CLOSED

        # Send sequence space (RFC 793 names).
        self.iss = 0
        self.snd_una = 0
        self.snd_nxt = 0
        self.snd_max = 0  # highest snd_nxt ever (for retransmit logic)
        self.snd_wnd = 0
        self.snd_wl1 = 0
        self.snd_wl2 = 0
        self.snd_up = 0

        # Receive sequence space.
        self.irs = 0
        self.rcv_nxt = 0
        self.rcv_adv = 0  # highest window edge advertised
        self.rcv_up = 0
        self.urgent_valid = False

        # RFC 1323 window scaling (0 shift unless negotiated on the SYNs).
        self.snd_scale = 0  # applied to windows the peer advertises
        self.rcv_scale = 0  # applied to windows we advertise

        # Data queues.
        self.snd_buffer = SendBuffer(self.config.snd_buf)
        self.rcv_buffer = ReceiveBuffer(self.config.rcv_buf)
        self.reass = ReassemblyQueue()

        # Shutdown bookkeeping.
        self.fin_queued = False  # user called close(); FIN follows the data
        self.fin_sent = False
        self.fin_received = False

        # Timers: tick counters, 0 == disarmed.
        self.timers = {TCPT_REXMT: 0, TCPT_PERSIST: 0, TCPT_2MSL: 0,
                       TCPT_KEEP: 0}
        self._keep_probes_sent = 0
        self.t_idle = 0
        self.t_rtt = 0  # active RTT measurement counter (0 = not timing)
        self.rtt_seq = 0  # sequence number being timed
        self.rtt = RTTEstimator()
        self.cc = CongestionControl(self.config.mss)

        # Output control flags.
        self.ack_now = False
        self.delack_pending = False

        self.peer_mss = MSS_ETHERNET
        #: Cached min(config.mss, peer_mss); maintained whenever
        #: peer_mss changes (handshake, migration) so per-segment code
        #: reads an attribute instead of calling effective_mss().
        self.eff_mss = (self.config.mss if self.config.mss < MSS_ETHERNET
                        else MSS_ETHERNET)
        self.error = None  # a TCPError subclass instance once dead
        self.stats = TCPStats()
        self._outbox = []
        #: Telemetry hook (a :class:`repro.metrics.TCPProbe` when the
        #: world's metrics registry is enabled, else None).  Not part of
        #: migrated state: the adopting stack attaches its own probe.
        self.probe = None

    # ------------------------------------------------------------------
    # State handling
    # ------------------------------------------------------------------

    def set_state(self, new_state):
        if not legal_transition(self.state, new_state):
            raise TCPError(
                "illegal transition %s -> %s" % (self.state.name, new_state.name)
            )
        self.state = new_state

    @property
    def is_established(self):
        return self.state == TCPState.ESTABLISHED

    def flight_size(self):
        """Bytes currently in flight (snd_nxt - snd_una)."""
        return max(0, seq_diff(self.snd_nxt, self.snd_una))

    def effective_mss(self):
        return self.eff_mss

    def buffer_levels(self):
        """Socket-buffer occupancy for telemetry (read-only)."""
        return {
            "sndq": len(self.snd_buffer),
            "snd_space": self.snd_buffer.space(),
            "rcvq": len(self.rcv_buffer),
            "rcv_space": self.rcv_buffer.space(),
            "reass": len(self.reass),
        }

    # ------------------------------------------------------------------
    # User calls (OPEN / SEND / RECEIVE / CLOSE / ABORT)
    # ------------------------------------------------------------------

    def open_passive(self):
        if self.state != TCPState.CLOSED:
            raise TCPError("open on non-CLOSED connection")
        self.set_state(TCPState.LISTEN)

    def open_active(self, remote):
        if self.state != TCPState.CLOSED:
            raise TCPError("open on non-CLOSED connection")
        self.remote = remote
        self.iss = _next_iss()
        self.snd_una = self.iss
        self.snd_nxt = self.iss
        self.snd_max = self.iss
        self.snd_up = self.iss
        self.set_state(TCPState.SYN_SENT)
        tcp_output.tcp_output(self)

    def send(self, data):
        """Queue user data; returns bytes accepted (0 when buffer is full).

        The caller (socket layer) blocks and retries when 0 is returned
        and the user asked for blocking semantics.
        """
        self.raise_if_dead()
        if self.state not in SEND_OK:
            if self.state in (TCPState.SYN_SENT, TCPState.SYN_RECEIVED,
                              TCPState.LISTEN):
                raise NotConnected("send before connection established")
            raise TCPError("send after close")
        taken = self.snd_buffer.append(bytes(data))
        if taken:
            tcp_output.tcp_output(self)
        return taken

    def send_urgent(self, data):
        """Queue ``data`` with the last byte marked urgent (MSG_OOB).

        Follows BSD's SO_OOBINLINE semantics: the urgent data stays in
        the stream; the urgent pointer tells the receiver where it ends.
        The urgent pointer must be set *before* transmission so the URG
        flag rides the data segments.  Returns the bytes accepted.
        """
        from repro.net.tcp.seq import seq_add

        self.raise_if_dead()
        if self.state not in SEND_OK:
            raise NotConnected("urgent send on unconnected session")
        taken = self.snd_buffer.append(bytes(data))
        if taken:
            self.snd_up = seq_add(self.snd_una, len(self.snd_buffer))
            tcp_output.tcp_output(self, force=True)  # urgent data is pushed
        return taken

    def urgent_offset(self):
        """Bytes of normal data before the end of urgent data, or None.

        0 means the next unread byte is the last urgent byte's successor
        boundary; BSD's SIOCATMARK ioctl answers ``offset == 0``.
        """
        if not self.urgent_valid:
            return None
        from repro.net.tcp.seq import seq_add, seq_diff

        unread_start = seq_add(self.rcv_nxt, -len(self.rcv_buffer))
        offset = seq_diff(self.rcv_up, unread_start)
        if offset < 0:
            return None  # the mark was consumed
        return offset

    def receivable(self):
        """Bytes ready for the user right now."""
        return len(self.rcv_buffer)

    def at_eof(self):
        """True when the peer's FIN has been consumed (no more data ever)."""
        return self.fin_received and len(self.rcv_buffer) == 0

    def receive(self, max_bytes):
        """Take up to ``max_bytes`` of in-order data (may be empty)."""
        self.raise_if_dead()
        data = self.rcv_buffer.take(max_bytes)
        if data:
            tcp_output.window_update(self)
        return data

    def close(self):
        """User close: send FIN after queued data (half-close supported)."""
        self.raise_if_dead()
        if self.state == TCPState.CLOSED:
            return
        if self.state in (TCPState.LISTEN, TCPState.SYN_SENT):
            self._enter_closed(None)
            return
        if self.fin_queued:
            return  # close is idempotent
        self.fin_queued = True
        if self.state == TCPState.ESTABLISHED:
            self.set_state(TCPState.FIN_WAIT_1)
        elif self.state == TCPState.CLOSE_WAIT:
            self.set_state(TCPState.LAST_ACK)
        elif self.state == TCPState.SYN_RECEIVED:
            self.set_state(TCPState.FIN_WAIT_1)
        tcp_output.tcp_output(self)

    def abort(self):
        """User abort: RST the peer and drop everything."""
        if self.state in (TCPState.SYN_RECEIVED, TCPState.ESTABLISHED,
                          TCPState.FIN_WAIT_1, TCPState.FIN_WAIT_2,
                          TCPState.CLOSE_WAIT, TCPState.CLOSING,
                          TCPState.LAST_ACK):
            tcp_output.send_rst(self)
        self._enter_closed(None)

    def raise_if_dead(self):
        if self.error is not None:
            raise self.error

    def _enter_closed(self, error):
        self.state = TCPState.CLOSED  # terminal; always legal
        self.error = error
        for timer in self.timers:
            self.timers[timer] = 0

    # ------------------------------------------------------------------
    # Network input / output plumbing
    # ------------------------------------------------------------------

    def segment_arrives(self, segment, src_ip=None):
        """Process one arriving segment (already checksum-verified)."""
        self.stats.segs_received += 1
        # BSD zeroes t_idle on every arriving segment; without this, any
        # momentary fully-acked instant trips the idle-restart cwnd
        # collapse and bulk sends degrade to one segment per ACK.
        self.t_idle = 0
        tcp_input.segment_arrives(self, segment, src_ip)

    def take_output(self):
        """Drain segments the machine wants transmitted."""
        out, self._outbox = self._outbox, []
        return out

    def has_output(self):
        return bool(self._outbox)

    def emit(self, segment):
        """Queue a fully-formed segment for the environment to transmit."""
        self._outbox.append(segment)
        self.stats.segs_sent += 1
        self.stats.bytes_sent += len(segment.payload)

    def output(self, force=False):
        """Ask the send side to transmit whatever it legally can."""
        tcp_output.tcp_output(self, force=force)

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------

    def tick_fast(self):
        """200 ms tick: flush delayed ACKs."""
        if self.delack_pending:
            self.delack_pending = False
            self.ack_now = True
            tcp_output.tcp_output(self)

    def tick_slow(self):
        """500 ms tick: countdown timers, idle time, RTT measurement."""
        if self.state == TCPState.CLOSED:
            return
        self.t_idle += 1
        if self.t_rtt:
            self.t_rtt += 1
        if (
            self.config.keepalive
            and self.state == TCPState.ESTABLISHED
            and not self.timer_armed(TCPT_KEEP)
            and self.t_idle >= self.config.keepalive_idle_ticks
        ):
            self._timer_fired(TCPT_KEEP)
        for name in (TCPT_REXMT, TCPT_PERSIST, TCPT_2MSL, TCPT_KEEP):
            if self.timers[name] > 0:
                self.timers[name] -= 1
                if self.timers[name] == 0:
                    self._timer_fired(name)
                    if self.state == TCPState.CLOSED:
                        return

    def _timer_fired(self, name):
        if name == TCPT_REXMT:
            tcp_output.retransmit_timeout(self)
        elif name == TCPT_PERSIST:
            tcp_output.persist_timeout(self)
        elif name == TCPT_2MSL:
            self._enter_closed(None)
        elif name == TCPT_KEEP:
            self._keepalive_fired()

    def _keepalive_fired(self):
        """Send a keepalive probe, or give up on a silent peer.

        Any arriving segment zeroes ``t_idle``; a peer that answers the
        probe therefore also resets the probe counter below.
        """
        if self.t_idle < self.config.keepalive_idle_ticks:
            self._keep_probes_sent = 0
            return  # traffic resumed; re-arm from the idle check
        if self._keep_probes_sent >= self.config.keepalive_probes:
            self._enter_closed(ConnectionTimedOut("keepalive: peer silent"))
            return
        self._keep_probes_sent += 1
        tcp_output.send_keepalive_probe(self)
        self.start_timer(TCPT_KEEP, self.config.keepalive_interval_ticks)

    def start_timer(self, name, ticks):
        self.timers[name] = max(1, int(ticks))

    def stop_timer(self, name):
        self.timers[name] = 0

    def timer_armed(self, name):
        return self.timers[name] > 0

    # ------------------------------------------------------------------
    # Session migration (Section 3.2 of the paper)
    # ------------------------------------------------------------------

    #: Scalar TCB fields that migrate verbatim.
    _MIGRATED_FIELDS = (
        "iss", "snd_una", "snd_nxt", "snd_max", "snd_wnd", "snd_wl1",
        "snd_wl2", "snd_up", "irs", "rcv_nxt", "rcv_adv", "rcv_up",
        "urgent_valid", "fin_queued", "fin_sent", "fin_received",
        "t_idle", "t_rtt", "rtt_seq", "ack_now", "delack_pending",
        "peer_mss", "snd_scale", "rcv_scale",
    )

    def export_state(self):
        """Serialize the complete protocol state for migration.

        The paper migrates "a local endpoint, a remote endpoint, the
        connection state variables, and a packet filter port"; this is the
        connection-state-variables part, including any unacknowledged or
        undelivered data on the send and receive queues.
        """
        if self._outbox:
            raise TCPError("cannot migrate with undrained output")
        state = {name: getattr(self, name) for name in self._MIGRATED_FIELDS}
        state["state"] = self.state.value
        state["local"] = self.local
        state["remote"] = self.remote
        state["snd_buffer"] = self.snd_buffer.snapshot()
        state["rcv_buffer"] = self.rcv_buffer.snapshot()
        state["timers"] = dict(self.timers)
        state["rtt"] = (self.rtt.srtt, self.rtt.rttvar, self.rtt.rxtshift,
                        self.rtt.samples)
        state["cc"] = (self.cc.cwnd, self.cc.ssthresh)
        state["reass"] = [(seq, bytes(data)) for seq, data in self.reass._segments]
        return state

    def import_state(self, state):
        """Adopt a migrated session's state (the receiving side)."""
        if self.state != TCPState.CLOSED:
            raise TCPError("import into non-CLOSED connection")
        for name in self._MIGRATED_FIELDS:
            setattr(self, name, state[name])
        mss = self.config.mss
        self.eff_mss = mss if mss < self.peer_mss else self.peer_mss
        self.state = TCPState(state["state"])
        self.local = state["local"]
        self.remote = state["remote"]
        self.snd_buffer.restore(state["snd_buffer"])
        self.rcv_buffer.restore(state["rcv_buffer"])
        self.timers = dict(state["timers"])
        self.rtt.srtt, self.rtt.rttvar, self.rtt.rxtshift, self.rtt.samples = (
            state["rtt"]
        )
        self.cc.cwnd, self.cc.ssthresh = state["cc"]
        self.cc.max_window = 0xFFFF << self.snd_scale
        self.reass._segments = [
            [seq, bytearray(data)] for seq, data in state["reass"]
        ]
        self.reass.used = sum(len(data) for _seq, data in state["reass"])

    def __repr__(self):
        return "<TCPConnection %s %s:%d %s>" % (
            self.name or "",
            *self.local,
            self.state.name,
        )
