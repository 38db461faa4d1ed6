"""The compact form of a closed connection waiting out 2MSL.

A host keeps every connection it closed for 2MSL (TIME_WAIT).  Kept
whole, one connection end is a ``TCPSession`` and a ``TCPConnection``
with both socket buffers, a reassembly queue, RTT, congestion, stats and
config objects and a notifier: ~2.6 KB.  What TIME_WAIT still reads fits
in a :class:`TimeWait` record of ~0.5 KB — the move FreeBSD's ``tcptw``
and Linux's ``inet_timewait_sock`` made.  The stack swaps one for the
other (:meth:`repro.stack.engine.NetworkStack._compact`).
"""

from repro.net.tcp import TCPConfig, TCPConnection, TCPState
from repro.net.tcp.timers import TCPT_2MSL, TCPT_KEEP, TCPT_PERSIST, TCPT_REXMT


class TimeWait:
    """A closed connection in TIME_WAIT, as what the rest of TIME_WAIT
    reads:

    * a segment that reaches it (a retransmitted FIN, an RST, a SYN, a
      stray ACK): :meth:`connection` rebuilds the whole connection, the
      way ``import_state`` rebuilds a migrated one, the stack's one TCP
      input runs on it, and :meth:`capture` takes the result back;
    * the 2MSL countdown (``ticks``; 0 once expired, i.e. CLOSED until
      the next timer pass reaps it) and the port that reap gives back;
    * the select flag a wakeup reads, and the netstat row (state,
      retransmits, cwnd, ssthresh, srtt and the buffer levels).

    Send-side sequence space is one number (TIME_WAIT has nothing
    unacknowledged), the unread receive data only its length (no one
    reads it any more), and every timer but 2MSL is idle: a connection
    holding more — see :meth:`fits` — stays whole.  ``live`` is the
    session rebuilt from the record while it takes a segment.
    """

    __slots__ = ("lport", "rip", "rport", "ticks", "msl_ticks", "snd_nxt",
                 "rcv_nxt", "rcv_adv", "rcv_scale", "rcv_hiwat", "rcvq",
                 "snd_hiwat", "retransmits", "cwnd", "ssthresh", "srtt",
                 "owns_port", "selected", "live")

    def __init__(self, session):
        self.lport = session.local[1]
        self.rip, self.rport = session.remote
        self.capture(session)

    @staticmethod
    def fits(session):
        """Whether a TIME_WAIT ``session`` can become a record: its owner
        closed it, and it holds nothing the record drops."""
        conn = session.conn
        timers = conn.timers
        return (session.closed and conn.probe is None
                and not (conn._outbox or conn.ack_now or conn.delack_pending
                         or conn.t_rtt or conn.snd_buffer.used
                         or conn.reass.used or timers[TCPT_REXMT]
                         or timers[TCPT_PERSIST] or timers[TCPT_KEEP])
                and conn.snd_una == conn.snd_nxt == conn.snd_max)

    def capture(self, session):
        """Take the state of ``session`` (which :meth:`fits`)."""
        conn = session.conn
        self.ticks = conn.timers[TCPT_2MSL]
        self.msl_ticks = conn.config.msl_ticks
        self.snd_nxt = conn.snd_nxt
        self.rcv_nxt = conn.rcv_nxt
        self.rcv_adv = conn.rcv_adv
        self.rcv_scale = conn.rcv_scale
        self.rcv_hiwat = conn.rcv_buffer.hiwat
        self.rcvq = conn.rcv_buffer.used
        self.snd_hiwat = conn.snd_buffer.hiwat
        self.retransmits = conn.stats.retransmits
        self.cwnd = conn.cc.cwnd
        self.ssthresh = conn.cc.ssthresh
        self.srtt = conn.rtt.srtt
        self.owns_port = session.owns_port
        self.selected = session.selected
        self.live = None

    @property
    def state(self):
        if self.live is not None:
            return self.live.conn.state
        return TCPState.TIME_WAIT if self.ticks else TCPState.CLOSED

    def connection(self, local_ip):
        """The whole connection this record stands for."""
        seq = self.snd_nxt
        local = (local_ip, self.lport)
        # The MSS is not kept: TIME_WAIT sends no data, and its window
        # never drops below what rcv_adv already offered (nothing is read
        # or received any more), so the MSS moves a window only if it is
        # smaller than the connection's was — the largest never does.
        conn = TCPConnection(local, config=TCPConfig(
            mss=0xFFFF, snd_buf=self.snd_hiwat, rcv_buf=self.rcv_hiwat,
            msl_ticks=self.msl_ticks))
        tcb = dict.fromkeys(TCPConnection._MIGRATED_FIELDS, 0)
        tcb.update(
            snd_una=seq, snd_nxt=seq, snd_max=seq, rcv_nxt=self.rcv_nxt,
            rcv_adv=self.rcv_adv, rcv_scale=self.rcv_scale,
            peer_mss=0xFFFF, urgent_valid=False, fin_queued=True,
            fin_sent=True, fin_received=True, ack_now=False,
            delack_pending=False, state=self.state.value, local=local,
            remote=(self.rip, self.rport), snd_buffer=b"",
            rcv_buffer=bytes(self.rcvq), reass=[],
            timers={TCPT_REXMT: 0, TCPT_PERSIST: 0, TCPT_2MSL: self.ticks,
                    TCPT_KEEP: 0},
            rtt=(self.srtt, 0, 0, 0), cc=(self.cwnd, self.ssthresh))
        conn.import_state(tcb)
        conn.stats.retransmits = self.retransmits
        return conn

    def buffer_levels(self):
        """``TCPConnection.buffer_levels`` of the connection it was."""
        free = self.rcv_hiwat - self.rcvq
        return {"sndq": 0, "snd_space": self.snd_hiwat, "rcvq": self.rcvq,
                "rcv_space": free if free > 0 else 0, "reass": 0}

    def __repr__(self):
        return "<TimeWait :%d %d ticks>" % (self.lport, self.ticks)
