"""TCP timers and round-trip-time estimation.

Constants and structure follow 4.3BSD: a coarse 500 ms "slow" timer drives
retransmission/persist/2MSL countdowns kept as tick counters in the TCB,
and a 200 ms "fast" timer drives delayed ACKs.  RTT estimation is
Jacobson's mean/deviation estimator (SIGCOMM '88), in tick units.
"""

#: Slow timeout granularity, microseconds (BSD PR_SLOWHZ = 2/sec).
SLOW_TICK_US = 500_000.0

#: Fast (delayed-ACK) timeout granularity (BSD PR_FASTHZ = 5/sec).
FAST_TICK_US = 200_000.0

#: Timer slots, as in BSD's t_timer[].
TCPT_REXMT = "rexmt"
TCPT_PERSIST = "persist"
TCPT_KEEP = "keep"
TCPT_2MSL = "2msl"

#: Bounds for the retransmit timer, in slow ticks.
TCPTV_MIN = 2  # 1 second
TCPTV_REXMTMAX = 128  # 64 seconds

#: Initial RTT when nothing is measured yet, in slow ticks (BSD: 3 s RTO).
TCPTV_SRTTBASE = 0
TCPTV_SRTTDFLT = 6  # 3 seconds

#: MSL for 2MSL (TIME_WAIT) handling, in slow ticks (BSD: 30 s).
TCPTV_MSL = 60

#: Keepalive idle time, in slow ticks (BSD: 2 hours).
TCPTV_KEEP_IDLE = 14400

#: Maximum consecutive retransmissions before the connection is dropped.
TCP_MAXRXTSHIFT = 12

#: Exponential backoff table (BSD tcp_backoff[]).
BACKOFF = [1, 2, 4, 8, 16, 32, 64, 64, 64, 64, 64, 64, 64]
_BACKOFF_MAX = len(BACKOFF) - 1


class RTTEstimator:
    """Jacobson/Karels smoothed RTT + deviation, in slow-tick units.

    Uses the BSD fixed-point scaling: ``srtt`` is stored * 8 and ``rttvar``
    * 4, so the shifts below match the classic code.
    """

    SRTT_SHIFT = 3
    RTTVAR_SHIFT = 2

    def __init__(self):
        self.srtt = TCPTV_SRTTBASE  # scaled by 8
        self.rttvar = TCPTV_SRTTDFLT * 2  # scaled by 4
        self.rxtshift = 0
        self.samples = 0
        self.last_rtt = 0  # most recent raw measurement, in slow ticks

    def update(self, rtt_ticks):
        """Fold in one RTT measurement (Karn's rule: callers must only
        measure un-retransmitted segments)."""
        self.samples += 1
        # Clamp: a zero-tick measurement would seed srtt/rttvar at 0 on
        # the first sample, wedging the estimator at non-positive values.
        rtt = max(1, int(rtt_ticks))
        self.last_rtt = rtt
        if self.srtt != 0:
            delta = rtt - 1 - (self.srtt >> self.SRTT_SHIFT)
            self.srtt += delta
            if self.srtt <= 0:
                self.srtt = 1
            if delta < 0:
                delta = -delta
            delta -= self.rttvar >> self.RTTVAR_SHIFT
            self.rttvar += delta
            if self.rttvar <= 0:
                self.rttvar = 1
        else:
            # First measurement: seed srtt and set rttvar to srtt/2.
            self.srtt = rtt << self.SRTT_SHIFT
            self.rttvar = rtt << (self.RTTVAR_SHIFT - 1)
        self.rxtshift = 0

    def rto_ticks(self):
        """Current retransmission timeout in slow ticks, with backoff."""
        if self.srtt == 0:
            base = TCPTV_SRTTDFLT
        else:
            # BSD's TCP_REXMTVAL: srtt/8 + rttvar.
            base = (self.srtt >> self.SRTT_SHIFT) + self.rttvar
        shift = self.rxtshift
        rto = base * BACKOFF[shift if shift < _BACKOFF_MAX else _BACKOFF_MAX]
        if rto > TCPTV_REXMTMAX:
            rto = TCPTV_REXMTMAX
        return rto if rto > TCPTV_MIN else TCPTV_MIN

    def backoff(self):
        """Record a retransmission; returns True if the connection should drop."""
        self.rxtshift += 1
        return self.rxtshift > TCP_MAXRXTSHIFT

    def snapshot(self):
        """Raw fixed-point state for telemetry (read-only)."""
        return {
            "srtt": self.srtt,
            "rttvar": self.rttvar,
            "rxtshift": self.rxtshift,
            "samples": self.samples,
            "last_rtt": self.last_rtt,
            "rto_ticks": self.rto_ticks(),
        }
