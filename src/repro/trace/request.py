"""Request-scoped tracing: group packet spans under workload requests.

PR 2's :class:`~repro.trace.recorder.TraceRecorder` knows packets; the
tail study (:mod:`repro.analysis.tailstudy`) knows *requests* — one
open-loop RPC that fans out to ``fanout`` servers and completes when the
last reply lands.  This module is the join: a :class:`RequestTracer`
rides on the recorder (selective mode, see
:meth:`TraceRecorder.attach_requests`), decides per request id whether
to trace it (deterministic head-based sampling), stamps the issuing
client process so every packet trace born while a sampled request is in
flight binds to it, and keeps one :class:`RequestRecord` per sampled
request with the exact send/complete ticks the workload tracker sees.

Sampling is **head-based and seed-stable**: whether request ``r`` is
traced depends only on ``(r, seed, sample_every)`` through a fixed
integer mix — never on Python's hash randomization, dict order, or
anything discovered later in the request's life.  Same seed, same
sampled ids, same attribution JSON; that is the determinism contract
:mod:`repro.analysis.forensics` builds on.

The tracer is **bit-passive**: it writes attributes and appends to
plain dicts/lists, schedules no events, charges no CPU, and draws no
randomness — attaching one must leave world fingerprints and benchmark
output byte-identical.
"""


#: Bits reserved for the within-role discriminator in deterministic
#: trace ids: role 0 (client send) uses the request's send index, role 1
#: (server reply) the replying host's index.  12 bits cover any fanout
#: or host count the studies run.
TID_IDX_BITS = 12
TID_IDX_MASK = (1 << TID_IDX_BITS) - 1


def _host_index(host):
    """A stable small integer identifying ``host`` ("h003" -> 3).

    Workload hosts are named ``h%03d``; concatenating the digits
    recovers the index.  Digit-less names (canned two-host worlds,
    which never drive a real request workload) fall back to a byte sum
    — stable, though not collision-free.
    """
    digits = "".join(ch for ch in host if ch.isdigit())
    if digits:
        return int(digits) & TID_IDX_MASK
    return sum(host.encode()) & TID_IDX_MASK


def _mix(req_id, seed):
    """A fixed 32-bit integer mix of (request id, seed).

    Pure integer arithmetic — stable across Python versions and runs,
    unlike ``hash()``.  Constants are the usual Knuth/Murmur finalizer
    multipliers; quality only needs to be good enough that 1-in-N
    sampling is not correlated with the arithmetic structure of the
    request-id encoding (client*1e6 + seq).
    """
    x = (req_id * 0x9E3779B1 + seed * 0x85EBCA6B + 0x165667B1) & 0xFFFFFFFF
    x ^= x >> 16
    x = (x * 0x045D9F3B) & 0xFFFFFFFF
    x ^= x >> 16
    return x


class RequestRecord:
    """Life of one sampled request: ticks, fan-in state, bound traces."""

    __slots__ = ("req_id", "client", "fanout", "t0", "t1",
                 "outstanding", "tids")

    def __init__(self, req_id, client, fanout, t0):
        self.req_id = req_id
        self.client = client
        self.fanout = fanout
        self.t0 = t0          # tick the client issued the request
        self.t1 = None        # tick the last reply landed (None: censored)
        self.outstanding = fanout
        self.tids = []        # packet trace ids bound to this request

    @property
    def completed(self):
        return self.t1 is not None

    @property
    def latency_us(self):
        return None if self.t1 is None else self.t1 - self.t0

    def __repr__(self):
        return ("RequestRecord(req=%d, client=%d, fanout=%d, t0=%.3f, "
                "t1=%r, traces=%d)" % (
                    self.req_id, self.client, self.fanout, self.t0,
                    self.t1, len(self.tids)))


class RequestTracer:
    """Samples request ids and binds packet traces to them.

    Construction attaches ``self`` to the recorder (entering selective
    mode); detach with ``tracer.attach_requests(None)``.  The workload
    driver calls :meth:`observe_sent` / :meth:`end_send` around a
    request's send burst and :meth:`observe_reply` per reply; the
    recorder calls :meth:`route` / :meth:`bind` from
    :meth:`~repro.trace.recorder.TraceRecorder.begin`.
    """

    def __init__(self, tracer, sample_every=16, seed=0):
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1, got %r"
                             % (sample_every,))
        self.tracer = tracer
        self._sim = tracer._sim
        self.sample_every = sample_every
        self.seed = seed
        self.records = {}     # req_id -> RequestRecord
        self.tid_to_req = {}  # packet trace id -> req_id
        self.requests_seen = 0
        self.requests_sampled = 0
        self._send_births = {}  # req_id -> send traces begun so far
        tracer.attach_requests(self)

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------

    def sampled(self, req_id):
        """Deterministic head-based decision: trace this request?"""
        return _mix(req_id, self.seed) % self.sample_every == 0

    # ------------------------------------------------------------------
    # Workload-driver hooks
    # ------------------------------------------------------------------

    def observe_sent(self, req_id, fanout, client=None):
        """A client is about to issue ``req_id`` to ``fanout`` servers.

        Called with the issuing client process running, *before* its
        sends: when the id is sampled the process is stamped with
        ``request_ctx`` so the traces its sends begin (one per target)
        all bind here.  Returns True when sampled.
        """
        if not self.sampled(req_id):
            self.requests_seen += 1
            return False
        self.requests_seen += 1
        self.requests_sampled += 1
        if client is None:
            client = req_id // 1_000_000
        self.records[req_id] = RequestRecord(
            req_id, client, fanout, self._sim.now)
        proc = self._sim.current
        if proc is not None:
            proc.request_ctx = req_id
        return True

    def end_send(self):
        """The send burst is over: clear the client's request stamp so
        the *next* request (possibly unsampled) starts clean."""
        proc = self._sim.current
        if proc is not None:
            proc.request_ctx = None
            proc.trace_ctx = None

    def observe_reply(self, req_id):
        """One reply for ``req_id`` reached the client dispatcher."""
        rec = self.records.get(req_id)
        if rec is None or rec.t1 is not None:
            return
        rec.outstanding -= 1
        if rec.outstanding <= 0:
            rec.t1 = self._sim.now

    # ------------------------------------------------------------------
    # Recorder hooks (selective mode)
    # ------------------------------------------------------------------

    def route(self, proc):
        """Which sampled request does ``proc``'s next trace belong to?

        A client issuing a request carries ``request_ctx`` directly; a
        server replying carries the *request's packet trace* in
        ``trace_ctx`` (adopted off the rx frame), which maps back
        through :attr:`tid_to_req`.  None means: do not trace.

        Only meaningful for a ``"send"`` birth, where ``proc`` is the
        sender and its context is the work it is answering.  The
        recorder never asks on behalf of an untagged frame at NIC rx:
        there ``proc`` is the interrupt process and ``trace_ctx`` is
        whatever the previous frame left behind.
        """
        if proc is None:
            return None
        req_id = getattr(proc, "request_ctx", None)
        if req_id is not None:
            return req_id
        tid = proc.trace_ctx
        if tid is not None:
            return self.tid_to_req.get(tid)
        return None

    def assign_tid(self, req_id, proc, host):
        """Deterministic trace id for a selective-mode birth.

        The id is a pure function of ``(req_id, role, idx)``: role 0 is
        a client send (``proc`` carries ``request_ctx``; idx counts the
        request's send burst), role 1 a server reply (the proc routed
        through ``trace_ctx``; idx identifies the replying host).  A
        request's ids therefore do not depend on what other traffic
        began traces before it.
        """
        if proc is not None and getattr(proc, "request_ctx", None) is not None:
            role = 0
            idx = self._send_births.get(req_id, 0)
            self._send_births[req_id] = idx + 1
        else:
            role = 1
            idx = _host_index(host)
        return (((req_id << 1) | role) << TID_IDX_BITS) | (idx & TID_IDX_MASK)

    def bind(self, trace_id, req_id):
        """A new packet trace was born on behalf of ``req_id``."""
        self.tid_to_req[trace_id] = req_id
        rec = self.records.get(req_id)
        if rec is not None:
            rec.tids.append(trace_id)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def completed_records(self):
        """Sampled requests that completed, in request-id order."""
        return sorted((r for r in self.records.values() if r.completed),
                      key=lambda r: r.req_id)

    @property
    def sampled_completed(self):
        return sum(1 for r in self.records.values() if r.completed)

    @property
    def sampled_censored(self):
        return sum(1 for r in self.records.values() if not r.completed)

    def __repr__(self):
        return "<RequestTracer 1-in-%d seed=%d sampled=%d completed=%d>" % (
            self.sample_every, self.seed, self.requests_sampled,
            self.sampled_completed)
