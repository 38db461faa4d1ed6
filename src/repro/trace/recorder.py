"""Per-packet event tracing: one ring of spans.

The paper's central evidence is a *breakdown*: Table 4 attributes every
microsecond of a packet's life to a named layer, measured with a
high-resolution timer.  :mod:`repro.stack.instrument` keeps the aggregate
ledgers; this module adds the per-packet dimension.  Every simulated CPU
charge emits a :class:`Span` ``(trace_id, owner, layer, start, cost)`` of
kind ``"service"`` into a bounded ring attached to the
:class:`~repro.world.network.Network`, and a packet's spans — from socket
entry, across the proxy/IPC boundary, through the kernel, NIC and wire,
to the far side's copyout — share one trace id.

An interval a traced packet spent *not* running is a span too, recorded
by :meth:`~TraceRecorder.record_wait` into the same ring.  Its ``kind``
names the cause in the vocabulary of :mod:`repro.analysis.forensics`:
``"queue"`` (NIC ring or socket queue), ``"contention"`` (blocked on the
CPU's priority lock), ``"loss-recovery"`` (a TCP retransmit episode) or
``"control-plane"`` (a resilient RPC round trip).

Design rules:

* **Disabled by default.**  A recorder that has not been
  :meth:`~TraceRecorder.enable`\\ d records nothing and adds no spans.
* **One chronological ring.**  Spans of every kind live in one bounded
  deque in record order.  Folding its ``service`` spans per (owner,
  layer) replays the exact float additions the
  :class:`~repro.stack.instrument.LayerAccounting` ledgers performed, so
  the trace-derived breakdown agrees with the instrument accounting tick
  for tick (a standing invariant test); the other kinds never enter the
  fold.
* **Exact counters.**  ``spans_recorded`` / ``traces_started`` keep
  counting past eviction, so bounding never silently loses statistics;
  one ``spans_evicted`` counts what the ring overwrote, of every kind.

Attribution rides on the process: :meth:`TraceRecorder.begin` and
:meth:`~TraceRecorder.adopt` stamp the *currently running* simulation
process (``sim.current.trace_ctx``), and the CPU's accounting callback —
which always runs inside the charging process's generator frame — reads
it back at :meth:`~TraceRecorder.record` time.

**Selective (request-gated) mode** serves the tail-forensics layer
(:mod:`repro.trace.request`).  With a
:class:`~repro.trace.request.RequestTracer` attached (see
:meth:`~TraceRecorder.attach_requests`), :meth:`~TraceRecorder.begin`
only starts traces for work the request tracer claims (a sampled
request's sends and the replies they cause — never an untagged frame at
NIC rx), and spans carrying no trace id are dropped instead of recorded
— which is what makes tracing a 500-host tail study affordable.
"""

from collections import OrderedDict, deque

DEFAULT_CAPACITY = 65536
DEFAULT_MAX_TRACES = 8192

#: The kind of a span that is a CPU charge; every other kind is a wait.
SERVICE = "service"


class Span:
    """An interval of one packet's life attributed to a layer: a CPU
    charge (``kind`` ``"service"``) or a wait, whose ``kind`` names its
    cause.  ``trace_id`` is None for untraced work."""

    __slots__ = ("trace_id", "owner", "layer", "start", "cost", "kind")

    def __init__(self, trace_id, owner, layer, start, cost, kind=SERVICE):
        self.trace_id = trace_id
        self.owner = owner
        self.layer = layer
        self.start = start
        self.cost = cost
        self.kind = kind

    def __repr__(self):
        return ("Span(trace=%r, owner=%r, layer=%r, start=%.3f, cost=%.3f, "
                "kind=%r)" % (self.trace_id, self.owner, self.layer,
                              self.start, self.cost, self.kind))


class TraceMeta:
    """Birth record of a trace: where and why it started."""

    __slots__ = ("trace_id", "kind", "host", "start", "size")

    def __init__(self, trace_id, kind, host, start, size):
        self.trace_id = trace_id
        self.kind = kind      # "send" (socket entry) or "recv" (NIC rx)
        self.host = host
        self.start = start
        self.size = size

    def __repr__(self):
        return "TraceMeta(id=%r, kind=%r, host=%r, start=%.3f, size=%r)" % (
            self.trace_id, self.kind, self.host, self.start, self.size)


class TaggedFrame(bytes):
    """A wire frame carrying its packet's trace id.

    It *is* the frame (a ``bytes`` subclass), so every queue, ring and
    parser handles it unchanged; the tag is metadata that never reaches
    the simulated wire format.
    """

    trace_id = None

    @classmethod
    def tag(cls, frame, trace_id):
        if trace_id is None:
            return frame
        tagged = cls(frame)
        tagged.trace_id = trace_id
        return tagged


def frame_trace(frame):
    """The trace id a frame carries, or None for untagged frames."""
    return getattr(frame, "trace_id", None)


class TraceRecorder:
    """Bounded ring of per-packet spans, attached to a Network.

    Spans of every kind are kept newest-last in a single chronological
    deque; once ``capacity`` is reached the oldest spans fall off, but
    the lifetime counters stay exact.
    """

    def __init__(self, sim, capacity=DEFAULT_CAPACITY,
                 max_traces=DEFAULT_MAX_TRACES):
        self._sim = sim
        self.capacity = capacity
        self.max_traces = max_traces
        self.enabled = False
        self.spans = deque(maxlen=capacity)
        self._meta = OrderedDict()   # trace_id -> TraceMeta (bounded)
        self._next_id = 1
        self.spans_recorded = 0
        self.spans_cleared = 0
        self.traces_started = 0
        #: The attached :class:`~repro.trace.request.RequestTracer`, or
        #: None.  When set the recorder is *selective*: traces begin only
        #: for sampled requests, and untraced spans are dropped.
        self.requests = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def enable(self, capacity=None, max_traces=None):
        """Start recording spans.  Optionally resize the ring."""
        if capacity is not None:
            self.capacity = capacity
            self.spans = deque(self.spans, maxlen=capacity)
        if max_traces is not None:
            self.max_traces = max_traces
        self.enabled = True
        return self

    def attach_requests(self, request_tracer):
        """Enter selective mode: route new traces through a
        :class:`~repro.trace.request.RequestTracer` (or None to leave)."""
        self.requests = request_tracer
        return self

    def clear(self):
        """Drop recorded spans and metadata.

        Lifetime counters are *not* reset — they count everything ever
        recorded, which is what makes eviction safe to reason about.
        Benchmarks call this after warm-up so the ring holds only the
        measured interval.
        """
        self.spans_cleared += len(self.spans)
        self.spans.clear()
        self._meta.clear()

    @property
    def spans_evicted(self):
        """How many spans the bounded ring has *overwritten* so far
        (explicitly :meth:`clear`\\ ed spans do not count)."""
        return self.spans_recorded - self.spans_cleared - len(self.spans)

    @property
    def lossy(self):
        """True when the ring has overwritten spans — a fold or
        attribution over this recorder is incomplete."""
        return self.spans_evicted > 0

    # ------------------------------------------------------------------
    # Trace context (process-local)
    # ------------------------------------------------------------------

    def begin(self, kind, host="", size=None):
        """Start a new trace and attach it to the running process.

        Returns the new trace id, or None when tracing is disabled (in
        which case nothing is attached and nothing is recorded).

        In selective mode the attached request tracer decides: work that
        does not belong to a sampled request gets no trace, and any
        stale trace context on the running process is cleared so later
        spans cannot be misattributed to a previous request.  A sampled
        request's traces are born at its sends and reach other hosts as
        frame tags, so a ``"recv"`` birth — an *untagged* frame at NIC
        rx — is by definition not part of one.  It is refused without
        consulting the request tracer: ``route`` would answer from the
        interrupt process's context, which still holds the tag of the
        *previous* frame.
        """
        if not self.enabled:
            return None
        rt = self.requests
        if rt is not None:
            req_id = None if kind == "recv" else rt.route(self._sim.current)
            if req_id is None:
                self.adopt(None)
                return None
            # Selective traces get *deterministic* ids — a pure function
            # of (request, birth role, within-role index) rather than a
            # process-global counter — so island processes that each see
            # only part of a request's life assign the same ids the
            # single-process run would.
            trace_id = rt.assign_tid(req_id, self._sim.current, host)
        else:
            trace_id = self._next_id
            self._next_id += 1
        self.traces_started += 1
        self._meta[trace_id] = TraceMeta(trace_id, kind, host,
                                         self._sim.now, size)
        while len(self._meta) > self.max_traces:
            self._meta.popitem(last=False)
        self.adopt(trace_id)
        if rt is not None:
            rt.bind(trace_id, req_id)
        return trace_id

    def adopt(self, trace_id):
        """Attach ``trace_id`` (possibly None) to the running process."""
        proc = self._sim.current
        if proc is not None:
            proc.trace_ctx = trace_id
        return trace_id

    def current(self):
        """Trace id of the running process, or None."""
        proc = self._sim.current
        return proc.trace_ctx if proc is not None else None

    # ------------------------------------------------------------------
    # Recording (called from LayerAccounting.add)
    # ------------------------------------------------------------------

    def record(self, owner, layer, cost):
        """Record a charge that just *finished* at ``sim.now``.

        The CPU model invokes accounting after the cost has elapsed, so
        the span's start tick is ``now - cost``.  The span is attributed
        to whatever trace the charging process carries (None for
        untraced work such as timers — those spans still count toward
        the fold, keeping the totals exact).  In selective mode
        untraced spans are dropped instead: the fold-vs-ledger
        invariant is deliberately traded for affordability, which is
        why :func:`repro.analysis.tracing.crosscheck` is never run over
        a selective recorder.
        """
        if not self.enabled:
            return
        trace_id = self.current()
        if trace_id is None and self.requests is not None:
            return
        self.spans.append(Span(trace_id, owner, layer,
                               self._sim.now - cost, cost))
        self.spans_recorded += 1

    def record_wait(self, trace_id, owner, layer, kind, start, cost):
        """Record an interval a traced packet spent waiting, as a span
        of cause ``kind`` in the same ring.

        Unlike :meth:`record` this is explicit about the trace id — the
        waiter is usually *not* the running process (a frame parked in
        a NIC ring, a connection awaiting an RTO).  Untagged waits are
        never recorded: a wait only matters to a critical path.
        """
        if not self.enabled or trace_id is None:
            return
        self.spans.append(Span(trace_id, owner, layer, start, cost, kind))
        self.spans_recorded += 1

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def meta(self, trace_id):
        return self._meta.get(trace_id)

    def trace(self, trace_id):
        """All retained spans of one trace, CPU and waits, in record
        order (a span is recorded when it ends)."""
        return [s for s in self.spans if s.trace_id == trace_id]

    def trace_ids(self):
        """Ids of traces with retained metadata, oldest first."""
        return list(self._meta)

    def fold(self):
        """Replay the ring's ``service`` spans into ``{owner: {layer:
        total}}``.

        Iterates in record order, so per-(owner, layer) float addition
        order matches the live ledgers exactly.
        """
        totals = {}
        for span in self.spans:
            if span.kind != SERVICE:
                continue
            acc = totals.setdefault(span.owner, {})
            acc[span.layer] = acc.get(span.layer, 0.0) + span.cost
        return totals

    # ------------------------------------------------------------------
    # Island export / merge
    # ------------------------------------------------------------------

    def export_state(self, island=0):
        """Picklable state of this recorder for cross-process merging.

        Carries the island id, the retained ring and — critically — the
        *lifetime* counters, so ring wraps that happened inside an island
        process survive the merge (the merged view's ``spans_evicted`` /
        ``lossy`` stay honest instead of silently resetting at the
        process boundary).
        """
        return {
            "island": island,
            "spans": [(s.trace_id, s.owner, s.layer, s.start, s.cost,
                       s.kind) for s in self.spans],
            "spans_recorded": self.spans_recorded,
            "spans_cleared": self.spans_cleared,
        }

    def __repr__(self):
        return "<TraceRecorder %s spans=%d/%d traces=%d>" % (
            "on" if self.enabled else "off", len(self.spans),
            self.capacity, self.traces_started)


class MergedTraceState:
    """A read-only, recorder-shaped view over merged island states.

    Exposes exactly the surface :mod:`repro.analysis.forensics` reads —
    ``spans``, the lifetime counters and the derived ``spans_evicted`` /
    ``lossy`` — computed from the *sums* of the per-island lifetime
    counters, so a ring that wrapped inside one island still marks the
    merged view LOSSY.
    """

    def __init__(self):
        self.islands = []
        self.spans = []
        self.spans_recorded = 0
        self.spans_cleared = 0

    def absorb(self, state):
        self.islands.append(state["island"])
        self.spans.extend(Span(*row) for row in state["spans"])
        self.spans_recorded += state["spans_recorded"]
        self.spans_cleared += state["spans_cleared"]
        return self

    spans_evicted = TraceRecorder.spans_evicted
    lossy = TraceRecorder.lossy

    def __repr__(self):
        return "<MergedTraceState islands=%r spans=%d>" % (
            self.islands, len(self.spans))


def merge_trace_states(states):
    """Fold per-island :meth:`TraceRecorder.export_state` dicts, in
    island order, into one :class:`MergedTraceState`."""
    merged = MergedTraceState()
    for state in sorted(states, key=lambda s: s["island"]):
        merged.absorb(state)
    return merged
