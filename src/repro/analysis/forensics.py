"""Tail forensics: critical paths and latency attribution for sampled
requests.

The tail study reports *that* p99 inflates under load;
this module explains *why*.  Given a selective
:class:`~repro.trace.recorder.TraceRecorder` and the
:class:`~repro.trace.request.RequestTracer` that drove it through one
workload run, it:

* groups every retained span of the recorder's one ring — CPU
  (``service``) spans and waits alike — under the workload request it
  served (via the tracer's trace-id → request-id binding),
* computes each completed request's **critical path** — a partition of
  its end-to-end interval ``[t0, t1]`` into non-overlapping segments,
  each blamed on one ``(layer, cause)``,
* folds request populations into an **attribution table** (how many
  microseconds of latency each layer × cause contributed), overall and
  for the tail (at/above the cell's p99),
* serializes **exemplars** — the slowest sampled requests, with full
  span detail — for the ``python -m repro forensics`` CLI to render.

Causes, in critical-path priority order (when intervals overlap, the
scarcer and more explanatory signal wins the blame)::

    loss-recovery > contention > queue > service > control-plane

Time inside ``[t0, t1]`` not covered by any span is wire transit plus
remote-side gaps the sampler did not see; it is reported honestly as
``("wire", "transit")`` rather than smeared over the known causes.

**Exactness.**  Segment arithmetic runs in exact *integers*: every
bound of a request (its ``t0``/``t1`` and each span's start and
start + cost) is scaled once onto the request's common denominator —
ticks are floats, so ``as_integer_ratio()`` denominators are powers of
two and the common one is simply the largest — and clipping, sorting
and blame resolution compare plain ints; only the merged segments are
converted back, to :class:`fractions.Fraction` bounds.  No rounding
happens anywhere, so the per-request attribution sums *telescope* to
exactly ``Fraction(t1) - Fraction(t0)``, whose float value equals the
float subtraction ``t1 - t0`` (both are the correctly-rounded image of
the same exact real), and every request's attributed causes sum to its
end-to-end latency in ticks, exactly — an acceptance invariant the test
suite pins.  The O(cuts x candidates) ``Fraction`` scan this replaced
lives on as the differential oracle in ``tests/forensics_reference.py``.

**Cost.**  :func:`critical_path` is O(n log n) in the request's spans
(two sorts and a near-linear painting pass), so the analysis costs what
the request's own spans cost; ``tailstudy`` reports it per cell as
``analysis_seconds`` next to the recording's ``wallclock_seconds``.

Determinism: everything here is pure arithmetic over the recorder's
ring with sorted, explicitly tie-broken orderings — same seed, same
ring, same JSON bytes.
"""

from fractions import Fraction
from itertools import chain
from math import lcm

from repro.trace.recorder import SERVICE

#: Critical-path blame priority (lower wins when intervals overlap).
CAUSE_PRIORITY = {
    "loss-recovery": 0,
    "contention": 1,
    "queue": 2,
    SERVICE: 3,
    "control-plane": 4,
}

#: The uncovered remainder of a request's interval.
TRANSIT = ("wire", "transit")

#: Its (owner, layer, cause) on a critical path.
_TRANSIT_BLAME = ("wire",) + TRANSIT


def _span_key(span):
    return (span.start, span.cost, span.owner, span.layer, span.kind,
            span.trace_id)


def collect_request_spans(tracer, request_tracer):
    """Group retained spans by request id, split by kind.

    Returns ``{req_id: (cpu_spans, wait_spans)}`` with each request's
    lists in *canonical content order* — sorted by ``(start, cost,
    owner, layer, kind, trace_id)`` rather than raw ring order, so
    downstream tie-breaks (the candidate ``seq`` in
    :func:`critical_path`) and exemplar span listings depend on the
    spans alone, not on the order same-tick spans were recorded in.
    """
    tid_to_req = request_tracer.tid_to_req
    grouped = {}
    for span in tracer.spans:
        req = tid_to_req.get(span.trace_id)
        if req is not None:
            cpu_spans, wait_spans = grouped.setdefault(req, ([], []))
            (cpu_spans if span.kind == SERVICE else wait_spans).append(span)
    for cpu_spans, wait_spans in grouped.values():
        cpu_spans.sort(key=_span_key)
        wait_spans.sort(key=_span_key)
    return grouped


def critical_path(cpu_spans, wait_spans, t0, t1):
    """Partition ``[t0, t1]`` into blamed segments.

    Every retained span is clipped to the request interval; each
    elementary sub-interval (between consecutive span boundaries) is
    blamed on the covering candidate with the best (lowest)
    ``(cause priority, start, seq)``; uncovered sub-intervals become
    :data:`TRANSIT`.  Adjacent same-blame segments merge.  Returns a
    list of dicts with exact :class:`Fraction` bounds under ``start``/
    ``end`` (callers serialize via :func:`path_to_json`).

    One O(n log n) pass over exact integers: every bound is scaled onto
    the request's common denominator, the cuts and the candidates are
    each sorted once, and candidates paint the cuts in priority order —
    a candidate takes whatever its range still has unpainted, found
    through a path-compressed "next unpainted interval" index, so no
    interval is visited by more than one painter.
    """
    service = CAUSE_PRIORITY[SERVICE]
    unknown = len(CAUSE_PRIORITY)
    blames = [(service, (span.owner, span.layer, SERVICE))
              for span in cpu_spans]
    blames += [(CAUSE_PRIORITY.get(wait.kind, unknown),
                (wait.owner, wait.layer, wait.kind)) for wait in wait_spans]

    # Exact integer images.  Ticks are floats, so the denominators are
    # powers of two and the lcm is their maximum; ints and Fractions
    # stay exact through the same call.
    bounds = [t0, t1]
    for span in chain(cpu_spans, wait_spans):
        bounds.append(span.start)
        bounds.append(span.cost)
    ratios = [bound.as_integer_ratio() for bound in bounds]
    denom = lcm(*{den for _num, den in ratios})
    ticks = [num * (denom // den) for num, den in ratios]
    lo, hi = ticks[:2]
    if hi <= lo:
        return []

    # (prio, clipped start, seq) is the blame order and seq is unique,
    # so sorting the tuples never compares past it.
    candidates = []
    cuts = {lo, hi}
    for (prio, who), start, cost in zip(blames, ticks[2::2], ticks[3::2]):
        end = start + cost
        if end <= lo or start >= hi:
            continue
        start, end = max(start, lo), min(end, hi)
        cuts.add(start)
        cuts.add(end)
        candidates.append((prio, start, len(candidates), end, who))
    candidates.sort()
    cuts = sorted(cuts)
    index = {tick: i for i, tick in enumerate(cuts)}

    # blame[i] owns [cuts[i], cuts[i + 1]); unpainted[i] is the first
    # unpainted interval at or after i (len(blame) when there is none).
    blame = [_TRANSIT_BLAME] * (len(cuts) - 1)
    unpainted = list(range(len(cuts)))
    for _prio, start, _seq, end, who in candidates:
        i, stop = index[start], index[end]
        while True:
            root = i
            while unpainted[root] != root:
                root = unpainted[root]
            while unpainted[i] != root:
                unpainted[i], i = root, unpainted[i]
            if root >= stop:
                break
            blame[root] = who
            unpainted[root] = i = root + 1

    segments = []
    previous = None
    for i, who in enumerate(blame):
        if who == previous:
            segments[-1][1] = cuts[i + 1]
        else:
            segments.append([cuts[i], cuts[i + 1], who])
            previous = who
    return [{"start": Fraction(a, denom), "end": Fraction(b, denom),
             "owner": owner, "layer": layer, "cause": cause}
            for a, b, (owner, layer, cause) in segments]


def attribute_path(path):
    """Fold a critical path into ``{(layer, cause): Fraction(us)}``."""
    totals = {}
    for seg in path:
        key = (seg["layer"], seg["cause"])
        totals[key] = totals.get(key, Fraction(0)) + (seg["end"] - seg["start"])
    return totals


def path_to_json(path, t0):
    """Serialize a critical path relative to the request's start tick."""
    origin = Fraction(t0)
    return [{
        "at_us": round(float(seg["start"] - origin), 3),
        "us": round(float(seg["end"] - seg["start"]), 3),
        "owner": seg["owner"],
        "layer": seg["layer"],
        "cause": seg["cause"],
    } for seg in path]


def _attribution_rows(totals, denom):
    """Sorted JSON rows for an attribution table (largest first)."""
    rows = []
    for (layer, cause), frac in totals.items():
        us = float(frac)
        rows.append({
            "layer": layer,
            "cause": cause,
            "us": round(us, 3),
            "share": round(us / denom, 6) if denom else None,
        })
    rows.sort(key=lambda r: (-r["us"], r["cause"], r["layer"]))
    return rows


def request_forensics(record, cpu_spans, wait_spans):
    """One request's critical path + exactness check.

    Returns ``(path, totals, exact)`` where ``exact`` is whether the
    Fraction attribution sums to the request's float latency tick for
    tick (structurally always true; surfaced so the JSON carries the
    acceptance invariant rather than asserting it silently).
    """
    path = critical_path(cpu_spans, wait_spans, record.t0, record.t1)
    totals = attribute_path(path)
    span_sum = sum(totals.values(), Fraction(0))
    exact = float(span_sum) == (record.t1 - record.t0)
    return path, totals, exact


def cell_forensics(tracer, request_tracer, p99_us=None, exemplar_cap=3):
    """The per-cell forensics block for the tailstudy JSON.

    ``p99_us`` is the cell's p99 over *all* completed requests (sampled
    or not); exemplars are sampled completed requests at/above it, or —
    when sampling missed the extreme tail — the slowest sampled
    requests, so every cell ships at least one exemplar whenever any
    sampled request completed.
    """
    grouped = collect_request_spans(tracer, request_tracer)
    completed = request_tracer.completed_records()

    overall = {}
    per_request = {}
    all_exact = True
    for rec in completed:
        cpu_spans, wait_spans = grouped.get(rec.req_id, ((), ()))
        path, totals, exact = request_forensics(rec, cpu_spans, wait_spans)
        per_request[rec.req_id] = (rec, path, totals)
        all_exact = all_exact and exact
        for key, frac in totals.items():
            overall[key] = overall.get(key, Fraction(0)) + frac

    total_us = float(sum(overall.values(), Fraction(0)))

    tail_recs = []
    if p99_us is not None:
        tail_recs = [rec for rec in completed
                     if rec.latency_us >= p99_us]
    tail = {}
    for rec in tail_recs:
        for key, frac in per_request[rec.req_id][2].items():
            tail[key] = tail.get(key, Fraction(0)) + frac
    tail_us = float(sum(tail.values(), Fraction(0)))

    exemplar_recs = sorted(tail_recs, key=lambda r: (-r.latency_us,
                                                     r.req_id))
    if not exemplar_recs:
        exemplar_recs = sorted(completed, key=lambda r: (-r.latency_us,
                                                         r.req_id))
    exemplars = []
    for rec in exemplar_recs[:exemplar_cap]:
        cpu_spans, wait_spans = grouped.get(rec.req_id, ((), ()))
        path = per_request[rec.req_id][1]
        exemplars.append({
            "req_id": rec.req_id,
            "client": rec.client,
            "fanout": rec.fanout,
            "t0_us": round(rec.t0, 3),
            "latency_us": round(rec.latency_us, 3),
            "above_p99": (p99_us is not None
                          and rec.latency_us >= p99_us),
            "path": path_to_json(path, rec.t0),
            "spans": [{
                "trace": s.trace_id,
                "owner": s.owner,
                "layer": s.layer,
                "at_us": round(s.start - rec.t0, 3),
                "us": round(s.cost, 3),
            } for s in cpu_spans],
            "waits": [{
                "trace": w.trace_id,
                "owner": w.owner,
                "layer": w.layer,
                "cause": w.kind,
                "at_us": round(w.start - rec.t0, 3),
                "us": round(w.cost, 3),
            } for w in wait_spans],
        })

    return {
        "sample_every": request_tracer.sample_every,
        "sample_seed": request_tracer.seed,
        "requests_seen": request_tracer.requests_seen,
        "requests_sampled": request_tracer.requests_sampled,
        "sampled_completed": request_tracer.sampled_completed,
        "sampled_censored": request_tracer.sampled_censored,
        "spans_evicted": tracer.spans_evicted,
        "lossy": tracer.lossy,
        "attribution_exact": all_exact,
        "attribution": {
            "requests": len(completed),
            "total_us": round(total_us, 3),
            "rows": _attribution_rows(overall, total_us),
        },
        "tail": {
            "threshold_us": (None if p99_us is None
                             else round(p99_us, 3)),
            "requests": len(tail_recs),
            "total_us": round(tail_us, 3),
            "rows": _attribution_rows(tail, tail_us),
        },
        "exemplars": exemplars,
    }


# ----------------------------------------------------------------------
# Rendering (consumed by `python -m repro forensics` and CI)
# ----------------------------------------------------------------------

def attribution_markdown(block, which="tail"):
    """A markdown attribution table from a cell's forensics block."""
    table = block[which]
    lines = ["| layer | cause | us | share |", "|---|---|---|---|"]
    for row in table["rows"]:
        share = ("%.1f%%" % (100.0 * row["share"])
                 if row["share"] is not None else "n/a")
        lines.append("| %s | %s | %.1f | %s |"
                     % (row["layer"], row["cause"], row["us"], share))
    return "\n".join(lines)


def top_contributors(block, k=3, which="tail"):
    """The top-k (layer, cause, us, share) rows of an attribution."""
    rows = block[which]["rows"]
    if not rows:
        rows = block["attribution"]["rows"]
    return rows[:k]


def exemplar_timeline(exemplar, width=48):
    """Render one exemplar's critical path as a text timeline."""
    total = exemplar["latency_us"]
    lines = [
        "request %d (client %d, fanout %d): %.1f us end-to-end%s"
        % (exemplar["req_id"], exemplar["client"], exemplar["fanout"],
           total, " [above p99]" if exemplar.get("above_p99") else ""),
        "",
        "%10s %10s  %-14s %-22s %s" % ("at (us)", "dur (us)", "cause",
                                       "layer", "owner"),
    ]
    for seg in exemplar["path"]:
        bar = ""
        if total > 0:
            n = max(1, int(round(width * seg["us"] / total)))
            bar = " " + "#" * n
        lines.append("%10.1f %10.1f  %-14s %-22s %s%s"
                     % (seg["at_us"], seg["us"], seg["cause"],
                        seg["layer"], seg["owner"], bar))
    return "\n".join(lines)


def exemplar_chrome_trace(exemplar):
    """A chrome://tracing document for one exemplar.

    Critical-path segments ride on the synthetic "critical path" track;
    raw CPU spans and waits keep their owner as the pid so the stack's
    components line up as separate rows.
    """
    events = []
    req = exemplar["req_id"]
    for seg in exemplar["path"]:
        events.append({
            "name": "%s [%s]" % (seg["layer"], seg["cause"]),
            "ph": "X",
            "ts": seg["at_us"],
            "dur": seg["us"],
            "pid": "critical path",
            "tid": "request %d" % req,
            "args": {"owner": seg["owner"], "cause": seg["cause"]},
        })
    for span in exemplar["spans"]:
        events.append({
            "name": span["layer"],
            "ph": "X",
            "ts": span["at_us"],
            "dur": span["us"],
            "pid": span["owner"],
            "tid": "trace %s" % span["trace"],
            "args": {"cause": "service"},
        })
    for wait in exemplar["waits"]:
        events.append({
            "name": "%s [%s]" % (wait["layer"], wait["cause"]),
            "ph": "X",
            "ts": wait["at_us"],
            "dur": wait["us"],
            "pid": wait["owner"],
            "tid": "trace %s" % wait["trace"],
            "args": {"cause": wait["cause"]},
        })
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "metadata": {
            "request": req,
            "latency_us": exemplar["latency_us"],
        },
    }
