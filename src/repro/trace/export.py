"""Exporters for recorded packet traces.

Two formats:

* :func:`chrome_trace` — the Chrome ``chrome://tracing`` / Perfetto JSON
  event format.  Our simulated clock is already in microseconds, which
  is exactly the ``ts``/``dur`` unit the format expects, so spans map
  one-to-one.  Each owner (a placement's ledger identity) becomes a
  "process" row and each trace id a "thread" row within it.
* :func:`text_timeline` — a plain-text timeline of a single packet for
  terminal debugging, one line per span with absolute and relative
  timestamps.

Both read the recorder's one ring: a wait span is labelled
``layer [kind]`` next to the CPU spans (whose kind is ``service``).
"""

import json

from repro.trace.recorder import SERVICE


def _label(span):
    if span.kind == SERVICE:
        return span.layer
    return "%s [%s]" % (span.layer, span.kind)


def chrome_trace(recorder, trace_id=None, metrics=None):
    """Render retained spans as a Chrome-trace JSON string.

    With ``trace_id`` given, only that packet's spans are exported.
    With ``metrics`` (a :class:`repro.metrics.MetricsRegistry`), its
    time series are merged in as counter tracks (``ph: "C"``) so queue
    depths and cwnd render above the packet spans.
    Load the result in ``chrome://tracing`` or https://ui.perfetto.dev.
    """
    events = []
    for span in recorder.spans:
        if trace_id is not None and span.trace_id != trace_id:
            continue
        events.append({
            "name": _label(span),
            "cat": "packet" if span.trace_id is not None else "untraced",
            "ph": "X",
            "ts": span.start,
            "dur": span.cost,
            "pid": span.owner or "untracked",
            "tid": span.trace_id if span.trace_id is not None else 0,
            "args": {"cost_us": span.cost},
        })
    if metrics is not None:
        from repro.analysis.timeseries import chrome_counter_events

        events.extend(chrome_counter_events(metrics))
    return json.dumps(
        {"traceEvents": events, "displayTimeUnit": "ns"}, indent=2
    )


def text_timeline(recorder, trace_id):
    """A human-readable timeline of one packet's life.

    Example output::

        trace #3 (send, 1B payload) born on client at t=1234.000us
          t=1234.000  +0.000   client/library-shm     entry_copyin      6.800us
          t=1240.800  +6.800   client/library-shm     udp_output       18.300us
          ...
        total attributed CPU: 110.400us across 9 spans

    Waits are listed in place but do not count toward the CPU total.
    """
    spans = recorder.trace(trace_id)
    meta = recorder.meta(trace_id)
    lines = []
    if meta is not None:
        size = "%dB payload" % meta.size if meta.size is not None else "size n/a"
        lines.append("trace #%d (%s, %s) born on %s at t=%.3fus"
                     % (trace_id, meta.kind, size, meta.host or "?", meta.start))
    else:
        lines.append("trace #%d (metadata evicted)" % trace_id)
    if not spans:
        lines.append("  (no retained spans)")
        return "\n".join(lines)
    origin = meta.start if meta is not None else spans[0].start
    owner_w = max(len(s.owner or "?") for s in spans)
    layer_w = max(len(_label(s)) for s in spans)
    cpu = [s for s in spans if s.kind == SERVICE]
    for span in spans:
        lines.append("  t=%12.3f  %+10.3f   %-*s  %-*s  %9.3fus"
                     % (span.start, span.start - origin,
                        owner_w, span.owner or "?",
                        layer_w, _label(span), span.cost))
    lines.append("total attributed CPU: %.3fus across %d spans"
                 % (sum(s.cost for s in cpu), len(cpu)))
    return "\n".join(lines)
