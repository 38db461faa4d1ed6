"""Per-packet event tracing: one ring of CPU and wait spans (see
:mod:`repro.trace.recorder`).

Layer code uses the tiny helpers here so call sites stay one-liners and
cost nothing when tracing is off:

* :func:`current_trace` / :func:`adopt_trace` — read or set the running
  process's trace context.
* :func:`begin_send_trace` — start a fresh trace at a socket send entry
  (each outbound packet gets its own id).
* :func:`TaggedFrame.tag` / :func:`frame_trace` — carry a trace id on a
  wire frame across queues, rings and the simulated wire.
"""

from repro.trace.export import chrome_trace, text_timeline
from repro.trace.recorder import (
    Span,
    TaggedFrame,
    TraceMeta,
    TraceRecorder,
    frame_trace,
)
from repro.trace.request import RequestRecord, RequestTracer

__all__ = [
    "RequestRecord",
    "RequestTracer",
    "Span",
    "TaggedFrame",
    "TraceMeta",
    "TraceRecorder",
    "adopt_trace",
    "begin_send_trace",
    "chrome_trace",
    "current_trace",
    "frame_trace",
    "text_timeline",
]


def current_trace(sim):
    """Trace id attached to the running process, or None."""
    proc = sim.current
    return proc.trace_ctx if proc is not None else None


def adopt_trace(sim, trace_id):
    """Attach ``trace_id`` (possibly None) to the running process."""
    proc = sim.current
    if proc is not None:
        proc.trace_ctx = trace_id
    return trace_id


def begin_send_trace(ctx, host, size):
    """Start a fresh trace for an outbound packet at its socket entry.

    ``ctx`` is the :class:`~repro.stack.context.ExecutionContext` doing
    the charging; its accounting ledger knows the recorder (if any).
    Returns the new trace id, or None when tracing is off.
    """
    tracer = ctx.accounting.tracer
    if tracer is None or not tracer.enabled:
        return None
    return tracer.begin("send", host=host, size=size)
