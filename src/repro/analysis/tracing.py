"""Trace-derived Table 4: fold per-packet spans into layer breakdowns.

:mod:`repro.stack.instrument` accumulates per-layer CPU time in ledgers;
the :class:`~repro.trace.recorder.TraceRecorder` mirrors every one of
those charges as a per-packet ``service`` span, in the same ring as the
packet's waits.  Folding the service spans back down must therefore
reproduce the ledgers *tick for tick* — same floats, same addition
order.  This module provides that fold, the crosscheck that
enforces the invariant, and a breakdown runner that derives the paper's
Table 4 from real packet timelines instead of the raw ledgers.
"""

import warnings
from dataclasses import dataclass, field

from repro.apps.protolat import protolat
from repro.stack.instrument import Layer
from repro.trace.recorder import SERVICE
from repro.world.configs import build_network

#: Span capacity used for breakdown runs: large enough that a full
#: steady-state protolat never evicts (eviction would break the
#: fold-vs-ledger crosscheck).
BREAKDOWN_CAPACITY = 1 << 20


class TraceMismatch(AssertionError):
    """The folded span stream disagrees with the accounting ledgers."""


class TraceRingOverflow(UserWarning):
    """A fold was computed over a lossy ring: spans were overwritten,
    so the totals undercount and any ledger comparison is suspect."""


def placement_ledgers(*placements):
    """Every accounting ledger a set of placements charges into.

    Returns ``{owner: LayerAccounting}``.  Library placements carry two:
    the application-side library ledger and the OS server's own.
    """
    ledgers = {}
    for placement in placements:
        ledgers[placement.accounting.owner] = placement.accounting
        backend = getattr(placement, "_backend", None)
        backend_acct = getattr(backend, "accounting", None)
        if backend_acct is not None and backend_acct is not placement.accounting:
            ledgers[backend_acct.owner] = backend_acct
    return ledgers


def crosscheck(tracer, ledgers):
    """Compare ``tracer.fold()`` against accounting ledgers tick for tick.

    Returns a list of human-readable mismatch strings (empty means the
    invariant holds).  Equality is exact float equality: the fold replays
    the ledgers' additions in the same order, so even rounding must agree.
    """
    if tracer.spans_evicted > 0:
        warnings.warn(
            "crosscheck over a lossy ring: %d spans evicted (capacity "
            "%d); the fold undercounts" % (tracer.spans_evicted,
                                           tracer.capacity),
            TraceRingOverflow, stacklevel=2)
    fold = tracer.fold()
    problems = []
    for owner, acct in ledgers.items():
        folded = fold.get(owner, {})
        for layer in sorted(set(folded) | set(acct.totals)):
            f = folded.get(layer)
            a = acct.totals.get(layer)
            if f != a:
                problems.append(
                    "%s / %s: fold=%r ledger=%r" % (owner, layer, f, a)
                )
    for owner in sorted(set(fold) - set(ledgers)):
        problems.append("untracked owner in span stream: %s" % owner)
    return problems


@dataclass
class TraceBreakdown:
    """A Table 4 column derived from the per-packet span stream."""

    config_key: str
    proto: str
    message_size: int
    rounds: int
    #: layer -> mean us per round trip on the client ledger (the same
    #: shape ``experiments.run_breakdown`` produces), plus the
    #: ``send/receive path total`` and ``measured rtt_us`` keys.
    breakdown: dict = field(default_factory=dict)
    #: owner -> {layer: total us} — the full fold, all ledgers.
    fold: dict = field(default_factory=dict)
    #: Service spans folded (steady-state window only).
    spans: int = 0
    #: Per-packet traces observed in the window.
    traces: int = 0
    #: RTT statistics for the same run (with percentiles).
    rtt: object = None


def run_traced_breakdown(config_key, proto, message_size,
                         platform="decstation", rounds=200):
    """Table 4 from traces: like ``experiments.run_breakdown``, but the
    per-layer means come from folding the recorded packet spans, and the
    fold is crosschecked tick-for-tick against the accounting ledgers.

    Raises :class:`TraceMismatch` if any ledger cell disagrees with the
    folded span stream, or if the span ring overflowed (which would make
    the comparison meaningless).
    """
    network, pa, pb = build_network(config_key, platform=platform)
    tracer = network.tracer
    tracer.enable(capacity=BREAKDOWN_CAPACITY)
    window = {"base_spans": 0, "base_traces": 0}

    def reset_ledgers():
        # Steady state only: drop connection-establishment and ARP costs
        # from both the ledgers and the span stream, as run_breakdown does.
        for acct in placement_ledgers(pa, pb).values():
            acct.reset()
        tracer.clear()
        window["base_spans"] = tracer.spans_recorded
        window["base_traces"] = tracer.traces_started

    result = protolat(
        network, pb, pa, proto=proto, message_size=message_size,
        rounds=rounds, on_warm=reset_ledgers,
    )

    recorded = tracer.spans_recorded - window["base_spans"]
    if recorded != len(tracer.spans):
        raise TraceMismatch(
            "span ring overflowed (%d recorded, %d retained); raise "
            "BREAKDOWN_CAPACITY" % (recorded, len(tracer.spans))
        )
    ledgers = placement_ledgers(pa, pb)
    problems = crosscheck(tracer, ledgers)
    if problems:
        raise TraceMismatch(
            "trace fold disagrees with instrument accounting:\n  "
            + "\n  ".join(problems)
        )

    fold = tracer.fold()
    client = fold.get(pb.accounting.owner, {})
    breakdown = {}
    for layer in Layer.SEND_PATH + Layer.RECEIVE_PATH:
        breakdown[layer] = client.get(layer, 0.0) / result.rounds
    breakdown["send path total"] = sum(
        breakdown[l] for l in Layer.SEND_PATH
    )
    breakdown["receive path total"] = sum(
        breakdown[l] for l in Layer.RECEIVE_PATH
    )
    breakdown["measured rtt_us"] = result.mean_rtt_us
    return TraceBreakdown(
        config_key=config_key,
        proto=proto,
        message_size=message_size,
        rounds=result.rounds,
        breakdown=breakdown,
        fold=fold,
        spans=sum(1 for span in tracer.spans if span.kind == SERVICE),
        traces=tracer.traces_started - window["base_traces"],
        rtt=result,
    )
