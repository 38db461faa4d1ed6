"""The O(cuts x candidates) ``Fraction`` scan that
:func:`repro.analysis.forensics.critical_path` replaced, kept verbatim
as the differential oracle for ``tests/test_forensics.py``."""

from fractions import Fraction

from repro.analysis.forensics import CAUSE_PRIORITY, TRANSIT


class _Candidate:
    """One span projected onto a request's timeline."""

    __slots__ = ("start", "end", "owner", "layer", "cause", "prio", "seq")

    def __init__(self, start, end, owner, layer, cause, prio, seq):
        self.start = start
        self.end = end
        self.owner = owner
        self.layer = layer
        self.cause = cause
        self.prio = prio
        self.seq = seq


def critical_path(cpu_spans, wait_spans, t0, t1):
    """Partition ``[t0, t1]`` into blamed segments.

    Every retained span is clipped to the request interval; each
    elementary sub-interval (between consecutive span boundaries) is
    blamed on the covering candidate with the best (lowest)
    ``(cause priority, start, seq)``; uncovered sub-intervals become
    :data:`TRANSIT`.  Adjacent same-blame segments merge.  Returns a
    list of dicts with exact :class:`Fraction` bounds under ``start``/
    ``end`` (callers serialize via :func:`path_to_json`).
    """
    lo, hi = Fraction(t0), Fraction(t1)
    if hi <= lo:
        return []
    candidates = []
    seq = 0
    for span in cpu_spans:
        s = Fraction(span.start)
        e = s + Fraction(span.cost)
        if e <= lo or s >= hi:
            continue
        candidates.append(_Candidate(
            max(s, lo), min(e, hi), span.owner, span.layer, "service",
            CAUSE_PRIORITY["service"], seq))
        seq += 1
    for wait in wait_spans:
        s = Fraction(wait.start)
        e = s + Fraction(wait.cost)
        if e <= lo or s >= hi:
            continue
        candidates.append(_Candidate(
            max(s, lo), min(e, hi), wait.owner, wait.layer, wait.kind,
            CAUSE_PRIORITY.get(wait.kind, len(CAUSE_PRIORITY)), seq))
        seq += 1

    bounds = {lo, hi}
    for cand in candidates:
        bounds.add(cand.start)
        bounds.add(cand.end)
    cuts = sorted(bounds)

    segments = []
    for a, b in zip(cuts, cuts[1:]):
        best = None
        for cand in candidates:
            if cand.start <= a and cand.end >= b:
                key = (cand.prio, cand.start, cand.seq)
                if best is None or key < best[0]:
                    best = (key, cand)
        if best is None:
            owner, layer, cause = "wire", TRANSIT[0], TRANSIT[1]
        else:
            cand = best[1]
            owner, layer, cause = cand.owner, cand.layer, cand.cause
        if (segments and segments[-1]["owner"] == owner
                and segments[-1]["layer"] == layer
                and segments[-1]["cause"] == cause
                and segments[-1]["end"] == a):
            segments[-1]["end"] = b
        else:
            segments.append({"start": a, "end": b, "owner": owner,
                             "layer": layer, "cause": cause})
    return segments
