"""``python -m hostbench compare A.json B.json``: did B get worse than A?

One row per workload and end-to-end metric, with both medians, the
ratio B/A (base A) and a verdict:

``better``
    every run of B reads better than every run of A;
``within-bound``
    B's median is no worse than A's by more than the metric's bound;
``worse``
    it is worse by more than the bound;
``unresolved``
    it is worse by more than the bound, but a side's run-to-run spread
    is wider than the bound and the runs overlap, so these runs cannot
    tell.

Exact metrics (the simulated numbers, ``failed_share``) have no bound:
any move in the bad direction is ``worse``.
"""

import json
import sys

from hostbench.spec import END_TO_END


def _worse_by(a, b, better):
    """How much worse ``b`` is than ``a``, as a share of ``a``
    (negative: better)."""
    if a == b:
        return 0.0
    if a == 0:
        delta = float("inf") if b > 0 else float("-inf")
    else:
        delta = (b - a) / abs(a)
    return delta if better == "lower" else -delta


def verdict(a, b, better, bound):
    """``a`` and ``b`` are summaries with ``median``, ``min``, ``max``."""
    worse_by = _worse_by(a["median"], b["median"], better)
    if better == "lower":
        separated_better = b["max"] < a["min"]
        overlap = b["min"] <= a["max"]
    else:
        separated_better = b["min"] > a["max"]
        overlap = b["max"] >= a["min"]
    if bound is None:
        if worse_by > 0:
            return "worse"
        return "better" if worse_by < 0 else "within-bound"
    if worse_by > bound:
        spread = max((s["max"] - s["min"]) / abs(s["median"])
                     for s in (a, b) if s["median"])
        return "unresolved" if spread > bound and overlap else "worse"
    return "better" if separated_better else "within-bound"


def compare(doc_a, doc_b):
    """Rows ``(workload, metric, a, b, ratio, verdict)`` and notes."""
    rows, notes = [], []
    for name, block_a in doc_a["workloads"].items():
        block_b = doc_b["workloads"].get(name)
        if block_b is None:
            notes.append("%s: missing from B" % name)
            rows.append((name, "-", None, None, None, "worse"))
            continue
        for metric, _unit, better, bound in END_TO_END:
            a = block_a["end_to_end"].get(metric)
            b = block_b["end_to_end"].get(metric)
            if a is None and b is None:
                continue
            if a is None or b is None:
                notes.append("%s %s: reported on one side only"
                             % (name, metric))
                rows.append((name, metric, a and a["median"],
                             b and b["median"], None, "unresolved"))
                continue
            ratio = b["median"] / a["median"] if a["median"] else None
            rows.append((name, metric, a["median"], b["median"], ratio,
                         verdict(a, b, better, bound)))
        same = block_a["sim_digest"] == block_b["sim_digest"]
        notes.append("%s: sim_digest %s; failed %d/%d -> %d/%d"
                     % (name, "identical" if same else "DIFFERENT",
                        block_a["failed"], block_a["attempted"],
                        block_b["failed"], block_b["attempted"]))
    return rows, notes


def main(argv, out=sys.stdout):
    if len(argv) != 2:
        print("usage: python -m hostbench compare A.json B.json",
              file=sys.stderr)
        return 2
    documents = []
    for path in argv:
        try:
            with open(path) as fh:
                documents.append(json.load(fh))
        except (OSError, ValueError) as exc:
            print("hostbench compare: cannot read %s: %s" % (path, exc),
                  file=sys.stderr)
            return 2
    doc_a, doc_b = documents
    for label, doc in (("A", doc_a), ("B", doc_b)):
        if not doc.get("comparable", False):
            print("warning: %s was taken at smoke sizes; its numbers are "
                  "not comparable" % label, file=out)
    if doc_a["environment"] != doc_b["environment"]:
        print("note: environments differ\n  A: %s\n  B: %s"
              % (doc_a["environment"], doc_b["environment"]), file=out)
    rows, notes = compare(doc_a, doc_b)
    print("%-16s %-16s %14s %14s %9s  %s"
          % ("workload", "metric", "A median", "B median", "B/A", "verdict"),
          file=out)
    for name, metric, a, b, ratio, result in rows:
        print("%-16s %-16s %14s %14s %9s  %s"
              % (name, metric,
                 "n/a" if a is None else "%.6g" % a,
                 "n/a" if b is None else "%.6g" % b,
                 "n/a" if ratio is None else "%.4f" % ratio, result),
              file=out)
    for note in notes:
        print(note, file=out)
    worse = sum(1 for row in rows if row[5] == "worse")
    unresolved = sum(1 for row in rows if row[5] == "unresolved")
    print("%d rows: %d worse, %d unresolved" % (len(rows), worse, unresolved),
          file=out)
    return 1 if worse else 0
