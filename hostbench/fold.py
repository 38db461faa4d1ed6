"""Fold cProfile self time into the simulator's layers.

Input is the raw ``cProfile.Profile.stats`` mapping (what ``pstats``
reads): ``func -> (cc, nc, tt, ct, callers)`` with ``func =
(filename, line, name)`` and ``callers = {caller: (nc, cc, tt, ct)}``.

Self time of a function in a ``repro`` (or ``hostbench``) module goes to
that module's layer.  Self time of anything else — builtins such as
``heappush``, stdlib Python such as ``fractions.Fraction._richcmp`` —
is charged to the layer that called it, along the caller edges; what
cannot be traced back to a layer lands in ``other``.
"""

from hostbench.spec import LAYERS, layer_of

OTHER = "other"

#: Caller chains longer than this (stdlib calling stdlib calling ...)
#: are cut and charged to ``other``.
_MAX_DEPTH = 12


def merge_stats(stats_list):
    """Sum raw profiler stats of several processes into one mapping."""
    merged = {}
    for stats in stats_list:
        for func, (cc, nc, tt, ct, callers) in stats.items():
            if func not in merged:
                merged[func] = [cc, nc, tt, ct, dict(callers)]
                continue
            entry = merged[func]
            entry[0] += cc
            entry[1] += nc
            entry[2] += tt
            entry[3] += ct
            for caller, edge in callers.items():
                old = entry[4].get(caller)
                entry[4][caller] = (edge if old is None else
                                    tuple(a + b for a, b in zip(old, edge)))
    return {func: tuple(entry) for func, entry in merged.items()}


def fold(stats):
    """Rows ``[{"layer", "self_s", "calls", "share"}]`` covering the 20
    layers (always, zero when idle), any extra ``repro`` row,
    ``hostbench`` and ``other``; plus the profiled total in seconds."""
    layer = {func: layer_of(func[0]) for func in stats}
    blame_memo = {}

    def blame(func, depth):
        """``{layer: share}`` of who is responsible for time spent in
        the non-layer function ``func``, by cumulative-time edges."""
        own = layer.get(func)
        if own is not None:
            return {own: 1.0}
        if func in blame_memo:
            return blame_memo[func]
        blame_memo[func] = {OTHER: 1.0}  # breaks caller cycles
        callers = stats[func][4] if func in stats else {}
        weight = sum(edge[3] for edge in callers.values())
        if depth >= _MAX_DEPTH or weight <= 0.0:
            return blame_memo[func]
        shares = {}
        for caller, edge in callers.items():
            for name, share in blame(caller, depth + 1).items():
                shares[name] = shares.get(name, 0.0) + share * edge[3] / weight
        blame_memo[func] = shares
        return shares

    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    total = 0.0
    for func, (_cc, nc, tt, _ct, callers) in stats.items():
        total += tt
        own = layer[func]
        if own is not None:
            self_s[own] = self_s.get(own, 0.0) + tt
            calls[own] = calls.get(own, 0) + nc
            continue
        edge_tt = sum(edge[2] for edge in callers.values())
        if edge_tt <= 0.0:
            self_s[OTHER] = self_s.get(OTHER, 0.0) + tt
            continue
        for caller, edge in callers.items():
            part = tt * edge[2] / edge_tt
            for name, share in blame(caller, 1).items():
                self_s[name] = self_s.get(name, 0.0) + part * share
    self_s.setdefault("hostbench", 0.0)
    self_s.setdefault(OTHER, 0.0)
    extra = sorted(name for name in self_s
                   if name not in LAYERS and name not in ("hostbench", OTHER))
    rows = []
    for name in LAYERS + tuple(extra) + ("hostbench", OTHER):
        rows.append({"layer": name, "self_s": self_s[name],
                     "calls": calls.get(name, 0),
                     "share": self_s[name] / total if total else 0.0})
    return rows, total
