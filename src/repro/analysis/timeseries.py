"""Post-processing for telemetry time series.

Everything here operates on the plain ``(t, *fields)`` sample tuples
that :class:`repro.metrics.TimeSeries` and gauge histories hold — no
numpy, no pandas, deterministic output.  The exporters cover the three
consumers we actually have:

* JSONL (one object per sample) for offline analysis and CI artifacts,
* CSV (long format) for spreadsheets and gnuplot,
* Chrome-trace *counter* events (``ph: "C"``) that merge with the
  per-packet span trace so queue depths and cwnd render as counter
  tracks above the packet timelines in Perfetto.
"""

import csv
import io
import json


def percentiles(values, ps=(0.5, 0.9, 0.99)):
    """Exact percentiles (nearest-rank) of a value list."""
    ordered = sorted(values)
    if not ordered:
        return {p: None for p in ps}
    out = {}
    for p in ps:
        rank = max(1, int(p * len(ordered) + 0.5))
        out[p] = ordered[min(rank, len(ordered)) - 1]
    return out


def summarize(samples):
    """min/median/max/mean/count of a ``(t, value)`` series, ignoring
    non-numeric values."""
    values = [v for _t, v in samples if isinstance(v, (int, float))]
    if not values:
        return {"count": 0, "min": None, "median": None, "max": None,
                "mean": None}
    pcts = percentiles(values, (0.5,))
    return {
        "count": len(values),
        "min": min(values),
        "median": pcts[0.5],
        "max": max(values),
        "mean": sum(values) / len(values),
    }


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------


def export_jsonl(registry, fileobj):
    """Write every series as JSON Lines: one object per sample, shaped
    ``{"series": name, "t": t, <field>: value, ...}``.  Returns the
    number of lines written."""
    lines = 0
    for name, fields, samples in registry.series():
        for sample in samples:
            row = {"series": name, "t": sample[0]}
            for field, value in zip(fields, sample[1:]):
                row[field] = value
            fileobj.write(json.dumps(row, sort_keys=True) + "\n")
            lines += 1
    return lines


def export_csv(registry, fileobj):
    """Write every series in long CSV format:
    ``series,t,field,value`` — one row per (sample, field)."""
    writer = csv.writer(fileobj)
    writer.writerow(["series", "t", "field", "value"])
    rows = 0
    for name, fields, samples in registry.series():
        for sample in samples:
            for field, value in zip(fields, sample[1:]):
                writer.writerow([name, sample[0], field, value])
                rows += 1
    return rows


def chrome_counter_events(registry):
    """Telemetry as Chrome-trace counter events (``ph: "C"``).

    Each numeric series field becomes a counter track named
    ``<series>.<field>`` under a ``telemetry`` process row; merged into
    :func:`repro.trace.export.chrome_trace` output they render above
    the packet spans in Perfetto.
    """
    events = []
    for name, fields, samples in registry.series():
        for sample in samples:
            for field, value in zip(fields, sample[1:]):
                if not isinstance(value, (int, float)):
                    continue
                track = name if fields == ("value",) else "%s.%s" % (name, field)
                events.append({
                    "name": track,
                    "ph": "C",
                    "ts": sample[0],
                    "pid": "telemetry",
                    "args": {"value": value},
                })
    return events


def probe_summary(registry):
    """Per-connection cwnd/srtt summaries for every tcp_probe series.

    Returns ``{series_name: {"samples": n, "cwnd": {...}, "srtt":
    {...}}}`` with :func:`summarize` blocks, skipping empty series.
    """
    out = {}
    for probe in registry.tcp_probes:
        series = probe.series
        if not series.samples:
            continue
        out[series.name] = {
            "samples": series.recorded,
            "cwnd": summarize(series.column("cwnd")),
            "srtt": summarize(series.column("srtt")),
        }
    return out


def probe_summary_markdown(registry):
    """The :func:`probe_summary` as a GitHub-flavoured markdown table."""
    summary = probe_summary(registry)
    buf = io.StringIO()
    buf.write("| connection | samples | cwnd min/med/max | srtt min/med/max |\n")
    buf.write("|---|---|---|---|\n")
    for name in sorted(summary):
        row = summary[name]
        cwnd, srtt = row["cwnd"], row["srtt"]
        buf.write("| %s | %d | %s/%s/%s | %s/%s/%s |\n" % (
            name, row["samples"],
            cwnd["min"], cwnd["median"], cwnd["max"],
            srtt["min"], srtt["median"], srtt["max"],
        ))
    return buf.getvalue()
