"""Headless JSON bench runner and perf-regression comparator.

Runs the paper's Table 1-4 and Figure 1 harnesses without pytest and
emits one schema-versioned JSON document::

    python -m repro.analysis.bench_json -o BENCH.json

Because the simulator is deterministic, every metric except the
wall-clock keys (``wall_clock_seconds`` and the per-harness
``wallclock`` block) is exactly reproducible; any drift between two
runs of the same code is a real behavioural change.  CI compares a fresh
run against ``benchmarks/baseline.json`` and fails on >1% relative
drift of any simulated metric::

    python -m repro.analysis.bench_json --against BENCH.json \\
        --compare benchmarks/baseline.json

After an *intentional* performance change, regenerate the baseline and
commit it:

    PYTHONPATH=src python -m repro.analysis.bench_json -o benchmarks/baseline.json
"""

import argparse
import json
import sys
import time

from repro.analysis.experiments import (
    run_crossings,
    run_proxy_calls,
    run_table2,
)
from repro.analysis.tracing import run_traced_breakdown
from repro.stack.instrument import Layer
from repro.world.configs import DECSTATION_ROWS, GATEWAY_ROWS

#: Bump on any structural change to the emitted document.
SCHEMA = "repro-bench/1"

#: Keys excluded from regression comparison: wall-clock keys are
#: non-deterministic; "metrics" is the optional telemetry block
#: (deterministic, but only present when --metrics is passed, so the
#: gate must not flag its absence from the baseline).
VOLATILE_KEYS = ("wall_clock_seconds", "wallclock", "metrics")

#: Default relative drift tolerance for the CI gate.
DEFAULT_TOLERANCE = 0.01

NEWAPI_KEYS = ("library-ipc", "library-shm", "library-shm-ipf",
               "library-newapi-ipc", "library-newapi-shm",
               "library-newapi-shm-ipf")

TABLE4_SYSTEMS = ("mach25", "ux", "library-shm-ipf")
TABLE4_SIZES = (1, 1472)
FIGURE1_SYSTEMS = ("mach25", "ux", "library-shm-ipf")


def _latency_entry(result):
    return {
        "mean_us": result.mean_rtt_us,
        "p50_us": result.p50_rtt_us,
        "p95_us": result.p95_rtt_us,
        "p99_us": result.p99_rtt_us,
    }


def _table2_entry(row):
    return {
        "throughput_kbs": row.throughput_kbs,
        "tcp_rtt": {str(s): _latency_entry(r)
                    for s, r in sorted(row.tcp_latency.items())},
        "udp_rtt": {str(s): _latency_entry(r)
                    for s, r in sorted(row.udp_latency.items())},
    }


def _h_table1():
    return {"table1_proxy_rpcs": run_proxy_calls()}


def _h_table2_decstation():
    rows = run_table2(DECSTATION_ROWS, platform="decstation",
                      total_bytes=1024 * 1024, rounds=40,
                      tcp_sizes=(1, 1460), udp_sizes=(1, 1472))
    return {"table2_decstation": {r.key: _table2_entry(r) for r in rows}}


def _h_table2_gateway():
    rows = run_table2(GATEWAY_ROWS, platform="gateway",
                      total_bytes=512 * 1024, rounds=20,
                      tcp_sizes=(1,), udp_sizes=(1,))
    return {"table2_gateway": {r.key: _table2_entry(r) for r in rows}}


def _h_table3_newapi():
    rows = run_table2(NEWAPI_KEYS, platform="decstation",
                      total_bytes=1024 * 1024, rounds=20,
                      tcp_sizes=(1460,), udp_sizes=(1472,))
    return {"table3_newapi": {r.key: _table2_entry(r) for r in rows}}


def _h_table4():
    table4 = {}
    trace_stats = {"spans": 0, "traces": 0}
    for key in TABLE4_SYSTEMS:
        per_size = {}
        for size in TABLE4_SIZES:
            result = run_traced_breakdown(key, "udp", size, rounds=100)
            per_size[str(size)] = {
                layer: result.breakdown[layer]
                for layer in Layer.SEND_PATH + Layer.RECEIVE_PATH
            }
            per_size[str(size)]["send_path_total"] = (
                result.breakdown["send path total"])
            per_size[str(size)]["receive_path_total"] = (
                result.breakdown["receive path total"])
            per_size[str(size)]["rtt"] = _latency_entry(result.rtt)
            trace_stats["spans"] += result.spans
            trace_stats["traces"] += result.traces
        table4[key] = per_size
    return {"table4_udp_us": table4, "trace_volume": trace_stats}


def _h_figure1():
    return {"figure1": {key: run_crossings(key) for key in FIGURE1_SYSTEMS}}


#: Named bench harnesses, in document order.  Each entry is
#: (progress message, zero-argument callable returning the document
#: keys it contributes).  Shared by :func:`collect` and the
#: ``python -m repro profile`` CLI.
HARNESSES = {
    "table1_proxy_rpcs": ("table 1: proxy interface ...", _h_table1),
    "table2_decstation": ("table 2: DECstation rows ...",
                          _h_table2_decstation),
    "table2_gateway": ("table 2: Gateway rows ...", _h_table2_gateway),
    "table3_newapi": ("table 3: NEWAPI rows ...", _h_table3_newapi),
    "table4_udp_us": ("table 4: trace-derived breakdowns ...", _h_table4),
    "figure1": ("figure 1: crossing counts ...", _h_figure1),
}


def collect(log=None):
    """Run every harness; returns the BENCH document as a dict."""
    def say(msg):
        if log is not None:
            log(msg)

    wall_start = time.monotonic()
    doc = {"schema": SCHEMA}
    #: Per-harness wall-clock metadata.  Volatile (see VOLATILE_KEYS):
    #: the CI drift gate ignores it, but keeping it in the document lets
    #: CI and humans track where the runner's time goes.
    harness_seconds = {}
    mark = time.monotonic()

    def lap(label):
        nonlocal mark
        now = time.monotonic()
        harness_seconds[label] = round(now - mark, 3)
        mark = now

    for name, (message, harness) in HARNESSES.items():
        say(message)
        doc.update(harness())
        lap(name)

    total = round(time.monotonic() - wall_start, 3)
    doc["wall_clock_seconds"] = total
    doc["wallclock"] = {
        "total_seconds": total,
        "harness_seconds": harness_seconds,
    }
    return doc


def collect_metrics_block(config_key="library-shm-ipf", platform="decstation",
                          total_bytes=512 * 1024):
    """One telemetry-enabled TCP transfer, condensed for the BENCH doc.

    Separate from :func:`collect` (which runs everything with telemetry
    off, keeping BENCH.json byte-identical to the baseline): this block
    only appears under the volatile ``metrics`` key when the runner is
    invoked with ``--metrics``.
    """
    from repro.analysis.timeseries import probe_summary
    from repro.apps.ttcp import ttcp
    from repro.world.configs import CONFIGS, build_network

    net, src, dst = build_network(config_key, platform=platform)
    net.metrics.enable()
    result = ttcp(net, src, dst, total_bytes=total_bytes,
                  rcvbuf_kb=CONFIGS[config_key].best_rcvbuf_kb)
    snap = net.metrics.snapshot()
    return {
        "config": config_key,
        "throughput_kbs": result.throughput_kbs,
        "tcp_probes": probe_summary(net.metrics),
        "rtt_ticks": snap["histograms"].get("tcp.rtt_ticks"),
        "gauges": snap["gauges"],
    }


# ----------------------------------------------------------------------
# Regression comparison
# ----------------------------------------------------------------------

def _walk(baseline, current, path, problems, tolerance):
    if isinstance(baseline, dict):
        if not isinstance(current, dict):
            problems.append("%s: expected object, got %r" % (path, current))
            return
        for key in baseline:
            if key in VOLATILE_KEYS:
                continue
            if key not in current:
                problems.append("%s.%s: missing from current run" % (path, key))
                continue
            _walk(baseline[key], current[key], "%s.%s" % (path, key),
                  problems, tolerance)
        for key in current:
            if key not in baseline and key not in VOLATILE_KEYS:
                problems.append("%s.%s: not in baseline" % (path, key))
        return
    if isinstance(baseline, bool) or not isinstance(baseline, (int, float)):
        if baseline != current:
            problems.append("%s: baseline %r != current %r"
                            % (path, baseline, current))
        return
    if not isinstance(current, (int, float)) or isinstance(current, bool):
        problems.append("%s: expected number, got %r" % (path, current))
        return
    denom = max(abs(baseline), 1e-12)
    drift = abs(current - baseline) / denom
    if drift > tolerance:
        problems.append("%s: %.6g -> %.6g (%+.2f%% > ±%.0f%%)" % (
            path, baseline, current, 100.0 * (current - baseline) / denom,
            100.0 * tolerance))


def compare(baseline, current, tolerance=DEFAULT_TOLERANCE):
    """All simulated metrics of ``current`` within ``tolerance`` of
    ``baseline``.  Returns a list of human-readable problem strings."""
    problems = []
    _walk(baseline, current, "$", problems, tolerance)
    return problems


# ----------------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.bench_json",
        description="Run the paper's bench harnesses headless; emit/compare "
                    "a schema-versioned BENCH.json.",
    )
    parser.add_argument("-o", "--output", metavar="PATH",
                        help="write the BENCH document here "
                             "(default: stdout)")
    parser.add_argument("--compare", metavar="BASELINE",
                        help="compare against a baseline document; exit 1 "
                             "on >tolerance drift of any simulated metric")
    parser.add_argument("--against", metavar="BENCH",
                        help="with --compare: use this previously generated "
                             "document instead of running the harnesses")
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                        help="relative drift tolerance (default %(default)s)")
    parser.add_argument("--metrics", action="store_true",
                        help="append a telemetry block (one metrics-enabled "
                             "TCP run) under the volatile 'metrics' key; "
                             "the drift gate ignores it")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="suppress progress messages")
    args = parser.parse_args(argv)

    log = None if args.quiet else lambda m: print(m, file=sys.stderr)

    if args.against:
        with open(args.against) as handle:
            doc = json.load(handle)
    else:
        doc = collect(log=log)
    if args.metrics and "metrics" not in doc:
        if log is not None:
            log("telemetry: metrics-enabled TCP run ...")
        doc["metrics"] = collect_metrics_block()

    if args.output:
        with open(args.output, "w") as handle:
            json.dump(doc, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("wrote %s" % args.output, file=sys.stderr)
    elif not args.compare:
        json.dump(doc, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")

    if args.compare:
        with open(args.compare) as handle:
            baseline = json.load(handle)
        problems = compare(baseline, doc, tolerance=args.tolerance)
        if problems:
            print("PERF REGRESSION GATE FAILED: %d metric(s) drifted more "
                  "than ±%.0f%% from %s"
                  % (len(problems), 100.0 * args.tolerance, args.compare))
            for problem in problems:
                print("  " + problem)
            print("\nThe simulator is deterministic, so any drift is a real "
                  "behavioural change.\nIf it is intentional, regenerate the "
                  "baseline and commit it:\n\n    PYTHONPATH=src python -m "
                  "repro.analysis.bench_json -o benchmarks/baseline.json\n")
            return 1
        print("perf gate OK: all simulated metrics within ±%.0f%% of %s"
              % (100.0 * args.tolerance, args.compare))
    return 0


if __name__ == "__main__":
    sys.exit(main())
