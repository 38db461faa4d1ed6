"""``python -m repro`` — demos and introspection tools.

Subcommands::

    python -m repro               # the classic one-minute demo
    python -m repro demo          # same, explicitly
    python -m repro netstat       # canned world, netstat-style report
    python -m repro probe         # metrics-enabled TCP transfer: cwnd
                                  # time series + telemetry summary
    python -m repro forensics     # render a tailstudy --forensics
                                  # document: attribution + exemplars
    python -m repro ops           # one unified ops report: sessions,
                                  # control plane, metrics, tracer
                                  # health, islands, flight recorder
    python -m repro profile X     # run bench harness X under cProfile,
                                  # print the top-N cumulative table

``netstat`` and ``probe`` build a small canned world, run a workload,
and pretty-print what the observability layers saw.  ``probe`` can also
export the tcp_probe series (``--jsonl``/``--csv``) and emit a
markdown summary for CI step summaries (``--markdown``).  ``forensics``
consumes a JSON document produced by ``python -m repro.analysis.tailstudy
--forensics``: it prints the chosen cell's latency-attribution table and
its slowest exemplar's critical path as a text timeline, and can export
the exemplar as a chrome://tracing document (``--chrome``).

For the full evaluation, run ``pytest benchmarks/ --benchmark-only`` or
``python -m repro.analysis.report``.
"""

import argparse
import sys

from repro.analysis.netstat import format_report, host_report
from repro.apps.ttcp import ttcp
from repro.core.sockets import SOCK_STREAM
from repro.net.addr import ip_aton
from repro.world.configs import CONFIGS, build_network


def demo_exchange():
    print("=" * 64)
    print("Protocol Service Decomposition (Maeda & Bershad, SOSP 1993)")
    print("=" * 64)
    network, pa, pb = build_network("library-shm-ipf")
    api_a = pa.new_app(name="server-app")
    api_b = pb.new_app(name="client-app")
    ready = network.sim.event()
    midpoint = network.sim.event()

    def server():
        fd = yield from api_a.socket(SOCK_STREAM)
        yield from api_a.bind(fd, 7000)
        yield from api_a.listen(fd)
        ready.succeed()
        cfd, _ = yield from api_a.accept(fd)
        data = yield from api_a.recv_exactly(cfd, 4096)
        midpoint.succeed()
        yield from api_a.send_all(cfd, data)

    def client():
        yield ready
        fd = yield from api_b.socket(SOCK_STREAM)
        yield from api_b.connect(fd, (ip_aton("10.0.0.1"), 7000))
        yield from api_b.send_all(fd, bytes(4096))
        yield midpoint
        yield from api_b.recv_exactly(fd, 4096)
        return "echoed 4 KB"

    _s, result = network.run_all([server(), client()], until=60_000_000)
    print("\n%s in %.1f ms of simulated time\n" % (result,
                                                   network.sim.now / 1000))
    print(format_report(host_report(pa)))
    print()


def demo_throughput():
    print("=" * 64)
    print("Table 2 in miniature — ttcp, 1 MB, simulated 10 Mb/s Ethernet")
    print("=" * 64)
    for key in ("mach25", "ux", "library-shm-ipf"):
        network, pa, pb = build_network(key)
        result = ttcp(network, pb, pa, total_bytes=1024 * 1024,
                      rcvbuf_kb=CONFIGS[key].best_rcvbuf_kb)
        print("%-34s %5.0f KB/s   (paper: %d)"
              % (CONFIGS[key].label, result.throughput_kbs,
                 CONFIGS[key].paper["tput"]))
    print()
    print("Full evaluation: pytest benchmarks/ --benchmark-only")


def cmd_demo(_args):
    demo_exchange()
    demo_throughput()
    return 0


def cmd_netstat(args):
    """Run a short transfer with telemetry on, then report both hosts."""
    network, pa, pb = build_network(args.config)
    network.metrics.enable()
    result = ttcp(network, pb, pa, total_bytes=args.bytes,
                  rcvbuf_kb=CONFIGS[args.config].best_rcvbuf_kb)
    print("%s: moved %d bytes at %.0f KB/s (simulated)\n"
          % (args.config, result.bytes_moved, result.throughput_kbs))
    for placement in (pa, pb):
        print(format_report(host_report(placement)))
        print()
    return 0


def _ascii_chart(points, width=64, height=12):
    """Plot (t, value) points as a crude terminal chart."""
    numeric = [(t, v) for t, v in points if isinstance(v, (int, float))]
    if len(numeric) < 2:
        return "(not enough samples to chart)"
    t0, t1 = numeric[0][0], numeric[-1][0]
    vmax = max(v for _t, v in numeric)
    vmin = min(v for _t, v in numeric)
    span_t = (t1 - t0) or 1.0
    span_v = (vmax - vmin) or 1.0
    grid = [[" "] * width for _ in range(height)]
    for t, v in numeric:
        x = min(width - 1, int((t - t0) / span_t * (width - 1)))
        y = min(height - 1, int((v - vmin) / span_v * (height - 1)))
        grid[height - 1 - y][x] = "*"
    lines = []
    for i, row in enumerate(grid):
        label = vmax if i == 0 else (vmin if i == height - 1 else None)
        prefix = "%8s |" % ("%g" % label if label is not None else "")
        lines.append(prefix + "".join(row))
    lines.append(" " * 9 + "+" + "-" * width)
    lines.append(" " * 10 + "t=%.0fus .. %.0fus" % (t0, t1))
    return "\n".join(lines)


def cmd_probe(args):
    from repro.analysis.timeseries import (
        export_csv,
        export_jsonl,
        probe_summary,
        probe_summary_markdown,
    )

    network, pa, pb = build_network(args.config)
    network.metrics.enable()
    result = ttcp(network, pb, pa, total_bytes=args.bytes,
                  rcvbuf_kb=CONFIGS[args.config].best_rcvbuf_kb)
    metrics = network.metrics

    if args.jsonl:
        with open(args.jsonl, "w") as handle:
            lines = export_jsonl(metrics, handle)
        print("wrote %d samples to %s" % (lines, args.jsonl),
              file=sys.stderr)
    if args.csv:
        with open(args.csv, "w", newline="") as handle:
            rows = export_csv(metrics, handle)
        print("wrote %d rows to %s" % (rows, args.csv), file=sys.stderr)

    if args.markdown:
        print("### tcp_probe summary (%s, %d bytes, %.0f KB/s simulated)"
              % (args.config, result.bytes_moved, result.throughput_kbs))
        print()
        print(probe_summary_markdown(metrics), end="")
        return 0

    print("%s: moved %d bytes at %.0f KB/s (simulated)\n"
          % (args.config, result.bytes_moved, result.throughput_kbs))
    summary = probe_summary(metrics)
    for name in sorted(summary):
        row = summary[name]
        print("%-36s %5d samples  cwnd %s..%s  srtt %s..%s"
              % (name, row["samples"],
                 row["cwnd"]["min"], row["cwnd"]["max"],
                 row["srtt"]["min"], row["srtt"]["max"]))
    # Chart the busiest connection's congestion window.
    busiest = max(metrics.tcp_probes, default=None,
                  key=lambda p: p.series.recorded)
    if busiest is not None and busiest.series.samples:
        print("\ncwnd over time — %s" % busiest.series.name)
        print(_ascii_chart(busiest.series.column("cwnd")))
    return 0


#: ``profile tailcell``: the seeded two-site, 48-host WAN tail-study
#: cell — every host a client, moderate load.
TAILCELL_TOPOLOGY = dict(kind="wan", hosts=48, seed=11, hosts_per_edge=8,
                         spines=2, sites=2, router_speedup=8.0)
TAILCELL_WORKLOAD = dict(proto="udp", seed=11, clients=0, fanout=2,
                         request_bytes=64, reply_bytes=200,
                         size_dist="fixed", window_us=400_000.0,
                         drain_us=300_000.0)
TAILCELL_LOAD = 0.15


def cmd_profile(args):
    """Run a named bench harness (or the WAN tail cell) under cProfile."""
    import cProfile
    import pstats

    from repro.analysis import bench_json

    def tail_cell():
        from repro.analysis import tailstudy

        tailstudy.run_cell(TAILCELL_TOPOLOGY, TAILCELL_WORKLOAD,
                           "mach25", TAILCELL_LOAD)

    targets = {name: harness
               for name, (_message, harness) in bench_json.HARNESSES.items()}
    targets["tailcell"] = tail_cell
    if args.harness not in targets:
        print("profile: unknown harness %r (choose from: %s)"
              % (args.harness, ", ".join(sorted(targets))), file=sys.stderr)
        return 2

    profiler = cProfile.Profile()
    profiler.enable()
    targets[args.harness]()
    profiler.disable()

    stats = pstats.Stats(profiler)
    total_calls = stats.total_calls
    rows = sorted(stats.stats.items(), key=lambda kv: kv[1][3], reverse=True)
    print("### cProfile — %s (%s total calls)"
          % (args.harness, "{:,}".format(total_calls)))
    print()
    print("| ncalls | tottime s | cumtime s | function |")
    print("|---|---|---|---|")
    for (filename, lineno, name), value in rows[:args.top]:
        cc, nc, tt, ct, _callers = value
        where = ("%s:%d:%s" % (filename.rpartition("/")[2], lineno, name)
                 if lineno else name)
        ncalls = "{:,}".format(nc) if nc == cc \
            else "{:,}/{:,}".format(nc, cc)
        print("| %s | %.3f | %.3f | `%s` |" % (ncalls, tt, ct, where))
    return 0


def cmd_forensics(args):
    import json

    from repro.analysis.forensics import (
        attribution_markdown,
        exemplar_chrome_trace,
        exemplar_timeline,
        top_contributors,
    )

    try:
        with open(args.json) as handle:
            doc = json.load(handle)
    except (OSError, ValueError) as exc:
        print("forensics: cannot read %s: %s" % (args.json, exc),
              file=sys.stderr)
        return 2
    cells = [r for r in doc.get("results", []) if "forensics" in r]
    if not cells:
        print("forensics: no forensic cells in %s (run tailstudy with "
              "--forensics)" % args.json, file=sys.stderr)
        return 2
    if args.placement:
        cells = [r for r in cells if r["placement"] == args.placement]
    if args.load is not None:
        cells = [r for r in cells if r["load"] == args.load]
    if not cells:
        print("forensics: no cell matches placement=%r load=%r"
              % (args.placement, args.load), file=sys.stderr)
        return 2
    cell = cells[0]
    block = cell["forensics"]
    exemplars = block["exemplars"]

    if args.summary:
        rows = top_contributors(block, k=args.top)
        print("### Top p99 contributors — %s load %.2f"
              % (cell["placement"], cell["load"]))
        print()
        print("| # | layer | cause | us | share |")
        print("|---|---|---|---|---|")
        for i, row in enumerate(rows, 1):
            share = ("%.1f%%" % (100.0 * row["share"])
                     if row["share"] is not None else "n/a")
            print("| %d | %s | %s | %.1f | %s |"
                  % (i, row["layer"], row["cause"], row["us"], share))
        return 0

    print("cell: %s load %.2f — p99 %s us (%d completed, %d censored; "
          "sampling 1-in-%d)"
          % (cell["placement"], cell["load"], cell["latency_us"]["p99"],
             cell["completed"], cell["censored"], block["sample_every"]))
    which = "tail" if block["tail"]["rows"] else "attribution"
    print()
    print("latency attribution (%s, %d requests, %.1f us total):"
          % (which, block[which]["requests"], block[which]["total_us"]))
    print(attribution_markdown(block, which=which))
    if not exemplars:
        print("\n(no exemplars: no sampled request completed)")
        return 1
    exemplar = exemplars[0]
    print()
    print(exemplar_timeline(exemplar))
    if args.chrome:
        with open(args.chrome, "w") as handle:
            json.dump(exemplar_chrome_trace(exemplar), handle, indent=2,
                      sort_keys=True)
            handle.write("\n")
        print("\nwrote chrome trace to %s (open in chrome://tracing)"
              % args.chrome, file=sys.stderr)
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Demos and introspection for the simulated world.")
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("demo", help="the one-minute demo (default)")

    p_netstat = sub.add_parser(
        "netstat", help="run a canned transfer, print netstat reports")
    p_netstat.add_argument("--config", default="library-shm-ipf",
                           choices=sorted(CONFIGS),
                           help="world configuration (default %(default)s)")
    p_netstat.add_argument("--bytes", type=int, default=256 * 1024,
                           help="transfer size (default %(default)s)")

    p_probe = sub.add_parser(
        "probe", help="metrics-enabled TCP transfer; tcp_probe series")
    p_probe.add_argument("--config", default="library-shm-ipf",
                         choices=sorted(CONFIGS),
                         help="world configuration (default %(default)s)")
    p_probe.add_argument("--bytes", type=int, default=512 * 1024,
                         help="transfer size (default %(default)s)")
    p_probe.add_argument("--jsonl", metavar="PATH",
                         help="export every series as JSON Lines")
    p_probe.add_argument("--csv", metavar="PATH",
                         help="export every series as long-format CSV")
    p_probe.add_argument("--markdown", action="store_true",
                         help="print only a markdown summary table "
                              "(for CI step summaries)")

    p_profile = sub.add_parser(
        "profile", help="run a bench harness under cProfile; top-N table")
    p_profile.add_argument("harness", metavar="HARNESS",
                           help="a bench harness name (see "
                                "repro.analysis.bench_json) or 'tailcell' "
                                "for the seeded 2-site WAN tail-study cell")
    p_profile.add_argument("--top", type=int, default=20,
                           help="rows in the table (default %(default)s)")

    p_forensics = sub.add_parser(
        "forensics", help="render a tailstudy --forensics document")
    p_forensics.add_argument("json", metavar="TAILSTUDY_JSON",
                             help="document from tailstudy --forensics")
    p_forensics.add_argument("--placement", default=None,
                             help="select the cell by placement key")
    p_forensics.add_argument("--load", type=float, default=None,
                             help="select the cell by offered load")
    p_forensics.add_argument("--chrome", metavar="PATH",
                             help="write the exemplar as a chrome trace")
    p_forensics.add_argument("--summary", action="store_true",
                             help="print only the top-contributors "
                                  "markdown (for CI step summaries)")
    p_forensics.add_argument("--top", type=int, default=3,
                             help="contributors in --summary "
                                  "(default %(default)s)")

    sub.add_parser(
        "ops", add_help=False,
        help="one unified ops report (see repro.analysis.opsreport)")

    if argv is None:
        argv = sys.argv[1:]
    if argv[:1] == ["ops"]:
        # The ops report owns its own argument parser.
        from repro.analysis.opsreport import main as ops_main
        return ops_main(argv[1:])

    args = parser.parse_args(argv)
    if args.command == "netstat":
        return cmd_netstat(args)
    if args.command == "probe":
        return cmd_probe(args)
    if args.command == "profile":
        return cmd_profile(args)
    if args.command == "forensics":
        return cmd_forensics(args)
    return cmd_demo(args)


if __name__ == "__main__":
    sys.exit(main())
