"""The unified ops report: one document for "how is this world doing?".

Each introspection tool shows one facet: ``netstat`` the sessions and
filters, ``probe`` the tcp_probe series, ``forensics`` the request
attribution, ``chaos`` the control-plane counters.  An operator asking
"is anything wrong?" wants all of them at once.  This module folds them
into a single report:

* **exchange** — a short metrics-enabled transfer on a two-host config
  world: per-host netstat reports (sessions, filters, CPU, NIC,
  tracer/metrics health, each library app's cached-metastate
  counters) and the control-plane block (server health with the per-op
  latency histograms and slow-op log, per-app retry and
  re-registration counters), then one "send path → server" line
  totalling the metastate RPCs.
* **flight** — the exchange engine's always-on flight-recorder ring:
  how much was recorded, how much fell off, and the most recent events.
* **telemetry** — one seeded tail-study cell with forensics + metrics
  on (optionally on the multi-process island backend): latency
  percentiles, tracer health (sampling coverage, eviction counters,
  LOSSY flag), and the merged metrics registry.
* **islands** — the partition the parallel backend uses for that
  topology: islands, the cut wires, and the lookahead they guarantee.

``python -m repro ops`` renders the report as markdown (the default)
or writes the full document as JSON (``--json``).
"""

import argparse
import json
import sys

from repro.analysis.netstat import (
    control_report,
    format_report,
    format_send_path,
    host_report,
    world_send_path,
)
from repro.apps.ttcp import ttcp
from repro.world.configs import CONFIGS, build_network

#: The canned telemetry cell: a cuttable 2-site WAN, the same shape the
#: parallel-equivalence suite pins, small enough to run in seconds.
DEFAULT_TOPOLOGY = dict(kind="wan", hosts=12, seed=21, hosts_per_edge=8,
                        spines=2, sites=2, router_speedup=8.0)
DEFAULT_WORKLOAD = dict(proto="udp", seed=21, clients=0, fanout=2,
                        request_bytes=64, reply_bytes=200,
                        size_dist="fixed", window_us=200_000.0,
                        drain_us=150_000.0)
DEFAULT_LOAD = 0.1
DEFAULT_FORENSICS = dict(sample_every=4, capacity=1 << 16, exemplars=2)

#: Flight-recorder events shown in the report (the ring holds more).
FLIGHT_TAIL = 24


def gather_exchange(config, total_bytes):
    """Run a metrics-enabled transfer on a config world; report both
    hosts, every control plane, and the engine's flight ring."""
    network, pa, pb = build_network(config)
    network.metrics.enable()
    result = ttcp(network, pb, pa, total_bytes=total_bytes,
                  rcvbuf_kb=CONFIGS[config].best_rcvbuf_kb)
    flight = network.sim.flight
    return {
        "config": config,
        "bytes_moved": result.bytes_moved,
        "throughput_kbs": round(result.throughput_kbs, 3),
        "sim_us": network.sim.now,
        "hosts": [host_report(p) for p in (pa, pb)],
        "send_path": world_send_path((pa, pb)),
        "control_planes": [report for report in
                           (control_report(p) for p in (pa, pb))
                           if report is not None],
        "flight": {
            "capacity": flight.capacity,
            "recorded": flight.recorded,
            "evicted": flight.evicted,
            "events": [[t, kind, detail] for t, kind, detail
                       in list(flight.events)[-FLIGHT_TAIL:]],
        },
    }


def gather_islands(topology_args, placement):
    """The island partition the parallel backend would use."""
    from repro.sim.parallel import partition_world
    from repro.world.topology import TopologySpec, build_world

    world = build_world(TopologySpec(placement=placement, **topology_args))
    plan = partition_world(world)
    return {
        "islands": len(plan.islands),
        "parallelizable": plan.parallelizable,
        "lookahead_us": plan.lookahead_us,
        "cut_wires": sorted(plan.cut_wires),
        "sizes": sorted((len(island.hosts) for island in plan.islands),
                        reverse=True),
    }


def telemetry_health(cell):
    """The operator-facing slice of a forensic tail-study cell."""
    block = cell["forensics"]
    return {
        "backend": cell["backend"],
        "issued": cell["issued"],
        "completed": cell["completed"],
        "censored": cell["censored"],
        "latency_us": cell["latency_us"],
        "host_seconds": {"record": cell["wallclock_seconds"],
                         "analysis": cell["analysis_seconds"]},
        "tracer": {
            "requests_seen": block["requests_seen"],
            "requests_sampled": block["requests_sampled"],
            "sampled_completed": block["sampled_completed"],
            "spans_evicted": block["spans_evicted"],
            "lossy": block["lossy"],
            "attribution_exact": block["attribution_exact"],
        },
        "metrics_registered": {kind: len(cell["metrics"][kind])
                               for kind in sorted(cell["metrics"])},
    }


def gather_ops(config="library-shm-ipf", total_bytes=256 * 1024,
               topology_args=None, workload_args=None, placement="mach25",
               load=DEFAULT_LOAD, parallel=0, forensics=None):
    """Build the full ops document (a JSON-ready dict)."""
    from repro.analysis.tailstudy import run_cell

    topology_args = dict(DEFAULT_TOPOLOGY, **(topology_args or {}))
    workload_args = dict(DEFAULT_WORKLOAD, **(workload_args or {}))
    forensics = dict(DEFAULT_FORENSICS, **(forensics or {}))
    exchange = gather_exchange(config, total_bytes)
    cell = run_cell(topology_args, workload_args, placement, load,
                    forensics=forensics, parallel=parallel, metrics=True)
    return {
        "exchange": exchange,
        "islands": gather_islands(topology_args, placement),
        "telemetry": telemetry_health(cell),
        "cell": cell,
    }


def ops_markdown(report):
    """Render the ops document as markdown."""
    lines = []
    exchange = report["exchange"]
    lines.append("# Ops report")
    lines.append("")
    lines.append("## Exchange — %s, %d bytes at %.0f KB/s (simulated)"
                 % (exchange["config"], exchange["bytes_moved"],
                    exchange["throughput_kbs"]))
    # format_report renders each host's control-plane block inline, so
    # the structured ``control_planes`` list is JSON-only detail here.
    for host in exchange["hosts"]:
        lines.append("")
        lines.append("```")
        lines.append(format_report(host))
        lines.append("```")
    if exchange["send_path"] is not None:
        lines.append("")
        lines.append(format_send_path(exchange["send_path"]))

    flight = exchange["flight"]
    lines.append("")
    lines.append("## Flight recorder — %d recorded, %d evicted "
                 "(capacity %d)" % (flight["recorded"], flight["evicted"],
                                    flight["capacity"]))
    lines.append("")
    lines.append("```")
    for t, kind, detail in flight["events"]:
        lines.append("%16.3f us  %-12s %s" % (t, kind, detail))
    if not flight["events"]:
        lines.append("(empty ring)")
    lines.append("```")

    islands = report["islands"]
    lines.append("")
    lines.append("## Island partition — %d island(s), %s"
                 % (islands["islands"],
                    "parallelizable" if islands["parallelizable"]
                    else "not parallelizable"))
    lines.append("")
    lines.append("- lookahead: %.1f us" % islands["lookahead_us"])
    lines.append("- hosts per island: %s" % (islands["sizes"] or "-"))
    lines.append("- cut wires: %s"
                 % (", ".join(islands["cut_wires"]) or "(none)"))

    tele = report["telemetry"]
    backend = tele["backend"]
    mode = backend["mode"]
    if backend["workers"]:
        mode += " (%d workers)" % backend["workers"]
    if backend["fallback"]:
        mode += " — fell back: %s" % backend["fallback"]
    lines.append("")
    lines.append("## Telemetry cell — backend %s" % mode)
    lines.append("")
    lines.append("- requests: %d issued, %d completed, %d censored"
                 % (tele["issued"], tele["completed"], tele["censored"]))
    latency = tele["latency_us"]
    lines.append("- latency: " + ", ".join(
        "%s %s us" % (name, latency[name]) for name in sorted(latency)))
    tracer = tele["tracer"]
    lines.append("- tracer: %d/%d requests sampled, %d sampled "
                 "completed; %d spans evicted%s%s"
                 % (tracer["requests_sampled"], tracer["requests_seen"],
                    tracer["sampled_completed"], tracer["spans_evicted"],
                    " [LOSSY]" if tracer["lossy"] else "",
                    "" if tracer["attribution_exact"]
                    else " (attribution approximate)"))
    lines.append("- metrics registered: " + ", ".join(
        "%d %s" % (count, kind)
        for kind, count in sorted(tele["metrics_registered"].items())))
    lines.append("- host cost: %.3f s recording the cell, %.3f s "
                 "analysing its traces"
                 % (tele["host_seconds"]["record"],
                    tele["host_seconds"]["analysis"]))
    lines.append("")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro ops",
        description="One unified ops report: sessions, control plane, "
                    "metrics, tracer health, islands, flight recorder.")
    parser.add_argument("--config", default="library-shm-ipf",
                        choices=sorted(CONFIGS),
                        help="exchange world (default %(default)s)")
    parser.add_argument("--bytes", type=int, default=256 * 1024,
                        help="exchange transfer size (default %(default)s)")
    parser.add_argument("--parallel", type=int, default=0, metavar="N",
                        help="run the telemetry cell on N island workers")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the telemetry cell's seed")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write the full document as JSON")
    args = parser.parse_args(argv)

    topology_args = {}
    workload_args = {}
    if args.seed is not None:
        topology_args["seed"] = args.seed
        workload_args["seed"] = args.seed
    report = gather_ops(config=args.config, total_bytes=args.bytes,
                        topology_args=topology_args,
                        workload_args=workload_args,
                        parallel=args.parallel)
    print(ops_markdown(report))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print("wrote %s" % args.json, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
