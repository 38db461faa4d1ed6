"""Tail-latency-versus-load study over scale-out worlds.

The paper argues protocol placement by *mean* two-host latency; the
question a service designer actually asks is what happens to the tail
when many hosts share the fabric.  This harness sweeps offered load over
seeded topologies (:mod:`repro.world.topology`) driving the open-loop
RPC workload (:mod:`repro.world.workload`) for each protocol placement,
and reports p50/p95/p99/p99.9 request latency per (placement, load)
cell — one command, one JSON document::

    PYTHONPATH=src python -m repro.analysis.tailstudy \\
        --topology star --hosts 60 \\
        --placements mach25,ux,library-shm \\
        --loads 0.1,0.3,0.5 -o tail.json --markdown

Load is expressed as the fraction of a client's access-link capacity its
own request+reply traffic would consume: at ``--loads 1.0`` each
client's offered bytes equal what its 10 Mb/s leaf can carry.  The link
anchor keeps the offered byte stream identical across placements, so a
placement's tail reflects only its protocol-processing efficiency.  Note
that hosts saturate on CPU long before the wire fills — every host is
both a client and a server, and per-packet protocol costs on the
period's hardware dominate transmission time — so the interesting
dynamic range sits at nominal loads well below 1.0 (the default sweep
tops out at 0.3).  Every cell builds a fresh world from the same
topology seed, so placements see byte-identical fabrics and schedules;
the whole sweep is deterministic for a given argument vector (the
``wallclock_seconds`` / ``analysis_seconds`` fields aside).
"""

import argparse
import json
import sys
import time

from repro.analysis.forensics import attribution_markdown, cell_forensics
from math import fsum

from repro.analysis.netstat import world_send_path
from repro.analysis.timeseries import percentiles
from repro.hw.wire import frame_wire_bytes
from repro.metrics.registry import state_cell_block
from repro.sim.parallel import (
    harden_cut_wires,
    parallel_note,
    partition_world,
    run_parallel_workload,
)
from repro.trace import RequestTracer
from repro.world.configs import CONFIGS
from repro.world.topology import (
    TOPOLOGY_KINDS,
    TopologySpec,
    build_world,
    warm_arp,
)
from repro.world.workload import (
    WorkloadSpec,
    run_workload,
    settle_telemetry,
)

SCHEMA = "repro-tailstudy/1"

#: Reported percentiles (keys in the JSON latency summary).
PERCENTILES = ((0.5, "p50"), (0.95, "p95"), (0.99, "p99"), (0.999, "p999"))

#: Ethernet + IP + UDP header bytes ahead of the RPC payload.
_WIRE_HEADERS = 14 + 20 + 8


def rate_for_load(load, spec_args):
    """Requests/second per client so its traffic offers ``load`` of the
    access link."""
    request = frame_wire_bytes(_WIRE_HEADERS + spec_args["request_bytes"])
    reply = frame_wire_bytes(_WIRE_HEADERS + spec_args["reply_bytes"])
    us_per_request = (
        (request + reply) * spec_args["fanout"] * spec_args["us_per_byte"])
    return load / us_per_request * 1_000_000.0


def run_cell(topology_args, workload_args, placement, load,
             forensics=None, parallel=0, metrics=False):
    """One (placement, load) cell: fresh world, one workload run.

    ``forensics`` (a dict of ``sample_every`` / ``capacity`` /
    ``exemplars``) turns on sampled request tracing for the run and
    adds a per-cell latency-attribution block to the result.
    ``metrics`` adds a per-cell block of the world's metrics registry
    (counters, gauges, histograms, tcp_probe series).

    ``parallel`` >= 2 asks for the multi-process island backend
    (:mod:`repro.sim.parallel`): the world is cut at router-to-router
    links and each group of islands runs in its own worker process.
    Results — including forensics attribution and merged metrics — are
    bit-identical to the single-process run; worlds with no extractable
    islands (e.g. a star) and TCP workloads fall back to
    single-process, with the reason both noted on stderr and recorded
    in the cell's ``backend`` block.  Every mode — including plain
    single-process — runs the plan's cut wires full duplex, so the two
    backends stay schedule-equivalent.
    """
    cell_start = time.monotonic()
    tspec = TopologySpec(placement=placement, **topology_args)
    world = build_world(tspec)
    plan = partition_world(world)
    harden_cut_wires(world, plan)
    warm_arp(world)
    rt = None
    if forensics is not None:
        world.tracer.enable(capacity=forensics["capacity"])
        rt = RequestTracer(world.tracer,
                           sample_every=forensics["sample_every"],
                           seed=topology_args["seed"])
    if metrics:
        world.metrics.enable()
    telemetry = None
    if forensics is not None or metrics:
        telemetry = {
            "forensics": (None if forensics is None else {
                "sample_every": forensics["sample_every"],
                "capacity": forensics["capacity"],
                "seed": topology_args["seed"],
            }),
            "metrics": bool(metrics),
        }
    rate = rate_for_load(load, dict(workload_args,
                                    us_per_byte=tspec.us_per_byte))
    wspec = WorkloadSpec(rate_per_client=float(rate), **workload_args)

    outcome = None
    backend = {"mode": "single", "workers": None, "fallback": None}
    if parallel and parallel >= 2:
        if wspec.proto != "udp":
            backend["fallback"] = "TCP start-up synchronizes in process"
        elif not plan.parallelizable:
            backend["fallback"] = ("no islands to cut in this %s world"
                                   % tspec.kind)
        else:
            outcome = run_parallel_workload(
                topology_args, placement, wspec, plan, parallel,
                log=lambda m: print("tailstudy: %s" % m,
                                    file=sys.stderr),
                telemetry=telemetry)
            if outcome is None:
                backend["fallback"] = "plan packs into a single worker"
        if backend["fallback"] is not None:
            parallel_note(backend["fallback"])
    merged = None
    if outcome is not None:
        result, fingerprint, nworkers, merged = outcome
        backend["mode"] = "parallel"
        backend["workers"] = nworkers
    else:
        t0 = world.sim.now
        result = run_workload(world, wspec, request_tracer=rt)
        fingerprint = world.fingerprint()
        if telemetry is not None:
            # Same canonical snapshot instant the island workers use.
            settle_telemetry(
                world.sim,
                t0 + 1000.0 + wspec.window_us + wspec.drain_us)

    pcts = percentiles(result.latencies_us,
                       tuple(p for p, _name in PERCENTILES))
    samples = result.latencies_us
    cell = {
        "placement": placement,
        "load": load,
        "rate_per_client": round(rate, 6),
        "issued": result.issued,
        "completed": result.completed,
        "censored": result.censored,
        # fsum: correctly rounded regardless of summation order, so the
        # mean is identical however the backends interleave completions.
        "mean_us": (round(fsum(samples) / len(samples), 3)
                    if samples else None),
        "latency_us": {
            name: (None if pcts[p] is None else round(pcts[p], 3))
            for p, name in PERCENTILES
        },
        "world_fingerprint": fingerprint,
        "wallclock_seconds": round(time.monotonic() - cell_start, 3),
    }
    if forensics is not None:
        tracer_view, requests_view = world.tracer, rt
        if merged is not None:
            tracer_view = merged["trace"]
            requests_view = merged["requests"]
        analysis_start = time.monotonic()
        cell["forensics"] = cell_forensics(
            tracer_view, requests_view, p99_us=pcts[0.99],
            exemplar_cap=forensics["exemplars"])
        # wallclock_seconds above is what recording cost (build + run);
        # this is what turning the rings into blame cost on top of it.
        cell["analysis_seconds"] = round(
            time.monotonic() - analysis_start, 3)
    if metrics:
        state = (merged["metrics"] if merged is not None
                 else world.metrics.export_state(island=0))
        cell["metrics"] = state_cell_block(state)
    cell["backend"] = backend
    # How often the library send paths of this cell asked the server
    # (Section 3.3).  Stripped with the backend block: the counters live
    # in the workers on the island backend, and the pinned cell digests
    # are about the simulated outcome, not about who was asked.
    cell["send_path"] = (world_send_path(world.placements)
                         if outcome is None else None)
    return cell


def strip_volatile(document):
    """A copy of a tailstudy document without wall-clock/backend keys.

    The simulated results are deterministic and backend-independent;
    wall clock, the requested worker count and the per-cell
    ``send_path`` counters (readable only where the world ran in this
    process) are not.  CI's
    parallel-equivalence gate and the determinism tests compare
    stripped documents.
    """
    doc = json.loads(json.dumps(document))
    doc.pop("wallclock_seconds", None)
    doc.pop("parallel", None)
    doc.pop("parallel_fallbacks", None)
    for cell in doc.get("results", ()):
        cell.pop("wallclock_seconds", None)
        cell.pop("analysis_seconds", None)
        cell.pop("backend", None)
        cell.pop("send_path", None)
    return doc


def wallclock_table(results):
    """Per-cell wall-clock markdown (volatile, for CI step summaries):
    seconds building and running the cell, and — for forensic cells —
    seconds analysing its rings afterwards."""
    lines = ["| placement | load | record (s) | analysis (s) |",
             "|---|---|---|---|"]
    for r in results:
        analysis = r.get("analysis_seconds")
        lines.append("| %s | %.2f | %.3f | %s |"
                     % (r["placement"], r["load"],
                        r.get("wallclock_seconds", 0.0),
                        "-" if analysis is None else "%.3f" % analysis))
    return "\n".join(lines)


def markdown_table(results):
    """A p99-versus-load table, placements across the columns.

    Each cell carries its sample counts (``n`` completed, ``c``
    censored) so a 9-request cell cannot masquerade as a 9000-request
    one.
    """
    placements = sorted({r["placement"] for r in results})
    loads = sorted({r["load"] for r in results})
    by_cell = {(r["placement"], r["load"]): r for r in results}
    lines = ["| load | " + " | ".join("%s p99 (ms)" % p
                                      for p in placements) + " |",
             "|---" * (len(placements) + 1) + "|"]
    for load in loads:
        cells = []
        for placement in placements:
            r = by_cell.get((placement, load))
            if r is None:
                cells.append("n/a")
                continue
            p99 = r["latency_us"]["p99"]
            counts = "n=%d c=%d" % (r["completed"], r["censored"])
            cells.append("%.3f (%s)" % (p99 / 1000.0, counts)
                         if p99 is not None else "n/a (%s)" % counts)
        lines.append("| %.2f | " % load + " | ".join(cells) + " |")
    return "\n".join(lines)


def forensics_markdown(results):
    """Per-cell "why is p99 slow" attribution tables (forensic cells
    only)."""
    sections = []
    for r in results:
        block = r.get("forensics")
        if block is None:
            continue
        table = "tail" if block["tail"]["rows"] else "attribution"
        sections.append(
            "### %s load %.2f — p99 attribution (%s, %d sampled "
            "requests)\n\n%s"
            % (r["placement"], r["load"], table,
               block[table]["requests"],
               attribution_markdown(block, which=table)))
    return "\n\n".join(sections)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.tailstudy",
        description="Sweep offered load; report tail latency per "
                    "placement.")
    parser.add_argument("--topology", default="star",
                        help="star | fattree | wan")
    parser.add_argument("--hosts", type=int, default=24)
    parser.add_argument("--placements",
                        default="mach25,ux,library-shm",
                        help="comma-separated placement keys")
    parser.add_argument("--loads", default="0.05,0.1,0.2,0.3",
                        help="comma-separated offered-load fractions")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--proto", default="udp", choices=("udp", "tcp"))
    parser.add_argument("--fanout", type=int, default=2)
    parser.add_argument("--clients", type=int, default=0,
                        help="client hosts (0: all hosts)")
    parser.add_argument("--request-bytes", type=int, default=64)
    parser.add_argument("--reply-bytes", type=int, default=200)
    parser.add_argument("--size-dist", default="fixed",
                        choices=("fixed", "pareto"))
    parser.add_argument("--window-us", type=float, default=2_000_000.0)
    parser.add_argument("--drain-us", type=float, default=1_000_000.0)
    parser.add_argument("--hosts-per-edge", type=int, default=8)
    parser.add_argument("--spines", type=int, default=2)
    parser.add_argument("--sites", type=int, default=2)
    parser.add_argument("--router-speedup", type=float, default=8.0)
    parser.add_argument("--parallel", type=int, default=0, metavar="N",
                        help="run each cell on the multi-process island "
                             "backend with up to N workers (results are "
                             "bit-identical to single-process; worlds "
                             "with no cuttable links fall back)")
    parser.add_argument("-o", "--output", metavar="PATH", default=None,
                        help="write the JSON document here")
    parser.add_argument("--markdown", action="store_true",
                        help="print a p99-vs-load markdown table")
    parser.add_argument("--forensics", action="store_true",
                        help="trace sampled requests; adds a per-cell "
                             "latency-attribution block")
    parser.add_argument("--metrics", action="store_true",
                        help="export the world's metrics registry "
                             "(counters/gauges/histograms/series) as a "
                             "per-cell block; island-merged under "
                             "--parallel")
    parser.add_argument("--sample-every", type=int, default=16,
                        help="trace 1-in-N request ids (default 16)")
    parser.add_argument("--trace-capacity", type=int, default=1 << 18,
                        help="span ring capacity while tracing")
    parser.add_argument("--exemplars", type=int, default=3,
                        help="slow-request exemplars kept per cell")
    args = parser.parse_args(argv)

    if args.topology not in TOPOLOGY_KINDS:
        print("tailstudy: unknown topology %r (expected one of %s)"
              % (args.topology, ", ".join(TOPOLOGY_KINDS)),
              file=sys.stderr)
        return 2
    placements = [p.strip() for p in args.placements.split(",") if p.strip()]
    for placement in placements:
        if placement not in CONFIGS:
            print("tailstudy: unknown placement %r (expected one of %s)"
                  % (placement, ", ".join(sorted(CONFIGS))),
                  file=sys.stderr)
            return 2
    try:
        loads = [float(v) for v in args.loads.split(",") if v.strip()]
    except ValueError:
        print("tailstudy: --loads must be comma-separated numbers, got %r"
              % args.loads, file=sys.stderr)
        return 2
    if not placements or not loads:
        print("tailstudy: need at least one placement and one load",
              file=sys.stderr)
        return 2
    if args.sample_every < 1:
        print("tailstudy: --sample-every must be >= 1, got %d"
              % args.sample_every, file=sys.stderr)
        return 2
    if args.parallel < 0:
        print("tailstudy: --parallel must be >= 0, got %d"
              % args.parallel, file=sys.stderr)
        return 2
    forensics = None
    if args.forensics:
        forensics = {"sample_every": args.sample_every,
                     "capacity": args.trace_capacity,
                     "exemplars": max(1, args.exemplars)}

    topology_args = dict(
        kind=args.topology, hosts=args.hosts, seed=args.seed,
        hosts_per_edge=args.hosts_per_edge, spines=args.spines,
        sites=args.sites, router_speedup=args.router_speedup,
    )
    workload_args = dict(
        proto=args.proto, seed=args.seed, clients=args.clients,
        fanout=args.fanout, request_bytes=args.request_bytes,
        reply_bytes=args.reply_bytes, size_dist=args.size_dist,
        window_us=args.window_us, drain_us=args.drain_us,
    )

    started = time.time()
    results = []
    for placement in placements:
        for load in loads:
            cell = run_cell(topology_args, workload_args, placement, load,
                            forensics=forensics, parallel=args.parallel,
                            metrics=args.metrics)
            results.append(cell)
            cost = "%.3f s" % cell["wallclock_seconds"]
            if forensics is not None:
                cost += " + %.3f s analysis" % cell["analysis_seconds"]
            print("tailstudy: %-14s load %.2f  issued %5d  completed %5d"
                  "  p99 %s us  (%s)"
                  % (placement, load, cell["issued"], cell["completed"],
                     cell["latency_us"]["p99"], cost), file=sys.stderr)

    document = {
        "schema": SCHEMA,
        "spec": {
            "topology": topology_args,
            "workload": workload_args,
            "loads": loads,
            "placements": placements,
            "forensics": {
                "enabled": forensics is not None,
                "sample_every": (args.sample_every
                                 if forensics is not None else None),
            },
            "metrics": {"enabled": bool(args.metrics)},
        },
        "results": results,
        "parallel": args.parallel,
        # Why any cell left the requested --parallel backend (volatile:
        # stripped, like "parallel", before determinism comparisons).
        "parallel_fallbacks": sorted(
            {c["backend"]["fallback"] for c in results
             if c["backend"]["fallback"]}),
        "wallclock_seconds": round(time.time() - started, 3),
    }
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(document, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if args.markdown:
        print(markdown_table(results))
        print()
        print("Per-cell wall clock (volatile):")
        print()
        print(wallclock_table(results))
        if forensics is not None:
            section = forensics_markdown(results)
            if section:
                print()
                print(section)
    empty = [r for r in results if r["completed"] == 0]
    if empty:
        print("tailstudy: %d cell(s) completed zero requests"
              % len(empty), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
