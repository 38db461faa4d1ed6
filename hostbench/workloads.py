"""The six workloads, as run inside one child interpreter.

Each runner takes ``(params, seed, spans)``, does its set-up, and
returns a zero-argument ``run`` whose call is the timed region.  ``run``
returns an outcome dict::

    {"attempted": int, "failed": int, "frames": int,
     "sim": {...every simulated statistic, JSON-able...},
     "goodput_kbs": float | None, "lat_p50_us": float | None,
     "lat_p99_us": float | None, "lat_samples": int,
     "checks": {name: bool}, "counts": callable | None,
     "cell_json": str | None}

``counts`` reads the program's public counters; the caller invokes it
after the timed region so reading them is not timed.

Only public entry points of :mod:`repro` are called, and nothing here
switches a product code path.
"""

import hashlib
import json
import random
from math import fsum

from hostbench.spec import (
    COUNTS,
    P99_MIN_SAMPLES,
    PLACEMENTS,
    SIM_PLACEMENT,
)


def _latency(samples, spans):
    """``{"lat_p50_us", "lat_p99_us", "lat_samples"}`` of simulated
    latency samples, and the raw p99 (forensics wants it at any n)."""
    from repro.analysis.timeseries import percentiles

    with spans.span("analysis.percentiles_s"):
        pcts = percentiles(samples, (0.5, 0.99))
    n = len(samples)
    return {"lat_p50_us": pcts[0.5],
            "lat_p99_us": pcts[0.99] if n >= P99_MIN_SAMPLES else None,
            "lat_samples": n}, pcts[0.99]


def _counts(placements, wires, result=None):
    """The program's own public counters, read after a run."""
    from repro.analysis.netstat import fault_report, host_report

    counts = dict.fromkeys(COUNTS, 0)
    for wire in wires:
        counts["hw.frames_carried"] += fault_report(wire)["frames_carried"]
    tracers = {}
    for placement in placements:
        report = host_report(placement)
        counts["hw.cpu_charges"] += report["cpu"]["charges"]
        counts["hw.nic_drops"] += report["nic"]["frames_dropped"]
        counts["kernel.frames_demuxed"] += report["frames_demuxed"]
        # Sessions still in the table after the run (TIME_WAIT included).
        counts["net.tcp.retransmits"] += sum(
            row["retransmits"] for row in report["sessions"])
        control = report.get("control")
        if control is not None:
            counts["kernel.rpc_calls"] += sum(
                op["count"]
                for op in control["server"]["op_latency"].values())
        if "tracer" in report:
            # Hosts of one world share a recorder: count it once.
            tracers[id(placement.host.tracer)] = report["tracer"]
    for tracer in tracers.values():
        counts["trace.spans_recorded"] += tracer["spans_recorded"]
        counts["trace.spans_evicted"] += tracer["spans_evicted"]
    if result is not None:
        counts["world.requests_issued"] = result.issued
        counts["world.requests_censored"] = result.censored
    return counts


def _two_host_networks(spans):
    from repro.world.configs import build_network

    with spans.span("world.build_s"):
        return [(key,) + build_network(key) for key in PLACEMENTS]


def _two_host_outcome(nets, sim, attempted, failed, checks, spans,
                      lat_samples=(), goodput_kbs=None):
    latency = {"lat_p50_us": None, "lat_p99_us": None, "lat_samples": 0}
    if lat_samples:
        latency, _p99 = _latency(lat_samples, spans)
    return {
        **latency,
        "attempted": attempted, "failed": failed,
        "frames": sum(net.wire.frames_carried for _k, net, _a, _b in nets),
        "sim": sim, "goodput_kbs": goodput_kbs, "checks": checks,
        "counts": lambda: _counts(
            [p for _k, _net, a, b in nets for p in (a, b)],
            [net.wire for _k, net, _a, _b in nets]),
        "cell_json": None,
    }


# ----------------------------------------------------------------------
# 1. bulk_tcp
# ----------------------------------------------------------------------

def bulk_tcp(params, seed, spans):
    """``ttcp`` of ``total_bytes`` per placement.  ttcp sends its own
    canned pattern, so ``seed`` changes nothing here."""
    from repro.apps.ttcp import ttcp

    nets = _two_host_networks(spans)
    total = params["total_bytes"]

    def run():
        sim = {}
        received = 0
        with spans.span("run_s"):
            for key, net, a, b in nets:
                with spans.span("run." + key):
                    result = ttcp(net, a, b, total_bytes=total,
                                  rcvbuf_kb=a.spec.best_rcvbuf_kb)
                received += result.bytes_moved
                sim[key] = {"bytes_moved": result.bytes_moved,
                            "elapsed_us": result.elapsed_us,
                            "throughput_kbs": result.throughput_kbs,
                            "sender_elapsed_us": result.sender_elapsed_us}
        attempted = total * len(nets)
        return _two_host_outcome(
            nets, sim, attempted, attempted - received,
            {"ttcp_bytes_received_equal_sent": received == attempted},
            spans, goodput_kbs=sim[SIM_PLACEMENT]["throughput_kbs"])

    return run


# ----------------------------------------------------------------------
# 2. pingpong_small
# ----------------------------------------------------------------------

def pingpong_small(params, seed, spans):
    """``protolat`` UDP 1 B then TCP 1 B per placement.  protolat builds
    its own message, so ``seed`` changes nothing here."""
    from repro.apps.protolat import protolat

    nets = _two_host_networks(spans)
    rounds = params["rounds"]

    def run():
        sim = {}
        completed = 0
        lat = ()
        with spans.span("run_s"):
            for key, net, a, b in nets:
                with spans.span("run." + key):
                    for proto in ("udp", "tcp"):
                        result = protolat(net, a, b, proto=proto,
                                          message_size=1, rounds=rounds)
                        completed += result.rounds
                        sim["%s.%s" % (key, proto)] = {
                            "rounds": result.rounds,
                            "mean_rtt_us": result.mean_rtt_us,
                            "min_rtt_us": result.min_rtt_us,
                            "max_rtt_us": result.max_rtt_us,
                            "sum_rtt_us": fsum(result.samples)}
                        if key == SIM_PLACEMENT and proto == "udp":
                            lat = result.samples
        attempted = rounds * 2 * len(nets)
        return _two_host_outcome(
            nets, sim, attempted, attempted - completed,
            {"every_round_echoed": completed == attempted}, spans,
            lat_samples=lat)

    return run


# ----------------------------------------------------------------------
# 3. conn_churn
# ----------------------------------------------------------------------

CHURN_PORT = 5003
CHURN_BYTES = 16


def _churn(net, client_placement, server_placement, payloads):
    """One client opening, using and closing ``len(payloads)``
    connections in turn against one listener.  Returns
    ``(latencies_us, echoes_equal, sha256 of the echoes)``; a latency
    runs from ``socket`` to the return of ``close``."""
    from repro.core.sockets import SOCK_STREAM

    sim = net.sim
    client = client_placement.new_app(name="churn-c")
    server = server_placement.new_app(name="churn-s")
    server_ip = server_placement.host.ip
    ready = sim.event("churn.ready")

    def serve():
        fd = yield from server.socket(SOCK_STREAM)
        yield from server.bind(fd, CHURN_PORT)
        yield from server.listen(fd, 5)
        ready.succeed()
        for _ in payloads:
            cfd, _addr = yield from server.accept(fd)
            data = yield from server.recv_exactly(cfd, CHURN_BYTES)
            yield from server.send_all(cfd, data)
            yield from server.close(cfd)
        yield from server.close(fd)

    def connect():
        yield ready
        latencies = []
        equal = 0
        echoes = hashlib.sha256()
        for payload in payloads:
            start = sim.now
            fd = yield from client.socket(SOCK_STREAM)
            yield from client.connect(fd, (server_ip, CHURN_PORT))
            yield from client.send_all(fd, payload)
            echo = yield from client.recv_exactly(fd, CHURN_BYTES)
            yield from client.close(fd)
            latencies.append(sim.now - start)
            equal += echo == payload
            echoes.update(echo)
        return latencies, equal, echoes.hexdigest()

    until = sim.now + len(payloads) * 10_000_000.0 + 60_000_000.0
    _served, outcome = net.run_all([serve(), connect()], until=until)
    return outcome


def conn_churn(params, seed, spans):
    nets = _two_host_networks(spans)
    rng = random.Random(seed)
    payloads = [rng.randbytes(CHURN_BYTES)
                for _ in range(params["connections"])]

    def run():
        sim = {}
        equal_total = 0
        lat = ()
        with spans.span("run_s"):
            for key, net, a, b in nets:
                with spans.span("run." + key):
                    latencies, equal, echoes = _churn(net, a, b, payloads)
                equal_total += equal
                sim[key] = {"connections": len(latencies),
                            "echoes_equal": equal,
                            "echoes_sha256": echoes,
                            "sum_latency_us": fsum(latencies),
                            "max_latency_us": max(latencies)}
                if key == SIM_PLACEMENT:
                    lat = latencies
        attempted = len(payloads) * len(nets)
        return _two_host_outcome(
            nets, sim, attempted, attempted - equal_total,
            {"every_echo_equal": equal_total == attempted}, spans,
            lat_samples=lat)

    return run


# ----------------------------------------------------------------------
# 4-6. Scale-out cells
# ----------------------------------------------------------------------

def _expected_wan2_frames(world, schedules):
    """Frames a loss-free two-site WAN run of ``schedules`` puts on the
    wires: request and reply each cross one wire within a site and three
    (site, long haul, site) between sites.

    The island backend's worlds live in its workers, out of reach of
    ``EthernetWire.frames_carried``; the layered pass checks this count
    against the single-process twin's wires.
    """
    wire_of = [host["wire"] for host in world.description()["hosts"]]
    frames = 0
    for client, requests in schedules.items():
        for _t, _req_id, targets, _req, _reply in requests:
            for target in targets:
                hops = 1 if wire_of[client] == wire_of[target] else 3
                frames += 2 * hops
    return frames


def cell(params, seed, spans):
    """One (placement, load) cell of the tail study, decomposed so each
    phase is timed by name.  ``tier`` is plain | metrics | tracing |
    forensics (what ``tailstudy.run_cell`` does for each flag);
    ``parallel`` >= 2 runs the island backend."""
    from repro.analysis.forensics import cell_forensics
    from repro.analysis.tailstudy import rate_for_load
    from repro.metrics.registry import state_cell_block
    from repro.sim.parallel import (
        harden_cut_wires,
        partition_world,
        run_parallel_workload,
    )
    from repro.trace import RequestTracer
    from repro.world.topology import TopologySpec, build_world, warm_arp
    from repro.world.workload import (
        WorkloadSpec,
        build_schedules,
        run_workload,
        schedule_fingerprint,
        settle_telemetry,
    )

    placement = params["placement"]
    tier = params.get("tier", "plain")
    parallel = params.get("parallel", 0)
    targs = dict(params["topology"])
    wargs = dict(params["workload"])
    targs.setdefault("seed", seed)
    wargs.setdefault("seed", seed)

    tspec = TopologySpec(placement=placement, **targs)
    with spans.span("world.build_s"):
        world = build_world(tspec)
    with spans.span("sim.parallel.partition_s"):
        plan = partition_world(world)
        harden_cut_wires(world, plan)
    with spans.span("world.warm_arp_s"):
        warm_arp(world)
    rate = rate_for_load(params["load"],
                         dict(wargs, us_per_byte=tspec.us_per_byte))
    wspec = WorkloadSpec(rate_per_client=float(rate), **wargs)
    with spans.span("world.schedule_s"):
        schedules = build_schedules(wspec, len(world.hosts))
        schedule_fp = schedule_fingerprint(wspec, len(world.hosts))
    tracer = None
    if tier in ("tracing", "forensics"):
        world.tracer.enable(capacity=1 << 18)
        tracer = RequestTracer(world.tracer,
                               sample_every=params["sample_every"],
                               seed=targs["seed"])
    expected_frames = None
    if parallel:
        expected_frames = _expected_wan2_frames(world, schedules)

    def run():
        with spans.span("run_s"):
            if parallel:
                outcome = run_parallel_workload(targs, placement, wspec,
                                                plan, parallel)
                if outcome is None:
                    raise RuntimeError("the island backend declined the "
                                       "cell (no cut, or one worker)")
                result, world_fp = outcome[0], outcome[1]
            else:
                start = world.sim.now
                result = run_workload(world, wspec, request_tracer=tracer)
                world_fp = world.fingerprint()
                if tier != "plain":
                    # The canonical telemetry instant, as run_cell does.
                    settle_telemetry(
                        world.sim, start + 1000.0 + wspec.window_us
                        + wspec.drain_us)
        samples = result.latencies_us
        latency, p99 = _latency(samples, spans)
        doc = {
            "issued": result.issued, "completed": result.completed,
            "censored": result.censored,
            "sum_us": fsum(samples),
            "p50_us": latency["lat_p50_us"], "p99_us": p99,
            "world_fingerprint": world_fp,
            "schedule_fingerprint": schedule_fp,
        }
        if tier == "forensics":
            with spans.span("analysis.forensics_s"):
                doc["forensics"] = cell_forensics(
                    world.tracer, tracer, p99_us=p99, exemplar_cap=3)
        if tier == "metrics":
            with spans.span("metrics.export_s"):
                doc["metrics"] = state_cell_block(
                    world.metrics.export_state(island=0))
        frames = (expected_frames if parallel else
                  sum(wire.frames_carried for wire in world.wires))
        return {
            **latency,
            "attempted": result.issued, "failed": result.censored,
            "frames": frames, "sim": doc, "goodput_kbs": None,
            "checks": {"issued_equals_completed_plus_censored":
                       result.issued == result.completed + result.censored},
            "counts": (None if parallel else lambda: _counts(
                world.placements, world.wires, result)),
            "cell_json": json.dumps(doc, sort_keys=True),
        }

    return run


RUNNERS = {"bulk_tcp": bulk_tcp, "pingpong_small": pingpong_small,
           "conn_churn": conn_churn, "cell": cell}
