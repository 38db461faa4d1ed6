"""netstat-style introspection of a simulated world.

Summarizes, for any placement, what a 1993 ``netstat`` would have shown —
active sessions with their states and counters — plus the things only
this architecture has: where each session currently lives (application
library vs OS server), the kernel's installed packet filters, and the
migration counters.  Useful for debugging worlds and as a demo of the
system's observability.
"""

from repro.net.addr import ip_ntoa


def _addr(pair):
    if pair is None or pair[0] in (None, 0):
        return "*.*"
    return "%s.%d" % (ip_ntoa(pair[0]), pair[1])


def tcp_sessions(stack):
    """Rows describing every TCP session in one stack.

    Each row carries the classic netstat columns plus the live transport
    gauges a tcp_probe would sample: cwnd, ssthresh, smoothed RTT, and
    the buffer occupancy levels."""
    rows = []
    for (lport, rip, rport), session in sorted(
        stack._tcp.items(), key=lambda kv: (kv[0][0], kv[0][1] or 0)
    ):
        conn = session.conn
        rows.append({
            "proto": "tcp",
            "local": _addr(conn.local),
            "remote": _addr(conn.remote) if rip is not None else "*.*",
            "state": conn.state.name,
            "sndq": len(conn.snd_buffer),
            "rcvq": conn.receivable(),
            "retransmits": conn.stats.retransmits,
            "cwnd": conn.cc.cwnd,
            "ssthresh": conn.cc.ssthresh,
            "srtt": conn.rtt.srtt,
            "buffers": conn.buffer_levels(),
        })
    return rows


def udp_sessions(stack):
    """Rows for every UDP session, in stable (port, remote) order.

    A connected session appears under both its wildcard and connected
    keys in the demux table; rows are deduplicated by identity.  The
    ``rcvq`` column is buffered bytes (like netstat's Recv-Q); the
    queued datagram *count* and drop counter ride along."""
    rows = []
    seen = set()
    for (lport, rip, rport), session in sorted(
        stack._udp.items(), key=lambda kv: (kv[0][0], kv[0][1] or 0, kv[0][2] or 0)
    ):
        if id(session) in seen:
            continue
        seen.add(id(session))
        rows.append({
            "proto": "udp",
            "local": _addr(session.local),
            "remote": _addr(session.remote),
            "state": "-",
            "sndq": 0,
            "rcvq": session.queued_bytes,
            "queued_datagrams": len(session.queue),
            "drops": session.drops,
            "retransmits": 0,
        })
    return rows


def host_report(placement):
    """A structured report for one placement (any style)."""
    backend = placement._backend
    libraries = list(getattr(backend, "_apps", {}).values())
    stacks = []
    if hasattr(backend, "stack"):
        stacks.append(("os", backend.stack))
    for library in libraries:
        stacks.append(("app:%s" % library.name, library.stack))
    sessions = []
    for where, stack in stacks:
        for row in tcp_sessions(stack) + udp_sessions(stack):
            row["where"] = where
            sessions.append(row)
    kernel = placement.host.kernel
    host = placement.host
    report = {
        "host": host.name,
        "sessions": sessions,
        "filters": [
            {"name": handle.name, "matched": handle.matched}
            for handle in kernel._filters
        ],
        "frames_demuxed": kernel.frames_demuxed,
        "frames_unmatched": kernel.frames_dropped_no_match,
        "cpu_busy_us": host.cpu.busy_time,
        "cpu": host.cpu.snapshot(),
        "nic": {
            "frames_sent": host.nic.frames_sent,
            "frames_received": host.nic.frames_received,
            "frames_filtered": host.nic.frames_filtered,
            "frames_dropped": host.nic.frames_dropped,
        },
    }
    tracer = host.tracer
    if tracer is not None:
        report["tracer"] = {
            "enabled": tracer.enabled,
            "spans_recorded": tracer.spans_recorded,
            "spans_retained": len(tracer.spans),
            "spans_evicted": tracer.spans_evicted,
            "waits_recorded": tracer.waits_recorded,
            "waits_evicted": tracer.waits_evicted,
        }
    metrics = getattr(host, "metrics", None)
    if metrics is not None:
        report["metrics"] = {
            "enabled": metrics.enabled,
            "registered": len(metrics),
            "tcp_probes": len(metrics.tcp_probes),
        }
    if hasattr(backend, "migrations_out"):
        report["migrations_out"] = backend.migrations_out
        report["migrations_in"] = backend.migrations_in
    if getattr(backend, "rpc", None) is not None:
        report["control"] = control_report(placement)
    if libraries:
        report["metastate"] = metastate_report(libraries)
    return report


def world_send_path(placements):
    """:func:`send_path_totals` over every library app of ``placements``,
    or None when there is none (in-kernel and server placements)."""
    rows = [row for placement in placements
            for row in metastate_report(
                getattr(placement._backend, "_apps", {}).values())]
    return send_path_totals(rows) if rows else None


def metastate_report(libraries):
    """The Section 3.3 block: per library app, how often its send path
    was answered from cached route/ARP metastate and how often it had to
    ask the server.  Rows are sorted by app name."""
    return sorted((dict(library.metastate.stats(), app=library.name)
                   for library in libraries),
                  key=lambda row: row["app"])


def send_path_totals(rows):
    """Sum metastate rows: the answer to "how often did the fast path
    talk to the server?" for a host, or for a whole world."""
    totals = dict.fromkeys(
        ("route_rpcs", "route_hits", "arp_rpcs", "arp_hits",
         "invalidations"), 0)
    for row in rows:
        for key in totals:
            totals[key] += row[key]
    return totals


def format_send_path(totals):
    """One line: metastate RPCs against the lookups served from cache."""
    return ("send path → server: %d route + %d ARP RPCs; %d route + %d ARP "
            "lookups answered from cache; %d invalidations"
            % (totals["route_rpcs"], totals["arp_rpcs"],
               totals["route_hits"], totals["arp_hits"],
               totals["invalidations"]))


def control_report(placement):
    """The control-plane block: RPC health of the placement's server and
    per-app resilience counters (retries, breaker state, deferred work).

    Returns None for in-kernel placements (no control RPCs exist).  Rows
    are sorted by app name so the output is stable run to run.
    """
    backend = placement._backend
    rpc = getattr(backend, "rpc", None)
    if rpc is None:
        return None
    report = {
        "host": placement.host.name,
        "server": backend.health_snapshot(),
        "broken": rpc.broken,
        "apps": [],
    }
    faults = rpc.faults
    if faults is not None:
        report["fault_stages"] = faults.counters()
    apps = []
    for library in getattr(backend, "_apps", {}).values():
        api = getattr(library, "proxy_api", None)
        if api is not None:
            apps.append(api.control_stats())
    report["apps"] = sorted(apps, key=lambda row: row["app"])
    return report


def format_control_report(report):
    """Render a control-plane report as text."""
    if report is None:
        return "Control plane: in-kernel placement (no server RPCs)"
    srv = report["server"]
    lines = ["Control plane on %s (%s)"
             % (report["host"], "port DOWN" if report["broken"] else "up")]
    lines.append(
        "  server: gen %d, %d crashes, %d pending, %d inflight, "
        "max_pending %s" % (srv["generation"], srv["crashes"],
                            srv["pending"], srv["inflight"],
                            srv["max_pending"] if srv["max_pending"]
                            is not None else "-"))
    lines.append(
        "  rpc: %d retried, %d shed, %d deadline expiries, "
        "%d replies dropped" % (srv["retried_calls"], srv["requests_shed"],
                                srv["deadline_expiries"],
                                srv["replies_dropped"]))
    lines.append(
        "  replay: %d served, %d duplicates held; serve faults: "
        "%d stalled, %d failed" % (srv["replays_served"],
                                   srv["duplicates_held"],
                                   srv["ops_stalled"], srv["ops_failed"]))
    for op, row in sorted((srv.get("op_latency") or {}).items()):
        lines.append(
            "  op %-20s %6d calls  mean %10.1fus  p99 %10.0fus  "
            "max %10.0fus" % (op, row["count"], row["mean_us"],
                              row["p99_us"], row["max_us"]))
    for entry in srv.get("slow_ops") or ():
        lines.append(
            "  slow op %-15s at %14.1fus took %10.1fus"
            % (entry["op"], entry["t_us"], entry["us"]))
    for row in report["apps"]:
        breaker = row.get("breaker")
        state = breaker["state"] if breaker else "off"
        extra = ""
        if breaker:
            extra = " (%d trips, %d fast-fails)" % (breaker["trips"],
                                                    breaker["fast_fails"])
        lines.append(
            "  app %-20s %3d retries, %d rereg, %d deferred closes, "
            "breaker %s%s" % (row["app"], row["retries"],
                              row["reregistrations"], row["closes_deferred"],
                              state, extra))
    if "fault_stages" in report:
        for name, counters in report["fault_stages"].items():
            shown = ", ".join("%s=%s" % kv for kv in sorted(counters.items()))
            lines.append("  fault %-22s %s" % (name, shown or "-"))
    return "\n".join(lines)


def fault_report(wire):
    """A structured report of a wire's fault-injection pipeline.

    Returns counters for the wire itself (frames carried, deliveries
    its NICs' station filters discarded) and, when a
    :class:`repro.faults.FaultPlan` is attached, per-stage counters plus
    the plan's frames_in/frames_delivered fan-out totals.
    """
    report = {
        "wire": wire.name,
        "frames_carried": wire.frames_carried,
        "frames_lost": wire.frames_lost,
        "frames_corrupted": wire.frames_corrupted,
        "frames_filtered": wire.frames_filtered,
        "stages": {},
    }
    plan = wire.fault_plan
    if plan is not None:
        report["frames_in"] = plan.frames_in
        report["frames_delivered"] = plan.frames_delivered
        report["stages"] = plan.counters()
    return report


def format_fault_report(report):
    """Render a fault report as text."""
    lines = ["Fault injection on %s" % report["wire"]]
    lines.append("  %d frames carried, %d lost, %d corrupted, "
                 "%d filtered by NICs (other station)"
                 % (report["frames_carried"], report["frames_lost"],
                    report["frames_corrupted"], report["frames_filtered"]))
    if "frames_in" in report:
        lines.append("  pipeline: %d frames in, %d delivered"
                     % (report["frames_in"], report["frames_delivered"]))
    for name, counters in report["stages"].items():
        shown = ", ".join("%s=%s" % (k, v) for k, v in sorted(counters.items()))
        lines.append("  %-24s %s" % (name, shown or "-"))
    return "\n".join(lines)


def format_report(report):
    """Render a host report as netstat-ish text."""
    lines = ["Active sessions on %s" % report["host"]]
    lines.append("%-5s %-22s %-22s %-12s %6s %6s %8s %6s  %s"
                 % ("Proto", "Local Address", "Foreign Address", "State",
                    "SendQ", "RecvQ", "Cwnd", "SRTT", "Where"))
    for row in report["sessions"]:
        cwnd = row.get("cwnd")
        srtt = row.get("srtt")
        lines.append("%-5s %-22s %-22s %-12s %6d %6d %8s %6s  %s"
                     % (row["proto"], row["local"], row["remote"],
                        row["state"], row["sndq"], row["rcvq"],
                        "-" if cwnd is None else cwnd,
                        "-" if srtt is None else srtt,
                        row["where"]))
    lines.append("")
    lines.append("Packet filters (%d installed, %d frames demuxed, "
                 "%d unmatched):"
                 % (len(report["filters"]), report["frames_demuxed"],
                    report["frames_unmatched"]))
    for entry in report["filters"]:
        lines.append("  %-44s matched %d" % (entry["name"], entry["matched"]))
    if "cpu" in report:
        cpu = report["cpu"]
        lines.append("")
        lines.append("CPU: %.0fus busy (%.1f%% utilization), %d charges, "
                     "%d contended"
                     % (cpu["busy_us"], 100.0 * cpu["utilization"],
                        cpu["charges"], cpu["contended"]))
    nic = report["nic"]
    lines.append("NIC: %d sent, %d received, %d filtered (other station), "
                 "%d dropped (ring overrun)"
                 % (nic["frames_sent"], nic["frames_received"],
                    nic["frames_filtered"], nic["frames_dropped"]))
    if "tracer" in report or "metrics" in report:
        tracer = report.get("tracer")
        metrics = report.get("metrics")
        parts = []
        if tracer is not None:
            part = ("tracer %s (%d spans)"
                    % ("on" if tracer["enabled"] else "off",
                       tracer["spans_recorded"]))
            evicted = (tracer.get("spans_evicted", 0)
                       + tracer.get("waits_evicted", 0))
            if evicted:
                part += " LOSSY: %d evicted" % evicted
            parts.append(part)
        if metrics is not None:
            parts.append("metrics %s (%d registered, %d tcp probes)"
                         % ("on" if metrics["enabled"] else "off",
                            metrics["registered"], metrics["tcp_probes"]))
        lines.append("Telemetry: " + ", ".join(parts))
    if "migrations_out" in report:
        lines.append("")
        lines.append("Session migrations: %d out to applications, %d back"
                     % (report["migrations_out"], report["migrations_in"]))
    if "metastate" in report:
        lines.append("")
        lines.append("Cached metastate (Section 3.3):")
        for row in report["metastate"]:
            lines.append(
                "  app %-20s route %d rpcs / %d hits, arp %d rpcs / "
                "%d hits, %d invalidations"
                % (row["app"], row["route_rpcs"], row["route_hits"],
                   row["arp_rpcs"], row["arp_hits"], row["invalidations"]))
    if "control" in report:
        lines.append("")
        lines.append(format_control_report(report["control"]))
    return "\n".join(lines)
