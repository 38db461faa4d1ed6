"""The benchmark's fixed vocabulary: workloads, sizes, metrics, layers.

Everything a later issue may cite by name lives here, so a name changes
in one place.  ``BENCHMARK.json`` at the repository root repeats the
workload and metric names for the driver; ``test_hostbench.py`` checks
the two agree.
"""

#: The three placements every two-host workload runs back to back: the
#: layers differ by placement (in-kernel, OS-server RPC, filter + shared
#: memory library), so one timed region covers all three.
PLACEMENTS = ("mach25", "ux", "library-shm-ipf")

#: Simulated latency and goodput are reported for the library placement,
#: the paper's subject.
SIM_PLACEMENT = "library-shm-ipf"

#: ``sim_lat_p99_us`` is reported only from this many samples up, so at
#: least ten samples lie beyond the percentile.
P99_MIN_SAMPLES = 1000

_STAR200 = dict(kind="star", hosts=200, hosts_per_edge=8, spines=2, sites=2,
                router_speedup=8.0)
_WAN12 = dict(kind="wan", hosts=12, seed=21, hosts_per_edge=8, spines=2,
              sites=2, router_speedup=8.0)
_WAN48 = dict(kind="wan", hosts=48, seed=11, hosts_per_edge=8, spines=2,
              sites=2, router_speedup=8.0)
_ECHO = dict(proto="udp", clients=0, fanout=2, request_bytes=64,
             reply_bytes=200, size_dist="fixed")

#: name -> why it exists, which runner drives it, and its sizes.  The
#: ``full`` sizes put one timed region at 5.7-8 s on a 2.1 GHz Xeon core
#: under Python 3.11: the shared box's speed swings some 30 % between
#: its quiet and its busy minutes, and no run may drop under 5 s.
#: ``smoke`` sizes only prove the plumbing.
#:
#: Cell workloads: ``load`` is tailstudy's link-anchored offered load.
#: A cell whose ``topology``/``workload`` carries a ``seed`` is pinned;
#: otherwise ``--seed`` feeds both the topology and the schedule seed.
WORKLOADS = {
    "bulk_tcp": {
        "why": "closed loop, one sender: long back-to-back TCP trains, so "
               "tcp/mbuf/checksum/nic/wire and train dispatch do the work "
               "and the control plane does none",
        "runner": "bulk_tcp",
        "full": {"total_bytes": 11 * 1024 * 1024},
        "smoke": {"total_bytes": 256 * 1024},
    },
    "pingpong_small": {
        "why": "closed loop, one client: 1-byte UDP and TCP round trips, "
               "every train has length one, so per-event engine/process "
               "cost, the filter VM and OS-server IPC dominate and "
               "batching is bypassed",
        "runner": "pingpong_small",
        "full": {"rounds": 2800},
        "smoke": {"rounds": 60},
    },
    "conn_churn": {
        "why": "closed loop, one client: socket/connect/16-byte echo/close "
               "against one listener, the control path (setup, teardown, "
               "session migration, ports, 2MSL timers) instead of the "
               "data path",
        "runner": "conn_churn",
        "full": {"connections": 900},
        "smoke": {"connections": 20},
    },
    "star200_udp": {
        "why": "open loop in simulated time: 200-host star, UDP echo "
               "fan-out 2, many short independent flows; ScaleSimulator "
               "wheel, per-host locality, O(1) demux and world/*",
        "runner": "cell",
        "full": {"placement": "library-shm-ipf", "topology": _STAR200,
                 "workload": dict(_ECHO, window_us=550_000.0,
                                  drain_us=300_000.0),
                 "load": 0.02},
        "smoke": {"placement": "library-shm-ipf",
                  "topology": dict(_STAR200, hosts=16),
                  "workload": dict(_ECHO, window_us=100_000.0,
                                   drain_us=150_000.0),
                  "load": 0.02},
    },
    "wan12_forensics": {
        "why": "open loop: pinned 12-host 2-site WAN cell with request "
               "forensics on; the telemetry/analysis tier does nearly all "
               "the work (critical_path is O(n^2) per heavy request)",
        "runner": "cell",
        "full": {"placement": "mach25", "topology": _WAN12,
                 "workload": dict(_ECHO, seed=21, window_us=190_000.0,
                                  drain_us=150_000.0),
                 "load": 0.026, "tier": "forensics", "sample_every": 16},
        "smoke": {"placement": "mach25", "topology": _WAN12,
                  "workload": dict(_ECHO, seed=21, window_us=60_000.0,
                                   drain_us=150_000.0),
                  "load": 0.02, "tier": "forensics", "sample_every": 16},
    },
    "wan48_islands2": {
        "why": "open loop: pinned 48-host 2-site WAN cell on the "
               "two-worker island backend; pipe, pickle and barrier cost "
               "of sim/parallel.py against a byte-identical "
               "single-process twin",
        "runner": "cell",
        "full": {"placement": "mach25", "topology": _WAN48,
                 "workload": dict(_ECHO, seed=11, window_us=1_100_000.0,
                                  drain_us=500_000.0),
                 "load": 0.015, "parallel": 2},
        "smoke": {"placement": "mach25", "topology": _WAN48,
                  "workload": dict(_ECHO, seed=11, window_us=100_000.0,
                                   drain_us=200_000.0),
                  "load": 0.015, "parallel": 2},
    },
}

#: End-to-end metrics of the suite: (name, unit, better, bound).  A
#: bound of None means exact: simulated numbers repeat bit for bit, and
#: ``failed_share`` may not rise at all.  The time bounds are 0.25, not
#: the 0.10 one would like: on the shared 2-core guest this was sized
#: on, ten runs of identical work spread 4-12 % (interquartile) in an
#: ordinary quarter of an hour and 20-39 % when a neighbour's burst
#: slows the box 1.5-2x for a minute, so a tighter bound would flag the
#: neighbours.  ``peak_rss_mb`` repeats within 0.3 % except on
#: ``wan12_forensics`` (2.6 %).  A gain is claimed with paired runs,
#: not against a bound.
END_TO_END = (
    ("host_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("frames_per_s", "1/s", "higher", 0.25),
    ("failed_share", "ratio", "lower", None),
    ("sim_goodput_kbs", "KB/s", "higher", None),
    ("sim_lat_p50_us", "us", "lower", None),
    ("sim_lat_p99_us", "us", "lower", None),
)

#: The driver's contract wants every end-to-end metric on every
#: workload, never zero, steady across seeds.  Host-side metrics are;
#: the simulated ones are exact per seed and exist only on some
#: workloads, so the contract run prints them with the per-layer set
#: (0 where a workload has none) and carries failures in
#: ``attempted``/``failed``.
CONTRACT_END_TO_END = ("host_s", "cpu_s", "setup_s", "peak_rss_mb",
                       "frames_per_s")
SIM_OUTPUTS = ("failed_share", "sim_goodput_kbs", "sim_lat_p50_us",
               "sim_lat_p99_us")

#: The 20 layers of the fold, in print order.
LAYERS = (
    "sim.engine", "sim.process", "sim.parallel", "stack", "filter", "mem",
    "net.checksum", "net.ip", "net.udp", "net.tcp", "hw", "kernel",
    "osserver", "core", "trace", "metrics", "faults", "world", "apps",
    "analysis",
)

_SIM_LAYER = {"engine": "sim.engine", "events": "sim.engine",
              "scale": "sim.engine", "wheel": "sim.engine",
              "errors": "sim.engine", "__init__": "sim.engine",
              "process": "sim.process", "sync": "sim.process",
              "parallel": "sim.parallel"}
_NET_LAYER = {"checksum": "net.checksum", "udp": "net.udp", "tcp": "net.tcp",
              "ip": "net.ip", "ethernet": "net.ip", "arp": "net.ip",
              "routing": "net.ip", "icmp": "net.ip", "addr": "net.ip",
              "ports": "net.ip", "__init__": "net.ip"}


def layer_of(filename):
    """The fold row a source file belongs to, or None if it is neither
    ``repro`` nor this benchmark (stdlib, builtins).

    A ``repro`` module that matches none of the 20 layers folds into a
    row named after its first two path components, so a later split of
    ``stack/engine.py`` or a new package cannot break the pass.
    """
    path = filename.replace("\\", "/")
    if "/hostbench/" in path:
        return "hostbench"
    head, sep, tail = path.rpartition("/repro/")
    if not sep:
        return None
    parts = tail[:-3].split("/") if tail.endswith(".py") else tail.split("/")
    package = parts[0]
    if len(parts) == 1:
        return "repro"  # repro/__init__.py, repro/__main__.py
    if package == "sim":
        return _SIM_LAYER.get(parts[1], "sim." + parts[1])
    if package == "net":
        return _NET_LAYER.get(parts[1], "net." + parts[1])
    if package in LAYERS:
        return package
    return ".".join(parts[:2])


PHASES = ("world.build_s", "world.warm_arp_s", "world.schedule_s", "run_s",
          "analysis.percentiles_s", "analysis.forensics_s",
          "sim.parallel.partition_s", "metrics.export_s")

DIRECT = (
    ("net.checksum.ns_per_byte", "ns"),
    ("filter.ns_per_run", "ns"),
    ("mem.ns_per_op", "ns"),
    ("net.ip.ns_per_hdr", "ns"),
    ("net.tcp.ns_per_hdr", "ns"),
    ("sim.engine.ns_per_timer", "ns"),
    ("sim.process.ns_per_charge", "ns"),
    ("kernel.ns_per_rpc", "ns"),
    ("analysis.forensics.ms_per_kspan", "ms"),
    ("metrics.merge_us", "us"),
)

COUNTS = ("hw.frames_carried", "hw.cpu_charges", "hw.nic_drops",
          "kernel.frames_demuxed", "kernel.rpc_calls",
          "net.tcp.retransmits", "world.requests_issued",
          "world.requests_censored", "trace.spans_recorded",
          "trace.spans_evicted")

#: Ratios measured on one workload only (0 elsewhere in a contract run).
TIERS_AND_TWINS = ("telemetry.metrics_ratio", "telemetry.tracing_ratio",
                   "telemetry.forensics_ratio", "sim.parallel.speedup")


def per_layer_metrics():
    """Every per-layer metric as ``(name, unit, better)``, in the order
    ``BENCHMARK.json`` lists them."""
    out = []
    for layer in LAYERS:
        out.append((layer + ".self_s", "s", "lower"))
        out.append((layer + ".calls", "count", "lower"))
    out.append(("hostbench.self_s", "s", "lower"))
    out.append(("other.self_s", "s", "lower"))
    out.append(("hostbench.profile_overhead_ratio", "ratio", "lower"))
    out.extend((name, "s", "lower") for name in PHASES)
    out.extend((name, unit, "lower") for name, unit in DIRECT)
    out.extend((name, "count", "lower") for name in COUNTS)
    out.extend((name, "ratio", "lower") for name in TIERS_AND_TWINS[:3])
    out.append((TIERS_AND_TWINS[3], "ratio", "higher"))
    out.extend((name, unit, better)
               for name, unit, better, _bound in END_TO_END
               if name in SIM_OUTPUTS)
    return out
