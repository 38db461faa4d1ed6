"""Paper-vs-measured for every table and figure, from live simulations.

Run as a module to print the report on stdout, or to write it to a file
when a path is named (nothing is written otherwise; the hand-kept
EXPERIMENTS.md is not this report)::

    python -m repro.analysis.report [output-path]

The full run takes a minute or two of wall time (it re-runs every Table 2
and 3 configuration on both platforms plus the Table 4 breakdowns).
"""

import sys

from repro.analysis.experiments import (
    LATENCY_SIZES_TCP,
    LATENCY_SIZES_UDP,
    run_table2,
)
from repro.analysis.tracing import run_traced_breakdown
from repro.stack.instrument import Layer
from repro.world.configs import DECSTATION_ROWS, GATEWAY_ROWS

#: Published Gateway numbers (Table 2 right half): KB/s and 1-byte RTTs.
PAPER_GATEWAY = {
    "mach25": (457, 2.08, 1.83),
    "386bsd": (320, 2.71, 2.63),
    "ux": (415, 4.09, 3.96),
    "bnr2ss": (382, 3.99, 4.61),
    "library-ipc": (469, 2.49, 2.42),
    "library-shm": (503, 2.39, 2.02),
}

NEWAPI_KEYS = ("library-newapi-ipc", "library-newapi-shm",
               "library-newapi-shm-ipf")

#: Paper Table 4 UDP values (us): layer -> {(system, size): value}.
PAPER_T4_UDP = {
    Layer.ENTRY_COPYIN: (6, 7, 65, 104, 293, 628),
    Layer.TCP_UDP_OUTPUT: (18, 239, 70, 273, 229, 398),
    Layer.IP_OUTPUT: (17, 18, 22, 25, 24, 27),
    Layer.ETHER_OUTPUT: (105, 280, 74, 163, 188, 367),
    Layer.DEVICE_READ: (39, 40, 74, 481, 99, 497),
    Layer.NETISR_FILTER: (58, 70, 83, 84, 76, 61),
    Layer.KERNEL_COPYOUT: (107, 517, 0, 0, 124, 207),
    Layer.MBUF_QUEUE: (20, 20, 0, 0, 68, 64),
    Layer.IPINTR: (35, 33, 30, 54, 121, 91),
    Layer.TCP_UDP_INPUT: (103, 318, 67, 279, 61, 273),
    Layer.WAKEUP_USER: (73, 80, 70, 69, 262, 274),
    Layer.COPYOUT_EXIT: (21, 63, 27, 75, 208, 619),
}


def _md_table(headers, rows):
    out = ["| " + " | ".join(headers) + " |",
           "|" + "|".join("---" for _ in headers) + "|"]
    for row in rows:
        out.append("| " + " | ".join(str(c) for c in row) + " |")
    return "\n".join(out)


def _fmt_lat(by_size, sizes):
    return " / ".join("%.2f" % by_size[s] for s in sizes)


def generate(stream):
    w = stream.write
    w("# EXPERIMENTS — paper vs. measured\n\n")
    w("All measured numbers below were produced by this repository's\n"
      "simulator (`python -m repro.analysis.report`).  Absolute fidelity\n"
      "is not the goal — the substrate is a calibrated simulation, not a\n"
      "DECstation — but every qualitative result of the paper (orderings,\n"
      "ratios, crossovers) is asserted by `tests/test_paper_claims.py`\n"
      "and the `benchmarks/` harnesses.  Workloads are scaled (2 MB\n"
      "transfers, 50-round latency averages) but steady-state.\n\n")

    # ------------------------------------------------------------------
    w("## Table 2 — DECstation 5000/200\n\n")
    rows = run_table2(DECSTATION_ROWS, platform="decstation")
    t = []
    for row in rows:
        t.append([
            row.label,
            "%.0f" % row.throughput_kbs,
            "%d" % row.paper["tput"],
            _fmt_lat(row.tcp_latency_ms, (1, 1460)),
            "%.2f / %.2f" % row.paper["tcp_lat"],
            _fmt_lat(row.udp_latency_ms, (1, 1472)),
            "%.2f / %.2f" % row.paper["udp_lat"],
        ])
    w(_md_table(
        ["System", "KB/s", "paper", "TCP RTT ms (1B/1460B)", "paper",
         "UDP RTT ms (1B/1472B)", "paper"], t))
    w("\n\nFull latency sweeps (measured, ms):\n\n")
    for proto, sizes, attr in (("TCP", LATENCY_SIZES_TCP, "tcp_latency_ms"),
                               ("UDP", LATENCY_SIZES_UDP, "udp_latency_ms")):
        t = [[row.label] + ["%.2f" % getattr(row, attr)[s] for s in sizes]
             for row in rows]
        w("**%s**\n\n" % proto)
        w(_md_table(["System"] + ["%dB" % s for s in sizes], t))
        w("\n\n")

    # ------------------------------------------------------------------
    w("### Round-trip percentiles (DECstation, us)\n\n")
    w("The paper reports 50000-round averages; per-round samples let us\n"
      "report tail latency too.  p50/p95/p99 per message size\n"
      "(nearest-rank over the steady-state rounds):\n\n")
    for proto, sizes, attr in (("TCP", LATENCY_SIZES_TCP, "tcp_latency"),
                               ("UDP", LATENCY_SIZES_UDP, "udp_latency")):
        t = []
        for row in rows:
            cells = [row.label]
            for s in sizes:
                r = getattr(row, attr)[s]
                cells.append("%.0f / %.0f / %.0f" % (
                    r.p50_rtt_us, r.p95_rtt_us, r.p99_rtt_us))
            t.append(cells)
        w("**%s p50 / p95 / p99**\n\n" % proto)
        w(_md_table(["System"] + ["%dB" % s for s in sizes], t))
        w("\n\n")

    # ------------------------------------------------------------------
    w("## Table 2 — Gateway 486\n\n")
    rows = run_table2(GATEWAY_ROWS, platform="gateway",
                      total_bytes=1024 * 1024, rounds=30,
                      tcp_sizes=(1, 1460), udp_sizes=(1, 1472))
    t = []
    for row in rows:
        paper_tput, paper_tcp1, paper_udp1 = PAPER_GATEWAY[row.key]
        t.append([
            row.label,
            "%.0f" % row.throughput_kbs, "%d" % paper_tput,
            "%.2f" % row.tcp_latency_ms[1], "%.2f" % paper_tcp1,
            "%.2f" % row.udp_latency_ms[1], "%.2f" % paper_udp1,
        ])
    w(_md_table(["System", "KB/s", "paper", "TCP 1B ms", "paper",
                 "UDP 1B ms", "paper"], t))
    w("\n\n")

    # ------------------------------------------------------------------
    w("## Table 3 — the NEWAPI shared-buffer interface\n\n")
    rows = run_table2(
        ("library-ipc", "library-shm", "library-shm-ipf") + NEWAPI_KEYS,
        platform="decstation", total_bytes=2 * 1024 * 1024,
    )
    t = []
    for row in rows:
        t.append([
            row.label,
            "%.0f" % row.throughput_kbs, "%d" % row.paper["tput"],
            "%.2f" % row.tcp_latency_ms[1460],
            "%.2f" % row.paper["tcp_lat"][1],
            "%.2f" % row.udp_latency_ms[1472],
            "%.2f" % row.paper["udp_lat"][1],
        ])
    w(_md_table(["System", "KB/s", "paper", "TCP 1460B ms", "paper",
                 "UDP 1472B ms", "paper"], t))
    w("\n\n")

    # ------------------------------------------------------------------
    w("## Table 4 — per-layer latency breakdown (UDP, us, one way)\n\n")
    w("Measured columns are *trace-derived*: each cell folds the\n"
      "per-packet spans recorded by `repro.trace` back into per-layer\n"
      "means, and the fold is crosschecked tick-for-tick against the\n"
      "`stack/instrument.py` ledgers before reporting\n"
      "(`repro.analysis.tracing.run_traced_breakdown`).\n\n")
    systems = (("library-shm-ipf", "Library"), ("mach25", "Kernel"),
               ("ux", "Server"))
    sizes = (1, 1472)
    measured = {}
    for key, label in systems:
        for size in sizes:
            measured[(label, size)] = run_traced_breakdown(
                key, "udp", size, rounds=150).breakdown
    headers = ["Layer"]
    for _k, label in systems:
        for size in sizes:
            headers += ["%s %dB" % (label, size), "paper"]
    t = []
    for layer in Layer.SEND_PATH + Layer.RECEIVE_PATH:
        paper_vals = PAPER_T4_UDP[layer]
        row = [layer]
        for i, (_k, label) in enumerate(systems):
            for j, size in enumerate(sizes):
                row.append("%.0f" % measured[(label, size)][layer])
                row.append("%d" % paper_vals[i * 2 + j])
        t.append(row)
    w(_md_table(headers, t))
    w("\n\nMeasured send/receive path totals (us): ")
    w(", ".join(
        "%s@%dB %.0f/%.0f" % (
            label, size,
            measured[(label, size)]["send path total"],
            measured[(label, size)]["receive path total"],
        )
        for _k, label in systems for size in sizes
    ))
    w("\n\n")

    # ------------------------------------------------------------------
    w("## Table 1 and Figure 1\n\n")
    w("Regenerated structurally by `benchmarks/bench_table1_proxy.py`\n"
      "(traces each proxy call's server RPCs on a live system: data\n"
      "transfer uses zero; every session-management call uses at least\n"
      "one) and `benchmarks/bench_figure1_crossings.py` (counts\n"
      "user/kernel crossings, server RPCs, and data copies per round\n"
      "trip for each placement).\n\n")

    w("## Fault injection & chaos testing\n\n")
    w("Not a table from the paper, but a direct test of its Section 2 claim\n"
      "that decomposition \"improves system structure\" by isolating failure:\n"
      "the OS server is a restartable user task, and application-resident\n"
      "sessions must survive its death.\n\n"
      "The harness is `repro.faults`: a seeded `FaultPlan` pipeline\n"
      "(Gilbert–Elliott burst loss, reordering, duplication, delay jitter,\n"
      "time-windowed blackholes, NIC receive-ring overflow, payload\n"
      "corruption) attached to the wire via\n"
      "`build_network(..., fault_plan=plan)`, combined with\n"
      "`NetServer.crash()`/`restart()`.  Recovery mechanics under test:\n\n"
      "- in-flight RPCs fail with `ServerCrashed`; proxies retry with\n"
      "  exponential backoff + jitter, gated until re-registration completes;\n"
      "- a restarted server rebuilds its port namespace, listeners, and\n"
      "  session records from each library's `proxy_reregister` report;\n"
      "- library-resident TCP transfers continue through the outage (their\n"
      "  data path never touches the server) and remain byte-exact.\n\n"
      "`tests/test_chaos_soak.py` runs the composed scenario over seeds\n"
      "{11, 23, 47}: a 100 KB transfer with the server crashing mid-stream\n"
      "and an accept RPC parked in it, a second connection opened during the\n"
      "outage, every fault stage active, then a post-run drain asserting all\n"
      "four stacks quiesce (no TCP sessions, no live timers, no orphaned\n"
      "background closes).  Per-stage fault counters and wire totals come from\n"
      "`repro.analysis.netstat.fault_report`.\n\n"
      "Soaking found real bugs in this repo before it ever gated CI: a\n"
      "corrupted IP header could kill a stack's packet-input loop, a stray\n"
      "post-restart ACK made a listener clone a half-open child and crash the\n"
      "input path, and a re-registered listener's wildcard packet filter could\n"
      "shadow live sessions' exact filters and steal (then reset) their\n"
      "segments.\n\n")

    w("## Verdicts\n\n")
    w("- Library-SHM-IPF throughput is comparable to in-kernel and far\n"
      "  above the UX server (paper: 1088 / 1070 / 740 KB/s).\n"
      "- Library-IPC lands near 85%% of in-kernel throughput; the SHM\n"
      "  ring recovers most of the gap and the integrated filter the\n"
      "  rest, matching Section 4.1's narrative.\n"
      "- Small-packet UDP RTT: library comparable to kernel, server more\n"
      "  than 2x slower (paper: 1.23 / 1.45 / 3.61 ms).\n"
      "- The Gateway's 8-bit PIO NIC caps every placement near 450-500\n"
      "  KB/s, as in the paper's right-hand columns.\n"
      "- Table 4's structure reproduces: zero kernel copyout for the\n"
      "  in-kernel stack, RPC-dominated entry/exit and spl-dominated\n"
      "  wakeups for the server, procedure-call entry for the library.\n"
      "- Known deviation: our measured small-packet library RTT is a few\n"
      "  percent above the kernel's, where the paper measures it ~15%%\n"
      "  below; the paper's own Table 4 totals (633 vs 653 us one-way)\n"
      "  show the same near-tie our simulation produces.\n")


def main(argv):
    if len(argv) < 2:
        generate(sys.stdout)
        return
    with open(argv[1], "w") as handle:
        generate(handle)
    print("wrote", argv[1])


if __name__ == "__main__":
    main(sys.argv)
