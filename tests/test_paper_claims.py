"""The paper's quantitative claims, as shape assertions.

These are the acceptance tests of the reproduction: not the absolute 1993
numbers, but who wins, by roughly what factor, and where the crossovers
fall (Tables 2 and 3, Section 4).  Transfers are scaled down to 1-2 MB,
which is not the paper's steady state: a start-up delayed-ACK stall of up
to 200 ms, which 16 MB amortises, costs the 1 MB runs 11-17 % of their
throughput (``mach25``: 903 KB/s at 1 MB, 1084 KB/s at 16 MB).  The
tests therefore assert orderings and factor bands, not the paper's
throughputs.  The same claims, computed from the pinned
``benchmarks/baseline.json``, are ``python -m repro.analysis.report``'s
verdicts.
"""

import pytest

from repro.analysis.experiments import run_latency_row, run_throughput
from repro.analysis.tracing import run_traced_breakdown
from repro.apps.protolat import protolat
from repro.world.configs import build_network

MB = 1024 * 1024


@pytest.fixture(scope="module")
def tput():
    """Throughput (KB/s) for the Table 2 DECstation configurations."""
    keys = ("mach25", "ux", "library-ipc", "library-shm", "library-shm-ipf",
            "library-newapi-shm-ipf")
    return {key: run_throughput(key, total_bytes=MB).throughput_kbs
            for key in keys}


@pytest.fixture(scope="module")
def udp1():
    """Small-packet UDP RTT (ms) for the key configurations."""
    keys = ("mach25", "ux", "library-ipc", "library-shm-ipf")
    out = {}
    for key in keys:
        out[key] = run_latency_row(key, "udp", (1,), rounds=40)[1]
    return out


def test_library_throughput_comparable_to_kernel(tput):
    """Abstract: 'TCP/IP throughput ... comparable to that of a
    high-quality in-kernel implementation'."""
    assert tput["library-shm-ipf"] >= 0.95 * tput["mach25"]


def test_library_substantially_better_than_server(tput):
    """Abstract: '... and substantially better than a server-based one'
    (paper: 1088 vs 740, a 1.47x gap)."""
    assert tput["library-shm-ipf"] >= 1.3 * tput["ux"]


def test_server_pays_for_boundary_crossings(tput):
    """Section 2: server-based protocols trail the in-kernel placement."""
    assert tput["ux"] <= 0.8 * tput["mach25"]


def test_ipc_filter_is_the_slow_library_variant(tput):
    """Section 4.1: per-packet IPC reaches only ~85% of in-kernel
    throughput; SHM recovers most of it; SHM-IPF all of it."""
    assert 0.70 * tput["mach25"] <= tput["library-ipc"] <= 0.95 * tput["mach25"]
    assert tput["library-shm"] > tput["library-ipc"]
    assert tput["library-shm-ipf"] >= tput["library-shm"]


def test_newapi_improves_throughput_slightly():
    """Section 4.2: the shared-buffer interface helps a little (~1%),
    since the eliminated copy is off the critical path for throughput.
    Measured at 2 MB, where the start-up stall and ack-clocking noise
    swamp the effect less than at 1 MB (neither is the paper's 16 MB
    steady state)."""
    plain = run_throughput("library-shm-ipf", total_bytes=2 * MB)
    newapi = run_throughput("library-newapi-shm-ipf", total_bytes=2 * MB)
    gain = newapi.throughput_kbs / plain.throughput_kbs
    assert 1.0 <= gain <= 1.10


def test_udp_latency_library_comparable_to_kernel(udp1):
    """Abstract: 1.23 ms vs 1.45 ms — library comparable to (paper:
    slightly better than) the kernel."""
    assert udp1["library-shm-ipf"] <= 1.10 * udp1["mach25"]


def test_udp_latency_server_twice_library(udp1):
    """Abstract: 'more than twice as fast as a server-based one'."""
    assert udp1["ux"] >= 2.0 * udp1["library-shm-ipf"]


def test_udp_latency_shm_beats_ipc(udp1):
    assert udp1["library-shm-ipf"] < udp1["library-ipc"]


def test_latency_grows_with_message_size():
    """Table 2: latency rises roughly linearly, dominated by wire+copies;
    1472-byte RTT is 4-5x the 1-byte RTT for the fast placements."""
    row = run_latency_row("library-shm-ipf", "udp", (1, 512, 1472), rounds=30)
    assert row[1] < row[512] < row[1472]
    assert 3.0 <= row[1472] / row[1] <= 7.0
    # Two full-size frames on a 10 Mb/s wire alone cost 2.43 ms.
    assert row[1472] >= 2.4


def test_newapi_helps_large_message_latency():
    """Table 3: eliminating the app/stack copy matters most at 1460-1472
    bytes, where copy costs are significant."""
    plain = run_latency_row("library-shm-ipf", "udp", (1472,), rounds=30)
    newapi = run_latency_row("library-newapi-shm-ipf", "udp", (1472,),
                             rounds=30)
    assert newapi[1472] < plain[1472]


def test_gateway_is_nic_bound():
    """Table 2's Gateway column: the 8-bit PIO Ethernet card caps every
    placement's throughput around 350-500 KB/s, kernel or library."""
    kernel = run_throughput("mach25", platform="gateway",
                            total_bytes=MB).throughput_kbs
    library = run_throughput("library-shm", platform="gateway",
                             total_bytes=MB).throughput_kbs
    assert kernel < 520
    assert library < 520
    # And the library is at least competitive with the kernel there too.
    assert library >= 0.9 * kernel


def test_gateway_server_latency_worst():
    net, pa, pb = build_network("ux", platform="gateway")
    server_lat = protolat(net, pb, pa, proto="udp", message_size=1,
                          rounds=25).mean_rtt_ms
    net2, pa2, pb2 = build_network("mach25", platform="gateway")
    kernel_lat = protolat(net2, pb2, pa2, proto="udp", message_size=1,
                          rounds=25).mean_rtt_ms
    assert server_lat > 1.7 * kernel_lat


def test_tcp_and_udp_latency_similar_when_small():
    """Table 2: for 1-byte messages TCP and UDP RTTs are within ~15% of
    each other on the same system."""
    tcp = run_latency_row("mach25", "tcp", (1,), rounds=30)[1]
    udp = run_latency_row("mach25", "udp", (1,), rounds=30)[1]
    assert abs(tcp - udp) / udp < 0.25


def test_tcp_breakdown_grows_with_message_size():
    """Table 4's TCP columns: on every placement, the 1460-byte send and
    receive paths cost more than the 1-byte ones (per-byte copies and
    checksums).  The bench document holds only UDP breakdowns."""
    for key in ("library-shm-ipf", "mach25", "ux"):
        small = run_traced_breakdown(key, "tcp", 1, rounds=20).breakdown
        large = run_traced_breakdown(key, "tcp", 1460, rounds=20).breakdown
        assert large["send path total"] > small["send path total"], key
        assert large["receive path total"] > small["receive path total"], key
