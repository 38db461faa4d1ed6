"""Orchestrate full paper experiments.

Each function builds fresh testbeds (simulations are single-use), runs the
paper's workload, and returns structured results that
:mod:`repro.analysis.bench_json` records as the paper's tables.
"""

from dataclasses import dataclass, field

from repro.apps.protolat import protolat
from repro.apps.ttcp import ttcp
from repro.core.sockets import SOCK_DGRAM, SOCK_STREAM
from repro.world.configs import CONFIGS, build_network

#: A scaled-down default transfer so full table sweeps stay fast.  It is
#: not the paper's steady state: the receiver's delayed ACK stalls the
#: first segment for up to one 200 ms tick, which the paper's 16 MB
#: amortises to ~1 % and a few MB do not (``mach25`` moves 903 KB/s at
#: 1 MB and 1084 KB/s at 16 MB).
DEFAULT_TTCP_BYTES = 2 * 1024 * 1024

#: The buffer-size search keeps a larger buffer only if it beats this.
RCVBUF_IMPROVEMENT = 1.02


def run_throughput(config_key, platform="decstation", total_bytes=None,
                   rcvbuf_kb=None):
    """One ttcp run for one configuration; returns a TtcpResult."""
    spec = CONFIGS[config_key]
    network, pa, pb = build_network(config_key, platform=platform)
    return ttcp(
        network,
        pb,
        pa,
        total_bytes=total_bytes or DEFAULT_TTCP_BYTES,
        rcvbuf_kb=rcvbuf_kb if rcvbuf_kb is not None else spec.best_rcvbuf_kb,
    )


def run_latency_detail(config_key, proto, sizes, platform="decstation",
                       rounds=50):
    """protolat over a range of message sizes.

    Returns ``{size: LatencyResult}`` — each result keeps its per-round
    samples, so p50/p95/p99 round-trip times come for free alongside the
    paper's means.
    """
    results = {}
    network, pa, pb = build_network(config_key, platform=platform)
    port = 6000
    for size in sizes:
        results[size] = protolat(
            network, pb, pa, proto=proto, message_size=size, rounds=rounds,
            port=port,
        )
        port += 1
    return results


def run_latency_row(config_key, proto, sizes, platform="decstation",
                    rounds=50):
    """protolat over a range of message sizes; returns {size: rtt_ms}."""
    detail = run_latency_detail(config_key, proto, sizes, platform=platform,
                                rounds=rounds)
    return {size: result.mean_rtt_ms for size, result in detail.items()}


@dataclass
class Table2Row:
    """One measured system row of Table 2."""

    key: str
    throughput_kbs: float
    #: Full LatencyResults (with per-round samples) per message size.
    tcp_latency: dict = field(default_factory=dict)
    udp_latency: dict = field(default_factory=dict)


def run_table2(config_keys, platform, total_bytes, rounds, tcp_sizes,
               udp_sizes):
    """Regenerate Table 2 for a set of configurations."""
    rows = []
    for key in config_keys:
        tput = run_throughput(key, platform=platform, total_bytes=total_bytes)
        tcp_lat = run_latency_detail(key, "tcp", tcp_sizes, platform=platform,
                                     rounds=rounds)
        udp_lat = run_latency_detail(key, "udp", udp_sizes, platform=platform,
                                     rounds=rounds)
        rows.append(
            Table2Row(
                key=key,
                throughput_kbs=tput.throughput_kbs,
                tcp_latency=tcp_lat,
                udp_latency=udp_lat,
            )
        )
    return rows


def run_crossings(config_key, platform="decstation", rounds=20,
                  message_size=64, telemetry=False):
    """Figure 1 as numbers: per-round-trip protection-boundary crossings,
    OS-server RPCs, and data copies on the client of a TCP echo.

    ``telemetry=True`` enables the world's metrics registry for the run;
    the invariant tests use it to prove telemetry changes nothing."""
    from repro.net.addr import ip_aton

    net, pa, pb = build_network(config_key, platform=platform)
    if telemetry:
        net.metrics.enable()
    api_a = pa.new_app()
    api_b = pb.new_app()
    server_ip = ip_aton("10.0.0.1")
    ready = net.sim.event()

    def server():
        fd = yield from api_a.socket(SOCK_STREAM)
        yield from api_a.bind(fd, 7900)
        yield from api_a.listen(fd)
        ready.succeed()
        cfd, _ = yield from api_a.accept(fd)
        for _ in range(rounds):
            data = yield from api_a.recv_exactly(cfd, message_size)
            yield from api_a.send_all(cfd, data)

    def client():
        yield ready
        fd = yield from api_b.socket(SOCK_STREAM)
        yield from api_b.connect(fd, (server_ip, 7900))
        crossings = api_b.ctx.crossings
        crossings.reset()
        for _ in range(rounds):
            yield from api_b.send_all(fd, b"m" * message_size)
            yield from api_b.recv_exactly(fd, message_size)
        return crossings.snapshot()

    _s, snap = net.run_all([server(), client()], until=240_000_000)
    return {k: v / rounds for k, v in snap.items()}


def run_proxy_calls(config_key="library-shm-ipf", telemetry=False):
    """Table 1 from a live system: server RPCs used per BSD socket call.

    Issues every Table 1 call against a library placement while counting
    OS-server RPCs; returns ``{call: rpcs}``.  ``telemetry=True``
    enables the metrics registry (the invariant tests compare against a
    telemetry-free run).
    """
    from repro.net.addr import ip_aton

    net, pa, pb = build_network(config_key)
    if telemetry:
        net.metrics.enable()
    api_a = pa.new_app()
    api_b = pb.new_app()
    rpc = pb.server.rpc
    server_ip = ip_aton("10.0.0.1")
    trace = {}

    def record(name, before):
        trace[name] = rpc.calls - before

    ready = net.sim.event()
    rpc_a = pa.server.rpc

    def peer():
        fd = yield from api_a.socket(SOCK_STREAM)
        yield from api_a.bind(fd, 7800)
        before = rpc_a.calls
        yield from api_a.listen(fd)
        trace["listen"] = rpc_a.calls - before
        ready.succeed()
        before = rpc_a.calls
        cfd, _ = yield from api_a.accept(fd)
        trace["accept"] = rpc_a.calls - before
        data = yield from api_a.recv_exactly(cfd, 10)
        yield from api_a.send_all(cfd, data)
        yield from api_a.close(cfd)

    def exercise():
        yield ready
        before = rpc.calls
        fd = yield from api_b.socket(SOCK_STREAM)
        record("socket", before)

        before = rpc.calls
        yield from api_b.bind(fd, 7801)
        record("bind", before)

        before = rpc.calls
        yield from api_b.connect(fd, (server_ip, 7800))
        record("connect", before)

        before = rpc.calls
        yield from api_b.send_all(fd, b"0123456789")
        yield from api_b.recv_exactly(fd, 10)
        record("send/recv (all variants)", before)

        before = rpc.calls
        ufd = yield from api_b.socket(SOCK_DGRAM)
        yield from api_b.bind(ufd, 7802)
        _r, _w = yield from api_b.select([ufd], timeout=100_000)
        record("select", before)

        # close is traced before fork: afterwards the descriptors are
        # shared with the child and the last-reference rule applies.
        before = rpc.calls
        yield from api_b.close(fd)
        record("close", before)

        before = rpc.calls
        yield from api_b.fork()
        record("fork", before)
        return trace

    peer_proc = net.sim.spawn(peer())
    result = net.sim.run_process(exercise(), until=120_000_000)
    assert peer_proc.alive or peer_proc.ok
    return result


def search_best_rcvbuf(config_key, sizes_kb=(4, 8, 16, 24, 48, 120),
                       total_bytes=None):
    """The paper's buffer-size search: grow the receive buffer until
    throughput stops improving.  Returns (best_kb, {kb: throughput})."""
    sweep = {}
    best_kb = sizes_kb[0]
    best = 0.0
    for kb in sizes_kb:
        result = run_throughput(config_key, total_bytes=total_bytes,
                                rcvbuf_kb=kb)
        sweep[kb] = result.throughput_kbs
        if result.throughput_kbs > best * RCVBUF_IMPROVEMENT:
            best = result.throughput_kbs
            best_kb = kb
    return best_kb, sweep
