"""protolat: protocol round-trip latency for TCP and UDP.

A client sends an N-byte message; the echo server returns N bytes; one
round trip is the time between the client's send and the completion of
its receive.  The paper ran 50000 round trips on an otherwise idle
network and reports the average in milliseconds for message sizes from 1
byte up to the largest unfragmented payload (1460 TCP / 1472 UDP).
"""

from dataclasses import dataclass

from repro.core.sockets import SOCK_DGRAM, SOCK_STREAM

DEFAULT_PORT = 5002
WARMUP_ROUNDS = 4


def percentile(samples, p):
    """Nearest-rank percentile of a sequence (p in [0, 100])."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * p // 100))  # ceil without floats
    return ordered[int(rank) - 1]


@dataclass
class LatencyResult:
    """Outcome of one protolat run."""

    proto: str
    message_size: int
    rounds: int
    mean_rtt_us: float
    min_rtt_us: float
    max_rtt_us: float
    #: Per-round RTT samples (microseconds), warmup excluded.
    samples: tuple = ()

    @property
    def mean_rtt_ms(self):
        return self.mean_rtt_us / 1000.0

    def percentile_us(self, p):
        return percentile(self.samples, p)

    @property
    def p50_rtt_us(self):
        return self.percentile_us(50)

    @property
    def p95_rtt_us(self):
        return self.percentile_us(95)

    @property
    def p99_rtt_us(self):
        return self.percentile_us(99)

    def __str__(self):
        return "%s %dB: %.2f ms RTT (%d rounds)" % (
            self.proto,
            self.message_size,
            self.mean_rtt_ms,
            self.rounds,
        )


def protolat(network, client_placement, server_placement, proto="udp",
             message_size=1, rounds=100, port=DEFAULT_PORT, on_warm=None):
    """Measure round-trip latency; returns a :class:`LatencyResult`.

    The first :data:`WARMUP_ROUNDS` trips (ARP exchange, cache warming,
    slow start) are excluded, as a 50000-round average effectively does.
    ``on_warm``, if given, is called once when warmup completes — the
    breakdown harness uses it to reset the layer-accounting ledgers so
    Table 4 shows steady-state means.
    """
    if proto not in ("udp", "tcp"):
        raise ValueError("proto must be 'udp' or 'tcp'")
    sim = network.sim
    client_api = client_placement.new_app(name="protolat-c")
    server_api = server_placement.new_app(name="protolat-s")
    server_ip = server_placement.host.ip
    ready = sim.event("protolat.ready")
    total_rounds = rounds + WARMUP_ROUNDS
    message = bytes(i & 0xFF for i in range(message_size))

    def udp_server():
        fd = yield from server_api.socket(SOCK_DGRAM)
        yield from server_api.bind(fd, port)
        ready.succeed()
        for _ in range(total_rounds):
            data, src = yield from server_api.recvfrom(fd)
            yield from server_api.sendto(fd, data, src)
        yield from server_api.close(fd)

    def udp_client():
        yield ready
        fd = yield from client_api.socket(SOCK_DGRAM)
        yield from client_api.connect(fd, (server_ip, port))
        samples = []
        for i in range(total_rounds):
            if i == WARMUP_ROUNDS and on_warm is not None:
                on_warm()
            start = sim.now
            yield from client_api.send(fd, message)
            reply = yield from client_api.recv(fd, 65535)
            assert len(reply) == message_size
            if i >= WARMUP_ROUNDS:
                samples.append(sim.now - start)
        yield from client_api.close(fd)
        return samples

    def tcp_server():
        fd = yield from server_api.socket(SOCK_STREAM)
        yield from server_api.bind(fd, port)
        yield from server_api.listen(fd, 1)
        ready.succeed()
        cfd, _addr = yield from server_api.accept(fd)
        for _i in range(total_rounds):
            data = yield from server_api.recv_exactly(cfd, message_size)
            yield from server_api.send_all(cfd, data)
        yield from server_api.close(cfd)
        yield from server_api.close(fd)

    def tcp_client():
        yield ready
        fd = yield from client_api.socket(SOCK_STREAM)
        yield from client_api.connect(fd, (server_ip, port))
        samples = []
        for i in range(total_rounds):
            if i == WARMUP_ROUNDS and on_warm is not None:
                on_warm()
            start = sim.now
            yield from client_api.send_all(fd, message)
            yield from client_api.recv_exactly(fd, message_size)
            if i >= WARMUP_ROUNDS:
                samples.append(sim.now - start)
        yield from client_api.close(fd)
        return samples

    if proto == "udp":
        server_gen, client_gen = udp_server(), udp_client()
    else:
        server_gen, client_gen = tcp_server(), tcp_client()
    until = sim.now + total_rounds * 1_000_000.0 + 60_000_000
    _server_result, samples = network.run_all(
        [server_gen, client_gen], until=until
    )
    return LatencyResult(
        proto=proto,
        message_size=message_size,
        rounds=len(samples),
        mean_rtt_us=sum(samples) / len(samples),
        min_rtt_us=min(samples),
        max_rtt_us=max(samples),
        samples=tuple(samples),
    )
