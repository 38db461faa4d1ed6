"""ttcp: the memory-to-memory TCP throughput benchmark.

The paper's ttcp "transfers 16 MB of data from one host to another" and
reports steady-state throughput in KB/second.  This is the same workload:
a source writes a fixed number of bytes through the socket interface in
``write_size`` chunks; the sink reads until it has them all.  Elapsed time
is measured on the sink from connection acceptance to the last byte, as
ttcp -r does.
"""

from dataclasses import dataclass

from repro.core.sockets import SOCK_STREAM

DEFAULT_TOTAL = 16 * 1024 * 1024
DEFAULT_WRITE = 8 * 1024
DEFAULT_PORT = 5001


@dataclass
class TtcpResult:
    """Outcome of one ttcp run."""

    bytes_moved: int
    elapsed_us: float
    throughput_kbs: float  # KB/second, the paper's unit
    sender_elapsed_us: float

    def __str__(self):
        return "%d KB in %.0f ms -> %.0f KB/s" % (
            self.bytes_moved // 1024,
            self.elapsed_us / 1000.0,
            self.throughput_kbs,
        )


def ttcp(network, src_placement, dst_placement, total_bytes=DEFAULT_TOTAL,
         write_size=DEFAULT_WRITE, rcvbuf_kb=24, sndbuf_kb=24):
    """Run one ttcp transfer; returns a :class:`TtcpResult`.

    ``rcvbuf_kb`` is the receive-socket-buffer size — the paper tuned this
    per configuration ("the best possible receive buffer size").
    """
    sim = network.sim
    src_api = src_placement.new_app(name="ttcp-t")
    dst_api = dst_placement.new_app(name="ttcp-r")
    dst_ip = dst_placement.host.ip
    listening = sim.event("ttcp.listening")

    def sink():
        fd = yield from dst_api.socket(SOCK_STREAM)
        yield from dst_api.setsockopt(fd, "rcvbuf", rcvbuf_kb * 1024)
        yield from dst_api.bind(fd, DEFAULT_PORT)
        yield from dst_api.listen(fd, 1)
        listening.succeed()
        cfd, _addr = yield from dst_api.accept(fd)
        started = sim.now
        received = 0
        while received < total_bytes:
            chunk = yield from dst_api.recv(cfd, 64 * 1024)
            if not chunk:
                break
            received += len(chunk)
        elapsed = sim.now - started
        yield from dst_api.close(cfd)
        yield from dst_api.close(fd)
        return received, elapsed

    def source():
        yield listening
        fd = yield from src_api.socket(SOCK_STREAM)
        yield from src_api.setsockopt(fd, "sndbuf", sndbuf_kb * 1024)
        yield from src_api.connect(fd, (dst_ip, DEFAULT_PORT))
        started = sim.now
        # ttcp's canned pattern buffer; content is irrelevant but real
        # bytes flow (and get checksummed) end to end.
        pattern = bytes(range(256)) * (write_size // 256 + 1)
        remaining = total_bytes
        while remaining > 0:
            chunk = pattern[: min(write_size, remaining)]
            yield from src_api.send_all(fd, chunk)
            remaining -= len(chunk)
        yield from src_api.close(fd)
        return sim.now - started

    # Generous bound: even 100 KB/s would finish in this budget.
    until = sim.now + total_bytes * 12.0 + 60_000_000
    (received, elapsed), sender_elapsed = network.run_all(
        [sink(), source()], until=until
    )
    if received < total_bytes:
        raise RuntimeError(
            "ttcp incomplete: %d of %d bytes" % (received, total_bytes)
        )
    throughput = (received / 1024.0) / (elapsed / 1_000_000.0)
    return TtcpResult(
        bytes_moved=received,
        elapsed_us=elapsed,
        throughput_kbs=throughput,
        sender_elapsed_us=sender_elapsed,
    )
