"""Direct timings of public functions, one layer each.

These are the per-operation costs a per-packet budget is made of
(*Fast Userspace Networking for the Rest of Us*): each entry times one
public function on fixed inputs generated from the seed, and reports
the best of a few rounds so a noisy neighbour cannot inflate it.  When a
name is gone the entry is ``None`` and a note says why; nothing here may
crash the layered pass.
"""

import random
import time
from types import SimpleNamespace

ROUNDS = 5


def _best(fn, operations, rounds=ROUNDS):
    """Seconds per operation: the fastest of ``rounds`` calls of ``fn``,
    which performs ``operations`` operations."""
    best = None
    for _ in range(rounds):
        begin = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - begin
        if best is None or elapsed < best:
            best = elapsed
    return best / operations


def _frame(rng, dst_port):
    from repro.net import ethernet, ip, udp
    from repro.net.addr import ip_aton, make_mac

    src, dst = ip_aton("10.0.0.1"), ip_aton("10.0.0.2")
    dgram = udp.encapsulate(src, dst, 5000, dst_port, rng.randbytes(64))
    packet = ip.encapsulate(src, dst, ip.PROTO_UDP, dgram, ident=1)
    return dst, ethernet.encapsulate(make_mac(2), make_mac(1),
                                     ethernet.ETHERTYPE_IP, packet)


def checksum_ns_per_byte(rng):
    from repro.net.checksum import internet_checksum

    small, large = rng.randbytes(64), rng.randbytes(1460)
    n = 2000

    def work():
        for _ in range(n):
            internet_checksum(small)
            internet_checksum(large)

    return _best(work, n * (64 + 1460)) * 1e9


def filter_ns_per_run(rng):
    from repro.filter.compile import compile_session_filter
    from repro.filter.vm import FilterMachine

    dst, matching = _frame(rng, 7000)
    _dst, other = _frame(rng, 7001)
    program = compile_session_filter(17, dst, 7000)
    machine = FilterMachine()
    if not machine.run(program, matching)[0] or machine.run(program, other)[0]:
        raise RuntimeError("session filter did not separate the frames")
    n = 5000

    def work():
        run = machine.run
        for _ in range(n):
            run(program, matching)
            run(program, other)

    return _best(work, 2 * n) * 1e9


def mem_ns_per_op(rng):
    from repro.mem.mbuf import Mbuf

    payload = rng.randbytes(1460)
    n = 2000

    def work():
        for _ in range(n):
            chain = Mbuf.from_bytes(payload)
            chain.pullup(40)
            chain.to_bytes()

    return _best(work, 3 * n) * 1e9


def ip_ns_per_hdr(rng):
    from repro.net.addr import ip_aton
    from repro.net.ip import PROTO_TCP, IPHeader

    src, dst = ip_aton("10.0.0.1"), ip_aton("10.0.0.2")
    idents = [rng.randrange(65536) for _ in range(64)]
    n = 5000

    def work():
        for i in range(n):
            header = IPHeader(src, dst, PROTO_TCP, 1500, ident=idents[i & 63])
            IPHeader.unpack(header.pack())

    return _best(work, n) * 1e9


def tcp_ns_per_hdr(rng):
    from repro.net.addr import ip_aton
    from repro.net.tcp.header import TCPSegment

    src, dst = ip_aton("10.0.0.1"), ip_aton("10.0.0.2")
    payload = rng.randbytes(64)
    n = 5000

    def work():
        for i in range(n):
            segment = TCPSegment(5000, 5001, seq=i, ack=i, flags=0x10,
                                 window=8192, payload=payload)
            TCPSegment.unpack(src, dst, segment.pack(src, dst))

    return _best(work, n) * 1e9


def engine_ns_per_timer(rng):
    from repro.sim.engine import Simulator

    n = 100_000
    delays = [rng.uniform(1.0, 1_000_000.0) for _ in range(n)]

    def work():
        sim = Simulator()
        timeout = sim.timeout
        for delay in delays:
            timeout(delay)
        sim.run()

    return _best(work, n, rounds=2) * 1e9


def process_ns_per_charge(rng):
    from repro.hw.cpu import CPU
    from repro.hw.platforms import DECSTATION_5000_200
    from repro.sim.engine import Simulator
    from repro.stack.context import ExecutionContext

    n = 100_000
    cost = rng.uniform(1.0, 2.0)

    def work():
        sim = Simulator()
        ctx = ExecutionContext(sim, CPU(sim, DECSTATION_5000_200))

        def worker():
            for _ in range(n):
                yield ctx.charge("layer", cost)

        sim.run_process(worker())

    return _best(work, n, rounds=3) * 1e9


def kernel_ns_per_rpc(rng):
    from repro.hw.cpu import CPU
    from repro.hw.platforms import DECSTATION_5000_200
    from repro.kernel.ipc import RPCPort
    from repro.sim.engine import Simulator
    from repro.stack.context import ExecutionContext

    n = 3000
    operands = (rng.randrange(1000), rng.randrange(1000))

    def work():
        sim = Simulator()
        ctx = ExecutionContext(sim, CPU(sim, DECSTATION_5000_200))
        rpc = RPCPort(sim)

        def server():
            while True:
                message = yield from rpc.serve(ctx)
                yield from rpc.reply(ctx, message, sum(message.args))

        def client():
            for _ in range(n):
                yield from rpc.call(ctx, "add", args=operands)

        sim.spawn(server())
        sim.run_process(client())

    return _best(work, n, rounds=3) * 1e9


def _synthetic_spans(rng, n):
    """``n`` spans over a 10 ms request: two thirds CPU, one third
    waits, overlapping the way queued work does."""
    cpu, waits = [], []
    kinds = ("queue", "contention", "loss-recovery", "control-plane")
    for i in range(n):
        start = rng.uniform(0.0, 10_000.0)
        cost = rng.uniform(1.0, 200.0)
        if i % 3:
            cpu.append(SimpleNamespace(start=start, cost=cost,
                                       owner="h%d" % (i % 4), layer="tcp"))
        else:
            waits.append(SimpleNamespace(start=start, cost=cost,
                                         owner="h%d" % (i % 4), layer="nic",
                                         kind=kinds[i % len(kinds)]))
    return cpu, waits


def forensics_ms_per_kspan(rng):
    """``critical_path`` at 250, 500 and 1 000 spans.  The metric is the
    1 000-span figure; the three together expose the growth (a
    quadratic algorithm quadruples per doubling)."""
    from repro.analysis.forensics import critical_path

    detail = {}
    for n in (250, 500, 1000):
        cpu, waits = _synthetic_spans(rng, n)
        seconds = _best(lambda: critical_path(cpu, waits, 0.0, 10_000.0), 1,
                        rounds=1)
        detail[str(n)] = seconds * 1e3 / (n / 1000.0)
    return detail["1000"], detail


def metrics_merge_us(rng):
    from repro.metrics.registry import MetricsRegistry, merge_states
    from repro.sim.engine import Simulator

    registries = []
    for _island in range(2):
        registry = MetricsRegistry(Simulator())
        registry.enable()
        histogram = registry.histogram("latency")
        counter = registry.counter("frames")
        gauge = registry.gauge("depth")
        for _ in range(1000):
            histogram.observe(rng.randrange(1, 1 << 20))
            counter.inc(1)
        for _ in range(100):
            gauge.record(rng.randrange(64))
        registries.append(registry)
    n = 50

    def work():
        for _ in range(n):
            merge_states([registry.export_state(island=island)
                          for island, registry in enumerate(registries)])

    return _best(work, n) * 1e6


TIMINGS = (
    ("net.checksum.ns_per_byte", checksum_ns_per_byte),
    ("filter.ns_per_run", filter_ns_per_run),
    ("mem.ns_per_op", mem_ns_per_op),
    ("net.ip.ns_per_hdr", ip_ns_per_hdr),
    ("net.tcp.ns_per_hdr", tcp_ns_per_hdr),
    ("sim.engine.ns_per_timer", engine_ns_per_timer),
    ("sim.process.ns_per_charge", process_ns_per_charge),
    ("kernel.ns_per_rpc", kernel_ns_per_rpc),
    ("analysis.forensics.ms_per_kspan", forensics_ms_per_kspan),
    ("metrics.merge_us", metrics_merge_us),
)


def direct_timings(seed):
    """``{"values": {name: number | None}, "detail": {...},
    "notes": [...]}``."""
    values, detail, notes = {}, {}, []
    for name, fn in TIMINGS:
        # Same inputs for a timing whichever others still exist.
        rng = random.Random("%s:%d" % (name, seed))
        try:
            value = fn(rng)
        except (ImportError, AttributeError, TypeError) as exc:
            # The public name this timing calls is gone or changed shape.
            values[name] = None
            notes.append("%s: not measured (%s: %s)"
                         % (name, type(exc).__name__, exc))
            continue
        if isinstance(value, tuple):
            value, detail[name] = value
        values[name] = value
    return {"values": values, "detail": detail, "notes": notes}
