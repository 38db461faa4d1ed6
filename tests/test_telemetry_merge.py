"""Telemetry plumbing: the metric-snapshot merge algebra (property
tested), the always-on flight recorder and its deadlock dump, and the
server's per-op latency histograms and slow-op log as registry
instruments."""

from functools import reduce

from hypothesis import given, settings, strategies as st

from repro.core.sockets import SOCK_STREAM
from repro.metrics.registry import (
    Counter,
    Gauge,
    Histogram,
    TimeSeries,
    merge_snapshots,
    merge_states,
    state_cell_block,
)
from repro.hw.platforms import DECSTATION_5000_200
from repro.net.addr import ip_aton
from repro.osserver.unix_server import SLOW_OP_US
from repro.sim.engine import Simulator
from repro.sim.errors import Deadlock
from repro.trace.flight import dump_deadlock
from repro.world.configs import build_network
from repro.world.network import Network


# ----------------------------------------------------------------------
# Merge algebra: order-insensitive, provenance-preserving
# ----------------------------------------------------------------------

@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 2 ** 20), min_size=1, max_size=5))
def test_counter_merge_sums_and_is_order_insensitive(values):
    snaps = []
    for island, value in enumerate(values):
        counter = Counter("frames")
        counter.inc(value)
        snaps.append(counter.snapshot(island=island))
    forward = reduce(merge_snapshots, snaps)
    backward = reduce(merge_snapshots, list(reversed(snaps)))
    assert forward == backward
    assert forward["value"] == sum(values)
    assert forward["islands"] == list(range(len(values)))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(st.integers(0, 2 ** 40), max_size=20),
                min_size=1, max_size=4))
def test_histogram_merge_equals_one_big_histogram(partitions):
    # Observing a dataset split across islands then merging must equal
    # observing the whole dataset in one histogram.
    whole = Histogram("latency")
    snaps = []
    for island, chunk in enumerate(partitions):
        part = Histogram("latency")
        for value in chunk:
            part.observe(value)
            whole.observe(value)
        snaps.append(part.snapshot(island=island))
    merged = reduce(merge_snapshots, snaps)
    backward = reduce(merge_snapshots, list(reversed(snaps)))
    expected = whole.snapshot()
    for key in ("count", "sum", "min", "max", "mean", "p50", "p99",
                "counts"):
        assert merged[key] == expected[key], key
        assert backward[key] == expected[key], key


samples_lists = st.lists(
    st.lists(st.tuples(st.integers(0, 1_000), st.integers(-50, 50)),
             max_size=10),
    min_size=1, max_size=3)


def _gauge_snapshot(island, rows):
    # Real recorders sample at non-decreasing simulated time.
    times = iter([t for t, _v in rows])
    gauge = Gauge("queue_depth", now=lambda: next(times))
    for _t, value in rows:
        gauge.record(value)
    return gauge.snapshot(island=island)


@settings(max_examples=50, deadline=None)
@given(samples_lists)
def test_gauge_merge_keeps_per_island_provenance(partitions):
    partitions = [sorted(rows, key=lambda row: row[0])
                  for rows in partitions]
    snaps = [_gauge_snapshot(island, rows)
             for island, rows in enumerate(partitions)]
    forward = reduce(merge_snapshots, snaps)
    backward = reduce(merge_snapshots, list(reversed(snaps)))
    assert forward == backward
    assert forward["recorded"] == sum(len(rows) for rows in partitions)
    # The merged history is sorted by the total (t, island, seq) key...
    keys = [(s[2], s[0], s[1]) for s in forward["samples"]]
    assert keys == sorted(keys)
    # ...and every island's samples survive, in their original order.
    for island, rows in enumerate(partitions):
        kept = [(s[2], s[3]) for s in forward["samples"]
                if s[0] == island]
        assert kept == list(rows)


def test_station_filter_gauges_merge_across_islands():
    # One shared segment per island; on each, one station sends unicast
    # frames to a second while a third looks on.
    states, expected = [], {}
    for island, frames in enumerate((3, 5)):
        net = Network(name="seg%d" % island)
        net.metrics.enable()
        tx, rx, bystander = (
            net.add_host("10.0.%d.%d" % (island, i + 1),
                         DECSTATION_5000_200, name="i%dh%d" % (island, i))
            for i in range(3))

        def send():
            for _ in range(frames):
                yield from tx.nic.start_transmit(
                    rx.mac + tx.mac + b"\x08\x00" + b"x" * 46)

        net.sim.run_process(send())
        net.sim.run(until=net.sim.now + 10_000)
        states.append(net.metrics.export_state(island=island))
        expected["%s.nic.rx_filtered" % bystander.name] = frames
        expected["%s.nic.rx_filtered" % rx.name] = 0
    merged = merge_states(states)
    assert merged == merge_states(list(reversed(states)))
    assert merged["islands"] == [0, 1]
    pull = state_cell_block(merged)["pull"]
    for name, frames in expected.items():
        assert pull[name] == frames
        assert pull[name.replace("rx_filtered", "rx_dropped")] == 0


@settings(max_examples=50, deadline=None)
@given(samples_lists)
def test_series_merge_keeps_per_island_provenance(partitions):
    partitions = [sorted(rows, key=lambda row: row[0])
                  for rows in partitions]
    snaps = []
    for island, rows in enumerate(partitions):
        series = TimeSeries("tcp_probe", fields=("cwnd",))
        for t, value in rows:
            series.append(t, value)
        snaps.append(series.snapshot(island=island))
    forward = reduce(merge_snapshots, snaps)
    backward = reduce(merge_snapshots, list(reversed(snaps)))
    assert forward == backward
    assert forward["recorded"] == sum(len(rows) for rows in partitions)
    keys = [(s[2], s[0], s[1]) for s in forward["samples"]]
    assert keys == sorted(keys)
    for island, rows in enumerate(partitions):
        kept = [(s[2], s[3]) for s in forward["samples"]
                if s[0] == island]
        assert kept == list(rows)


# ----------------------------------------------------------------------
# The flight recorder names the blocked process on a deadlock
# ----------------------------------------------------------------------

def test_deadlock_dump_names_the_blocked_process(tmp_path):
    sim = Simulator()

    def stuck():
        yield sim.event("never-fires")

    sim.spawn(stuck(), name="stuck-proc")
    try:
        sim.run(detect_deadlock=True)
        raise AssertionError("expected a Deadlock")
    except Deadlock as exc:
        assert exc.flight  # the ring travelled with the exception
        path = str(tmp_path / "post-mortem.flight")
        text = dump_deadlock(sim.flight, exc, path)
    assert "stuck-proc" in text
    assert "spawn" in text
    with open(path) as fh:
        assert "stuck-proc" in fh.read()
    with open(path + ".json") as fh:
        assert '"spawn stuck-proc"' in fh.read()


def test_flight_recorder_is_always_on():
    sim = Simulator()
    sim.spawn(sim.sleep(5), name="napper")
    sim.run()
    kinds = [event[1] for event in sim.flight.events]
    assert kinds == ["spawn", "exit"]
    assert sim.flight.recorded == 2
    assert sim.flight.evicted == 0


# ----------------------------------------------------------------------
# Per-op latency histograms and the slow-op log on the server
# ----------------------------------------------------------------------

def _accept_after_a_pause():
    """One connection whose accept parks past the slow-op threshold, on
    a world whose metrics registry stays disabled."""
    network, pa, pb = build_network("library-shm-ipf")
    api_a = pa.new_app(name="srv")
    api_b = pb.new_app(name="cli")
    ready = network.sim.event()

    def server():
        fd = yield from api_a.socket(SOCK_STREAM)
        yield from api_a.bind(fd, 7000)
        yield from api_a.listen(fd)
        ready.succeed()
        cfd, _ = yield from api_a.accept(fd)
        yield from api_a.close(cfd)
        yield from api_a.close(fd)

    def client():
        yield ready
        # Park before connecting so the server's accept op blocks long
        # enough to land in the slow-op log.
        yield network.sim.timeout(4 * SLOW_OP_US)
        fd = yield from api_b.socket(SOCK_STREAM)
        yield from api_b.connect(fd, (ip_aton("10.0.0.1"), 7000))
        yield from api_b.close(fd)

    network.run_all([server(), client()], until=60_000_000)
    assert not network.metrics.enabled
    return network, pa._backend


def test_server_per_op_latency_and_slow_op_log():
    # Two islands' worlds, each recording with its registry disabled.
    states = []
    for island in range(2):
        network, backend = _accept_after_a_pause()
        states.append(network.metrics.export_state(island=island))
    health = backend.health_snapshot()
    ops = health["op_latency"]
    assert ops["proxy_socket"]["count"] == 1
    assert ops["proxy_accept"]["count"] == 1
    assert ops["proxy_accept"]["max_us"] >= 4 * SLOW_OP_US
    assert ops["proxy_accept"]["p99_us"] >= ops["proxy_accept"]["mean_us"]
    slow = health["slow_ops"]
    assert any(entry["op"] == "proxy_accept"
               and entry["us"] >= SLOW_OP_US for entry in slow)
    # Fast ops stay out of the slow-op log.
    assert all(entry["us"] >= SLOW_OP_US for entry in slow)
    # Ops that park by contract are latency-tracked but never logged
    # as slow: they would evict the genuinely anomalous entries.
    assert "proxy_select" in type(backend).SLOW_OP_EXEMPT
    assert not any(entry["op"] in type(backend).SLOW_OP_EXEMPT
                   for entry in slow)
    # Both are registry instruments: exported like any metric...
    accept = "%s.rpc.op.proxy_accept" % backend.name
    slow_ops = "%s.rpc.slow_ops" % backend.name
    one = states[1]["metrics"]
    assert one[accept]["count"] == 1
    assert one[slow_ops]["recorded"] == len(slow)
    assert sum(snap["count"] for name, snap in one.items()
               if name.startswith(backend.name + ".rpc.op.")) == sum(
        row["count"] for row in ops.values())
    # ...and additive across islands by the registry's merge algebra.
    merged = merge_states(states)["metrics"]
    assert merged[accept]["count"] == 2
    assert merged[accept]["max"] == one[accept]["max"]
    assert merged[slow_ops]["recorded"] == 2 * len(slow)
    assert [s[0] for s in merged[slow_ops]["samples"]] == sorted(
        [0, 1] * len(slow))
