"""The continuous-telemetry layer: registry, tcp_probe, invariants.

The two standing contracts under test:

* **Zero overhead when disabled** — a world with its registry left
  disabled runs with every observation hook at ``None`` and produces
  byte-identical results to a world that predates the metrics layer.
* **Passive when enabled** — flipping the registry on records telemetry
  but changes no simulated metric: throughput, elapsed time, frame
  counts, and CPU busy time are all bit-identical to a disabled run.
"""

import io
import json

import pytest

from repro.analysis.timeseries import (
    export_csv,
    export_jsonl,
    percentiles,
    probe_summary,
    summarize,
)
from repro.apps.ttcp import ttcp
from repro.metrics import MetricsRegistry, TimeSeries
from repro.metrics.registry import state_cell_block
from repro.sim.engine import Simulator
from repro.world.configs import build_network


# ----------------------------------------------------------------------
# Metric types
# ----------------------------------------------------------------------

def test_counter_and_gauge_basics():
    registry = MetricsRegistry(Simulator())
    counter = registry.counter("events")
    counter.inc()
    counter.inc(4)
    assert counter.value == 5

    gauge = registry.gauge("depth")
    gauge.record(3)
    gauge.record(7)
    assert gauge.value == 7
    assert gauge.recorded == 2
    assert [v for _t, v in gauge.samples] == [3, 7]


def test_gauge_history_is_bounded_but_count_is_not():
    registry = MetricsRegistry(Simulator(), capacity=4)
    gauge = registry.gauge("g")
    for i in range(10):
        gauge.record(i)
    assert len(gauge.samples) == 4
    assert gauge.recorded == 10
    assert [v for _t, v in gauge.samples] == [6, 7, 8, 9]


def test_histogram_buckets_and_stats():
    registry = MetricsRegistry(Simulator())
    hist = registry.histogram("h")
    for v in (0, 1, 2, 3, 4, 1000):
        hist.observe(v)
    snap = hist.snapshot()
    assert snap["count"] == 6
    assert snap["min"] == 0 and snap["max"] == 1000
    assert snap["mean"] == pytest.approx(1010 / 6)
    # Bucket layout: 0 -> bucket 0, 1 -> 1, 2..3 -> 2, 4 -> 3, 1000 -> 10.
    assert hist.counts[0] == 1 and hist.counts[1] == 1
    assert hist.counts[2] == 2 and hist.counts[3] == 1
    assert hist.counts[10] == 1
    # Percentiles are bucket-edge approximations clamped to min/max.
    assert snap["p50"] in (1, 2, 3)
    assert snap["p99"] == 1000


def test_timeseries_columns_and_last():
    registry = MetricsRegistry(Simulator())
    series = registry.timeseries("s", ("a", "b"))
    series.append(1.0, 10, 20)
    series.append(2.0, 11, 21)
    assert series.last() == (2.0, 11, 21)
    assert series.column("b") == [(1.0, 20), (2.0, 21)]


def test_registry_create_or_get_and_kind_mismatch():
    registry = MetricsRegistry(Simulator())
    assert registry.counter("x") is registry.counter("x")
    with pytest.raises(TypeError):
        registry.gauge("x")
    assert registry.unique_name("x") == "x#2"
    registry.counter("x#2")
    assert registry.unique_name("x") == "x#3"
    assert set(registry.names()) == {"x", "x#2"}


def test_bindings_follow_enable_disable():
    registry = MetricsRegistry(Simulator())

    class Obj:
        hook = "sentinel"

    obj = Obj()
    gauge = registry.gauge("depth")
    registry.bind(obj, "hook", gauge)
    assert obj.hook is None  # disabled: hook costs one None test
    registry.enable()
    assert obj.hook is gauge
    registry.disable()
    assert obj.hook is None

    # Binding while already enabled goes live immediately.
    registry.enable()
    other = Obj()
    registry.bind(other, "hook", gauge)
    assert other.hook is gauge


def test_sample_dedupes_by_instant_and_reads_pull_sources():
    sim = Simulator()
    registry = MetricsRegistry(sim)
    reads = []
    registry.gauge("pull", fn=lambda: reads.append(1) or len(reads))
    registry.add_pull(lambda: {"bridge.a": 42})
    registry.sample()  # disabled: no-op
    assert reads == []
    registry.enable()
    registry.sample()
    registry.sample()  # same sim instant: deduped
    assert len(reads) == 1
    assert registry.get("bridge.a").value == 42


# ----------------------------------------------------------------------
# Time-series functions
# ----------------------------------------------------------------------

def test_percentiles_and_summarize():
    pcts = percentiles(list(range(1, 101)), ps=(0.5, 0.99))
    assert pcts[0.5] == 50
    assert pcts[0.99] == 99
    stats = summarize([(0, 1), (1, 3), (2, "established"), (3, 2)])
    assert stats == {"count": 3, "min": 1, "median": 2, "max": 3, "mean": 2.0}
    assert summarize([])["count"] == 0


# ----------------------------------------------------------------------
# The standing invariants, on a live world
# ----------------------------------------------------------------------

TRANSFER = 196608  # enough for slow start to open up; keeps the test fast


def _world_fingerprint(net, result):
    """Every simulated metric a telemetry bug could plausibly disturb."""
    return {
        "bytes": result.bytes_moved,
        "elapsed": result.elapsed_us,
        "tput": result.throughput_kbs,
        "sender_elapsed": result.sender_elapsed_us,
        "now": net.sim.now,
        "frames": net.wire.frames_carried,
        "wire_bytes": net.wire.bytes_carried,
        "cpu_busy": [h.cpu.busy_time for h in net.hosts],
        "charges": [h.cpu.charge_count for h in net.hosts],
    }


def test_disabled_world_keeps_every_hook_none():
    net, src, dst = build_network("library-shm-ipf")
    assert net.metrics.enabled is False
    ttcp(net, src, dst, total_bytes=TRANSFER)
    for host in net.hosts:
        assert host.nic.rx_depth_gauge is None
        assert host.nic.tx_depth_gauge is None
        assert host.cpu.scheduler.depth_gauge is None
    assert net.metrics.tcp_probes == []


def test_enabled_telemetry_is_bitwise_passive():
    net1, a1, b1 = build_network("library-shm-ipf")
    r1 = ttcp(net1, a1, b1, total_bytes=TRANSFER)

    net2, a2, b2 = build_network("library-shm-ipf")
    net2.metrics.enable()
    r2 = ttcp(net2, a2, b2, total_bytes=TRANSFER)

    assert _world_fingerprint(net1, r1) == _world_fingerprint(net2, r2)
    # ... and the enabled run actually observed things.
    assert net2.metrics.tcp_probes
    assert any(p.series.recorded for p in net2.metrics.tcp_probes)
    assert len(net2.metrics) > len(net1.metrics) or any(
        isinstance(m, TimeSeries) for m in
        (net2.metrics.get(n) for n in net2.metrics.names()))


def test_probe_final_sample_matches_connection_state():
    """The acceptance invariant: for a Table-2 style TCP transfer, the
    exported tcp_probe series ends exactly at the connection's ending
    cwnd and srtt."""
    net, src, dst = build_network("library-shm-ipf")
    net.metrics.enable()
    ttcp(net, src, dst, total_bytes=TRANSFER)

    buffer = io.StringIO()
    export_jsonl(net.metrics, buffer)
    by_series = {}
    for line in buffer.getvalue().splitlines():
        row = json.loads(line)
        by_series.setdefault(row["series"], []).append(row)

    checked = 0
    for probe in net.metrics.tcp_probes:
        if not probe.series.samples:
            continue
        rows = by_series[probe.series.name]
        final = rows[-1]
        assert final["cwnd"] == probe.conn.cc.cwnd
        assert final["srtt"] == probe.conn.rtt.srtt
        assert final["ssthresh"] == probe.conn.cc.ssthresh
        checked += 1
    assert checked >= 2  # at least the ttcp sender and receiver


def test_enabled_run_populates_gauges_and_histogram():
    net, src, dst = build_network("library-shm-ipf")
    net.metrics.enable()
    ttcp(net, src, dst, total_bytes=TRANSFER)
    m = net.metrics
    pull = state_cell_block(m.export_state())["pull"]
    # Pull gauges sampled on the slow tick: CPU busy time and wire counters.
    assert any(name.endswith(".cpu.busy_us") and value
               for name, value in pull.items())
    assert pull["ether0.frames"] == net.wire.frames_carried
    # Event gauges recorded at the choke points.
    waitq = [m.get(n) for n in m.names() if n.endswith(".cpu.waitq")]
    assert any(g.recorded for g in waitq)
    # The RTT histogram saw measurement samples.
    assert m.get("tcp.rtt_ticks").count > 0
    summary = probe_summary(m)
    assert summary
    for row in summary.values():
        assert row["cwnd"]["count"] == row["samples"]


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------

def _small_registry():
    registry = MetricsRegistry(Simulator())
    registry.enable()
    series = registry.timeseries("probe", ("event", "cwnd"))
    series.append(1.0, "ack", 1460)
    series.append(2.0, "ack", 2920)
    gauge = registry.gauge("depth")
    gauge.record(5)
    return registry


def test_jsonl_roundtrip():
    registry = _small_registry()
    buffer = io.StringIO()
    assert export_jsonl(registry, buffer) == 3
    rows = [json.loads(line) for line in buffer.getvalue().splitlines()]
    probe = [row for row in rows if row["series"] == "probe"]
    depth = [row for row in rows if row["series"] == "depth"]
    assert probe[1]["cwnd"] == 2920
    assert probe[1]["event"] == "ack"
    assert depth[0]["value"] == 5


def test_csv_export_long_format():
    registry = _small_registry()
    buffer = io.StringIO()
    rows = export_csv(registry, buffer)
    lines = buffer.getvalue().strip().splitlines()
    assert lines[0] == "series,t,field,value"
    assert rows == len(lines) - 1 == 5  # 2 samples x 2 fields + 1 gauge
    assert "probe,2.0,cwnd,2920" in lines


def test_chrome_trace_merges_counter_events():
    from repro.trace.export import chrome_trace

    class FakeRecorder:
        spans = ()

    registry = _small_registry()
    doc = json.loads(chrome_trace(FakeRecorder(), metrics=registry))
    counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
    assert counters
    # Numeric fields only: the string-valued "event" field is skipped.
    names = {e["name"] for e in counters}
    assert "probe.cwnd" in names
    assert "depth" in names
    assert not any("event" in n for n in names)
    assert all(e["pid"] == "telemetry" for e in counters)


# ----------------------------------------------------------------------
# Bench runner integration
# ----------------------------------------------------------------------

def test_bench_compare_ignores_metrics_block():
    from repro.analysis.bench_json import compare

    baseline = {"schema": "repro-bench/1", "figure1": {"ux": {"rpcs": 2.0}}}
    current = dict(baseline)
    current["metrics"] = {"throughput_kbs": 123.0}
    assert compare(baseline, current) == []
    # ... but a real drift still trips the gate.
    drifted = {"schema": "repro-bench/1", "figure1": {"ux": {"rpcs": 3.0}}}
    assert compare(baseline, drifted)


def test_collect_metrics_block_shape():
    from repro.analysis.bench_json import collect_metrics_block

    block = collect_metrics_block(total_bytes=131072)
    assert block["config"] == "library-shm-ipf"
    assert block["throughput_kbs"] > 0
    assert block["tcp_probes"]
    assert block["rtt_ticks"]["count"] > 0
    for row in block["tcp_probes"].values():
        assert {"samples", "cwnd", "srtt"} <= set(row)
