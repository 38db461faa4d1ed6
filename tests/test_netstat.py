"""netstat introspection: session rows, live gauges, CLI, invariants."""

from types import SimpleNamespace

import pytest

from repro.analysis.netstat import (
    control_report,
    format_control_report,
    format_report,
    host_report,
    tcp_sessions,
    udp_sessions,
)
from repro.core.sockets import SOCK_DGRAM, SOCK_STREAM
from repro.metrics import MetricsRegistry
from repro.net.addr import ip_aton
from repro.sim.engine import Simulator
from repro.stack.engine import UDPSession
from repro.world.configs import build_network

IP1 = ip_aton("10.0.0.1")
IP2 = ip_aton("10.0.0.2")


# ----------------------------------------------------------------------
# TCP rows
# ----------------------------------------------------------------------

def _echo_world(port):
    net, pa, pb = build_network("library-shm-ipf")
    api_a = pa.new_app()
    api_b = pb.new_app()
    ready = net.sim.event()

    def server():
        fd = yield from api_a.socket(SOCK_STREAM)
        yield from api_a.bind(fd, port)
        yield from api_a.listen(fd)
        ready.succeed()
        cfd, _ = yield from api_a.accept(fd)
        yield from api_a.recv(cfd, 100)
        return "done"

    def client():
        yield ready
        fd = yield from api_b.socket(SOCK_STREAM)
        yield from api_b.connect(fd, (IP1, port))
        yield from api_b.send_all(fd, b"ping")

    net.run_all([server(), client()], until=120_000_000)
    return net, pa, pb


def test_tcp_rows_cover_states_and_live_gauges():
    _net, pa, _pb = _echo_world(7470)
    report = host_report(pa)
    tcp_rows = [r for r in report["sessions"] if r["proto"] == "tcp"]
    states = {r["state"] for r in tcp_rows}
    assert "LISTEN" in states
    assert "ESTABLISHED" in states
    for row in tcp_rows:
        assert row["cwnd"] > 0
        assert row["ssthresh"] > 0
        assert row["srtt"] >= 0
        buffers = row["buffers"]
        assert {"sndq", "snd_space", "rcvq", "rcv_space", "reass"} == set(buffers)
        assert buffers["snd_space"] >= 0
    established = [r for r in tcp_rows if r["state"] == "ESTABLISHED"]
    assert any(r["srtt"] > 0 for r in established)


def test_tcp_rows_are_sorted_by_port():
    _net, pa, _pb = _echo_world(7480)
    backend = pa._backend
    stacks = [backend.stack] + [lib.stack for lib in backend._apps.values()]
    for stack in stacks:
        rows = tcp_sessions(stack)
        ports = [int(r["local"].rsplit(".", 1)[1]) for r in rows]
        assert ports == sorted(ports)


# ----------------------------------------------------------------------
# UDP rows: ordering, dedup, queue depth
# ----------------------------------------------------------------------

def _stub_stack(sim):
    """The minimal stack surface a UDPSession touches."""
    return SimpleNamespace(ctx=SimpleNamespace(sim=sim),
                           metrics=MetricsRegistry(sim))


def test_udp_rows_sorted_and_deduplicated():
    sim = Simulator()
    stack = _stub_stack(sim)
    s_high = UDPSession(stack, (IP1, 9300))
    s_low = UDPSession(stack, (IP1, 9100))
    s_conn = UDPSession(stack, (IP1, 9200))
    s_conn.remote = (IP2, 53)
    # Insertion order scrambled; the connected session appears under both
    # its wildcard and connected keys, as a re-connect can leave it.
    stack._udp = {
        (9300, None, None): s_high,
        (9200, IP2, 53): s_conn,
        (9100, None, None): s_low,
        (9200, None, None): s_conn,
    }
    rows = udp_sessions(stack)
    assert [r["local"] for r in rows] == [
        "10.0.0.1.9100", "10.0.0.1.9200", "10.0.0.1.9300"]
    assert sum(1 for r in rows if r["local"].endswith(".9200")) == 1
    assert rows[1]["remote"] == "10.0.0.2.53"
    # Calling twice gives the same order (the original bug: dict order).
    assert udp_sessions(stack) == rows


def test_udp_rows_surface_queue_depth_and_drops():
    sim = Simulator()
    stack = _stub_stack(sim)
    session = UDPSession(stack, (IP1, 9400), hiwat=100)
    stack._udp = {(9400, None, None): session}
    assert session.enqueue((IP2, 1234), b"x" * 60)
    assert session.enqueue((IP2, 1234), b"y" * 30)
    assert not session.enqueue((IP2, 1234), b"z" * 30)  # over hiwat: dropped
    (row,) = udp_sessions(stack)
    assert row["rcvq"] == 90
    assert row["queued_datagrams"] == 2
    assert row["drops"] == 1
    session.dequeue()
    (row,) = udp_sessions(stack)
    assert row["rcvq"] == 30
    assert row["queued_datagrams"] == 1


# ----------------------------------------------------------------------
# host_report extensions
# ----------------------------------------------------------------------

def test_host_report_carries_resource_and_telemetry_blocks():
    net, pa, pb = build_network("library-shm-ipf")
    api_a = pa.new_app()
    api_b = pb.new_app()

    def server():
        fd = yield from api_a.socket(SOCK_DGRAM)
        yield from api_a.bind(fd, 9410)
        yield from api_a.recvfrom(fd)

    def client():
        fd = yield from api_b.socket(SOCK_DGRAM)
        yield from api_b.sendto(fd, b"hello", (IP1, 9410))

    net.run_all([server(), client()], until=60_000_000)
    report = host_report(pa)
    assert report["cpu"]["busy_us"] > 0
    assert report["cpu"]["charges"] > 0
    assert 0.0 <= report["cpu"]["utilization"] <= 1.0
    assert report["nic"]["frames_received"] > 0
    assert report["tracer"]["enabled"] is False
    assert report["metrics"]["enabled"] is False
    assert report["migrations_out"] >= 1
    text = format_report(report)
    assert "CPU:" in text
    assert "Telemetry:" in text
    assert "Session migrations" in text
    # The Section 3.3 block: how often the send path asked the server.
    (row,) = host_report(pb)["metastate"]
    assert row["app"] == api_b.library.name
    assert (row["route_rpcs"], row["arp_rpcs"]) == (1, 1)
    assert (row["route_hits"], row["arp_hits"]) == (1, 1)
    assert row["invalidations"] == api_b.library.metastate.invalidations
    assert ("route 1 rpcs / 1 hits, arp 1 rpcs / 1 hits"
            in format_report(host_report(pb)))


def test_control_report_has_one_row_per_app_after_a_restart():
    """One crash and restart: every registered app re-registers once, and
    the one whose accept was in flight shows its retries."""
    net, pa, pb = build_network("library-shm-ipf")
    busy = pa.new_app(name="busy")
    idle = pa.new_app(name="idle")
    api_b = pb.new_app()
    restarted = net.sim.event()

    def server():
        fd = yield from busy.socket(SOCK_STREAM)
        yield from busy.bind(fd, 7475)
        yield from busy.listen(fd)
        cfd, _ = yield from busy.accept(fd)  # in flight at the crash
        yield from busy.close(cfd)
        yield from busy.close(fd)

    def controller():
        yield net.sim.timeout(50_000)
        pa.server.crash()
        yield net.sim.timeout(300_000)
        pa.server.restart()
        restarted.succeed()

    def client():
        yield restarted
        yield net.sim.timeout(100_000)
        fd = yield from api_b.socket(SOCK_STREAM)
        yield from api_b.connect(fd, (IP1, 7475))
        yield from api_b.close(fd)

    net.run_all([server(), controller(), client()], until=60_000_000)
    assert busy.resilient.retries > 0
    lines = format_control_report(control_report(pa)).splitlines()
    assert [line for line in lines if line.startswith("  app ")] == [
        "  app %-20s %3d retries, 1 rereg"
        % (api.library.name, api.resilient.retries)
        for api in (busy, idle)
    ]


def _churn_world(placement, connections=3, port=7490):
    """``connections`` client-speaks-first echoes, both ends closing at
    once, then a second for the last teardown."""
    net, pa, pb = build_network(placement)
    api_a = pa.new_app()
    api_b = pb.new_app()
    ready = net.sim.event()

    def server():
        fd = yield from api_a.socket(SOCK_STREAM)
        yield from api_a.bind(fd, port)
        yield from api_a.listen(fd)
        ready.succeed()
        for _ in range(connections):
            cfd, _ = yield from api_a.accept(fd)
            data = yield from api_a.recv_exactly(cfd, 4)
            yield from api_a.send_all(cfd, data)
            yield from api_a.close(cfd)

    def client():
        yield ready
        for _ in range(connections):
            fd = yield from api_b.socket(SOCK_STREAM)
            yield from api_b.connect(fd, (IP1, port))
            yield from api_b.send_all(fd, b"ping")
            yield from api_b.recv_exactly(fd, 4)
            yield from api_b.close(fd)

    net.run_all([server(), client()], until=120_000_000)
    net.sim.run(until=net.sim.now + 1_000_000)
    return pa, api_a


def test_host_report_counts_time_wait_and_forwarded_stragglers():
    pa, api_a = _churn_world("library-shm-ipf")
    report = host_report(pa)
    app = "app:%s" % api_a.library.name
    # The closed sessions wait out 2MSL in the server that tore them
    # down, not in the application that used them.
    assert report["time_wait"] == {"os": 3, app: 0}
    # Each client's first segment raced its accept-time migration.
    assert report["stragglers_forwarded"] >= 1
    text = format_report(report)
    assert "TIME_WAIT: os 3, %s 0" % app in text
    assert "; %d stragglers forwarded" % report["stragglers_forwarded"] \
        in text


def test_in_kernel_host_report_counts_time_wait_in_its_one_stack():
    pa, _api_a = _churn_world("mach25")
    report = host_report(pa)
    assert report["time_wait"] == {"os": 3}
    assert "stragglers_forwarded" not in report
    assert "TIME_WAIT: os 3" in format_report(report)


def test_in_kernel_host_report_has_no_metastate_block():
    _net, pa, _pb = build_network("mach25")
    pa.new_app()
    report = host_report(pa)
    assert "metastate" not in report
    assert "Cached metastate" not in format_report(report)


def test_host_report_reflects_enabled_metrics():
    net, pa, pb = build_network("library-shm-ipf")
    net.metrics.enable()
    from repro.apps.ttcp import ttcp

    ttcp(net, pb, pa, total_bytes=65536)
    report = host_report(pa)
    assert report["metrics"]["enabled"] is True
    assert report["metrics"]["tcp_probes"] > 0
    assert "metrics on" in format_report(report)


# ----------------------------------------------------------------------
# Telemetry invariants on the paper collectors
# ----------------------------------------------------------------------

def test_enabled_registry_leaves_table1_bit_equal():
    from repro.analysis.experiments import run_proxy_calls

    assert run_proxy_calls(telemetry=True) == run_proxy_calls()


def test_enabled_registry_leaves_figure1_bit_equal():
    from repro.analysis.experiments import run_crossings

    assert run_crossings("ux", telemetry=True) == run_crossings("ux")


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

def test_cli_netstat_smoke(capsys):
    from repro.__main__ import main

    assert main(["netstat", "--bytes", "65536"]) == 0
    out = capsys.readouterr().out
    assert "Active sessions on" in out
    assert "Telemetry:" in out


def test_cli_probe_exports_and_markdown(tmp_path, capsys):
    from repro.__main__ import main

    jsonl = tmp_path / "probe.jsonl"
    assert main(["probe", "--bytes", "65536", "--jsonl", str(jsonl)]) == 0
    out = capsys.readouterr().out
    assert "cwnd" in out
    assert jsonl.exists() and jsonl.read_text().strip()

    assert main(["probe", "--bytes", "65536", "--markdown"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("### tcp_probe summary")
    assert "| connection |" in out


def test_cli_profile_table_and_bad_input(capsys):
    from repro.__main__ import main

    assert main(["profile", "nosuch"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("profile: unknown harness 'nosuch'")
    assert captured.err.count("\n") == 1

    assert main(["profile", "table1_proxy_rpcs", "--top", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("### cProfile — table1_proxy_rpcs (")
    assert lines[2] == "| ncalls | tottime s | cumtime s | function |"
    assert len(lines) == 4 + 3  # title, blank, header, rule, three rows

    with pytest.raises(SystemExit) as excinfo:
        main(["profile", "table1_proxy_rpcs", "--legacy"])
    assert excinfo.value.code == 2
