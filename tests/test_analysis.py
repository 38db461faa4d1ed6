"""The analysis toolkit: tables, netstat, experiment orchestration."""

import pytest

from repro.analysis.netstat import format_report, host_report
from repro.analysis.tables import format_table, render_latency_table
from repro.core.sockets import SOCK_DGRAM, SOCK_STREAM
from repro.net.addr import ip_aton
from repro.world.configs import build_network

IP1 = ip_aton("10.0.0.1")


# ----------------------------------------------------------------------
# Table rendering
# ----------------------------------------------------------------------

def test_format_table_alignment():
    text = format_table(
        ["name", "value"], [["short", 1], ["a-much-longer-name", 22.5]]
    )
    lines = text.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("name")
    # Right-aligned numeric column.
    assert lines[2].rstrip().endswith("1.00") or lines[2].rstrip().endswith("1")
    assert "a-much-longer-name" in lines[3]


def test_format_table_title_and_none():
    text = format_table(["a"], [[None]], title="My Table")
    assert text.startswith("My Table")
    assert "NA" in text


def test_format_table_rejects_ragged_rows():
    with pytest.raises(ValueError):
        format_table(["a", "b"], [["only one"]])


def test_render_latency_table():
    text = render_latency_table(
        {"sys1": {1: 1.5, 100: 2.0}, "sys2": {1: 3.0, 100: 4.0}},
        sizes=(1, 100),
        title="Latency",
    )
    assert "1B" in text and "100B" in text
    assert "sys1" in text and "3.00" in text


# ----------------------------------------------------------------------
# netstat
# ----------------------------------------------------------------------

def test_host_report_covers_sessions_and_filters():
    net, pa, pb = build_network("library-shm-ipf")
    api_a = pa.new_app()
    api_b = pb.new_app()
    ready = net.sim.event()

    def server():
        fd = yield from api_a.socket(SOCK_STREAM)
        yield from api_a.bind(fd, 7450)
        yield from api_a.listen(fd)
        ufd = yield from api_a.socket(SOCK_DGRAM)
        yield from api_a.bind(ufd, 9450)
        ready.succeed()
        cfd, _ = yield from api_a.accept(fd)
        yield from api_a.recv(cfd, 100)
        return "done"

    def client():
        yield ready
        fd = yield from api_b.socket(SOCK_STREAM)
        yield from api_b.connect(fd, (IP1, 7450))
        yield from api_b.send_all(fd, b"x")

    net.run_all([server(), client()], until=120_000_000)
    report = host_report(pa)
    protos = {row["proto"] for row in report["sessions"]}
    states = {row["state"] for row in report["sessions"]}
    wheres = {row["where"] for row in report["sessions"]}
    assert protos == {"tcp", "udp"}
    assert "LISTEN" in states
    assert "ESTABLISHED" in states
    assert "os" in wheres  # the listener lives with the OS server
    assert any(w.startswith("app:") for w in wheres)  # the child migrated
    assert report["migrations_out"] >= 2  # TCP child + UDP bind
    text = format_report(report)
    assert "LISTEN" in text
    assert "Session migrations" in text


def test_host_report_kernel_placement():
    net, pa, _pb = build_network("mach25")
    api = pa.new_app()

    def prog():
        fd = yield from api.socket(SOCK_DGRAM)
        yield from api.bind(fd, 9460)

    net.run_all([prog()], until=60_000_000)
    report = host_report(pa)
    assert any(row["proto"] == "udp" for row in report["sessions"])
    assert "migrations_out" not in report  # no migration in this world
    assert format_report(report)  # renders without error


# ----------------------------------------------------------------------
# Experiment orchestration
# ----------------------------------------------------------------------

def test_search_best_rcvbuf_finds_a_knee():
    from repro.analysis.experiments import search_best_rcvbuf

    best, sweep = search_best_rcvbuf(
        "mach25", sizes_kb=(4, 16, 48), total_bytes=256 * 1024
    )
    assert best in (16, 48)
    assert sweep[4] < sweep[best]
    assert set(sweep) == {4, 16, 48}


def test_run_breakdown_layers_complete():
    from repro.analysis.experiments import run_breakdown
    from repro.stack.instrument import Layer

    breakdown = run_breakdown("mach25", "udp", 1, rounds=20)
    for layer in Layer.SEND_PATH + Layer.RECEIVE_PATH:
        assert layer in breakdown
    assert breakdown["send path total"] > 0
    assert breakdown["receive path total"] > 0
    assert breakdown["measured rtt_us"] > 0
    # In-kernel: no kernel->user copy before the protocol.
    assert breakdown[Layer.KERNEL_COPYOUT] == 0


# ----------------------------------------------------------------------
# The report module's command line
# ----------------------------------------------------------------------

def test_report_without_a_path_prints_and_writes_no_file(
        tmp_path, monkeypatch, capsys):
    from repro.analysis import report

    # The real generate() re-runs every table (minutes); main() only
    # decides where its text goes.
    monkeypatch.setattr(report, "generate",
                        lambda stream: stream.write("# the report\n"))
    monkeypatch.chdir(tmp_path)
    report.main(["report"])
    assert capsys.readouterr().out == "# the report\n"
    assert list(tmp_path.iterdir()) == []
    report.main(["report", "out.md"])
    assert (tmp_path / "out.md").read_text() == "# the report\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.md"]
