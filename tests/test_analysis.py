"""The analysis toolkit: netstat, experiment orchestration, and the
paper-vs-measured report."""

import json
import shutil
from pathlib import Path

import pytest

from repro.analysis import paper, report
from repro.analysis.netstat import format_report, host_report
from repro.core.sockets import SOCK_DGRAM, SOCK_STREAM
from repro.net.addr import ip_aton
from repro.world.configs import DECSTATION_ROWS, GATEWAY_ROWS, build_network

IP1 = ip_aton("10.0.0.1")
BASELINE = Path(__file__).resolve().parents[1] / "benchmarks" / "baseline.json"


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
    from repro.analysis.tracing import run_traced_breakdown
    from repro.stack.instrument import Layer

    breakdown = run_traced_breakdown("mach25", "udp", 1, rounds=20).breakdown
    for layer in Layer.SEND_PATH + Layer.RECEIVE_PATH:
        assert layer in breakdown
    assert breakdown["send path total"] > 0
    assert breakdown["receive path total"] > 0
    assert breakdown["measured rtt_us"] > 0
    # In-kernel: no kernel->user copy before the protocol.
    assert breakdown[Layer.KERNEL_COPYOUT] == 0


# ----------------------------------------------------------------------
# The paper's numbers and the report
# ----------------------------------------------------------------------

def test_paper_tables_are_keyed_by_platform():
    # Table 2's right-hand columns: KB/s, TCP and UDP 1-byte RTT (ms).
    # 386BSD and BNR2SS ran on the Gateway only.
    assert paper.GATEWAY == {
        "mach25": (457, 2.08, 1.83),
        "386bsd": (320, 2.71, 2.63),
        "ux": (415, 4.09, 3.96),
        "bnr2ss": (382, 3.99, 4.61),
        "library-ipc": (469, 2.49, 2.42),
        "library-shm": (503, 2.39, 2.02),
    }
    assert tuple(paper.GATEWAY) == GATEWAY_ROWS
    assert set(paper.DECSTATION) == set(DECSTATION_ROWS) | set(
        paper.NEWAPI_KEYS)
    assert len(paper.DECSTATION) == len(DECSTATION_ROWS) + 3
    for table, columns in ((paper.DECSTATION, paper.DECSTATION_COLUMNS),
                           (paper.GATEWAY, paper.GATEWAY_COLUMNS)):
        assert all(len(row) == len(columns) for row in table.values())
    assert all(len(row) == len(paper.TABLE4_COLUMNS)
               for row in paper.TABLE4_UDP.values())


def test_report_scores_the_baseline_without_simulating(monkeypatch):
    from repro.sim.engine import Simulator

    def no_simulation(*_args, **_kwargs):
        raise AssertionError("the report must not run a simulation")

    monkeypatch.setattr(Simulator, "__init__", no_simulation)
    doc = report.load(BASELINE)
    pinned = {
        "table2_decstation": (30, 0.085),
        "table2_gateway": (18, 0.103),
        "table3_newapi": (9, 0.059),
        "table4_udp_us": (68, 0.200),
    }
    scorecard = report.scorecard(doc)
    assert list(scorecard) == list(pinned)
    for table, (count, median) in pinned.items():
        cells, med, worst = report.summary(scorecard[table])
        assert (cells, round(med, 3)) == (count, median), table
        assert len(worst) == min(count, 10)
        assert [abs(c.log_ratio) for c in worst] == sorted(
            (abs(c.log_ratio) for c in worst), reverse=True)
    verdicts = report.verdicts(doc)
    assert len(verdicts) == 78
    assert [v for v in verdicts if not v.ok] == []
    per_table = {}
    for v in verdicts:
        per_table[v.table] = per_table.get(v.table, 0) + 1
    assert per_table == {"table1_proxy_rpcs": 8, "table2_decstation": 14,
                         "table2_gateway": 7, "table3_newapi": 9,
                         "table4_udp_us": 7, "figure1": 6, "sync": 3,
                         "filters": 2, "metastate": 7, "delack": 3,
                         "rcvbuf": 9, "wscale": 3}
    text, failed = report.render(doc, "baseline.json")
    assert failed == 0
    assert text.count("\n- PASS") == 78


@pytest.mark.parametrize("plant, failure", [
    (lambda doc: doc["figure1"]["mach25"].update(server_rpcs=1.0),
     "Figure 1: mach25 makes no server RPC (1 == 0)"),
    (lambda doc: doc["wscale"]["far"].update(on=doc["wscale"]["far"]["off"]),
     "RFC 1323 window-scale ablation: 50 ms link: wscale on KB/s > "
     "1.25 x off (555.5 > 694.3)"),
], ids=["figure1", "wscale"])
def test_report_fails_a_verdict_and_exits_one(tmp_path, capsys, plant,
                                              failure):
    doc = json.loads(BASELINE.read_text())
    plant(doc)
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(doc))
    assert report.main([str(path)]) == 1
    out = capsys.readouterr().out
    assert "- FAIL — " + failure in out
    assert "78 verdicts, 77 PASS, 1 FAIL." in out


@pytest.mark.parametrize("change, message", [
    (lambda doc: doc.update(schema="repro-bench/0"),
     "schema is 'repro-bench/0', not 'repro-bench/1'"),
    (lambda doc: doc.pop("table2_gateway"),
     "lacks the table(s) table2_gateway"),
])
def test_report_names_a_malformed_document(tmp_path, capsys, change,
                                           message):
    doc = json.loads(BASELINE.read_text())
    change(doc)
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(doc))
    assert report.main([str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "DocumentError" in captured.err and message in captured.err


# ----------------------------------------------------------------------
# The report module's command line
# ----------------------------------------------------------------------

def test_report_without_a_path_prints_and_writes_no_file(
        tmp_path, monkeypatch, capsys):
    # With no argument the report renders benchmarks/baseline.json,
    # relative to the working directory, to stdout.
    (tmp_path / "benchmarks").mkdir()
    shutil.copy(BASELINE, tmp_path / "benchmarks" / "baseline.json")
    monkeypatch.chdir(tmp_path)
    assert report.main([]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# Paper vs measured\n")
    assert "78 verdicts, 78 PASS, 0 FAIL." in out
    assert sorted(str(p.relative_to(tmp_path))
                  for p in tmp_path.rglob("*")) == [
        "benchmarks", "benchmarks/baseline.json"]
