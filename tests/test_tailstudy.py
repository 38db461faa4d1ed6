"""The tail-latency study CLI: argument validation, JSON shape,
determinism, and the chaos CLI's unknown-scenario exit."""

import json
from hashlib import sha256

import pytest

from repro.analysis import chaos, tailstudy


# ----------------------------------------------------------------------
# Argument validation: one-line stderr message, exit code 2
# ----------------------------------------------------------------------

def test_unknown_topology_exits_2(capsys):
    assert tailstudy.main(["--topology", "torus"]) == 2
    err = capsys.readouterr().err
    assert "unknown topology" in err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


def test_unknown_placement_exits_2(capsys):
    assert tailstudy.main(["--placements", "mach25,warp9"]) == 2
    err = capsys.readouterr().err
    assert "unknown placement" in err
    assert len(err.strip().splitlines()) == 1


def test_bad_loads_exit_2(capsys):
    assert tailstudy.main(["--loads", "0.1,fast"]) == 2
    assert "--loads" in capsys.readouterr().err


def test_empty_placements_exit_2(capsys):
    assert tailstudy.main(["--placements", ","]) == 2
    assert "at least one" in capsys.readouterr().err


def test_chaos_unknown_scenario_exits_2(capsys):
    assert chaos.main(["--scenario", "bogus/never/exists"]) == 2
    err = capsys.readouterr().err
    assert "unknown scenario" in err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


# ----------------------------------------------------------------------
# Happy path: all placements, all four percentiles, one command
# ----------------------------------------------------------------------

_FAST = [
    "--hosts", "4", "--loads", "0.05",
    "--window-us", "300000", "--drain-us", "200000",
    "--seed", "7",
]


def test_sweep_reports_all_percentiles_for_all_placements(
        tmp_path, capsys):
    out = tmp_path / "tail.json"
    rc = tailstudy.main(_FAST + [
        "--placements", "mach25,ux,library-shm",
        "-o", str(out), "--markdown",
    ])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == tailstudy.SCHEMA
    assert len(doc["results"]) == 3
    assert ({r["placement"] for r in doc["results"]}
            == {"mach25", "ux", "library-shm"})
    for cell in doc["results"]:
        assert cell["completed"] > 0
        for _p, name in tailstudy.PERCENTILES:
            assert cell["latency_us"][name] is not None
            assert cell["latency_us"][name] > 0
        # Percentiles are monotone by construction.
        lat = cell["latency_us"]
        assert lat["p50"] <= lat["p95"] <= lat["p99"] <= lat["p999"]
    table = capsys.readouterr().out
    for placement in ("mach25", "ux", "library-shm"):
        assert placement in table
    assert "| 0.05 |" in table


def test_sweep_is_deterministic_across_runs(tmp_path):
    docs = []
    for run in range(2):
        out = tmp_path / ("tail%d.json" % run)
        rc = tailstudy.main(_FAST + ["--placements", "mach25",
                                     "-o", str(out)])
        assert rc == 0
        doc = tailstudy.strip_volatile(json.loads(out.read_text()))
        docs.append(doc)
    assert docs[0] == docs[1]


# ----------------------------------------------------------------------
# Cross-commit goldens: a scale world's simulated output, pinned
# ----------------------------------------------------------------------

_GOLDEN_WORKLOAD = dict(proto="udp", clients=0, fanout=2,
                        request_bytes=64, reply_bytes=200,
                        size_dist="fixed", window_us=200_000.0,
                        drain_us=150_000.0)


@pytest.mark.parametrize("topology,workload,placements,golden", [
    (dict(kind="star", hosts=16, seed=7), {}, ["library-shm-ipf"],
     "b7b79f11470fac459eb88ade92a0bd81c4dbd965fa6c19b6e8bc499aed050b03"),
    (dict(kind="fattree", hosts=16, seed=7, hosts_per_edge=8, spines=2),
     {}, ["mach25"],
     "1db31dd88fafd7e53f0a5e971634bc92e542ab624801b8ecdb058a7377521755"),
    # The cell tests/test_parallel.py::_cells builds.
    (dict(kind="wan", hosts=12, seed=21, hosts_per_edge=8, spines=2,
          sites=2, router_speedup=8.0), {}, ["mach25"],
     "1d0730f8127b1d5d87af0e0072b0f9375da628312f92875461fd4c4664295a7f"),
    # Persistent TCP connections in a scale world, under all three
    # placements: what the stacks' TCP timer pass does there.
    (dict(kind="star", hosts=8, seed=7), dict(proto="tcp"),
     ["library-shm-ipf", "mach25", "ux"],
     "298a67697eafe9afcb90429617f52003b60b6b33e296521c2d195b1b3e179b00"),
    # Long enough for connections to sit idle between requests while
    # others have output on the same timer pass: pins the order of that
    # pass (the demux table's).
    (dict(kind="star", hosts=8, seed=7),
     dict(proto="tcp", window_us=600_000.0, drain_us=300_000.0),
     ["mach25"],
     "3e8502b32a475ec60a595cdbe557394901175f86d7dc83bd004c5a6ef74415c2"),
], ids=["star16", "fattree16", "wan12", "star8_tcp", "star8_tcp_600ms"])
def test_scale_cell_matches_golden(topology, workload, placements, golden):
    # The other scale tests compare a run with itself or its twin, and
    # bench_json covers only two-host worlds; these digests are what
    # makes "the schedule did not change" visible from one commit to
    # the next.  A change that means to move them re-captures them all
    # and says why.  (Last moved by the NIC station-address filter:
    # fattree16 and wan12 have shared segments, whose hosts stopped
    # paying receive CPU for their neighbours' frames; star16 has none
    # and kept its digest.  star16, the library cell, then moved alone
    # when metastate began caching route entries instead of one next
    # hop per destination: its clients stopped paying a meta_route RPC
    # for every new peer.  star8_tcp_600ms was captured when the
    # scale-only tick registry went; on that registry's order it read
    # otherwise.  All five moved together when the hash-indexed demux
    # went: every kernel now runs its whole filter list, each program
    # run charged, as the two-host worlds always did.  EXPERIMENTS.md,
    # "Tail at scale", "One TCP timer pass" and "One demux model".)
    workload = dict(_GOLDEN_WORKLOAD, seed=topology["seed"], **workload)
    cells = [tailstudy.run_cell(topology, workload, placement, 0.1)
             for placement in placements]
    assert all(cell["completed"] > 0 for cell in cells)
    cells = tailstudy.strip_volatile({"results": cells})["results"]
    text = "".join(json.dumps(cell, sort_keys=True) for cell in cells)
    assert sha256(text.encode()).hexdigest() == golden


def test_send_path_counters_ride_outside_the_pinned_document():
    # Who asked the server is reported per library cell, but stripped
    # with the backend block: the goldens above pin simulated outcomes.
    topology = dict(kind="star", hosts=8, seed=3)
    workload = dict(_GOLDEN_WORKLOAD, seed=3, window_us=50_000.0,
                    drain_us=50_000.0)
    cells = [tailstudy.run_cell(topology, workload, placement, 0.1)
             for placement in ("library-shm-ipf", "mach25")]
    library, kernel = cells
    assert kernel["send_path"] is None
    # Client and server app on each host, one fetch each, then hits.
    assert library["send_path"]["route_rpcs"] == 16
    assert library["send_path"]["route_hits"] > 16
    for cell in tailstudy.strip_volatile({"results": cells})["results"]:
        assert "send_path" not in cell


def test_rate_for_load_scales_linearly():
    args = dict(request_bytes=64, reply_bytes=200, fanout=2,
                us_per_byte=0.8)
    r1 = tailstudy.rate_for_load(0.1, args)
    r2 = tailstudy.rate_for_load(0.2, args)
    assert r1 > 0
    assert r2 == pytest.approx(2 * r1)
