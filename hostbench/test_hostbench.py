"""Tests of the benchmark itself: ``pytest hostbench -q``.

Not collected by tier-1 (``testpaths = tests``).  The smoke fixture runs
every workload at tiny sizes through the same code as a full run.
"""

import copy
import io
import json
import os
import re

import pytest

from hostbench import compare, driver, spec
from hostbench.fold import fold, merge_stats

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


# ----------------------------------------------------------------------
# BENCHMARK.json against the spec
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def benchmark_json():
    with open(os.path.join(driver.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_benchmark_json_names_the_spec(benchmark_json):
    doc = benchmark_json
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert doc["paths"] == ["hostbench"]
    assert [w["name"] for w in doc["workloads"]] == list(spec.WORKLOADS)
    bounds = {name: (unit, better, bound)
              for name, unit, better, bound in spec.END_TO_END}
    assert [m["name"] for m in doc["end_to_end"]] == list(
        spec.CONTRACT_END_TO_END)
    for metric in doc["end_to_end"]:
        unit, better, bound = bounds[metric["name"]]
        assert (metric["unit"], metric["better"]) == (unit, better)
        assert metric["bound"] == bound
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] \
        == spec.per_layer_metrics()


def test_benchmark_json_is_inside_the_contract_limits(benchmark_json):
    doc = benchmark_json
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    assert 1 <= doc["run_seconds"] <= 60
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    names += [w["name"] for w in doc["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    for metric in doc["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in doc["end_to_end"])
    for workload in doc["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]


# ----------------------------------------------------------------------
# Layers and the fold
# ----------------------------------------------------------------------

def test_layer_of_maps_modules_to_the_twenty_layers():
    cases = {
        "/x/src/repro/sim/engine.py": "sim.engine",
        "/x/src/repro/sim/wheel.py": "sim.engine",
        "/x/src/repro/sim/sync.py": "sim.process",
        "/x/src/repro/sim/parallel.py": "sim.parallel",
        "/x/src/repro/net/checksum.py": "net.checksum",
        "/x/src/repro/net/arp.py": "net.ip",
        "/x/src/repro/net/udp.py": "net.udp",
        "/x/src/repro/net/tcp/input.py": "net.tcp",
        "/x/src/repro/stack/engine.py": "stack",
        "/x/src/repro/analysis/forensics.py": "analysis",
        "/x/hostbench/workloads.py": "hostbench",
        "/usr/lib/python3.11/fractions.py": None,
        "~": None,
    }
    for path, layer in cases.items():
        assert spec.layer_of(path) == layer, path
    for layer in spec.LAYERS:
        assert NAME.match(layer)


def test_layer_of_names_an_unknown_module_by_two_components():
    assert spec.layer_of("/x/src/repro/sim/newthing.py") == "sim.newthing"
    assert spec.layer_of("/x/src/repro/appproto/http.py") == "appproto.http"
    assert spec.layer_of("/x/src/repro/stack/transport/tcp.py") == "stack"


def _stats(entries):
    """Raw profiler stats from ``{func: (tottime, {caller: edge_tt})}``;
    edge cumulative time is set equal to edge self time."""
    return {func: (1, 1, tt, tt, {caller: (1, 1, edge, edge)
                                  for caller, edge in callers.items()})
            for func, (tt, callers) in entries.items()}


def test_fold_charges_builtins_and_stdlib_to_the_calling_layer():
    tcp = ("/x/src/repro/net/tcp/input.py", 1, "segment")
    forensics = ("/x/src/repro/analysis/forensics.py", 1, "critical_path")
    heappush = ("~", 0, "<built-in method heappush>")
    lt = ("/usr/lib/python3.11/fractions.py", 1, "__lt__")
    richcmp = ("/usr/lib/python3.11/fractions.py", 2, "_richcmp")
    orphan = ("~", 0, "<method 'disable' of '_lsprof.Profiler'>")
    rows, total = fold(_stats({
        tcp: (1.0, {}),
        forensics: (2.0, {}),
        heappush: (0.5, {tcp: 0.5}),
        lt: (1.0, {forensics: 1.0}),
        richcmp: (3.0, {lt: 3.0}),
        orphan: (0.25, {}),
    }))
    by_layer = {row["layer"]: row for row in rows}
    assert total == pytest.approx(7.75)
    assert by_layer["net.tcp"]["self_s"] == pytest.approx(1.5)
    assert by_layer["analysis"]["self_s"] == pytest.approx(6.0)
    assert by_layer["other"]["self_s"] == pytest.approx(0.25)
    assert by_layer["net.tcp"]["calls"] == 1
    assert sum(row["self_s"] for row in rows) == pytest.approx(total)
    assert [row["layer"] for row in rows][:20] == list(spec.LAYERS)


def test_merge_stats_sums_processes():
    func = ("/x/src/repro/hw/nic.py", 1, "rx")
    caller = ("/x/src/repro/hw/wire.py", 1, "deliver")
    one = _stats({func: (1.0, {caller: 1.0})})
    merged = merge_stats([one, one])
    assert merged[func][:4] == (2, 2, 2.0, 2.0)
    assert merged[func][4][caller] == (2, 2, 2.0, 2.0)


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------

def _summary(values):
    values = sorted(values)
    return {"median": values[len(values) // 2], "min": values[0],
            "max": values[-1], "n": len(values)}


def test_verdicts():
    base = _summary([10.0, 10.1, 10.2])
    assert compare.verdict(base, _summary([10.3, 10.4, 10.5]),
                           "lower", 0.10) == "within-bound"
    assert compare.verdict(base, _summary([9.0, 9.1, 9.2]),
                           "lower", 0.10) == "better"
    assert compare.verdict(base, _summary([12.0, 12.1, 12.2]),
                           "lower", 0.10) == "worse"
    # Worse by more than the bound, but B's own runs span more than the
    # bound and reach into A's: these runs cannot tell.
    assert compare.verdict(base, _summary([10.0, 11.5, 13.0]),
                           "lower", 0.10) == "unresolved"
    assert compare.verdict(base, _summary([8.0, 8.1, 8.2]),
                           "higher", 0.10) == "worse"
    exact = _summary([5.0])
    assert compare.verdict(exact, _summary([5.0]), "lower", None) \
        == "within-bound"
    assert compare.verdict(exact, _summary([5.000001]), "lower", None) \
        == "worse"
    assert compare.verdict(_summary([0.0]), _summary([0.01]), "lower",
                           None) == "worse"


# ----------------------------------------------------------------------
# A whole smoke run
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def smoke():
    return driver.run_suite(seed=1, seconds=0, smoke=True)


def test_smoke_document_matches_the_schema(smoke):
    assert smoke["schema"] == "hostbench/1"
    assert smoke["comparable"] is False
    assert smoke["ok"] is True
    assert set(smoke["environment"]) == {
        "python", "python_build", "python_compiler", "cpu_model", "nproc",
        "commit"}
    assert list(smoke["workloads"]) == list(spec.WORKLOADS)
    for name, block in smoke["workloads"].items():
        assert block["repeats"] == 1
        assert block["failed"] == 0 and block["attempted"] >= 1
        assert all(block["checks"].values()), (name, block["checks"])
        assert isinstance(block["loadavg_1m"], float)
        assert re.fullmatch(r"[0-9a-f]{64}", block["sim_digest"])
        for span in block["spans"]["timed"]:
            assert set(span) == {"name", "start", "end", "parent"}
            assert span["end"] >= span["start"]
    json.dumps(smoke)  # the whole document is JSON


def test_smoke_reports_every_metric_where_it_applies(smoke):
    per_layer = [name for name, _unit, _better in spec.per_layer_metrics()]
    for name, block in smoke["workloads"].items():
        for metric in spec.CONTRACT_END_TO_END + ("failed_share",
                                                  "sim_lat_p50_us"):
            if metric == "sim_lat_p50_us" and name == "bulk_tcp":
                continue
            summary = block["end_to_end"][metric]
            assert summary["n"] >= 1 and UNIT.match(summary["unit"])
            if metric != "failed_share":
                assert summary["median"] > 0, (name, metric)
        # Smoke sizes are under P99_MIN_SAMPLES everywhere.
        assert "sim_lat_p99_us" not in block["end_to_end"]
        assert ("sim_goodput_kbs" in block["end_to_end"]) == (
            name == "bulk_tcp")
        for metric in per_layer:
            assert metric in block["per_layer"], (name, metric)
            assert NAME.match(metric)
        for metric in block["per_layer"]:
            assert NAME.match(metric), metric
        for metric, _unit in spec.DIRECT:
            assert block["per_layer"][metric] > 0, metric
        for metric in spec.PHASES + spec.COUNTS:
            assert block["per_layer"][metric] >= 0
        assert block["per_layer"]["run_s"] > 0
        assert block["per_layer"]["hw.frames_carried"] > 0
    tiers = smoke["workloads"]["wan12_forensics"]["per_layer"]
    for metric in spec.TIERS_AND_TWINS[:3]:
        assert tiers[metric] > 0
    assert tiers["sim.parallel.speedup"] is None
    twin = smoke["workloads"]["wan48_islands2"]["per_layer"]
    assert twin["sim.parallel.speedup"] > 0
    assert twin["telemetry.forensics_ratio"] is None


def test_smoke_fold_sums_to_the_profiled_total(smoke):
    for name, block in smoke["workloads"].items():
        rows = block["fold"]
        assert [row["layer"] for row in rows][:20] == list(spec.LAYERS)
        assert rows[-1]["layer"] == "other"
        total = sum(row["self_s"] for row in rows)
        assert total == pytest.approx(block["profiled_s"], rel=0.01), name
        assert sum(row["share"] for row in rows) == pytest.approx(1.0,
                                                                  rel=0.01)


def test_two_smoke_runs_give_equal_sim_digest(smoke):
    for name, block in smoke["workloads"].items():
        again = driver.timed_pass(name, 1, "smoke", 0)
        assert again["sim_digest"] == block["sim_digest"], name


def test_seed_reaches_the_seeded_workloads(smoke):
    for name in ("conn_churn", "star200_udp"):
        other = driver.timed_pass(name, 2, "smoke", 0)
        assert other["sim_digest"] != smoke["workloads"][name]["sim_digest"]


@pytest.mark.parametrize("trace", (0, 1))
def test_contract_result_has_exactly_the_declared_metrics(
        benchmark_json, trace):
    declared = benchmark_json["per_layer" if trace else "end_to_end"]
    result = driver.run_contract("wan48_islands2", 3, 1, trace, size="smoke")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        value = result["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"]
        assert isinstance(value["value"], (int, float))
        if not trace:
            assert value["value"] > 0
    if trace:
        # Not measured on this workload: the declared key, value 0.
        assert result["metrics"]["telemetry.forensics_ratio"]["value"] == 0
        assert result["metrics"]["sim.parallel.speedup"]["value"] > 0
    json.dumps(result)


def test_print_suite_names_every_metric_with_its_unit(smoke):
    out = io.StringIO()
    driver.print_suite(smoke, out=out)
    text = out.getvalue()
    assert "NOT comparable" in text
    for metric, unit, _better, _bound in spec.END_TO_END:
        assert metric in text
    for metric, unit in spec.DIRECT:
        assert re.search(r"%s\s+\S+\s+%s" % (re.escape(metric), unit), text)
    for layer in spec.LAYERS:
        assert re.search(r"^%s\s" % re.escape(layer), text, re.M)


def test_compare_a_run_with_itself_and_with_a_slower_copy(smoke, tmp_path):
    slower = copy.deepcopy(smoke)
    host = slower["workloads"]["bulk_tcp"]["end_to_end"]["host_s"]
    for key in ("median", "min", "max"):
        host[key] *= 1.5
    failing = copy.deepcopy(smoke)
    share = failing["workloads"]["conn_churn"]["end_to_end"]["failed_share"]
    for key in ("median", "min", "max"):
        share[key] = 0.01
    paths = {}
    for label, doc in (("a", smoke), ("slower", slower),
                       ("failing", failing)):
        paths[label] = str(tmp_path / (label + ".json"))
        with open(paths[label], "w") as fh:
            json.dump(doc, fh)
    out = io.StringIO()
    assert compare.main([paths["a"], paths["a"]], out=out) == 0
    assert "0 worse" in out.getvalue()
    assert "not comparable" in out.getvalue()
    assert "sim_digest identical" in out.getvalue()
    out = io.StringIO()
    assert compare.main([paths["a"], paths["slower"]], out=out) == 1
    assert re.search(r"bulk_tcp\s+host_s.*worse", out.getvalue())
    assert compare.main([paths["a"], paths["failing"]],
                        out=io.StringIO()) == 1
    assert compare.main([paths["a"]]) == 2
    assert compare.main([paths["a"], str(tmp_path / "missing.json")]) == 2
