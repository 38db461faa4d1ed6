"""Tail forensics: head-based sampling, critical paths, attribution
exactness, bit-passivity of selective tracing, and the forensics CLI."""

import json
import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro import __main__ as repro_main
from repro.analysis import experiments, tailstudy
from repro.analysis.forensics import (
    TRANSIT,
    attribute_path,
    cell_forensics,
    collect_request_spans,
    critical_path,
    request_forensics,
)
from repro.analysis.netstat import format_report, host_report
from repro.analysis.tracing import (
    TraceRingOverflow,
    crosscheck,
    placement_ledgers,
)
from repro.apps.ttcp import ttcp
from repro.hw.nic import NIC
from repro.hw.wire import EthernetWire
from repro.sim.engine import Simulator
from repro.trace import RequestTracer, Span, WaitSpan, frame_trace
from repro.trace.request import _mix
from repro.world.configs import build_network
from repro.world.topology import TopologySpec, build_world, warm_arp
from repro.world.workload import WorkloadSpec, build_schedules, run_workload
from tests.forensics_reference import critical_path as reference_path
from tests.test_parallel import _TOPOLOGY, _WORKLOAD


# ----------------------------------------------------------------------
# Sampling: deterministic, version-stable, head-based
# ----------------------------------------------------------------------

def test_mix_is_version_stable():
    # Pinned: the sampling decision must never depend on hash
    # randomization or the interpreter version.
    assert _mix(1_000_001, 7) == 585771724
    assert [r for r in range(1, 40) if _mix(r, 0) % 4 == 0] == [
        1, 9, 10, 14, 16, 22, 28, 33, 36, 39]


def test_sampling_depends_only_on_id_and_seed():
    net, _pa, _pb = build_network("mach25")
    net.tracer.enable()
    rt1 = RequestTracer(net.tracer, sample_every=8, seed=3)
    ids1 = {r for r in range(1, 2000) if rt1.sampled(r)}

    net2, _pa2, _pb2 = build_network("mach25")
    net2.tracer.enable()
    rt2 = RequestTracer(net2.tracer, sample_every=8, seed=3)
    ids2 = {r for r in range(1, 2000) if rt2.sampled(r)}
    assert ids1 == ids2
    # Roughly 1-in-8, and a different seed picks a different set.
    assert 2000 // 16 < len(ids1) < 2000 // 4
    rt3 = RequestTracer(net2.tracer, sample_every=8, seed=4)
    assert ids1 != {r for r in range(1, 2000) if rt3.sampled(r)}


def test_sample_every_one_samples_everything():
    net, _pa, _pb = build_network("mach25")
    net.tracer.enable()
    rt = RequestTracer(net.tracer, sample_every=1, seed=0)
    assert all(rt.sampled(r) for r in range(1, 100))


def test_bad_sampling_rate_rejected():
    net, _pa, _pb = build_network("mach25")
    with pytest.raises(ValueError):
        RequestTracer(net.tracer, sample_every=0)


# ----------------------------------------------------------------------
# Critical path: priorities, transit remainder, exact telescoping
# ----------------------------------------------------------------------

def _cpu(start, cost, layer="l", owner="o"):
    return Span(1, owner, layer, start, cost)


def _wait(start, cost, kind, layer="w", owner="o"):
    return WaitSpan(1, owner, layer, kind, start, cost)


def test_critical_path_prioritizes_and_fills_transit():
    # [0,2] uncovered, [2,3] service only, [3,6] loss-recovery wins over
    # the tail of the service span, [6,10] uncovered again.
    path = critical_path([_cpu(2.0, 2.0)],
                         [_wait(3.0, 3.0, "loss-recovery")], 0.0, 10.0)
    blames = [(float(s["start"]), float(s["end"]), s["cause"])
              for s in path]
    assert blames == [
        (0.0, 2.0, "transit"),
        (2.0, 3.0, "service"),
        (3.0, 6.0, "loss-recovery"),
        (6.0, 10.0, "transit"),
    ]
    assert path[0]["layer"] == TRANSIT[0]
    total = sum((s["end"] - s["start"] for s in path), Fraction(0))
    assert total == Fraction(10)


def test_critical_path_merges_adjacent_same_blame():
    path = critical_path([_cpu(0.0, 2.0), _cpu(2.0, 3.0)], [], 0.0, 5.0)
    assert len(path) == 1
    assert path[0]["cause"] == "service"
    assert (path[0]["start"], path[0]["end"]) == (Fraction(0), Fraction(5))


def test_critical_path_clips_spans_to_the_request_interval():
    # A span overhanging both ends is clipped; attribution still
    # telescopes to exactly t1 - t0.
    path = critical_path([_cpu(-5.0, 20.0)], [], 1.0, 4.0)
    totals = attribute_path(path)
    assert sum(totals.values(), Fraction(0)) == Fraction(3)
    assert list(totals) == [("l", "service")]


def test_contention_beats_queue_beats_service():
    spans = [_cpu(0.0, 6.0)]
    waits = [_wait(1.0, 4.0, "queue"), _wait(2.0, 2.0, "contention")]
    path = critical_path(spans, waits, 0.0, 6.0)
    causes = [(float(s["start"]), s["cause"]) for s in path]
    assert causes == [(0.0, "service"), (1.0, "queue"),
                      (2.0, "contention"), (4.0, "queue"),
                      (5.0, "service")]


# ----------------------------------------------------------------------
# Differential: the integer-tick pass against the O(n^2) Fraction scan
# ----------------------------------------------------------------------

# Long-mantissa floats, ints and non-dyadic Fractions, plus a coarse
# grid so boundaries and (prio, start) ties collide often.
_instants = st.one_of(
    st.floats(-40.0, 140.0, allow_nan=False),
    st.integers(-5, 105),
    st.sampled_from([0.0, 0.5, 1.0, 2.5, 7.0, 50.0, 99.5, 100.0]),
    st.builds(Fraction, st.integers(-30, 330), st.just(3)),
)
_costs = st.one_of(
    st.just(0),
    st.just(0.0),
    st.floats(0.0, 80.0, allow_nan=False),
    st.integers(-3, 60),
    st.sampled_from([0.5, 1.0, 2.5, 7.0, 50.0]),
    st.builds(Fraction, st.integers(0, 90), st.just(7)),
)
_owners = st.sampled_from(["h0", "h1", "wire"])
_layers = st.sampled_from(["tcp", "nic", "wire"])
# All five causes, an unknown kind, and the transit remainder's own
# name (a wait of that kind merges with uncovered time).
_kinds = st.sampled_from(["loss-recovery", "contention", "queue", "service",
                          "control-plane", "mystery", "transit"])
_cpu_rows = st.tuples(_instants, _costs, _owners, _layers)
_wait_rows = st.tuples(_instants, _costs, _owners, _layers, _kinds)


def _with_duplicates(rows):
    # Draw from a small pool so exact duplicates are the common case.
    return st.lists(rows, min_size=1, max_size=6).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), max_size=14))


@settings(max_examples=300, deadline=None)
@given(_with_duplicates(_cpu_rows), _with_duplicates(_wait_rows),
       _instants, _instants)
def test_critical_path_equals_the_quadratic_reference(cpu_rows, wait_rows,
                                                      t0, t1):
    cpu = [Span(1, owner, layer, start, cost)
           for start, cost, owner, layer in cpu_rows]
    waits = [WaitSpan(1, owner, layer, kind, start, cost)
             for start, cost, owner, layer, kind in wait_rows]
    path = critical_path(cpu, waits, t0, t1)
    assert path == reference_path(cpu, waits, t0, t1)
    for seg in path:
        assert type(seg["start"]) is Fraction
        assert type(seg["end"]) is Fraction
    lo, hi = Fraction(t0), Fraction(t1)
    if hi <= lo:
        assert path == []
    else:
        assert path[0]["start"] == lo and path[-1]["end"] == hi
        assert sum(attribute_path(path).values(), Fraction(0)) == hi - lo


def test_critical_path_stays_subquadratic():
    # 0.2 s for the painting pass; the quadratic scan needs minutes.
    rng = random.Random(19)
    kinds = ("queue", "contention", "loss-recovery", "control-plane")
    cpu, waits = [], []
    for i in range(20_000):
        start, cost = rng.uniform(0.0, 10_000.0), rng.uniform(1.0, 200.0)
        if i % 3:
            cpu.append(Span(1, "h%d" % (i % 4), "tcp", start, cost))
        else:
            waits.append(WaitSpan(1, "h%d" % (i % 4), "nic",
                                  kinds[i % len(kinds)], start, cost))
    begin = time.perf_counter()
    path = critical_path(cpu, waits, 0.0, 10_000.0)
    assert time.perf_counter() - begin < 3.0
    assert sum(attribute_path(path).values(), Fraction(0)) == 10_000


# ----------------------------------------------------------------------
# Live worlds: exact sums, bit-passivity, engine parity
# ----------------------------------------------------------------------

_WSPEC = dict(proto="udp", seed=3, rate_per_client=100.0, fanout=2,
              clients=2, window_us=300_000.0, drain_us=200_000.0)


def _forensic_run(sample_every=2, sim=None, trace=True):
    world = build_world(TopologySpec(kind="star", hosts=4, seed=3),
                        sim=sim)
    warm_arp(world)
    rt = None
    if trace:
        world.tracer.enable()
        rt = RequestTracer(world.tracer, sample_every=sample_every, seed=3)
    result = run_workload(world, WorkloadSpec(**_WSPEC), request_tracer=rt)
    return world, rt, result


def test_every_sampled_request_sums_exactly():
    """The acceptance invariant: each request's attributed causes sum to
    its end-to-end latency in ticks, exactly."""
    world, rt, _result = _forensic_run(sample_every=2)
    completed = rt.completed_records()
    assert completed, "expected sampled completed requests"
    assert world.tracer.waits_recorded > 0
    grouped = collect_request_spans(world.tracer, rt)
    for rec in completed:
        cpu_spans, wait_spans = grouped.get(rec.req_id, ((), ()))
        assert cpu_spans, "a sampled request must retain spans"
        _path, totals, exact = request_forensics(rec, cpu_spans, wait_spans)
        assert exact
        assert float(sum(totals.values(), Fraction(0))) == rec.latency_us


def test_selective_tracing_is_bit_passive_on_the_workload():
    _w1, _rt1, traced = _forensic_run(sample_every=2, trace=True)
    _w2, _rt2, plain = _forensic_run(trace=False)
    assert (traced.issued, traced.completed, traced.censored) == (
        plain.issued, plain.completed, plain.censored)
    assert tuple(traced.latencies_us) == tuple(plain.latencies_us)


@pytest.mark.parametrize("engine", [None, Simulator],
                         ids=["scale", "base"])
def test_trace_ids_survive_either_engine(engine):
    """A scale world (indexed demux, armed tick registry) and the same
    world on a plain Simulator each run the traced workload
    byte-identically to their own untraced run, sample the same request
    ids, and keep every binding consistent."""
    def make_sim():
        return None if engine is None else engine()

    world, rt, traced = _forensic_run(sample_every=2, sim=make_sim())
    _w, _rt, plain = _forensic_run(sim=make_sim(), trace=False)
    assert tuple(traced.latencies_us) == tuple(plain.latencies_us)
    # Sampling is a pure function of (id, seed): the records hold
    # exactly the ids the head-based predicate picks, regardless of how
    # the engine dispatched the sends.
    assert rt.records
    assert all(rt.sampled(r) for r in rt.records)
    assert rt.requests_sampled == len(rt.records)
    # Every span retained for a sampled request maps back to it through
    # a trace id that request owns.
    grouped = collect_request_spans(world.tracer, rt)
    for req_id, (cpu_spans, wait_spans) in grouped.items():
        owned = set(rt.records[req_id].tids)
        assert {s.trace_id for s in cpu_spans} <= owned
        assert {w.trace_id for w in wait_spans} <= owned
    # And the whole forensic block is deterministic run to run.
    world2, rt2, _res2 = _forensic_run(sample_every=2, sim=make_sim())
    assert (json.dumps(cell_forensics(world.tracer, rt), sort_keys=True)
            == json.dumps(cell_forensics(world2.tracer, rt2),
                          sort_keys=True))


# ----------------------------------------------------------------------
# Tagging invariants: a span blamed on a request belongs to it.  The
# exact-sum invariant above cannot see a span that leaked in from
# another request (the partition still sums to the latency), so these
# check the tags themselves against the schedule, the route tables and
# a test-side ledger of every tagged frame a NIC sent or accepted.
# ----------------------------------------------------------------------

@pytest.fixture(scope="module",
                params=[("wan", 12), ("star", 16)], ids=["wan12", "star16"])
def tagged_run(request):
    # The 12-host WAN cell is the one tests/test_parallel.py::_cells
    # runs, at half its load so that nothing is censored; its sites are
    # shared segments, so most NICs that see a tagged frame are
    # bystanders.  The star routes every request through its hub.
    kind, hosts = request.param
    tspec = TopologySpec(placement="mach25",
                         **dict(_TOPOLOGY, kind=kind, hosts=hosts))
    world = build_world(tspec)
    warm_arp(world)
    rate = tailstudy.rate_for_load(
        0.05, dict(_WORKLOAD, us_per_byte=tspec.us_per_byte))
    wspec = WorkloadSpec(rate_per_client=float(rate), **_WORKLOAD)
    world.tracer.enable(capacity=1 << 18)
    rt = RequestTracer(world.tracer, sample_every=4, seed=_TOPOLOGY["seed"])

    host_of = {id(host.nic): host.name for host in world.hosts}
    ledger = set()  # (host, trace id) for every tagged frame at a NIC
    real_transmit, real_arrived = EthernetWire.transmit, NIC.frame_arrived

    def transmit(wire, frame, sender):
        ledger.add((host_of.get(id(sender)), frame_trace(frame)))
        return real_transmit(wire, frame, sender)

    def frame_arrived(nic, frame):
        received = nic.frames_received
        real_arrived(nic, frame)
        if nic.frames_received != received:  # passed the station filter
            ledger.add((host_of.get(id(nic)), frame_trace(frame)))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(EthernetWire, "transmit", transmit)
        patch.setattr(NIC, "frame_arrived", frame_arrived)
        result = run_workload(world, wspec, request_tracer=rt)
    assert result.censored == 0, "the invariants assume a lossless run"
    assert not world.tracer.lossy
    schedules = build_schedules(wspec, len(world.hosts))
    parties, on_path = {}, {}
    for client, requests in schedules.items():
        for _t, req_id, targets, _req, _reply in requests:
            parties[req_id] = {world.hosts[i].name
                               for i in (client,) + targets}
            on_path[req_id] = parties[req_id].union(*(
                _routers_between(world, world.hosts[a], world.hosts[b])
                for target in targets
                for a, b in ((client, target), (target, client))))
    return world.tracer, rt, ledger, parties, on_path


def _routers_between(world, src, dst):
    """Names of the routers a packet from ``src`` to ``dst`` crosses,
    read off the route tables (nothing from the trace)."""
    route = src.route_table.lookup(dst.ip)
    names = set()
    while route.gateway is not None:
        router, = [r for r in world.routers
                   if r.owns_ip(route.gateway)]
        names.add(router.name)
        route = router.route_table.lookup(dst.ip)
    return names


def _span_host(span):
    # "h003:mach25", "h003.kstack", "h003.nic" -> "h003"; a router's
    # "site0.if1" -> "site0".
    return re.split("[:.]", span.owner)[0]


def test_traces_are_born_only_at_a_sampled_requests_sends(tagged_run):
    tracer, rt, _ledger, _parties, _on_path = tagged_run
    assert rt.requests_sampled > 0
    # Each target gets one send and answers with one: 2 x fanout traces
    # per sampled request, none born at a NIC.
    expected = rt.requests_sampled * 2 * _WORKLOAD["fanout"]
    assert tracer.traces_started == len(rt.tid_to_req) == expected
    assert {tracer.meta(tid).kind for tid in rt.tid_to_req} == {"send"}


def test_sampled_requests_are_seen_on_every_host_they_visit(tagged_run):
    tracer, rt, _ledger, parties, _on_path = tagged_run
    grouped = collect_request_spans(tracer, rt)
    completed = rt.completed_records()
    assert completed
    for rec in completed:
        cpu_spans, _waits = grouped[rec.req_id]
        owners = {_span_host(span) for span in cpu_spans}
        assert owners >= parties[rec.req_id], (
            "request %d left no span on %s"
            % (rec.req_id, sorted(parties[rec.req_id] - owners)))


def test_every_span_is_on_the_requests_path(tagged_run):
    # Client, targets, and the routers between them — no bystander of a
    # shared segment, though its NIC saw (and filtered) the same tagged
    # frames.
    tracer, rt, _ledger, _parties, on_path = tagged_run
    grouped = collect_request_spans(tracer, rt)
    assert len(grouped) == rt.requests_sampled
    for req_id, (cpu_spans, wait_spans) in grouped.items():
        owners = {_span_host(span) for span in cpu_spans + wait_spans}
        assert owners <= on_path[req_id], (
            "request %d has spans off its path, on %s"
            % (req_id, sorted(owners - on_path[req_id])))


def test_no_span_sits_on_a_host_its_trace_never_touched(tagged_run):
    tracer, rt, ledger, _parties, _on_path = tagged_run
    bound = [span for span in tracer.spans if span.trace_id in rt.tid_to_req]
    assert bound
    strays = {(_span_host(span), span.trace_id) for span in bound} - ledger
    assert not strays, "spans on hosts that never sent or received " \
        "a frame with their tag: %r" % sorted(strays)[:5]


def _world_fingerprint(net, result):
    return {
        "bytes": result.bytes_moved,
        "elapsed": result.elapsed_us,
        "tput": result.throughput_kbs,
        "now": net.sim.now,
        "frames": net.wire.frames_carried,
        "wire_bytes": net.wire.bytes_carried,
        "cpu_busy": [h.cpu.busy_time for h in net.hosts],
        "charges": [h.cpu.charge_count for h in net.hosts],
    }


def test_sampled_tracing_keeps_the_ttcp_fingerprint():
    net1, a1, b1 = build_network("library-shm-ipf")
    r1 = ttcp(net1, a1, b1, total_bytes=196608)

    net2, a2, b2 = build_network("library-shm-ipf")
    net2.tracer.enable()
    RequestTracer(net2.tracer, sample_every=4, seed=9)
    r2 = ttcp(net2, a2, b2, total_bytes=196608)
    assert _world_fingerprint(net1, r1) == _world_fingerprint(net2, r2)


def test_sampled_tracing_keeps_table1_and_figure1_byte_equal(monkeypatch):
    plain = json.dumps(
        {"table1": experiments.run_proxy_calls(),
         "figure1": experiments.run_crossings("mach25")},
        sort_keys=True)

    real_build = experiments.build_network

    def tracing_build(*args, **kwargs):
        net, pa, pb = real_build(*args, **kwargs)
        net.tracer.enable()
        RequestTracer(net.tracer, sample_every=4, seed=9)
        return net, pa, pb

    monkeypatch.setattr(experiments, "build_network", tracing_build)
    traced = json.dumps(
        {"table1": experiments.run_proxy_calls(),
         "figure1": experiments.run_crossings("mach25")},
        sort_keys=True)
    assert traced == plain


# ----------------------------------------------------------------------
# Ring overflow surfacing (netstat + crosscheck warning)
# ----------------------------------------------------------------------

def test_lossy_ring_warns_and_shows_in_netstat():
    net, pa, pb = build_network("mach25")
    net.tracer.enable(capacity=16)
    ttcp(net, pb, pa, total_bytes=65536)
    assert net.tracer.spans_evicted > 0
    assert net.tracer.lossy
    with pytest.warns(TraceRingOverflow, match="lossy ring"):
        crosscheck(net.tracer, placement_ledgers(pa, pb))
    report = host_report(pa)
    assert report["tracer"]["spans_evicted"] == net.tracer.spans_evicted
    assert report["tracer"]["waits_evicted"] == net.tracer.waits_evicted
    assert "LOSSY" in format_report(report)


def test_healthy_ring_does_not_warn():
    import warnings as _warnings

    net, pa, pb = build_network("mach25")
    net.tracer.enable()
    ttcp(net, pb, pa, total_bytes=16384)
    assert net.tracer.spans_evicted == 0
    with _warnings.catch_warnings():
        _warnings.simplefilter("error", TraceRingOverflow)
        crosscheck(net.tracer, placement_ledgers(pa, pb))
    assert "LOSSY" not in format_report(host_report(pa))


def test_clear_does_not_count_as_eviction():
    net, pa, pb = build_network("mach25")
    net.tracer.enable()
    ttcp(net, pb, pa, total_bytes=16384)
    assert net.tracer.spans_recorded > 0
    net.tracer.clear()
    assert net.tracer.spans_evicted == 0
    assert not net.tracer.lossy


# ----------------------------------------------------------------------
# The tailstudy integration + CLI
# ----------------------------------------------------------------------

_FAST = [
    "--hosts", "4", "--placements", "mach25", "--loads", "0.05",
    "--window-us", "300000", "--drain-us", "200000", "--seed", "7",
]


@pytest.fixture(scope="module")
def forensic_doc(tmp_path_factory):
    out = tmp_path_factory.mktemp("forensics") / "tail.json"
    rc = tailstudy.main(_FAST + ["--forensics", "--sample-every", "2",
                                 "-o", str(out)])
    assert rc == 0
    return out


def test_tailstudy_forensics_block_shape(forensic_doc):
    doc = json.loads(forensic_doc.read_text())
    assert doc["spec"]["forensics"] == {"enabled": True, "sample_every": 2}
    for cell in doc["results"]:
        block = cell["forensics"]
        assert block["sample_every"] == 2
        assert block["requests_sampled"] > 0
        assert block["sampled_completed"] > 0
        assert block["attribution_exact"] is True
        assert not block["lossy"]
        assert block["exemplars"], "every cell ships an exemplar"
        rows = block["attribution"]["rows"]
        assert rows and rows[0]["us"] > 0
        # Attributed shares cover the whole population exactly.
        assert sum(r["us"] for r in rows) == pytest.approx(
            block["attribution"]["total_us"], abs=0.01)
        for exemplar in block["exemplars"]:
            assert exemplar["path"], "exemplars carry a critical path"
            assert exemplar["spans"]
            path_us = sum(seg["us"] for seg in exemplar["path"])
            assert path_us == pytest.approx(exemplar["latency_us"],
                                            abs=0.01)


def test_tailstudy_forensics_is_deterministic(tmp_path):
    docs = []
    for run in range(2):
        out = tmp_path / ("tail%d.json" % run)
        rc = tailstudy.main(_FAST + ["--forensics", "--sample-every", "2",
                                     "-o", str(out)])
        assert rc == 0
        docs.append(out.read_text())
    # Byte-identical apart from the wall clock: same seed, same sampled
    # ids, same attribution JSON.
    parsed = []
    for text in docs:
        doc = tailstudy.strip_volatile(json.loads(text))
        parsed.append(json.dumps(doc, sort_keys=True))
    assert parsed[0] == parsed[1]


def test_tailstudy_forensics_leaves_latencies_untouched(tmp_path):
    plain_out = tmp_path / "plain.json"
    traced_out = tmp_path / "traced.json"
    assert tailstudy.main(_FAST + ["-o", str(plain_out)]) == 0
    assert tailstudy.main(_FAST + ["--forensics", "--sample-every", "2",
                                   "-o", str(traced_out)]) == 0
    plain = json.loads(plain_out.read_text())["results"]
    traced = json.loads(traced_out.read_text())["results"]
    for p, t in zip(plain, traced):
        t.pop("forensics")
        t.pop("analysis_seconds")
        p.pop("wallclock_seconds")
        t.pop("wallclock_seconds")
        assert p == t


def test_tailstudy_reports_what_the_analysis_cost(forensic_doc):
    doc = json.loads(forensic_doc.read_text())
    for cell in doc["results"]:
        assert cell["analysis_seconds"] >= 0
    # Volatile like the wall clock: the determinism compares drop it.
    for cell in tailstudy.strip_volatile(doc)["results"]:
        assert "analysis_seconds" not in cell
        assert "forensics" in cell
    table = tailstudy.wallclock_table(doc["results"]).splitlines()
    assert table[0] == "| placement | load | record (s) | analysis (s) |"
    assert table[2].endswith("| %.3f | %.3f |" % (
        doc["results"][0]["wallclock_seconds"],
        doc["results"][0]["analysis_seconds"]))
    # A plain cell has no analysis to report.
    plain = dict(doc["results"][0])
    del plain["analysis_seconds"]
    assert tailstudy.wallclock_table([plain]).endswith(" | - |")


def test_ops_report_prints_record_and_analysis_seconds(capsys):
    assert repro_main.main(["ops", "--bytes", "16384"]) == 0
    out = capsys.readouterr().out
    assert "- host cost: " in out
    assert "s recording the cell, " in out
    assert "s analysing its traces" in out
    # The exchange's library send paths, totalled on one line.
    assert "send path → server: 2 route + 2 ARP RPCs; " in out


def test_tailstudy_markdown_carries_counts_and_attribution(capsys):
    rc = tailstudy.main(_FAST + ["--forensics", "--sample-every", "2",
                                 "--markdown"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "n=" in out and "c=" in out
    assert "p99 attribution" in out
    assert "| layer | cause | us | share |" in out


def test_tailstudy_rejects_bad_sample_every(capsys):
    assert tailstudy.main(_FAST + ["--forensics",
                                   "--sample-every", "0"]) == 2
    assert "--sample-every" in capsys.readouterr().err


def test_forensics_cli_renders_timeline(forensic_doc, capsys, tmp_path):
    chrome = tmp_path / "exemplar.json"
    rc = repro_main.main(["forensics", str(forensic_doc),
                          "--chrome", str(chrome)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "cell: mach25 load 0.05" in out
    assert "| layer | cause | us | share |" in out
    assert "end-to-end" in out
    trace = json.loads(chrome.read_text())
    assert trace["traceEvents"]
    assert any(e["pid"] == "critical path" for e in trace["traceEvents"])
    assert all(e["ph"] == "X" for e in trace["traceEvents"])


def test_forensics_cli_summary(forensic_doc, capsys):
    rc = repro_main.main(["forensics", str(forensic_doc),
                          "--summary", "--top", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Top p99 contributors" in out
    data_rows = [l for l in out.splitlines()
                 if l.startswith("| ") and not l.startswith("| #")]
    assert 1 <= len(data_rows) <= 2


def test_forensics_cli_rejects_plain_documents(tmp_path, capsys):
    plain = tmp_path / "plain.json"
    assert tailstudy.main(_FAST + ["-o", str(plain)]) == 0
    assert repro_main.main(["forensics", str(plain)]) == 2
    assert "no forensic cells" in capsys.readouterr().err


def test_forensics_cli_rejects_unknown_cell(forensic_doc, capsys):
    rc = repro_main.main(["forensics", str(forensic_doc),
                          "--placement", "warp9"])
    assert rc == 2
    assert "no cell matches" in capsys.readouterr().err


def test_forensics_cli_rejects_missing_file(tmp_path, capsys):
    rc = repro_main.main(["forensics", str(tmp_path / "nope.json")])
    assert rc == 2
    assert "cannot read" in capsys.readouterr().err
