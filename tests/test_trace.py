"""Per-packet tracing: propagation, bounding, and the tick-agreement
invariant between the span fold and the instrument ledgers."""

import json

import pytest

from repro.analysis.tracing import crosscheck, placement_ledgers
from repro.core.sockets import SOCK_DGRAM, SOCK_STREAM
from repro.net.addr import ip_aton
from repro.stack.instrument import Layer
from repro.trace import chrome_trace, text_timeline
from repro.world.configs import build_network

IP1 = ip_aton("10.0.0.1")
RUN_BOUND = 240_000_000


def run_udp_echo(net, pa, pb, payload=b"x" * 512, port=9000, rounds=1):
    ready = net.sim.event()

    def server(api):
        fd = yield from api.socket(SOCK_DGRAM)
        yield from api.bind(fd, port)
        ready.succeed()
        for _ in range(rounds):
            data, src = yield from api.recvfrom(fd)
            yield from api.sendto(fd, data, src)
        yield from api.close(fd)

    def client(api):
        yield ready
        fd = yield from api.socket(SOCK_DGRAM)
        for _ in range(rounds):
            yield from api.sendto(fd, payload, (IP1, port))
            data, _ = yield from api.recvfrom(fd)
        yield from api.close(fd)
        return data

    _s, data = net.run_all([server(pa.new_app()), client(pb.new_app())],
                           until=RUN_BOUND)
    assert data == payload


def run_tcp_echo(net, pa, pb, payload=b"y" * 512, port=7000):
    ready = net.sim.event()

    def server(api):
        fd = yield from api.socket(SOCK_STREAM)
        yield from api.bind(fd, port)
        yield from api.listen(fd)
        ready.succeed()
        cfd, _ = yield from api.accept(fd)
        data = yield from api.recv_exactly(cfd, len(payload))
        yield from api.send_all(cfd, data)
        yield from api.close(cfd)
        yield from api.close(fd)

    def client(api):
        yield ready
        fd = yield from api.socket(SOCK_STREAM)
        yield from api.connect(fd, (IP1, port))
        yield from api.send_all(fd, payload)
        data = yield from api.recv_exactly(fd, len(payload))
        yield from api.close(fd)
        return data

    _s, data = net.run_all([server(pa.new_app()), client(pb.new_app())],
                           until=RUN_BOUND)
    assert data == payload


# ----------------------------------------------------------------------


def test_disabled_by_default_records_nothing():
    net, pa, pb = build_network("mach25")
    assert not net.tracer.enabled
    run_udp_echo(net, pa, pb)
    assert net.tracer.spans_recorded == 0
    assert net.tracer.traces_started == 0
    assert len(net.tracer.spans) == 0
    # ...while the instrument ledgers kept accounting as always.
    assert pb.accounting.totals


def test_trace_id_propagates_across_proxy_ipc_boundary():
    """A packet sent through the library placement keeps one trace id
    from the client's socket entry, across the kernel and wire, through
    the server host's IPC packet-filter delivery, to its copyout."""
    net, pa, pb = build_network("library-ipc")
    net.tracer.enable()
    run_udp_echo(net, pa, pb)

    client_owner = pb.accounting.owner
    server_owner = pa.accounting.owner
    send_traces = [
        tid for tid in net.tracer.trace_ids()
        if net.tracer.meta(tid).kind == "send"
        and net.tracer.meta(tid).host == pb.host.name
    ]
    assert send_traces, "client socket entry must begin a send trace"
    # The client's request packet: spans on both hosts under one id.
    crossing = None
    for tid in send_traces:
        owners = {s.owner for s in net.tracer.trace(tid)}
        if client_owner in owners and server_owner in owners:
            crossing = tid
            break
    assert crossing is not None, "no trace crossed the host boundary"
    spans = net.tracer.trace(crossing)
    layers_client = {s.layer for s in spans if s.owner == client_owner}
    layers_server = {s.layer for s in spans if s.owner == server_owner}
    # Send path charged on the client...
    assert Layer.ENTRY_COPYIN in layers_client
    # ...and the server side's receive path — including the per-packet
    # IPC delivery into the receiving library (library-ipc's packet
    # filter port) — carries the same id.
    assert Layer.DEVICE_READ in layers_server
    assert Layer.KERNEL_COPYOUT in layers_server


def test_each_send_begins_a_fresh_trace():
    net, pa, pb = build_network("mach25")
    net.tracer.enable()
    run_udp_echo(net, pa, pb, rounds=3)
    births = [net.tracer.meta(tid) for tid in net.tracer.trace_ids()]
    client_sends = [m for m in births
                    if m.kind == "send" and m.host == pb.host.name]
    # One per datagram (per-packet tracing, not per-round-trip).
    assert len(client_sends) == 3
    assert len({m.trace_id for m in client_sends}) == 3


def test_ring_bounding_evicts_spans_but_counters_stay_exact():
    net, pa, pb = build_network("mach25")
    net.tracer.enable(capacity=32, max_traces=2)
    run_udp_echo(net, pa, pb, rounds=4)
    tracer = net.tracer
    assert len(tracer.spans) == 32
    assert tracer.spans_recorded > 32
    assert tracer.spans_evicted == tracer.spans_recorded - 32
    # Metadata is bounded too: old traces fall off, the counter doesn't.
    assert len(tracer.trace_ids()) <= 2
    assert tracer.traces_started > 2


@pytest.mark.parametrize("config_key",
                         ["mach25", "ux", "library-shm", "library-shm-ipf"])
@pytest.mark.parametrize("proto", ["udp", "tcp"])
def test_fold_matches_instrument_accounting_tick_for_tick(config_key, proto):
    """The standing invariant: replaying the span ring reproduces every
    ledger cell exactly — same floats, same addition order."""
    net, pa, pb = build_network(config_key)
    net.tracer.enable()
    if proto == "udp":
        run_udp_echo(net, pa, pb)
    else:
        run_tcp_echo(net, pa, pb)
    assert net.tracer.spans_evicted == 0
    ledgers = placement_ledgers(pa, pb)
    problems = crosscheck(net.tracer, ledgers)
    assert not problems, "\n".join(problems)
    # And the fold actually covered real work on both hosts.
    fold = net.tracer.fold()
    assert fold[pa.accounting.owner]
    assert fold[pb.accounting.owner]


@pytest.mark.parametrize("config_key", ["mach25", "ux", "library-shm-ipf"])
def test_traced_breakdown_equals_ledger_breakdown(config_key, monkeypatch):
    """Table 4 derived from traces is the client ledger of the same run,
    cell for cell, for every placement the paper breaks down."""
    from repro.analysis import tracing
    from repro.stack.instrument import Layer

    built = []

    def capture(*args, **kwargs):
        built.append(build_network(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(tracing, "build_network", capture)
    traced = tracing.run_traced_breakdown(config_key, "udp", 512, rounds=20)
    client = built[0][2].accounting
    for layer in Layer.SEND_PATH + Layer.RECEIVE_PATH:
        assert traced.breakdown[layer] == client.total(layer) / traced.rounds
    assert traced.breakdown["measured rtt_us"] == traced.rtt.mean_rtt_us
    assert traced.spans > 0
    assert traced.traces > 0


def test_traced_breakdown_folds_only_service_spans(monkeypatch):
    """Waits share the ring with the CPU spans; the fold skips them, so
    the crosscheck inside run_traced_breakdown stays exact."""
    from repro.analysis import tracing

    built = []

    def capture(*args, **kwargs):
        built.append(build_network(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(tracing, "build_network", capture)
    traced = tracing.run_traced_breakdown("ux", "udp", 512, rounds=20)
    ring = built[0][0].tracer.spans
    waits = [span for span in ring if span.kind != "service"]
    # Not vacuous: RPC round trips, CPU contention and NIC queueing.
    assert {span.kind for span in waits} == {
        "control-plane", "contention", "queue"}
    assert traced.spans == len(ring) - len(waits)


def test_chrome_trace_export():
    net, pa, pb = build_network("mach25")
    net.tracer.enable()
    run_udp_echo(net, pa, pb)
    doc = json.loads(chrome_trace(net.tracer))
    events = doc["traceEvents"]
    assert len(events) == len(net.tracer.spans)
    sample = events[0]
    assert sample["ph"] == "X"
    assert set(sample) >= {"name", "ts", "dur", "pid", "tid", "cat"}
    # Single-trace export filters down to that packet.
    tid = net.tracer.trace_ids()[0]
    only = json.loads(chrome_trace(net.tracer, trace_id=tid))
    assert 0 < len(only["traceEvents"]) < len(events)
    assert all(e["tid"] == tid for e in only["traceEvents"])


def test_text_timeline_export():
    net, pa, pb = build_network("mach25")
    net.tracer.enable()
    run_udp_echo(net, pa, pb)
    send_tid = next(tid for tid in net.tracer.trace_ids()
                    if net.tracer.meta(tid).kind == "send")
    text = text_timeline(net.tracer, send_tid)
    assert "trace #%d" % send_tid in text
    assert "total attributed CPU" in text
    assert Layer.ENTRY_COPYIN in text
