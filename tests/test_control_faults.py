"""The control-plane fault layer: stages, targeting, determinism, and
the bit-passivity contract.

Three standing guarantees:

* **Targeting is safe by default** — request/reply stages never touch
  legitimately-long operations (accept, select, recv) unless a test
  names them explicitly, and a fault-dropped request always carries a
  deadline, so a drop can delay a caller but never hang one.
* **Seeded plans are deterministic** — the same scenario under the same
  seed produces identical counters, identical byte streams, and an
  identical simulation clock, twice.
* **Disabled is free** — a world with no fault plan on its server is
  bit-identical (CPU charges, frame counts, clock) to a world carrying
  an attached-but-empty plan: the hot paths pay one ``None`` test.
"""

import random

import pytest

from repro.analysis.chaos import (
    CI_SCENARIOS,
    FAMILY_CONFIGS,
    all_scenarios,
    run_scenario,
)
from repro.apps.ttcp import ttcp
from repro.faults import (
    FaultPlan,
    IpcDelay,
    IpcDuplicate,
    IpcLoss,
    RpcDelay,
    RpcDrop,
    RpcDuplicate,
    RpcReplyDelay,
    ServerCrashOnOp,
    ServerFlakyOp,
    ServerSlowOp,
)
from repro.faults.plan import LONG_OPS
from repro.kernel.ipc import DeadlineExpired
from repro.world.configs import build_network

TRANSFER = 98304


# ----------------------------------------------------------------------
# Stage targeting
# ----------------------------------------------------------------------

def test_default_targeting_skips_long_ops():
    """Drop/duplicate/delay must never target blocking ops by default:
    dropping an ``accept`` request is indistinguishable from a quiet
    network and would turn every fault run into a hang."""
    plan = FaultPlan([RpcDrop(rate=1.0)], seed=1)
    for op in LONG_OPS:
        assert plan.on_message("rpc", op) == (False, False, 0.0)
    drop, _dup, _delay = plan.on_message("rpc", "proxy_close")
    assert drop


def test_explicit_ops_override_the_long_op_guard():
    plan = FaultPlan([RpcDrop(rate=1.0, ops=("proxy_accept",))], seed=1)
    drop, _dup, _delay = plan.on_message("rpc", "proxy_accept")
    assert drop
    assert plan.on_message("rpc", "proxy_close") == (False, False, 0.0)


def test_plan_deadlines_skip_long_ops():
    plan = FaultPlan([RpcDelay(rate=0.5, delay_us=100.0)], seed=1)
    assert plan.deadline_for("proxy_close") == plan.default_deadline_us
    for op in LONG_OPS:
        assert plan.deadline_for(op) is None


def test_empty_plan_arms_no_deadlines():
    plan = FaultPlan([], seed=1)
    assert plan.deadline_for("proxy_close") is None


def test_serve_stage_tuple_shapes():
    plan = FaultPlan(
        [ServerSlowOp(rate=1.0, stall_us=500.0), ServerFlakyOp(rate=1.0)],
        seed=1)
    stall, fail, crash = plan.on_serve("proxy_close")
    assert stall == 500.0
    assert fail is not None
    assert crash is None


def test_crash_stage_fires_exactly_once():
    plan = FaultPlan([ServerCrashOnOp("proxy_close", nth=2)], seed=1)
    assert plan.on_serve("proxy_close")[2] is None  # call 1: not yet
    assert plan.on_serve("proxy_close")[2] == "before"  # call 2: fires
    assert plan.on_serve("proxy_close")[2] is None  # never again
    assert plan.on_serve("proxy_connect")[2] is None  # other ops untouched


def test_ipc_stage_tuples():
    plan = FaultPlan(
        [IpcLoss(rate=1.0), IpcDuplicate(rate=1.0), IpcDelay(rate=1.0,
                                                             delay_us=50.0)],
        seed=1)
    drop, dup, delay = plan.on_message("ipc", "packet")
    assert drop and dup and delay == 50.0
    counters = plan.counters()
    assert counters["ipc-loss"]["dropped"] == 1
    assert counters["ipc-duplicate"]["duplicated"] == 1


def test_ipc_stages_take_no_op_filter():
    """IPC stages target every packet delivery; only the RPC and serve
    stages accept an ``ops`` filter."""
    for make in (lambda: IpcLoss(rate=1.0, ops=("packet",)),
                 lambda: IpcDuplicate(rate=1.0, ops=("packet",)),
                 lambda: IpcDelay(rate=1.0, delay_us=5.0, ops=("packet",))):
        with pytest.raises(TypeError):
            make()


class _CountingRandom(random.Random):
    """A seeded RNG that counts its draws."""

    draws = 0

    def random(self):
        self.draws += 1
        return super().random()


def test_each_stage_draws_only_for_its_own_port():
    """The draw order every seeded schedule rests on: a plan holding one
    stage per port advances its RNG once per targeted message, in stage
    order, and never for another port's stages (nor for a long op)."""
    rng = _CountingRandom(1)
    plan = FaultPlan([RpcDrop(rate=0.0),
                      RpcReplyDelay(rate=0.0, delay_us=10.0),
                      IpcLoss(rate=0.0),
                      ServerSlowOp(rate=0.0, stall_us=10.0)], rng=rng)
    expected = 0
    for port, op in (("rpc", "proxy_close"), ("reply", "proxy_close"),
                     ("ipc", "packet"), ("rpc", "proxy_accept"),
                     ("reply", "accept"), ("other", "proxy_close")):
        plan.on_message(port, op)
        if port != "other" and op not in LONG_OPS:
            expected += 1
        assert rng.draws == expected, (port, op)
    plan.on_serve("proxy_close")
    assert rng.draws == expected + 1
    plan.on_serve("proxy_select")
    assert rng.draws == expected + 1
    # The stages consumed exactly those draws of the seeded stream.
    reference = random.Random(1)
    for _ in range(expected + 1):
        reference.random()
    assert rng.getstate() == reference.getstate()


def test_duplicate_stage_names_dedup_in_counters():
    plan = FaultPlan([RpcDrop(rate=1.0), RpcDrop(rate=1.0)], seed=1)
    names = set(plan.counters())
    assert len(names) == 2  # "rpc-drop" and "rpc-drop#2", not one bucket


# ----------------------------------------------------------------------
# A dropped request can never hang its caller
# ----------------------------------------------------------------------

def test_dropped_request_expires_instead_of_hanging():
    net, pa, _pb = build_network("library-shm-ipf")
    api = pa.new_app(name="app")
    plan = FaultPlan([RpcDrop(rate=1.0, ops=("proxy_status",))],
                     seed=3, default_deadline_us=20_000.0)
    plan.attach_server(pa.server, libraries=[api.library])

    def attempt():
        # The raw, non-retrying call path: the drop must surface as a
        # clean DeadlineExpired after the plan's deadline, not a wedge.
        yield from api.rpc.call(api.ctx, "proxy_status",
                                args=(api.app_id,))

    before = net.sim.now
    with pytest.raises(DeadlineExpired):
        net.sim.run_process(attempt())
    assert net.sim.now - before >= 20_000.0
    assert pa.server.rpc.deadline_expiries == 1
    assert plan.counters()["rpc-drop"]["dropped"] == 1


def test_retry_layer_recovers_from_a_drop():
    """The proxy's resilient caller re-issues the dropped request (same
    request id) and the operation completes."""
    net, pa, _pb = build_network("library-shm-ipf")
    api = pa.new_app(name="app")
    plan = FaultPlan(
        [RpcDrop(rate=0.5, ops=("proxy_socket",))],
        seed=7, default_deadline_us=20_000.0)
    plan.attach_server(pa.server, libraries=[api.library])

    def worker():
        fds = []
        for _ in range(12):
            fd = yield from api.socket(1)
            fds.append(fd)
        for fd in fds:
            yield from api.close(fd)
        return len(fds)

    made = net.sim.run_process(worker())
    assert made == 12
    dropped = plan.counters()["rpc-drop"]["dropped"]
    assert dropped > 0
    assert pa.server.rpc.deadline_expiries >= dropped
    assert api.resilient.retries >= dropped


def test_duplicated_request_executes_once():
    """A duplicated mutation is absorbed by the replay cache: the server
    holds the duplicate, answers it with the original's reply, and the
    operation's side effects happen exactly once."""
    net, pa, _pb = build_network("library-shm-ipf")
    api = pa.new_app(name="app")
    plan = FaultPlan([RpcDuplicate(rate=1.0, ops=("proxy_socket",))],
                     seed=5)
    plan.attach_server(pa.server, libraries=[api.library])

    def worker():
        fd = yield from api.socket(1)
        yield from api.close(fd)
        return fd

    net.sim.run_process(worker())
    server = pa.server
    assert plan.counters()["rpc-duplicate"]["duplicated"] >= 1
    assert server.duplicates_held + server.replays_served >= 1
    # Exactly one session was ever created for the duplicated request.
    assert len(server._records) <= 1


# ----------------------------------------------------------------------
# Determinism and matrix shape
# ----------------------------------------------------------------------

def test_seeded_scenario_is_deterministic():
    first = run_scenario("library-shm-ipf/churn/rpc", seed=23)
    second = run_scenario("library-shm-ipf/churn/rpc", seed=23)
    assert first == second
    assert first["ok"], first["violations"]


def test_matrix_is_at_least_the_promised_size():
    ids = all_scenarios()
    assert len(ids) >= 24
    assert len(set(ids)) == len(ids)
    for scenario_id in CI_SCENARIOS:
        assert scenario_id in ids
    for family, configs in FAMILY_CONFIGS.items():
        assert configs, family


# ----------------------------------------------------------------------
# Bit-passivity: an absent or empty plan changes nothing
# ----------------------------------------------------------------------

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


def test_absent_and_empty_plans_are_bitwise_identical():
    net1, a1, b1 = build_network("library-shm-ipf")
    r1 = ttcp(net1, a1, b1, total_bytes=TRANSFER)

    net2, a2, b2 = build_network("library-shm-ipf")
    api_probe = a2.new_app(name="probe")
    plan = FaultPlan([], seed=9)
    plan.attach_server(a2.server, libraries=[api_probe.library])
    r2 = ttcp(net2, a2, b2, total_bytes=TRANSFER)

    assert _world_fingerprint(net1, r1) == _world_fingerprint(net2, r2)
    assert plan.counters() == {}


def test_stages_with_zero_rate_never_fire():
    plan = FaultPlan(
        [RpcDrop(rate=0.0), RpcDuplicate(rate=0.0), RpcDelay(rate=0.0,
                                                             delay_us=10.0),
         RpcReplyDelay(rate=0.0, delay_us=10.0)],
        seed=11)
    for _ in range(200):
        assert plan.on_message("rpc", "proxy_close") == (False, False, 0.0)
        assert plan.on_message("reply", "proxy_close") == (False, False, 0.0)
    assert plan.total("dropped") == 0
    assert plan.total("duplicated") == 0
    assert plan.total("delayed") == 0
