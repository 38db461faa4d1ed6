"""The composable fault pipeline: stage units, wire integration, and the
Deadlock diagnostics that make chaos failures debuggable."""

import random

import pytest

from repro.analysis.netstat import fault_report, format_fault_report
from repro.core.sockets import SOCK_DGRAM
from repro.faults import (
    Blackhole,
    BernoulliLoss,
    Corrupt,
    DelayJitter,
    Duplicate,
    FaultPlan,
    FaultStage,
    GilbertElliottLoss,
    Reorder,
    RxOverflow,
    Transit,
)
from repro.faults.stages import ETHER_HEADER, flip_payload_byte
from repro.hw.platforms import DECSTATION_5000_200
from repro.metrics.registry import state_cell_block
from repro.net.addr import ip_aton
from repro.sim.engine import Simulator
from repro.sim.errors import Deadlock
from repro.world.network import Network

FRAME = b"\x00" * ETHER_HEADER + b"payload-bytes"
HEADER_ONLY = b"\x00" * ETHER_HEADER


def transit(frame=FRAME):
    return Transit(frame, sender=None)


# ----------------------------------------------------------------------
# flip_payload_byte (the corruption primitive and its no-payload fix)
# ----------------------------------------------------------------------


def test_flip_payload_byte_changes_exactly_one_payload_byte():
    rng = random.Random(1)
    mutated = flip_payload_byte(FRAME, rng)
    assert mutated is not None and mutated != FRAME
    assert len(mutated) == len(FRAME)
    assert mutated[:ETHER_HEADER] == FRAME[:ETHER_HEADER]  # header untouched
    diffs = [i for i in range(len(FRAME)) if mutated[i] != FRAME[i]]
    assert len(diffs) == 1 and diffs[0] >= ETHER_HEADER


@pytest.mark.parametrize("frame", [b"", b"\x00" * 5, HEADER_ONLY])
def test_flip_payload_byte_skips_payloadless_frames(frame):
    """Regression: a 14-byte (header-only) frame used to be corrupted in
    its header, which merely broke demux instead of testing checksums."""
    assert flip_payload_byte(frame, random.Random(1)) is None


def test_corrupt_stage_does_not_count_payloadless_frames():
    stage = Corrupt(rate=1.0)
    [t] = stage.transit(transit(HEADER_ONLY), random.Random(3), 0.0)
    assert t.frame == HEADER_ONLY
    assert stage.counters() == {"corrupted": 0}
    [t] = stage.transit(transit(), random.Random(3), 0.0)
    assert t.frame != FRAME
    assert stage.counters() == {"corrupted": 1}


# ----------------------------------------------------------------------
# Loss models
# ----------------------------------------------------------------------


def test_bernoulli_loss_rate_and_determinism():
    def drops(seed):
        stage = BernoulliLoss(0.3)
        rng = random.Random(seed)
        return [bool(stage.transit(transit(), rng, 0.0)) for _ in range(500)]

    assert drops(7) == drops(7)  # same seed, same fate
    stage = BernoulliLoss(0.3)
    rng = random.Random(7)
    for _ in range(500):
        stage.transit(transit(), rng, 0.0)
    assert 100 < stage.dropped < 200  # ~150 expected


def test_gilbert_elliott_losses_come_in_bursts():
    stage = GilbertElliottLoss(p_enter_bad=0.05, p_exit_bad=0.25, loss_bad=1.0)
    rng = random.Random(11)
    fates = []
    for _ in range(2000):
        fates.append(not stage.transit(transit(), rng, 0.0))
    assert stage.dropped == sum(fates) > 0
    assert stage.bursts > 0
    # Mean burst length 1/p_exit_bad = 4: dropped frames must cluster far
    # beyond what independent loss at the same average rate would produce.
    runs = []
    run = 0
    for dropped in fates:
        if dropped:
            run += 1
        elif run:
            runs.append(run)
            run = 0
    assert max(runs) >= 3
    assert stage.dropped / stage.bursts > 1.5  # bursty, not singletons


def test_gilbert_elliott_good_state_is_clean_by_default():
    stage = GilbertElliottLoss(p_enter_bad=0.0, p_exit_bad=1.0)
    rng = random.Random(1)
    for _ in range(100):
        assert stage.transit(transit(), rng, 0.0)
    assert stage.counters() == {"dropped": 0, "bursts": 0}


# ----------------------------------------------------------------------
# Duplication / delay / reordering
# ----------------------------------------------------------------------


def test_duplicate_fans_out_with_gap():
    stage = Duplicate(rate=1.0, gap_us=250.0)
    out = stage.transit(transit(), random.Random(1), 0.0)
    assert len(out) == 2
    assert out[0].delay_us == 0.0 and out[1].delay_us == 250.0
    assert out[0].frame == out[1].frame
    assert stage.counters() == {"duplicated": 1}


def test_delay_jitter_accumulates_bounded_delay():
    stage = DelayJitter(base_us=100.0, jitter_us=50.0)
    rng = random.Random(5)
    for _ in range(50):
        [t] = stage.transit(transit(), rng, 0.0)
        assert 100.0 <= t.delay_us < 150.0
    assert stage.delayed == 50
    assert stage.counters()["total_delay_us"] > 5000


def test_reorder_holds_selected_frames():
    stage = Reorder(rate=1.0, hold_us=3000.0)
    [t] = stage.transit(transit(), random.Random(1), 0.0)
    assert t.delay_us == 3000.0
    assert stage.counters() == {"reordered": 1}


# ----------------------------------------------------------------------
# Blackhole windows
# ----------------------------------------------------------------------


def test_blackhole_window_drops_everything_inside_it():
    stage = Blackhole(1000.0, 2000.0)
    rng = random.Random(1)
    assert stage.transit(transit(), rng, 999.0)  # before
    assert not stage.transit(transit(), rng, 1000.0)  # inside
    assert not stage.transit(transit(), rng, 1999.0)
    assert stage.transit(transit(), rng, 2000.0)  # after
    assert stage.counters()["dropped"] == 2


def test_blackhole_tx_and_rx_directions():
    victim, other = object(), object()
    rng = random.Random(1)
    tx = Blackhole(0.0, 100.0, nics={victim}, direction="tx")
    assert not tx.transit(Transit(FRAME, sender=victim), rng, 50.0)
    assert tx.transit(Transit(FRAME, sender=other), rng, 50.0)
    rx = Blackhole(0.0, 100.0, nics={victim}, direction="rx")
    [t] = rx.transit(Transit(FRAME, sender=other), rng, 50.0)
    assert victim in t.exclude
    assert rx.counters()["shunned"] == 1


def test_blackhole_rejects_bad_direction():
    with pytest.raises(ValueError):
        Blackhole(0.0, 1.0, direction="sideways")


# ----------------------------------------------------------------------
# FaultPlan plumbing
# ----------------------------------------------------------------------


def test_plan_fans_transits_through_stages_in_order():
    plan = FaultPlan([Duplicate(rate=1.0, gap_us=10.0),
                      DelayJitter(base_us=5.0)], seed=1)
    out = plan.apply(FRAME, sender=None, now=0.0)
    assert [t.delay_us for t in out] == [5.0, 15.0]
    assert plan.frames_in == 1 and plan.frames_delivered == 2


def test_plan_counters_deduplicate_repeated_stage_names():
    plan = FaultPlan([BernoulliLoss(0.0), BernoulliLoss(0.0)])
    assert set(plan.counters()) == {"loss", "loss#1"}
    assert plan.total("dropped") == 0


def test_plan_stops_once_every_transit_is_dropped():
    witness = Corrupt(rate=1.0)
    plan = FaultPlan([BernoulliLoss(1.0), witness], seed=1)
    assert plan.apply(FRAME, sender=None, now=0.0) == []
    assert witness.corrupted == 0  # never reached
    assert plan.total("dropped") == 1


# ----------------------------------------------------------------------
# Wire integration (a real two-host segment)
# ----------------------------------------------------------------------


def _two_host_net(**kwargs):
    net = Network(**kwargs)
    a = net.add_host("10.0.0.1", DECSTATION_5000_200, name="alpha")
    b = net.add_host("10.0.0.2", DECSTATION_5000_200, name="beta")
    return net, a, b


def _blast(net, sender_nic, frames=10, gap_us=500.0):
    def tx():
        for i in range(frames):
            yield from sender_nic.start_transmit(
                b"\xff" * ETHER_HEADER + b"frame%02d" % i
            )
            yield net.sim.timeout(gap_us)

    net.sim.run_process(tx())
    net.sim.run(until=net.sim.now + 50_000)


def test_blackhole_partitions_one_host_then_heals():
    plan = FaultPlan([Blackhole(0.0, 3000.0, nics=None)], seed=1)
    net, a, b = _two_host_net(fault_plan=plan)
    _blast(net, a.nic, frames=10, gap_us=1000.0)
    # Frames serialized before 3000us vanished; later ones got through.
    assert 0 < b.nic.frames_received < 10
    assert plan.total("dropped") == 10 - b.nic.frames_received


def test_rx_overflow_window_forces_nic_drops():
    net, a, b = _two_host_net()
    overflow = RxOverflow(0.0, 4000.0, nics=[b.nic], limit=0)
    plan = FaultPlan([overflow], seed=1)
    net.wire.set_fault_plan(plan)
    _blast(net, a.nic, frames=8, gap_us=1000.0)
    assert b.nic.frames_dropped > 0
    assert b.nic.rx_limit_override is None  # window closed
    assert overflow.counters()["overflow_drops"] == b.nic.frames_dropped
    assert overflow.counters()["windows"] == 1
    # Frames after the window still land.
    assert b.nic.frames_received > 0


# ----------------------------------------------------------------------
# netstat surfacing
# ----------------------------------------------------------------------


def test_fault_report_surfaces_stage_counters():
    plan = FaultPlan([GilbertElliottLoss(0.2, 0.3), Corrupt(0.2)], seed=3)
    net, a, b = _two_host_net(fault_plan=plan)
    _blast(net, a.nic, frames=20)
    report = fault_report(net.wire)
    assert report["wire"] == "ether0"
    assert report["frames_carried"] == 20
    assert report["frames_in"] == 20
    assert set(report["stages"]) == {"gilbert-elliott", "corrupt"}
    text = format_fault_report(report)
    assert "gilbert-elliott" in text and "pipeline" in text


class _FlipDestinationMac(FaultStage):
    """Corrupt the first byte of every frame's destination address."""

    name = "flip-dst-mac"

    def transit(self, t, rng, now):
        t.frame = bytes([t.frame[0] ^ 0xFF]) + t.frame[1:]
        return [t]


def test_corrupted_destination_mac_is_declared_not_lost_silently():
    plan = FaultPlan([_FlipDestinationMac()], seed=1)
    net, a, b = _two_host_net(fault_plan=plan)
    net.metrics.enable()

    def tx():
        for i in range(5):
            yield from a.nic.start_transmit(
                b.mac + a.mac + b"\x08\x00" + b"frame%02d" % i)

    net.sim.run_process(tx())
    net.sim.run(until=net.sim.now + 50_000)
    # No station owns the mangled address: the frames die in b's
    # hardware filter, cost b's CPU nothing, and every report says so.
    assert b.nic.frames_filtered == 5
    assert (b.nic.frames_received, b.nic.frames_dropped) == (0, 0)
    assert b.cpu.charge_count == 0
    report = fault_report(net.wire)
    assert report["frames_carried"] == 5
    assert report["frames_filtered"] == 5
    assert "5 filtered by NICs" in format_fault_report(report)
    gauges = state_cell_block(net.metrics.export_state())["pull"]
    assert gauges["beta.nic.rx_filtered"] == 5
    assert gauges["beta.nic.rx_dropped"] == 0


def test_fault_report_without_a_plan():
    net, a, b = _two_host_net()
    report = fault_report(net.wire)
    assert "frames_in" not in report
    assert "lost" in format_fault_report(report)


# ----------------------------------------------------------------------
# Deadlock diagnostics (what a wedged chaos run prints)
# ----------------------------------------------------------------------


def test_deadlock_reports_each_blocked_process_and_its_primitive():
    sim = Simulator()
    gate = sim.event("gate")

    def stuck():
        yield gate

    sim.spawn(stuck(), name="consumer-1")
    sim.spawn(stuck(), name="consumer-2")
    with pytest.raises(Deadlock) as info:
        sim.run(detect_deadlock=True)
    text = str(info.value)
    assert "consumer-1" in text and "consumer-2" in text
    assert "gate" in text
    assert info.value.blocked[0][0] == "consumer-1"


def test_deadlock_from_run_process_names_the_waited_event():
    sim = Simulator()

    def waits_forever():
        yield sim.event("never")

    with pytest.raises(Deadlock) as info:
        sim.run_process(waits_forever(), name="victim")
    assert "victim" in str(info.value)
    assert any("never" in target for _name, target in info.value.blocked)
