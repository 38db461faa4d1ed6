"""One hold per layer visit.

A CPU hold (one :class:`~repro.sim.process.Charge`) is the unit of host
cost, and the release point after it is the only place another process
can take the CPU.  These tests pin how many holds a steady-state 1-byte
round trip takes on each placement, and check from outside the charge
machinery that no process holds the CPU twice in a row for the same
layer, ledger and priority: such a pair is one layer visit cut in two.

Steady state is the difference between two protolat runs that differ by
one round trip, so connection setup, warm-up and teardown cancel out.
Table 4 is checked against `benchmarks/baseline.json` to float rounding.
"""

import json
from pathlib import Path

import pytest

from repro.analysis.bench_json import HARNESSES
from repro.apps.protolat import protolat
from repro.sim.process import Process
from repro.world.configs import build_network

BASELINE = Path(__file__).resolve().parents[1] / "benchmarks" / "baseline.json"

#: Holds on both hosts' CPUs per steady-state 1-byte round trip.
HOLDS_PER_ROUND_TRIP = {
    ("mach25", "udp"): 32,
    ("mach25", "tcp"): 32,
    ("ux", "udp"): 46,
    ("ux", "tcp"): 46,
    ("library-shm-ipf", "udp"): 34,
    ("library-shm-ipf", "tcp"): 34,
}


#: Visits still billed in two holds, per placement.  The UX server's
#: recv handler copies out of the socket buffer inside the stack's
#: session code, then its RPC reply bills the same layer: merging the
#: two needs the reply to carry the session's copyout cost (ROADMAP).
#: A round trip has two receives, the echo server's and the client's.
SPLIT_VISITS = {"ux": ["copyout/exit", "copyout/exit"]}


def _watch(monkeypatch):
    """Patch the charge machinery to list every hold a process starts
    straight from the fire of one with the same layer, ledger and
    priority (no event wait or timeout in between)."""
    repeats = []
    fire = Process._charge_fire

    def charge_fire(self, token):
        prev = self._charge
        fire(self, token)
        # A charge in flight after the fire is the hold it started.
        started = self._charge
        if prev is not None and started is not None and (
                prev.layer, prev.accounting, prev.priority) == (
                started.layer, started.accounting, started.priority):
            repeats.append((self.name, started.layer))

    monkeypatch.setattr(Process, "_charge_fire", charge_fire)
    return repeats


def _run(key, proto, rounds, repeats):
    """(holds on both CPUs, back-to-back repeats) of one protolat run."""
    del repeats[:]
    network, pa, pb = build_network(key)
    protolat(network, pb, pa, proto=proto, message_size=1, rounds=rounds)
    holds = pa.host.cpu.charge_count + pb.host.cpu.charge_count
    return holds, sorted(repeats)


@pytest.mark.parametrize("key,proto", sorted(HOLDS_PER_ROUND_TRIP))
def test_round_trip_holds_once_per_layer_visit(monkeypatch, key, proto):
    repeats = _watch(monkeypatch)
    holds, before = _run(key, proto, 3, repeats)
    holds_after, after = _run(key, proto, 4, repeats)
    assert holds_after - holds == HOLDS_PER_ROUND_TRIP[key, proto]
    # What the extra round trip added: no visit split into two holds.
    for repeat in before:
        after.remove(repeat)
    assert [layer for _name, layer in after] == SPLIT_VISITS.get(key, [])


def test_table4_layer_means_equal_the_baseline():
    # Merging a visit's sub-steps into one hold moves release points,
    # not costs: every Table 4 per-layer mean (and path total) equals
    # the pinned one up to float addition order.  The CI bench gate's
    # ±1 % would not see a lost cost term worth less than 1 % of its
    # cell.
    pinned = json.loads(BASELINE.read_text())["table4_udp_us"]
    _message, harness = HARNESSES["table4_udp_us"]
    table4 = harness()["table4_udp_us"]
    for system, sizes in pinned.items():
        for size, row in sizes.items():
            for layer, mean in row.items():
                if layer != "rtt":
                    assert table4[system][size][layer] == pytest.approx(
                        mean, rel=1e-9), (system, size, layer)
