"""``Simulator.run_all``'s inlined dispatch loop against ``step()``.

``run_all`` is the dispatch loop under every benchmark, so it carries its
own copy of :meth:`Simulator.step`'s body.  These tests run real worlds
once through it and once through a plain loop of ``step()`` calls, and
require the same results and the same CPU holds, in the same order, at
the same instants.
"""

from repro.analysis import tailstudy
from repro.apps.protolat import protolat
from repro.sim.engine import Simulator
from repro.sim.events import PENDING
from repro.sim.process import Process
from repro.world.configs import build_network


def _run_all_by_step(self, generators, until=None):
    """``run_all`` written as one ``step()`` per engine item."""
    procs = [self.spawn(gen) for gen in generators]
    while any(proc._state is PENDING for proc in procs):
        if not self._ready and (not self._queue or (
                until is not None and self._queue[0][0] > until)):
            break
        self.step()
    for proc in procs:
        if not proc.ok:
            raise proc.value
    return [proc.value for proc in procs]


def _both_ways(monkeypatch, run):
    """``run()``'s result and its holds, through ``run_all`` and through
    ``step()``."""
    holds = []
    fire = Process._charge_fire

    def charge_fire(self, token):
        charge = self._charge
        if charge is not None:
            holds.append((self._sim.now, self.name, charge.layer,
                          charge.cost))
        fire(self, token)

    monkeypatch.setattr(Process, "_charge_fire", charge_fire)
    inlined = run(), list(holds)
    del holds[:]
    monkeypatch.setattr(Simulator, "run_all", _run_all_by_step)
    stepped = run(), list(holds)
    assert inlined[1], "no CPU hold was recorded"
    return inlined, stepped


def test_tcp_protolat_dispatches_alike(monkeypatch):
    def run():
        network, pa, pb = build_network("ux")
        result = protolat(network, pb, pa, proto="tcp", message_size=1,
                          rounds=20)
        return result, network.sim.now

    inlined, stepped = _both_ways(monkeypatch, run)
    assert inlined == stepped


def test_star_cell_dispatches_alike(monkeypatch):
    def run():
        cell = tailstudy.run_cell(
            dict(kind="star", hosts=16, seed=7),
            dict(proto="udp", clients=0, fanout=2, request_bytes=64,
                 reply_bytes=200, size_dist="fixed", window_us=100_000.0,
                 drain_us=100_000.0, seed=7),
            "library-shm-ipf", 0.1)
        assert cell["completed"] > 0
        return tailstudy.strip_volatile({"results": [cell]})

    inlined, stepped = _both_ways(monkeypatch, run)
    assert inlined == stepped
