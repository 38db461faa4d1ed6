"""The simulated CPU: charging, priorities, utilization."""

import pytest

from repro.hw.cpu import CPU, Priority
from repro.hw.platforms import DECSTATION_5000_200
from repro.sim import Timeout
from repro.stack.context import ExecutionContext


def make_ctx(sim, priority=Priority.APPLICATION, cpu=None):
    if cpu is None:
        cpu = CPU(sim, DECSTATION_5000_200)
    return ExecutionContext(sim, cpu, priority=priority)


def test_charge_advances_clock(sim):
    ctx = make_ctx(sim)

    def worker():
        yield ctx.charge("w", 100.0)
        return sim.now

    assert sim.run_process(worker()) == 100.0
    assert ctx.cpu.busy_time == 100.0
    assert ctx.cpu.charge_count == 1


def test_zero_cost_is_free(sim):
    ctx = make_ctx(sim)

    def worker():
        yield ctx.charge("w", 0.0)
        return sim.now

    assert sim.run_process(worker()) == 0.0
    assert ctx.cpu.charge_count == 0


def test_negative_cost_raises(sim):
    ctx = make_ctx(sim)

    def worker():
        yield ctx.charge("w", -1.0)

    proc = sim.spawn(worker())
    sim.run()
    assert not proc.ok
    assert isinstance(proc.value, ValueError)


def test_charges_serialize(sim):
    ctx = make_ctx(sim)
    finishes = []

    def worker(name):
        yield ctx.charge("w", 50.0)
        finishes.append((name, sim.now))

    sim.spawn(worker("a"))
    sim.spawn(worker("b"))
    sim.run()
    assert finishes == [("a", 50.0), ("b", 100.0)]


def test_priority_wins_at_release_point(sim):
    app_ctx = make_ctx(sim, Priority.APPLICATION)
    intr_ctx = make_ctx(sim, Priority.INTERRUPT, cpu=app_ctx.cpu)
    order = []

    def app():
        yield app_ctx.charge("app", 10.0)
        order.append("app1")
        yield app_ctx.charge("app", 10.0)
        order.append("app2")

    def interrupt_handler():
        yield Timeout(1.0)  # arrives while the app's first charge runs
        yield intr_ctx.charge("intr", 5.0)
        order.append("intr")

    sim.spawn(app())
    sim.spawn(interrupt_handler())
    sim.run()
    assert order == ["app1", "intr", "app2"]


def test_utilization(sim):
    ctx = make_ctx(sim)

    def worker():
        yield ctx.charge("w", 25.0)
        yield Timeout(75.0)

    sim.run_process(worker())
    assert ctx.cpu.utilization() == pytest.approx(0.25)
