"""The Charge fast path: the process machinery executing CPU charges.

``yield ctx.charge(...)`` hands the process a :class:`Charge` request
that it executes directly — acquire the CPU's priority lock, sleep the
cost, release, account — without a charging subgenerator.  These tests
pin the semantics that path must preserve: serialization and priority,
zero-cost synchronous continuation, negative-cost errors raised at the
yield site, renege on interrupt (both queued and mid-sleep), the
``yield from`` compatibility path, and safe sharing of cached Charge
objects between processes.
"""

import pytest

from repro.hw.cpu import CPU, Priority
from repro.hw.platforms import DECSTATION_5000_200
from repro.sim import Timeout
from repro.sim.errors import Interrupt
from repro.sim.process import Charge
from repro.stack.context import ExecutionContext


def make_ctx(sim, priority=Priority.APPLICATION):
    cpu = CPU(sim, DECSTATION_5000_200)
    return ExecutionContext(sim, cpu, priority=priority, name="t")


def test_charge_advances_clock_and_accounts(sim):
    ctx = make_ctx(sim)

    def worker():
        yield ctx.charge("layer-a", 100.0)
        return sim.now

    assert sim.run_process(worker()) == 100.0
    assert ctx.cpu.busy_time == 100.0
    assert ctx.cpu.charge_count == 1
    assert ctx.accounting.totals["layer-a"] == 100.0
    assert ctx.accounting.counts["layer-a"] == 1


def test_charge_batch_bills_each_pair(sim):
    ctx = make_ctx(sim)

    def worker():
        yield ctx.charge_batch((("a", 10.0), ("b", 20.0), ("c", 30.0)))
        return sim.now

    assert sim.run_process(worker()) == 60.0
    assert ctx.cpu.charge_count == 3
    assert ctx.accounting.totals["b"] == 20.0


def test_zero_cost_continues_synchronously(sim):
    ctx = make_ctx(sim)

    def worker():
        yield ctx.charge("free", 0.0)
        yield ctx.charge_batch((("x", 0.0), ("y", 0.0)))
        return sim.now

    assert sim.run_process(worker()) == 0.0
    assert ctx.cpu.charge_count == 0
    assert ctx.accounting.totals["free"] == 0.0


def test_negative_cost_raises_at_yield_site(sim):
    ctx = make_ctx(sim)

    def worker():
        try:
            yield ctx.charge("bad", -1.0)
        except ValueError:
            return "caught"
        return "missed"

    assert sim.run_process(worker()) == "caught"
    assert not ctx.cpu._sched.locked  # nothing leaked


def test_charges_serialize_and_priority_wins(sim):
    ctx = make_ctx(sim)
    order = []

    def app():
        yield ctx.charge("app", 10.0)
        order.append("app1")
        yield ctx.charge("app", 10.0)
        order.append("app2")

    def interrupt_handler():
        yield Timeout(1.0)  # arrives while the app's first charge runs
        yield Charge(ctx.cpu, Priority.INTERRUPT, ctx.accounting,
                     (("intr", 5.0),))
        order.append("intr")

    sim.spawn(app())
    sim.spawn(interrupt_handler())
    sim.run()
    assert order == ["app1", "intr", "app2"]


def test_interrupt_mid_sleep_releases_cpu(sim):
    ctx = make_ctx(sim)

    def worker():
        yield ctx.charge("w", 100.0)

    proc = sim.spawn(worker())

    def killer():
        yield Timeout(10.0)
        proc.interrupt("die")
        # The CPU must be free again: this charge runs immediately.
        yield ctx.charge("k", 5.0)
        return sim.now

    assert sim.run_process(killer()) == 15.0
    assert not proc.ok
    assert isinstance(proc.value, Interrupt)
    assert not ctx.cpu._sched.locked


def test_interrupt_while_queued_withdraws_waiter(sim):
    ctx = make_ctx(sim)
    done = []

    def holder():
        yield ctx.charge("h", 50.0)
        done.append(("holder", sim.now))

    def queued():
        yield ctx.charge("q", 50.0)
        done.append(("queued", sim.now))  # pragma: no cover - interrupted

    sim.spawn(holder())
    victim = sim.spawn(queued())

    def killer():
        yield Timeout(10.0)
        victim.interrupt()

    sim.spawn(killer())
    sim.run()
    assert done == [("holder", 50.0)]
    assert not victim.ok
    assert not ctx.cpu._sched.locked  # the hand-off was not leaked
    assert ctx.cpu._sched.waiting() == 0


def test_cached_charge_shared_between_processes(sim):
    ctx = make_ctx(sim)
    finishes = []

    def worker(name):
        yield ctx.charge("shared", 25.0)
        finishes.append((name, sim.now))

    # Identical requests share one immutable Charge object...
    assert ctx.charge("shared", 25.0) is ctx.charge("shared", 25.0)
    # ...and two processes can execute it concurrently, because all
    # execution state lives in the Process, not the Charge.
    sim.spawn(worker("a"))
    sim.spawn(worker("b"))
    sim.run()
    assert finishes == [("a", 25.0), ("b", 50.0)]
    assert ctx.accounting.totals["shared"] == 50.0
    assert ctx.accounting.counts["shared"] == 2


def test_waiting_on_reporting(sim):
    ctx = make_ctx(sim)
    seen = {}

    def holder():
        yield ctx.charge("h", 30.0)

    def queued():
        yield ctx.charge("q", 30.0)

    h = sim.spawn(holder())
    q = sim.spawn(queued())

    def observer():
        yield Timeout(10.0)
        seen["holder"] = repr(h.waiting_on)
        seen["queued"] = repr(q.waiting_on)

    sim.spawn(observer())
    sim.run()
    # Mid-sleep the holder waits on its Charge; the queued process waits
    # on the CPU lock's hand-off waiter — both show up in deadlock
    # diagnostics rather than as "nothing".
    assert "Charge" in seen["holder"]
    assert "waiter" in seen["queued"]


def test_deadlock_report_includes_charge(sim):
    ctx = make_ctx(sim)

    def worker():
        yield ctx.charge("w", 10.0)
        yield sim.event("never")  # blocks forever

    with pytest.raises(Exception) as err:
        sim.run_process(worker())
    assert "never" in str(err.value)
