"""The Charge fast path: the process machinery executing CPU charges.

``yield ctx.charge(...)`` hands the process a :class:`Charge` request
that it executes directly — acquire the CPU's priority lock, sleep the
cost, release, account — without a charging subgenerator.  These tests
pin the semantics that path must preserve: serialization and priority,
zero-cost synchronous continuation, negative-cost errors raised at the
yield site, renege on interrupt (both queued and mid-sleep), safe
sharing of cached Charge objects between processes, and, differentially,
the whole path against its plain subgenerator form
(``tests/charge_reference.py``).
"""

from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from repro.hw.cpu import CPU, Priority
from repro.hw.platforms import DECSTATION_5000_200
from repro.sim import Simulator, Timeout
from repro.sim.errors import Interrupt
from repro.sim.process import Charge
from repro.stack.context import ExecutionContext
from repro.stack.instrument import LayerAccounting
from tests.charge_reference import ReferenceCPU


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


def test_zero_cost_continues_synchronously(sim):
    ctx = make_ctx(sim)

    def worker():
        yield ctx.charge("free", 0.0)
        yield ctx.charge("free", 0.0)
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
                     "intr", 5.0)
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


def test_interrupt_after_the_cpu_was_handed_over(sim):
    """The holder's release hands the CPU to the queued victim and the
    interrupt lands later in the same instant: the victim gives back the
    CPU it was handed, and the sleep it abandoned never fires."""
    ctx = make_ctx(sim)
    log = []

    def holder():
        yield ctx.charge("h", 10.0)

    def queued():
        try:
            yield ctx.charge("q", 5.0)
        except Interrupt:
            log.append(("interrupted", sim.now))
        yield Timeout(20.0)
        log.append(("woke", sim.now))

    sim.spawn(holder())
    victim = sim.spawn(queued())

    def killer():
        yield Timeout(10.0)  # due with the holder's fire, and behind it
        victim.interrupt()

    sim.spawn(killer())
    sim.run()
    assert log == [("interrupted", 10.0), ("woke", 30.0)]
    assert ctx.cpu.charge_count == 1
    assert not ctx.cpu._sched.locked


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


# ----------------------------------------------------------------------
# Differential test: the charge path against its plain subgenerator form
# ----------------------------------------------------------------------

# Small integer-ish costs and instants make ties (a grant, a fire and an
# interrupt landing at one instant) common, which is where a renege can
# leak the CPU or hand it to a ghost.
_step = st.tuples(
    st.integers(0, 4),  # priority
    st.sampled_from("abc"),  # layer
    st.sampled_from((0, 0.5, 1, 2, 3, 7)),  # cost
    st.one_of(st.none(), st.sampled_from((0, 1, 2, 5))),  # pause first
)
_scenario = st.tuples(
    st.lists(st.lists(_step, min_size=1, max_size=8), min_size=1, max_size=4),
    # (victim, gap): an interrupter sleeps ``gap`` then interrupts.
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 20)), max_size=3),
)


def _charge_step(sim, cpu, ledger, contexts, priority, layer, cost):
    ctx = contexts.get(priority)
    if ctx is None:
        ctx = contexts[priority] = ExecutionContext(
            sim, cpu, priority=priority, accounting=ledger)
    yield ctx.charge(layer, cost)


def _reference_step(sim, cpu, ledger, contexts, priority, layer, cost):
    yield from cpu.execute(cost, priority,
                           account=partial(ledger.add, layer))


def _script(sim, cpu, ledger, name, steps, log, run_step):
    contexts = {}
    for priority, layer, cost, pause in steps:
        try:
            if pause is not None:
                yield Timeout(pause)
            yield from run_step(sim, cpu, ledger, contexts, priority,
                                layer, cost)
        except Interrupt:
            log.append((name, "interrupted", sim.now, cpu.contention()))
            continue
        log.append((name, "done", sim.now, cpu.contention()))


def _interrupter(procs, interrupts):
    # Sleeping in a process (not call_at at setup) puts each interrupt's
    # timer behind the charge timers pushed before it, so an interrupt
    # can land after a release handed the CPU to its victim.
    for victim, gap in interrupts:
        yield Timeout(gap)
        proc = procs[victim % len(procs)]
        if proc.alive:
            proc.interrupt()


def _play(scenario, reference):
    scripts, interrupts = scenario
    sim = Simulator()
    if reference:
        cpu, run_step = ReferenceCPU(sim), _reference_step
    else:
        cpu, run_step = CPU(sim, DECSTATION_5000_200), _charge_step
    log = []
    ledgers = [LayerAccounting() for _ in scripts]
    procs = [
        sim.spawn(_script(sim, cpu, ledger, "p%d" % n, steps, log, run_step),
                  name="p%d" % n)
        for n, (ledger, steps) in enumerate(zip(ledgers, scripts))
    ]
    sim.spawn(_interrupter(procs, interrupts), name="interrupter")
    sim.run()
    return (log, cpu.busy_time, cpu.charge_count,
            [(dict(ledger.totals), dict(ledger.counts)) for ledger in ledgers],
            cpu.contention())


@settings(max_examples=500, deadline=None)
@given(_scenario)
def test_charge_path_matches_reference_subgenerator(scenario):
    """Charges through ctx.charge finish, get interrupted,
    and bill exactly as the same scripts through a plain subgenerator
    that acquires an event-waiter priority lock, sleeps and releases."""
    assert _play(scenario, reference=False) == _play(scenario, reference=True)
