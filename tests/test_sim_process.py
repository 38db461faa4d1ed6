"""Process semantics: joins, interrupts, failures, stale wakeups."""

import pytest

from repro.sim import Interrupt, Simulator, Timeout
from repro.sim.errors import SimulationError


def test_join_returns_value(sim):
    def child():
        yield Timeout(10)
        return "child-value"

    def parent():
        proc = sim.spawn(child())
        value = yield proc
        return value

    assert sim.run_process(parent()) == "child-value"


def test_join_already_finished_process(sim):
    def child():
        yield Timeout(1)
        return 7

    def parent():
        proc = sim.spawn(child())
        yield Timeout(50)  # child long finished
        value = yield proc
        return value

    assert sim.run_process(parent()) == 7


def test_child_failure_propagates_to_joiner(sim):
    def child():
        yield Timeout(1)
        raise ValueError("inner")

    def parent():
        proc = sim.spawn(child())
        try:
            yield proc
        except ValueError as exc:
            return "caught %s" % exc
        return "not caught"

    assert sim.run_process(parent()) == "caught inner"


def test_interrupt_wakes_with_cause(sim):
    def sleeper():
        try:
            yield Timeout(1000)
        except Interrupt as intr:
            return ("interrupted", intr.cause, sim.now)
        return "slept"

    proc = sim.spawn(sleeper())

    def interrupter():
        yield Timeout(10)
        proc.interrupt("wake up")

    sim.spawn(interrupter())
    sim.run()
    assert proc.value == ("interrupted", "wake up", 10)


def test_interrupt_stale_timeout_is_ignored(sim):
    """The abandoned Timeout must not resume the process later."""
    resumes = []

    def sleeper():
        try:
            yield Timeout(100)
        except Interrupt:
            pass
        resumes.append(sim.now)
        yield Timeout(5)
        resumes.append(sim.now)

    proc = sim.spawn(sleeper())
    sim.call_later(10, proc.interrupt)
    sim.run()
    assert resumes == [10, 15]  # not resumed again at t=100


def test_interrupt_finished_process_raises(sim):
    def quick():
        return "done"
        yield  # pragma: no cover

    proc = sim.spawn(quick())
    sim.run()
    with pytest.raises(SimulationError):
        proc.interrupt()


def test_yielding_garbage_fails_process(sim):
    def bad():
        yield 42

    proc = sim.spawn(bad())
    sim.run()
    assert proc.triggered and not proc.ok
    assert isinstance(proc.value, SimulationError)


def test_spawn_requires_generator(sim):
    def not_a_generator():
        return 1

    with pytest.raises(TypeError):
        sim.spawn(not_a_generator)


def test_process_alive_flag(sim):
    def worker():
        yield Timeout(10)

    proc = sim.spawn(worker())
    assert proc.alive
    sim.run()
    assert not proc.alive


def test_immediate_return_process(sim):
    def instant():
        return "now"
        yield  # pragma: no cover

    assert sim.run_process(instant()) == "now"


def test_two_interrupts_at_one_instant_deliver_the_second(sim):
    """The second interrupt replaces the first's wait token, so only
    one Interrupt is thrown, carrying the second cause."""
    log = []

    def sleeper():
        try:
            yield Timeout(1000)
        except Interrupt as intr:
            log.append(("intr", intr.cause, sim.now))
        yield Timeout(100)
        log.append(("woke", sim.now))

    proc = sim.spawn(sleeper())

    def interrupter():
        yield Timeout(10)
        proc.interrupt("first")
        proc.interrupt("second")

    sim.spawn(interrupter())
    sim.run()
    assert log == [("intr", "second", 10.0), ("woke", 110.0)]


def test_rewait_on_the_abandoned_deadline_resumes_once(sim):
    """Interrupted at t=10, the process sleeps to t=100 again: the
    abandoned timeout's fire lands at the same instant and stays dead."""
    resumes = []

    def sleeper():
        try:
            yield Timeout(100)
        except Interrupt:
            pass
        yield Timeout(90)
        resumes.append(sim.now)
        yield Timeout(1000)
        resumes.append(sim.now)

    proc = sim.spawn(sleeper())
    sim.call_later(10, proc.interrupt)
    sim.run()
    assert resumes == [100.0, 1100.0]


def test_interrupting_itself_is_a_no_op(sim):
    """The running process waits on nothing, so there is nothing to
    abandon: its next wait runs out as if no interrupt was made."""
    def selfish():
        sim.current.interrupt("ignored")
        yield Timeout(5)
        return sim.now

    assert sim.run_process(selfish()) == 5.0
