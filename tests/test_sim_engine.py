"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim import Deadlock, Simulator, Timeout
from repro.sim.errors import SimulationError


def test_clock_starts_at_zero(sim):
    assert sim.now == 0.0


def test_call_later_ordering(sim):
    order = []
    sim.call_later(10, order.append, "b")
    sim.call_later(5, order.append, "a")
    sim.call_later(10, order.append, "c")  # same time: FIFO
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == 10


def test_timer_ties_break_by_when_the_timer_was_set(sim):
    def record(log, tag, delays):
        for delay in delays:
            yield Timeout(delay)
            log.append((sim.now, tag))

    log = []
    # Distinct deadlines and same-instant ties (t = 2.5 twice, four
    # timers at t = 10 spawned out of tag order, a pair landing on the
    # far-future t = 1e6).
    sim.spawn(record(log, "a", [1.0, 1.5, 7.5, 90.0, 999_900.0]))
    sim.spawn(record(log, "b", [1.5, 1.0, 7.5, 89.0, 2e6]))
    sim.spawn(record(log, "d", [10.0, 999_990.0]))
    sim.spawn(record(log, "c", [10.0]))
    sim.run()
    assert [when for when, _tag in log] == sorted(when for when, _tag in log)
    # Ties break by insertion sequence — when the timer was set — not
    # by tag or spawn order: "d" and "c" set theirs at t = 0.
    assert [tag for when, tag in log if when == 10.0] == ["d", "c", "a", "b"]
    assert [tag for when, tag in log if when == 1e6] == ["d", "a"]


def test_call_at_past_raises(sim):
    sim.call_later(10, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.call_at(5, lambda: None)


def test_run_until_bounds_clock(sim):
    hits = []
    sim.call_later(100, hits.append, 1)
    sim.call_later(200, hits.append, 2)
    sim.run(until=150)
    assert hits == [1]
    assert sim.now == 150
    sim.run()
    assert hits == [1, 2]


def test_run_until_in_past_raises(sim):
    sim.call_later(100, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.run(until=50)


def test_timeout_event_fires_with_value(sim):
    ev = sim.timeout(25, value="tick")
    sim.run()
    assert ev.triggered and ev.ok
    assert ev.value == "tick"


def test_negative_timeout_raises(sim):
    with pytest.raises(ValueError):
        sim.timeout(-1)


def test_run_process_returns_value(sim):
    def proc():
        yield Timeout(5)
        return 42

    assert sim.run_process(proc()) == 42
    assert sim.now == 5


def test_run_process_propagates_exception(sim):
    def proc():
        yield Timeout(1)
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError, match="boom"):
        sim.run_process(proc())


def test_run_process_stops_despite_background_work(sim):
    """A perpetual background process must not hang run_process."""

    def background():
        while True:
            yield Timeout(10)

    def worker():
        yield Timeout(35)
        return "done"

    sim.spawn(background())
    assert sim.run_process(worker()) == "done"
    assert sim.now == 35


def test_run_process_deadlock(sim):
    def stuck():
        yield sim.event()  # never triggered

    with pytest.raises(Deadlock):
        sim.run_process(stuck())


def test_run_all_collects_in_order(sim):
    def make(delay, value):
        def proc():
            yield Timeout(delay)
            return value

        return proc()

    values = sim.run_all([make(30, "late"), make(10, "early")])
    assert values == ["late", "early"]


def test_deadlock_detection_flag(sim):
    sim.spawn(iter([]).__iter__ and (x for x in []))  # trivial finished gen

    def stuck():
        yield sim.event()

    sim.spawn(stuck())
    with pytest.raises(Deadlock):
        sim.run(detect_deadlock=True)


def test_deadlock_report_lists_same_named_processes_in_spawn_order(sim):
    events = [sim.event(name="e%02d" % i) for i in range(30)]

    def stuck(event):
        yield event

    for event in events:
        sim.spawn(stuck(event), name="w")
    with pytest.raises(Deadlock) as info:
        sim.run(detect_deadlock=True)
    assert list(info.value.blocked) == [
        ("w", "<Event e%02d pending>" % i) for i in range(30)]


def test_step_returns_false_when_empty(sim):
    assert sim.step() is False


def test_sleep_helper(sim):
    def proc():
        yield from sim.sleep(12.5)
        return sim.now

    assert sim.run_process(proc()) == 12.5


def test_determinism_two_identical_runs():
    def trace_run():
        s = Simulator()
        log = []

        def worker(name, period):
            for _ in range(5):
                yield Timeout(period)
                log.append((s.now, name))

        s.spawn(worker("a", 3.0))
        s.spawn(worker("b", 3.0))
        s.run()
        return log

    assert trace_run() == trace_run()


def test_event_double_trigger_raises(sim):
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)
