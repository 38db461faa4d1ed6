"""Discrete-event simulation engine.

This package provides the substrate on which the simulated Mach hosts,
network hardware, and protocol code run.  It is deliberately minimal and
dependency-free: a simulator with a virtual clock (microseconds, as a
float), generator-based coroutine processes, one-shot events, and the
synchronization primitives (locks, condition variables, channels) that the
protocol implementations need.

The programming model follows the classic process-interaction style:

    def worker(sim):
        yield Timeout(10.0)          # advance simulated time
        yield some_event             # block until the event fires
        result = yield other_proc    # join another process

    sim = Simulator()
    sim.spawn(worker(sim))
    sim.run()
"""

from repro.sim.engine import Simulator
from repro.sim.events import Event
from repro.sim.process import Process, Timeout
from repro.sim.sync import Channel, Condition, Lock, PriorityLock
from repro.sim.errors import Deadlock, Interrupt, SimulationError

__all__ = [
    "Simulator",
    "Event",
    "Process",
    "Timeout",
    "Lock",
    "PriorityLock",
    "Condition",
    "Channel",
    "SimulationError",
    "Interrupt",
    "Deadlock",
]
