"""One-shot events.

An :class:`Event` is the fundamental blocking primitive: processes yield an
event to suspend until it is triggered.  Events fire exactly once, either
successfully (carrying a value) or with a failure (carrying an exception
that is re-raised inside every waiter).
"""

from repro.sim.errors import SimulationError

PENDING = "pending"
SUCCEEDED = "succeeded"
FAILED = "failed"


class Event:
    """A one-shot event that processes can wait on.

    Events are created against a simulator.  Triggering an event schedules
    its callbacks to run at the current simulated time (not synchronously),
    which keeps the engine's semantics simple and deterministic.
    """

    __slots__ = ("_sim", "_state", "_value", "callbacks", "name")

    def __init__(self, sim, name=""):
        self._sim = sim
        self._state = PENDING
        self._value = None
        self.callbacks = []
        self.name = name

    @property
    def triggered(self):
        """True once the event has fired (successfully or not)."""
        return self._state != PENDING

    @property
    def ok(self):
        """True if the event fired successfully."""
        return self._state == SUCCEEDED

    @property
    def value(self):
        """The value the event fired with.

        For failed events this is the exception object.  Accessing the
        value of a pending event is an error.
        """
        if self._state == PENDING:
            raise SimulationError("value of %r is not yet available" % self)
        return self._value

    def succeed(self, value=None):
        """Fire the event successfully, waking all waiters with ``value``."""
        if self._state != PENDING:
            raise SimulationError("%r has already been triggered" % self)
        self._state = SUCCEEDED
        self._value = value
        # Dispatch happens at the current time, so it rides the ready
        # deque and never touches the heap.
        self._sim._ready.append((None, self))
        return self

    def fail(self, exception):
        """Fire the event with an exception, re-raised in every waiter."""
        if self._state != PENDING:
            raise SimulationError("%r has already been triggered" % self)
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._state = FAILED
        self._value = exception
        self._sim._ready.append((None, self))
        return self

    def add_callback(self, callback):
        """Register ``callback(event)``; runs immediately if already fired."""
        if self._state != PENDING and self.callbacks is None:
            # Already dispatched: run the callback right away via the queue
            # so ordering stays deterministic.
            self._sim.call_soon(callback, self)
        else:
            self.callbacks.append(callback)

    def __repr__(self):
        label = self.name or hex(id(self))
        return "<Event %s %s>" % (label, self._state)


def any_of(sim, events):
    """An event that fires when the first of ``events`` fires.

    The combined event's value is the (event, value) pair of the winner.
    Later firings of the other events are ignored.
    """
    if not events:
        raise ValueError("any_of needs at least one event")
    combined = Event(sim, name="any_of")

    def relay(event):
        if not combined.triggered:
            if event.ok:
                combined.succeed((event, event.value))
            else:
                combined.fail(event.value)

    for event in events:
        event.add_callback(relay)
    return combined
