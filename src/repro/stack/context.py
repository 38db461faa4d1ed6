"""The execution context: where (and how expensively) protocol code runs.

An :class:`ExecutionContext` binds the shared protocol engine to one
placement: it knows which CPU to charge, at what scheduling priority, with
which synchronization package (lightweight locks in the kernel and the
protocol library; the simulated-spl machinery in the UX server), and which
:class:`~repro.stack.instrument.LayerAccounting` to attribute costs to.
"""

from repro.hw.cpu import Priority
from repro.sim.process import Charge
from repro.sim.sync import Condition, Lock
from repro.stack.instrument import CrossingCounter, LayerAccounting


class LockPackage:
    """Cost model of a synchronization package.

    The paper attributes the UX server's slow tcp_output/mbuf/wakeup paths
    to its "priority levels and locks" machinery, later replaced with
    lighter-weight versions (footnote 4).  ``lock_cost`` is charged per
    protocol-entry synchronization; ``wakeup_cost`` per thread wakeup.
    """

    def __init__(self, name, lock_cost, wakeup_cost):
        self.name = name
        self.lock_cost = lock_cost
        self.wakeup_cost = wakeup_cost


def light_locks(params):
    """The library/kernel lightweight package."""
    return LockPackage("light", params.lock_light, params.wakeup_light)


def spl_locks(params):
    """The UX server's simulated-spl package."""
    return LockPackage("spl", params.lock_spl, params.wakeup_spl)


class ExecutionContext:
    """Everything the protocol engine needs to run in one placement."""

    def __init__(self, sim, cpu, priority=Priority.APPLICATION,
                 locks=None, accounting=None, crossings=None, name=""):
        self.sim = sim
        self.cpu = cpu
        self.params = cpu.params
        self.priority = priority
        self.locks = locks if locks is not None else light_locks(cpu.params)
        self.accounting = accounting if accounting is not None else LayerAccounting()
        self.crossings = crossings if crossings is not None else CrossingCounter()
        self.name = name
        #: Charges are immutable (the per-execution state lives in the
        #: Process), so identical requests — and protocol costs repeat
        #: constantly — can share one object instead of reallocating.
        #: Keys are ``(layer, cost)`` for singles and the pairs tuple
        #: for batches; the shapes cannot collide.
        self._charge_cache = {}

    # ------------------------------------------------------------------
    # Charging helpers.  Each returns a :class:`~repro.sim.process.Charge`
    # request that the process machinery executes directly:
    # ``yield ctx.charge(...)``.  Side effects such as crossing counts
    # happen at call time, which is indistinguishable from the
    # simulation's point of view because callers always yield the charge
    # immediately.
    # ------------------------------------------------------------------

    def charge(self, layer, cost):
        """Charge ``cost`` microseconds attributed to ``layer``.

        Cache hits use ``in`` + subscript rather than ``dict.get``:
        both run as bytecode, not as a method call, and this is the
        hottest lookup in the simulator.
        """
        cache = self._charge_cache
        key = (layer, cost)
        if key in cache:
            return cache[key]
        charge = cache[key] = Charge(
            self.cpu, self.priority, self.accounting, ((layer, cost),)
        )
        return charge

    def charge_batch(self, charges):
        """Charge several ``(layer, cost)`` pairs back to back.

        Each pair keeps its own CPU acquire/release point, so scheduling
        (and therefore every simulated metric) is identical to issuing
        the charges one ``charge()`` at a time — only the Python
        overhead between the pairs is fused away.
        """
        cache = self._charge_cache
        if charges in cache:
            return cache[charges]
        charge = cache[charges] = Charge(
            self.cpu, self.priority, self.accounting, charges
        )
        return charge

    def charge_copy(self, layer, nbytes):
        """A main-memory copy of ``nbytes``."""
        p = self.params
        self.crossings.data_copies += 1
        return self.charge(layer, p.copy_fixed + p.copy_per_byte * nbytes)

    def charge_checksum(self, layer, nbytes):
        p = self.params
        return self.charge(
            layer, p.checksum_fixed + p.checksum_per_byte * nbytes
        )

    def charge_lock(self, layer):
        """One protocol-entry synchronization (package-dependent cost)."""
        return self.charge(layer, self.locks.lock_cost)

    def charge_wakeup(self, layer):
        """Waking a blocked thread (package-dependent cost)."""
        return self.charge(layer, self.locks.wakeup_cost)

    def charge_boundary_crossing(self, layer):
        """A user/kernel protection boundary crossing (trap or return)."""
        self.crossings.user_kernel += 1
        return self.charge(layer, self.params.trap)

    # ------------------------------------------------------------------
    # Synchronization objects in this context
    # ------------------------------------------------------------------

    def lock(self, name=""):
        return Lock(self.sim, name="%s.%s" % (self.name, name))

    def condition(self, lock=None, name=""):
        return Condition(self.sim, lock, name="%s.%s" % (self.name, name))

    def __repr__(self):
        return "<ExecutionContext %s prio=%d locks=%s>" % (
            self.name,
            self.priority,
            self.locks.name,
        )
