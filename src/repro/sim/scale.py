"""The marker class that opts a world into the indexed packet-filter demux."""

from repro.sim.engine import Simulator


class ScaleSimulator(Simulator):
    """The one switch between the 1993 linear packet-filter scan and its
    O(1) replacement; the event loop is the base class's, unchanged.

    The type is read in exactly one place:
    :class:`~repro.kernel.kernel.Kernel` indexes installed packet filters
    by ``demux_key`` instead of running the whole install list against
    every arriving frame.  Everything else — the TCP timer pass over
    every session included — is the same code on both classes.

    The index moves ``BENCH.json`` (the linear filter scan is charged per
    program run), so it is a choice of simulated cost model, not of
    engine: the two-host worlds behind ``benchmarks/baseline.json`` stay
    on the plain :class:`Simulator`, and
    :class:`~repro.world.topology.World` defaults to this class.
    """
