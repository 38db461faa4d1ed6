"""The marker class that opts a world into the O(1) per-host structures."""

from repro.sim.engine import Simulator


class ScaleSimulator(Simulator):
    """The one switch between the 1993 per-host structures and their
    O(1) replacements; the event loop is the base class's, unchanged.

    The type is read in exactly two places:

    * :class:`~repro.kernel.kernel.Kernel` indexes installed packet
      filters by ``demux_key`` instead of running the whole install
      list against every arriving frame;
    * :class:`~repro.stack.engine.NetworkStack` ticks only its *armed*
      sessions instead of every session on every TCP timer tick.

    Either one alone moves ``BENCH.json`` (the linear filter scan is
    charged per program run, and a parked session is re-armed with its
    skipped ticks credited rather than ticked one by one), so they are
    a choice of simulated cost model, not of engine: the two-host
    worlds behind ``benchmarks/baseline.json`` stay on the plain
    :class:`Simulator`, and :class:`~repro.world.topology.World`
    defaults to this class.
    """
