"""A network: one Ethernet segment plus the hosts attached to it."""

from repro.hw.nic import LANCE
from repro.hw.wire import EthernetWire
from repro.metrics import MetricsRegistry
from repro.sim.engine import Simulator
from repro.trace import TraceRecorder
from repro.world.host import Host


class Network:
    """An Ethernet segment with helper construction for hosts.

    Every network carries a :class:`~repro.trace.TraceRecorder`
    (``net.tracer``), disabled by default; ``net.tracer.enable()`` turns
    on per-packet span recording across all hosts and placements.  It
    likewise carries a :class:`~repro.metrics.MetricsRegistry`
    (``net.metrics``), disabled by default; ``net.metrics.enable()``
    turns on continuous telemetry (tcp_probe time series, queue-depth
    gauges, resource utilization) without perturbing the simulation.
    """

    def __init__(self, sim=None, name="ether0", propagation_us=0.0,
                 fault_plan=None):
        self.sim = sim if sim is not None else Simulator()
        self.tracer = TraceRecorder(self.sim)
        self.metrics = MetricsRegistry(self.sim)
        self.wire = EthernetWire(
            self.sim, name=name, propagation_us=propagation_us,
            fault_plan=fault_plan,
        )
        self.metrics.observe_wire(self.wire)
        self.hosts = []

    def add_host(self, ip_addr, platform, name=None, nic_model=LANCE,
                 integrated_filter=False):
        host = Host(
            self.sim,
            self.wire,
            ip_addr,
            platform,
            name=name or ("host%d" % (len(self.hosts) + 1)),
            nic_model=nic_model,
            integrated_filter=integrated_filter,
            tracer=self.tracer,
            metrics=self.metrics,
        )
        self.hosts.append(host)
        return host

    def run(self, until=None):
        self.sim.run(until=until)

    def run_all(self, generators, until=None):
        return self.sim.run_all(generators, until=until)
