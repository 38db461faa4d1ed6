"""Named protocol configurations matching the rows of Tables 2 and 3.

Each :class:`PlacementSpec` describes one system the paper measured: the
protocol placement style, the kernel packet-filter interface, the socket
API variant, a CPU scale factor (the comparison systems share hardware but
differ in code quality), and the best receive-buffer size the paper found
for it.  :func:`build_network` assembles a two-host testbed for a spec.
"""

from dataclasses import dataclass

from repro.hw.nic import ETHERLINK_3C503, LANCE
from repro.hw.platforms import DECSTATION_5000_200, GATEWAY_486
from repro.stack.instrument import LayerAccounting
from repro.world.network import Network
from repro.core.library import PF_IPC, PF_SHM, PF_SHM_IPF, ProtocolLibrary
from repro.core.proxy import ProxySocketAPI
from repro.osserver.inkernel import InKernelNetwork
from repro.osserver.netserver import NetServer
from repro.osserver.unix_server import UnixServer

STYLE_KERNEL = "kernel"
STYLE_SERVER = "server"
STYLE_LIBRARY = "library"


@dataclass(frozen=True)
class PlacementSpec:
    """One measured system configuration."""

    key: str
    label: str
    style: str
    pf_variant: str = PF_SHM  # library placements only
    shared_buffers: bool = False  # the NEWAPI socket interface (§4.2)
    heavyweight_sync: bool = True  # server placements: spl vs light locks
    cpu_scale: float = 1.0  # code-quality factor vs the reference system
    integrated_filter: bool = False  # kernel built with the IPF
    best_rcvbuf_kb: int = 24  # the paper's per-system best buffer size


#: Table 2 and Table 3 rows.  The paper's numbers for them are in
#: :mod:`repro.analysis.paper`, keyed by platform.
CONFIGS = {
    "mach25": PlacementSpec(
        key="mach25",
        label="Mach 2.5 In-Kernel",
        style=STYLE_KERNEL,
        best_rcvbuf_kb=24,
    ),
    "ultrix": PlacementSpec(
        key="ultrix",
        label="Ultrix 4.2A In-Kernel",
        style=STYLE_KERNEL,
        cpu_scale=1.07,
        best_rcvbuf_kb=16,
    ),
    "386bsd": PlacementSpec(
        key="386bsd",
        label="386BSD In-Kernel",
        style=STYLE_KERNEL,
        # The paper blames 386BSD's interrupt handling and scheduling for
        # latencies worse than Mach 2.5 on the same hardware.
        cpu_scale=1.30,
        best_rcvbuf_kb=8,
    ),
    "ux": PlacementSpec(
        key="ux",
        label="Mach 3.0+UX Server",
        style=STYLE_SERVER,
        heavyweight_sync=True,
        best_rcvbuf_kb=24,
    ),
    "bnr2ss": PlacementSpec(
        key="bnr2ss",
        label="Mach 3.0+BNR2SS Server",
        style=STYLE_SERVER,
        heavyweight_sync=True,
        cpu_scale=1.06,
        best_rcvbuf_kb=112,
    ),
    "library-ipc": PlacementSpec(
        key="library-ipc",
        label="Mach 3.0+UX Library-IPC",
        style=STYLE_LIBRARY,
        pf_variant=PF_IPC,
        best_rcvbuf_kb=24,
    ),
    "library-shm": PlacementSpec(
        key="library-shm",
        label="Mach 3.0+UX Library-SHM",
        style=STYLE_LIBRARY,
        pf_variant=PF_SHM,
        best_rcvbuf_kb=120,
    ),
    "library-shm-ipf": PlacementSpec(
        key="library-shm-ipf",
        label="Mach 3.0+UX Library-SHM-IPF",
        style=STYLE_LIBRARY,
        pf_variant=PF_SHM_IPF,
        integrated_filter=True,
        best_rcvbuf_kb=120,
    ),
    # Table 3: the NEWAPI shared-buffer socket interface.
    "library-newapi-ipc": PlacementSpec(
        key="library-newapi-ipc",
        label="Mach 3.0+UX Library-NEWAPI-IPC",
        style=STYLE_LIBRARY,
        pf_variant=PF_IPC,
        shared_buffers=True,
        best_rcvbuf_kb=24,
    ),
    "library-newapi-shm": PlacementSpec(
        key="library-newapi-shm",
        label="Mach 3.0+UX Library-NEWAPI-SHM",
        style=STYLE_LIBRARY,
        pf_variant=PF_SHM,
        shared_buffers=True,
        best_rcvbuf_kb=120,
    ),
    "library-newapi-shm-ipf": PlacementSpec(
        key="library-newapi-shm-ipf",
        label="Mach 3.0+UX Library-NEWAPI-SHM-IPF",
        style=STYLE_LIBRARY,
        pf_variant=PF_SHM_IPF,
        shared_buffers=True,
        integrated_filter=True,
        best_rcvbuf_kb=120,
    ),
}

CONFIG_NAMES = tuple(CONFIGS)

#: The Table 2 row sets per platform (386BSD/BNR2SS exist on the Gateway,
#: Ultrix on the DECstation, as in the paper's footnote 3).
DECSTATION_ROWS = (
    "mach25", "ultrix", "ux", "library-ipc", "library-shm", "library-shm-ipf",
)
GATEWAY_ROWS = (
    "mach25", "386bsd", "ux", "bnr2ss", "library-ipc", "library-shm",
)


class Placement:
    """A spec instantiated on one host: hands out socket APIs to apps."""

    def __init__(self, spec, host, tcp_defaults=None):
        self.spec = spec
        self.host = host
        self.accounting = LayerAccounting()
        # Mirror this placement's charges into the network's per-packet
        # trace recorder (a no-op until someone enables it).  The owner
        # label identifies this ledger in the span stream.
        self.accounting.tracer = host.tracer
        self.accounting.owner = "%s:%s" % (host.name, spec.key)
        self.tcp_defaults = tcp_defaults or {}
        if spec.style == STYLE_KERNEL:
            self._backend = InKernelNetwork(
                host, accounting=self.accounting, tcp_defaults=self.tcp_defaults
            )
        elif spec.style == STYLE_SERVER:
            self._backend = UnixServer(
                host,
                accounting=self.accounting,
                tcp_defaults=self.tcp_defaults,
                heavyweight_sync=spec.heavyweight_sync,
            )
        elif spec.style == STYLE_LIBRARY:
            self._backend = NetServer(
                host,
                tcp_defaults=self.tcp_defaults,
                heavyweight_sync=spec.heavyweight_sync,
            )
            # The OS server keeps its own ledger (management traffic);
            # trace it under a distinct owner so packet timelines show
            # server-side work separately from the app library's.
            self._backend.accounting.tracer = host.tracer
            self._backend.accounting.owner = "%s:%s.netserver" % (
                host.name, spec.key)
        else:
            raise ValueError("unknown placement style %r" % spec.style)

    @property
    def server(self):
        """The OS server backend (library placements only)."""
        return self._backend

    def new_app(self, name=None):
        """A socket API for one application process on this host."""
        if self.spec.style in (STYLE_KERNEL, STYLE_SERVER):
            return self._backend.sockets()
        library = ProtocolLibrary(
            self.host,
            self._backend.rpc,
            pf_variant=self.spec.pf_variant,
            shared_buffers=self.spec.shared_buffers,
            accounting=self.accounting,
            tcp_defaults=self.tcp_defaults,
            name=name,
        )
        self._backend.register_app(library)

        return ProxySocketAPI(library, self._backend,
                              fork_factory=self.new_app)


def make_placement(spec_or_key, host, tcp_defaults=None):
    spec = CONFIGS[spec_or_key] if isinstance(spec_or_key, str) else spec_or_key
    return Placement(spec, host, tcp_defaults=tcp_defaults)


def build_network(config_key, platform="decstation", tcp_defaults=None,
                  sim=None, propagation_us=0.0, fault_plan=None):
    """A two-host testbed running one configuration: a :data:`CONFIGS`
    key or a :class:`PlacementSpec`.

    Returns ``(network, placement_a, placement_b)`` with hosts at
    10.0.0.1 and 10.0.0.2 on a private 10 Mb/s Ethernet, as in the
    paper's measurement setup.  ``fault_plan`` installs a
    :class:`repro.faults.FaultPlan` pipeline on the wire.
    """
    spec = CONFIGS[config_key] if isinstance(config_key, str) else config_key
    if platform == "decstation":
        params = DECSTATION_5000_200
        nic_model = LANCE
    elif platform == "gateway":
        params = GATEWAY_486
        nic_model = ETHERLINK_3C503
    else:
        raise ValueError("unknown platform %r" % platform)
    if spec.cpu_scale != 1.0:
        params = params.scaled(spec.cpu_scale)
    network = Network(sim=sim, propagation_us=propagation_us,
                      fault_plan=fault_plan)
    placements = []
    for i, addr in enumerate(("10.0.0.1", "10.0.0.2")):
        host = network.add_host(
            addr,
            params,
            name="%s%d" % (platform, i + 1),
            nic_model=nic_model,
            integrated_filter=spec.integrated_filter,
        )
        placements.append(make_placement(spec, host, tcp_defaults=tcp_defaults))
    return network, placements[0], placements[1]
