"""Per-layer latency accounting — the instrumentation behind Table 4.

The paper determined "the time spent in the various protocol layers using
a high-resolution timer"; we accumulate the simulated CPU charges instead,
attributed to the same layer names the paper reports.
"""

from collections import defaultdict


class Layer:
    """Table 4's component names."""

    # Send path.
    ENTRY_COPYIN = "entry/copyin"
    TCP_UDP_OUTPUT = "tcp,udp_output"
    IP_OUTPUT = "ip_output"
    ETHER_OUTPUT = "ether_output"

    # Receive path.
    DEVICE_READ = "device intr/read"
    NETISR_FILTER = "netisr/packet filter"
    KERNEL_COPYOUT = "kernel copyout"
    MBUF_QUEUE = "mbuf/queue"
    IPINTR = "ipintr"
    TCP_UDP_INPUT = "tcp,udp_input"
    WAKEUP_USER = "wakeup user thread"
    COPYOUT_EXIT = "copyout/exit"

    SEND_PATH = (ENTRY_COPYIN, TCP_UDP_OUTPUT, IP_OUTPUT, ETHER_OUTPUT)
    RECEIVE_PATH = (
        DEVICE_READ,
        NETISR_FILTER,
        KERNEL_COPYOUT,
        MBUF_QUEUE,
        IPINTR,
        TCP_UDP_INPUT,
        WAKEUP_USER,
        COPYOUT_EXIT,
    )

    #: Components that involve a protection boundary crossing per
    #: placement, marked with asterisks in the paper's Table 4.
    ALL = SEND_PATH + RECEIVE_PATH


class LayerAccounting:
    """Accumulates simulated CPU time per protocol layer.

    A ledger can additionally mirror every charge into a per-packet
    :class:`~repro.trace.recorder.TraceRecorder` by setting ``tracer``
    (and an ``owner`` label identifying this ledger in the span stream).
    The hook lives here — not in :class:`ExecutionContext` — because some
    kernel paths attribute costs by calling :meth:`add` directly.
    """

    __slots__ = ("totals", "counts", "tracer", "owner")

    def __init__(self):
        self.totals = defaultdict(float)
        self.counts = defaultdict(int)
        self.tracer = None
        self.owner = ""

    def add(self, layer, cost):
        self.totals[layer] += cost
        self.counts[layer] += 1
        tracer = self.tracer
        # Check .enabled here so a disabled recorder costs nothing
        # beyond the attribute test (it would return immediately anyway).
        if tracer is not None and tracer.enabled:
            tracer.record(self.owner, layer, cost)

    def total(self, layer):
        return self.totals.get(layer, 0.0)

    def mean(self, layer, per=None):
        """Average cost per occurrence (or per ``per`` explicit events)."""
        denom = per if per is not None else self.counts.get(layer, 0)
        if not denom:
            return 0.0
        return self.totals.get(layer, 0.0) / denom

    def reset(self):
        self.totals.clear()
        self.counts.clear()

    def snapshot(self):
        return dict(self.totals)


class CrossingCounter:
    """Counts protection-boundary crossings and OS-server interactions.

    This is the quantitative version of Figure 1: on the send/receive
    fast path, the library placement crosses the user/kernel boundary
    once each way and never talks to the OS server.
    """

    __slots__ = ("user_kernel", "server_rpcs", "data_copies")

    def __init__(self):
        self.user_kernel = 0
        self.server_rpcs = 0
        self.data_copies = 0

    def reset(self):
        self.user_kernel = 0
        self.server_rpcs = 0
        self.data_copies = 0

    def snapshot(self):
        return {
            "user_kernel_crossings": self.user_kernel,
            "server_rpcs": self.server_rpcs,
            "data_copies": self.data_copies,
        }
