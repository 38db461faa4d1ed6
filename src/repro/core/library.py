"""The user-level protocol library (the heart of the paper).

A :class:`ProtocolLibrary` lives in one application's address space.  It
runs the same protocol engine as the kernel and server placements, but at
user level: data moves between the application and the network with one
kernel crossing per direction and no operating-system-server involvement.

Input arrives per session through whichever kernel packet-filter
interface the configuration selects (Section 4.1):

* ``"ipc"`` — a Mach message per packet,
* ``"shm"`` — a shared-memory ring with condition-variable signalling,
* ``"shm_ipf"`` — the same ring fed by the integrated packet filter
  (the kernel must be built with ``integrated_filter=True``).

The library is multithreaded, as in the paper: a dedicated input thread
per session's packet-filter port plus the engine's timer thread.
"""

from repro.hw.cpu import Priority
from repro.kernel.ipc import MessagePort
from repro.kernel.kernel import IPCDelivery, SHMDelivery
from repro.mem.shm import SharedPacketRing
from repro.stack.context import ExecutionContext, light_locks
from repro.stack.engine import NetEnv, NetworkStack
from repro.stack.instrument import Layer, LayerAccounting
from repro.trace import adopt_trace, frame_trace
from repro.core.metastate import MetastateCache

PF_IPC = "ipc"
PF_SHM = "shm"
PF_SHM_IPF = "shm_ipf"

PF_VARIANTS = (PF_IPC, PF_SHM, PF_SHM_IPF)


class ProtocolLibrary:
    """One application's protocol library."""

    def __init__(self, host, server_rpc, pf_variant=PF_SHM_IPF,
                 shared_buffers=False, accounting=None, tcp_defaults=None,
                 name=None):
        if pf_variant not in PF_VARIANTS:
            raise ValueError("unknown packet filter variant %r" % pf_variant)
        if pf_variant == PF_SHM_IPF and not host.kernel.integrated_filter:
            raise ValueError(
                "shm_ipf needs a kernel built with integrated_filter=True"
            )
        self.host = host
        self.pf_variant = pf_variant
        self.app_id = host.sim.next_id("app")
        self.name = name or ("%s.lib%d" % (host.name, self.app_id))
        sim = host.sim
        self.accounting = accounting or LayerAccounting()
        self.ctx = ExecutionContext(
            sim,
            host.cpu,
            priority=Priority.PROTOCOL,
            locks=light_locks(host.platform),
            accounting=self.accounting,
            name=self.name,
        )
        self.metastate = MetastateCache(
            sim, server_rpc, self.app_id, name="%s.meta" % self.name
        )
        env = NetEnv(
            local_ip=host.ip,
            local_mac=host.mac,
            send_frame=self._send_frame,
            resolve=self.metastate.resolve,
            route=self.metastate.route,
            prime_route=self.metastate.prime_route,
        )
        self.stack = NetworkStack(
            self.ctx,
            env,
            name=self.name,
            udp_send_copies=False,  # the library references user data
            shared_buffers=shared_buffers,
            tcp_defaults=tcp_defaults,
            metrics=host.metrics,
        )
        self._input_threads = {}
        #: sid -> kernel FilterHandle for this app's app-managed sessions.
        #: The kernel filters survive a server crash; the library reports
        #: them back during re-registration so the rebuilt server records
        #: can keep managing them.
        self.session_filters = {}
        #: Control-plane fault plan for per-packet IPC delivery ports
        #: (Library-IPC only); attached by FaultPlan.attach_server().
        self.control_faults = None
        #: Back-pointer to the ProxySocketAPI built over this library,
        #: set by the proxy itself; netstat's control-plane block uses it.
        self.proxy_api = None

    # ------------------------------------------------------------------
    # Output: the kernel's low-latency send trap, from user space
    # ------------------------------------------------------------------

    def _send_frame(self, ctx, frame):
        return self.host.kernel.netif_send(
            ctx, frame, wired=False, lookup_cost=ctx.params.proc_call)

    # ------------------------------------------------------------------
    # Packet-filter endpoints: created on behalf of the OS server when it
    # installs a session filter targeting this application
    # ------------------------------------------------------------------

    def make_delivery(self):
        """A fresh (delivery, receiver) pair for one session's filter.

        The *delivery* side is installed in the kernel; the *receiver*
        side is what this library's input thread drains.  This models the
        per-session "packet filter port" the OS returns on session
        creation.
        """
        sim = self.host.sim
        if self.pf_variant == PF_IPC:
            port = MessagePort(sim, name="%s.pfport" % self.name)
            port.faults = self.control_faults
            return IPCDelivery(port), (PF_IPC, port)
        ring = SharedPacketRing(sim, name="%s.pfring" % self.name)
        return SHMDelivery(ring), (PF_SHM, ring)

    def attach_input(self, receiver, key=None):
        """Start the input thread draining one session's filter port."""
        kind, endpoint = receiver
        if kind == PF_IPC:
            proc = self.host.sim.spawn(
                self._ipc_input(endpoint), name="%s.in" % self.name
            )
        else:
            proc = self.host.sim.spawn(
                self._shm_input(endpoint), name="%s.in" % self.name
            )
        self._input_threads[key or id(receiver)] = proc
        return proc

    def detach_input(self, key):
        """Stop a session's input thread (after its filter is removed)."""
        proc = self._input_threads.pop(key, None)
        if proc is not None and proc.alive:
            proc.interrupt("session migrated away")

    def _ipc_input(self, port):
        """Library-IPC: one wakeup and one message per packet."""
        from repro.sim.errors import Interrupt

        try:
            while True:
                message = yield from port.receive(self.ctx, Layer.KERNEL_COPYOUT)
                yield from self.stack.input_frame(message.data)
        except Interrupt:
            return

    def _shm_input(self, ring):
        """Library-SHM: drain every available packet per wakeup."""
        from repro.sim.errors import Interrupt

        sim = self.host.sim
        try:
            while True:
                batch = yield from ring.receive()
                # One scheduling wakeup amortized over the whole train;
                # attribute it to the train's first packet.
                adopt_trace(sim, frame_trace(batch[0]) if batch else None)
                yield self.ctx.charge(
                    Layer.KERNEL_COPYOUT, self.ctx.params.sched_dispatch
                )
                for frame in batch:
                    adopt_trace(sim, frame_trace(frame))
                    yield from self.stack.input_frame(frame)
        except Interrupt:
            return

    def note_app_filter(self, sid, handle):
        """The server installed a kernel filter for session ``sid``."""
        self.session_filters[sid] = handle

    def forget_app_filter(self, sid):
        self.session_filters.pop(sid, None)

    # ------------------------------------------------------------------

    def input_thread_count(self):
        return sum(1 for p in self._input_threads.values() if p.alive)

    def __repr__(self):
        return "<ProtocolLibrary %s pf=%s>" % (self.name, self.pf_variant)
