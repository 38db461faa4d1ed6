"""The kernel: NIC driver, packet send trap, and filter-based RX demux.

The kernel "exports a packet send and receive interface" (Figure 1).
Sending is a low-latency trap; receiving goes through the packet filter,
with the three delivery interfaces of Section 4.1:

* **IPC** — each matched packet is sent to the owner in a separate Mach
  message (the baseline).
* **SHM** — matched packets are copied into a ring shared with the owner
  and a lightweight condition variable signals arrival; a busy receiver
  drains several packets per wakeup.
* **SHM-IPF** (``integrated=True`` on the kernel) — the filter runs while
  the packet still sits in device memory, deferring the copy until the
  destination is known, so the packet moves device -> destination ring in
  a single copy.
"""

from repro.filter.vm import FilterMachine
from repro.hw.cpu import Priority
from repro.kernel.ipc import Message
from repro.stack.context import ExecutionContext
from repro.stack.instrument import Layer
from repro.trace import frame_trace


class QueueDelivery:
    """Deliver to an in-kernel protocol input queue (no extra copy)."""

    boundary = False

    def __init__(self, channel):
        self.channel = channel

    def deliver(self, ctx, frame, from_device):
        if from_device:
            # Integrated mode still must move the frame off the device.
            yield ctx.charge(
                Layer.DEVICE_READ,
                ctx.params.devmem_read_per_byte * len(frame),
            )
        self.channel.try_put(frame)
        yield ctx.charge(Layer.NETISR_FILTER, ctx.params.sched_dispatch)


class IPCDelivery:
    """Deliver each packet in its own Mach message (Library-IPC)."""

    boundary = True

    def __init__(self, port, remap_per_byte=None):
        self.port = port
        #: UX-style servers get page-remapped delivery (cheap per byte);
        #: None means a real copy at main-memory rates.
        self.remap_per_byte = remap_per_byte

    def deliver(self, ctx, frame, from_device):
        p = ctx.params
        if from_device:
            per_byte = p.devmem_read_per_byte
        elif self.remap_per_byte is not None:
            per_byte = self.remap_per_byte
        else:
            per_byte = p.copy_per_byte
        yield ctx.charge(
            Layer.KERNEL_COPYOUT, p.copy_fixed + per_byte * len(frame)
        )
        ctx.crossings.data_copies += 1
        ctx.crossings.user_kernel += 1
        yield from self.port.send(ctx, Layer.KERNEL_COPYOUT, Message("packet", data=frame))
        yield ctx.charge(Layer.NETISR_FILTER, p.sched_dispatch)


class SHMDelivery:
    """Deliver into a shared-memory ring (Library-SHM / SHM-IPF).

    The ring pages are pre-mapped in both the kernel and the application
    and stay cache-warm, so the non-integrated copy into the ring runs at
    the cheap ``shm_ring_per_byte`` rate rather than a cold memcpy — this
    is what lets the paper's Library-SHM match in-kernel throughput even
    though "the use of shared memory in this case does not reduce the
    number of packet copies".  In integrated (IPF) mode the copy comes
    straight out of device memory instead.
    """

    boundary = False

    def __init__(self, ring):
        self.ring = ring

    def deliver(self, ctx, frame, from_device):
        p = ctx.params
        per_byte = p.devmem_read_per_byte if from_device else p.shm_ring_per_byte
        yield ctx.charge(
            Layer.KERNEL_COPYOUT, p.copy_fixed + per_byte * len(frame)
        )
        ctx.crossings.data_copies += 1
        needs_wakeup = self.ring.needs_wakeup()
        if not self.ring.deposit(frame):
            return  # ring overrun: dropped, accounted by the ring
        if needs_wakeup:
            yield ctx.charge(
                Layer.NETISR_FILTER, p.condvar_signal + p.sched_dispatch
            )


class FilterHandle:
    """One installed packet filter: program + delivery + attribution."""

    def __init__(self, program, delivery, accounting=None, name=""):
        self.program = program
        self.delivery = delivery
        self.accounting = accounting
        self.name = name
        self.matched = 0


class Kernel:
    """The per-host kernel."""

    def __init__(self, sim, cpu, nic, integrated_filter=False, name="kernel",
                 tracer=None):
        self.sim = sim
        self.cpu = cpu
        self.params = cpu.params
        self.nic = nic
        self.integrated_filter = integrated_filter
        self.name = name
        #: Optional :class:`~repro.trace.TraceRecorder`; when enabled,
        #: the interrupt loop adopts each frame's trace id (or starts a
        #: fresh "recv" trace for untagged arrivals).
        self.tracer = tracer
        #: Installed filters in scan order: every arriving frame runs them
        #: one by one until one accepts (the paper's linear demux), so
        #: exact sessions installed ``front=True`` beat wildcard listeners.
        self._filters = []
        self._vm = FilterMachine()
        self.ctx = ExecutionContext(
            sim, cpu, priority=Priority.INTERRUPT, name=name
        )
        #: Per-ledger attributed contexts, built once and reused — the
        #: demux path used to allocate a fresh context per matched frame.
        self._attr_ctxs = {}
        self.frames_dropped_no_match = 0
        self.frames_demuxed = 0
        sim.spawn(self._interrupt_loop(), name="%s.intr" % name)

    # ------------------------------------------------------------------
    # Packet filter management (a kernel call; the OS server uses it when
    # creating sessions)
    # ------------------------------------------------------------------

    def install_filter(self, program, delivery, accounting=None, name="",
                       front=False):
        handle = FilterHandle(program, delivery, accounting, name)
        if front:
            self._filters.insert(0, handle)
        else:
            self._filters.append(handle)
        return handle

    def remove_filter(self, handle):
        """Uninstall a filter; idempotent.

        Filter ownership crosses crash boundaries: a replayed RPC may
        legitimately remove a filter the dead server incarnation already
        removed, so a second removal is a no-op, not an error.  Returns
        whether the handle was still installed.
        """
        try:
            self._filters.remove(handle)
        except ValueError:
            return False
        return True

    def filter_count(self):
        return len(self._filters)

    # ------------------------------------------------------------------
    # Send path: the low-latency packet send trap
    # ------------------------------------------------------------------

    def netif_send(self, ctx, frame, wired=False):
        """Transmit ``frame``; charges land on the *caller's* context.

        From user space (``wired=False``) this is the trap + copy into a
        wired kernel buffer the paper describes for library/server sends;
        the in-kernel stack passes ``wired=True`` because its mbufs are
        already wired and go straight to the device.
        """
        p = ctx.params
        if not wired:
            yield ctx.charge_boundary_crossing(Layer.ETHER_OUTPUT)
            yield ctx.charge_copy(Layer.ETHER_OUTPUT, len(frame))
        yield ctx.charge(
            Layer.ETHER_OUTPUT,
            p.ether_overhead + p.devmem_write_per_byte * len(frame),
        )
        yield from self.nic.start_transmit(frame)

    # ------------------------------------------------------------------
    # Receive path: interrupt -> filter -> delivery
    # ------------------------------------------------------------------

    def _interrupt_loop(self):
        p = self.params
        while True:
            frame = yield from self.nic.rx_ring.get()
            enq_at = self.nic.rx_pop_time()
            if self.tracer is not None:
                trace_id = frame_trace(frame)
                if trace_id is None and self.tracer.enabled:
                    self.tracer.begin("recv", host=self.name, size=len(frame))
                else:
                    self.tracer.adopt(trace_id)
                if self.tracer.enabled:
                    tid = self.tracer.current()
                    if tid is not None:
                        waited = self.ctx.sim.now - enq_at
                        if waited > 0:
                            self.tracer.record_wait(
                                tid, self.name, "nic_rx_ring", "queue",
                                enq_at, waited)
            pre_cost = p.interrupt_entry
            yield self.ctx.charge(Layer.DEVICE_READ, p.interrupt_entry)
            if not self.integrated_filter:
                # Copy the whole frame out of device memory first.
                read_cost = p.devmem_read_per_byte * len(frame)
                pre_cost += read_cost
                yield self.ctx.charge(Layer.DEVICE_READ, read_cost)
                self.nic.rx_release()
                from_device = False
            else:
                from_device = True
            yield self.ctx.charge(Layer.NETISR_FILTER, p.netisr_dispatch)
            matched = yield from self._demux(frame, from_device, pre_cost)
            if from_device:
                self.nic.rx_release()
            if not matched:
                self.frames_dropped_no_match += 1

    def _demux(self, frame, from_device, pre_cost):
        p = self.params
        for handle in self._filters:
            accepted, insns = self._vm.run(handle.program, frame)
            yield from self._charge_attributed(
                handle.accounting, Layer.NETISR_FILTER, p.filter_insn * insns
            )
            if accepted:
                handle.matched += 1
                self.frames_demuxed += 1
                if handle.accounting is not None:
                    # Attribute the pre-demux interrupt/read work (already
                    # charged to the CPU) to the matched session's ledger
                    # so per-placement breakdowns include it.
                    handle.accounting.add(Layer.DEVICE_READ, pre_cost)
                    handle.accounting.add(
                        Layer.NETISR_FILTER, p.netisr_dispatch
                    )
                ctx = self._attributed_ctx(handle.accounting)
                yield from handle.delivery.deliver(ctx, frame, from_device)
                return True
        return False

    def _attributed_ctx(self, accounting):
        """An interrupt-priority context whose charges are attributed to
        the matched session's owner (so Table 4 rows show per-placement
        receive costs)."""
        if accounting is None:
            return self.ctx
        ctx = self._attr_ctxs.get(accounting)
        if ctx is None:
            ctx = ExecutionContext(
                self.sim,
                self.cpu,
                priority=Priority.INTERRUPT,
                accounting=accounting,
                crossings=self.ctx.crossings,
                name=self.name,
            )
            self._attr_ctxs[accounting] = ctx
        return ctx

    def _charge_attributed(self, accounting, layer, cost):
        ctx = self._attributed_ctx(accounting)
        yield ctx.charge(layer, cost)
