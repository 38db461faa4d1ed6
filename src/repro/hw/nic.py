"""Ethernet network interface cards.

Two models matter to the paper:

* the DECstation's **Lance**, whose device memory is reasonably fast to
  write but slow to read (the paper notes kernel memory "has lower read
  latency than network device memory"), and
* the Gateway's **3Com 3C503**, which moves data 8 bits at a time and
  "severely limits" throughput.

The NIC itself is autonomous hardware: once the driver has placed a frame
in device memory, transmission onto the wire consumes no host CPU.  The
per-byte cost of moving data between host and device memory is charged by
the *driver* (kernel code) using the platform's ``devmem_*`` parameters —
that cost difference is the whole story of the Gateway's numbers.

Both cards filter on the **station address** in hardware: a frame whose
destination is neither the card's own MAC nor broadcast is discarded by
the device before it takes a receive-ring slot or raises an interrupt,
so a host on a shared segment pays CPU only for its own packets (the
paper's Table 4 receive path starts at "device intr/read" for a frame
*this host* was sent).  There is no promiscuous mode.  Two always-on
counters declare what the receive side discarded:

* ``frames_filtered`` — addressed to another station (normal on a shared
  segment; also where a frame lands whose destination MAC was corrupted
  in flight), and
* ``frames_dropped`` — addressed to us but lost to receive-ring overrun."""

from dataclasses import dataclass

from repro.net.addr import BROADCAST_MAC
from repro.sim.sync import Channel
from repro.trace import TaggedFrame, frame_trace


@dataclass(frozen=True)
class NICModel:
    """Static properties of a NIC type."""

    name: str
    tx_ring_frames: int = 32
    rx_ring_frames: int = 32


LANCE = NICModel(name="Lance")
ETHERLINK_3C503 = NICModel(name="3Com 3C503", tx_ring_frames=8, rx_ring_frames=16)


class NIC:
    """A NIC instance attached to a wire.

    The driver enqueues raw frames (bytes) with :meth:`start_transmit`;
    a device-internal process drains the transmit ring onto the wire.
    Received frames addressed to this station (or broadcast) land in the
    receive ring and wake the host's interrupt handler, which drains
    :attr:`rx_ring`; frames for other stations are counted in
    :attr:`frames_filtered` and never seen by the host.  A full receive
    ring drops frames, as real hardware does under overrun.
    """

    def __init__(self, sim, wire, mac, model=LANCE, name=""):
        if len(mac) != 6:
            raise ValueError("MAC address must be 6 bytes, got %r" % (mac,))
        self._sim = sim
        self._wire = wire
        self.mac = bytes(mac)
        self.model = model
        self.name = name or model.name
        self._tx_ring = Channel(sim, capacity=model.tx_ring_frames, name=name + ".tx")
        self.rx_ring = Channel(sim, capacity=None, name=name + ".rx")
        self._rx_buffered = 0
        #: When set (by fault injection, e.g. ``faults.RxOverflow``), the
        #: receive ring behaves as if it only held this many frames.
        self.rx_limit_override = None
        self.frames_sent = 0
        self.frames_received = 0
        #: Accepted frames lost to receive-ring overrun.
        self.frames_dropped = 0
        #: Frames the station-address filter discarded (not ours, not
        #: broadcast): no ring slot, no timestamp, no interrupt.
        self.frames_filtered = 0
        #: Telemetry hooks (bound by MetricsRegistry.observe_host while
        #: enabled; None costs one test on the hot paths).
        self.rx_depth_gauge = None
        self.tx_depth_gauge = None
        #: Per-packet trace recorder (bound by the Host; None elsewhere).
        #: Used only to attribute ring-wait time — the NIC never begins
        #: traces itself.
        self.tracer = None
        #: Enqueue timestamps parallel to the tx/rx rings, so the
        #: consumer can attribute how long each frame sat queued.  Kept
        #: unconditionally (plain float appends) because the rx list's
        #: consumer may live in another component (kernel or router).
        #: Lists, not deques: a ring holds a few dozen frames at most,
        #: and an idle list costs 56 B where an empty deque costs 760 B.
        self._tx_enq_us = []
        self._rx_enq_us = []
        wire.attach(self)
        self._tx_proc = sim.spawn(self._transmitter(), name="%s.tx" % self.name)

    # ------------------------------------------------------------------
    # Transmit side (driver -> device -> wire)
    # ------------------------------------------------------------------

    def start_transmit(self, frame):
        """Driver hands a frame (already in device memory) to the device.

        Generator: blocks if the transmit ring is full, which back-pressures
        the sending protocol under load.

        The frame inherits the sending process's packet-trace id (if any),
        so the trace follows the bytes through the wire to the receiver.
        """
        # frame_trace/current_trace/TaggedFrame.tag written out inline:
        # this runs per frame and the helpers are one-liners.
        trace_id = getattr(frame, "trace_id", None)
        if trace_id is None:
            proc = self._sim.current
            trace_id = proc.trace_ctx if proc is not None else None
        data = bytes(frame)
        if trace_id is not None:
            data = TaggedFrame(data)
            data.trace_id = trace_id
        yield from self._tx_ring.put(data)
        # Runs in the same synchronous continuation as the ring append
        # (wakeups are scheduled, never synchronous), so the timestamp
        # list stays aligned with the ring.
        self._tx_enq_us.append(self._sim._now)
        gauge = self.tx_depth_gauge
        if gauge is not None:
            gauge.record(len(self._tx_ring))

    def _transmitter(self):
        """Device process: drain the TX ring onto the wire, in order."""
        while True:
            frame = yield from self._tx_ring.get()
            enq_at = (self._tx_enq_us.pop(0) if self._tx_enq_us
                      else self._sim.now)
            tracer = self.tracer
            if tracer is not None and tracer.enabled:
                tid = frame_trace(frame)
                if tid is not None:
                    waited = self._sim.now - enq_at
                    if waited > 0:
                        tracer.record_wait(tid, self.name, "nic_tx_ring",
                                           "queue", enq_at, waited)
            gauge = self.tx_depth_gauge
            if gauge is not None:
                gauge.record(len(self._tx_ring))
            yield from self._wire.transmit(frame, self)
            self.frames_sent += 1

    # ------------------------------------------------------------------
    # Receive side (wire -> device -> interrupt)
    # ------------------------------------------------------------------

    def frame_arrived(self, frame):
        """Called by the wire when a frame finishes arriving.

        Runs in zero host-CPU time (it is the device's address filter
        and DMA engine); the kernel's interrupt handler pays the CPU
        costs when it drains :attr:`rx_ring`.  This is the one place
        that decides station acceptance.
        """
        dst = frame[0:6]
        if dst != self.mac and dst != BROADCAST_MAC:
            self.frames_filtered += 1
            return
        limit = self.model.rx_ring_frames
        if self.rx_limit_override is not None:
            limit = self.rx_limit_override
        if self._rx_buffered >= limit:
            self.frames_dropped += 1
            return
        self._rx_buffered += 1
        self.rx_ring.try_put(frame)
        self._rx_enq_us.append(self._sim._now)
        self.frames_received += 1
        gauge = self.rx_depth_gauge
        if gauge is not None:
            gauge.record(self._rx_buffered)

    def rx_pop_time(self):
        """Consume the enqueue timestamp of the frame just taken off
        :attr:`rx_ring`.  Every rx consumer (kernel interrupt loop,
        router input loop) must call this once per ``get()`` to keep the
        timestamp list aligned with the ring."""
        return (self._rx_enq_us.pop(0) if self._rx_enq_us
                else self._sim.now)

    def rx_release(self):
        """The driver finished copying a frame out of device memory."""
        if self._rx_buffered <= 0:
            raise RuntimeError("rx_release() with empty ring on %r" % self)
        self._rx_buffered -= 1
        gauge = self.rx_depth_gauge
        if gauge is not None:
            gauge.record(self._rx_buffered)

    def __repr__(self):
        return "<NIC %s mac=%s>" % (self.name, self.mac.hex(":"))
