"""A shared 10 Mb/s Ethernet segment.

The wire serializes transmissions (half-duplex shared medium) and offers
each frame to every attached NIC except the sender, after the frame's
serialization delay; each NIC's station-address filter decides whether
to accept it (:meth:`repro.hw.nic.NIC.frame_arrived`).  Frame time
matches the paper's measured network transit component: 0.8
microseconds per byte with a 64-byte minimum frame (51.2 us for a
minimum frame, 1214 us for a full TCP segment).

Fault injection hooks in between serialization and delivery: a
:class:`~repro.faults.FaultPlan` sees every serialized frame as a
``Transit`` and may drop, corrupt, delay, duplicate, or redirect it."""

from heapq import heappush

from repro.sim.sync import Lock
from repro.sim.process import Timeout
from repro.trace import TaggedFrame, frame_trace

#: 10 Mb/s == 0.8 microseconds per byte.
US_PER_BYTE_10MBIT = 0.8

#: Ethernet minimum frame size (header + payload + CRC).
MIN_FRAME = 64

#: Ethernet framing overhead beyond the payload handed to the driver:
#: the 4-byte CRC (the 14-byte header is already part of our frames).
CRC_BYTES = 4


def frame_wire_bytes(frame_len):
    """Bytes actually serialized on the wire for a ``frame_len`` frame."""
    return max(MIN_FRAME, frame_len + CRC_BYTES)


def frame_time(frame_len, us_per_byte=US_PER_BYTE_10MBIT):
    """Serialization delay in microseconds for a frame of ``frame_len``."""
    return frame_wire_bytes(frame_len) * us_per_byte


class EthernetWire:
    """A broadcast Ethernet segment connecting NICs.

    ``fault_plan`` runs every serialized frame through a composable fault
    pipeline (see :mod:`repro.faults`).
    """

    def __init__(self, sim, us_per_byte=US_PER_BYTE_10MBIT, name="ether0",
                 propagation_us=0.0, fault_plan=None):
        self._sim = sim
        self.us_per_byte = us_per_byte
        #: One-way propagation delay added after serialization.  Zero for
        #: a LAN segment; set it to model a long link (the
        #: bandwidth-delay product that motivates RFC 1323).
        self.propagation_us = propagation_us
        self.name = name
        self._nics = []
        self._medium = Lock(sim, name=name)
        #: Full-duplex mode: each sender serializes on its own private
        #: lock instead of the shared half-duplex medium, so the two
        #: directions of a point-to-point link never contend.  The
        #: island partitioner (:mod:`repro.sim.parallel`) switches
        #: *cut* wires (point-to-point router-router links) to full
        #: duplex in every run mode — single-process and parallel —
        #: because cross-process senders cannot share a medium lock;
        #: applying it uniformly keeps both modes schedule-identical.
        #: Deliberately absent from the world description/fingerprint:
        #: it is a backend execution property, not topology.
        self.full_duplex = False
        self._sender_locks = {}
        #: Export hook for the multi-process island backend: when set,
        #: ``capture(frame, sender, arrival_us)`` is called *instead of*
        #: scheduling local delivery — the frame leaves this process and
        #: is injected into the peer island's copy of the wire at
        #: exactly ``arrival_us``.
        self.capture = None
        self.frames_carried = 0
        self.bytes_carried = 0
        #: Bytes serialized, padding and CRC included: times
        #: ``us_per_byte`` it is how long the medium was occupied.  An
        #: integer, so snapshots of it sum exactly in a metrics merge.
        self.wire_bytes = 0
        self.fault_plan = None
        if fault_plan is not None:
            self.set_fault_plan(fault_plan)

    def set_fault_plan(self, plan):
        """Install ``plan`` on this wire (stages get their install hook)."""
        self.fault_plan = plan
        if plan is not None:
            plan.attach(self, self._sim)

    @property
    def frames_filtered(self):
        """Deliveries the attached NICs' station filters discarded: one
        per bystander per unicast frame on a shared segment, and every
        frame whose destination MAC a fault stage corrupted."""
        return sum(nic.frames_filtered for nic in self._nics)

    def attach(self, nic):
        if nic in self._nics:
            raise ValueError("%r already attached to %r" % (nic, self))
        self._nics.append(nic)

    def detach(self, nic):
        self._nics.remove(nic)

    def transmit(self, frame, sender):
        """Serialize ``frame`` onto the wire, then deliver it.

        A generator driven by the sending NIC's transmit process.  The
        medium lock models the shared half-duplex segment: concurrent
        senders queue (a simplification of CSMA/CD that preserves the
        aggregate 10 Mb/s ceiling).
        """
        # frame_time()/frame_wire_bytes() written out inline — one call
        # pair per frame carried.
        frame_len = len(frame)
        wire_bytes = frame_len + CRC_BYTES
        if wire_bytes < MIN_FRAME:
            wire_bytes = MIN_FRAME
        serialization_us = wire_bytes * self.us_per_byte
        if self.full_duplex:
            medium = self._sender_locks.get(id(sender))
            if medium is None:
                medium = Lock(self._sim,
                              name="%s:%s" % (self.name, sender))
                self._sender_locks[id(sender)] = medium
        else:
            medium = self._medium
        yield from medium.acquire()
        try:
            yield Timeout(serialization_us)
        finally:
            medium.release()
        self.wire_bytes += wire_bytes
        self.frames_carried += 1
        self.bytes_carried += frame_len
        if self.fault_plan is None:
            self._schedule_delivery(frame, sender, self.propagation_us, None)
            return
        trace_id = frame_trace(frame)
        for t in self.fault_plan.apply(frame, sender, self._sim.now):
            # Fault stages may rebuild the frame (corruption copies the
            # bytes); the packet keeps its trace id regardless.
            delivered = t.frame
            if frame_trace(delivered) is None:
                delivered = TaggedFrame.tag(delivered, trace_id)
            self._schedule_delivery(delivered, sender,
                                    self.propagation_us + t.delay_us,
                                    t.exclude or None)

    def _schedule_delivery(self, frame, sender, delay_us, exclude):
        if self.capture is not None:
            self.capture(frame, sender, self._sim.now + delay_us)
            return
        if delay_us:
            # call_later/call_at written out inline (same tuple, same
            # seq draw — schedule-identical), one call pair per frame.
            sim = self._sim
            when = sim._now + delay_us
            if when > sim._now:
                heappush(sim._queue, (when, next(sim._seq),
                                      self._deliver,
                                      (frame, sender, exclude)))
            else:
                sim._ready.append((self._deliver, (frame, sender, exclude)))
        else:
            self._deliver(frame, sender, exclude)

    def _deliver(self, frame, sender, exclude=None):
        for nic in self._nics:
            if nic is sender:
                continue
            if exclude is not None and nic in exclude:
                continue
            nic.frame_arrived(frame)
