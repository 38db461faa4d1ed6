"""The 10 Mb/s Ethernet wire model."""

import pytest

from repro.hw.nic import NIC
from repro.hw.wire import EthernetWire, frame_time, frame_wire_bytes
from repro.net.addr import BROADCAST_MAC, make_mac
from repro.sim import Simulator


def test_min_frame_matches_paper():
    # The paper's measured 1-byte network transit: 51 us.
    assert frame_wire_bytes(10) == 64
    assert frame_time(10) == pytest.approx(51.2)


def test_full_segment_matches_paper():
    # 1460 TCP payload + 40 IP/TCP headers + 14 ether header = 1514 frame,
    # +4 CRC on the wire: the paper's 1214 us transit.
    assert frame_time(1514) == pytest.approx(1214.4)


def test_frame_time_scales_linearly():
    assert frame_time(1000) == pytest.approx((1004) * 0.8)


def make_pair():
    sim = Simulator()
    wire = EthernetWire(sim)
    a = NIC(sim, wire, make_mac(1), name="a")
    b = NIC(sim, wire, make_mac(2), name="b")
    return sim, wire, a, b


def test_delivery_excludes_sender():
    sim, wire, a, b = make_pair()

    def send():
        yield from a.start_transmit(b.mac + b"x" * 94)

    sim.spawn(send())
    sim.run()
    assert b.frames_received == 1
    assert a.frames_received == 0


def test_medium_serializes_concurrent_senders():
    sim, wire, a, b = make_pair()
    arrivals = []

    def send(nic, payload):
        yield from nic.start_transmit(payload)

    def watch(nic):
        for _ in range(1):
            frame = yield from nic.rx_ring.get()
            nic.rx_release()
            arrivals.append((sim.now, len(frame)))

    sim.spawn(send(a, b.mac + b"x" * 94))
    sim.spawn(send(b, a.mac + b"y" * 94))
    sim.spawn(watch(a))
    sim.spawn(watch(b))
    sim.run()
    # Both frames are 104 wire bytes = 83.2 us; the second waits.
    times = sorted(t for t, _ in arrivals)
    assert times[0] == pytest.approx(83.2)
    assert times[1] == pytest.approx(166.4)
    assert wire.frames_carried == 2


def test_double_attach_rejected():
    sim = Simulator()
    wire = EthernetWire(sim)
    nic = NIC(sim, wire, make_mac(1))
    with pytest.raises(ValueError):
        wire.attach(nic)


def test_broadcast_reaches_all():
    sim = Simulator()
    wire = EthernetWire(sim)
    nics = [NIC(sim, wire, make_mac(i), name=str(i)) for i in range(1, 5)]

    def send():
        yield from nics[0].start_transmit(BROADCAST_MAC + b"z" * 54)

    sim.spawn(send())
    sim.run()
    assert [n.frames_received for n in nics] == [0, 1, 1, 1]
