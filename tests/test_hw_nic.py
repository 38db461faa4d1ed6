"""NIC models: transmit queueing, receive-ring overrun and the
station-address filter."""

import pytest

from repro.core.sockets import SOCK_DGRAM
from repro.hw.nic import ETHERLINK_3C503, LANCE, NIC
from repro.hw.platforms import DECSTATION_5000_200
from repro.hw.wire import EthernetWire
from repro.net.addr import make_mac
from repro.sim import Simulator, Timeout
from repro.world.configs import CONFIGS, make_placement
from repro.world.network import Network


def test_mac_validation():
    sim = Simulator()
    wire = EthernetWire(sim)
    with pytest.raises(ValueError):
        NIC(sim, wire, b"\x01\x02")


def test_rx_ring_overrun_drops():
    sim = Simulator()
    wire = EthernetWire(sim)
    sender = NIC(sim, wire, make_mac(1), name="tx")
    receiver = NIC(sim, wire, make_mac(2), model=ETHERLINK_3C503, name="rx")
    # 3C503 ring holds 16 frames; nobody drains, so extras drop.
    count = 24

    def blast():
        for _ in range(count):
            yield from sender.start_transmit(receiver.mac + b"p" * 54)

    sim.spawn(blast())
    sim.run()
    assert receiver.frames_received == 16
    assert receiver.frames_dropped == count - 16
    assert receiver.frames_filtered == 0


def test_rx_release_frees_ring_slot():
    sim = Simulator()
    wire = EthernetWire(sim)
    sender = NIC(sim, wire, make_mac(1))
    receiver = NIC(sim, wire, make_mac(2), model=ETHERLINK_3C503)

    def blast():
        for _ in range(20):
            yield from sender.start_transmit(receiver.mac + b"p" * 54)

    def drain():
        while True:
            frame = yield from receiver.rx_ring.get()
            receiver.rx_release()

    sim.spawn(blast())
    sim.spawn(drain())
    sim.run(until=1_000_000)
    assert receiver.frames_dropped == 0
    assert receiver.frames_received == 20


def test_rx_release_without_frame_raises():
    sim = Simulator()
    wire = EthernetWire(sim)
    nic = NIC(sim, wire, make_mac(1))
    with pytest.raises(RuntimeError):
        nic.rx_release()


def test_tx_ring_backpressure():
    sim = Simulator()
    wire = EthernetWire(sim)
    sender = NIC(sim, wire, make_mac(1), model=ETHERLINK_3C503)  # 8 slots
    NIC(sim, wire, make_mac(2))
    progress = []

    def blast():
        for i in range(12):
            yield from sender.start_transmit(b"q" * 1000)
            progress.append((i, sim.now))

    sim.spawn(blast())
    sim.run(until=100)
    # 8 fit in the ring plus 1 in flight; the rest must wait for the wire.
    assert len(progress) <= 10
    sim.run()
    assert len(progress) == 12
    assert sender.frames_sent == 12


def test_models_have_distinct_ring_sizes():
    assert LANCE.rx_ring_frames > ETHERLINK_3C503.rx_ring_frames


# ----------------------------------------------------------------------
# Station-address filter
# ----------------------------------------------------------------------

def _segment(hosts=8):
    """``hosts`` DECstations with in-kernel stacks on one shared wire."""
    net = Network()
    placements = [
        make_placement(CONFIGS["mach25"],
                       net.add_host("10.0.0.%d" % (i + 1),
                                    DECSTATION_5000_200,
                                    name="h%d" % (i + 1)))
        for i in range(hosts)
    ]
    return net, placements


def _udp_exchange(net, client, server, rounds, port):
    capi, sapi = client.new_app(), server.new_app()
    server_ip = server.host.ip

    def serve():
        fd = yield from sapi.socket(SOCK_DGRAM)
        yield from sapi.bind(fd, port)
        for _ in range(rounds):
            data, src = yield from sapi.recvfrom(fd)
            yield from sapi.sendto(fd, data, src)

    def call():
        fd = yield from capi.socket(SOCK_DGRAM)
        for i in range(rounds):
            yield from capi.sendto(fd, b"ping%d" % i, (server_ip, port))
            data, _src = yield from capi.recvfrom(fd)
            assert data == b"ping%d" % i

    net.run_all([serve(), call()], until=60_000_000)


def test_unicast_exchange_costs_bystanders_nothing():
    net, placements = _segment(8)
    client, server, bystanders = placements[0], placements[1], placements[2:]
    # Warm ARP both ways, so the measured exchange is unicast only.
    _udp_exchange(net, client, server, rounds=1, port=9400)
    before = [(p.host.cpu.charge_count, p.host.nic.frames_received,
               p.host.nic.frames_filtered) for p in bystanders]
    carried, filtered_all = net.wire.frames_carried, net.wire.frames_filtered
    _udp_exchange(net, client, server, rounds=5, port=9401)
    unicast = net.wire.frames_carried - carried
    assert unicast == 10
    for placement, (charges, received, filtered) in zip(bystanders, before):
        host = placement.host
        assert host.cpu.charge_count == charges
        assert host.nic.frames_received == received
        assert host.nic.frames_filtered == filtered + unicast
        assert host.nic.frames_dropped == 0
        assert len(host.nic.rx_ring) == 0
        assert host.nic._rx_buffered == 0
        assert not host.nic._rx_enq_us
        assert host.kernel.frames_demuxed == received
    # The two stations talking filtered nothing: every frame was theirs.
    assert client.host.nic.frames_filtered == 0
    assert server.host.nic.frames_filtered == 0
    assert (net.wire.frames_filtered - filtered_all
            == unicast * len(bystanders))


def test_broadcast_arp_still_reaches_every_station():
    net, placements = _segment(8)
    client, server = placements[0], placements[1]
    _udp_exchange(net, client, server, rounds=1, port=9400)
    for placement in placements[2:]:
        host = placement.host
        # The ARP request is broadcast: every bystander took it off the
        # wire and learned the asker's mapping from it.
        assert host.nic.frames_received >= 1
        assert host.arp.cache.lookup(client.host.ip) == client.host.mac


def test_filtered_frame_takes_no_ring_slot():
    sim = Simulator()
    wire = EthernetWire(sim)
    sender = NIC(sim, wire, make_mac(1))
    receiver = NIC(sim, wire, make_mac(2))
    NIC(sim, wire, make_mac(3))
    # As faults.RxOverflow does for a window: a one-frame receive ring.
    receiver.rx_limit_override = 1

    def blast():
        for _ in range(6):
            yield from sender.start_transmit(make_mac(3) + b"n" * 54)
        yield from sender.start_transmit(receiver.mac + b"m" * 54)

    sim.spawn(blast())
    sim.run()
    # Six neighbour frames went by without filling the one slot.
    assert receiver.frames_filtered == 6
    assert receiver.frames_received == 1
    assert receiver.frames_dropped == 0
    assert receiver._rx_buffered == 1 and len(receiver._rx_enq_us) == 1
