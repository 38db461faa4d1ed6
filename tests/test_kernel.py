"""The simulated kernel: IPC, send trap, filter demux and delivery."""

import pytest

from repro.filter.compile import compile_ip_protocol_filter, compile_session_filter
from repro.hw.cpu import CPU, Priority
from repro.hw.nic import NIC
from repro.hw.platforms import DECSTATION_5000_200
from repro.hw.wire import EthernetWire
from repro.kernel.ipc import Message, MessagePort, RPCPort
from repro.kernel.kernel import IPCDelivery, Kernel, QueueDelivery, SHMDelivery
from repro.mem.shm import SharedPacketRing
from repro.net import ethernet, ip, udp
from repro.net.addr import ip_aton, make_mac
from repro.sim import Simulator
from repro.sim.sync import Channel
from repro.stack.context import ExecutionContext
from repro.stack.instrument import LayerAccounting

A = ip_aton("10.0.0.1")
B = ip_aton("10.0.0.2")


def make_world(integrated=False):
    sim = Simulator()
    wire = EthernetWire(sim)
    cpu_a = CPU(sim, DECSTATION_5000_200, "a")
    cpu_b = CPU(sim, DECSTATION_5000_200, "b")
    nic_a = NIC(sim, wire, make_mac(1), name="a")
    nic_b = NIC(sim, wire, make_mac(2), name="b")
    kern_a = Kernel(sim, cpu_a, nic_a, name="ka")
    kern_b = Kernel(sim, cpu_b, nic_b, integrated_filter=integrated, name="kb")
    return sim, kern_a, kern_b, cpu_a, cpu_b


def frame_for(dport, payload=b"data"):
    dgram = udp.encapsulate(A, B, 5000, dport, payload)
    packet = ip.encapsulate(A, B, ip.PROTO_UDP, dgram, ident=1)
    return ethernet.encapsulate(make_mac(2), make_mac(1),
                                ethernet.ETHERTYPE_IP, packet)


# ----------------------------------------------------------------------
# IPC
# ----------------------------------------------------------------------

def test_rpc_roundtrip_and_exception():
    sim = Simulator()
    cpu = CPU(sim, DECSTATION_5000_200)
    ctx = ExecutionContext(sim, cpu)
    rpc = RPCPort(sim)

    def server():
        while True:
            message = yield from rpc.serve(ctx)
            if message.op == "add":
                yield from rpc.reply(ctx, message, sum(message.args))
            else:
                yield from rpc.reply(ctx, message, ValueError("bad op"))

    def client():
        result = yield from rpc.call(ctx, "add", args=(2, 3))
        assert result == 5
        with pytest.raises(ValueError, match="bad op"):
            yield from rpc.call(ctx, "nope")
        return "done"

    sim.spawn(server())
    assert sim.run_process(client()) == "done"
    assert rpc.calls == 2


def test_rpc_counts_crossings_and_copies():
    sim = Simulator()
    cpu = CPU(sim, DECSTATION_5000_200)
    ctx = ExecutionContext(sim, cpu)
    rpc = RPCPort(sim)

    def server():
        message = yield from rpc.serve(ctx)
        yield from rpc.reply(ctx, message, len(message.data))

    def client():
        return (yield from rpc.call(ctx, "eat", data=b"x" * 100))

    sim.spawn(server())
    assert sim.run_process(client()) == 100
    assert ctx.crossings.server_rpcs == 1
    assert ctx.crossings.user_kernel >= 1
    assert ctx.crossings.data_copies >= 2  # client side + server side


def test_message_port_fifo():
    sim = Simulator()
    cpu = CPU(sim, DECSTATION_5000_200)
    ctx = ExecutionContext(sim, cpu)
    port = MessagePort(sim)

    def sender():
        yield from port.send(ctx, "layer", Message("m", data=b"1"), 0.0)
        yield from port.send(ctx, "layer", Message("m", data=b"2"), 0.0)

    def receiver():
        first = yield from port.receive(ctx, "layer")
        second = yield from port.receive(ctx, "layer")
        return first.data + second.data

    sim.spawn(sender())
    assert sim.run_process(receiver()) == b"12"


# ----------------------------------------------------------------------
# Send trap
# ----------------------------------------------------------------------

def test_netif_send_charges_trap_and_copy_for_user_space():
    sim, kern_a, _kb, cpu_a, _cb = make_world()
    acct = LayerAccounting()
    ctx = ExecutionContext(sim, cpu_a, accounting=acct)
    frame = frame_for(7)

    def send():
        yield from kern_a.netif_send(ctx, frame, wired=False)

    sim.run_process(send())
    user_cost = acct.total("ether_output")

    acct2 = LayerAccounting()
    ctx2 = ExecutionContext(sim, cpu_a, accounting=acct2)

    def send_wired():
        yield from kern_a.netif_send(ctx2, frame, wired=True)

    sim.run_process(send_wired())
    assert user_cost > acct2.total("ether_output")
    assert ctx.crossings.user_kernel == 1
    assert ctx2.crossings.user_kernel == 0


# ----------------------------------------------------------------------
# Demux and delivery
# ----------------------------------------------------------------------

def send_frames(sim, kern_a, frames):
    def blast():
        ctx = kern_a.ctx
        for frame in frames:
            yield from kern_a.netif_send(ctx, frame, wired=True)

    sim.spawn(blast())


def test_demux_first_match_wins_and_counts():
    sim, kern_a, kern_b, _ca, _cb = make_world()
    q1 = Channel(sim)
    q2 = Channel(sim)
    kern_b.install_filter(
        compile_session_filter(ip.PROTO_UDP, B, 7777), QueueDelivery(q1),
        name="specific", front=True,
    )
    kern_b.install_filter(
        compile_ip_protocol_filter(ip.PROTO_UDP), QueueDelivery(q2),
        name="catchall",
    )
    send_frames(sim, kern_a, [frame_for(7777), frame_for(8888)])
    sim.run()
    assert len(q1) == 1
    assert len(q2) == 1
    assert kern_b.frames_demuxed == 2


def test_unmatched_frames_dropped_and_counted():
    sim, kern_a, kern_b, _ca, _cb = make_world()
    kern_b.install_filter(
        compile_session_filter(ip.PROTO_UDP, B, 1), QueueDelivery(Channel(sim))
    )
    send_frames(sim, kern_a, [frame_for(9999)])
    sim.run()
    assert kern_b.frames_dropped_no_match == 1


def test_filter_remove():
    sim, kern_a, kern_b, _ca, _cb = make_world()
    q = Channel(sim)
    handle = kern_b.install_filter(
        compile_ip_protocol_filter(ip.PROTO_UDP), QueueDelivery(q)
    )
    assert kern_b.remove_filter(handle)
    assert not kern_b.remove_filter(handle)  # idempotent
    assert kern_b.filter_count() == 0
    send_frames(sim, kern_a, [frame_for(7)])
    sim.run()
    assert len(q) == 0
    assert kern_b.frames_dropped_no_match == 1


def test_ipc_delivery_reaches_port():
    sim, kern_a, kern_b, _ca, cpu_b = make_world()
    port = MessagePort(sim)
    kern_b.install_filter(
        compile_ip_protocol_filter(ip.PROTO_UDP), IPCDelivery(port)
    )
    send_frames(sim, kern_a, [frame_for(42)])
    ctx = ExecutionContext(sim, cpu_b)

    def receiver():
        message = yield from port.receive(ctx, "layer")
        return message.data

    frame = frame_for(42)
    got = sim.run_process(receiver())
    assert got == frame


def test_shm_delivery_batches():
    sim, kern_a, kern_b, _ca, _cb = make_world()
    ring = SharedPacketRing(sim)
    kern_b.install_filter(
        compile_ip_protocol_filter(ip.PROTO_UDP), SHMDelivery(ring)
    )
    send_frames(sim, kern_a, [frame_for(1), frame_for(2), frame_for(3)])
    sim.run()
    assert len(ring) == 3


def test_integrated_filter_attribution():
    """IPF: the per-packet copy is charged once, at device-read rates, to
    the matched session's ledger — not to a pre-demux kernel copy."""
    frames = [frame_for(7777)]

    def copyout_for(integrated):
        sim, kern_a, kern_b, _ca, _cb = make_world(integrated=integrated)
        acct = LayerAccounting()
        ring = SharedPacketRing(sim)
        kern_b.install_filter(
            compile_session_filter(ip.PROTO_UDP, B, 7777),
            SHMDelivery(ring),
            accounting=acct,
        )
        send_frames(sim, kern_a, list(frames))
        sim.run()
        assert len(ring) == 1
        return acct.total("device intr/read"), acct.total("kernel copyout")

    plain_read, plain_copy = copyout_for(False)
    ipf_read, ipf_copy = copyout_for(True)
    # Non-integrated pays the device read up front and a ring copy later;
    # integrated defers into a single device-rate copy.
    assert plain_read > ipf_read
    assert ipf_copy > plain_copy  # the one copy moved to delivery...
    assert (ipf_read + ipf_copy) < (plain_read + plain_copy)  # ...and one was saved
