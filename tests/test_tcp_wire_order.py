"""A connection's segments reach the wire in sequence order.

A tap on the Ethernet segment follows every TCP flow of a ttcp transfer
and checks that no data segment starts beyond the highest sequence
number its flow has already put on the wire.  Without loss, a segment
past that point means a later segment overtook an earlier one inside
the sending host (two processes draining one connection at once), which
the receiver sees as a hole and answers with duplicate ACKs.
"""

import pytest

from repro.apps.ttcp import ttcp
from repro.net import ethernet, ip
from repro.net.tcp.header import SYN, TCPSegment
from repro.net.tcp.seq import seq_lt
from repro.world.configs import CONFIG_NAMES, CONFIGS, build_network


def tap_segments_ahead(wire):
    """Wrap ``wire.transmit``; returns a list that counts, per data
    segment sent ahead of a hole, its flow and sequence number."""
    high = {}
    ahead = []
    transmit = wire.transmit

    def tapped(frame, sender):
        _eth, packet = ethernet.decapsulate(frame)
        if packet[9] == ip.PROTO_TCP:
            header, payload = ip.decapsulate(packet, verify=False)
            seg = TCPSegment.unpack(header.src, header.dst, payload,
                                    verify=False)
            flow = (header.src, seg.src_port, header.dst, seg.dst_port)
            end = (seg.seq + len(seg.payload)
                   + (1 if seg.flags & SYN else 0)) % (1 << 32)
            if flow in high:
                if seg.payload and seq_lt(high[flow], seg.seq):
                    ahead.append((flow, seg.seq))
                if seq_lt(high[flow], end):
                    high[flow] = end
            else:
                high[flow] = end
        return (yield from transmit(frame, sender))

    wire.transmit = tapped
    return ahead


@pytest.mark.parametrize("key", CONFIG_NAMES)
def test_ttcp_segments_leave_in_sequence_order(key):
    network, pa, pb = build_network(key)
    ahead = tap_segments_ahead(network.wire)
    result = ttcp(network, pb, pa, total_bytes=512 * 1024,
                  rcvbuf_kb=CONFIGS[key].best_rcvbuf_kb)
    assert result.bytes_moved == 512 * 1024
    assert ahead == []
