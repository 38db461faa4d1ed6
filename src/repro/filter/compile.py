"""Compile network-session endpoints into packet-filter programs.

The operating system "creates and installs a new packet filter for each
network session" (Section 3.1).  These compilers produce the programs: a
session filter matches Ethernet frames whose IP destination and TCP/UDP
destination port name the session's local endpoint, optionally pinned to
a remote endpoint for connected sessions.

All offsets are into the full Ethernet frame.  The IP header length is
read with the classic ``LDX_MSH`` idiom so options-bearing packets
demultiplex correctly.
"""

from repro.filter.insn import Insn, Op
from repro.filter.vm import FilterProgram, validate
from repro.net.ethernet import ETHERTYPE_ARP, ETHERTYPE_IP

#: Accept "the whole packet" sentinel (BPF convention: a huge snap length).
ACCEPT_ALL = 0xFFFF

_ETHERTYPE_OFF = 12
_IP_START = 14
_IP_PROTO_OFF = _IP_START + 9
_IP_SRC_OFF = _IP_START + 12
_IP_DST_OFF = _IP_START + 16
_IP_FRAG_OFF = _IP_START + 6


def compile_session_filter(proto, local_ip, local_port,
                           remote_ip=None, remote_port=None):
    """A filter accepting frames addressed to one session's local endpoint.

    ``proto`` is the IP protocol number (6 TCP, 17 UDP).  With a remote
    endpoint given, the filter is fully connected (matches the 5-tuple);
    without one it matches any sender (an unconnected UDP socket or a
    listening TCP socket).  Fragmented packets with a nonzero offset are
    rejected — the kernel reassembles before filtering, as Mach did.
    """

    def reject_distance(insns_remaining):
        # Jump straight to the final RET 0 (the last instruction).
        return insns_remaining

    program = []

    def jeq_chain(load_insns, value):
        """Append load + JEQ that falls through on match."""
        program.extend(load_insns)
        program.append(Insn(Op.JEQ, k=value, jt=0, jf=None))  # jf patched later

    jeq_chain([Insn(Op.LD_H, k=_ETHERTYPE_OFF)], ETHERTYPE_IP)
    jeq_chain([Insn(Op.LD_B, k=_IP_PROTO_OFF)], proto)
    jeq_chain([Insn(Op.LD_W, k=_IP_DST_OFF)], local_ip)
    if remote_ip is not None:
        jeq_chain([Insn(Op.LD_W, k=_IP_SRC_OFF)], remote_ip)

    # Reject non-first fragments: their transport header is elsewhere.
    program.append(Insn(Op.LD_H, k=_IP_FRAG_OFF))
    program.append(Insn(Op.AND, k=0x1FFF))
    program.append(Insn(Op.JEQ, k=0, jt=0, jf=None))

    # Transport ports live past the (variable-length) IP header.
    program.append(Insn(Op.LDX_MSH, k=_IP_START))
    jeq_chain([Insn(Op.LD_IND_H, k=_IP_START + 2)], local_port)  # dst port
    if remote_port is not None:
        jeq_chain([Insn(Op.LD_IND_H, k=_IP_START)], remote_port)  # src port

    program.append(Insn(Op.RET, k=ACCEPT_ALL))
    program.append(Insn(Op.RET, k=0))

    # Patch every pending false-branch to target the trailing RET 0.
    last = len(program) - 1
    for i, insn in enumerate(program):
        if insn.jf is None:
            insn.jf = reject_distance(last - (i + 1))
    return validate(FilterProgram(program))


def compile_ip_protocol_filter(proto):
    """A filter accepting every IP packet of one protocol (e.g. ICMP)."""
    program = [
        Insn(Op.LD_H, k=_ETHERTYPE_OFF),
        Insn(Op.JEQ, k=ETHERTYPE_IP, jt=0, jf=2),
        Insn(Op.LD_B, k=_IP_PROTO_OFF),
        Insn(Op.JEQ, k=proto, jt=0, jf=1),
        Insn(Op.RET, k=ACCEPT_ALL),
        Insn(Op.RET, k=0),
    ]
    return validate(FilterProgram(program))


def compile_arp_filter():
    """A filter accepting ARP frames (installed by the OS server)."""
    program = [
        Insn(Op.LD_H, k=_ETHERTYPE_OFF),
        Insn(Op.JEQ, k=ETHERTYPE_ARP, jt=0, jf=1),
        Insn(Op.RET, k=ACCEPT_ALL),
        Insn(Op.RET, k=0),
    ]
    return validate(FilterProgram(program))
