"""ARP: the Address Resolution Protocol (RFC 826), for IPv4 over Ethernet.

In the paper's architecture ARP is explicitly *not* on the fast path: the
operating system server answers ARP queries and owns the authoritative
cache ("the handling of exceptional network packets like ARP queries"),
while applications cache mappings from the server and get invalidated by
callback (Section 3.3, reproduced in :mod:`repro.core.metastate`).
"""

import struct

from repro.net.addr import ip_ntoa

OP_REQUEST = 1
OP_REPLY = 2


class ArpTimeout(Exception):
    """No ARP reply after the maximum number of retries (the target is
    absent or unreachable at the link layer)."""

HTYPE_ETHERNET = 1
PTYPE_IPV4 = 0x0800

PACKET_LEN = 28

#: Default cache lifetime, microseconds (BSD used 20 minutes).
DEFAULT_TTL_US = 20 * 60 * 1_000_000.0


class ArpPacket:
    """An ARP request or reply for IPv4-over-Ethernet."""

    __slots__ = ("op", "sender_mac", "sender_ip", "target_mac", "target_ip")

    def __init__(self, op, sender_mac, sender_ip, target_mac, target_ip):
        if op not in (OP_REQUEST, OP_REPLY):
            raise ValueError("bad ARP op: %r" % op)
        self.op = op
        self.sender_mac = bytes(sender_mac)
        self.sender_ip = sender_ip
        self.target_mac = bytes(target_mac)
        self.target_ip = target_ip

    def pack(self):
        return (
            struct.pack("!HHBBH", HTYPE_ETHERNET, PTYPE_IPV4, 6, 4, self.op)
            + self.sender_mac
            + struct.pack("!I", self.sender_ip)
            + self.target_mac
            + struct.pack("!I", self.target_ip)
        )

    @classmethod
    def unpack(cls, data):
        if len(data) < PACKET_LEN:
            raise ValueError("ARP packet too short: %d" % len(data))
        htype, ptype, hlen, plen, op = struct.unpack_from("!HHBBH", data, 0)
        if htype != HTYPE_ETHERNET or ptype != PTYPE_IPV4 or hlen != 6 or plen != 4:
            raise ValueError("unsupported ARP packet type")
        sender_mac = bytes(data[8:14])
        (sender_ip,) = struct.unpack_from("!I", data, 14)
        target_mac = bytes(data[18:24])
        (target_ip,) = struct.unpack_from("!I", data, 24)
        return cls(op, sender_mac, sender_ip, target_mac, target_ip)

    @classmethod
    def request(cls, sender_mac, sender_ip, target_ip):
        return cls(OP_REQUEST, sender_mac, sender_ip, b"\x00" * 6, target_ip)

    def reply_from(self, my_mac):
        """Build the reply a host owning ``target_ip`` would send."""
        return ArpPacket(
            OP_REPLY, my_mac, self.target_ip, self.sender_mac, self.sender_ip
        )

    def __repr__(self):
        kind = "REQUEST" if self.op == OP_REQUEST else "REPLY"
        return "<ARP %s %s -> %s>" % (
            kind,
            ip_ntoa(self.sender_ip),
            ip_ntoa(self.target_ip),
        )


class ArpCache:
    """An IP -> MAC cache with expiry, in simulated time.

    ``clock`` is any zero-argument callable returning the current time in
    microseconds; using a callable keeps the cache usable from both the OS
    server (authoritative) and applications (cached copies).
    """

    def __init__(self, clock, ttl_us=DEFAULT_TTL_US):
        self._clock = clock
        self._ttl = ttl_us
        self._entries = {}
        self.hits = 0
        self.misses = 0

    def insert(self, ip, mac):
        self._entries[ip] = self.entry(mac)

    def entry(self, mac):
        """The ``(mac, expires)`` entry an insert of ``mac`` stores now.

        It is immutable, so caches that compute equal entries may hold
        one object (:func:`repro.world.topology.warm_arp` does)."""
        return (bytes(mac), self._clock() + self._ttl)

    def put(self, ip, entry):
        """Store an :meth:`entry` made by this cache or an equal one."""
        self._entries[ip] = entry

    def lookup(self, ip):
        """The MAC for ``ip``, or None on miss/expiry."""
        entry = self._entries.get(ip)
        if entry is None:
            self.misses += 1
            return None
        mac, expires = entry
        if self._clock() >= expires:
            del self._entries[ip]
            self.misses += 1
            return None
        self.hits += 1
        return mac

    def invalidate(self, ip):
        """Drop one entry (server-driven callback invalidation, §3.3)."""
        self._entries.pop(ip, None)

    def flush(self):
        self._entries.clear()

    def __len__(self):
        return len(self._entries)

    def entries(self):
        """Snapshot of live (ip, mac) pairs."""
        now = self._clock()
        return {
            ip: mac for ip, (mac, expires) in self._entries.items() if expires > now
        }
