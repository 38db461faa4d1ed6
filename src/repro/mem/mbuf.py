"""BSD mbufs: the protocols' internal unit of memory allocation.

The paper's protocol code (BNR2 / 4.3BSD derived) stores all packet data
in chains of fixed-size ``mbuf`` structures; ``entry/copyin`` in Table 4
is precisely the cost of converting a user buffer into an mbuf chain.  We
reproduce the structure faithfully enough for the costs and the classic
operations (prepend, adj, split, copy, pullup, cat) to be meaningful,
because the layered protocol code manipulates headers exactly this way.

Sizes follow 4.3BSD: small mbufs hold up to 112 bytes of data (128 minus
the header), and larger payloads go to 2048-byte clusters.
"""

MLEN = 112  # data bytes in a small mbuf
MHLEN = 100  # data bytes in a packet-header mbuf (leaves leading space)
MCLBYTES = 2048  # bytes in a cluster
MINCLSIZE = 208  # smallest amount worth putting in a cluster


class MbufStats:
    """Allocation statistics, for tests and the cost model."""

    __slots__ = ("allocated", "freed", "cluster_allocs")

    def __init__(self):
        self.allocated = 0
        self.freed = 0
        self.cluster_allocs = 0

    @property
    def live(self):
        return self.allocated - self.freed


class Mbuf:
    """One link of an mbuf chain.

    ``data`` is a ``memoryview``-friendly ``bytes`` slice; ``leading``
    tracks free space before the data, so headers can be prepended without
    allocation (the common fast path in the send direction).
    """

    __slots__ = ("buf", "off", "len", "next", "is_cluster")

    def __init__(self, capacity=MLEN, leading=0, is_cluster=False):
        self.buf = bytearray(capacity + leading)
        self.off = leading
        self.len = 0
        self.next = None
        self.is_cluster = is_cluster

    # ------------------------------------------------------------------
    # Single-mbuf accessors
    # ------------------------------------------------------------------

    @property
    def data(self):
        """The live bytes of this mbuf."""
        # A memoryview slice costs nothing; bytes() then copies once.
        # Slicing the bytearray directly would copy twice.
        return bytes(memoryview(self.buf)[self.off : self.off + self.len])

    def set_data(self, payload):
        if self.off + len(payload) > len(self.buf):
            raise ValueError("payload %d too large for mbuf" % len(payload))
        self.buf[self.off : self.off + len(payload)] = payload
        self.len = len(payload)

    # ------------------------------------------------------------------
    # Chain construction
    # ------------------------------------------------------------------

    @classmethod
    def from_bytes(cls, payload, stats=None, header_space=16):
        """Build an mbuf chain holding ``payload``.

        The first mbuf reserves ``header_space`` leading bytes so protocol
        headers can be prepended in place.  Returns the head of the chain;
        an empty payload still yields one (empty) mbuf.
        """
        head = None
        tail = None
        remaining = memoryview(payload)
        first = True
        while first or len(remaining):
            leading = header_space if first else 0
            if len(remaining) >= MINCLSIZE:
                m = cls(capacity=MCLBYTES, leading=leading, is_cluster=True)
                if stats is not None:
                    stats.cluster_allocs += 1
            else:
                m = cls(capacity=MLEN, leading=leading)
            if stats is not None:
                stats.allocated += 1
            take = min(len(remaining), len(m.buf) - m.off)
            m.set_data(remaining[:take])
            remaining = remaining[take:]
            if head is None:
                head = m
            else:
                tail.next = m
            tail = m
            first = False
        return head

    def to_bytes(self):
        """Flatten the whole chain into one bytes object."""
        # join() reads the memoryviews directly, so each mbuf's bytes
        # are copied exactly once, into the result.
        parts = []
        m = self
        while m is not None:
            parts.append(memoryview(m.buf)[m.off : m.off + m.len])
            m = m.next
        return b"".join(parts)

    def chain_len(self):
        """Total data bytes in the chain."""
        total = 0
        m = self
        while m is not None:
            total += m.len
            m = m.next
        return total

    def chain_count(self):
        """Number of mbufs in the chain."""
        count = 0
        m = self
        while m is not None:
            count += 1
            m = m.next
        return count

    def free_chain(self, stats=None):
        """Account for freeing the whole chain."""
        if stats is not None:
            stats.freed += self.chain_count()

    # ------------------------------------------------------------------
    # The classic m_* operations
    # ------------------------------------------------------------------

    def prepend(self, header, stats=None):
        """``m_prepend``: put ``header`` in front of the chain.

        Uses the head mbuf's leading space when possible; otherwise
        allocates a new head mbuf.  Returns the (possibly new) head.
        """
        header = bytes(header)
        if len(header) <= self.off:
            self.off -= len(header)
            self.buf[self.off : self.off + len(header)] = header
            self.len += len(header)
            return self
        m = Mbuf(capacity=max(MLEN, len(header)), leading=0)
        if stats is not None:
            stats.allocated += 1
        m.set_data(header)
        m.next = self
        return m

    def adj(self, count):
        """``m_adj``: trim ``count`` bytes from the front (positive) or the
        back (negative) of the chain, in place."""
        if count >= 0:
            m = self
            while m is not None and count > 0:
                take = min(count, m.len)
                m.off += take
                m.len -= take
                count -= take
                m = m.next
            if count > 0:
                raise ValueError("adj beyond chain length")
        else:
            count = -count
            total = self.chain_len()
            if count > total:
                raise ValueError("adj beyond chain length")
            keep = total - count
            m = self
            while m is not None:
                if keep >= m.len:
                    keep -= m.len
                else:
                    m.len = keep
                    keep = 0
                m = m.next

    def copy(self, off=0, length=None, stats=None):
        """``m_copym``: a new chain holding ``length`` bytes from ``off``.

        4.3BSD shares clusters copy-on-write; we copy for simplicity — the
        cost model charges for the copy where the real code would, and
        correctness is identical.
        """
        total = self.chain_len()
        if length is None:
            length = total - off
        if off < 0 or off + length > total:
            raise ValueError("copy range out of bounds")
        # Gather only the requested range, as views — no flattening of
        # the whole chain, one copy into the new chain's buffers.
        parts = []
        skip = off
        need = length
        m = self
        while m is not None and need > 0:
            if skip >= m.len:
                skip -= m.len
            else:
                take = min(m.len - skip, need)
                start = m.off + skip
                parts.append(memoryview(m.buf)[start : start + take])
                skip = 0
                need -= take
            m = m.next
        return Mbuf.from_bytes(b"".join(parts), stats=stats)

    def cat(self, other):
        """``m_cat``: append ``other``'s chain to this one."""
        m = self
        while m.next is not None:
            m = m.next
        m.next = other

    def pullup(self, count):
        """``m_pullup``: ensure the first ``count`` bytes are contiguous in
        the head mbuf.  Returns the head (self)."""
        if count > self.chain_len():
            raise ValueError("pullup beyond chain length")
        if self.len >= count:
            return self
        # Gather just the first ``count`` bytes; the tail mbufs keep
        # their buffers (only their windows move) instead of the whole
        # chain being flattened and rebuilt.
        parts = [memoryview(self.buf)[self.off : self.off + self.len]]
        need = count - self.len
        m = self.next
        while need > 0:
            take = min(m.len, need)
            parts.append(memoryview(m.buf)[m.off : m.off + take])
            m.off += take
            m.len -= take
            need -= take
            if m.len == 0:
                m = m.next
        head = b"".join(parts)
        if len(self.buf) < count:
            self.buf = bytearray(count)
        self.off = 0
        self.buf[:count] = head
        self.len = count
        while m is not None and m.len == 0:
            m = m.next
        self.next = m
        return self

    def split(self, off, stats=None):
        """``m_split``: split the chain at ``off``; returns the tail chain
        and truncates self to the first ``off`` bytes."""
        total = self.chain_len()
        if off < 0 or off > total:
            raise ValueError("split point out of bounds")
        tail_bytes = self.to_bytes()[off:]
        self.adj(-(total - off))
        return Mbuf.from_bytes(tail_bytes, stats=stats, header_space=0)

    def __repr__(self):
        return "<Mbuf chain len=%d bufs=%d>" % (self.chain_len(), self.chain_count())
