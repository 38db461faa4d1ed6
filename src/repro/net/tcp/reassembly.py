"""Out-of-order segment reassembly (the BSD tcp_reass queue)."""

from repro.net.tcp.seq import seq_add, seq_diff, seq_ge, seq_le


class ReassemblyQueue:
    """Holds out-of-order payload keyed by sequence number.

    ``insert`` files an arriving segment; ``extract`` pulls every byte
    that is now contiguous with ``rcv_nxt`` and returns it along with the
    new ``rcv_nxt``.
    """

    def __init__(self):
        self._segments = []  # sorted list of [seq, bytearray]
        self.overlaps_trimmed = 0
        #: Total buffered bytes, maintained by insert/extract so the
        #: per-segment window math reads an attribute instead of
        #: summing the queue (which is almost always empty).
        self.used = 0

    def __len__(self):
        return self.used

    def insert(self, seq, data):
        """File ``data`` at sequence ``seq``, trimming any overlap."""
        if not data:
            return
        data = bytes(data)
        merged = []
        new_seq, new_data = seq, bytearray(data)
        for cur_seq, cur_data in self._segments:
            cur_end = seq_add(cur_seq, len(cur_data))
            new_end = seq_add(new_seq, len(new_data))
            if seq_le(cur_end, new_seq) and cur_end != new_seq:
                merged.append([cur_seq, cur_data])  # entirely before, no touch
            elif seq_ge(cur_seq, new_end) and cur_seq != new_end:
                merged.append([cur_seq, cur_data])  # entirely after, no touch
            else:
                # Overlapping or adjacent: coalesce into the new block.
                self.overlaps_trimmed += 1
                start = new_seq if seq_le(new_seq, cur_seq) else cur_seq
                combined = bytearray()
                first, second = sorted(
                    ([new_seq, new_data], [cur_seq, cur_data]),
                    key=lambda item: seq_diff(item[0], start),
                )
                combined.extend(first[1])
                overlap = seq_diff(seq_add(first[0], len(first[1])), second[0])
                if overlap < len(second[1]):
                    combined.extend(second[1][max(0, overlap):])
                new_seq, new_data = start, combined
        merged.append([new_seq, new_data])
        merged.sort(key=lambda item: item[0])
        # Normalize ordering in sequence space relative to the first block.
        base = merged[0][0]
        merged.sort(key=lambda item: seq_diff(item[0], base))
        self._segments = merged
        self.used = sum(len(data) for _seq, data in merged)

    def extract(self, rcv_nxt):
        """Return (data, new_rcv_nxt): all bytes contiguous from rcv_nxt."""
        out = bytearray()
        remaining = []
        for seg_seq, seg_data in self._segments:
            seg_end = seq_add(seg_seq, len(seg_data))
            if seq_le(seg_end, rcv_nxt):
                continue  # wholly old data
            if seq_le(seg_seq, rcv_nxt):
                skip = seq_diff(rcv_nxt, seg_seq)
                out.extend(seg_data[skip:])
                rcv_nxt = seg_end
            else:
                remaining.append([seg_seq, seg_data])
        self._segments = remaining
        self.used = sum(len(data) for _seq, data in remaining)
        return bytes(out), rcv_nxt
