"""TCP sequence arithmetic near the 2**32 wrap."""

from hypothesis import example, given, strategies as st

from repro.net.tcp import seq

seqs = st.integers(0, (1 << 32) - 1)
small = st.integers(0, 1 << 20)


def test_wraparound_comparisons():
    near_top = (1 << 32) - 10
    assert seq.seq_lt(near_top, 5)  # 5 is "after" the wrap
    assert seq.seq_gt(5, near_top)
    assert seq.seq_add(near_top, 20) == 10


@given(seqs, small)
def test_lt_after_add(base, delta):
    if delta:
        assert seq.seq_lt(base, seq.seq_add(base, delta))
        assert seq.seq_gt(seq.seq_add(base, delta), base)


@given(seqs)
def test_reflexive(base):
    assert seq.seq_le(base, base)
    assert seq.seq_ge(base, base)
    assert not seq.seq_lt(base, base)
    assert seq.seq_diff(base, base) == 0


@given(seqs, small)
def test_diff_inverts_add(base, delta):
    assert seq.seq_diff(seq.seq_add(base, delta), base) == delta
    assert seq.seq_diff(base, seq.seq_add(base, delta)) == -delta


@given(seqs, small, small)
def test_between(base, a, b):
    low = seq.seq_add(base, min(a, b))
    high = seq.seq_add(base, max(a, b) + 1)
    mid = seq.seq_add(base, (min(a, b) + max(a, b)) // 2)
    assert seq.seq_between(low, mid, high)


@example(0, 1 << 31)
@example(1 << 31, 0)
@given(seqs, seqs)
def test_max_min_consistent(a, b):
    hi = seq.seq_max(a, b)
    lo = seq.seq_min(a, b)
    assert {hi, lo} == {a, b}
    if (a - b) % seq.MOD == seq.MOD >> 1:
        # Half the sequence space apart, each is "before" the other, as
        # with BSD's SEQ_LT: there is no order for max/min to respect.
        assert seq.seq_lt(a, b) and seq.seq_lt(b, a)
    else:
        assert seq.seq_ge(hi, lo)
