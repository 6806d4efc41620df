import functools

import pytest
from hypothesis import given, strategies as st

from cswp.core import apply_mnemonic
from cswp.knownbits import KnownBits, ite, knownbits_transfer


class TestConstruction:
    def test_constant_contains_only_itself(self):
        k = KnownBits.from_constant(0xA, 4)
        assert k.is_constant()
        assert [k.contains(v) for v in range(16)] == [v == 0xA for v in range(16)]

    def test_top_contains_everything(self):
        k = KnownBits.top(4)
        assert all(k.contains(v) for v in range(16))

    def test_binary01(self):
        k = KnownBits.binary01(4)
        assert k.contains(0) and k.contains(1)
        assert not any(k.contains(v) for v in range(2, 16))

    def test_from_str_and_str_inverse(self):
        for s in ("0000", "1?1?", "????", "0011"):
            assert str(KnownBits.from_str(s)) == s

    def test_bit_states(self):
        k = KnownBits.from_str("?10")
        assert k.bit_states() == ["0", "1", "?"]

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            KnownBits(1, 1, 4)

    def test_out_of_width_rejected(self):
        with pytest.raises(ValueError):
            KnownBits(0x10, 0, 4)


class TestTransferExamples:
    def test_and_with_mask(self):
        out = knownbits_transfer("and", [KnownBits.top(8), KnownBits.from_constant(1, 8)])
        assert str(out) == "0000000?"

    def test_xor_of_equal_constants_is_zero(self):
        k = KnownBits.from_constant(0x5, 4)
        assert knownbits_transfer("xor", [k, k]) == KnownBits.from_constant(0, 4)

    def test_add_carry_stops_at_known_zero_pair(self):
        # concretizations {1+0, 1+1} = {1, 2}: bits 0,1 unknown, bits 2,3 zero
        out = knownbits_transfer("add", [KnownBits.from_constant(1, 4), KnownBits.binary01(4)])
        assert str(out) == "00??"

    def test_mov_identity(self):
        k = KnownBits.from_str("1?0")
        assert knownbits_transfer("mov", [k]) == k

    def test_not(self):
        assert str(knownbits_transfer("not", [KnownBits.from_str("1?0")])) == "0?1"

    def test_shift_by_known_amount(self):
        k = KnownBits.from_str("00?1")
        assert str(knownbits_transfer("shl", [k, KnownBits.from_constant(1, 4)])) == "0?10"
        assert str(knownbits_transfer("shr", [k, KnownBits.from_constant(1, 4)])) == "000?"

    def test_shift_by_unknown_amount_is_top(self):
        k = KnownBits.from_constant(3, 4)
        assert knownbits_transfer("shl", [k, KnownBits.binary01(4)]) == KnownBits.top(4)

    def test_eqz(self):
        assert knownbits_transfer("eqz", [KnownBits.from_constant(0, 4)]) == KnownBits.from_constant(1, 4)
        assert knownbits_transfer("eqz", [KnownBits.from_str("??1?")]) == KnownBits.from_constant(0, 4)
        assert str(knownbits_transfer("eqz", [KnownBits.binary01(4)])) == "000?"

    def test_ite_known_conditions(self):
        a, b = KnownBits.from_constant(0xA, 4), KnownBits.from_constant(0x5, 4)
        assert ite(KnownBits.from_str("10?0"), a, b) == a  # certainly nonzero
        assert ite(KnownBits.from_constant(0, 4), a, b) == b
        joined = ite(KnownBits.binary01(4), a, b)
        assert joined.contains(0xA) and joined.contains(0x5)

    def test_arity_checked(self):
        with pytest.raises(ValueError):
            knownbits_transfer("add", [KnownBits.top(4)])

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            knownbits_transfer("add", [KnownBits.top(4), KnownBits.top(8)])


# ---------------------------------------------------------------------------
# soundness: for every concretization of the inputs, the concrete result is
# inside the concretization of the abstract output

WIDTHS = [6, 64]
TWO_ARG = ["add", "sub", "and", "or", "xor", "shl", "shr"]
ONE_ARG = ["mov", "not", "eqz"]


@st.composite
def knownbits_with_member(draw, width):
    value = draw(st.integers(0, (1 << width) - 1))
    unknowns = draw(st.integers(0, (1 << width) - 1))
    return KnownBits(value & ~unknowns, unknowns, width), value


def members(count):
    """`count` (abstract value, one of its members) pairs of one width."""
    return st.sampled_from(WIDTHS).flatmap(
        lambda w: st.tuples(*[knownbits_with_member(w)] * count))


@given(st.sampled_from(ONE_ARG), members(1))
def test_one_arg_soundness(mnemonic, pairs):
    ((k, v),) = pairs
    assert k.contains(v)
    out = knownbits_transfer(mnemonic, [k])
    assert out.contains(apply_mnemonic(mnemonic, (v,), k.width))


@given(st.sampled_from(TWO_ARG), members(2))
def test_two_arg_soundness(mnemonic, pairs):
    (ka, va), (kb, vb) = pairs
    out = knownbits_transfer(mnemonic, [ka, kb])
    assert out.contains(apply_mnemonic(mnemonic, (va, vb), ka.width))


@given(members(3))
def test_ite_soundness(pairs):
    (kc, vc), (ka, va), (kb, vb) = pairs
    out = knownbits_transfer("ite", [kc, ka, kb])
    assert out.contains(apply_mnemonic("ite", (vc, va, vb), ka.width))


@given(members(2))
def test_join_covers_both_sides(pairs):
    (ka, va), (kb, vb) = pairs
    joined = ka.join(kb)
    assert joined.contains(va) and joined.contains(vb)


@pytest.mark.parametrize("mnemonic", ["add", "sub"])
def test_arithmetic_exhaustive_small_width(mnemonic):
    # every abstract pair at w=3: the output is exactly the join of the
    # concrete results, so it is sound and loses nothing
    w = 3
    abstracts = [
        KnownBits(ones, unk, w)
        for ones in range(8)
        for unk in range(8)
        if not ones & unk
    ]
    for ka in abstracts:
        for kb in abstracts:
            results = [
                KnownBits.from_constant(apply_mnemonic(mnemonic, (va, vb), w), w)
                for va in range(8) if ka.contains(va)
                for vb in range(8) if kb.contains(vb)
            ]
            assert knownbits_transfer(mnemonic, [ka, kb]) == functools.reduce(KnownBits.join, results)
