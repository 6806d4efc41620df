import inspect

import pytest
from hypothesis import given, strategies as st

from cswp import knownbits
from cswp.core import ARITY, COPIES, MNEMONICS, apply_mnemonic, vector_ops
from cswp.knownbits import TRANSFER
from tnum import contains, from_str, is_tnum, to_str

TOP4 = (0, 0xF)
BINARY4 = (0, 1)  # 000?: the domain of a 0/1 input at width 4


class TestConstruction:
    def test_constant_contains_only_itself(self):
        assert [contains((0xA, 0), v, 4) for v in range(16)] == [v == 0xA for v in range(16)]

    def test_top_contains_everything(self):
        assert all(contains(TOP4, v, 4) for v in range(16))

    def test_binary01(self):
        assert contains(BINARY4, 0, 4) and contains(BINARY4, 1, 4)
        assert not any(contains(BINARY4, v, 4) for v in range(2, 16))


class TestTransferExamples:
    def test_and_with_mask(self):
        assert to_str(TRANSFER["and"](8, (0, 0xFF), (1, 0)), 8) == "0000000?"

    def test_xor_of_equal_constants_is_zero(self):
        assert TRANSFER["xor"](4, (0x5, 0), (0x5, 0)) == (0, 0)

    def test_add_carry_stops_at_known_zero_pair(self):
        # concretizations {1+0, 1+1} = {1, 2}: bits 0,1 unknown, bits 2,3 zero
        assert to_str(TRANSFER["add"](4, (1, 0), BINARY4), 4) == "00??"

    def test_not(self):
        assert to_str(TRANSFER["not"](3, from_str("1?0")), 3) == "0?1"

    def test_shift_by_known_amount(self):
        k = from_str("00?1")
        assert to_str(TRANSFER["shl"](4, k, (1, 0)), 4) == "0?10"
        assert to_str(TRANSFER["shr"](4, k, (1, 0)), 4) == "000?"

    def test_shift_by_unknown_amount_is_top(self):
        assert TRANSFER["shl"](4, (3, 0), BINARY4) == TOP4

    def test_eqz(self):
        assert TRANSFER["eqz"](4, (0, 0)) == (1, 0)
        assert TRANSFER["eqz"](4, from_str("??1?")) == (0, 0)
        assert to_str(TRANSFER["eqz"](4, BINARY4), 4) == "000?"

    def test_ite_known_conditions(self):
        a, b = (0xA, 0), (0x5, 0)
        assert TRANSFER["ite"](4, from_str("10?0"), a, b) == a  # certainly nonzero
        assert TRANSFER["ite"](4, (0, 0), a, b) == b
        joined = TRANSFER["ite"](4, BINARY4, a, b)
        assert contains(joined, 0xA, 4) and contains(joined, 0x5, 4)


def test_table_covers_every_mnemonic():
    # one entry per mnemonic that is not a copy (the lowering resolves a copy
    # to its operand), the same keys as the column table's, each taking the
    # width and one pair per operand
    for w in (1, 8, 64):
        assert TRANSFER.keys() == vector_ops(w).keys() == MNEMONICS - COPIES
    for mnemonic, transfer in TRANSFER.items():
        assert len(inspect.signature(transfer).parameters) == 1 + ARITY[mnemonic], mnemonic


# ---------------------------------------------------------------------------
# soundness: for every concretization of the inputs, the concrete result is
# inside the concretization of the abstract output, and that output is a
# valid tnum of the width

WIDTHS = [6, 64]
TWO_ARG = ["add", "sub", "and", "or", "xor", "shl", "shr"]
ONE_ARG = ["not", "eqz"]


@st.composite
def tnum_with_member(draw, width):
    value = draw(st.integers(0, (1 << width) - 1))
    unknowns = draw(st.integers(0, (1 << width) - 1))
    return (value & ~unknowns, unknowns), value


def members(count):
    """(width, `count` (pair, one of its members) tuples of that width)."""
    return st.sampled_from(WIDTHS).flatmap(
        lambda w: st.tuples(st.just(w), st.tuples(*[tnum_with_member(w)] * count)))


@given(st.sampled_from(ONE_ARG), members(1))
def test_one_arg_soundness(mnemonic, case):
    w, ((k, v),) = case
    assert contains(k, v, w)
    out = TRANSFER[mnemonic](w, k)
    assert is_tnum(out, w)
    assert contains(out, apply_mnemonic(mnemonic, (v,), w), w)


@given(st.sampled_from(TWO_ARG), members(2))
def test_two_arg_soundness(mnemonic, case):
    w, ((ka, va), (kb, vb)) = case
    out = TRANSFER[mnemonic](w, ka, kb)
    assert is_tnum(out, w)
    assert contains(out, apply_mnemonic(mnemonic, (va, vb), w), w)


@given(members(3))
def test_ite_soundness(case):
    w, ((kc, vc), (ka, va), (kb, vb)) = case
    out = TRANSFER["ite"](w, kc, ka, kb)
    assert is_tnum(out, w)
    assert contains(out, apply_mnemonic("ite", (vc, va, vb), w), w)


@given(members(2))
def test_join_covers_both_sides(case):
    w, ((ka, va), (kb, vb)) = case
    joined = knownbits._join(w, ka, kb)
    assert is_tnum(joined, w)
    assert contains(joined, va, w) and contains(joined, vb, w)


@pytest.mark.parametrize("mnemonic", ["add", "sub"])
def test_arithmetic_exhaustive_small_width(mnemonic):
    # every abstract pair at w=3: the output is exactly the smallest tnum
    # covering the concrete results (known 1 where all of them are 1,
    # unknown where they differ), so it is sound and loses nothing
    w = 3
    abstracts = [(ones, unk) for ones in range(8) for unk in range(8) if not ones & unk]
    for ka in abstracts:
        for kb in abstracts:
            all_ones, any_ones = 7, 0
            for va in range(8):
                for vb in range(8):
                    if contains(ka, va, w) and contains(kb, vb, w):
                        r = apply_mnemonic(mnemonic, (va, vb), w)
                        all_ones &= r
                        any_ones |= r
            assert TRANSFER[mnemonic](w, ka, kb) == (all_ones, any_ones & ~all_ones)
