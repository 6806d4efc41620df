import itertools
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cswp import analysis
from cswp.analysis import (
    EnumerationBudgetError,
    brute_force_worst_case,
    coarse_upper_bound,
    knownbits_upper_bound,
)
from cswp.core import (
    BINARY01,
    COPIES,
    FULL,
    Const,
    Free,
    Instruction,
    MemRead,
    PriorOutput,
    Program,
    apply_mnemonic,
    execute,
    vector_ops,
)
from cswp.reductions import reduce_maxsat2, reduce_sat_gap
from cswp.sat import MaxSat2Instance, SatInstance

from oracles import all_satisfied, count_satisfied, maxsat_oracle, sat_oracle
from randprog import random_program
from tnum import abstract_outputs, contains


def prog(width, instructions, free_inputs=(), mem_size=0):
    return Program(width=width, mem_size=mem_size, instructions=instructions,
                   free_inputs=free_inputs)


def random_assignment(rng, p):
    return {name: (rng.randrange(2) if d == BINARY01 else rng.randrange(1 << p.width))
            for name, d in p.free_inputs}


class TestBruteForce:
    def test_xor_constant_ties_break_lexicographically(self):
        p = prog(2, [
            Instruction("mov", (Free("0"),)),
            Instruction("xor", (PriorOutput(0), Const(0x3))),
        ], free_inputs=[("0", FULL)])
        result = brute_force_worst_case(p)
        assert result.max_switching == 2
        assert result.witness == {"0": 0}
        assert result.explored == 4

    def test_doubling_program(self):
        p = prog(2, [
            Instruction("mov", (Free("0"),)),
            Instruction("add", (PriorOutput(0), PriorOutput(0))),
        ], free_inputs=[("0", FULL)])
        result = brute_force_worst_case(p)
        assert result.max_switching == 2
        assert result.witness == {"0": 1}

    def test_no_free_inputs(self):
        p = prog(4, [Instruction("mov", (Const(0),)), Instruction("mov", (Const(0xF),))])
        result = brute_force_worst_case(p)
        assert result.max_switching == 4
        assert result.witness == {}
        assert result.explored == 1

    def test_budget_error_names_required_count(self):
        p = prog(8, [Instruction("mov", (Free("0"),))], free_inputs=[("0", FULL)])
        with pytest.raises(EnumerationBudgetError) as exc:
            brute_force_worst_case(p, budget=100)
        assert exc.value.required == 256
        assert "256" in str(exc.value)

    def test_witness_reproduces_maximum(self):
        rng = random.Random(17)
        for _ in range(30):
            p = random_program(rng)
            result = brute_force_worst_case(p)
            assert sum(execute(p, result.witness).transitions) == result.max_switching

    def test_any_chunk_size_matches_one_chunk(self, monkeypatch):
        # maxima recur across chunks, so this checks that a later chunk
        # never displaces an earlier witness with an equal total
        rng = random.Random(29)
        programs = [random_program(rng) for _ in range(10)]
        programs.append(prog(2, [
            Instruction("mov", (Free("0"),)),
            Instruction("xor", (PriorOutput(0), Const(0x3))),
        ], free_inputs=[("0", FULL)]))
        # and as many programs whose columns are uint64, over binary inputs
        wide = (random_program(rng, max_width=64, max_full_inputs=0, max_binary_inputs=4)
                for _ in range(100))
        programs += [p for p in wide if p.width > 32 and len(p.free_inputs) > 2][:11]
        assert {analysis._lower(p).dtype for p in programs} == {np.dtype(np.uint8), np.dtype(np.uint64)}
        one_chunk = [brute_force_worst_case(p) for p in programs]
        for rows in (1, 3, 7):
            scanned = set()  # the dtypes the scan ran at: a wider field or a fallback from planes
            monkeypatch.setattr(analysis, "_chunk_rows", lambda dtype: scanned.add(dtype) or rows)
            assert [brute_force_worst_case(p) for p in programs] == one_chunk
            assert scanned == {np.dtype(np.uint8), np.dtype(np.uint64)}


def scalar_worst_case(p):
    """Reference scan: itertools.product over the domains, scalar interpreter."""
    names = [name for name, _ in p.free_inputs]
    domains = [range(2) if d == BINARY01 else range(1 << p.width) for _, d in p.free_inputs]
    totals, combos = [], []
    for combo in itertools.product(*domains):
        outputs = execute(p, dict(zip(names, combo))).outputs
        totals.append(sum((a ^ b).bit_count() for a, b in zip(outputs, outputs[1:])))
        combos.append(dict(zip(names, combo)))
    return totals, combos


# widths at both ends of each column dtype's range
COLUMN_WIDTHS = [1, 8, 9, 16, 17, 32, 33, 64]
COLUMN_DTYPES = [np.uint8, np.uint16, np.uint32, np.uint64]


class TestVectorizedEngine:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 3, 7, 4096]), st.booleans())
    def test_matches_scalar_interpreter(self, seed, rows, wide):
        # a wide program takes any width, so any column dtype, over binary inputs
        shape = dict(max_width=64, max_full_inputs=0, max_binary_inputs=4) if wide else {}
        p = random_program(random.Random(seed), **shape)
        totals, combos = scalar_worst_case(p)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lowered = analysis._lower(p)
            vector = analysis._scan_chunk(lowered, 0, len(totals))
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(analysis, "_chunk_rows", lambda dtype: rows)
                result = brute_force_worst_case(p)
                scanned = analysis._search(analysis._scan_max, lowered, len(totals), rows)  # whatever took p
        for index, combo in enumerate(combos):
            assert vector[index] == sum(execute(p, combo).transitions) == totals[index]
        best = max(totals)
        assert scanned == (best, totals.index(best))
        assert result.max_switching == best
        assert result.witness == combos[totals.index(best)]
        assert result.explored == len(totals)
        assert all(type(v) is int for v in result.witness.values())

    @pytest.mark.parametrize("width", COLUMN_WIDTHS)
    def test_edge_semantics(self, width):
        # every dtype that holds the width: the engine takes the narrowest,
        # the grid generator uint64 at any width
        for dtype in COLUMN_DTYPES:
            if np.iinfo(dtype).bits >= width:
                self.check_edge_semantics(width, dtype)

    def check_edge_semantics(self, width, dtype):
        top = (1 << width) - 1
        cases = [
            ("shl", top, width), ("shl", 1, width + 1), ("shl", top, top),
            ("shr", top, width), ("shr", top, width + 1), ("shr", top, top),
            ("sub", 0, 1), ("sub", 0, top), ("sub", 1, top),
            ("add", top, top), ("add", top, 1),
            ("not", 0), ("not", top), ("eqz", 0), ("eqz", top),
            ("ite", 0, top, 1), ("ite", top, 1, top),
        ]
        ops = vector_ops(width)
        for mnemonic, *args in cases:
            if width == 1 and any(a > top for a in args):
                continue
            expected = apply_mnemonic(mnemonic, args, width)
            column = [np.array([a], dtype=dtype) for a in args]
            got = ops[mnemonic](*column)
            assert got.dtype == dtype and int(got[0]) == expected, (mnemonic, args)
            # the engine pairs columns with scalar constants on either side
            scalars = [dtype(a) for a in args]
            for k in range(1, len(args)):
                for mixed in (column[:k] + scalars[k:], scalars[:k] + column[k:]):
                    got = ops[mnemonic](*mixed)
                    assert got.dtype == dtype and int(got[0]) == expected, (mnemonic, args)

    def test_chunk_rows_per_dtype(self):
        # no column above a CHUNK_ROWS uint64 column's bytes, no chunk above
        # 4 * CHUNK_ROWS rows
        rows = analysis.CHUNK_ROWS
        assert [analysis._chunk_rows(np.dtype(t)) for t in COLUMN_DTYPES] == [4 * rows, 4 * rows, 2 * rows, rows]

    @pytest.mark.parametrize("width", COLUMN_WIDTHS)
    def test_edge_semantics_end_to_end(self, width):
        # binary inputs select extreme operands, so every operation sees a
        # column and none folds to a constant
        top = (1 << width) - 1
        pick = lambda c, hi, lo: Instruction("ite", (Free(c), Const(hi), Const(lo)))
        p = prog(width, [
            pick("a", top, 0),
            pick("b", top, min(width + 1, top)),
            Instruction("shl", (PriorOutput(0), PriorOutput(1))),
            Instruction("shr", (PriorOutput(0), PriorOutput(1))),
            Instruction("sub", (Const(0), PriorOutput(0))),
            Instruction("sub", (PriorOutput(1), PriorOutput(0))),
            Instruction("not", (PriorOutput(0),)),
            Instruction("add", (PriorOutput(0), PriorOutput(1))),
        ], free_inputs=[("a", BINARY01), ("b", BINARY01)])
        totals, combos = scalar_worst_case(p)
        result = brute_force_worst_case(p)
        assert result.max_switching == max(totals)
        assert result.witness == combos[totals.index(max(totals))]
        vector = analysis._scan_chunk(analysis._lower(p), 0, 4)
        assert list(vector) == totals

    def test_pair_recurring_past_uint8(self):
        # the gap phase alternates one pattern with zero, so one slot pair
        # recurs hundreds of times: its uint8 popcount must widen before it
        # is multiplied by the multiplicity
        p = reduce_sat_gap(SatInstance(2, [[1, 2], [-1, 2]]), width=8, factor=40).program
        lowered = analysis._lower(p)
        assert max(pair[2] for _, _, _, pair, _ in lowered.steps if pair) > 255
        totals, combos = scalar_worst_case(p)
        vector = analysis._scan_chunk(lowered, 0, len(totals))
        assert list(vector) == totals
        assert [sum(execute(p, combo).transitions) for combo in combos] == totals
        assert brute_force_worst_case(p).max_switching == max(totals)

    # The scan sums popcounts in a uint8 partial column and adds it to the
    # accumulator before a transition of weight width * multiplicity that
    # could wrap it; a weight past 255 is widened instead.
    def assert_scan_matches_execute(self, p):
        totals, combos = scalar_worst_case(p)
        lowered = analysis._lower(p)
        assert lowered.acc_dtype != np.uint8  # so the partial column is not the accumulator
        vector = analysis._scan_chunk(lowered, 0, len(totals))
        assert list(vector) == totals
        assert [sum(execute(p, combo).transitions) for combo in combos] == totals
        return lowered, totals

    @pytest.mark.parametrize("width, count", [(8, 31), (5, 51), (8, 32)])
    def test_weight_at_partial_column_limit(self, width, count):
        # one pair recurring `count` times (weight 248, 255 or 256), then one
        # transition that flips every bit: at a = top, c = 0 the pair fills
        # the partial column to its weight, and the last transition only fits
        # after a flush
        a, c = Instruction("mov", (Free("a"),)), Instruction("mov", (Free("c"),))
        p = prog(width, [(a, c)[k % 2] for k in range(count + 1)] + [Instruction("not", (PriorOutput(count),))],
                 free_inputs=[("a", FULL), ("c", BINARY01)])
        lowered, totals = self.assert_scan_matches_execute(p)
        assert [pair[2] for _, _, _, pair, _ in lowered.steps if pair][0] == count
        assert max(totals) == width * (count + 1)

    def test_partial_column_flushes_several_times(self):
        # 99 transitions of weight 8, so the partial column takes at most 31
        # before each flush; the totals reach past 255
        steps = [Instruction("mov", (Free("a"),))]
        for k in range(1, 100):
            op = ("add", "xor", "sub")[k % 3]
            steps.append(Instruction(op, (PriorOutput(k - 1), Free("a") if k % 2 else Free("c"))))
        p = prog(8, steps, free_inputs=[("a", FULL), ("c", BINARY01)])
        _, totals = self.assert_scan_matches_execute(p)
        assert max(totals) > 255

    @pytest.mark.parametrize("first", [0, 5])
    def test_transition_against_constant(self, first):
        # the constant's slot comes before the sum's and after the input's, so
        # it is the first slot of one pair and the second of the other; 0 is
        # counted without the xor, 5 with it
        steps = [Instruction("mov", (Const(first),)), Instruction("add", (Free("a"), Const(1))),
                 Instruction("mov", (Const(first),)), Instruction("mov", (Free("a"),))]
        p = prog(8, steps * 9, free_inputs=[("a", FULL)])
        lowered, _ = self.assert_scan_matches_execute(p)
        slot = lowered.constants.index(first)
        sides = {pair.index(slot) for _, _, _, pair, _ in lowered.steps if pair and slot in pair[:2]}
        assert sides == {0, 1}

    @pytest.mark.parametrize("width", [32, 64])
    @pytest.mark.parametrize("binary_first", [False, True])
    def test_index_past_uint32(self, width, binary_first):
        # a chunk whose last index passes 2**32 decodes from a uint64 index;
        # one that ends at 2**32 from a uint32 one, whose shift past its bits
        # gives 0 and whose mask is cut to its bits
        inputs = [("x", FULL), ("c", BINARY01)]
        if binary_first:
            inputs.reverse()
        p = prog(width, [
            Instruction("add", (Free("x"), Free("c"))),
            Instruction("mov", (Free("x"),)),
            Instruction("xor", (Free("x"), Free("c"))),
            Instruction("sub", (Const(0), Free("c"))),
        ], free_inputs=inputs)
        lowered = analysis._lower(p)
        bits = [1 if domain == BINARY01 else width for _, domain in inputs]
        for lo, hi in [(2**32 - 3, 2**32 + 3), (2**32 - 6, 2**32), (0, 6)]:
            vector = analysis._scan_chunk(lowered, lo, hi)
            for row, index in enumerate(range(lo, hi)):
                combo = {name: (index >> sum(bits[k + 1:])) & ((1 << bits[k]) - 1)
                         for k, (name, _) in enumerate(inputs)}
                assert vector[row] == sum(execute(p, combo).transitions), (lo, combo)


def one_bit_program(seed):
    """A random program whose every free-input field is one bit wide: at
    width 1 for an odd seed, else with binary inputs only."""
    rng = random.Random(seed)
    if seed % 2:
        return random_program(rng, max_width=1, max_full_inputs=3, max_binary_inputs=3)
    return random_program(rng, max_full_inputs=0, max_binary_inputs=6)


def engines(p):
    """The (maximum, first index) of the plane search, None where it falls
    back, and of the scan, over every assignment of `p`."""
    lowered = analysis._lower(p)
    total = 1 << len(lowered.fields)
    return (analysis._search(analysis._plane_chunk, lowered, total, analysis.PLANE_ROWS),
            analysis._search(analysis._scan_max, lowered, total, analysis.CHUNK_ROWS))


# two-valued reductions: maxsat2, and sat-gap over a satisfiable and an
# unsatisfiable formula
REDUCED = {
    "maxsat2": lambda: reduce_maxsat2(MaxSat2Instance(5, [[1, -2], [2, 3], [-1], [-3, 4], [5, -4], [2]]),
                                      width=8).program,
    "gap-sat": lambda: reduce_sat_gap(SatInstance(4, [[1, -2, 3], [-1, 4, 2], [-3, -4, 1]]), width=8).program,
    "gap-unsat": lambda: reduce_sat_gap(SatInstance(2, [[1, 2], [1, -2], [-1, 2], [-1, -2]]), width=8).program,
}


class TestPlaneEngine:
    """Where every free-input field is one bit wide and every step stays
    two-valued, the plane search gives the scan's maximum and first
    maximiser, so `brute_force_worst_case` gives the same answer with either
    engine; anything else goes to the scan from the start."""

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 2**32 - 1), min_size=20, max_size=20))
    def test_matches_scan_and_scalar_interpreter(self, seeds):
        taken = 0
        for seed in seeds:
            p = one_bit_program(seed)
            planes, scan = engines(p)
            totals, combos = scalar_worst_case(p)
            best = max(totals)
            assert scan == (best, totals.index(best))
            assert planes in (None, scan)
            taken += planes is not None
            result = brute_force_worst_case(p)
            assert (result.max_switching, result.witness, result.explored) == (best, combos[scan[1]], len(totals))
        # so the property is not vacuous: of seeds 0 to 1,999, 1,950 take planes
        assert taken >= len(seeds) // 2

    @pytest.mark.parametrize("name", REDUCED)
    def test_reductions_take_planes(self, name):
        p = REDUCED[name]()
        planes, scan = engines(p)
        totals, _ = scalar_worst_case(p)
        assert planes == scan == (max(totals), totals.index(max(totals)))

    @pytest.mark.parametrize("rows", [1, 2, 8])
    def test_any_chunk_size_matches_one_chunk(self, monkeypatch, rows):
        programs = [REDUCED[name]() for name in REDUCED] + [one_bit_program(seed) for seed in range(60)]
        one_chunk = [engines(p)[0] for p in programs]
        assert sum(found is not None for found in one_chunk) > 50
        monkeypatch.setattr(analysis, "PLANE_ROWS", rows)
        assert [engines(p)[0] for p in programs] == one_chunk

    def test_wider_field_goes_to_scan(self, monkeypatch):
        p = prog(2, [Instruction("mov", (Free("x"),)), Instruction("xor", (PriorOutput(0), Free("b")))],
                 free_inputs=[("b", BINARY01), ("x", FULL)])

        def planes(lowered, lo, hi):
            raise AssertionError("a two-bit field took planes")

        monkeypatch.setattr(analysis, "_plane_chunk", planes)
        totals, combos = scalar_worst_case(p)
        assert brute_force_worst_case(p).witness == combos[totals.index(max(totals))]

    @pytest.mark.parametrize("steps, takes_planes", [
        # add of two binary inputs: 0, 1 or 2
        ([Instruction("add", (Free("a"), Free("b")))], False),
        # an ite over three planes with values 0, 1 and 2
        ([Instruction("ite", (Free("b"), Const(2), Const(0))),
          Instruction("ite", (Free("a"), PriorOutput(1), Free("c")))], False),
        # and one with two values, which takes a new plane
        ([Instruction("ite", (Free("a"), Free("b"), Free("c")))], True),
    ])
    def test_step_of_three_values_falls_back(self, monkeypatch, steps, takes_planes):
        p = prog(2, [Instruction("mov", (Const(0),)), *steps, Instruction("mov", (Const(0),))],
                 free_inputs=[("a", BINARY01), ("b", BINARY01), ("c", BINARY01)])
        chunks = []
        monkeypatch.setattr(analysis, "PLANE_ROWS", 2)
        chunk = analysis._plane_chunk
        monkeypatch.setattr(analysis, "_plane_chunk", lambda *args: chunks.append(args[1]) or chunk(*args))
        found, scan = engines(p)
        assert found == (scan if takes_planes else None)
        # a fallback comes from the first chunk
        assert chunks == ([0, 2, 4, 6] if takes_planes else [0])
        totals, combos = scalar_worst_case(p)
        assert scan == (max(totals), totals.index(max(totals)))
        assert brute_force_worst_case(p).witness == combos[scan[1]]

    @pytest.mark.parametrize("width", [1, 8, 64])
    def test_complemented_operands(self, width):
        # `and`, `or` and `xor` of slots valued {0, m}, either way round,
        # and of a slot with its own complement
        top = (1 << width) - 1
        p = prog(width, [
            Instruction("ite", (Free("a"), Const(top), Const(0))),
            Instruction("ite", (Free("b"), Const(0), Const(top))),
            Instruction("xor", (PriorOutput(0), Const(top))),
            *[Instruction(op, (PriorOutput(i), PriorOutput(j)))
              for op in ("and", "or", "xor") for i, j in [(0, 1), (1, 2), (0, 2)]],
        ], free_inputs=[("a", BINARY01), ("b", BINARY01)])
        planes, scan = engines(p)
        totals, _ = scalar_worst_case(p)
        assert planes == scan == (max(totals), totals.index(max(totals)))


class TestMaxsatOracle:
    def test_complementary_units(self):
        assert maxsat_oracle(MaxSat2Instance(1, [[1], [-1]])) == (1, (False,))

    def test_two_variable_clause_tie_break(self):
        assert maxsat_oracle(MaxSat2Instance(2, [[1, 2]])) == (1, (False, True))

    def test_empty_clause_set(self):
        assert maxsat_oracle(MaxSat2Instance(3, [])) == (0, (False, False, False))

    def test_matches_direct_enumeration(self):
        rng = random.Random(41)
        for _ in range(25):
            n = rng.randint(1, 4)
            clauses = [
                [rng.choice([1, -1]) * rng.randint(1, n) for _ in range(rng.randint(1, 2))]
                for _ in range(rng.randint(0, 6))
            ]
            inst = MaxSat2Instance(n, clauses)
            best, assignment = maxsat_oracle(inst)
            scores = [count_satisfied(inst, a)
                      for a in itertools.product((False, True), repeat=n)]
            assert best == max(scores)
            assert count_satisfied(inst, assignment) == best


class TestSatOracle:
    def test_single_positive_unit(self):
        assert sat_oracle(SatInstance(1, [[1]])) == (True, (True,))

    def test_contradiction(self):
        assert sat_oracle(SatInstance(1, [[1], [-1]])) == (False, None)

    def test_three_variable_unsat(self):
        # all eight sign patterns over three variables: no assignment survives
        clauses = [[s1 * 1, s2 * 2, s3 * 3]
                   for s1 in (1, -1) for s2 in (1, -1) for s3 in (1, -1)]
        satisfiable, model = sat_oracle(SatInstance(3, clauses))
        assert satisfiable is False and model is None

    def test_model_satisfies(self):
        inst = SatInstance(3, [[1, -2], [-1, 3], [2, 3]])
        satisfiable, model = sat_oracle(inst)
        assert satisfiable
        assert all_satisfied(inst, model)


class TestBounds:
    def test_coarse_three_instructions(self):
        p = prog(4, [Instruction("mov", (Const(0),))] * 3)
        assert coarse_upper_bound(p) == 8

    def test_coarse_single_instruction(self):
        p = prog(4, [Instruction("mov", (Const(0),))])
        assert coarse_upper_bound(p) == 0

    def test_knownbits_masked_input(self):
        p = prog(8, [
            Instruction("mov", (Const(0),)),
            Instruction("and", (Free("0"), Const(1))),
        ], free_inputs=[("0", FULL)])
        assert knownbits_upper_bound(p) == 1

    def test_knownbits_identical_constants(self):
        p = prog(8, [Instruction("mov", (Const(5),)), Instruction("mov", (Const(5),))])
        assert knownbits_upper_bound(p) == 0

    def test_ordering_on_random_programs(self):
        rng = random.Random(53)
        for _ in range(60):
            p = random_program(rng)
            exact = brute_force_worst_case(p).max_switching
            kb = knownbits_upper_bound(p)
            coarse = coarse_upper_bound(p)
            assert exact <= kb <= coarse

    def test_bounds_dominate_reduced_programs(self):
        rng = random.Random(61)
        for _ in range(10):
            n = rng.randint(1, 3)
            clauses = [[rng.choice([1, -1]) * rng.randint(1, n)]
                       for _ in range(rng.randint(0, 4))]
            p = reduce_maxsat2(MaxSat2Instance(n, clauses), width=4).program
            exact = brute_force_worst_case(p).max_switching
            assert exact <= knownbits_upper_bound(p) <= coarse_upper_bound(p)

    def test_bound_sums_adjacent_outputs(self):
        # counting each distinct transition once, times its multiplicity,
        # gives the sum over every adjacent pair of abstract outputs, a
        # repeated slot adding 0
        rng = random.Random(67)
        programs = [random_program(rng) for _ in range(100)]
        programs += [reduce_maxsat2(MaxSat2Instance(3, [[1, -2], [2, 3], [-1], [-3, 1]]), width=4).program,
                     reduce_sat_gap(SatInstance(3, [[1, -2], [2, 3], [-1, -3]]), width=8).program]
        for p in programs:
            outs = abstract_outputs(p)
            slots = analysis._lower(p).outputs
            # every bit but those known on both sides and equal can differ
            expected = sum(
                0 if s == t else p.width - (((1 << p.width) - 1) & ~a[1] & ~b[1] & ~(a[0] ^ b[0])).bit_count()
                for s, t, a, b in zip(slots, slots[1:], outs, outs[1:])
            )
            assert knownbits_upper_bound(p) == expected

    def test_abstract_outputs_sound_at_random_inputs(self):
        rng = random.Random(59)
        for _ in range(100):
            p = random_program(rng)
            outs = abstract_outputs(p)
            assignment = random_assignment(rng, p)
            trace = execute(p, assignment)
            for abstract, concrete in zip(outs, trace.outputs):
                assert contains(abstract, concrete, p.width)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_knownbits_sound_per_transition(self, seed):
        # each concrete transition, not only their sum, stays within the bits
        # its two abstract outputs leave possibly different
        p = random_program(random.Random(seed))
        outs = abstract_outputs(p)
        limits = [p.width - (((1 << p.width) - 1) & ~a[1] & ~b[1] & ~(a[0] ^ b[0])).bit_count()
                  for a, b in zip(outs, outs[1:])]
        for combo in scalar_worst_case(p)[1]:
            transitions = execute(p, combo).transitions
            assert all(t <= limit for t, limit in zip(transitions, limits)), combo

    def test_load_sees_only_latest_store(self):
        # two stores to one cell: a later load sees exactly the second stored
        # value (strong update), with nothing of the first one joined in
        p = prog(4, [
            Instruction("mov", (Free("c"),)),
            Instruction("store", (Const(0xc),), mem_dest=0),
            Instruction("ite", (PriorOutput(0), Const(0x1), Const(0x2))),
            Instruction("store", (PriorOutput(2),), mem_dest=0),
            Instruction("load", (MemRead(0),)),
        ], free_inputs=[("c", BINARY01)], mem_size=1)
        outs = abstract_outputs(p)
        final = outs[-1]
        assert contains(final, 0x1, 4) and contains(final, 0x2, 4)
        assert final == outs[2]

    def test_copies_of_one_value_switch_nothing(self):
        # mov, store and load of a full-width input repeat one value, so
        # none of their transitions can switch a bit
        p = prog(8, [
            Instruction("mov", (Free("x"),)),
            Instruction("store", (PriorOutput(0),), mem_dest=0),
            Instruction("load", (MemRead(0),)),
            Instruction("mov", (PriorOutput(2),)),
        ], free_inputs=[("x", FULL)], mem_size=1)
        assert brute_force_worst_case(p).max_switching == 0
        assert knownbits_upper_bound(p) == 0


def test_lowering_resolves_every_copy():
    # known bits and the column ops have no entry for a copy, so no step of a
    # lowered program may name one: the lowering aliases a copy's operand
    rng = random.Random(30)
    programs = [random_program(rng) for _ in range(20)]
    programs += [reduce_maxsat2(MaxSat2Instance(3, [[1, -2], [2], [-3, 1]]), width=4).program,
                 reduce_sat_gap(SatInstance(3, [[1, -2, 3], [-1, 2]]), width=8).program]
    assert {i.mnemonic for p in programs for i in p.instructions} >= COPIES
    for p in programs:
        assert not any(step[0] in COPIES for step in analysis._lower(p).steps)
