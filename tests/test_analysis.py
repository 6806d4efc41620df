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
    knownbits_outputs,
    knownbits_upper_bound,
    maxsat_oracle,
    sat_oracle,
)
from cswp.core import (
    BINARY01,
    FULL,
    Const,
    Free,
    Instruction,
    MemRead,
    PriorOutput,
    Program,
    _run_values,
    apply_mnemonic,
    evaluate_switching,
    execute,
    vector_ops,
)
from cswp.sat import MaxSat2Instance, SatInstance

from randprog import random_program


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
            assert evaluate_switching(p, result.witness).total == result.max_switching

    def test_any_chunk_size_matches_one_chunk(self, monkeypatch):
        # maxima recur across chunks, so this checks that a later chunk
        # never displaces an earlier witness with an equal total
        rng = random.Random(29)
        programs = [random_program(rng) for _ in range(10)]
        programs.append(prog(2, [
            Instruction("mov", (Free("0"),)),
            Instruction("xor", (PriorOutput(0), Const(0x3))),
        ], free_inputs=[("0", FULL)]))
        one_chunk = [brute_force_worst_case(p) for p in programs]
        for rows in (1, 3, 7):
            monkeypatch.setattr(analysis, "CHUNK_ROWS", rows)
            assert [brute_force_worst_case(p) for p in programs] == one_chunk

    def test_report_lines(self):
        p = prog(2, [
            Instruction("mov", (Free("0"),)),
            Instruction("add", (PriorOutput(0), PriorOutput(0))),
        ], free_inputs=[("0", FULL)])
        lines = brute_force_worst_case(p).report_lines()
        assert lines == ["max=2", "witness.free0=0x1", "explored=4"]


def scalar_worst_case(p):
    """Reference scan: itertools.product over the domains, scalar interpreter."""
    names = [name for name, _ in p.free_inputs]
    domains = [range(2) if d == BINARY01 else range(1 << p.width) for _, d in p.free_inputs]
    totals, combos = [], []
    for combo in itertools.product(*domains):
        outputs, _, _ = _run_values(p, dict(zip(names, combo)))
        totals.append(sum((a ^ b).bit_count() for a, b in zip(outputs, outputs[1:])))
        combos.append(dict(zip(names, combo)))
    return totals, combos


class TestVectorizedEngine:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 3, 7, 4096]))
    def test_matches_scalar_interpreter(self, seed, rows):
        p = random_program(random.Random(seed))
        totals, combos = scalar_worst_case(p)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lowered = analysis._lower(p)
            vector = analysis._scan_chunk(lowered, vector_ops(p.width), 0, len(totals))
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(analysis, "CHUNK_ROWS", rows)
                result = brute_force_worst_case(p)
        for index, combo in enumerate(combos):
            assert vector[index] == evaluate_switching(p, combo).total == totals[index]
        best = max(totals)
        assert result.max_switching == best
        assert result.witness == combos[totals.index(best)]
        assert result.explored == len(totals)
        assert all(type(v) is int for v in result.witness.values())

    @pytest.mark.parametrize("width", [1, 64])
    def test_edge_semantics(self, width):
        top = (1 << width) - 1
        cases = [
            ("shl", top, width), ("shl", 1, width + 1), ("shl", top, top),
            ("shr", top, width), ("shr", top, width + 1), ("shr", top, top),
            ("sub", 0, 1), ("sub", 0, top), ("sub", 1, top),
            ("not", 0), ("not", top),
        ]
        ops = vector_ops(width)
        for mnemonic, *args in cases:
            if width == 1 and any(a > top for a in args):
                continue
            expected = apply_mnemonic(mnemonic, args, width)
            column = [np.array([a], dtype=np.uint64) for a in args]
            assert int(ops[mnemonic](*column)[0]) == expected, (mnemonic, args)
            # the engine pairs columns with scalar constants on either side
            mixed = [column[0], *(np.uint64(a) for a in args[1:])]
            assert int(ops[mnemonic](*mixed)[0]) == expected, (mnemonic, args)
            if len(args) == 2:
                mixed = [np.uint64(args[0]), column[1]]
                assert int(ops[mnemonic](*mixed)[0]) == expected, (mnemonic, args)

    @pytest.mark.parametrize("width", [1, 64])
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
        vector = analysis._scan_chunk(analysis._lower(p), vector_ops(width), 0, 4)
        assert list(vector) == totals


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
            from cswp.sat import count_satisfied
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
        from cswp.sat import all_satisfied
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
        from cswp.reductions import reduce_maxsat2
        rng = random.Random(61)
        for _ in range(10):
            n = rng.randint(1, 3)
            clauses = [[rng.choice([1, -1]) * rng.randint(1, n)]
                       for _ in range(rng.randint(0, 4))]
            p = reduce_maxsat2(MaxSat2Instance(n, clauses), width=4).program
            exact = brute_force_worst_case(p).max_switching
            assert exact <= knownbits_upper_bound(p) <= coarse_upper_bound(p)

    def test_abstract_outputs_sound_at_random_inputs(self):
        rng = random.Random(59)
        for _ in range(100):
            p = random_program(rng)
            outs = knownbits_outputs(p)
            assignment = random_assignment(rng, p)
            trace = execute(p, assignment)
            for abstract, concrete in zip(outs, trace.outputs):
                assert abstract.contains(concrete.value)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_knownbits_sound_per_transition(self, seed):
        # each concrete transition, not only their sum, stays within the bits
        # its two abstract outputs leave possibly different
        p = random_program(random.Random(seed))
        outs = knownbits_outputs(p)
        limits = [analysis._possibly_differing_bits(a, b) for a, b in zip(outs, outs[1:])]
        for combo in scalar_worst_case(p)[1]:
            transitions = evaluate_switching(p, combo).transitions
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
        outs = knownbits_outputs(p)
        final = outs[-1]
        assert final.contains(0x1) and final.contains(0x2)
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
