import hashlib
import itertools
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cswp.analysis import brute_force_worst_case
from cswp import reductions
from cswp.core import BINARY01, CswpError, Program, execute, validate_program
from cswp.reductions import (
    K_CLAUSE,
    K_SAT,
    K_VAR,
    MAX_SWITCHING_LEN,
    GapProgram,
    ReducedProgram,
    emit_checksat,
    lit_addr,
    load_gap,
    load_reduced,
    recover_assignment,
    reduce_maxsat2,
    reduce_sat_gap,
    serialize_gap,
    serialize_reduced,
)
from cswp.sat import MaxSat2Instance, SatInstance, parse_literal
from cswp.textfmt import parse_program, serialize_program

from oracles import count_satisfied, maxsat_oracle


def all_assignments(n):
    return itertools.product((False, True), repeat=n)


def embed(bools):
    """Truth values, variable-index order, as the embeddings' free inputs."""
    return {str(i): int(b) for i, b in enumerate(bools)}


def meta_fields(text):
    """The key=value fields of a reduction file's `# meta` line, its first."""
    return dict(token.split("=", 1) for token in text.splitlines()[0].split()[2:])


def clause_evaluation(gap):
    """The gap program's decision phase less its widening `ite`: the clause
    evaluation, whose last instruction gives the checksat result."""
    program = gap.program
    return Program(width=program.width, mem_size=program.mem_size,
                   instructions=program.instructions[:gap.decision_len - 1], free_inputs=program.free_inputs)


def switching(program, bools):
    return sum(execute(program, embed(bools)).transitions)


def random_maxsat2(rng, max_vars=4, max_clauses=6):
    n = rng.randint(1, max_vars)
    clauses = [
        [rng.choice([1, -1]) * rng.randint(1, n) for _ in range(rng.randint(1, 2))]
        for _ in range(rng.randint(0, max_clauses))
    ]
    return MaxSat2Instance(n, clauses)


def random_sat(rng, max_vars=3, max_clauses=8):
    n = rng.randint(1, max_vars)
    clauses = [
        [rng.choice([1, -1]) * v
         for v in rng.sample(range(1, n + 1), rng.randint(1, n))]
        for _ in range(rng.randint(1, max_clauses))
    ]
    return SatInstance(n, clauses)


class TestReduceMaxsat2:
    def test_single_unit_clause(self):
        inst = MaxSat2Instance(1, [[1]])
        red = reduce_maxsat2(inst, width=4)
        assert validate_program(red.program) == []
        result = brute_force_worst_case(red.program)
        # oracle first: the instance is satisfiable, so one clause at best
        best, _ = maxsat_oracle(inst)
        assert best == 1
        assert result.max_switching == K_VAR + K_CLAUSE + 2
        assert result.witness == {"0": 1}

    def test_no_clauses_gives_constant_switching(self):
        red = reduce_maxsat2(MaxSat2Instance(1, []), width=4)
        totals = {
            switching(red.program, [b])
            for b in (False, True)
        }
        assert totals == {K_VAR}

    def test_complementary_units(self):
        inst = MaxSat2Instance(2, [[1], [-1]])
        red = reduce_maxsat2(inst, width=4)
        best, _ = maxsat_oracle(inst)
        assert best == 1
        result = brute_force_worst_case(red.program)
        assert result.max_switching == 2 * K_VAR + 2 * K_CLAUSE + 2
        # every assignment satisfies exactly one of the two clauses
        for bools in all_assignments(2):
            assert switching(red.program, bools) == result.max_switching

    def test_identity_on_random_instances(self):
        rng = random.Random(101)
        for _ in range(30):
            inst = random_maxsat2(rng)
            red = reduce_maxsat2(inst, width=rng.randint(1, 8))
            for bools in all_assignments(inst.num_vars):
                total = switching(red.program, bools)
                sat = count_satisfied(inst, bools)
                assert total == K_VAR * inst.num_vars + K_CLAUSE * len(inst.clauses) + K_SAT * sat

    def test_literal_addresses_follow_layout(self):
        red = reduce_maxsat2(MaxSat2Instance(3, [[1, -2], [3]]), width=4)
        for i in (1, 2, 3):
            assert lit_addr(i) == 2 * (i - 1)
            assert lit_addr(-i) == 2 * (i - 1) + 1
        # the program stores each literal's truth value at its address
        for bools in all_assignments(3):
            memory = execute(red.program, embed(bools)).final_memory
            for i, b in enumerate(bools, 1):
                assert memory[lit_addr(i)] == b
                assert memory[lit_addr(-i)] == (not b)

    def test_program_length_is_instance_sized(self):
        # a*n + b*|C| + 1 instructions, independent of any assignment
        for n, m in [(1, 0), (2, 3), (4, 6)]:
            inst = MaxSat2Instance(n, [[1]] * m)
            red = reduce_maxsat2(inst, width=4)
            assert len(red.program.instructions) == 1 + 5 * n + 8 * m

    def test_invalid_width_rejected(self):
        with pytest.raises(CswpError):
            reduce_maxsat2(MaxSat2Instance(1, [[1]]), width=0)


class TestProgramLengthLimit:
    """MAX_PROGRAM_LEN admits a program whose length bound is exactly that
    and rejects one whose bound is one more; the bound is the exact length
    for maxsat2 and at least the length built for the clause evaluation."""

    def test_maxsat2(self, monkeypatch):
        rng = random.Random(211)
        for _ in range(30):
            inst = random_maxsat2(rng)
            length = len(reduce_maxsat2(inst).program.instructions)
            monkeypatch.setattr(reductions, "MAX_PROGRAM_LEN", length)
            reduce_maxsat2(inst)
            monkeypatch.setattr(reductions, "MAX_PROGRAM_LEN", length - 1)
            with pytest.raises(CswpError, match=f"maxsat2 program would hold up to {length} instructions"):
                reduce_maxsat2(inst)
            monkeypatch.undo()

    def test_clause_evaluation(self, monkeypatch):
        rng = random.Random(223)
        for inst in [SatInstance(2, [])] + [random_sat(rng, max_vars=5) for _ in range(30)]:
            literals = sum(len(clause) for clause in inst.clauses)
            bound = 2 * inst.num_vars + 3 * literals + len(inst.clauses) + 1
            monkeypatch.setattr(reductions, "MAX_PROGRAM_LEN", bound)
            # its decision phase is the clause evaluation and an ite
            assert bound >= reduce_sat_gap(inst).decision_len - 1
            monkeypatch.setattr(reductions, "MAX_PROGRAM_LEN", bound - 1)
            with pytest.raises(CswpError, match=f"clause evaluation would hold up to {bound} instructions"):
                reduce_sat_gap(inst)
            monkeypatch.undo()


class TestEmitChecksat:
    """The clause evaluation inside the gap program: the `ite` that ends its
    decision phase takes the checksat result as its condition."""

    def run_checksat(self, instance, bools, width=4):
        gap = reduce_sat_gap(instance, width=width)
        return execute(gap.program, embed(bools)).outputs[gap.decision_len - 2]

    def test_positive_unit(self):
        assert self.run_checksat(SatInstance(1, [[1]]), [True]) == 1

    def test_negated_unit(self):
        assert self.run_checksat(SatInstance(1, [[-1]]), [True]) == 0

    def test_two_clause_example(self):
        inst = SatInstance(2, [[1, 2], [-1]])
        assert self.run_checksat(inst, [False, True]) == 1

    # (x1 or x2) and not x1 holds only at x1 = 0, x2 = 1
    @pytest.mark.parametrize("bools, result", [
        ([False, False], 0), ([True, False], 0), ([False, True], 1), ([True, True], 0),
    ])
    def test_two_clause_truth_table(self, bools, result):
        assert self.run_checksat(SatInstance(2, [[1, 2], [-1]]), bools) == result

    def test_matches_direct_evaluation_everywhere(self):
        rng = random.Random(103)
        for _ in range(25):
            inst = random_sat(rng)
            for bools in all_assignments(inst.num_vars):
                expected = 1 if count_satisfied(inst, bools) == len(inst.clauses) else 0
                assert self.run_checksat(inst, bools) == expected

    def test_empty_clause_set_is_true(self):
        assert self.run_checksat(SatInstance(1, []), [False]) == 1

    def test_instruction_count_linear_in_literals(self):
        inst = SatInstance(3, [[1, -2, 3], [-1, 2], [3]])
        insns = []
        emit_checksat(inst, insns)
        literal_occurrences = 6
        negations = 2
        ors = 3  # one less than clause length, per clause
        ands = 2
        assert len(insns) == literal_occurrences + negations + ors + ands

    # (instance, width) -> (index of the result, the last instruction, and
    # digest of the program text), computed on the standalone clause
    # evaluation program before the reductions took every fact from the
    # built program
    @pytest.mark.parametrize("n, clauses, width, index, digest", [
        (0, [], 8, 0, "aa4b96d1e7db02ce"),
        (2, [[1, 2], [-1]], 4, 9, "632f7151fd2e35b9"),
        (3, [[1, -2, 3], [-3], [2, -1]], 64, 19, "dc3d7982fc969ed8"),
    ])
    def test_program_byte_identical(self, n, clauses, width, index, digest):
        program = clause_evaluation(reduce_sat_gap(SatInstance(n, clauses), width=width))
        assert len(program.instructions) - 1 == index
        assert hashlib.sha256(serialize_program(program).encode()).hexdigest()[:16] == digest


class TestReduceSatGap:
    def test_satisfiable_unit(self):
        gap = reduce_sat_gap(SatInstance(1, [[1]]), width=4)
        assert validate_program(gap.program) == []
        phase = execute(gap.program, {"0": 1}).transitions[gap.decision_len:]
        assert phase == (4,) * (gap.switching_len - 1)
        assert brute_force_worst_case(gap.program).max_switching >= gap.gap_bits

    def test_unsatisfiable_phase_is_silent(self):
        gap = reduce_sat_gap(SatInstance(1, [[1], [-1]]), width=4)
        for v in (0, 1):
            transitions = execute(gap.program, {"0": v}).transitions
            assert transitions[gap.decision_len:] == (0,) * (gap.switching_len - 1)

    def test_phase_length_rule(self):
        for n_clauses in (1, 3, 6):
            inst = SatInstance(2, [[1, 2]] * n_clauses)
            gap = reduce_sat_gap(inst, width=4)
            assert gap.switching_len >= gap.decision_len / 2 + 1
            assert gap.decision_len + gap.switching_len == len(gap.program.instructions)

    def test_factor_scales_phase(self):
        inst = SatInstance(3, [[1, 2, 3]])
        gap1 = reduce_sat_gap(inst, width=4, factor=1)
        gap2 = reduce_sat_gap(inst, width=4, factor=2)
        assert gap2.decision_len == gap1.decision_len
        assert gap2.switching_len >= 2 * gap2.decision_len

    def test_fractional_factor(self):
        inst = SatInstance(2, [[1], [2]])
        gap = reduce_sat_gap(inst, width=4, factor=1.5)
        assert gap.switching_len >= 1.5 * gap.decision_len / 2 + 1

    # the phase length is exact in the factor's value, with Fraction as the
    # oracle: floats in [1, 64], and k / 2**j, which often make
    # factor * decision_len / 2 whole, where an inexact ceiling is off by one
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(st.floats(1, 64), st.integers(0, 12).flatmap(
        lambda j: st.integers(2**j, 64 * 2**j).map(lambda k: k / 2**j))))
    def test_switching_len_is_exact_in_factor(self, factor):
        gap = reduce_sat_gap(SatInstance(2, [[1, -2], [2]]), width=2, factor=factor)
        assert gap.switching_len == 2 * (math.ceil(Fraction(factor) * gap.decision_len / 2) + 1)

    def test_phase_length_limited(self, monkeypatch):
        # SatInstance(1, [[1]]) has decision_len 4, so factor f asks for
        # 2 * (ceil(2f) + 1) phase instructions
        monkeypatch.setattr(reductions, "MAX_SWITCHING_LEN", 16)
        inst = SatInstance(1, [[1]])
        assert reduce_sat_gap(inst, width=4, factor=3.5).switching_len == 16
        with pytest.raises(CswpError, match="switching phase would exceed 16 instructions"):
            reduce_sat_gap(inst, width=4, factor=3.75)

    def test_factor_below_one_rejected(self):
        with pytest.raises(CswpError):
            reduce_sat_gap(SatInstance(1, [[1]]), width=4, factor=0.5)

    def test_gap_bits_definition(self):
        gap = reduce_sat_gap(SatInstance(1, [[1]]), width=8)
        assert gap.gap_bits == 8 * (gap.switching_len - 1)

    def test_phase_alternates_pattern_and_zero(self):
        from cswp.core import Const, PriorOutput
        gap = reduce_sat_gap(SatInstance(2, [[1, -2]]), width=4)
        phase = gap.program.instructions[gap.decision_len:]
        bit_pattern = PriorOutput(gap.decision_len - 1)
        for i, insn in enumerate(phase):
            assert insn.mnemonic == "mov"
            assert insn.inputs == ((bit_pattern,) if i % 2 == 0 else (Const(0),))

    def test_size_polynomial_in_instance_and_factor(self):
        rng = random.Random(109)
        for _ in range(10):
            inst = random_sat(rng)
            literals = sum(len(c) for c in inst.clauses)
            for factor in (1, 2, 3):
                gap = reduce_sat_gap(inst, width=4, factor=factor)
                # decision: 2n reads/stores + at most 2 insns per literal
                # + clause/conjunction folds + the widening ite
                decision_cap = 2 * inst.num_vars + 2 * literals + len(inst.clauses) + 2
                assert gap.decision_len <= decision_cap
                assert gap.switching_len <= factor * gap.decision_len + 4

    def test_program_length_independent_of_assignment(self):
        rng = random.Random(107)
        for _ in range(10):
            inst = random_sat(rng)
            gap = reduce_sat_gap(inst, width=2)
            lengths = set()
            for bools in all_assignments(inst.num_vars):
                trace = execute(gap.program, embed(bools))
                lengths.add(len(trace.outputs))
            assert len(lengths) == 1


class TestEmbedRecover:
    def test_embed_examples(self):
        # variable x_i is the binary free input str(i - 1), in variable order
        red = reduce_maxsat2(MaxSat2Instance(1, [[1]]), width=4)
        assert red.program.free_inputs == (("0", BINARY01),)
        gap = reduce_sat_gap(SatInstance(2, [[1, -2]]), width=4)
        assert gap.program.free_inputs == (("0", BINARY01), ("1", BINARY01))

    def test_round_trip(self):
        red = reduce_maxsat2(MaxSat2Instance(3, [[1, 2]]), width=4)
        for bools in all_assignments(3):
            assert recover_assignment(red, embed(bools)) == list(bools)

    def test_recover_from_witness_attains_oracle(self):
        inst = MaxSat2Instance(2, [[1], [2]])
        red = reduce_maxsat2(inst, width=4)
        result = brute_force_worst_case(red.program)
        bools = recover_assignment(red, result.witness)
        best, _ = maxsat_oracle(inst)
        assert best == 2
        assert count_satisfied(inst, bools) == best
        # the identity also recovers the count from the switching total
        assert (result.max_switching - K_VAR * 2 - K_CLAUSE * 2) // K_SAT == best

    def test_arity_mismatch_rejected(self):
        red = reduce_maxsat2(MaxSat2Instance(2, []), width=4)
        with pytest.raises(CswpError, match="missing free input 1"):
            recover_assignment(red, {"0": 1})

    def test_non_binary_witness_rejected(self):
        red = reduce_maxsat2(MaxSat2Instance(1, []), width=4)
        with pytest.raises(CswpError, match="not 0/1"):
            recover_assignment(red, {"0": 5})


class TestMetadataRoundTrip:
    def test_reduced_program_file(self):
        red = reduce_maxsat2(MaxSat2Instance(2, [[1, -2], [2]]), width=4)
        text = serialize_reduced(red)
        back = load_reduced(text)
        assert back.program == red.program
        assert (back.num_vars, back.num_clauses) == (red.num_vars, red.num_clauses)
        assert f"k_var={K_VAR} k_clause={K_CLAUSE} k_sat={K_SAT}" in text

    def test_gap_program_file(self):
        gap = reduce_sat_gap(SatInstance(2, [[1], [-2]]), width=4, factor=2)
        back = load_gap(serialize_gap(gap))
        assert back == gap

    def test_facts_come_from_the_program_not_the_meta_line(self):
        red = reduce_maxsat2(MaxSat2Instance(2, [[1, -2], [2]]), width=4)
        text = serialize_reduced(red).replace("vars=2", "vars=7", 1)
        assert "vars=7" in text
        assert load_reduced(text).num_vars == 2

        gap = reduce_sat_gap(SatInstance(2, [[1], [-2]]), width=4)
        text = serialize_gap(gap)
        for fact, lie in (("vars=2", "vars=9"),
                          (f"switching_len={gap.switching_len}", "switching_len=1"),
                          (f"gap_bits={gap.gap_bits}", "gap_bits=0")):
            assert fact in text
            text = text.replace(fact, lie, 1)
        back = load_gap(text)
        phase = len(gap.program.instructions) - gap.decision_len
        assert (back.num_vars, back.switching_len, back.gap_bits) == (2, phase, 4 * (phase - 1))

    @pytest.mark.parametrize("loader, meta, match", [
        (load_reduced, "# meta kind=maxsat2 junk clauses=1", "'junk', want key=value"),
        (load_gap, "# meta kind=sat-gap junk decision_len=0", "'junk', want key=value"),
        (load_reduced, "# meta kind=sat-gap clauses=2", "expected maxsat2 metadata, got kind='sat-gap'"),
        (load_gap, "# meta vars=2", "expected sat-gap metadata, got kind=None"),
        (load_reduced, "# lit x1 -> m[0]", "no '# meta' line"),
        (load_gap, "", "no '# meta' line"),
    ])
    def test_malformed_meta_field(self, loader, meta, match):
        # a bare token, a wrong or missing kind and a missing `# meta` line
        # are domain errors, on a program the loader takes with a good line
        if loader is load_reduced:
            good, program = "kind=maxsat2", reduce_maxsat2(MaxSat2Instance(2, [[1], [-2]]), width=4).program
        else:
            good, program = "kind=sat-gap", reduce_sat_gap(SatInstance(2, [[1], [-2]]), width=4).program
        loader(f"# meta {good}\n" + serialize_program(program))
        with pytest.raises(CswpError, match=re.escape(match)):
            loader(f"{meta}\n" + serialize_program(program))

    def test_meta_lines_present(self):
        red = reduce_maxsat2(MaxSat2Instance(1, [[1]]), width=4)
        text = serialize_reduced(red)
        assert "# meta kind=maxsat2" in text
        assert "# lit x1 -> m[0]" in text
        assert "# lit ~x1 -> m[1]" in text


class TestCountsFromTheProgram:
    """The clause count is read off the maxsat2 program's length 1 + 5n + 8c
    and the decision-phase length off the gap program's first `ite`; the
    `# meta` fields that state them are written but not read."""

    def test_false_clause_count_is_not_read(self):
        red = reduce_maxsat2(MaxSat2Instance(2, [[1, -2], [2]]), width=4)
        text = serialize_reduced(red).replace("clauses=2", "clauses=7", 1)
        assert "clauses=7" in text
        back = load_reduced(text)
        assert (back.num_clauses, len(back.program.instructions)) == (2, 27)

    def test_false_decision_len_is_not_read(self):
        gap = reduce_sat_gap(SatInstance(2, [[1], [-2]]), width=4)
        text = serialize_gap(gap).replace(f"decision_len={gap.decision_len}", "decision_len=1", 1)
        assert "decision_len=1 " in text
        assert load_gap(text).decision_len == gap.decision_len == 9

    def test_meta_counts_equal_the_derived_ones(self):
        # the decision phase is a mov and a store per variable, then per
        # literal a load, an xor if negated and an or after the clause's
        # first, an and after the first clause (a mov for no clauses), and
        # the widening ite
        rng = random.Random(229)
        for _ in range(50):
            inst = random_maxsat2(rng)
            text = serialize_reduced(reduce_maxsat2(inst, width=rng.randint(1, 8)))
            assert meta_fields(text)["clauses"] == str(load_reduced(text).num_clauses) == str(len(inst.clauses))
            inst = random_sat(rng)
            text = serialize_gap(reduce_sat_gap(inst, width=rng.randint(1, 8), factor=rng.choice([1, 2.5])))
            literals = [lit for clause in inst.clauses for lit in clause]
            negated = sum(lit < 0 for lit in literals)
            decision_len = 2 * inst.num_vars + 2 * len(literals) + negated + 2 * (not inst.clauses)
            assert meta_fields(text)["decision_len"] == str(load_gap(text).decision_len) == str(decision_len)

    def test_maxsat2_length_must_fit(self):
        text = serialize_reduced(reduce_maxsat2(MaxSat2Instance(2, [[1, -2], [2]]), width=4))
        short = text[:text.rindex("o27:")]
        with pytest.raises(CswpError, match=re.escape("has 1 + 5n + 8c instructions, not 26")):
            load_reduced(short)
        # the 27 instructions less a whole clause gadget or two fit; less
        # any other count, down to inside the variable gadgets, do not
        program = parse_program(text)
        for cut in range(1, 18):
            prefix = Program(width=4, mem_size=4, instructions=program.instructions[:-cut],
                             free_inputs=program.free_inputs)
            if cut % 8:
                with pytest.raises(CswpError, match=f"not {27 - cut}$"):
                    ReducedProgram(prefix)
            else:
                assert ReducedProgram(prefix).num_clauses == 2 - cut // 8

    def test_gap_program_needs_an_ite_before_its_end(self):
        gap = reduce_sat_gap(SatInstance(2, [[1], [-2]]), width=4)
        decision = gap.program.instructions[:gap.decision_len]
        assert decision[-1].mnemonic == "ite"
        for program in (clause_evaluation(gap), Program(width=4, mem_size=2, instructions=decision,
                                                        free_inputs=gap.program.free_inputs)):
            with pytest.raises(CswpError, match="no ite ends a sat-gap decision phase"):
                GapProgram(program)
            with pytest.raises(CswpError, match="no ite ends a sat-gap decision phase"):
                load_gap("# meta kind=sat-gap\n" + serialize_program(program))


class TestLiterals:
    @pytest.mark.parametrize("token, lit", [
        ("x3", 3), ("3", 3), (" x12 ", 12), ("~x3", -3), ("!x3", -3), ("-x3", -3), ("-3", -3),
    ])
    def test_parse_literal(self, token, lit):
        assert parse_literal(token) == lit

    @pytest.mark.parametrize("token", [
        "x0", "~0", "y1", "x", "x1x",
        # past the digits int() converts
        pytest.param("x" + "1" * 5000, id="x1...1"),
        pytest.param("~x" + "0" * 4999 + "1", id="~x0...01"),
    ])
    def test_bad_token_rejected(self, token):
        with pytest.raises(CswpError, match="bad literal"):
            parse_literal(token)

    @pytest.mark.parametrize("lit", [0, True, False, 1.0, "x1", None])
    def test_bad_literal_rejected(self, lit):
        for cls in (SatInstance, MaxSat2Instance):
            with pytest.raises(CswpError, match="bad literal"):
                cls(1, [[lit]])

    @pytest.mark.parametrize("assignment", [[], [True], [True, False, True]])
    def test_count_satisfied_needs_a_full_assignment(self, assignment):
        with pytest.raises(CswpError, match=f"assignment covers {len(assignment)} of 2 variables"):
            count_satisfied(SatInstance(2, [[1, -2]]), assignment)

    @pytest.mark.parametrize("num_vars, shown", [(2.5, "2.5"), (True, "True"), ("3", "'3'")])
    def test_num_vars_must_be_an_int(self, num_vars, shown):
        for cls in (SatInstance, MaxSat2Instance):
            with pytest.raises(CswpError, match=re.escape(f"number of variables {shown} is not an int")):
                cls(num_vars, [[1]])
