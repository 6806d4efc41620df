import dataclasses
import random
from concurrent.futures import ThreadPoolExecutor

import pytest

from cswp.core import (
    BINARY01,
    FULL,
    BitVector,
    Const,
    ExecutionError,
    Free,
    Instruction,
    MemRead,
    PriorOutput,
    Program,
    ProgramValidationError,
    evaluate_switching,
    execute,
    hamming_distance,
    validate_program,
)

from randprog import random_program


def bv(value, width=8):
    return BitVector(value, width)


class TestBitVector:
    def test_rejects_out_of_range_value(self):
        with pytest.raises(ValueError):
            BitVector(16, 4)

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            BitVector(0, 0)
        with pytest.raises(ValueError):
            BitVector(0, 65)


class TestHammingDistance:
    def test_complement_flips_all_bits(self):
        assert hamming_distance(bv(0x00), bv(0xFF)) == 8

    def test_identity(self):
        for v in (0, 1, 0x5A, 0xFF):
            assert hamming_distance(bv(v), bv(v)) == 0

    def test_simple_pair(self):
        assert hamming_distance(BitVector(0b0110, 4), BitVector(0b0011, 4)) == 2

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            hamming_distance(BitVector(0, 4), BitVector(0, 8))

    def test_metric_axioms_small_width(self):
        # exhaustive w=4 here; w=8 runs in the acceptance suite
        vals = [BitVector(v, 4) for v in range(16)]
        for a in vals:
            assert hamming_distance(a, a) == 0
            assert hamming_distance(a, BitVector(a.value ^ 0xF, 4)) == 4
            for b in vals:
                assert hamming_distance(a, b) == hamming_distance(b, a)
                for c in vals:
                    assert hamming_distance(a, c) <= hamming_distance(a, b) + hamming_distance(b, c)


def prog(width, instructions, free_inputs=(), mem_size=0):
    return Program(width=width, mem_size=mem_size, instructions=instructions,
                   free_inputs=free_inputs)


def rejected(width, instructions, free_inputs=(), mem_size=0):
    """The violations that building this program raises."""
    with pytest.raises(ProgramValidationError) as excinfo:
        prog(width, instructions, free_inputs, mem_size)
    return excinfo.value.violations


class TestExecute:
    def test_constants_pass_through(self):
        p = prog(4, [
            Instruction("mov", (Const(0x0),)),
            Instruction("mov", (Const(0xF),)),
            Instruction("mov", (Const(0x0),)),
        ])
        trace = execute(p, {})
        assert [o.value for o in trace.outputs] == [0, 15, 0]

    def test_xor_with_constant(self):
        p = prog(8, [
            Instruction("mov", (Free("0"),)),
            Instruction("xor", (PriorOutput(0), Const(0x1))),
        ], free_inputs=[("0", FULL)])
        trace = execute(p, {"0": 1})
        assert [o.value for o in trace.outputs] == [1, 0]

    def test_add_wraps_modulo_width(self):
        p = prog(2, [
            Instruction("mov", (Free("0"),)),
            Instruction("add", (PriorOutput(0), PriorOutput(0))),
        ], free_inputs=[("0", FULL)])
        trace = execute(p, {"0": 3})
        assert [o.value for o in trace.outputs] == [3, 2]

    def test_store_value_appears_on_datapath_and_in_memory(self):
        p = prog(4, [
            Instruction("mov", (Const(0x9),)),
            Instruction("store", (PriorOutput(0),), mem_dest=1),
            Instruction("load", (MemRead(1),)),
        ], mem_size=2)
        trace = execute(p, {})
        assert [o.value for o in trace.outputs] == [9, 9, 9]
        assert [m.value for m in trace.final_memory] == [0, 9]

    def test_load_unwritten_cell_is_zero(self):
        p = prog(4, [Instruction("load", (MemRead(0),))], mem_size=1)
        assert execute(p, {}).outputs[0].value == 0

    def test_ite_and_eqz(self):
        p = prog(4, [
            Instruction("mov", (Free("c"),)),
            Instruction("ite", (PriorOutput(0), Const(0xA), Const(0x5))),
            Instruction("eqz", (PriorOutput(0),)),
        ], free_inputs=[("c", FULL)])
        assert [o.value for o in execute(p, {"c": 2}).outputs] == [2, 0xA, 0]
        assert [o.value for o in execute(p, {"c": 0}).outputs] == [0, 0x5, 1]

    def test_shifts_mod_width(self):
        p = prog(4, [
            Instruction("mov", (Const(0x3),)),
            Instruction("shl", (PriorOutput(0), Const(0x5))),  # 5 mod 4 == 1
            Instruction("shr", (PriorOutput(0), Const(0x1))),
        ])
        assert [o.value for o in execute(p, {}).outputs] == [3, 6, 1]

    def test_sub_and_not(self):
        p = prog(8, [
            Instruction("mov", (Const(0),)),
            Instruction("sub", (PriorOutput(0), Const(1))),
            Instruction("not", (PriorOutput(1),)),
        ])
        assert [o.value for o in execute(p, {}).outputs] == [0, 0xFF, 0]

    def test_missing_assignment_rejected(self):
        p = prog(4, [Instruction("mov", (Free("a"),))], free_inputs=[("a", FULL)])
        with pytest.raises(ExecutionError, match="missing"):
            execute(p, {})

    def test_extra_assignment_rejected(self):
        p = prog(4, [Instruction("mov", (Const(0),))])
        with pytest.raises(ExecutionError, match="undeclared"):
            execute(p, {"ghost": 0})

    def test_binary_domain_enforced(self):
        p = prog(4, [Instruction("mov", (Free("a"),))],
                 free_inputs=[("a", BINARY01)])
        execute(p, {"a": 1})
        with pytest.raises(ExecutionError, match="binary"):
            execute(p, {"a": 2})

    def test_invalid_program_rejected(self):
        rejected(4, [Instruction("mov", (PriorOutput(3),))])

    def test_deterministic_across_calls_and_threads(self):
        rng = random.Random(7)
        p = random_program(rng)
        assignment = {name: (rng.randrange(2) if d == BINARY01 else rng.randrange(1 << p.width))
                      for name, d in p.free_inputs}
        reference = execute(p, assignment)
        assert execute(p, assignment) == reference
        with ThreadPoolExecutor(max_workers=8) as pool:
            traces = list(pool.map(lambda _: execute(p, assignment), range(32)))
        assert all(t == reference for t in traces)


class TestEvaluateSwitching:
    def test_full_flip_twice(self):
        p = prog(4, [
            Instruction("mov", (Const(0x0),)),
            Instruction("mov", (Const(0xF),)),
            Instruction("mov", (Const(0x0),)),
        ])
        report = evaluate_switching(p, {})
        assert report.transitions == (4, 4)
        assert report.total == 8

    def test_repeated_output_is_a_nop(self):
        p = prog(8, [
            Instruction("mov", (Free("0"),)),
            Instruction("mov", (PriorOutput(0),)),
        ], free_inputs=[("0", FULL)])
        for v in (0, 1, 0xAB, 0xFF):
            assert evaluate_switching(p, {"0": v}).total == 0

    def test_hand_simulated_add(self):
        p = prog(2, [
            Instruction("mov", (Free("0"),)),
            Instruction("add", (PriorOutput(0), PriorOutput(0))),
        ], free_inputs=[("0", FULL)])
        assert evaluate_switching(p, {"0": 1}).total == 2

    def test_total_bounded_by_coarse_limit(self):
        rng = random.Random(11)
        for _ in range(50):
            p = random_program(rng)
            assignment = {name: (rng.randrange(2) if d == BINARY01 else rng.randrange(1 << p.width))
                          for name, d in p.free_inputs}
            report = evaluate_switching(p, assignment)
            n = len(p.instructions)
            assert 0 <= report.total <= max(0, n - 1) * p.width
            assert all(0 <= t <= p.width for t in report.transitions)
            assert report.total == sum(report.transitions)


class TestValidateProgram:
    def test_well_formed_program(self):
        p = prog(4, [
            Instruction("mov", (Const(0),)),
            Instruction("add", (PriorOutput(0), Const(1))),
            Instruction("mov", (PriorOutput(1),)),
        ])
        assert validate_program(p) == []

    def test_forward_reference_reported_with_index(self):
        violations = rejected(4, [
            Instruction("mov", (Const(0),)),
            Instruction("mov", (Const(0),)),
            Instruction("mov", (PriorOutput(4),)),
        ])
        assert len(violations) == 1
        assert "instruction 2" in violations[0]
        assert "o5" in violations[0]

    def test_store_without_destination(self):
        violations = rejected(4, [Instruction("store", (Const(0),))], mem_size=1)
        assert any("memory destination" in v for v in violations)

    def test_wrong_arity(self):
        assert any("takes 2" in v for v in rejected(4, [Instruction("add", (Const(0),))]))

    def test_load_requires_memory_source(self):
        violations = rejected(4, [Instruction("load", (Const(0),))], mem_size=1)
        assert any("memory read" in v for v in violations)

    def test_address_out_of_range(self):
        violations = rejected(4, [Instruction("load", (MemRead(3),))], mem_size=2)
        assert any("address 3" in v for v in violations)

    def test_undeclared_free_input(self):
        assert any("not declared" in v for v in rejected(4, [Instruction("mov", (Free("a"),))]))

    @pytest.mark.parametrize("name", ["x-y", "", "a b", "é", "x\n"])
    def test_name_outside_text_format_rejected(self, name):
        violations = rejected(4, [Instruction("mov", (Free(name),))], free_inputs=[(name, FULL)])
        assert violations == [f"free input name {name!r} does not match [A-Za-z0-9_]+"]

    def test_duplicate_free_declaration(self):
        violations = rejected(4, [Instruction("mov", (Const(0),))],
                              free_inputs=[("a", FULL), ("a", BINARY01)])
        assert any("more than once" in v for v in violations)

    def test_oversized_constant(self):
        assert any("does not fit" in v for v in rejected(4, [Instruction("mov", (Const(16),))]))

    def test_fields_cannot_be_reassigned(self):
        p = prog(4, [Instruction("mov", (Const(0),))])
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.instructions = (Instruction("mov", (PriorOutput(4),)),)

    def test_random_programs_are_valid(self):
        rng = random.Random(3)
        for _ in range(100):
            assert validate_program(random_program(rng)) == []
