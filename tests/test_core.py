import dataclasses
import random
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import pytest

from cswp.core import (
    BINARY01,
    FULL,
    Const,
    ExecutionError,
    Free,
    Instruction,
    MemRead,
    PriorOutput,
    Program,
    ProgramValidationError,
    apply_mnemonic,
    execute,
    hamming_distance,
    validate_program,
)
from cswp.textfmt import parse_program, serialize_program

from randprog import random_program


class TestHammingDistance:
    def test_complement_flips_all_bits(self):
        assert hamming_distance(0x00, 0xFF) == 8

    def test_identity(self):
        for v in (0, 1, 0x5A, 0xFF):
            assert hamming_distance(v, v) == 0

    def test_simple_pair(self):
        assert hamming_distance(0b0110, 0b0011) == 2

    def test_metric_axioms_small_width(self):
        # exhaustive w=4 here; w=8 runs in the acceptance suite
        vals = range(16)
        for a in vals:
            assert hamming_distance(a, a) == 0
            assert hamming_distance(a, a ^ 0xF) == 4
            for b in vals:
                assert hamming_distance(a, b) == hamming_distance(b, a)
                for c in vals:
                    assert hamming_distance(a, c) <= hamming_distance(a, b) + hamming_distance(b, c)


class SubConst(Const):
    pass


class SubMemRead(MemRead):
    pass


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
        assert trace.outputs == (0, 15, 0)

    def test_xor_with_constant(self):
        p = prog(8, [
            Instruction("mov", (Free("0"),)),
            Instruction("xor", (PriorOutput(0), Const(0x1))),
        ], free_inputs=[("0", FULL)])
        trace = execute(p, {"0": 1})
        assert trace.outputs == (1, 0)

    def test_add_wraps_modulo_width(self):
        p = prog(2, [
            Instruction("mov", (Free("0"),)),
            Instruction("add", (PriorOutput(0), PriorOutput(0))),
        ], free_inputs=[("0", FULL)])
        trace = execute(p, {"0": 3})
        assert trace.outputs == (3, 2)

    def test_store_value_appears_on_datapath_and_in_memory(self):
        p = prog(4, [
            Instruction("mov", (Const(0x9),)),
            Instruction("store", (PriorOutput(0),), mem_dest=1),
            Instruction("load", (MemRead(1),)),
        ], mem_size=2)
        trace = execute(p, {})
        assert trace.outputs == (9, 9, 9)
        assert trace.final_memory == {1: 9}

    def test_load_unwritten_cell_is_zero(self):
        p = prog(4, [Instruction("load", (MemRead(0),))], mem_size=1)
        assert execute(p, {}).outputs[0] == 0

    def test_ite_and_eqz(self):
        p = prog(4, [
            Instruction("mov", (Free("c"),)),
            Instruction("ite", (PriorOutput(0), Const(0xA), Const(0x5))),
            Instruction("eqz", (PriorOutput(0),)),
        ], free_inputs=[("c", FULL)])
        assert execute(p, {"c": 2}).outputs == (2, 0xA, 0)
        assert execute(p, {"c": 0}).outputs == (0, 0x5, 1)

    def test_shifts_mod_width(self):
        p = prog(4, [
            Instruction("mov", (Const(0x3),)),
            Instruction("shl", (PriorOutput(0), Const(0x5))),  # 5 mod 4 == 1
            Instruction("shr", (PriorOutput(0), Const(0x1))),
        ])
        assert execute(p, {}).outputs == (3, 6, 1)

    def test_sub_and_not(self):
        p = prog(8, [
            Instruction("mov", (Const(0),)),
            Instruction("sub", (PriorOutput(0), Const(1))),
            Instruction("not", (PriorOutput(1),)),
        ])
        assert execute(p, {}).outputs == (0, 0xFF, 0)

    def test_missing_assignment_rejected(self):
        p = prog(4, [Instruction("mov", (Free("a"),))], free_inputs=[("a", FULL)])
        with pytest.raises(ExecutionError, match="missing"):
            execute(p, {})

    def test_extra_assignment_rejected(self):
        p = prog(4, [Instruction("mov", (Const(0),))])
        with pytest.raises(ExecutionError, match="undeclared"):
            execute(p, {"ghost": 0})

    def test_value_wider_than_program_rejected(self):
        p = prog(4, [Instruction("mov", (Free("a"),))], free_inputs=[("a", FULL)])
        execute(p, {"a": 15})
        for value in (16, -1):
            with pytest.raises(ExecutionError, match="does not fit"):
                execute(p, {"a": value})

    def test_cost_independent_of_declared_memory(self):
        # memory holds the stored cells only, never one per declared cell
        p = prog(8, [Instruction("store", (Const(7),), mem_dest=10**6 - 1)], mem_size=10**6)
        tracemalloc.start()
        try:
            trace = execute(p, {})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert trace.final_memory == {10**6 - 1: 7}
        assert peak < 1 << 20

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
        assert execute(p, {}).transitions == (4, 4)

    def test_repeated_output_is_a_nop(self):
        p = prog(8, [
            Instruction("mov", (Free("0"),)),
            Instruction("mov", (PriorOutput(0),)),
        ], free_inputs=[("0", FULL)])
        for v in (0, 1, 0xAB, 0xFF):
            assert execute(p, {"0": v}).transitions == (0,)

    def test_hand_simulated_add(self):
        p = prog(2, [
            Instruction("mov", (Free("0"),)),
            Instruction("add", (PriorOutput(0), PriorOutput(0))),
        ], free_inputs=[("0", FULL)])
        assert execute(p, {"0": 1}).transitions == (2,)

    def test_total_bounded_by_coarse_limit(self):
        rng = random.Random(11)
        for _ in range(50):
            p = random_program(rng)
            assignment = {name: (rng.randrange(2) if d == BINARY01 else rng.randrange(1 << p.width))
                          for name, d in p.free_inputs}
            trace = execute(p, assignment)
            n = len(p.instructions)
            assert len(trace.transitions) == max(0, n - 1)
            assert 0 <= sum(trace.transitions) <= max(0, n - 1) * p.width
            assert all(0 <= t <= p.width for t in trace.transitions)
            assert list(trace.transitions) == [bin(a ^ b).count("1") for a, b in
                                               zip(trace.outputs, trace.outputs[1:])]


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

    @pytest.mark.parametrize("text, message", [
        ("width 4\no1: load m[0]\n", "memory address 0, but the program declares no memory"),
        ("width 4\nmem 0\no1: load m[3]\n", "memory address 3, but the program declares no memory"),
        ("width 4\no1: store #0x1 -> m[0]\n", "mem_dest 0, but the program declares no memory"),
        ("width 4\nmem 0\no1: store #0x1 -> m[2]\n", "mem_dest 2, but the program declares no memory"),
        ("width 4\nmem 1\no1: load m[1]\n", "memory address 1 outside 0..0"),
        ("width 4\nmem 2\no1: load m[2]\n", "memory address 2 outside 0..1"),
        ("width 4\nmem 1\no1: store #0x1 -> m[1]\n", "mem_dest 1 outside 0..0"),
        ("width 4\nmem 2\no1: store #0x1 -> m[7]\n", "mem_dest 7 outside 0..1"),
    ], ids=["load-no-mem-line", "load-mem-0", "store-no-mem-line", "store-mem-0",
            "load-mem-1", "load-mem-2", "store-mem-1", "store-mem-2"])
    def test_address_past_memory_message(self, text, message):
        with pytest.raises(ProgramValidationError) as excinfo:
            parse_program(text)
        assert str(excinfo.value) == f"invalid program: instruction 0: {message}"

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

    @pytest.mark.parametrize("instructions, free_inputs, mem_size, violation", [
        ([Instruction("mov", (Const(0),))], (), -1, "mem_size -1 is negative"),
        ([Instruction("mov", (Const(0),))], [("a", "02")], 0, "free input 'a' has unknown domain '02'"),
        ([Instruction("frob", (Const(0),))], (), 0, "instruction 0: unknown mnemonic 'frob'"),
    ], ids=["negative mem_size", "unknown domain", "unknown mnemonic"])
    def test_api_only_violations(self, instructions, free_inputs, mem_size, violation):
        # the text format cannot state these, so only a Program built in Python meets them
        assert rejected(4, instructions, free_inputs, mem_size) == [violation]

    def test_apply_mnemonic_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown mnemonic 'frob'"):
            apply_mnemonic("frob", (0,), 4)

    def test_oversized_constant(self):
        assert any("does not fit" in v for v in rejected(4, [Instruction("mov", (Const(16),))]))

    def test_huge_width_rejected_without_a_width_sized_integer(self):
        tracemalloc.start()
        try:
            violations = rejected(10**8, [Instruction("mov", (Const(1 << 64),))])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert violations == [f"width {10**8} outside 1..64"]
        assert peak < 1 << 20

    @pytest.mark.parametrize("mnemonic, operand, messages", [
        ("mov", (0,), []),
        ("mov", SubConst(0), []),
        ("load", SubMemRead(0), ["load input must be a memory read"]),
    ], ids=["tuple", "Const subclass", "load of a MemRead subclass"])
    def test_operand_of_no_exact_class_rejected(self, mnemonic, operand, messages):
        # an operand must be exactly one of the four classes, so that every
        # walk over a valid program can dispatch on type(src) alone
        violations = rejected(4, [Instruction(mnemonic, (operand,))], mem_size=1)
        expected = [*messages, f"unknown operand source {operand!r}"]
        assert violations == [f"instruction 0: {v}" for v in expected]

    def test_fields_cannot_be_reassigned(self):
        p = prog(4, [Instruction("mov", (Const(0),))])
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.instructions = (Instruction("mov", (PriorOutput(4),)),)

    @pytest.mark.parametrize("field, value", [("mnemonic", "frob"), ("inputs", ()), ("mem_dest", 0)])
    def test_instruction_fields_cannot_be_reassigned(self, field, value):
        p = parse_program("width 4\nmem 1\no1: mov #0x1\no2: store o1 -> m[0]\n")
        for insn in p.instructions:
            with pytest.raises(AttributeError):
                setattr(insn, field, value)
        assert p == parse_program(serialize_program(p))

    def test_equal_programs_hash_equal(self):
        rng = random.Random(16)
        for _ in range(50):
            p = random_program(rng)
            q = parse_program(serialize_program(p))
            assert p == q and hash(p) == hash(q)

    def test_instruction_stores_inputs_as_a_tuple(self):
        from_list = Instruction("add", [Free("a"), Const(1)])
        assert from_list == Instruction("add", (Free("a"), Const(1)))
        assert type(from_list.inputs) is tuple

    def test_random_programs_are_valid(self):
        rng = random.Random(3)
        for _ in range(100):
            assert validate_program(random_program(rng)) == []
