"""Straight-line bit-vector machine: program model, execution, switching objective.

A program is a fixed sequence of instructions over width-w bit-vectors with no
branches. Each instruction produces exactly one value on the output datapath
(stores included), and the quantity of interest is the total Hamming distance
between consecutive output values, maximized over the program's free inputs.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence, Union

MAX_WIDTH = 64

# free-input domains
BINARY01 = "01"
FULL = "full"
DOMAINS = (BINARY01, FULL)

# the free-input names the text format can carry
NAME_PATTERN = "[A-Za-z0-9_]+"
_NAME = re.compile(NAME_PATTERN)

# arity per mnemonic; store additionally requires mem_dest
ARITY = {
    "mov": 1,
    "not": 1,
    "eqz": 1,
    "load": 1,
    "add": 2,
    "sub": 2,
    "and": 2,
    "or": 2,
    "xor": 2,
    "shl": 2,
    "shr": 2,
    "store": 1,
    "ite": 3,
}
MNEMONICS = frozenset(ARITY)
# the copies: each outputs its one operand's value
COPIES = frozenset({"mov", "store", "load"})


class CswpError(Exception):
    """Base class for all domain errors raised by this package."""


class ProgramValidationError(CswpError):
    """Program violates a structural invariant; carries the violation list."""

    def __init__(self, violations: Sequence[str]):
        self.violations = list(violations)
        super().__init__("invalid program: " + "; ".join(self.violations))


class ExecutionError(CswpError):
    """Bad assignment: missing/extra free inputs or a domain violation."""


def hamming_distance(a: int, b: int) -> int:
    """Number of bit positions where the unsigned values `a` and `b` differ."""
    return (a ^ b).bit_count()


# ---------------------------------------------------------------------------
# Operand sources

@dataclass(frozen=True)
class Free:
    """Program input; its domain is declared in Program.free_inputs."""

    name: str


@dataclass(frozen=True)
class Const:
    value: int


@dataclass(frozen=True)
class MemRead:
    addr: int


@dataclass(frozen=True)
class PriorOutput:
    """Output of an earlier instruction, 0-based index into the program."""

    index: int


# the four operand classes; an operand of a valid Program is an instance of
# exactly one of them, and of no subclass (see validate_program)
OperandSource = Union[Free, Const, MemRead, PriorOutput]


class _InstructionFields(NamedTuple):
    mnemonic: str
    inputs: tuple
    mem_dest: int | None = None


class Instruction(_InstructionFields):
    """One instruction; immutable, like every part of a Program. `inputs` is
    stored as a tuple, whatever sequence it is given as. Where `inputs` is a
    tuple already, `tuple.__new__(Instruction, (mnemonic, inputs, mem_dest))`
    builds the same instruction without this Python-level `__new__` or the
    frame of `_make`; the parser's serializer-form path and the reductions
    do so."""

    __slots__ = ()

    def __new__(cls, mnemonic: str, inputs: Sequence, mem_dest: int | None = None):
        return tuple.__new__(cls, (mnemonic, tuple(inputs), mem_dest))


@dataclass(frozen=True)
class Program:
    """Straight-line program: width, memory size, instructions, declared free inputs.

    free_inputs is an ordered tuple of (name, domain) pairs; declaration order
    defines enumeration and witness ordering everywhere downstream. A Program
    is valid by construction: building one that `validate_program` rejects
    raises ProgramValidationError, and neither its fields nor those of its
    instructions can be reassigned, so it stays valid and is hashable.
    """

    width: int
    mem_size: int = 0
    instructions: tuple = ()
    free_inputs: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "instructions", tuple(self.instructions))
        object.__setattr__(self, "free_inputs", tuple((str(n), d) for n, d in self.free_inputs))
        violations = validate_program(self)
        if violations:
            raise ProgramValidationError(violations)


@dataclass
class ExecutionTrace:
    """One run: each instruction's output value, the Hamming distance of
    each pair of consecutive outputs (no transition precedes o_1), the cells
    the program stored with their final values, and each instruction's
    resolved operand values. Every value is a plain unsigned int."""

    outputs: tuple
    transitions: tuple
    final_memory: dict
    input_values: tuple


# ---------------------------------------------------------------------------
# Semantics

def apply_mnemonic(mnemonic: str, args: Sequence[int], width: int) -> int:
    """Compute one instruction's output value, modulo 2**width."""
    mask = (1 << width) - 1
    if mnemonic in COPIES:
        return args[0] & mask
    if mnemonic == "add":
        return (args[0] + args[1]) & mask
    if mnemonic == "sub":
        return (args[0] - args[1]) & mask
    if mnemonic == "and":
        return args[0] & args[1]
    if mnemonic == "or":
        return args[0] | args[1]
    if mnemonic == "xor":
        return args[0] ^ args[1]
    if mnemonic == "not":
        return ~args[0] & mask
    if mnemonic == "shl":
        return (args[0] << (args[1] % width)) & mask
    if mnemonic == "shr":
        return args[0] >> (args[1] % width)
    if mnemonic == "ite":
        return args[1] if args[0] != 0 else args[2]
    if mnemonic == "eqz":
        return 1 if args[0] == 0 else 0
    raise ValueError(f"unknown mnemonic {mnemonic!r}")


@functools.cache  # one table per width, at most MAX_WIDTH of them
def vector_ops(width: int) -> dict:
    """Column forms of `apply_mnemonic` over unsigned integer arrays of any
    dtype that holds `width` bits, but for the `COPIES`, which the lowering
    resolves to their operand's column. The masks and shift widths are Python
    ints, which NumPy 2 casts to the column's dtype, so every result keeps its
    operands' dtype. NumPy is imported here, not with this module, so that a
    command which computes no columns never loads it."""
    import numpy as np

    mask = (1 << width) - 1
    return {
        "add": lambda a, b: (a + b) & mask,
        "sub": lambda a, b: (a - b) & mask,
        "and": np.bitwise_and,
        "or": np.bitwise_or,
        "xor": np.bitwise_xor,
        "not": lambda a: ~a & mask,
        "shl": lambda a, b: (a << (b % width)) & mask,
        "shr": lambda a, b: a >> (b % width),
        # a branch-free blend, several times faster than np.where on
        # narrow columns: the rows where c is nonzero take all of a ^ b
        "ite": lambda c, a, b: b ^ ((a ^ b) & ((c != 0).astype(c.dtype) * mask)),
        "eqz": lambda a: (a == 0).astype(a.dtype),
    }


def validate_program(program: Program) -> list[str]:
    """Check every structural invariant; returns [] when the program is valid.
    `Program.__post_init__` calls it on every Program built. It is the one
    guarantor that each operand's class is exactly one of the four of
    `OperandSource`, so `execute`, `analysis._lower` and
    `textfmt.serialize_program` dispatch on `type(src)` with no fallback."""
    violations = []
    width, mem_size = program.width, program.mem_size
    if not 1 <= width <= MAX_WIDTH:
        violations.append(f"width {width} outside 1..{MAX_WIDTH}")
    if mem_size < 0:
        violations.append(f"mem_size {mem_size} is negative")

    declared = set()
    for name, domain in program.free_inputs:
        if name in declared:
            violations.append(f"free input {name!r} declared more than once")
        declared.add(name)
        if not _NAME.fullmatch(name):
            violations.append(f"free input name {name!r} does not match {NAME_PATTERN}")
        if domain not in DOMAINS:
            violations.append(f"free input {name!r} has unknown domain {domain!r}")

    # bit_length, not a mask: a mask of a huge rejected width is a huge integer
    value_bits = max(width, 1)
    for idx, (mnemonic, inputs, mem_dest) in enumerate(program.instructions):
        arity = ARITY.get(mnemonic)
        if arity is None:
            violations.append(f"instruction {idx}: unknown mnemonic {mnemonic!r}")
            continue
        first = len(violations)  # this instruction's violations get its prefix below
        if len(inputs) != arity:
            violations.append(f"{mnemonic} takes {arity} input(s), got {len(inputs)}")
        if mnemonic == "store" and mem_dest is None:
            violations.append("store requires a memory destination")
        if mnemonic == "load" and inputs and type(inputs[0]) is not MemRead:
            violations.append("load input must be a memory read")
        if mem_dest is not None and not 0 <= mem_dest < mem_size:
            violations.append(_outside_memory(f"mem_dest {mem_dest}", mem_size))
        # by exact class, commonest first: an instance of a subclass is no
        # operand, so every later walk dispatches on type(src) alone
        for src in inputs:
            kind = type(src)
            if kind is PriorOutput:
                if not 0 <= src.index < idx:
                    violations.append(f"forward or self reference to o{src.index + 1}")
            elif kind is Const:
                if src.value < 0 or src.value.bit_length() > value_bits:
                    violations.append(f"constant {src.value:#x} does not fit in {width} bits")
            elif kind is Free:
                if src.name not in declared:
                    violations.append(f"free input {src.name!r} not declared")
            elif kind is MemRead:
                if not 0 <= src.addr < mem_size:
                    violations.append(_outside_memory(f"memory address {src.addr}", mem_size))
            else:
                violations.append(f"unknown operand source {src!r}")
        if len(violations) > first:
            violations[first:] = [f"instruction {idx}: {v}" for v in violations[first:]]
    return violations


def _outside_memory(what: str, mem_size: int) -> str:
    """The violation of a memory address past the declared memory."""
    if mem_size > 0:
        return f"{what} outside 0..{mem_size - 1}"
    return f"{what}, but the program declares no memory"


def _check_assignment(program: Program, assignment: Mapping) -> dict[str, int]:
    declared = dict(program.free_inputs)
    values = {}
    for name, raw in assignment.items():
        if name not in declared:
            raise ExecutionError(f"assignment names undeclared free input {name!r}")
        val = int(raw)
        if not 0 <= val < (1 << program.width):
            raise ExecutionError(f"free input {name!r}: value {val:#x} does not fit in {program.width} bits")
        if declared[name] == BINARY01 and val not in (0, 1):
            raise ExecutionError(f"free input {name!r} is binary (01) but got {val:#x}")
        values[name] = val
    missing = set(declared) - set(values)
    if missing:
        raise ExecutionError(f"assignment missing free input(s): {', '.join(sorted(missing))}")
    return values


def execute(program: Program, assignment: Mapping) -> ExecutionTrace:
    """Run the program deterministically; a cell reads zero until stored.

    `assignment` maps each declared free-input name to an int. This operand
    walk is the scalar reference that the engines are tested against.
    """
    values = _check_assignment(program, assignment)
    w = program.width
    memory = {}  # only stored cells: the declared size costs nothing
    outputs = []
    input_values = []

    for mnemonic, inputs, mem_dest in program.instructions:
        args = []
        for src in inputs:  # a valid program's operands are of these exact classes
            kind = type(src)
            if kind is PriorOutput:
                args.append(outputs[src.index])
            elif kind is Const:
                args.append(src.value)
            elif kind is Free:
                args.append(values[src.name])
            else:  # MemRead
                args.append(memory.get(src.addr, 0))
        out = apply_mnemonic(mnemonic, args, w)
        if mem_dest is not None:
            memory[mem_dest] = out
        outputs.append(out)
        input_values.append(tuple(args))
    return ExecutionTrace(
        outputs=tuple(outputs),
        transitions=tuple(map(hamming_distance, outputs, outputs[1:])),
        final_memory=memory,
        input_values=tuple(input_values),
    )
