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
from typing import Mapping, Sequence, Union

import numpy as np

MAX_WIDTH = 64

# free-input domains
BINARY01 = "01"
FULL = "full"
DOMAINS = (BINARY01, FULL)

# the free-input names the text format can carry
NAME_PATTERN = "[A-Za-z0-9_]+"

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


class CswpError(Exception):
    """Base class for all domain errors raised by this package."""


class ProgramValidationError(CswpError):
    """Program violates a structural invariant; carries the violation list."""

    def __init__(self, violations: Sequence[str]):
        self.violations = list(violations)
        super().__init__("invalid program: " + "; ".join(self.violations))


class ExecutionError(CswpError):
    """Bad assignment: missing/extra free inputs or a domain violation."""


@dataclass(frozen=True)
class BitVector:
    """Unsigned value of a fixed bit width; all arithmetic is modulo 2**width."""

    value: int
    width: int

    def __post_init__(self):
        if not 1 <= self.width <= MAX_WIDTH:
            raise ValueError(f"width {self.width} outside 1..{MAX_WIDTH}")
        if not 0 <= self.value < (1 << self.width):
            raise ValueError(f"value {self.value:#x} does not fit in {self.width} bits")

    def __str__(self):
        return f"0x{self.value:x}"


def hamming_distance(a: BitVector, b: BitVector) -> int:
    """Number of bit positions where `a` and `b` differ."""
    if a.width != b.width:
        raise ValueError(f"width mismatch: {a.width} vs {b.width}")
    return (a.value ^ b.value).bit_count()


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


OperandSource = Union[Free, Const, MemRead, PriorOutput]


@dataclass
class Instruction:
    mnemonic: str
    inputs: tuple
    mem_dest: int | None = None

    def __post_init__(self):
        self.inputs = tuple(self.inputs)


@dataclass(frozen=True)
class Program:
    """Straight-line program: width, memory size, instructions, declared free inputs.

    free_inputs is an ordered tuple of (name, domain) pairs; declaration order
    defines enumeration and witness ordering everywhere downstream. A Program
    is valid by construction: building one that `validate_program` rejects
    raises ProgramValidationError, and its fields cannot be reassigned.
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

    @property
    def mask(self) -> int:
        return (1 << self.width) - 1


@dataclass
class ExecutionTrace:
    """Per-instruction output values, final memory, and resolved input operands."""

    outputs: tuple
    final_memory: tuple
    input_values: tuple = ()

    def switching(self) -> SwitchingReport:
        """Hamming distance between each pair of consecutive outputs."""
        values = [bv.value for bv in self.outputs]
        transitions = tuple((a ^ b).bit_count() for a, b in zip(values, values[1:]))
        return SwitchingReport(transitions=transitions, total=sum(transitions))


@dataclass
class SwitchingReport:
    """Hamming distances between consecutive outputs; no transition precedes o_1."""

    transitions: tuple
    total: int


# ---------------------------------------------------------------------------
# Semantics

def apply_mnemonic(mnemonic: str, args: Sequence[int], width: int) -> int:
    """Compute one instruction's output value, modulo 2**width."""
    mask = (1 << width) - 1
    if mnemonic in ("mov", "store", "load"):
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
    """Column forms of `apply_mnemonic` over uint64 arrays (mov, store and
    load are copies and have none)."""
    mask = np.uint64((1 << width) - 1)
    w = np.uint64(width)
    return {
        "add": lambda a, b: (a + b) & mask,
        "sub": lambda a, b: (a - b) & mask,
        "and": np.bitwise_and,
        "or": np.bitwise_or,
        "xor": np.bitwise_xor,
        "not": lambda a: ~a & mask,
        "shl": lambda a, b: (a << (b % w)) & mask,
        "shr": lambda a, b: a >> (b % w),
        "ite": lambda c, a, b: np.where(c != 0, a, b),
        "eqz": lambda a: (a == 0).astype(np.uint64),
    }


def validate_program(program: Program) -> list[str]:
    """Check every structural invariant; returns [] when the program is valid.
    `Program.__post_init__` calls it on every Program built."""
    violations = []
    if not 1 <= program.width <= MAX_WIDTH:
        violations.append(f"width {program.width} outside 1..{MAX_WIDTH}")
    if program.mem_size < 0:
        violations.append(f"mem_size {program.mem_size} is negative")

    declared = set()
    for name, domain in program.free_inputs:
        if name in declared:
            violations.append(f"free input {name!r} declared more than once")
        declared.add(name)
        if not re.fullmatch(NAME_PATTERN, name):
            violations.append(f"free input name {name!r} does not match {NAME_PATTERN}")
        if domain not in DOMAINS:
            violations.append(f"free input {name!r} has unknown domain {domain!r}")

    mask = (1 << max(program.width, 1)) - 1
    for idx, insn in enumerate(program.instructions):
        where = f"instruction {idx}"
        if insn.mnemonic not in MNEMONICS:
            violations.append(f"{where}: unknown mnemonic {insn.mnemonic!r}")
            continue
        if len(insn.inputs) != ARITY[insn.mnemonic]:
            violations.append(
                f"{where}: {insn.mnemonic} takes {ARITY[insn.mnemonic]} input(s), "
                f"got {len(insn.inputs)}"
            )
        if insn.mnemonic == "store" and insn.mem_dest is None:
            violations.append(f"{where}: store requires a memory destination")
        if insn.mnemonic == "load" and insn.inputs and not isinstance(insn.inputs[0], MemRead):
            violations.append(f"{where}: load input must be a memory read")
        if insn.mem_dest is not None and not 0 <= insn.mem_dest < program.mem_size:
            violations.append(f"{where}: mem_dest {insn.mem_dest} outside 0..{program.mem_size - 1}")
        for src in insn.inputs:
            if isinstance(src, Free):
                if src.name not in declared:
                    violations.append(f"{where}: free input {src.name!r} not declared")
            elif isinstance(src, Const):
                if not 0 <= src.value <= mask:
                    violations.append(f"{where}: constant {src.value:#x} does not fit in {program.width} bits")
            elif isinstance(src, MemRead):
                if not 0 <= src.addr < program.mem_size:
                    violations.append(f"{where}: memory address {src.addr} outside 0..{program.mem_size - 1}")
            elif isinstance(src, PriorOutput):
                if not 0 <= src.index < idx:
                    violations.append(f"{where}: forward or self reference to o{src.index + 1}")
            else:
                violations.append(f"{where}: unknown operand source {src!r}")
    return violations


def _check_assignment(program: Program, assignment: Mapping) -> dict[str, int]:
    declared = dict(program.free_inputs)
    values = {}
    for name, raw in assignment.items():
        if name not in declared:
            raise ExecutionError(f"assignment names undeclared free input {name!r}")
        if isinstance(raw, BitVector):
            if raw.width != program.width:
                raise ExecutionError(f"free input {name!r}: width {raw.width} != program width {program.width}")
            val = raw.value
        else:
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


def _run_values(program: Program, values: Mapping[str, int]):
    """Inner interpreter: raw output ints, final memory ints, input tuples."""
    w = program.width
    memory = [0] * program.mem_size
    outputs = []
    input_values = []

    for insn in program.instructions:
        args = []
        for src in insn.inputs:
            if isinstance(src, Const):
                args.append(src.value)
            elif isinstance(src, PriorOutput):
                args.append(outputs[src.index])
            elif isinstance(src, Free):
                args.append(values[src.name])
            else:  # MemRead
                args.append(memory[src.addr])
        out = apply_mnemonic(insn.mnemonic, args, w)
        if insn.mem_dest is not None:
            memory[insn.mem_dest] = out
        outputs.append(out)
        input_values.append(tuple(args))
    return outputs, memory, input_values


def execute(program: Program, assignment: Mapping) -> ExecutionTrace:
    """Run the program deterministically; memory cells start at zero.

    `assignment` maps each declared free-input name to an int or BitVector.
    """
    outputs, memory, input_values = _run_values(program, _check_assignment(program, assignment))
    w = program.width
    return ExecutionTrace(
        outputs=tuple(BitVector(v, w) for v in outputs),
        final_memory=tuple(BitVector(v, w) for v in memory),
        input_values=tuple(input_values),
    )


def evaluate_switching(program: Program, assignment: Mapping) -> SwitchingReport:
    """Total output-datapath switching: sum of h(o_i, o_{i+1}) over consecutive pairs."""
    return execute(program, assignment).switching()
