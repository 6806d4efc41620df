"""Clause-set embeddings into switching activity.

Two constructions are provided:

* reduce_maxsat2: every variable and clause contributes a fixed amount of
  switching, and each *satisfied* clause contributes 2 extra bit flips, so the
  worst-case input of the emitted program is exactly a maximum-satisfiability
  assignment. Variable gadgets read a 0/1 input, xor it with 1, store both the
  value and its complement to the literal array, and reset the datapath to
  zero; clause gadgets reload the two literals with the same constant-
  switching pattern and then `or` them.

* reduce_sat_gap: a decision phase stores the inputs, evaluates every clause,
  and widens the result to an all-ones/all-zero bit pattern; a switching phase
  at least as long as the decision phase then alternates that pattern with
  zero. Every switching-phase transition flips all w bits exactly when the
  stored assignment satisfies the clause set, so a quantified share of the
  objective is governed by satisfiability.

Free inputs are named "0".."n-1" in variable order (variable x_i is input
str(i-1)), all with the binary 0/1 domain. A literal is a signed int (3 is
x3, -3 is ~x3), and every count of an embedding is read off its program.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Mapping

from .core import (
    BINARY01,
    MAX_WIDTH,
    Const,
    CswpError,
    Free,
    Instruction,
    MemRead,
    PriorOutput,
    Program,
)
from .sat import MaxSat2Instance, SatInstance, format_literal
from .textfmt import parse_program, serialize_program

# constants realized by the maxsat2 construction (cross-checked by the tests'
# brute-force/oracle identity): per-variable and per-clause switching, and the
# extra flips contributed by each satisfied clause
K_VAR = 4
K_CLAUSE = 4
K_SAT = 2

# the gap construction's switching phase may hold at most this many
# instructions; a larger factor is rejected before any of the phase is built
MAX_SWITCHING_LEN = 1 << 20

# the maxsat2 program and the gap construction's clause evaluation may hold
# at most this many instructions; a bound on the length, from the instance's
# size, is checked before any of the program is built
MAX_PROGRAM_LEN = 1 << 20


@dataclass
class ReducedProgram:
    """Maxsat2 embedding. Its 1 + 5n + 8|C| instructions give the clause
    count needed to read answers back, and for every full assignment s:
        total switching = K_VAR*n + K_CLAUSE*|C| + K_SAT*sat_count(s)
    """

    program: Program
    num_clauses: int = field(init=False)

    def __post_init__(self):
        n, length = self.num_vars, len(self.program.instructions)
        self.num_clauses, rest = divmod(length - 1 - 5 * n, 8)
        if self.num_clauses < 0 or rest:
            raise CswpError(f"a maxsat2 program over {n} variables has 1 + 5n + 8c instructions, not {length}")

    @property
    def num_vars(self) -> int:
        return len(self.program.free_inputs)


@dataclass
class GapProgram:
    """SAT embedding with a satisfiability-gated switching phase.

    The first decision_len instructions evaluate the clauses and end at the
    program's first `ite`, which widens the result to the bit pattern; the
    remaining switching_len alternate bit_pattern/zero. gap_bits is the
    switching realized inside the phase when activated: w bits on each of the
    switching_len - 1 transitions between consecutive phase instructions.
    """

    program: Program
    decision_len: int = field(init=False)

    def __post_init__(self):
        mnemonics = [insn.mnemonic for insn in self.program.instructions]
        if "ite" not in mnemonics[:-1]:
            raise CswpError("no ite ends a sat-gap decision phase before the last instruction")
        self.decision_len = mnemonics.index("ite") + 1

    @property
    def switching_len(self) -> int:
        return len(self.program.instructions) - self.decision_len

    @property
    def gap_bits(self) -> int:
        return self.program.width * (self.switching_len - 1)

    @property
    def num_vars(self) -> int:
        return len(self.program.free_inputs)


def _check_length(length: int, what: str):
    if length > MAX_PROGRAM_LEN:
        raise CswpError(f"instance too large: the {what} would hold up to {length} instructions, "
                        f"more than {MAX_PROGRAM_LEN}")


def lit_addr(lit: int) -> int:
    """Literal array layout: x_i at 2(i-1), ~x_i at 2(i-1)+1."""
    return 2 * (abs(lit) - 1) + (lit < 0)


def _emit(insns: list[Instruction], mnemonic: str, *inputs, mem_dest=None) -> PriorOutput:
    """Append one instruction; returns the operand that reads its output."""
    insns.append(tuple.__new__(Instruction, (mnemonic, inputs, mem_dest)))
    return PriorOutput(len(insns) - 1)


def _binary_program(n: int, width: int, mem_size: int, insns: list[Instruction]) -> Program:
    """The program over the binary free inputs "0".."n-1"."""
    return Program(width=width, mem_size=mem_size, instructions=insns,
                   free_inputs=tuple((str(i), BINARY01) for i in range(n)))


def reduce_maxsat2(instance: MaxSat2Instance, width: int = 8) -> ReducedProgram:
    """Embed a maxsat2 instance; see the module docstring for the layout."""
    if not 1 <= width <= MAX_WIDTH:
        raise CswpError(f"width {width} outside 1..{MAX_WIDTH}")
    n = instance.num_vars
    # the preamble, 5 per variable gadget and 8 per clause gadget
    _check_length(1 + 5 * n + 8 * len(instance.clauses), "maxsat2 program")
    insns: list[Instruction] = []
    zero = Const(0)
    one = Const(1)

    # the per-block switching accounting assumes a zero datapath before each
    # block; this preamble establishes it ahead of the first variable block
    _emit(insns, "mov", zero)

    for i in range(1, n + 1):
        value = _emit(insns, "mov", Free(str(i - 1)))
        complement = _emit(insns, "xor", value, one)
        _emit(insns, "store", value, mem_dest=lit_addr(i))
        _emit(insns, "store", complement, mem_dest=lit_addr(-i))
        _emit(insns, "mov", zero)

    for clause in instance.clauses:
        lit_outs = []
        for lit in (clause[0], clause[-1]):  # a unit clause loads its literal twice
            lit_outs.append(_emit(insns, "load", MemRead(lit_addr(lit))))
            _emit(insns, "xor", lit_outs[-1], one)
            _emit(insns, "mov", zero)
        _emit(insns, "or", *lit_outs)
        _emit(insns, "mov", zero)

    return ReducedProgram(_binary_program(n, width, 2 * n, insns))


def emit_checksat(instance: SatInstance, insns: list[Instruction]) -> PriorOutput:
    """Append to `insns` an evaluation of the clause set over variable x_i
    stored at m[i-1]; the returned operand, the last instruction appended, is
    1 iff the stored assignment satisfies every clause. Appends O(total
    literal occurrences) instructions.
    """
    one = Const(1)
    clause_results = []
    for clause in instance.clauses:
        acc = None
        for lit in clause:
            out = _emit(insns, "load", MemRead(abs(lit) - 1))
            if lit < 0:
                out = _emit(insns, "xor", out, one)
            acc = out if acc is None else _emit(insns, "or", acc, out)
        clause_results.append(acc)

    if not clause_results:
        return _emit(insns, "mov", one)  # empty conjunction is true
    acc = clause_results[0]
    for nxt in clause_results[1:]:
        acc = _emit(insns, "and", acc, nxt)
    return acc


def reduce_sat_gap(instance: SatInstance, width: int = 8, factor=1) -> GapProgram:
    """Embed a SAT instance with a switching phase ceil(factor*decision_len/2)+1
    pattern/zero pairs long; factor=1 gives a phase at least half the whole."""
    if not 1 <= width <= MAX_WIDTH:
        raise CswpError(f"width {width} outside 1..{MAX_WIDTH}")
    try:
        num, den = factor.as_integer_ratio()  # the exact value, den > 0
    except (ValueError, OverflowError):  # NaN or an infinity
        raise CswpError(f"gap factor {factor} must be finite") from None
    if num < den:
        raise CswpError(f"gap factor {factor} must be >= 1")

    # decision phase: store inputs, evaluate clauses, widen to a bit pattern;
    # at most 2 instructions per variable, 3 per literal (load, xor, or), 1
    # per clause (and) and 1 more (the mov for no clauses) before the ite
    n = instance.num_vars
    literals = sum(len(clause) for clause in instance.clauses)
    _check_length(2 * n + 3 * literals + len(instance.clauses) + 1, "clause evaluation")
    insns: list[Instruction] = []
    for i in range(n):
        value = _emit(insns, "mov", Free(str(i)))
        _emit(insns, "store", value, mem_dest=i)
    result = emit_checksat(instance, insns)
    zero = Const(0)
    bit_pattern = _emit(insns, "ite", result, Const((1 << width) - 1), zero)
    decision_len = len(insns)

    reps = -(-num * decision_len // (2 * den)) + 1  # ceil(factor * decision_len / 2) + 1
    if 2 * reps > MAX_SWITCHING_LEN:
        raise CswpError(f"gap factor too large: the switching phase would exceed "
                        f"{MAX_SWITCHING_LEN} instructions")
    for _ in range(reps):
        _emit(insns, "mov", bit_pattern)
        _emit(insns, "mov", zero)

    return GapProgram(_binary_program(n, width, max(1, n), insns))


# ---------------------------------------------------------------------------
# Witness read-back

def recover_assignment(reduced, witness: Mapping[str, int]) -> list[bool]:
    """Truth values, variable-index order, of a witness whose values must be 0 or 1."""
    out = []
    for i in range(reduced.num_vars):
        try:
            value = witness[str(i)]
        except KeyError:
            raise CswpError(f"witness missing free input {i}") from None
        if value not in (0, 1):
            raise CswpError(f"witness value {value!r} for x{i + 1} is not 0/1")
        out.append(bool(value))
    return out


# ---------------------------------------------------------------------------
# Self-describing program files: metadata travels as comment lines

def serialize_reduced(reduced: ReducedProgram) -> str:
    lines = [
        f"# meta kind=maxsat2 vars={reduced.num_vars} clauses={reduced.num_clauses} "
        f"k_var={K_VAR} k_clause={K_CLAUSE} k_sat={K_SAT}"
    ]
    for i in range(1, reduced.num_vars + 1):
        for lit in (i, -i):
            lines.append(f"# lit {format_literal(lit)} -> m[{lit_addr(lit)}]")
    return "\n".join(lines) + "\n" + serialize_program(reduced.program)


def serialize_gap(gap: GapProgram) -> str:
    meta = (
        f"# meta kind=sat-gap vars={gap.num_vars} "
        f"decision_len={gap.decision_len} switching_len={gap.switching_len} "
        f"gap_bits={gap.gap_bits}"
    )
    return meta + "\n" + serialize_program(gap.program)


_META = re.compile(r"#\s*meta\s+(.*)$")


def _check_kind(text: str, kind: str):
    """Check that the `# meta` line of a file is key=value fields of the
    given kind. The loaders take every count from the program."""
    for line in text.splitlines():
        if m := _META.match(line.strip()):
            tokens = m.group(1).split()
            if bare := [token for token in tokens if "=" not in token]:
                raise CswpError(f"bad '# meta' field {bare[0]!r}, want key=value")
            got = dict(token.split("=", 1) for token in tokens).get("kind")
            if got != kind:
                raise CswpError(f"expected {kind} metadata, got kind={got!r}")
            return
    raise CswpError("no '# meta' line found")


def load_reduced(text: str) -> ReducedProgram:
    _check_kind(text, "maxsat2")
    return ReducedProgram(parse_program(text))


def load_gap(text: str) -> GapProgram:
    _check_kind(text, "sat-gap")
    return GapProgram(parse_program(text))
