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
str(i-1)), all with the binary 0/1 domain.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

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
from .sat import Literal, MaxSat2Instance, SatInstance, parse_literal
from .textfmt import parse_program, serialize_program

# constants realized by the maxsat2 construction (cross-checked by the tests'
# brute-force/oracle identity): per-variable and per-clause switching, and the
# extra flips contributed by each satisfied clause
K_VAR = 4
K_CLAUSE = 4
K_SAT = 2


@dataclass
class ReducedProgram:
    """Maxsat2 embedding plus the bookkeeping needed to read answers back.

    For every full assignment s:
        total switching = k_var*n + k_clause*|C| + k_sat*sat_count(s)
    """

    program: Program
    lit_to_addr: dict
    k_var: int
    k_clause: int
    k_sat: int
    num_vars: int
    num_clauses: int

    def predicted_switching(self, sat_count: int) -> int:
        return self.k_var * self.num_vars + self.k_clause * self.num_clauses + self.k_sat * sat_count


@dataclass
class GapProgram:
    """SAT embedding with a satisfiability-gated switching phase.

    decision_len instructions evaluate the clauses; switching_len instructions
    alternate bit_pattern/zero. gap_bits is the switching realized inside the
    phase when activated: w bits on each of the switching_len - 1 transitions
    between consecutive phase instructions.
    """

    program: Program
    decision_len: int
    switching_len: int
    gap_bits: int
    num_vars: int

    def phase_transitions(self, transitions: Sequence[int]) -> tuple:
        """The slice of a switching report between phase instructions."""
        return tuple(transitions[self.decision_len:])


def _free_sources(n: int) -> list[Free]:
    return [Free(str(i)) for i in range(n)]


def lit_addr(lit: Literal) -> int:
    """Literal array layout: x_i at 2(i-1), ~x_i at 2(i-1)+1."""
    return 2 * (lit.var_index - 1) + (1 if lit.negated else 0)


def reduce_maxsat2(instance: MaxSat2Instance, width: int = 8) -> ReducedProgram:
    """Embed a maxsat2 instance; see the module docstring for the layout."""
    if not 1 <= width <= MAX_WIDTH:
        raise CswpError(f"width {width} outside 1..{MAX_WIDTH}")
    n = instance.num_vars
    insns: list[Instruction] = []
    zero = Const(0)
    one = Const(1)

    # the per-block switching accounting assumes a zero datapath before each
    # block; this preamble establishes it ahead of the first variable block
    insns.append(Instruction("mov", (zero,)))

    frees = _free_sources(n)
    for i in range(n):
        out1 = len(insns)
        insns.append(Instruction("mov", (frees[i],)))
        out2 = len(insns)
        insns.append(Instruction("xor", (PriorOutput(out1), one)))
        insns.append(Instruction("store", (PriorOutput(out1),), mem_dest=2 * i))
        insns.append(Instruction("store", (PriorOutput(out2),), mem_dest=2 * i + 1))
        insns.append(Instruction("mov", (zero,)))

    for clause in instance.clauses:
        l1 = clause[0]
        l2 = clause[1] if len(clause) == 2 else clause[0]
        lit_outs = []
        for lit in (l1, l2):
            out = len(insns)
            insns.append(Instruction("load", (MemRead(lit_addr(lit)),)))
            insns.append(Instruction("xor", (PriorOutput(out), one)))
            insns.append(Instruction("mov", (zero,)))
            lit_outs.append(out)
        insns.append(Instruction("or", (PriorOutput(lit_outs[0]), PriorOutput(lit_outs[1]))))
        insns.append(Instruction("mov", (zero,)))

    program = Program(
        width=width,
        mem_size=2 * n,
        instructions=tuple(insns),
        free_inputs=tuple((str(i), BINARY01) for i in range(n)),
    )
    lit_to_addr = {}
    for i in range(1, n + 1):
        lit_to_addr[Literal(i, False)] = 2 * (i - 1)
        lit_to_addr[Literal(i, True)] = 2 * (i - 1) + 1
    return ReducedProgram(
        program=program,
        lit_to_addr=lit_to_addr,
        k_var=K_VAR,
        k_clause=K_CLAUSE,
        k_sat=K_SAT,
        num_vars=n,
        num_clauses=len(instance.clauses),
    )


def emit_checksat(
    instance: SatInstance, var_base_addr: int, start_index: int = 0
) -> tuple[list[Instruction], PriorOutput]:
    """Instruction sequence evaluating the clause set over variables stored at
    var_base_addr..var_base_addr+n-1; the returned operand is 1 iff the stored
    assignment satisfies every clause. Length is O(total literal occurrences).
    """
    insns: list[Instruction] = []
    one = Const(1)

    def here() -> int:
        return start_index + len(insns)

    clause_results = []
    for clause in instance.clauses:
        acc = None
        for lit in clause:
            loaded = here()
            insns.append(Instruction("load", (MemRead(var_base_addr + lit.var_index - 1),)))
            lit_out = loaded
            if lit.negated:
                lit_out = here()
                insns.append(Instruction("xor", (PriorOutput(loaded), one)))
            if acc is None:
                acc = lit_out
            else:
                prev = acc
                acc = here()
                insns.append(Instruction("or", (PriorOutput(prev), PriorOutput(lit_out))))
        clause_results.append(acc)

    if not clause_results:
        result = here()
        insns.append(Instruction("mov", (one,)))  # empty conjunction is true
        return insns, PriorOutput(result)

    acc = clause_results[0]
    for nxt in clause_results[1:]:
        prev = acc
        acc = here()
        insns.append(Instruction("and", (PriorOutput(prev), PriorOutput(nxt))))
    return insns, PriorOutput(acc)


def build_checksat_program(instance: SatInstance, width: int = 8) -> tuple[Program, int]:
    """Standalone program that reads the variables, stores them, and evaluates
    the clauses; returns (program, index of the result instruction)."""
    insns: list[Instruction] = []
    frees = _free_sources(instance.num_vars)
    for i in range(instance.num_vars):
        out = len(insns)
        insns.append(Instruction("mov", (frees[i],)))
        insns.append(Instruction("store", (PriorOutput(out),), mem_dest=i))
    body, result = emit_checksat(instance, 0, start_index=len(insns))
    insns.extend(body)
    program = Program(
        width=width,
        mem_size=max(1, instance.num_vars),
        instructions=tuple(insns),
        free_inputs=tuple((str(i), BINARY01) for i in range(instance.num_vars)),
    )
    return program, result.index


def reduce_sat_gap(instance: SatInstance, width: int = 8, factor=1) -> GapProgram:
    """Embed a SAT instance with a switching phase ceil(factor*decision_len/2)+1
    pattern/zero pairs long; factor=1 gives a phase at least half the whole."""
    if not 1 <= width <= MAX_WIDTH:
        raise CswpError(f"width {width} outside 1..{MAX_WIDTH}")
    try:
        factor = Fraction(factor)
    except (ValueError, OverflowError):  # NaN or an infinity
        raise CswpError(f"gap factor {factor} must be finite") from None
    if factor < 1:
        raise CswpError(f"gap factor {factor} must be >= 1")

    n = instance.num_vars
    insns: list[Instruction] = []
    frees = _free_sources(n)

    # decision phase: store inputs, evaluate clauses, widen to a bit pattern
    for i in range(n):
        out = len(insns)
        insns.append(Instruction("mov", (frees[i],)))
        insns.append(Instruction("store", (PriorOutput(out),), mem_dest=i))
    body, result = emit_checksat(instance, 0, start_index=len(insns))
    insns.extend(body)
    all_ones = Const((1 << width) - 1)
    bit_pattern = len(insns)
    insns.append(Instruction("ite", (result, all_ones, Const(0))))
    decision_len = len(insns)

    # switching phase
    reps = math.ceil(factor * decision_len / 2) + 1
    for _ in range(reps):
        insns.append(Instruction("mov", (PriorOutput(bit_pattern),)))
        insns.append(Instruction("mov", (Const(0),)))
    switching_len = 2 * reps

    program = Program(
        width=width,
        mem_size=max(1, n),
        instructions=tuple(insns),
        free_inputs=tuple((str(i), BINARY01) for i in range(n)),
    )
    return GapProgram(
        program=program,
        decision_len=decision_len,
        switching_len=switching_len,
        gap_bits=width * (switching_len - 1),
        num_vars=n,
    )


# ---------------------------------------------------------------------------
# Assignment embedding

def embed_assignment(reduced, bools: Sequence[bool]) -> dict[str, int]:
    """Truth values, variable-index order, to the program's free inputs."""
    if len(bools) != reduced.num_vars:
        raise CswpError(f"got {len(bools)} truth values for {reduced.num_vars} variables")
    return {str(i): int(bool(b)) for i, b in enumerate(bools)}


def recover_assignment(reduced, witness: Mapping[str, int]) -> list[bool]:
    """Inverse of embed_assignment; witness values must be 0 or 1."""
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
        f"k_var={reduced.k_var} k_clause={reduced.k_clause} k_sat={reduced.k_sat}"
    ]
    for lit, addr in sorted(reduced.lit_to_addr.items(), key=lambda kv: kv[1]):
        lines.append(f"# lit {lit} -> m[{addr}]")
    return "\n".join(lines) + "\n" + serialize_program(reduced.program)


def serialize_gap(gap: GapProgram) -> str:
    meta = (
        f"# meta kind=sat-gap vars={gap.num_vars} "
        f"decision_len={gap.decision_len} switching_len={gap.switching_len} "
        f"gap_bits={gap.gap_bits}"
    )
    return meta + "\n" + serialize_program(gap.program)


_META = re.compile(r"#\s*meta\s+(.*)$")
_LITLINE = re.compile(r"#\s*lit\s+(\S+)\s*->\s*m\[(\d+)\]$")


def _meta_fields(text: str) -> dict[str, str]:
    for line in text.splitlines():
        if m := _META.match(line.strip()):
            return dict(kv.split("=", 1) for kv in m.group(1).split())
    raise CswpError("no '# meta' line found")


def load_reduced(text: str) -> ReducedProgram:
    fields = _meta_fields(text)
    if fields.get("kind") != "maxsat2":
        raise CswpError(f"expected maxsat2 metadata, got kind={fields.get('kind')!r}")
    lit_to_addr = {}
    for line in text.splitlines():
        if m := _LITLINE.match(line.strip()):
            lit_to_addr[parse_literal(m.group(1))] = int(m.group(2))
    return ReducedProgram(
        program=parse_program(text),
        lit_to_addr=lit_to_addr,
        k_var=int(fields["k_var"]),
        k_clause=int(fields["k_clause"]),
        k_sat=int(fields["k_sat"]),
        num_vars=int(fields["vars"]),
        num_clauses=int(fields["clauses"]),
    )


def load_gap(text: str) -> GapProgram:
    fields = _meta_fields(text)
    if fields.get("kind") != "sat-gap":
        raise CswpError(f"expected sat-gap metadata, got kind={fields.get('kind')!r}")
    return GapProgram(
        program=parse_program(text),
        decision_len=int(fields["decision_len"]),
        switching_len=int(fields["switching_len"]),
        gap_bits=int(fields["gap_bits"]),
        num_vars=int(fields["vars"]),
    )
