"""Exact worst-case switching by exhaustive enumeration, Boolean-side oracles,
and the two sound upper bounds (coarse max-activity and known-bits).

Enumeration is the only exact method on offer: the worst case over free inputs
is exponential in the input bits, and the budget guard turns that wall into an
explicit error instead of a silently truncated "maximum".
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import prod

import numpy as np

from .core import (
    BINARY01,
    Const,
    CswpError,
    Free,
    MemRead,
    Program,
    apply_mnemonic,
    vector_ops,
)
from .knownbits import KnownBits, knownbits_transfer
from .sat import MaxSat2Instance, SatInstance, all_satisfied, count_satisfied

DEFAULT_BUDGET = 1 << 24


class EnumerationBudgetError(CswpError):
    """Exhaustive enumeration would exceed the assignment budget."""

    def __init__(self, required: int, budget: int):
        self.required = required
        self.budget = budget
        super().__init__(
            f"exhaustive search needs {required} assignments, budget is {budget}"
        )


@dataclass
class WorstCaseResult:
    """Exact maximum switching, the lexicographically smallest witness
    (free inputs in declaration order, values as unsigned integers), and the
    number of assignments enumerated."""

    max_switching: int
    witness: dict
    explored: int

    def report_lines(self) -> list[str]:
        lines = [f"max={self.max_switching}"]
        for name, value in self.witness.items():
            lines.append(f"witness.free{name}=0x{value:x}")
        lines.append(f"explored={self.explored}")
        return lines


# Rows per chunk of the vectorized scan: the live columns of a chunk, not the
# whole assignment space, set the scan's memory.
CHUNK_ROWS = 4096


def check_budget(required: int, budget: int = DEFAULT_BUDGET):
    """Raise EnumerationBudgetError when `required` assignments exceed `budget`."""
    if required > budget:
        raise EnumerationBudgetError(required, budget)


def _input_fields(program: Program) -> list[tuple[int, int]]:
    """(shift, mask) of each free input within an enumeration index; the last
    input varies fastest, as in itertools.product over the domains."""
    bits = [1 if domain == BINARY01 else program.width for _, domain in program.free_inputs]
    return [(sum(bits[k + 1:]), (1 << b) - 1) for k, b in enumerate(bits)]


@dataclass
class _Lowered:
    """A program with every operand resolved to a slot, for any engine.

    Slots 0..len(fields)-1 hold the free inputs, later slots constants
    (their values in `constants`, None elsewhere) or instruction results.
    Each step is (mnemonic or None, dest slot, operand slots, transition
    slot pair or None, slots dead afterwards); `outputs` holds each
    instruction's output slot and `base` the switching between adjacent
    constant outputs.
    """

    fields: list
    constants: list
    steps: list
    outputs: list
    base: int


def _lower(program: Program) -> _Lowered:
    """Resolve every operand to a slot once: a memory read becomes the latest
    earlier value stored to its address (0 if none), copies alias their
    operand, and instructions over constants fold to constants."""
    w = program.width
    fields = _input_fields(program)
    free_slot = {name: k for k, (name, _) in enumerate(program.free_inputs)}
    value: list = [None] * len(fields)
    const_slot: dict[int, int] = {}

    def constant(v: int) -> int:
        if v not in const_slot:
            const_slot[v] = len(value)
            value.append(v)
        return const_slot[v]

    stored: dict[int, int] = {}
    out_slot: list[int] = []
    steps = []
    last_use: dict[int, int] = {}
    base = 0
    for i, insn in enumerate(program.instructions):
        srcs = []
        for src in insn.inputs:
            if isinstance(src, Const):
                srcs.append(constant(src.value))
            elif isinstance(src, Free):
                srcs.append(free_slot[src.name])
            elif isinstance(src, MemRead):
                srcs.append(stored[src.addr] if src.addr in stored else constant(0))
            else:  # PriorOutput
                srcs.append(out_slot[src.index])
        args = [value[s] for s in srcs]
        mnemonic = None
        if insn.mnemonic in ("mov", "store", "load"):
            dest = srcs[0]
        elif insn.mnemonic == "ite" and args[0] is not None:
            dest = srcs[1] if args[0] else srcs[2]
        elif None not in args:
            dest = constant(apply_mnemonic(insn.mnemonic, args, w))
        else:
            mnemonic, dest = insn.mnemonic, len(value)
            value.append(None)
            for s in srcs:
                last_use[s] = i
        if insn.mem_dest is not None:
            stored[insn.mem_dest] = dest

        pair = None
        if out_slot and out_slot[-1] != dest:
            prev = out_slot[-1]
            if value[prev] is not None and value[dest] is not None:
                base += (value[prev] ^ value[dest]).bit_count()
            else:
                pair = (prev, dest)
                last_use[prev] = last_use[dest] = i
        out_slot.append(dest)
        steps.append([mnemonic, dest, srcs, pair, []])

    for s, i in last_use.items():
        if value[s] is None:
            steps[i][4].append(s)
    steps = [step for step in steps if step[0] is not None or step[3] or step[4]]
    return _Lowered(fields, value, steps, out_slot, base)


def _scan_chunk(lowered: _Lowered, ops: dict, lo: int, hi: int) -> np.ndarray:
    """Switching totals (int64) of enumeration indices [lo, hi), with the
    column op table `ops` of the program's width."""
    index = np.arange(lo, hi, dtype=np.uint64)
    env = [None if v is None else np.uint64(v) for v in lowered.constants]
    for k, (shift, mask) in enumerate(lowered.fields):
        env[k] = (index >> np.uint64(shift)) & np.uint64(mask)
    totals = np.full(hi - lo, lowered.base, dtype=np.int64)
    for mnemonic, dest, srcs, pair, dead in lowered.steps:
        if mnemonic is not None:
            env[dest] = ops[mnemonic](*[env[s] for s in srcs])
        if pair is not None:
            totals += np.bitwise_count(env[pair[0]] ^ env[pair[1]])
        for s in dead:
            env[s] = None
    return totals


def brute_force_worst_case(program: Program, budget: int = DEFAULT_BUDGET) -> WorstCaseResult:
    """Enumerate every free-input assignment and return the exact maximum.

    The program is lowered once and evaluated over chunks of CHUNK_ROWS
    consecutive enumeration indices as uint64 columns. Within a chunk argmax
    keeps the first maximum and across chunks only a strictly larger total
    replaces it, so the witness is the first maximum in enumeration order.
    """
    lowered = _lower(program)
    total_assignments = prod(mask + 1 for _, mask in lowered.fields)
    check_budget(total_assignments, budget)

    ops = vector_ops(program.width)
    best, best_index = -1, 0
    for lo in range(0, total_assignments, CHUNK_ROWS):
        totals = _scan_chunk(lowered, ops, lo, min(lo + CHUNK_ROWS, total_assignments))
        row = int(totals.argmax())
        if totals[row] > best:
            best, best_index = int(totals[row]), lo + row

    return WorstCaseResult(
        max_switching=best,
        witness={
            name: (best_index >> shift) & mask
            for (name, _), (shift, mask) in zip(program.free_inputs, lowered.fields)
        },
        explored=total_assignments,
    )


# ---------------------------------------------------------------------------
# Boolean-side oracles (independent of program execution)

def maxsat_oracle(
    instance: MaxSat2Instance, budget: int = DEFAULT_BUDGET
) -> tuple[int, tuple[bool, ...]]:
    """Exact maximum satisfied-clause count and the lexicographically smallest
    maximizing assignment (False < True, variables in index order)."""
    check_budget(1 << instance.num_vars, budget)
    best = -1
    best_assignment = None
    for assignment in itertools.product((False, True), repeat=instance.num_vars):
        score = count_satisfied(instance, assignment)
        if score > best:
            best = score
            best_assignment = assignment
    return best, best_assignment


def sat_oracle(
    instance: SatInstance, budget: int = DEFAULT_BUDGET
) -> tuple[bool, tuple[bool, ...] | None]:
    """Decision form: (satisfiable, first satisfying model or None)."""
    check_budget(1 << instance.num_vars, budget)
    for assignment in itertools.product((False, True), repeat=instance.num_vars):
        if all_satisfied(instance, assignment):
            return True, assignment
    return False, None


# ---------------------------------------------------------------------------
# Sound upper bounds

def coarse_upper_bound(program: Program) -> int:
    """Maximum-activity bound: every transition flips all w bits."""
    n = len(program.instructions)
    return max(0, n - 1) * program.width


def _knownbits_slots(lowered: _Lowered, w: int) -> list[KnownBits]:
    """Abstract execution of the lowered program: the known bits of every
    slot. A free input is unknown within its field's mask."""
    slots = [KnownBits(0, mask, w) for _, mask in lowered.fields]
    slots += [None if v is None else KnownBits.from_constant(v, w)
              for v in lowered.constants[len(slots):]]
    for mnemonic, dest, srcs, _, _ in lowered.steps:
        if mnemonic is not None:
            slots[dest] = knownbits_transfer(mnemonic, [slots[s] for s in srcs])
    return slots


def knownbits_outputs(program: Program) -> list[KnownBits]:
    """One KnownBits value per instruction output, that of its slot in the
    lowered program: free inputs start unknown within their domain, and a
    load sees the latest earlier store to its address or zero (a strong
    update, exact for branch-free programs with static addresses)."""
    lowered = _lower(program)
    slots = _knownbits_slots(lowered, program.width)
    return [slots[s] for s in lowered.outputs]


def _possibly_differing_bits(a: KnownBits, b: KnownBits) -> int:
    both_known_equal = a.knowns & b.knowns & ~(a.ones ^ b.ones)
    return a.width - both_known_equal.bit_count()


def knownbits_upper_bound(program: Program) -> int:
    """`base` plus, per transition between slots that are not both
    constant, the bits not known equal on both sides (a repeated slot adds
    0); always between the exact maximum and the coarse bound."""
    lowered = _lower(program)
    slots = _knownbits_slots(lowered, program.width)
    return lowered.base + sum(
        _possibly_differing_bits(slots[pair[0]], slots[pair[1]])
        for _, _, _, pair, _ in lowered.steps if pair is not None
    )
