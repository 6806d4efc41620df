"""Exact worst-case switching by exhaustive enumeration and the two sound
upper bounds (coarse max-activity and known-bits).

Enumeration is the only exact method on offer: the worst case over free inputs
is exponential in the input bits, and the budget guard turns that wall into an
explicit error instead of a silently truncated "maximum".
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import prod
from typing import TYPE_CHECKING

from .core import (
    BINARY01,
    COPIES,
    Const,
    CswpError,
    Free,
    MemRead,
    PriorOutput,
    Program,
    apply_mnemonic,
    vector_ops,
)
from .knownbits import TRANSFER

if TYPE_CHECKING:
    import numpy as np

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


# Rows per chunk of the vectorized scan at uint64: the live columns of a
# chunk, not the whole assignment space, set the scan's memory. A narrower
# dtype takes more rows, as many as keep a column within the bytes of a
# CHUNK_ROWS uint64 column, but at most 4 * CHUNK_ROWS, since the index
# column (uint32 below 2**32, else uint64) grows with the rows too.
CHUNK_ROWS = 4096


def _chunk_rows(dtype: np.dtype) -> int:
    return CHUNK_ROWS * min(8 // dtype.itemsize, 4)


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
    or None, slots dead afterwards). A transition is (slot, slot,
    multiplicity): each distinct unordered slot pair that adjacent outputs
    switch between appears once, at the last step where it occurs, with the
    number of times it occurs. `outputs` holds each instruction's output
    slot and `base` the switching between adjacent constant outputs.
    `width` and `coarse_bound` are the program's, and only the scan turns
    them into NumPy dtypes, so known bits runs without NumPy.
    """

    width: int
    coarse_bound: int
    fields: list
    constants: list
    steps: list
    outputs: list
    base: int

    @property
    def dtype(self) -> np.dtype:
        """The narrowest unsigned dtype that holds the width, the one the
        scan's columns take."""
        return _unsigned_dtype(self.width)

    @property
    def acc_dtype(self) -> np.dtype:
        """The narrowest unsigned dtype that holds the coarse bound, which
        no total exceeds."""
        return _unsigned_dtype(self.coarse_bound.bit_length())


@functools.cache  # one per bit count: a fresh _Lowered per solve looks its dtypes up here
def _unsigned_dtype(bits: int) -> np.dtype:
    """The narrowest unsigned dtype that holds every `bits`-bit value."""
    import numpy as np

    return np.min_scalar_type((1 << bits) - 1)


def _lower(program: Program) -> _Lowered:
    """Resolve every operand to a slot once: a memory read becomes the latest
    earlier value stored to its address (0 if none), copies alias their
    operand, and instructions over constants fold to constants."""
    w = program.width
    fields = _input_fields(program)
    free_slot = {name: k for k, (name, _) in enumerate(program.free_inputs)}
    value: list = [None] * len(fields)
    const_slot: dict[int, int] = {}  # each constant value's one slot
    stored: dict[int, int] = {}
    out_slot: list[int] = []
    steps = []
    last_use: dict[int, int] = {}
    last_step: dict[tuple, int] = {}  # distinct slot pair -> its last step
    count: dict[tuple, int] = {}  # and its multiplicity
    base = 0
    prev = None  # the previous instruction's output slot
    for i, (op, inputs, mem_dest) in enumerate(program.instructions):
        srcs = []
        known = True  # every operand's value is a constant
        for src in inputs:  # a valid program's operands are of these exact classes
            kind = type(src)
            if kind is PriorOutput:
                s = out_slot[src.index]
            elif kind is Free:
                s = free_slot[src.name]
            elif kind is MemRead and src.addr in stored:  # the latest value stored there
                s = stored[src.addr]
            else:  # a constant, or a memory read before any store: 0
                v = src.value if kind is Const else 0
                s = const_slot.setdefault(v, len(value))
                if s == len(value):
                    value.append(v)
            if value[s] is None:
                known = False
            srcs.append(s)
        mnemonic = None
        if op in COPIES:
            dest = srcs[0]
        elif op == "ite" and value[srcs[0]] is not None:
            dest = srcs[1] if value[srcs[0]] else srcs[2]
        elif known:
            v = apply_mnemonic(op, [value[s] for s in srcs], w)
            dest = const_slot.setdefault(v, len(value))
            if dest == len(value):
                value.append(v)
        else:
            mnemonic, dest = op, len(value)
            value.append(None)
            for s in srcs:
                last_use[s] = i
        if mem_dest is not None:
            stored[mem_dest] = dest

        if i and prev != dest:
            if value[prev] is not None and value[dest] is not None:
                base += (value[prev] ^ value[dest]).bit_count()
            else:
                last_use[prev] = last_use[dest] = i
                pair = (prev, dest) if prev < dest else (dest, prev)
                last_step[pair] = i
                count[pair] = count.get(pair, 0) + 1
        prev = dest
        out_slot.append(dest)
        steps.append([mnemonic, dest, srcs, None, []])

    for pair, i in last_step.items():
        steps[i][3] = (*pair, count[pair])
    for s, i in last_use.items():
        if value[s] is None:
            steps[i][4].append(s)
    steps = [step for step in steps if step[0] is not None or step[3] or step[4]]
    return _Lowered(w, coarse_upper_bound(program), fields, value, steps, out_slot, base)


def _scan_chunk(lowered: _Lowered, lo: int, hi: int) -> np.ndarray:
    """Switching totals (int64) of enumeration indices [lo, hi), with the
    cached column op table of `lowered.width`, in `lowered.dtype`.

    The inputs are decoded from a uint32 enumeration index when the chunk's
    last index fits one, else from a uint64 one, by a shift and a mask given
    as Python ints, which NumPy casts to the index's dtype. Each distinct
    transition is counted once, times its multiplicity: its xor and its
    popcount go to two scratch columns reused across the chunk (a transition
    against the constant 0 is the other slot's popcount, with no xor), and
    the counts add up in a uint8 partial column. A transition adds at most
    `width * multiplicity`, so before one that could wrap the partial
    column, the partial column is added to the `lowered.acc_dtype`
    accumulator and zeroed. A transition with `width * multiplicity` past
    255 instead widens its popcount to the accumulator's dtype before the
    multiplication, which would otherwise wrap."""
    import numpy as np

    width, dtype, acc_type, constants = lowered.width, lowered.dtype, lowered.acc_dtype.type, lowered.constants
    ops = vector_ops(width)
    rows = hi - lo
    index_type, top = (np.uint32, (1 << 32) - 1) if hi <= 1 << 32 else (np.uint64, (1 << 64) - 1)
    index = np.arange(lo, hi, dtype=index_type)  # a field's bits past the index's are 0: its mask is cut
    env = [None if v is None else dtype.type(v) for v in constants]
    for k, (shift, mask) in enumerate(lowered.fields):
        env[k] = ((index >> shift) & (mask & top)).astype(dtype, copy=False)
    acc = np.zeros(rows, dtype=lowered.acc_dtype)
    # A uint8 accumulator is its own partial column. It never flushes: the
    # coarse bound, at most 255 there, caps the sum of `width *
    # multiplicity` over the transitions.
    part = acc if acc_type is np.uint8 else np.zeros(rows, dtype=np.uint8)
    xor, flips = np.empty(rows, dtype=dtype), np.empty(rows, dtype=np.uint8)
    room = 255  # what the partial column can still take without wrapping
    for mnemonic, dest, srcs, pair, dead in lowered.steps:
        if mnemonic is not None:
            env[dest] = ops[mnemonic](*[env[s] for s in srcs])
        if pair is not None:
            a, b, count = pair
            if constants[a] == 0:
                column = env[b]
            elif constants[b] == 0:
                column = env[a]
            else:
                column = np.bitwise_xor(env[a], env[b], xor)
            np.bitwise_count(column, flips)
            weight = width * count
            if weight > 255:
                acc += flips * acc_type(count)
            else:
                if weight > room:
                    acc += part
                    part.fill(0)
                    room = 255
                if count > 1:
                    flips *= np.uint8(count)
                part += flips
                room -= weight
        for s in dead:
            env[s] = None
    if part is not acc:
        acc += part
    totals = acc.astype(np.int64)
    totals += lowered.base
    return totals


def brute_force_worst_case(program: Program, budget: int = DEFAULT_BUDGET) -> WorstCaseResult:
    """Enumerate every free-input assignment and return the exact maximum.

    The program is lowered once and evaluated over chunks of consecutive
    enumeration indices as columns of the narrowest unsigned dtype that
    holds the width (see `_chunk_rows` for the chunk size). Within a chunk argmax
    keeps the first maximum and across chunks only a strictly larger total
    replaces it, so the witness is the first maximum in enumeration order.
    """
    lowered = _lower(program)
    total_assignments = prod(mask + 1 for _, mask in lowered.fields)
    check_budget(total_assignments, budget)

    rows = _chunk_rows(lowered.dtype)
    best, best_index = -1, 0
    for lo in range(0, total_assignments, rows):
        totals = _scan_chunk(lowered, lo, min(lo + rows, total_assignments))
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
# Sound upper bounds

def coarse_upper_bound(program: Program) -> int:
    """Maximum-activity bound: every transition flips all w bits."""
    n = len(program.instructions)
    return max(0, n - 1) * program.width


def _knownbits_slots(lowered: _Lowered) -> list[tuple]:
    """Abstract execution of the lowered program over the masks of
    `knownbits.TRANSFER`: the (ones, unknowns) pair of every slot. A free
    input is unknown within its field's mask."""
    slots = [(0, mask) for _, mask in lowered.fields]
    slots += [None if v is None else (v, 0) for v in lowered.constants[len(slots):]]
    w = lowered.width
    for mnemonic, dest, srcs, _, _ in lowered.steps:
        if mnemonic is not None:
            slots[dest] = TRANSFER[mnemonic](w, *[slots[s] for s in srcs])
    return slots


def knownbits_upper_bound(program: Program) -> int:
    """`base` plus, per transition between slots that are not both
    constant, the bits not known equal on both sides times the transition's
    multiplicity (a repeated slot adds 0); always between the exact maximum
    and the coarse bound."""
    lowered = _lower(program)
    slots = _knownbits_slots(lowered)
    total = lowered.base
    for _, _, _, transition, _ in lowered.steps:
        if transition is not None:
            a, b, count = transition
            (ones_a, unknown_a), (ones_b, unknown_b) = slots[a], slots[b]
            # the bits not known equal on both sides
            total += count * (unknown_a | unknown_b | (ones_a ^ ones_b)).bit_count()
    return total
