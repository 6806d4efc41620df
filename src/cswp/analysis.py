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
    `width` and `coarse_bound` are the program's, and only the column scan
    turns them into NumPy dtypes, so known bits and the plane search run
    without NumPy.
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

    The program is lowered once and searched in chunks of consecutive
    enumeration indices. Where every free-input field is one bit wide, a
    chunk is evaluated over planes (`_plane_chunk`). Which steps take planes
    depends on the program alone, so a step of three or more values shows
    in the first chunk, and then the whole program goes to the column scan
    (`_scan_chunk`), as does one with a wider field. Both engines keep the
    first maximum in enumeration order, so the answer depends on neither
    the engine nor the chunk size.
    """
    lowered = _lower(program)
    total_assignments = prod(mask + 1 for _, mask in lowered.fields)
    check_budget(total_assignments, budget)

    found = None
    if all(mask == 1 for _, mask in lowered.fields):
        found = _search(_plane_chunk, lowered, total_assignments, PLANE_ROWS)
    if found is None:
        found = _search(_scan_max, lowered, total_assignments, _chunk_rows(lowered.dtype))
    best, best_index = found

    return WorstCaseResult(
        max_switching=best,
        witness={
            name: (best_index >> shift) & mask
            for (name, _), (shift, mask) in zip(program.free_inputs, lowered.fields)
        },
        explored=total_assignments,
    )


def _search(chunk_max, lowered: _Lowered, total: int, rows: int) -> tuple[int, int] | None:
    """The maximum total over every enumeration index and the first index
    that has it, from `chunk_max(lowered, lo, hi)` over chunks [lo, hi) of
    `rows` consecutive indices, which gives a chunk's maximum and its first
    row, or None where the engine cannot take the program. Only a strictly
    larger maximum replaces the best of the chunks before."""
    best, best_index = -1, 0
    for lo in range(0, total, rows):
        found = chunk_max(lowered, lo, min(lo + rows, total))
        if found is None:
            return None
        if found[0] > best:
            best, best_index = found[0], lo + found[1]
    return best, best_index


def _scan_max(lowered: _Lowered, lo: int, hi: int) -> tuple[int, int]:
    """The maximum of `_scan_chunk`'s totals and its first row."""
    totals = _scan_chunk(lowered, lo, hi)
    row = int(totals.argmax())
    return int(totals[row]), row


# Rows per chunk of the plane search, a power of two: each plane of a chunk
# is an int of this many bits. On maxsat2 n=22 and sat-gap n=20, 2**17 and
# 2**18 rows took 10-30% less time than 2**16 but twice and four times the
# memory (sat-gap: 4, 8 and 16 MiB), and 2**15 rows 40-70% more time.
PLANE_ROWS = 1 << 16

# the mnemonics whose result over two slots valued {0, m} is the same
# operation on their planes
_PLANE_OPS = {"and": int.__and__, "or": int.__or__, "xor": int.__xor__}


def _index_plane(bit: int, rows: int) -> int:
    """The rows r < `rows` whose bit `bit` is set, as a plane: one period of
    the pattern in bytes, repeated and read as an int."""
    if bit < 3:
        pattern = (b"\xaa", b"\xcc", b"\xf0")[bit]
    else:
        half = 1 << (bit - 3)
        pattern = bytes(half) + b"\xff" * half
    repeats = -(-rows // (8 * len(pattern)))
    return int.from_bytes(pattern * repeats, "little") & ((1 << rows) - 1)


def _plane_chunk(lowered: _Lowered, lo: int, hi: int) -> tuple[int, int] | None:
    """The maximum total over enumeration indices [lo, hi) and its first
    row, or None where a step takes three or more values. Every free-input
    field is one bit wide, so the index range is a power of two, and `lo`
    a multiple of it.

    A plane is an int in which bit r stands for row r. A slot is (v0, v1,
    plane, id): its value is v1 on the rows in `plane` and v0 on the
    others, and `id` names the plane by the slot of the free input or the
    step that made it. A constant is (v, v, 0, None). An index bit below
    the chunk's bits is a repeating plane, one at or above them is every
    row or none, and either is a plane of its own id. Each transition adds
    the part of its switching that every row shares to `base` and the rest
    to signed weights of planes (`_plane_transition`). The weighted planes
    go to a bit-sliced counter (`_count`), which one ripple resolves into
    the totals' bit planes; from the top bit down, the rows that have each
    bit are kept where any do, so the lowest row left is the first
    maximum."""
    rows = hi - lo
    everyone = (1 << rows) - 1
    bits = rows.bit_length() - 1
    env: list = [None if v is None else (v, v, 0, None) for v in lowered.constants]
    for k, (shift, _) in enumerate(lowered.fields):
        plane = _index_plane(shift, rows) if shift < bits else everyone if lo >> shift & 1 else 0
        env[k] = (0, 1, plane, k)
    width, base, weights = lowered.width, lowered.base, {}
    for mnemonic, dest, srcs, pair, dead in lowered.steps:
        if mnemonic is not None:
            slot = _plane_step(mnemonic, [env[s] for s in srcs], dest, everyone, width)
            if slot is None:
                return None
            env[dest] = slot
        if pair is not None:
            base += _plane_transition(env[pair[0]], env[pair[1]], pair[2], weights)
        for s in dead:
            env[s] = None
    counter: list = [[] for _ in range(lowered.coarse_bound.bit_length())]
    for plane, weight in weights.values():
        if weight < 0:  # on every row, less the complement
            base, plane, weight = base + weight, everyone ^ plane, -weight
        _count(counter, plane, weight)
    carry, total_bits = 0, []
    for pending in counter:
        a, b, *_ = *pending, 0, 0
        t = a ^ b
        total_bits.append(t ^ carry)
        carry = (a & b) | (carry & t)
    best, left = 0, everyone
    for j in range(len(total_bits) - 1, -1, -1):
        kept = left & total_bits[j]
        if kept:
            best, left = best | 1 << j, kept
    return base + best, (left & -left).bit_length() - 1


def _plane_step(mnemonic: str, args: list, dest: int, everyone: int, width: int) -> tuple | None:
    """The slot of one instruction over its operand slots, or None where it
    takes three or more values. Operands over at most one plane are
    evaluated at its two valuations. Over two or three planes they are
    evaluated at each combination of the planes' bits, and the rows of the
    combinations that give a second value make a new plane; but `and`, `or`
    and `xor` of two slots valued {0, m} is the same operation on their
    planes, a complemented slot (m, 0, P) taking `everyone ^ P`."""
    first = None  # the first operand over a plane
    for a in args:
        if a[3] is not None:
            if first is None:
                first = a
            elif a[3] != first[3]:
                break
    else:
        v0 = apply_mnemonic(mnemonic, [a[0] for a in args], width)
        v1 = apply_mnemonic(mnemonic, [a[1] for a in args], width)
        if v0 == v1:
            return v0, v0, 0, None
        return v0, v1, first[2], first[3]
    if mnemonic in _PLANE_OPS:
        (a0, a1, pa, _), (b0, b1, pb, _) = args
        if a0 | a1 == b0 | b1 and not (a0 and a1) and not (b0 and b1):
            pa = pa if a0 == 0 else everyone ^ pa
            pb = pb if b0 == 0 else everyone ^ pb
            return 0, a0 | a1, _PLANE_OPS[mnemonic](pa, pb), dest
    planes = {a[3]: a[2] for a in args if a[3] is not None}  # id -> plane
    ids = list(planes)
    bit = [None if a[3] is None else ids.index(a[3]) for a in args]  # each operand's plane bit in a combination
    values = [apply_mnemonic(mnemonic, [a[0] if k is None else a[combo >> k & 1] for a, k in zip(args, bit)], width)
              for combo in range(1 << len(ids))]
    others = set(values) - {values[0]}
    if not others:
        return values[0], values[0], 0, None
    if len(others) > 1:
        return None
    (v1,) = others
    plane = 0
    for combo, value in enumerate(values):
        if value == v1:
            term = everyone
            for k, p in enumerate(planes.values()):
                term &= p if combo >> k & 1 else everyone ^ p
            plane |= term
    return values[0], v1, plane, dest


def _plane_transition(a: tuple, b: tuple, count: int, weights: dict) -> int:
    """Adds the per-row switching between slots `a` and `b`, times `count`,
    to the signed `weights` of the planes it follows, and returns the part
    that every row shares. A bit of `a ^ b` where neither slot varies is
    the same on every row. The others follow a plane: that of `a` where only
    `a` varies, that of `b` where only `b` does, and their xor where both do
    (none where the two share a plane). A bit that is 1 at the planes' zero
    valuation follows the plane's complement, 1 on every row less the
    plane. A weight is keyed by its plane's id, or by the pair of ids of an
    xor."""
    a0, a1, pa, ida = a
    b0, b1, pb, idb = b
    differ, da, db = a0 ^ b0, a0 ^ a1, b0 ^ b1
    if ida is None or idb is None or ida == idb:
        bits = da ^ db
        groups = ((bits, pa, ida) if idb is None else (bits, pb, idb),)
    else:
        bits, both = da | db, (None, (ida, idb) if ida < idb else (idb, ida))
        groups = ((da, *both),) if da == db else ((da & ~db, pa, ida), (db & ~da, pb, idb), (da & db, *both))
    shared = (differ & ~bits).bit_count()
    for bits, plane, key in groups:
        off = (bits & differ).bit_count()
        weight = (bits.bit_count() - 2 * off) * count
        shared += off
        if weight:
            entry = weights.get(key)
            if entry is None:
                weights[key] = [pa ^ pb if plane is None else plane, weight]
            else:
                entry[1] += weight
    return shared * count


def _count(counter: list, plane: int, weight: int):
    """Adds `weight` on the rows of `plane` to a carry-save counter, which
    holds at most two pending planes per bit of the totals: a third at bit
    j goes with those two through a full adder, whose sum stays at bit j
    and whose carry goes on to bit j + 1. The counter has a place for each
    bit of the coarse bound, which no sum of weights exceeds."""
    j = 0
    while weight:
        if weight & 1:
            x, k = plane, j
            while len(counter[k]) == 2:
                a, b = counter[k]
                t = a ^ b
                counter[k] = [t ^ x]
                x = (a & b) | (x & t)
                k += 1
            counter[k].append(x)
        weight >>= 1
        j += 1


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
