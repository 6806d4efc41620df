"""Three-valued per-bit abstract domain for sound switching bounds.

Each bit of a w-bit value is known-0, known-1, or unknown. A value is encoded
as two masks, a tristate number (tnum): `ones` has a bit set where the bit is
known 1, `unknowns` where it is unknown; the same bit may never be set in
both, and no bit outside the width may be set in either. A fully known value
denotes exactly one integer, so the concretization is never empty.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import ARITY

ZERO = "0"
ONE = "1"
UNKNOWN = "?"


@dataclass(frozen=True)
class KnownBits:
    ones: int
    unknowns: int
    width: int

    def __post_init__(self):
        mask = (1 << self.width) - 1
        if self.ones & self.unknowns:
            raise ValueError("a bit cannot be both known-1 and unknown")
        if (self.ones | self.unknowns) & ~mask:
            raise ValueError(f"bits set outside width {self.width}")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_constant(value: int, width: int) -> "KnownBits":
        return KnownBits(value & ((1 << width) - 1), 0, width)

    @staticmethod
    def top(width: int) -> "KnownBits":
        """All bits unknown."""
        return KnownBits(0, (1 << width) - 1, width)

    # -- views ---------------------------------------------------------------

    @property
    def mask(self) -> int:
        return (1 << self.width) - 1

    @property
    def knowns(self) -> int:
        return self.mask & ~self.unknowns

    def bit_state(self, i: int) -> str:
        if self.unknowns >> i & 1:
            return UNKNOWN
        return ONE if self.ones >> i & 1 else ZERO

    def is_constant(self) -> bool:
        return self.unknowns == 0

    def contains(self, value: int) -> bool:
        """True when `value` is one of the concrete values this abstracts."""
        if not 0 <= value <= self.mask:
            return False
        return value & self.knowns == self.ones

    def __str__(self):
        return "".join(self.bit_state(i) for i in reversed(range(self.width)))

    # -- lattice -------------------------------------------------------------

    def join(self, other: "KnownBits") -> "KnownBits":
        """Smallest abstract value covering both operands' concretizations."""
        return _apply(_join, (self, other))


def ite(cond: KnownBits, then: KnownBits, orelse: KnownBits) -> KnownBits:
    """then if cond is certainly nonzero, orelse if certainly zero, else the join."""
    return _apply(TRANSFER["ite"], (cond, then, orelse))


def _apply(transfer, values: Sequence[KnownBits]) -> KnownBits:
    """A mask-level transfer function over KnownBits of one width."""
    w = values[0].width
    for v in values[1:]:
        if v.width != w:
            raise ValueError(f"width mismatch: {v.width} vs {w}")
    return KnownBits(*transfer(w, *[(v.ones, v.unknowns) for v in values]), w)


# ---------------------------------------------------------------------------
# Transfer functions over plain masks: each takes the width and one
# (ones, unknowns) pair per operand, all within the width, and returns the
# result's pair. These state the semantics once; KnownBits wraps them with
# its checks, and analysis runs them directly.

def _join(w, a, b):
    # unknown where either side is, or both are known but differ
    return a[0] & b[0], a[1] | b[1] | (a[0] ^ b[0])


def _not(w, a):
    return ((1 << w) - 1) & ~(a[0] | a[1]), a[1]


def _and(w, a, b):
    # known 1 where both are, known 0 where either is
    ones = a[0] & b[0]
    return ones, (a[0] | a[1]) & (b[0] | b[1]) & ~ones


def _or(w, a, b):
    # known 1 where either is, known 0 where both are
    ones = a[0] | b[0]
    return ones, (a[1] | b[1]) & ~ones


def _xor(w, a, b):
    unknowns = a[1] | b[1]
    return (a[0] ^ b[0]) & ~unknowns, unknowns


def _add(w, a, b):
    # tnum addition (Vishwanathan et al., CGO 2022): v sums the smallest
    # concretizations, v + unknowns the largest; a bit the two sums
    # disagree on lies on a carry chain that unknown bits can reach
    v = a[0] + b[0]
    return _tnum(w, v, ((v + a[1] + b[1]) ^ v) | a[1] | b[1])


def _sub(w, a, b):
    # tnum subtraction: v + a.unknowns is the largest difference and
    # v - b.unknowns the smallest; they disagree on reachable borrows
    v = a[0] - b[0]
    return _tnum(w, v, ((v + a[1]) ^ (v - b[1])) | a[1] | b[1])


def _tnum(w, value, unknowns):
    """Known bits of `value` outside `unknowns`, both cut to the width."""
    mask = (1 << w) - 1
    unknowns &= mask
    return value & ~unknowns & mask, unknowns


def _shl(w, a, amount):
    """Shift by a fully known amount (mod width), else all-unknown."""
    mask = (1 << w) - 1
    if amount[1]:
        return 0, mask
    s = amount[0] % w
    return (a[0] << s) & mask, (a[1] << s) & mask


def _shr(w, a, amount):
    if amount[1]:
        return 0, (1 << w) - 1
    s = amount[0] % w
    return a[0] >> s, a[1] >> s


def _eqz(w, a):
    if a[0]:
        return 0, 0
    return (0, 1) if a[1] else (1, 0)


def _ite(w, cond, then, orelse):
    if cond[0]:
        return then
    if not cond[1]:
        return orelse
    return _join(w, then, orelse)


def _copy(w, a):
    return a


# mnemonic -> transfer function over masks; `load` and `store` are copies
# here, since the caller resolves memory state before calling
TRANSFER = {
    "mov": _copy,
    "store": _copy,
    "load": _copy,
    "not": _not,
    "eqz": _eqz,
    "and": _and,
    "or": _or,
    "xor": _xor,
    "add": _add,
    "sub": _sub,
    "shl": _shl,
    "shr": _shr,
    "ite": _ite,
}


def knownbits_transfer(mnemonic: str, inputs: Sequence[KnownBits]) -> KnownBits:
    """Abstract counterpart of apply_mnemonic: sound for every concretization
    of the inputs."""
    if mnemonic not in ARITY:
        raise ValueError(f"unknown mnemonic {mnemonic!r}")
    if len(inputs) != ARITY[mnemonic]:
        raise ValueError(f"{mnemonic} takes {ARITY[mnemonic]} input(s), got {len(inputs)}")
    return _apply(TRANSFER[mnemonic], inputs)
