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

    @staticmethod
    def binary01(width: int) -> "KnownBits":
        """Concretization {0, 1}: low bit unknown, the rest known zero."""
        return KnownBits(0, 1, width)

    @staticmethod
    def from_str(s: str, width: int | None = None) -> "KnownBits":
        """Build from a bit string of 0/1/?, most significant first, e.g. '?10'."""
        if width is None:
            width = len(s)
        ones = unknowns = 0
        for c in s:
            ones <<= 1
            unknowns <<= 1
            if c == ONE:
                ones |= 1
            elif c == UNKNOWN:
                unknowns |= 1
            elif c != ZERO:
                raise ValueError(f"bad bit character {c!r}")
        return KnownBits(ones, unknowns, width)

    # -- views ---------------------------------------------------------------

    @property
    def mask(self) -> int:
        return (1 << self.width) - 1

    @property
    def knowns(self) -> int:
        return self.mask & ~self.unknowns

    @property
    def zeros(self) -> int:
        return self.knowns & ~self.ones

    def bit_state(self, i: int) -> str:
        if self.unknowns >> i & 1:
            return UNKNOWN
        return ONE if self.ones >> i & 1 else ZERO

    def bit_states(self) -> list[str]:
        """Per-bit states, index 0 = least significant bit."""
        return [self.bit_state(i) for i in range(self.width)]

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
        _check_widths(self, other)
        ones = self.ones & other.ones
        zeros = self.zeros & other.zeros
        return KnownBits(ones, self.mask & ~(ones | zeros), self.width)

    # -- transfer functions ---------------------------------------------------

    def b_not(self) -> "KnownBits":
        return KnownBits(self.zeros, self.unknowns, self.width)

    def b_and(self, other: "KnownBits") -> "KnownBits":
        _check_widths(self, other)
        ones = self.ones & other.ones
        zeros = self.zeros | other.zeros
        return KnownBits(ones, self.mask & ~(ones | zeros), self.width)

    def b_or(self, other: "KnownBits") -> "KnownBits":
        _check_widths(self, other)
        ones = self.ones | other.ones
        zeros = self.zeros & other.zeros
        return KnownBits(ones, self.mask & ~(ones | zeros), self.width)

    def b_xor(self, other: "KnownBits") -> "KnownBits":
        _check_widths(self, other)
        both_known = self.knowns & other.knowns
        ones = (self.ones ^ other.ones) & both_known
        return KnownBits(ones, self.mask & ~both_known, self.width)

    def add(self, other: "KnownBits") -> "KnownBits":
        # tnum addition (Vishwanathan et al., CGO 2022): v sums the smallest
        # concretizations, v + unknowns the largest; a bit the two sums
        # disagree on lies on a carry chain that unknown bits can reach
        _check_widths(self, other)
        v = self.ones + other.ones
        u = ((v + self.unknowns + other.unknowns) ^ v) | self.unknowns | other.unknowns
        return _tnum(v, u, self.width)

    def sub(self, other: "KnownBits") -> "KnownBits":
        # tnum subtraction: v + self.unknowns is the largest difference and
        # v - other.unknowns the smallest; they disagree on reachable borrows
        _check_widths(self, other)
        v = self.ones - other.ones
        u = ((v + self.unknowns) ^ (v - other.unknowns)) | self.unknowns | other.unknowns
        return _tnum(v, u, self.width)

    def shl(self, amount: "KnownBits") -> "KnownBits":
        """Shift left by a fully known amount (mod width), else all-unknown."""
        _check_widths(self, amount)
        if not amount.is_constant():
            return KnownBits.top(self.width)
        s = amount.ones % self.width
        return KnownBits((self.ones << s) & self.mask, (self.unknowns << s) & self.mask, self.width)

    def shr(self, amount: "KnownBits") -> "KnownBits":
        _check_widths(self, amount)
        if not amount.is_constant():
            return KnownBits.top(self.width)
        s = amount.ones % self.width
        return KnownBits(self.ones >> s, self.unknowns >> s, self.width)

    def eqz(self) -> "KnownBits":
        if self.ones:
            return KnownBits.from_constant(0, self.width)
        if self.is_constant():
            return KnownBits.from_constant(1, self.width)
        return KnownBits(0, 1, self.width)


def ite(cond: KnownBits, then: KnownBits, orelse: KnownBits) -> KnownBits:
    """then if cond is certainly nonzero, orelse if certainly zero, else the join."""
    _check_widths(cond, then, orelse)
    if cond.ones:
        return then
    if cond.is_constant():
        return orelse
    return then.join(orelse)


def _check_widths(*values: KnownBits):
    w = values[0].width
    for v in values[1:]:
        if v.width != w:
            raise ValueError(f"width mismatch: {v.width} vs {w}")


def _tnum(value: int, unknowns: int, width: int) -> KnownBits:
    """Known bits of `value` outside `unknowns`, both cut to the width."""
    mask = (1 << width) - 1
    unknowns &= mask
    return KnownBits(value & ~unknowns & mask, unknowns, width)


def _copy(a: KnownBits) -> KnownBits:
    return a


# mnemonic -> transfer function; `load` and `store` are copies here, since
# the caller resolves memory state before calling
TRANSFER = {
    "mov": _copy,
    "store": _copy,
    "load": _copy,
    "not": KnownBits.b_not,
    "eqz": KnownBits.eqz,
    "and": KnownBits.b_and,
    "or": KnownBits.b_or,
    "xor": KnownBits.b_xor,
    "add": KnownBits.add,
    "sub": KnownBits.sub,
    "shl": KnownBits.shl,
    "shr": KnownBits.shr,
    "ite": ite,
}


def knownbits_transfer(mnemonic: str, inputs: Sequence[KnownBits]) -> KnownBits:
    """Abstract counterpart of apply_mnemonic: sound for every concretization
    of the inputs."""
    from .core import ARITY  # local import keeps this module dependency-free

    if mnemonic not in ARITY:
        raise ValueError(f"unknown mnemonic {mnemonic!r}")
    if len(inputs) != ARITY[mnemonic]:
        raise ValueError(f"{mnemonic} takes {ARITY[mnemonic]} input(s), got {len(inputs)}")
    return TRANSFER[mnemonic](*inputs)
