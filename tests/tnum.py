"""Test helpers over the known-bits domain's plain (ones, unknowns) pairs."""

from cswp.analysis import _knownbits_slots, _lower


def from_str(s: str) -> tuple[int, int]:
    """The pair of a bit string of 0/1/?, most significant first, e.g. '?10'."""
    ones = unknowns = 0
    for c in s:
        if c not in "01?":
            raise ValueError(f"bad bit character {c!r}")
        ones = ones << 1 | (c == "1")
        unknowns = unknowns << 1 | (c == "?")
    return ones, unknowns


def to_str(pair: tuple[int, int], w: int) -> str:
    ones, unknowns = pair
    return "".join("?" if unknowns >> i & 1 else "01"[ones >> i & 1] for i in reversed(range(w)))


def is_tnum(pair: tuple[int, int], w: int) -> bool:
    """Disjoint masks, both inside the width."""
    ones, unknowns = pair
    return not ones & unknowns and (ones | unknowns) >> w == 0


def contains(pair: tuple[int, int], v: int, w: int) -> bool:
    """True when the w-bit value `v` is one of the pair's concretizations."""
    ones, unknowns = pair
    return 0 <= v < 1 << w and v & ~unknowns == ones


def abstract_outputs(program) -> list[tuple[int, int]]:
    """The pair of each instruction output: that of its slot in the lowered
    program."""
    lowered = _lower(program)
    slots = _knownbits_slots(lowered)
    return [slots[s] for s in lowered.outputs]
