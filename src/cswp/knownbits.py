"""Three-valued per-bit abstract domain for sound switching bounds.

Each bit of a w-bit value is known-0, known-1, or unknown. A value is encoded
as two masks, a tristate number (tnum): `ones` has a bit set where the bit is
known 1, `unknowns` where it is unknown; the same bit may never be set in
both (`ones & unknowns == 0`), and no bit outside the width may be set in
either. A fully known value denotes exactly one integer, so the
concretization is never empty.

`TRANSFER` states the domain's semantics once: each entry takes the width and
one (ones, unknowns) pair per operand, all valid tnums of that width, and
returns the result's pair, itself a valid tnum of that width and sound for
every concretization of the operands.
"""


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


# mnemonic -> transfer function over masks, for each mnemonic but the
# copies of `core.COPIES`, which the lowering resolves to their operand
TRANSFER = {
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
