"""Hamming-weight instruction power model: static/dynamic apportioning,
synthetic measurement grids, least-squares fitting, and trace energy.

Power measured while alternating an instruction with all-zero operands splits
into a base term plus linear contributions per input bit set (c_in) and per
output bit set (c_out). Grids here are synthetic: the generator plants known
coefficients plus seeded Gaussian noise, and the fit recovers them.

Only the grids, the fit and the CSV and heat-map code compute with arrays;
each function that does imports NumPy itself, so that loading a model,
summarizing power and trace energy run without it.
"""

from __future__ import annotations

import functools
import json
import math
import re
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Sequence

from . import core
from .core import CswpError, ExecutionTrace

if TYPE_CHECKING:
    import numpy as np


class FitRankError(CswpError):
    """The fit's design matrix is rank deficient; names the collinear column."""


@dataclass(frozen=True)
class EnergyModel:
    """Per-bit power coefficients plus the clock; frozen, as presets are shared.

    p_idle_single is the single-core idle power (mW), c_in/c_out the mW per
    input/output Hamming unit, f the clock (Hz).
    """

    p_idle_single: float
    c_in: float
    c_out: float
    f: float = 500e6

    def __post_init__(self):
        for item in fields(self):
            value = getattr(self, item.name)
            if not math.isfinite(value):
                raise CswpError(f"model {item.name} {value} must be finite")
        if self.p_idle_single < 0 or self.c_in < 0 or self.c_out < 0:
            raise CswpError("power coefficients must be non-negative")
        if self.f <= 0:
            raise CswpError("clock frequency must be positive")


# coefficients published for the XS1-L case study: 164 mW idle single core,
# 1.3 mW per input bit set, 4.4 mW per output bit set, 500 MHz
PRESETS = {
    "xs1l-paper": EnergyModel(p_idle_single=164.0, c_in=1.3, c_out=4.4, f=500e6),
}


def load_model(spec: str) -> EnergyModel:
    """A preset name or a JSON file with keys p_idle_single_mw, c_in_mw,
    c_out_mw, and optional f_hz, each a JSON number."""
    if spec in PRESETS:
        return PRESETS[spec]
    try:
        with open(spec) as fh:
            raw = json.load(fh)
    except OSError as e:
        raise CswpError(f"unknown preset and unreadable model file {spec!r}: {e}") from None
    except ValueError as e:  # JSONDecodeError, UnicodeDecodeError
        raise CswpError(f"model file {spec!r} is not valid JSON: {e}") from None
    if not isinstance(raw, dict):
        raise CswpError(f"model file {spec!r} must hold a JSON object")
    values = {}
    for key, name in (("p_idle_single_mw", "p_idle_single"), ("c_in_mw", "c_in"), ("c_out_mw", "c_out"),
                      ("f_hz", "f")):
        if key not in raw:
            if name == "f":
                continue
            raise CswpError(f"model file {spec!r} missing key {key!r}")
        value = raw[key]
        if type(value) not in (int, float):  # a JSON number; bool is an int subclass
            raise CswpError(f"model file {spec!r} has a non-numeric value: {key} is {json.dumps(value)}")
        try:
            values[name] = float(value)
        except OverflowError:
            raise CswpError(f"model file {spec!r} has a value outside the float range: {key}") from None
    return EnergyModel(**values)


@dataclass
class Grid:
    """Measurement grid as columns, one entry per point: operands and their
    Hamming units (int64) and the measured power in mW (float64)."""

    op_a: np.ndarray
    op_b: np.ndarray
    h_in: np.ndarray
    h_out: np.ndarray
    power: np.ndarray

    def __len__(self) -> int:
        return len(self.power)


@dataclass
class FitResult:
    base: float
    c_in: float
    c_out: float
    mean_abs_error: float
    residuals: np.ndarray = field(repr=False)


@dataclass
class PowerSummary:
    p_tdual: float
    p_tsingle: float
    p_dmin: float
    p_dmax: float
    p_drng: float
    pct_min: float
    pct_max: float


def summarize_power(p_tdual: float, test_powers: Sequence[float]) -> PowerSummary:
    """Split idle power across the two cores and express the observed dynamic
    range as a fraction of single-core power: p_x / (p_tsingle + p_x)."""
    if not test_powers:
        raise CswpError("need at least one test power")
    if not all(map(math.isfinite, [p_tdual, *test_powers])):
        raise CswpError("dual-core idle and test powers must be finite")
    if p_tdual < 0 or any(p < 0 for p in test_powers):
        raise CswpError("dual-core idle and test powers must be non-negative")
    p_tsingle = p_tdual / 2
    p_dmin = min(test_powers) - p_tdual
    p_dmax = max(test_powers) - p_tdual
    if p_tsingle + p_dmin == 0 or p_tsingle + p_dmax == 0:
        raise CswpError(
            f"a test power equals half the dual-core idle power ({p_tsingle:g} mW), "
            "so its dynamic share is undefined"
        )
    summary = PowerSummary(
        p_tdual=p_tdual,
        p_tsingle=p_tsingle,
        p_dmin=p_dmin,
        p_dmax=p_dmax,
        p_drng=p_dmax - p_dmin,
        pct_min=p_dmin / (p_tsingle + p_dmin),
        pct_max=p_dmax / (p_tsingle + p_dmax),
    )
    for item in fields(summary):
        value = getattr(summary, item.name)
        if not math.isfinite(value):
            raise CswpError(f"power summary {item.name} {value} is not finite: the powers are too large")
    return summary


GRID_MNEMONICS = tuple(mnemonic for mnemonic, arity in core.ARITY.items() if arity == 2)
MAX_GRID_WIDTH = 8


def gen_synthetic_grid(
    width: int,
    mnemonic: str,
    model: EnergyModel,
    base: float,
    noise_sigma: float = 0.0,
    seed: int = 0,
) -> Grid:
    """Every operand pair (a, b) in [0, 2^width)^2 for a two-input mnemonic:
    h_in = weight(a) + weight(b), h_out = weight(result), power = base +
    c_in*h_in + c_out*h_out + N(0, sigma). Deterministic for a fixed seed."""
    if mnemonic not in GRID_MNEMONICS:
        raise CswpError(f"grid generation supports {', '.join(GRID_MNEMONICS)}; got {mnemonic!r}")
    if not 1 <= width <= MAX_GRID_WIDTH:
        raise CswpError(f"grid width {width} outside 1..{MAX_GRID_WIDTH} (full grids only)")
    if not 0 <= noise_sigma < math.inf:  # also false for NaN
        raise CswpError(f"noise sigma {noise_sigma} must be finite and >= 0")
    if not math.isfinite(base):
        raise CswpError(f"base power {base} must be finite")
    if seed < 0:
        raise CswpError(f"seed {seed} must be >= 0")
    import numpy as np

    size = 1 << width
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, noise_sigma, size * size) if noise_sigma > 0 else np.zeros(size * size)
    operands = np.arange(size, dtype=np.uint64)
    a = np.repeat(operands, size)
    b = np.tile(operands, size)
    result = core.vector_ops(width)[mnemonic](a, b)
    h_in = np.bitwise_count(a).astype(np.int64) + np.bitwise_count(b)
    h_out = np.bitwise_count(result).astype(np.int64)
    with np.errstate(over="ignore", invalid="ignore"):
        power = base + model.c_in * h_in + model.c_out * h_out + noise
    finite = np.isfinite(power)
    if not finite.all():
        k = int(finite.argmin())
        raise CswpError(f"grid power {power[k]} at operands (0x{int(a[k]):x}, 0x{int(b[k]):x}) is not finite: "
                        "the base, coefficients or noise sigma are too large")
    return Grid(a.astype(np.int64), b.astype(np.int64), h_in, h_out, power)


def fit_hamming_model(grid: Grid) -> FitResult:
    """Ordinary least squares for power ~ base + c_in*h_in + c_out*h_out."""
    if len(grid) < 3:
        raise CswpError(f"need at least 3 measurements, got {len(grid)}")
    import numpy as np

    power = grid.power
    design = np.empty((len(grid), 3))  # filled from the int columns: no float copies of them stay alive
    design[:, 0] = 1.0
    design[:, 1] = grid.h_in
    design[:, 2] = grid.h_out
    # rcond=None counts the singular values above eps * max(M, N) * the
    # largest, as matrix_rank does, so the one factorisation gives both
    with np.errstate(over="ignore", invalid="ignore"):
        coef, _, rank, _ = np.linalg.lstsq(design, power, rcond=None)
        residuals = power - design @ coef
        mean_abs_error = float(np.mean(np.abs(residuals)))
    if rank < 3:
        if np.ptp(grid.h_in) == 0:
            raise FitRankError("design matrix rank deficient: h_in is constant")
        if np.ptp(grid.h_out) == 0:
            raise FitRankError("design matrix rank deficient: h_out is constant")
        raise FitRankError("design matrix rank deficient: h_in and h_out are collinear")
    fit = FitResult(*(float(c) for c in coef), mean_abs_error, residuals)
    for name in ("base", "c_in", "c_out", "mean_abs_error"):
        value = getattr(fit, name)
        if not math.isfinite(value):
            raise CswpError(f"fit {name} {value} is not finite: the grid's powers are too large")
    return fit


def trace_energy(trace: ExecutionTrace, model: EnergyModel, include_input_term: bool = False) -> float:
    """Energy (nJ) of one execution at one instruction per clock cycle:
    each transition costs (p_idle_single + c_out * output Hamming distance)
    for one period. include_input_term adds c_in times the Hamming distance
    on the operand buses, assuming a bus holds its last driven value until
    the next instruction drives it."""
    period_s = 1.0 / model.f
    if not math.isfinite(period_s):
        raise CswpError(f"clock period {period_s} s of f {model.f} Hz is not finite")

    bus = [0, 0, 0]
    total_mw_cycles = 0.0
    for i, args in enumerate(trace.input_values):
        d = 0
        for k, v in enumerate(args):
            d += (bus[k] ^ v).bit_count()
            bus[k] = v
        if i:  # transition i - 1 ends at instruction i, which drives the buses to `args`
            p = model.p_idle_single + model.c_out * trace.transitions[i - 1]
            if include_input_term:
                p += model.c_in * d
            total_mw_cycles += p
    nj = total_mw_cycles * period_s * 1e6  # mW*s -> nJ
    if not math.isfinite(nj):
        raise CswpError(f"trace energy {nj} nJ is not finite: the model's coefficients are too large")
    return nj


# ---------------------------------------------------------------------------
# CSV and heat-map export

CSV_HEADER = ["op_a", "op_b", "h_in", "h_out", "power_mw"]
_HEADER = ",".join(CSV_HEADER).encode()
_HEADER_LINE = _HEADER + b"\n"


# Rows (heat-map values) formatted or parsed per chunk. Apart from the text,
# its bytes, its line ends and the grid itself, no array a CSV call builds
# holds more than one chunk.
CSV_CHUNK_ROWS = 8192


@functools.cache
def _digit_values() -> np.ndarray:
    """Byte -> its value as a hex digit, 255 for any other byte, for the hex
    fields `_number` reads. Built on first use, and from Python values:
    building it with a numpy ufunc or an index assignment would add ~130 KiB
    to the RSS of a command that makes no such call otherwise."""
    import numpy as np

    return np.array([int(chr(b), 16) if chr(b) in "0123456789abcdefABCDEF" else 255 for b in range(256)], np.uint8)


def _digits(values: np.ndarray, base: int, min_digits: int) -> np.ndarray:
    """The ASCII digits of non-negative `values` in `base`, one column per
    value, with NUL for the leading zeros left of `min_digits` digits."""
    import numpy as np

    digit_bytes = np.frombuffer(b"0123456789abcdef", np.uint8)
    top = int(values.max())
    count = max(min_digits, len(np.base_repr(top, base)))
    rest = values.astype(np.uint32 if top < 2**32 else np.uint64)  # uint32 divides twice as fast
    text = np.empty((count, len(values)), np.uint8)
    for row in range(count - 1, -1, -1):
        quotient = rest // base
        remainder = rest - quotient * base
        text[row] = remainder + ord("0") if base == 10 else digit_bytes.take(remainder)
        rest = quotient
    lead = count - min_digits
    text[:lead][values < base ** np.arange(count - 1, min_digits - 1, -1)[:, None]] = 0
    return text


def _fixed6(x: np.ndarray) -> np.ndarray | None:
    """The "%.6f" text of each value as one NUL-padded column of ASCII bytes,
    or None if a value is not finite or |x| * 1e6 >= 2**52. The first row is
    the sign, "-" or NUL, only where some value has its sign bit set.

    Its digits are those of the micro-units rint(x * 1e6), at least seven,
    with "." above the last six. rint rounds as "%.6f" does unless x * 1e6
    lies within its own rounding error of a half; those few values take
    their digits from "%.6f" itself. The sign is x's own, as in "-0.000000"."""
    import numpy as np

    with np.errstate(over="ignore"):
        scaled = x * 1e6
    if not (np.abs(scaled) < 2.0**52).all():  # also false for NaN
        return None
    units = np.abs(np.rint(scaled)).astype(np.int64)
    near_half = np.abs(scaled - np.floor(scaled) - 0.5) <= np.abs(scaled) * 2.0**-52
    for k in np.flatnonzero(near_half):
        units[k] = int(("%.6f" % abs(float(x[k]))).replace(".", ""))
    text = _digits(units, 10, 7)
    rows = [text[:-6], np.full((1, len(x)), ord("."), np.uint8), text[-6:]]
    negative = np.signbit(x)
    if negative.any():
        rows.insert(0, np.where(negative, ord("-"), 0).astype(np.uint8)[None])
    return np.concatenate(rows)


def _lines(*columns: np.ndarray | bytes) -> bytes:
    """Row r of the text is column r of every block in turn, NUL dropped; a
    bytes constant stands for the same bytes in every row."""
    import numpy as np

    rows = next(c.shape[1] for c in columns if isinstance(c, np.ndarray))
    block = np.concatenate([
        c if isinstance(c, np.ndarray) else np.broadcast_to(np.frombuffer(c, np.uint8)[:, None], (len(c), rows))
        for c in columns
    ])
    return block.T.tobytes().replace(b"\0", b"")  # with no NUL: one scan, no copy


def measurements_to_csv(grid: Grid, width: int) -> str:
    digits = max(1, (width + 3) // 4)
    columns = (grid.op_a, grid.op_b, grid.h_in, grid.h_out, grid.power)
    parts = [_HEADER_LINE]
    for lo in range(0, len(grid), CSV_CHUNK_ROWS):
        op_a, op_b, h_in, h_out, power = (column[lo:lo + CSV_CHUNK_ROWS] for column in columns)
        fixed = _fixed6(power)
        if fixed is None or min(op_a.min(), op_b.min(), h_in.min(), h_out.min()) < 0:
            line = f"0x%0{digits}x,0x%0{digits}x,%d,%d,%.6f\n"
            rows = zip(*(column.tolist() for column in columns))
            return _HEADER_LINE.decode() + "".join([line % row for row in rows])
        parts.append(_lines(b"0x", _digits(op_a, 16, digits), b",0x", _digits(op_b, 16, digits),
                            b",", _digits(h_in, 10, 1), b",", _digits(h_out, 10, 1),
                            b",", fixed, b"\n"))
    return b"".join(parts).decode()


def measurements_from_csv(data: bytes) -> Grid:
    """Parse a measurement CSV from its bytes, such as a file's. Its one
    grammar, the form `measurements_to_csv` writes:

    - the header line op_a,op_b,h_in,h_out,power_mw;
    - then rows 0x|0X<hex>,0x|0X<hex>,<digits>,<digits>,[-]<digits>.<digits>;
    - each line ends in \\n or \\r\\n, and the last line may have no line end;
    - every integer fits in int64, and every power is finite.

    Anything else raises CswpError naming the first line that breaks it. The
    rows are read CSV_CHUNK_ROWS at a time straight from the bytes by
    `_read_chunk`, at line bounds found once for the file; `_read_lines`
    reads a chunk it declines, and gives the same columns or names the error."""
    import numpy as np

    buf = np.frombuffer(data, np.uint8)
    ends = np.flatnonzero(buf == ord("\n"))  # ends[0] ends the header, ends[r + 1] row r
    stops = ends - (buf[ends - 1] == ord("\r")) if b"\r" in data else ends  # one memchr; LF data: no copy
    if not data.endswith(b"\n"):  # a last line with no line end ends, and its fields stop, at len(data)
        ends, stops = np.append(ends, len(data)), np.append(stops, len(data))
    if data[:stops[0]] != _HEADER:  # a leading "\n" wraps stops[0] to -1 or keeps 0: rejected either way
        raise CswpError(f"CSV line 1: want the header {_HEADER.decode()}")
    n_rows = len(ends) - 1
    columns = [np.empty(n_rows, np.int64) for _ in range(4)] + [np.empty(n_rows, np.float64)]
    for lo in range(0, n_rows, CSV_CHUNK_ROWS):
        hi = min(lo + CSV_CHUNK_ROWS, n_rows)
        first = ends[lo] + 1
        seg = buf[first:ends[hi] + 1]
        chunk = _read_chunk(seg, ends[lo:hi] + 1 - first, stops[lo + 1:hi + 1] - first)
        for column, values in zip(columns, chunk or _read_lines(seg.tobytes(), lo + 2)):
            column[lo:hi] = values
    return Grid(*columns)


def _read_chunk(seg: np.ndarray, starts: np.ndarray, stops: np.ndarray) -> list[np.ndarray] | None:
    """The five columns of the rows of the bytes `seg`, where row r starts at
    starts[r] and its fields stop at stops[r], its line end or the end of
    `seg`, or None where `_read_lines` must read them.

    It reads rows in `measurements_from_csv`'s grammar whose operands have 1
    to 15 hex digits, counts 1 to 18 digits, and power at most 15 digits
    after the point and 15 significant digits. Such a power is N / 10**d for
    integers N < 10**15 < 2**53 and d <= 15, both exact in float64, so the
    one division rounds as float() does.

    Only the commas and points are searched for: the line bounds are given.
    There must be 4n commas, and the k-th four are taken as row k's. Every
    field must then hold at least one byte between its own two ends, so each
    four lie between their row's bounds, which rejects a row of five commas
    beside one of three. The "0x" and sign bytes are read only once their
    fields are found nonempty, as the last row may end where `seg` does."""
    import numpy as np

    n = len(starts)
    commas = np.flatnonzero(seg == ord(","))
    if len(commas) != 4 * n:
        return None
    commas = commas.reshape(n, 4).T.copy()  # commas[k]: where field k of each row ends
    prefix = np.stack([starts, commas[0] + 1])  # where each operand's "0x" starts
    ints = [_number(seg, prefix[k] + 2, commas[k], 16, 15) for k in (0, 1)]
    ints += [_number(seg, commas[k - 1] + 1, commas[k], 10, 18) for k in (2, 3)]
    lo, hi = commas[3] + 1, stops
    points = np.flatnonzero(seg == ord("."))
    if (any(c is None for c in ints) or len(points) != n or ((points < lo) | (points >= hi)).any()
            or (seg[prefix] != ord("0")).any() or (seg[prefix + 1] | 0x20 != ord("x")).any()):
        return None
    negative = seg[lo] == ord("-")
    lo = lo + negative
    whole = _number(seg, lo, points, 10, 15)
    frac = _number(seg, points + 1, hi, 10, 15)
    if whole is None or frac is None:
        return None
    places = hi - points - 1  # 1 to 15, as `_number` accepted frac
    pow10 = 10 ** np.arange(16)  # looked up: `10 ** places` costs ~10x a lookup per row
    if (whole >= pow10[15 - places]).any():  # a power past 15 significant digits
        return None
    scale = pow10[places]
    power = (whole * scale + frac) / scale
    return ints + [np.where(negative, -power, power)]


def _number(seg: np.ndarray, lo: np.ndarray, hi: np.ndarray, base: int, max_digits: int) -> np.ndarray | None:
    """The value of each field seg[lo:hi] in `base`, int32 where the longest
    field's digits always fit it and int64 otherwise, or None unless every
    field holds 1 to `max_digits` digits of that base.

    Horner's rule over digit columns: each pass takes, for every field at
    once, the byte j places left of its end, for j from the longest field's
    length down to 1. A decimal digit is its byte less "0" in uint8, so any
    other byte wraps to 10 or more; a hex digit is looked up in
    `_digit_values`. Where j exceeds a field's length the byte lies left of
    its start (a negative index wraps), and its digit is taken as 0."""
    import numpy as np

    count = hi - lo
    shortest, span = int(count.min()), int(count.max())
    if shortest < 1 or span > max_digits:
        return None
    at = hi - span
    value = np.zeros(len(hi), np.int32 if base**span < 2**31 else np.int64)
    for j in range(span, 0, -1):
        digits = seg.take(at)
        at += 1
        if base == 10:
            digits -= ord("0")
        else:
            digits = _digit_values().take(digits)
        if j > shortest:
            digits[count < j] = 0
        if digits.max() >= base:
            return None
        value *= base
        value += digits
    return value


# each field's form, as an error names it, the pattern of that form, whose
# group is its digits less leading zeros (so that no run of zeros meets
# int()'s digit limit), and their base, None for the power's float()
_HEX = ("0x<hex>", re.compile(rb"0[xX]0*([0-9a-fA-F]+)"), 16)
_COUNT = ("<digits>", re.compile(rb"0*([0-9]+)"), 10)
_FIELD_FORMS = (_HEX, _HEX, _COUNT, _COUNT, ("[-]<digits>.<digits>", re.compile(rb"(-?[0-9]+\.[0-9]+)"), None))


def _read_lines(seg: bytes, number: int) -> list[list]:
    """The five columns of the lines of `seg`, the first of which is line
    `number` of the file, read a line at a time with int() and float();
    raises CswpError naming the first line outside `measurements_from_csv`'s
    grammar and what is wrong with it. `_read_chunk` gives these columns
    wherever it gives any."""
    *lines, last = seg.split(b"\n")  # last: b"" after a line end, else a last line that has none
    lines = [line.removesuffix(b"\r") for line in lines]
    if last:
        lines.append(last)
    columns = [[] for _ in CSV_HEADER]
    for number, line in enumerate(lines, number):
        cells = line.split(b",")
        if len(cells) != len(CSV_HEADER):
            raise CswpError(f"CSV line {number}: {len(cells)} fields, want {len(CSV_HEADER)}")
        for column, name, (form, pattern, base), cell in zip(columns, CSV_HEADER, _FIELD_FORMS, cells):
            match = pattern.fullmatch(cell)
            if match is None:
                raise CswpError(f"CSV line {number}: {name} must be {form}")
            digits = match[1]  # over 19 of them is past 2**63 in base 10 or 16
            if base is None:
                value = float(digits)
                if not math.isfinite(value):
                    raise CswpError(f"CSV line {number}: {name} is outside the float64 range")
            elif len(digits) > 19 or (value := int(digits, base)) >= 2**63:
                raise CswpError(f"CSV line {number}: {name} is outside the int64 range")
            column.append(value)
    return columns


HEATMAP_STAGES = ("raw", "minus-out", "minus-in", "residual")


def heatmap_matrix(grid: Grid, stage: str, c_in: float, c_out: float) -> np.ndarray:
    """Dense op_a x op_b power matrix for one decomposition stage: the raw
    grid, the grid minus c_out*h_out, minus c_in*h_in, or minus both. The
    grid must hold every operand pair in [0, size)^2 exactly once."""
    if stage not in HEATMAP_STAGES:
        raise CswpError(f"unknown heatmap stage {stage!r}, want one of {', '.join(HEATMAP_STAGES)}")
    if not len(grid):
        raise CswpError("empty measurement grid")
    lowest = int(min(grid.op_a.min(), grid.op_b.min()))
    if lowest < 0:
        raise CswpError(f"grid operand {lowest} is negative")
    size = int(max(grid.op_a.max(), grid.op_b.max())) + 1
    if len(grid) != size * size:
        raise CswpError(f"need a full {size}x{size} grid, got {len(grid)} rows")
    import numpy as np

    key = grid.op_a * size + grid.op_b
    counts = np.bincount(key, minlength=size * size)
    if counts.max() > 1:  # with size*size rows, a repeated pair means a missing one
        a, b = divmod(int(counts.argmax()), size)
        raise CswpError(f"grid pair (0x{a:x}, 0x{b:x}) appears {counts.max()} times, want once")
    value = grid.power
    with np.errstate(over="ignore", invalid="ignore"):
        if stage in ("minus-out", "residual"):
            value = value - c_out * grid.h_out
        if stage in ("minus-in", "residual"):
            value = value - c_in * grid.h_in
    matrix = np.empty((size, size))
    matrix.ravel()[key] = value  # a view: matrix is C-contiguous
    finite = np.isfinite(matrix)
    if not finite.all():
        a, b = divmod(int(finite.argmin()), size)
        raise CswpError(f"heatmap {stage} value {matrix[a, b]} at operands (0x{a:x}, 0x{b:x}) is not finite: "
                        "the coefficients are too large")
    return matrix


def heatmap_to_csv(matrix: np.ndarray) -> str:
    import numpy as np

    n_cols = matrix.shape[1]
    rows = max(1, CSV_CHUNK_ROWS // n_cols)
    sep = np.full(rows * n_cols, ord(","), np.uint8)
    sep[n_cols - 1::n_cols] = ord("\n")
    parts = []
    for lo in range(0, len(matrix), rows):
        values = matrix[lo:lo + rows].ravel()
        fixed = _fixed6(values)
        if fixed is None:
            line = ",".join(["%.6f"] * n_cols) + "\n"
            return "".join([line % tuple(row) for row in matrix.tolist()])
        parts.append(_lines(fixed, sep[None, :len(values)]))
    return b"".join(parts).decode()
