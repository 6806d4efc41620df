"""Hamming-weight instruction power model: static/dynamic apportioning,
synthetic measurement grids, least-squares fitting, and trace energy.

Power measured while alternating an instruction with all-zero operands splits
into a base term plus linear contributions per input bit set (c_in) and per
output bit set (c_out). Grids here are synthetic: the generator plants known
coefficients plus seeded Gaussian noise, and the fit recovers them.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field, fields
from typing import Sequence

import numpy as np

from . import core
from .core import CswpError, ExecutionTrace


class FitRankError(CswpError):
    """The fit's design matrix is rank deficient; names the collinear column."""


@dataclass
class EnergyModel:
    """Per-bit power coefficients plus the clock.

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
    c_out_mw, and optional f_hz."""
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
    try:
        return EnergyModel(
            p_idle_single=float(raw["p_idle_single_mw"]),
            c_in=float(raw["c_in_mw"]),
            c_out=float(raw["c_out_mw"]),
            f=float(raw.get("f_hz", 500e6)),
        )
    except KeyError as e:
        raise CswpError(f"model file {spec!r} missing key {e}") from None
    except (TypeError, ValueError) as e:
        raise CswpError(f"model file {spec!r} has a non-numeric value: {e}") from None


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

    def report_lines(self) -> list[str]:
        return [
            f"base_mw={self.base:.3f}",
            f"c_in_mw={self.c_in:.3f}",
            f"c_out_mw={self.c_out:.3f}",
            f"mae_mw={self.mean_abs_error:.3f}",
        ]


@dataclass
class PowerSummary:
    p_tdual: float
    p_tsingle: float
    p_dmin: float
    p_dmax: float
    p_drng: float
    pct_min: float
    pct_max: float

    def report_lines(self) -> list[str]:
        return [
            f"p_tdual_mw={self.p_tdual:.3f}",
            f"p_tsingle_mw={self.p_tsingle:.3f}",
            f"p_dmin_mw={self.p_dmin:.3f}",
            f"p_dmax_mw={self.p_dmax:.3f}",
            f"p_drng_mw={self.p_drng:.3f}",
            f"pct_min={self.pct_min:.4f}",
            f"pct_max={self.pct_max:.4f}",
        ]


def summarize_power(p_tdual: float, test_powers: Sequence[float]) -> PowerSummary:
    """Split idle power across the two cores and express the observed dynamic
    range as a fraction of single-core power: p_x / (p_tsingle + p_x)."""
    if not test_powers:
        raise CswpError("need at least one test power")
    if not all(map(math.isfinite, [p_tdual, *test_powers])):
        raise CswpError("dual-core idle and test powers must be finite")
    if any(p < 0 for p in test_powers):
        raise CswpError("test powers must be non-negative")
    p_tsingle = p_tdual / 2
    p_dmin = min(test_powers) - p_tdual
    p_dmax = max(test_powers) - p_tdual
    if p_tsingle + p_dmin == 0 or p_tsingle + p_dmax == 0:
        raise CswpError(
            f"a test power equals half the dual-core idle power ({p_tsingle:g} mW), "
            "so its dynamic share is undefined"
        )
    return PowerSummary(
        p_tdual=p_tdual,
        p_tsingle=p_tsingle,
        p_dmin=p_dmin,
        p_dmax=p_dmax,
        p_drng=p_dmax - p_dmin,
        pct_min=p_dmin / (p_tsingle + p_dmin),
        pct_max=p_dmax / (p_tsingle + p_dmax),
    )


GRID_MNEMONICS = ("add", "sub", "and", "or", "xor", "shl", "shr")
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
    size = 1 << width
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, noise_sigma, size * size) if noise_sigma > 0 else np.zeros(size * size)
    operands = np.arange(size, dtype=np.uint64)
    a = np.repeat(operands, size)
    b = np.tile(operands, size)
    result = core.vector_ops(width)[mnemonic](a, b)
    h_in = np.bitwise_count(a).astype(np.int64) + np.bitwise_count(b)
    h_out = np.bitwise_count(result).astype(np.int64)
    power = base + model.c_in * h_in + model.c_out * h_out + noise
    return Grid(a.astype(np.int64), b.astype(np.int64), h_in, h_out, power)


def fit_hamming_model(grid: Grid) -> FitResult:
    """Ordinary least squares for power ~ base + c_in*h_in + c_out*h_out."""
    if len(grid) < 3:
        raise CswpError(f"need at least 3 measurements, got {len(grid)}")
    h_in = grid.h_in.astype(float)
    h_out = grid.h_out.astype(float)
    power = grid.power

    design = np.column_stack([np.ones_like(h_in), h_in, h_out])
    if np.linalg.matrix_rank(design) < 3:
        if np.ptp(h_in) == 0:
            raise FitRankError("design matrix rank deficient: h_in is constant")
        if np.ptp(h_out) == 0:
            raise FitRankError("design matrix rank deficient: h_out is constant")
        raise FitRankError("design matrix rank deficient: h_in and h_out are collinear")

    coef, _, _, _ = np.linalg.lstsq(design, power, rcond=None)
    base, c_in, c_out = (float(c) for c in coef)
    residuals = power - design @ coef
    return FitResult(
        base=base,
        c_in=c_in,
        c_out=c_out,
        mean_abs_error=float(np.mean(np.abs(residuals))),
        residuals=residuals,
    )


def trace_energy(trace: ExecutionTrace, model: EnergyModel, include_input_term: bool = False) -> float:
    """Energy (nJ) of one execution at one instruction per clock cycle:
    each transition costs (p_idle_single + c_out * output Hamming distance)
    for one period. include_input_term adds c_in times the Hamming distance
    on the operand buses, assuming a bus holds its last driven value until
    the next instruction drives it."""
    period_s = 1.0 / model.f

    bus = [0, 0, 0]
    bus_dist = []
    for args in trace.input_values:
        d = 0
        for k, v in enumerate(args):
            d += (bus[k] ^ v).bit_count()
            bus[k] = v
        bus_dist.append(d)

    total_mw_cycles = 0.0
    for i, h_out in enumerate(trace.transitions):
        p = model.p_idle_single + model.c_out * h_out
        if include_input_term:
            p += model.c_in * bus_dist[i + 1]
        total_mw_cycles += p
    return total_mw_cycles * period_s * 1e6  # mW*s -> nJ


# ---------------------------------------------------------------------------
# CSV and heat-map export

CSV_HEADER = ["op_a", "op_b", "h_in", "h_out", "power_mw"]


# Rows formatted or parsed per chunk. Export holds one chunk's formatted lines
# at a time; import holds every line of the grid but one chunk's fields.
CSV_CHUNK_ROWS = 4096


def measurements_to_csv(grid: Grid, width: int) -> str:
    digits = max(1, (width + 3) // 4)
    line = f"0x%0{digits}x,0x%0{digits}x,%d,%d,%.6f\n"
    columns = (grid.op_a, grid.op_b, grid.h_in, grid.h_out, grid.power)
    parts = [",".join(CSV_HEADER) + "\n"]
    for lo in range(0, len(grid), CSV_CHUNK_ROWS):
        rows = zip(*(column[lo:lo + CSV_CHUNK_ROWS].tolist() for column in columns))
        parts.append("".join([line % row for row in rows]))
    return "".join(parts)


def measurements_from_csv(text: str) -> Grid:
    """Parse a measurement CSV: operands accept any int() literal with a base
    prefix and blank lines are skipped. Every row has exactly the header's
    fields and a finite power.

    Text that the csv module would split exactly as str.split does is read
    CSV_CHUNK_ROWS rows at a time as columns; any other text, and any text
    with an error, goes to the row loop, which gives the same grid and
    reports every error."""
    grid = _read_chunks(text)
    return _read_rows(text) if grid is None else grid


def _int0(literal: str) -> int:
    return int(literal, 0)


def _read_chunks(text: str) -> Grid | None:
    """The grid of well-formed text, or None where `_read_rows` must decide.

    A chunk's rows are joined with a "\\n" field between them and split on
    commas once; every row has five fields exactly when those separator
    fields fall on every sixth place. Each integer column converts each of
    its distinct literals once, with the row loop's int() call."""
    # int() and float() strip a \r that the csv module reads as a line end. A
    # quoted field needs no such test: a field holding '"' never converts.
    if "\r" in text:
        return None
    rows = text.split("\n")
    if rows[0] != ",".join(CSV_HEADER):
        return None
    rows = list(filter(None, rows[1:]))  # csv.reader skips blank lines too
    limit = csv.field_size_limit()
    stride = len(CSV_HEADER) + 1
    ints = [np.empty(len(rows), np.int64) for _ in range(4)]
    power = np.empty(len(rows), np.float64)
    try:
        for lo in range(0, len(rows), CSV_CHUNK_ROWS):
            chunk = rows[lo:lo + CSV_CHUNK_ROWS]
            n = len(chunk)
            joined = ",\n,".join(chunk)
            if len(joined) > limit and max(map(len, chunk)) > limit:
                return None  # csv.reader rejects a field over the limit
            fields = joined.split(",")
            if len(fields) != stride * n - 1 or fields[stride - 1::stride].count("\n") != n - 1:
                return None
            for k, (column, convert) in enumerate(zip(ints, (_int0, _int0, int, int))):
                literals = fields[k::stride]
                lookup = {s: convert(s) for s in set(literals)}
                column[lo:lo + n] = np.fromiter(map(lookup.__getitem__, literals), np.int64, n)
            power[lo:lo + n] = np.fromiter(map(float, fields[stride - 2::stride]), np.float64, n)
    except (ValueError, OverflowError):  # a bad literal, or an integer beyond int64
        return None
    if not np.isfinite(power).all():
        return None
    return Grid(*ints, power)


def _read_rows(text: str) -> Grid:
    """The csv module's reading, converting each field as it streams past; it
    names the line of the first error."""
    reader = csv.reader(io.StringIO(text))
    op_a, op_b, h_in, h_out, power = columns = ([], [], [], [], [])
    try:
        header = next(reader, None)
        if header != CSV_HEADER:
            raise CswpError(f"bad measurement CSV header {header!r}, want {CSV_HEADER!r}")
        for row in reader:
            if not row:
                continue
            if len(row) != len(CSV_HEADER):
                raise CswpError(f"CSV line {reader.line_num}: {len(row)} fields, want {len(CSV_HEADER)}")
            try:
                op_a.append(int(row[0], 0))
                op_b.append(int(row[1], 0))
                h_in.append(int(row[2]))
                h_out.append(int(row[3]))
                power.append(float(row[4]))
            except ValueError as e:
                raise CswpError(f"CSV line {reader.line_num}: {e}") from None
    except csv.Error as e:  # e.g. a field over csv.field_size_limit()
        raise CswpError(f"CSV line {reader.line_num}: {e}") from None
    try:
        grid = Grid(*(np.array(c, dtype=np.int64) for c in columns[:4]),
                    np.array(power, dtype=np.float64))
    except OverflowError:
        raise CswpError("measurement CSV holds an integer outside the int64 range") from None
    finite = np.isfinite(grid.power)
    if not finite.all():
        row = int(finite.argmin())
        raise CswpError(f"measurement CSV data row {row + 1} has a non-finite power {grid.power[row]}")
    return grid


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
    counts = np.bincount(grid.op_a * size + grid.op_b, minlength=size * size)
    if counts.max() > 1:  # with size*size rows, a repeated pair means a missing one
        a, b = divmod(int(counts.argmax()), size)
        raise CswpError(f"grid pair (0x{a:x}, 0x{b:x}) appears {counts.max()} times, want once")
    value = grid.power
    if stage in ("minus-out", "residual"):
        value = value - c_out * grid.h_out
    if stage in ("minus-in", "residual"):
        value = value - c_in * grid.h_in
    matrix = np.empty((size, size))
    matrix[grid.op_a, grid.op_b] = value
    return matrix


def heatmap_to_csv(matrix: np.ndarray) -> str:
    line = ",".join(["%.6f"] * matrix.shape[1]) + "\n"
    return "".join([line % tuple(row) for row in matrix.tolist()])
