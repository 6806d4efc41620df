import math
import re
import warnings
from dataclasses import FrozenInstanceError, fields

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cswp import energy
from cswp.core import Const, CswpError, Instruction, Program, apply_mnemonic, execute
from cswp.energy import (
    GRID_MNEMONICS,
    PRESETS,
    EnergyModel,
    FitRankError,
    Grid,
    fit_hamming_model,
    gen_synthetic_grid,
    heatmap_matrix,
    heatmap_to_csv,
    load_model,
    measurements_from_csv,
    measurements_to_csv,
    summarize_power,
    trace_energy,
)

PAPER_MODEL = PRESETS["xs1l-paper"]


def columns(grid):
    return [getattr(grid, f.name) for f in fields(grid)]


def point(grid, a, b):
    """(op_a, op_b, h_in, h_out, power) of the one grid row with operands (a, b)."""
    (k,) = np.flatnonzero((grid.op_a == a) & (grid.op_b == b))
    return tuple(column[k] for column in columns(grid))


def make_grid(rows):
    """A Grid from (op_a, op_b, h_in, h_out, power) tuples."""
    op_a, op_b, h_in, h_out, power = zip(*rows)
    ints = [np.array(c, dtype=np.int64) for c in (op_a, op_b, h_in, h_out)]
    return Grid(*ints, np.array(power, dtype=np.float64))


class TestSummarizePower:
    def test_published_add_figures(self):
        # dual-core idle 328 mW; add spans +34..+96 mW over idle
        summary = summarize_power(328.0, [362.0, 400.0, 424.0])
        assert summary.p_tsingle == 164.0
        assert summary.p_dmin == pytest.approx(34.0)
        assert summary.p_dmax == pytest.approx(96.0)
        assert summary.p_drng == pytest.approx(62.0)
        assert summary.pct_min == pytest.approx(0.172, abs=0.005)
        assert summary.pct_max == pytest.approx(0.369, abs=0.005)

    def test_published_sub_maximum(self):
        summary = summarize_power(328.0, [362.0, 451.0])
        assert summary.pct_max == pytest.approx(0.429, abs=0.01)

    def test_constant_powers_mean_no_dynamic_range(self):
        summary = summarize_power(328.0, [328.0, 328.0])
        assert summary.p_dmin == summary.p_dmax == summary.p_drng == 0.0
        assert summary.pct_min == summary.pct_max == 0.0

    def test_empty_rejected(self):
        with pytest.raises(CswpError):
            summarize_power(328.0, [])


class TestSyntheticGrid:
    def test_zero_operands_row(self):
        grid = gen_synthetic_grid(8, "add", PAPER_MODEL, base=50.0)
        op_a, op_b, h_in, h_out, power = (column[0] for column in columns(grid))
        assert (op_a, op_b, h_in, h_out) == (0, 0, 0, 0)
        assert power == pytest.approx(50.0)

    def test_wraparound_add(self):
        grid = gen_synthetic_grid(8, "add", PAPER_MODEL, base=0.0)
        assert point(grid, 0x80, 0x80)[2:4] == (2, 0)

    def test_sub_produces_all_ones_row(self):
        grid = gen_synthetic_grid(8, "sub", PAPER_MODEL, base=0.0)
        assert point(grid, 0, 1)[3] == 8

    def test_deterministic_per_seed(self):
        a = gen_synthetic_grid(4, "add", PAPER_MODEL, base=10.0, noise_sigma=2.0, seed=7)
        b = gen_synthetic_grid(4, "add", PAPER_MODEL, base=10.0, noise_sigma=2.0, seed=7)
        assert all(np.array_equal(x, y) for x, y in zip(columns(a), columns(b)))
        c = gen_synthetic_grid(4, "add", PAPER_MODEL, base=10.0, noise_sigma=2.0, seed=8)
        assert not np.array_equal(a.power, c.power)

    @pytest.mark.parametrize("mnemonic", GRID_MNEMONICS)
    def test_columns_match_scalar_semantics(self, mnemonic):
        # every column against a per-pair loop over the scalar semantics, and
        # power against the per-row formula term by term, with and without noise
        model = EnergyModel(p_idle_single=0.0, c_in=1.37, c_out=4.21)
        for width in range(1, 9):
            size = 1 << width
            noise = np.random.default_rng(width).normal(0.0, 0.9, size * size)
            rows = []
            for a in range(size):
                for b in range(size):
                    h_in = a.bit_count() + b.bit_count()
                    h_out = apply_mnemonic(mnemonic, (a, b), width).bit_count()
                    rows.append((a, b, h_in, h_out, 47.3 + model.c_in * h_in + model.c_out * h_out))
            want = [np.array(c) for c in zip(*rows)]
            for sigma, added in ((0.0, np.zeros(size * size)), (0.9, noise)):
                grid = gen_synthetic_grid(width, mnemonic, model, base=47.3, noise_sigma=sigma, seed=width)
                assert len(grid) == size * size
                for got, expected in zip(columns(grid)[:4], want[:4]):
                    assert got.dtype == np.int64
                    assert np.array_equal(got, expected), (mnemonic, width)
                assert grid.power.dtype == np.float64
                assert grid.power.tolist() == [p + n for p, n in zip(want[4].tolist(), added.tolist())]

    def test_width_guard(self):
        with pytest.raises(CswpError):
            gen_synthetic_grid(9, "add", PAPER_MODEL, base=0.0)

    @pytest.mark.parametrize("model, base, sigma", [
        (EnergyModel(p_idle_single=0.0, c_in=0.0, c_out=1e308), 1e308, 0.0),  # the terms' sum overflows
        (PAPER_MODEL, 0.0, 1e308),  # at seed 0, a noise draw at width 4 is -inf
    ])
    def test_non_finite_power_rejected(self, model, base, sigma):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and no overflow warning on the way
            with pytest.raises(CswpError, match=r"^grid power -?inf at operands \(0x[0-9a-f]+, 0x[0-9a-f]+\) "
                                                r"is not finite"):
                gen_synthetic_grid(4, "add", model, base=base, noise_sigma=sigma, seed=0)

    def test_grid_mnemonics_are_the_two_input_ones(self):
        # the gen-grid --op choices, in this order
        assert GRID_MNEMONICS == ("add", "sub", "and", "or", "xor", "shl", "shr")

    def test_unary_mnemonics_rejected(self):
        with pytest.raises(CswpError):
            gen_synthetic_grid(4, "mov", PAPER_MODEL, base=0.0)


class TestFit:
    def test_noiseless_exact_recovery(self):
        grid = gen_synthetic_grid(8, "add", PAPER_MODEL, base=50.0)
        fit = fit_hamming_model(grid)
        assert fit.base == pytest.approx(50.0, abs=1e-9)
        assert fit.c_in == pytest.approx(1.3, abs=1e-9)
        assert fit.c_out == pytest.approx(4.4, abs=1e-9)
        assert fit.mean_abs_error < 1e-9

    def test_noisy_recovery_within_five_percent(self):
        grid = gen_synthetic_grid(8, "add", PAPER_MODEL, base=50.0, noise_sigma=1.5, seed=0)
        fit = fit_hamming_model(grid)
        assert abs(fit.c_in - 1.3) <= 0.065
        assert abs(fit.c_out - 4.4) <= 0.22
        # expected |N(0, sigma)| is sigma*sqrt(2/pi)
        assert fit.mean_abs_error == pytest.approx(1.5 * math.sqrt(2 / math.pi), rel=0.05)

    def test_random_coefficients_recovered(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            base, c_in, c_out = rng.uniform(0.1, 100.0, 3)
            model = EnergyModel(p_idle_single=base, c_in=c_in, c_out=c_out)
            grid = gen_synthetic_grid(5, "xor", model, base=base)
            fit = fit_hamming_model(grid)
            assert fit.base == pytest.approx(base, rel=1e-7)
            assert fit.c_in == pytest.approx(c_in, rel=1e-7)
            assert fit.c_out == pytest.approx(c_out, rel=1e-7)

    def test_residual_identity(self):
        grid = gen_synthetic_grid(4, "add", PAPER_MODEL, base=20.0, noise_sigma=1.0, seed=3)
        fit = fit_hamming_model(grid)
        reconstructed = (
            fit.residuals
            + fit.base
            + fit.c_in * grid.h_in
            + fit.c_out * grid.h_out
        )
        assert np.allclose(reconstructed, grid.power, atol=1e-9)

    def test_constant_h_in_names_column(self):
        points = make_grid([(0, 0, 2, o, 10.0 + o) for o in range(4)])
        with pytest.raises(FitRankError, match="h_in"):
            fit_hamming_model(points)

    def test_too_few_points(self):
        with pytest.raises(CswpError):
            fit_hamming_model(make_grid([(0, 0, 0, 0, 1.0)] * 2))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(3, 12).flatmap(lambda n: st.tuples(
        st.one_of(st.integers(0, 16).map(lambda c: [c] * n), st.lists(st.integers(0, 16), min_size=n, max_size=n)),
        st.one_of(st.just(None), st.tuples(st.integers(-3, 3), st.integers(0, 16)),
                  st.lists(st.integers(0, 16), min_size=n, max_size=n)),
        st.lists(st.floats(-100.0, 100.0), min_size=n, max_size=n))))
    @example(([2, 2, 2], None, [1.0, 2.0, 3.0]))
    @example(([0, 1, 2, 3], (0, 5), [1.0, 2.0, 3.0, 4.0]))
    @example(([0, 1, 2, 3], (2, 1), [1.0, 2.0, 3.0, 4.0]))
    @example(([0, 1, 0, 1], [0, 0, 1, 1], [1.0, 2.0, 3.0, 4.0]))
    def test_rank_error_where_matrix_rank_is_short(self, case):
        # h_in is constant or free; h_out is free, an affine image k*h_in + m
        # of h_in (constant for k = 0), or, for None, h_in itself
        h_in, h_out, power = case
        if h_out is None:
            h_out = h_in
        elif isinstance(h_out, tuple):
            h_out = [h_out[0] * h + h_out[1] for h in h_in]
        grid = make_grid(list(zip([0] * len(h_in), [0] * len(h_in), h_in, h_out, power)))
        design = np.column_stack([np.ones(len(h_in)), h_in, h_out])
        if np.linalg.matrix_rank(design) == 3:
            fit_hamming_model(grid)
            return
        if len(set(h_in)) == 1:
            message = "h_in is constant"
        elif len(set(h_out)) == 1:
            message = "h_out is constant"
        else:
            message = "h_in and h_out are collinear"
        with pytest.raises(FitRankError, match=f"^design matrix rank deficient: {message}$"):
            fit_hamming_model(grid)


class TestPredictAndEnergy:
    def test_per_bit_coefficients(self):
        # a noiseless grid point is the model's prediction for its Hamming units
        and_grid = gen_synthetic_grid(8, "and", PAPER_MODEL, base=0.0)
        or_grid = gen_synthetic_grid(8, "or", PAPER_MODEL, base=0.0)
        assert point(and_grid, 0, 1)[2:] == (1, 0, pytest.approx(1.3))
        assert point(or_grid, 0, 1)[4] - point(and_grid, 0, 1)[4] == pytest.approx(4.4)
        sub_grid = gen_synthetic_grid(8, "sub", PAPER_MODEL, base=164.0)
        assert point(sub_grid, 1, 2)[2:] == (2, 8, pytest.approx(201.8))

    def test_two_instruction_trace(self):
        p = Program(width=8, instructions=(
            Instruction("mov", (Const(0x00),)),
            Instruction("mov", (Const(0xFF),)),
        ))
        nj = trace_energy(execute(p, {}), PAPER_MODEL)
        assert nj == pytest.approx((164.0 + 4.4 * 8) * 2e-9 * 1e6)
        assert nj == pytest.approx(0.3984)

    def test_zero_switching_trace(self):
        n = 5
        p = Program(width=8, instructions=tuple(
            Instruction("mov", (Const(0x7),)) for _ in range(n)
        ))
        nj = trace_energy(execute(p, {}), PAPER_MODEL)
        assert nj == pytest.approx((n - 1) * 164.0 * 2e-9 * 1e6)

    def test_monotone_in_switching(self):
        def two_step(v):
            return Program(width=8, instructions=(
                Instruction("mov", (Const(0),)),
                Instruction("mov", (Const(v),)),
            ))
        energies = [trace_energy(execute(two_step(v), {}), PAPER_MODEL)
                    for v in (0x00, 0x01, 0x03, 0x07, 0xFF)]
        assert energies == sorted(energies)

    def test_input_term_adds_bus_switching(self):
        p = Program(width=8, instructions=(
            Instruction("mov", (Const(0x0F),)),
            Instruction("mov", (Const(0x0F),)),
        ))
        plain = trace_energy(execute(p, {}), PAPER_MODEL)
        with_inputs = trace_energy(execute(p, {}), PAPER_MODEL, include_input_term=True)
        # second mov drives the same bus value: no extra input switching
        assert with_inputs == pytest.approx(plain)
        p2 = Program(width=8, instructions=(
            Instruction("mov", (Const(0x0F),)),
            Instruction("mov", (Const(0xF0),)),
        ))
        trace = execute(p2, {})
        delta = trace_energy(trace, PAPER_MODEL, include_input_term=True) - trace_energy(trace, PAPER_MODEL)
        assert delta == pytest.approx(1.3 * 8 * 2e-9 * 1e6)


class TestCsvAndHeatmap:
    def test_measurement_csv_round_trip(self):
        grid = gen_synthetic_grid(4, "add", PAPER_MODEL, base=12.0, noise_sigma=0.5, seed=1)
        text = measurements_to_csv(grid, 4)
        back = measurements_from_csv(text.encode())
        for name in ("op_a", "op_b", "h_in", "h_out"):
            assert getattr(back, name).dtype == np.int64
            assert np.array_equal(getattr(back, name), getattr(grid, name))
        assert back.power.dtype == np.float64
        assert np.all(np.abs(back.power - grid.power) < 1e-6)
        assert measurements_to_csv(back, 4) == text

    def test_bad_header_rejected(self):
        with pytest.raises(CswpError):
            measurements_from_csv(b"a,b,c\n1,2,3\n")

    def test_residual_stage_recovers_base(self):
        grid = gen_synthetic_grid(4, "add", PAPER_MODEL, base=50.0)
        matrix = heatmap_matrix(grid, "residual", c_in=1.3, c_out=4.4)
        assert matrix.shape == (16, 16)
        assert np.allclose(matrix, 50.0)

    def test_minus_out_leaves_input_pattern(self):
        grid = gen_synthetic_grid(4, "add", PAPER_MODEL, base=0.0)
        matrix = heatmap_matrix(grid, "minus-out", c_in=1.3, c_out=4.4)
        h_in = np.array([[ (a.bit_count() + b.bit_count()) for b in range(16)] for a in range(16)])
        assert np.allclose(matrix, 1.3 * h_in)

    def test_stage_ranges_shrink_with_noise_below_signal(self):
        # subtracting the fitted output then input terms must tighten the range
        grid = gen_synthetic_grid(8, "add", PAPER_MODEL, base=50.0, noise_sigma=1.0, seed=2)
        fit = fit_hamming_model(grid)
        raw = heatmap_matrix(grid, "raw", c_in=fit.c_in, c_out=fit.c_out)
        minus_out = heatmap_matrix(grid, "minus-out", c_in=fit.c_in, c_out=fit.c_out)
        residual = heatmap_matrix(grid, "residual", c_in=fit.c_in, c_out=fit.c_out)
        assert np.ptp(residual) < np.ptp(minus_out) < np.ptp(raw)

    def test_unknown_stage_rejected(self):
        grid = gen_synthetic_grid(1, "add", PAPER_MODEL, base=0.0)
        with pytest.raises(CswpError, match="unknown heatmap stage 'cooked', want one of raw, minus-out, "
                                            "minus-in, residual"):
            heatmap_matrix(grid, "cooked", c_in=1.3, c_out=4.4)

    def test_partial_grid_rejected(self):
        grid = gen_synthetic_grid(4, "add", PAPER_MODEL, base=0.0)
        partial = Grid(*(column[:-1] for column in columns(grid)))
        with pytest.raises(CswpError, match="full 16x16"):
            heatmap_matrix(partial, "raw", c_in=1.3, c_out=4.4)

    @pytest.mark.parametrize("index, op_a, op_b, message", [
        (3, -1, 1, "operand -1 is negative"),
        (3, 1, 0, r"pair \(0x1, 0x0\) appears 2 times"),
        (0, 1, 1, r"pair \(0x1, 0x1\) appears 2 times"),
    ])
    def test_heatmap_needs_each_pair_once(self, index, op_a, op_b, message):
        grid = gen_synthetic_grid(1, "add", PAPER_MODEL, base=0.0)
        grid.op_a[index], grid.op_b[index] = op_a, op_b
        with pytest.raises(CswpError, match=message):
            heatmap_matrix(grid, "raw", c_in=1.3, c_out=4.4)

    @pytest.mark.parametrize("row, message", [
        ("0x0,0x0,1", "CSV line 3: 3 fields, want 5"),
        ("0x0,0x0,1,1,5.5,extra", "CSV line 3: 6 fields, want 5"),
        ("", "CSV line 3: 1 fields, want 5"),
        ("0x0,0x0,1,1,nan", r"CSV line 3: power_mw must be \[-\]<digits>.<digits>"),
        ("0x0,0x0,1,1,-Infinity", r"CSV line 3: power_mw must be \[-\]<digits>.<digits>"),
        ("0x0,0x0,1,1," + "9" * 309 + ".0", "CSV line 3: power_mw is outside the float64 range"),
        ("0x,0x0,1,1,1.0", "CSV line 3: op_a must be 0x<hex>"),
        ("0x0,0b1,1,1,1.0", "CSV line 3: op_b must be 0x<hex>"),
        ("0x0,0x0,1_0,1,1.0", "CSV line 3: h_in must be <digits>"),
        ("0x0,0x0,1,1,watts", r"CSV line 3: power_mw must be \[-\]<digits>.<digits>"),
        ("0x0,0x0,1,99999999999999999999,1.0", "CSV line 3: h_out is outside the int64 range"),
        ("0x0,0x0,1," + "1" * 5000 + ",1.0", "CSV line 3: h_out is outside the int64 range"),
        ("0x8000000000000000,0x0,1,1,1.0", "CSV line 3: op_a is outside the int64 range"),
        ("0,0,1,1\n0,0,1,1,2,3", "CSV line 3: 4 fields, want 5"),
        ("0x0,0x0\r,1,1,1.0", "CSV line 3: op_b must be 0x<hex>"),
        ("0x0,0x0,1,1," + " " * 140_000 + "1", r"CSV line 3: power_mw must be \[-\]<digits>.<digits>"),
    ])
    def test_csv_errors_name_line(self, row, message):
        with pytest.raises(CswpError, match=message):
            measurements_from_csv(f"{HEADER}0x1,0x1,2,1,3.0\n{row}\n".encode())

    def test_heatmap_csv_shape(self):
        grid = gen_synthetic_grid(3, "or", PAPER_MODEL, base=1.0)
        text = heatmap_to_csv(heatmap_matrix(grid, "raw", c_in=1.3, c_out=4.4))
        rows = [r for r in text.splitlines() if r]
        assert len(rows) == 8
        assert all(len(r.split(",")) == 8 for r in rows)


HEADER = ",".join(energy.CSV_HEADER) + "\n"


@st.composite
def mutated_grid_csv(draw, mutation=None):
    """(data, mutated): the bytes of a window of a generated grid's CSV, with
    LF or CRLF line ends, and whether its rows were then mutated. The rows
    take up to three drawn `CSV_MUTATIONS`, or `mutation` alone where one is
    given."""
    width = draw(st.integers(1, 8))
    grid = gen_synthetic_grid(
        width,
        draw(st.sampled_from(GRID_MNEMONICS)),
        PAPER_MODEL,
        base=draw(st.sampled_from([-200.0, -1.3, 0.0, 164.0])),
        noise_sigma=draw(st.sampled_from([0.0, 0.4, 3.0])),
        seed=draw(st.integers(0, 9)),
    )
    start = draw(st.integers(0, len(grid) - 1))
    window = slice(start, start + draw(st.integers(0, 400)))
    lines = measurements_to_csv(Grid(*[c[window] for c in columns(grid)]), width).split("\n")[:-1]
    mutations = [mutation] if mutation else draw(st.lists(st.sampled_from(CSV_MUTATIONS), max_size=3))
    for mutate in mutations:
        k = draw(st.integers(0, len(lines) - 1))
        lines[k] = mutate(draw, lines[k])
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join(lines) + draw(st.sampled_from([end, ""]))
    return text.encode(), bool(mutations)


def _in_field(mutate, fields=slice(None)):
    """A line mutation that rewrites one drawn field of the line, out of
    `fields` (all of them by default)."""
    def mutation(draw, line):
        row = line.split(",")
        k = draw(st.sampled_from(range(len(row))[fields]))
        row[k] = mutate(draw, row[k])
        return ",".join(row)
    return mutation


def _drop_field(draw, line):
    row = line.split(",")
    del row[draw(st.integers(0, len(row) - 1))]
    return ",".join(row)


def _insert_underscore(draw, literal):
    i = draw(st.integers(0, len(literal)))
    return literal[:i] + "_" + literal[i:]


def _split_unevenly(draw, line):
    # the ten fields of two good rows with the first line end after field
    # `short` instead of the fifth: one row short of five fields and one
    # over, so that only a per-row count tells them from two good rows
    short = draw(st.integers(1, 4))
    fields = ["0x1", "0x1", "1", "1", "1.0"] * 2
    return ",".join(fields[:short]) + "\n" + ",".join(fields[short:])


# runs of zeros: one short of, at and past the column reader's digit
# limits, and past int()'s 4,300-digit limit
ZERO_RUNS = st.sampled_from([1, 3, 14, 15, 16, 300, 5000]).map(lambda n: "0" * n)

CSV_MUTATIONS = [
    lambda draw, line: line + "\n",  # a blank line
    _in_field(lambda draw, f: f + "\r"),  # CRCRLF or CRLF after the last field, a lone CR elsewhere
    _in_field(lambda draw, f: draw(st.sampled_from(["\r", "\r\n"])) + f),
    lambda draw, line: line + "," + line.rsplit(",", 1)[-1],
    _drop_field,
    _in_field(lambda draw, f: f'"{f}"'),
    _in_field(_insert_underscore),
    _in_field(lambda draw, f: draw(st.sampled_from([bin, oct]))(draw(st.integers(0, 300)))),
    _in_field(lambda draw, f: draw(st.sampled_from([" ", "\t", "\x0c"])) + f + draw(st.sampled_from(["", " "]))),
    _in_field(lambda draw, f: draw(st.sampled_from(["nan", "inf", "-Infinity", "5.", ".5", "+1.0", "1e3"])),
              fields=slice(-1, None)),
    _in_field(lambda draw, f: draw(st.sampled_from(["-0.0", "-0.000000", "-0"])), fields=slice(-1, None)),
    _in_field(lambda draw, f: draw(st.sampled_from([str(2**63 - 1), str(2**63), str(-2**63), hex(2**63 - 1),
                                                     hex(2**63), hex(-2**63 - 1)])), fields=slice(0, 4)),
    _in_field(lambda draw, f: re.sub("[0-9]", "\u0663", f, count=1)),  # ARABIC-INDIC DIGIT THREE
    # a hex digit in a decimal field
    _in_field(lambda draw, f: f + draw(st.sampled_from(["a", "F", "e"])), fields=slice(2, None)),
    # zeros after a field's first two bytes: leading zeros of an operand,
    # or more digits of a count or a power, past the column limits
    _in_field(lambda draw, f: f[:2] + draw(ZERO_RUNS) + f[2:]),
    # leading zeros of a count
    _in_field(lambda draw, f: draw(ZERO_RUNS) + f, fields=slice(2, 4)),
    _split_unevenly,
]


def read_outcome(read, data):
    try:
        return read(data)
    except CswpError as e:
        return f"CswpError: {e}"


def assert_same_outcome(got, want):
    if isinstance(got, str) or isinstance(want, str):
        assert got == want
        return
    for a, b in zip(columns(got), columns(want), strict=True):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)
        assert np.array_equal(np.signbit(a), np.signbit(b))


def read_by_lines(data):
    """The reference reading of `data`: its header, then all its rows read
    by one `_read_lines` call."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(energy, "CSV_CHUNK_ROWS", len(data) + 1)
        mp.setattr(energy, "_read_chunk", lambda *args: None)
        return read_outcome(measurements_from_csv, data)


def read_counting_lines(data, rows=energy.CSV_CHUNK_ROWS):
    """(outcome, calls): `measurements_from_csv` at `rows` rows a chunk, and
    how many chunks went to `_read_lines`."""
    calls = []
    read_lines = energy._read_lines
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(energy, "CSV_CHUNK_ROWS", rows)
        mp.setattr(energy, "_read_lines", lambda seg, number: calls.append(number) or read_lines(seg, number))
        return read_outcome(measurements_from_csv, data), len(calls)


def assert_reads_like_lines(case, rows):
    """The reader at `rows` rows a chunk against `read_by_lines`, on a
    `mutated_grid_csv` case."""
    data, mutated = case
    got, calls = read_counting_lines(data, rows)
    if not mutated:  # a generated grid takes the column path, with or without a final line end
        assert calls == 0
    assert_same_outcome(got, read_by_lines(data))


class TestCsvReader:
    """The column reader against `_read_lines`, the one-line-at-a-time
    reading of the same grammar: equal columns, dtypes and signs, or the
    same error message."""

    @settings(max_examples=200, deadline=None)
    @given(mutated_grid_csv(), st.sampled_from([1, 3, 7, 8192]))
    # a hex digit in each decimal field, which a random draw reaches only now and then
    @example(((HEADER + "0x1,0x2,2a,1,3.5\n").encode(), True), 8192)
    @example(((HEADER + "0x1,0x2,2,1F,3.5\n").encode(), True), 8192)
    @example(((HEADER + "0x1,0x2,2,1,3.5e\n").encode(), True), 8192)
    @example(((HEADER + "0x1,0x2,2,1,3e.5\n").encode(), True), 8192)
    # ":" to "?" follow "9": a decimal digit less "0" is below 16 for them
    @example(((HEADER + "0x1,0x2,2:,1,3.5\n").encode(), True), 8192)
    @example(((HEADER + "0x1,0x2,2,1,3.?5\n").encode(), True), 8192)
    @example(((HEADER + "0x1,0x;,2,1,3.5\n").encode(), True), 8192)
    def test_matches_line_reader(self, case, rows):
        assert_reads_like_lines(case, rows)

    # every mutation on its own, which the drawn lists above reach only by chance
    @pytest.mark.parametrize("index", range(len(CSV_MUTATIONS)))
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_each_mutation_matches_line_reader(self, index, data):
        case = data.draw(mutated_grid_csv(CSV_MUTATIONS[index]))
        assert_reads_like_lines(case, data.draw(st.sampled_from([1, 3, 7, 8192])))

    # rows in the column form whose fields differ in length within one chunk:
    # 1 and 15 hex digits, counts of 1 and 18 digits, powers with 1 and 15
    # places and 1 and 14 digits before the point
    MIXED_ROWS = [
        "0x1,0x000000000000001,1,123456789012345678,0.5",
        "0x000000000000001,0XaBcDeF012345678,123456789012345678,1,-0.123456789012345",
        "0xf,0x0,0,0,12345678901234.5",
        "0x00,0x1,10,9,-7.0",
    ]

    @pytest.mark.parametrize("rows", [1, 3, 7, 8192])
    @pytest.mark.parametrize("end", ["\n", "\r\n"])
    @pytest.mark.parametrize("terminated", [True, False])
    def test_mixed_field_lengths_match_line_reader(self, rows, end, terminated):
        lines = [self.MIXED_ROWS[k % 4] for k in range(11)]
        assert_reads_like_lines(((HEADER + end.join(lines) + end * terminated).encode(), False), rows)

    # a row of five commas beside one of three: 4n commas in all, so only a
    # check within each row rejects them; at index 2 and 6 the pair straddles the
    # chunk boundaries of 3 and 7 rows
    @pytest.mark.parametrize("rows", [1, 3, 7, 8192])
    @pytest.mark.parametrize("at", [0, 2, 6])
    def test_five_commas_beside_three_match_line_reader(self, rows, at):
        lines = ["0x1,0x2,2,1,3.5"] * 9
        lines[at:at + 2] = ["0x1,0x2,2,1,1,3.5", "0x1,0x2,2,3.5"]
        data = (HEADER + "\n".join(lines) + "\n").encode()
        assert read_counting_lines(data, rows) == (f"CswpError: CSV line {at + 2}: 6 fields, want 5", 1)
        assert_reads_like_lines((data, True), rows)

    @pytest.mark.parametrize("width", [7, 8])
    def test_full_grid_matches_line_reader(self, width):
        grid = gen_synthetic_grid(width, "sub", PAPER_MODEL, base=-30.0, noise_sigma=2.0, seed=width)
        data = measurements_to_csv(grid, width).encode()
        got, calls = read_counting_lines(data)
        assert calls == 0 and len(got) > energy.CSV_CHUNK_ROWS
        assert np.signbit(got.power).any() and not np.signbit(got.power).all()
        assert_same_outcome(got, read_by_lines(data))

    # "column" where every chunk takes the column path, "lines" where one
    # goes to `_read_lines` and reads, or the error
    @pytest.mark.parametrize("text, route", [
        (HEADER + "0x1,0x2,2,1,123456789.123456\n", "column"),  # 15 significant digits
        (HEADER + "0x1,0x2,2,1,-0.000000000000001\n", "column"),  # 15 after the point
        (HEADER + "0x1,0x2,2,1,1234567890.123456\n", "lines"),  # 16 significant digits below 2**53
        (HEADER + "0x1,0x2,2,1,-9007199254.740991\n", "lines"),  # 2**53 - 1
        (HEADER + "0x1,0x2,2,1,9007199254.740992\n", "lines"),  # 2**53
        (HEADER + "0x1,0x2,2,1,9.999999999999999\n", "lines"),  # 16 digits past 2**53
        (HEADER + "0x1,0x2,2,1,1.5\n0x1,0x2,2,1,12345678901.123456\n", "lines"),  # 17 significant digits
        (HEADER + "0x1,0x2,2,1,0.0000000000000001\n", "lines"),  # 16 after the point
        (HEADER + "0x1,0x2,0000000000000000001,1,1.0\n", "lines"),  # 19 count digits
        (HEADER + "0x1,0x2," + "0" * 5000 + "2,1,1.0\n", "lines"),  # past int()'s digit limit, but 2
        (HEADER + "0x" + "0" * 30 + "1,0x2,2,1,1.0\n", "lines"),
        (HEADER + "0X1F,0x2,2,1,1.0\n", "column"),
        (HEADER, "column"),
        (HEADER.rstrip("\n"), "column"),
        (HEADER.replace("\n", "\r\n") + "0x1,0x2,2,1,1.5\r\n0x0,0xf,4,0,-2.25\r\n", "column"),
        (HEADER.replace("\n", "\r\n"), "column"),
        (HEADER + "0x1,0x2,2,1,1.5\n0x0,0xf,4,0,-2.25", "column"),  # no final line end
        (HEADER + "0x1,0x2,2,1,1.5\r\n0x0,0xf,4,0,-2.25", "column"),
        # a lone CR at the end of a last line with no line end is inside its field
        (HEADER + "0x1,0x2,2,1,1.5\n0x0,0xf,4,0,-2.25\r", "CSV line 3: power_mw must be [-]<digits>.<digits>"),
        (HEADER.replace("\n", "\r\n") + "0x1,0x2,2,1,1.5\r\n0x0,0xf,4,0,-2.25\r",
         "CSV line 3: power_mw must be [-]<digits>.<digits>"),
        # a last line with no line end whose last byte is a comma, or a "0" that 4n
        # commas in all would take as a row's start: nothing is read past the end
        (HEADER + "0x1,0x2,2,1,", "CSV line 2: power_mw must be [-]<digits>.<digits>"),
        (HEADER + "0x1,0x2,2,1,0x,0,,,\n0", "CSV line 2: 9 fields, want 5"),
        (HEADER + "0x1,0x2,2,1,5.\n", "CSV line 2: power_mw must be [-]<digits>.<digits>"),
        (HEADER + "0x1,0x2,2,1,.5\n", "CSV line 2: power_mw must be [-]<digits>.<digits>"),
        (HEADER + "0x1,0x2,2,1,+1.0\n", "CSV line 2: power_mw must be [-]<digits>.<digits>"),
        (HEADER + "0x1,0x2,2,1,1e3\n", "CSV line 2: power_mw must be [-]<digits>.<digits>"),
        (HEADER + "0x1,0x2,2,1,1.5\r", "CSV line 2: power_mw must be [-]<digits>.<digits>"),  # a lone CR
        (HEADER + "0x1,0x2,2,1,1.5\r\r\n", "CSV line 2: power_mw must be [-]<digits>.<digits>"),
        (HEADER + "0x1,0x2,2,1,1.5\r0x1,0x2,2,1,1.5\n", "CSV line 2: 9 fields, want 5"),
        (HEADER + "0b10,0o17,2,1,1.0\n", "CSV line 2: op_a must be 0x<hex>"),
        (HEADER + "0x1,0x2,+2,1,1.0\n", "CSV line 2: h_in must be <digits>"),
        (HEADER + "0x1,0x2,2,1,1.0\n\n", "CSV line 3: 1 fields, want 5"),
        (HEADER + "0x1,0x1,1\n1,1.0,0x1,0x1,1,1,1.0\n", "CSV line 2: 3 fields, want 5"),
        ('"op_a","op_b","h_in","h_out","power_mw"\n', "CSV line 1: want the header op_a,op_b,h_in,h_out,power_mw"),
        ("\ufeff" + HEADER, "CSV line 1: want the header op_a,op_b,h_in,h_out,power_mw"),
        (HEADER.rstrip("\n") + "\r", "CSV line 1: want the header op_a,op_b,h_in,h_out,power_mw"),
        # a first byte "\n" before a last byte "\r" takes the header line's field stop to -1
        ("\n" + HEADER + "0x1,0x2,2,1,1.5\r", "CSV line 1: want the header op_a,op_b,h_in,h_out,power_mw"),
        ("", "CSV line 1: want the header op_a,op_b,h_in,h_out,power_mw"),
    ])
    def test_form_boundary(self, text, route):
        data = text.encode()
        got, calls = read_counting_lines(data)
        assert_same_outcome(got, read_by_lines(data))
        if route in ("column", "lines"):
            assert not isinstance(got, str) and calls == (route == "lines")
        else:
            assert got == f"CswpError: {route}"

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.booleans(), st.integers(0, 10**15 - 1), st.integers(1, 15)),
                    min_size=1, max_size=30))
    def test_fifteen_digit_powers_read_as_float(self, draws):
        # N / 10**d is float(text) for every [-]digits.digits of at most 15
        # significant digits and 15 after the point
        powers = []
        for negative, n, places in draws:
            whole, frac = divmod(n, 10**places)
            powers.append(f"{'-' * negative}{whole}.{frac:0{places}d}")
        got, calls = read_counting_lines((HEADER + "".join(f"0x0,0x0,0,0,{p}\n" for p in powers)).encode())
        assert calls == 0
        assert got.power.tolist() == [float(p) for p in powers]
        assert np.signbit(got.power).tolist() == [p.startswith("-") for p in powers]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.booleans(), st.integers(10**15, 2**53 - 1), st.integers(1, 15)),
                    min_size=1, max_size=30))
    def test_sixteen_digit_powers_below_2_53_read_as_float(self, draws):
        # and for 16 significant digits, which `_read_lines` reads
        powers = []
        for negative, n, places in draws:
            whole, frac = divmod(n, 10**places)
            powers.append(f"{'-' * negative}{whole}.{frac:0{places}d}")
        got, calls = read_counting_lines((HEADER + "".join(f"0x0,0x0,0,0,{p}\n" for p in powers)).encode())
        assert calls == 1
        assert got.power.tolist() == [float(p) for p in powers]
        assert np.signbit(got.power).tolist() == [p.startswith("-") for p in powers]

    # gen-grid's powers have 16 significant digits from base 1e9 and 17 from
    # 1e10: from 1e9 every chunk goes to `_read_lines`
    @pytest.mark.parametrize("base, route", [(1e9, "lines"), (5e9, "lines"), (-9e9, "lines"),
                                             (9e9, "lines"), (1e10, "lines")])
    def test_wide_base_grid_route(self, base, route):
        grid = gen_synthetic_grid(8, "add", PAPER_MODEL, base=base, noise_sigma=1.5, seed=8)
        data = measurements_to_csv(grid, 8).encode()
        got, calls = read_counting_lines(data)
        assert calls == (0 if route == "column" else -(-len(grid) // energy.CSV_CHUNK_ROWS))
        assert_same_outcome(got, read_by_lines(data))

    # every grid gen-grid writes reads back to its written digits, on the
    # column path or, past its limits (bases of 1e9 and up), `_read_lines`;
    # widths 7 and 8 only as examples, as writing 1e300 at width 8 takes ~1.5 s
    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 6), st.sampled_from(GRID_MNEMONICS),
           st.sampled_from([-200.0, 0.0, 164.0, 1e9, 5e9, 1e300]), st.sampled_from([0.0, 1.5]),
           st.sampled_from(["\n", "\r\n"]))
    @example(8, "add", 1e300, 1.5, "\r\n")
    @example(8, "sub", 5e9, 0.0, "\n")
    @example(8, "xor", -200.0, 1.5, "\r\n")
    @example(7, "shl", 1e9, 1.5, "\n")
    @example(7, "and", 0.0, 0.0, "\r\n")
    def test_round_trip_gives_written_digits(self, width, mnemonic, base, sigma, end):
        grid = gen_synthetic_grid(width, mnemonic, PAPER_MODEL, base=base, noise_sigma=sigma, seed=width)
        text = measurements_to_csv(grid, width)
        back = measurements_from_csv(text.replace("\n", end).encode())
        written = list(zip(*(line.split(",") for line in text.splitlines()[1:])))
        assert back.op_a.tolist() == [int(f, 16) for f in written[0]]
        assert back.op_b.tolist() == [int(f, 16) for f in written[1]]
        assert back.h_in.tolist() == [int(f) for f in written[2]]
        assert back.h_out.tolist() == [int(f) for f in written[3]]
        assert back.power.tolist() == [float(f) for f in written[4]]
        assert np.signbit(back.power).tolist() == [f.startswith("-") for f in written[4]]


FIXED6_LIMIT = 2.0**52 / 1e6  # |x| from which the writers hand a call to %-formatting
FIXED6_VALUES = st.one_of(
    st.floats(-1e4, 1e4),
    st.floats(allow_nan=False),
    st.integers(-2**20 * 10**4, 2**20 * 10**4).map(lambda k: k / 2**20),  # exact binary ties
    st.integers(-128 * 10**4, 128 * 10**4).map(lambda k: k / 128),
    st.sampled_from([0.0, -0.0, FIXED6_LIMIT, math.nextafter(FIXED6_LIMIT, 0)]),
    st.floats(-5e-7, 0.0),  # print as -0.000000
    st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(FIXED6_LIMIT * (1 - 2**-30), FIXED6_LIMIT * (1 + 2**-30)))
    .map(lambda pair: pair[0] * pair[1]),  # both sides of the limit
)


# The writers' three routes through `_fixed6` and `_lines`: non-negative
# values whose whole parts all have one digit count (no sign row, and no NUL
# to strip), exactly one value with its sign bit set (a sign row), and -0.0
# alone (a sign row for a value that is not below zero).
SAME_DIGIT_COUNT = st.integers(1, 6).flatmap(lambda d: st.lists(
    st.integers(10 ** (d - 1) * 10**6 if d > 1 else 0, 10**d * 10**6 - 1).map(lambda units: units / 1e6),
    min_size=1, max_size=12))
ONE_NEGATIVE = st.tuples(st.lists(FIXED6_VALUES.map(abs), max_size=11), st.integers(0, 11),
                         FIXED6_VALUES.map(lambda v: -abs(v))).map(
    lambda case: case[0][:case[1]] + [case[2]] + case[0][case[1]:])
WRITER_ROUTES = st.one_of(SAME_DIGIT_COUNT, ONE_NEGATIVE, st.just([-0.0]))
ROUTE_EXAMPLES = ([1.5, 2.25, 9.999999], [12.5, 99.0, 10.000001], [123456.5, 999999.999999],
                  [1.5, -0.25, 12.0], [-7.5], [0.0, 5e-7, -4e-7], [-0.0])


def assert_heatmap_csv_matches_percent(values, n_cols, rows):
    """heatmap_to_csv at `rows` rows a chunk on `values` repeated in each of
    `n_cols` columns, against "%.6f"."""
    matrix = np.array(values * n_cols).reshape(-1, n_cols)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(energy, "CSV_CHUNK_ROWS", rows)
        got = heatmap_to_csv(matrix)
    assert got == "".join(",".join("%.6f" % v for v in row) + "\n" for row in matrix.tolist())


def assert_measurement_csv_matches_percent(rows, width, chunk):
    """measurements_to_csv at `chunk` rows a chunk on the grid of `rows`,
    against "%"."""
    grid = make_grid(rows)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(energy, "CSV_CHUNK_ROWS", chunk)
        got = measurements_to_csv(grid, width)
    digits = max(1, (width + 3) // 4)
    line = f"0x%0{digits}x,0x%0{digits}x,%d,%d,%.6f\n"
    assert got == HEADER + "".join(line % row for row in zip(*(c.tolist() for c in columns(grid))))


class TestCsvFormatter:
    """The byte "%.6f" formatter and both CSV writers against "%" itself."""

    # micro-units of up to seven digits; near-half rounding; and a value on
    # either side of the uint32 switch in `_digits`
    @settings(max_examples=300, deadline=None)
    @given(st.lists(FIXED6_VALUES, min_size=1, max_size=12))
    @example([0.0, 1e-6, 0.999999, 1.0])
    @example([9.9999995, -0.0000005])
    @example([4294.967295])
    @example([4294.967296])
    def test_fixed6_matches_percent(self, values):
        fixed = energy._fixed6(np.array(values))
        assert (fixed is not None) == all(abs(v) * 1e6 < 2**52 for v in values)
        if fixed is not None:
            assert energy._lines(fixed, b"\n").decode().split("\n")[:-1] == ["%.6f" % v for v in values]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(FIXED6_VALUES, min_size=1, max_size=12), st.integers(1, 4), st.sampled_from([1, 3, 8192]))
    def test_heatmap_csv_matches_percent(self, values, n_cols, rows):
        assert_heatmap_csv_matches_percent(values, n_cols, rows)

    @settings(max_examples=200, deadline=None)
    @given(WRITER_ROUTES)
    @example(ROUTE_EXAMPLES[0])
    @example(ROUTE_EXAMPLES[3])
    @example(ROUTE_EXAMPLES[6])
    def test_fixed6_sign_row_only_for_a_sign_bit(self, values):
        fixed = energy._fixed6(np.array(values))
        if fixed is None:
            return
        lengths = {len("%.6f" % abs(v)) for v in values}
        signs = {math.copysign(1.0, v) < 0 for v in values}
        assert len(fixed) == max(lengths) + (True in signs)
        assert (fixed != 0).all() == (len(lengths) == 1 and len(signs) == 1)

    @settings(max_examples=200, deadline=None)
    @given(WRITER_ROUTES, st.integers(1, 4), st.sampled_from([1, 3, 8192]))
    @example(ROUTE_EXAMPLES[0], 1, 1)
    @example(ROUTE_EXAMPLES[1], 2, 3)
    @example(ROUTE_EXAMPLES[2], 1, 8192)
    @example(ROUTE_EXAMPLES[3], 1, 1)
    @example(ROUTE_EXAMPLES[3], 3, 3)
    @example(ROUTE_EXAMPLES[4], 2, 8192)
    @example(ROUTE_EXAMPLES[5], 1, 3)
    @example(ROUTE_EXAMPLES[6], 1, 1)
    @example(ROUTE_EXAMPLES[6], 4, 8192)
    def test_heatmap_csv_routes_match_percent(self, values, n_cols, rows):
        assert_heatmap_csv_matches_percent(values, n_cols, rows)

    @settings(max_examples=200, deadline=None)
    @given(WRITER_ROUTES, st.integers(1, 64), st.sampled_from([1, 3, 8192]))
    @example(ROUTE_EXAMPLES[0], 8, 1)
    @example(ROUTE_EXAMPLES[1], 1, 3)
    @example(ROUTE_EXAMPLES[3], 4, 8192)
    @example(ROUTE_EXAMPLES[4], 64, 1)
    @example(ROUTE_EXAMPLES[6], 1, 3)
    @example(ROUTE_EXAMPLES[6], 16, 8192)
    def test_measurement_csv_routes_match_percent(self, powers, width, chunk):
        # operands of exactly the written digit count and one-digit Hamming
        # counts, so that only the power decides the sign row and the strip
        digits = max(1, (width + 3) // 4)
        low = 16 ** (digits - 1) if digits > 1 else 0
        rows = [(low + 7919 * k % (16**digits - low), low + 104729 * k % (16**digits - low), k % 10, 9 - k % 10, p)
                for k, p in enumerate(powers)]
        assert_measurement_csv_matches_percent(rows, width, chunk)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 2**62), st.integers(0, 2**62), st.integers(-1, 2**62),
                              st.integers(0, 99), FIXED6_VALUES), min_size=1, max_size=12),
           st.integers(1, 64), st.sampled_from([1, 3, 8192]))
    # each hex digit a to f in several places of an operand, which a decimal
    # digit's byte (remainder + "0") would write as ":" to "?"
    @example([(0x3fedcba987654321, 0xabcdef, 10, 99, 1.5), (0xabcdef, 0xfedcba9, 0, 0, -2.25)], 8, 8192)
    @example([(0x3fedcba987654321, 0xabcdef, 10, 99, 1.5), (0xabcdef, 0xfedcba9, 0, 0, -2.25)], 64, 1)
    @example([(0xabcdef, 0xfedcba, 1, 2, 0.5), (0xfacade, 0xc0ffee, 3, 4, 12.75)], 24, 3)
    def test_measurement_csv_matches_percent(self, rows, width, chunk):
        assert_measurement_csv_matches_percent(rows, width, chunk)


class TestModelLoading:
    def test_preset(self):
        model = load_model("xs1l-paper")
        assert (model.c_in, model.c_out, model.p_idle_single) == (1.3, 4.4, 164.0)
        assert model.f == 500e6

    # a preset is one shared object, so no job can change it for the next
    @pytest.mark.parametrize("name", ["p_idle_single", "c_in", "c_out", "f"])
    def test_preset_is_frozen(self, name):
        model = load_model("xs1l-paper")
        with pytest.raises(FrozenInstanceError):
            setattr(model, name, -1.0)
        assert load_model("xs1l-paper") is model
        assert (model.p_idle_single, model.c_in, model.c_out, model.f) == (164.0, 1.3, 4.4, 500e6)

    def test_json_file(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"p_idle_single_mw": 10, "c_in_mw": 0.5, "c_out_mw": 2.0, "f_hz": 1e8}')
        model = load_model(str(path))
        assert model.c_out == 2.0 and model.f == 1e8

    def test_unknown_preset(self):
        with pytest.raises(CswpError):
            load_model("no-such-model")

    def test_invalid_coefficients_rejected(self):
        with pytest.raises(CswpError):
            EnergyModel(p_idle_single=-1.0, c_in=1.0, c_out=1.0)
        with pytest.raises(CswpError):
            EnergyModel(p_idle_single=1.0, c_in=1.0, c_out=1.0, f=0.0)
