import csv
import math
import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
        back = measurements_from_csv(text)
        for name in ("op_a", "op_b", "h_in", "h_out"):
            assert getattr(back, name).dtype == np.int64
            assert np.array_equal(getattr(back, name), getattr(grid, name))
        assert back.power.dtype == np.float64
        assert np.all(np.abs(back.power - grid.power) < 1e-6)
        assert measurements_to_csv(back, 4) == text

    def test_bad_header_rejected(self):
        with pytest.raises(CswpError):
            measurements_from_csv("a,b,c\n1,2,3\n")

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

    def test_csv_field_syntax(self):
        # int() with base 0 for operands, underscores, blank lines
        text = ("op_a,op_b,h_in,h_out,power_mw\n"
                "0x0,0b1,1,0_1,5.5\n\n"
                "0o2,3,1_0,2,-1e3\n")
        grid = measurements_from_csv(text)
        assert [c.tolist() for c in columns(grid)] == [[0, 2], [1, 3], [1, 10], [1, 2], [5.5, -1000.0]]

    @pytest.mark.parametrize("row, message", [
        ("0x0,0x0,1", "CSV line 3: 3 fields, want 5"),
        ("0x0,0x0,1,1,5.5,extra", "CSV line 3: 6 fields, want 5"),
        ("0x0,0x0,1,1,nan", "data row 2 has a non-finite power nan"),
        ("0x0,0x0,1,1,inf", "data row 2 has a non-finite power inf"),
        ("0x0,0x0,1,1,-Infinity", "data row 2 has a non-finite power -inf"),
        ("0x,0x0,1,1,1.0", "CSV line 3: invalid literal for int"),
        ("0x0,0x0,1,1,watts", "CSV line 3: could not convert string to float"),
        ("0x0,0x0,1,99999999999999999999,1.0", "outside the int64 range"),
        ("0,0,1,1\n0,0,1,1,2,3", "CSV line 3: 4 fields, want 5"),
        ("0x0,0x0\r,1,1,1.0", "CSV line 3: new-line character seen in unquoted field"),
        ("0x0,0x0,1,1," + " " * 140_000 + "1", r"CSV line 3: field larger than field limit \(131072\)"),
    ])
    def test_csv_errors_name_line(self, row, message):
        with pytest.raises(CswpError, match=message):
            measurements_from_csv("op_a,op_b,h_in,h_out,power_mw\n0x1,0x1,2,1,3.0\n" + row + "\n")

    def test_heatmap_csv_shape(self):
        grid = gen_synthetic_grid(3, "or", PAPER_MODEL, base=1.0)
        text = heatmap_to_csv(heatmap_matrix(grid, "raw", c_in=1.3, c_out=4.4))
        rows = [r for r in text.splitlines() if r]
        assert len(rows) == 8
        assert all(len(r.split(",")) == 8 for r in rows)


CSV_FIELD_LIMIT = csv.field_size_limit()


@st.composite
def mutated_grid_csv(draw):
    """(text, mutated): a window of a generated grid's CSV, and whether the
    rows were then mutated into text the csv module reads differently from
    str.split, or into text with an error."""
    width = draw(st.integers(1, 8))
    grid = gen_synthetic_grid(
        width,
        draw(st.sampled_from(GRID_MNEMONICS)),
        PAPER_MODEL,
        base=draw(st.sampled_from([-200.0, -1.3, 0.0, 164.0])),
        noise_sigma=draw(st.sampled_from([0.0, 0.4, 3.0])),
        seed=draw(st.integers(0, 9)),
    )
    header, *body = measurements_to_csv(grid, width).split("\n")[:-1]
    start = draw(st.integers(0, len(body) - 1))
    lines = [header] + body[start:start + draw(st.integers(0, 400))]
    mutations = draw(st.lists(st.sampled_from(CSV_MUTATIONS), max_size=3))
    for mutate in mutations:
        k = draw(st.integers(0, len(lines) - 1))
        lines[k] = mutate(draw, lines[k])
    text = "\n".join(lines) + draw(st.sampled_from(["\n", ""]))
    return text, bool(mutations)


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
    # two rows of literals every column accepts, one short of five fields and
    # one over, so that only a per-row count tells them from two good rows
    short = draw(st.integers(1, 4))
    return ",".join(["1"] * short) + "\n" + ",".join(["1"] * (10 - short))


CSV_MUTATIONS = [
    lambda draw, line: line + "\n",  # a blank line
    _in_field(lambda draw, f: f + "\r"),  # CRLF after the last field, a lone CR elsewhere
    lambda draw, line: line + "," + line.rsplit(",", 1)[-1],
    _drop_field,
    _in_field(lambda draw, f: f'"{f}"'),
    _in_field(_insert_underscore),
    _in_field(lambda draw, f: draw(st.sampled_from([bin, oct]))(draw(st.integers(0, 300)))),
    _in_field(lambda draw, f: draw(st.sampled_from([" ", "\t", "\x0c"])) + f + draw(st.sampled_from(["", " "]))),
    _in_field(lambda draw, f: draw(st.sampled_from(["nan", "inf", "-Infinity"])), fields=slice(-1, None)),
    _in_field(lambda draw, f: draw(st.sampled_from(["-0.0", "-0.000000", "-0"])), fields=slice(-1, None)),
    _in_field(lambda draw, f: draw(st.sampled_from([str(2**63 - 1), str(2**63), str(-2**63), hex(-2**63 - 1)])),
              fields=slice(0, 4)),
    _in_field(lambda draw, f: re.sub("[0-9]", "\u0663", f, count=1)),  # ARABIC-INDIC DIGIT THREE
    # a literal every column accepts, at and just over the csv field limit
    _in_field(lambda draw, f: " " * (CSV_FIELD_LIMIT - 1 + draw(st.integers(0, 1))) + "1"),
    _split_unevenly,
]


def read_outcome(read, text):
    try:
        return read(text)
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


class TestCsvReader:
    """The chunked column reader against the csv module's row loop: equal
    columns, dtypes and signs, or the same error message."""

    @settings(max_examples=200, deadline=None)
    @given(mutated_grid_csv(), st.sampled_from([1, 3, 7, 4096]))
    def test_matches_row_loop(self, case, rows):
        text, mutated = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(energy, "CSV_CHUNK_ROWS", rows)
            got = read_outcome(measurements_from_csv, text)
            if not mutated:  # a generated grid always takes the column path
                assert energy._read_chunks(text) is not None
        assert_same_outcome(got, read_outcome(energy._read_rows, text))

    @pytest.mark.parametrize("width", [7, 8])
    def test_full_grid_matches_row_loop(self, width):
        grid = gen_synthetic_grid(width, "sub", PAPER_MODEL, base=-30.0, noise_sigma=2.0, seed=width)
        text = measurements_to_csv(grid, width)
        got = energy._read_chunks(text)
        assert got is not None and len(got) > energy.CSV_CHUNK_ROWS
        assert np.signbit(got.power).any() and not np.signbit(got.power).all()
        assert_same_outcome(got, energy._read_rows(text))


class TestModelLoading:
    def test_preset(self):
        model = load_model("xs1l-paper")
        assert (model.c_in, model.c_out, model.p_idle_single) == (1.3, 4.4, 164.0)
        assert model.f == 500e6

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
