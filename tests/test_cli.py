import argparse
import contextlib
import functools
import hashlib
import io
import os
import random
import re
import shlex
import stat
import threading

import pytest
from hypothesis import given, settings, strategies as st

from cswp import analysis, cli, core, energy, reductions, textfmt
from cswp.core import validate_program
from cswp.energy import HEATMAP_STAGES
from cswp.cli import main
from cswp.sat import MaxSat2Instance, SatInstance
from randprog import random_program


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


DOUBLING = "width 2\nfree 0 full\no1: mov free0\no2: add o1, o1\n"
# uint64 columns, and few enough assignments to enumerate
WIDE = ("width 64\nfree a 01\nfree b 01\nfree c 01\nfree d 01\n"
        "o1: ite freea, #0xf0f0f0f0f0f0f0f0, #0xffffffffffffffff\no2: shl o1, freeb\n"
        "o3: sub o2, freec\no4: xor o3, freed\n")


@pytest.fixture
def doubling_path(tmp_path):
    path = tmp_path / "prog.cswp"
    path.write_text(DOUBLING)
    return str(path)


class TestRunSolveBound:
    def test_run(self, capsys, doubling_path):
        code, out, _ = run_cli(capsys, "run", doubling_path, "--input", "free0=0x1")
        assert code == 0
        assert out == "o1=0x1\no2=0x2\ntransition.1=2\ntotal=2\n"

    def test_solve(self, capsys, doubling_path):
        code, out, _ = run_cli(capsys, "solve", doubling_path)
        assert code == 0
        assert out == "max=2\nwitness.free0=0x1\nexplored=4\n"

    def test_solve_csv_format(self, capsys, doubling_path):
        code, out, _ = run_cli(capsys, "solve", doubling_path, "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "key,value"
        assert "max,2" in out

    def test_bound_methods(self, capsys, doubling_path):
        code, out, _ = run_cli(capsys, "bound", doubling_path, "--method", "coarse")
        assert (code, out) == (0, "coarse=2\n")
        code, out, _ = run_cli(capsys, "bound", doubling_path, "--method", "knownbits")
        assert (code, out) == (0, "knownbits=2\n")

    def test_bound_looks_up_its_method_at_call_time(self, capsys, monkeypatch, doubling_path):
        # a wrapper put on the analysis module, such as a tracer's, sees every call
        monkeypatch.setattr(analysis, "coarse_upper_bound", lambda program: 99)
        assert run_cli(capsys, "bound", doubling_path, "--method", "coarse") == (0, "coarse=99\n", "")

    def test_missing_input_is_domain_error(self, capsys, doubling_path):
        code, _, err = run_cli(capsys, "run", doubling_path)
        assert code == 1
        assert "error:" in err

    def test_invalid_program_is_domain_error(self, capsys, tmp_path):
        path = tmp_path / "bad.cswp"
        path.write_text("width 4\no1: mov o5\n")
        code, _, err = run_cli(capsys, "solve", str(path))
        assert code == 1
        assert "o5" in err

    def test_usage_error_exits_two(self, doubling_path):
        with pytest.raises(SystemExit) as exc:
            main(["bound", doubling_path, "--method", "nonsense"])
        assert exc.value.code == 2

    def test_budget_exceeded(self, capsys, doubling_path):
        code, _, err = run_cli(capsys, "solve", doubling_path, "--budget", "2")
        assert code == 1
        assert "budget" in err

    def test_chunk_size_does_not_change_output(self, capsys, monkeypatch, tmp_path):
        # uint8 and uint64 columns: a two-bit field, and a step of four values
        for text in (DOUBLING, WIDE):
            path = tmp_path / "prog.cswp"
            path.write_text(text)
            _, one_chunk, _ = run_cli(capsys, "solve", str(path))
            for rows in (1, 3, 7):
                scanned = []
                monkeypatch.setattr(analysis, "_chunk_rows", lambda dtype: scanned.append(dtype) or rows)
                assert run_cli(capsys, "solve", str(path)) == (0, one_chunk, "")
                assert scanned
            monkeypatch.undo()

    def test_workers_flag_is_gone(self, doubling_path):
        with pytest.raises(SystemExit) as exc:
            main(["solve", doubling_path, "--workers", "2"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["gen-grid", "--op", "add"],
        ["heatmap", "grid.csv", "--stage", HEATMAP_STAGES[0]],
        ["reduce-maxsat", "--vars", "1"],
        ["reduce-sat-gap", "--vars", "1"],
    ])
    def test_format_only_on_reports(self, argv):
        # these write one file format each, so --format is a usage error
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--format", "csv"])
        assert exc.value.code == 2

    def test_repeat_invocation_is_byte_identical(self, capsys, doubling_path):
        _, first, _ = run_cli(capsys, "solve", doubling_path)
        _, second, _ = run_cli(capsys, "solve", doubling_path)
        assert first == second


# digests of reduction output computed before the reductions took every fact
# from the built program
REDUCTION_DIGESTS = {
    ("reduce-maxsat", "--vars", "0"): "f4e63f592cba4699",
    ("reduce-maxsat", "--vars", "2", "--clause", "x1 ~x2", "--clause", "x2"): "ee9f6764b2494772",
    ("reduce-maxsat", "--vars", "4", "--clause", "x1 ~x2", "--clause", "~x3", "--clause", "x4 x2",
     "--clause", "~x1 ~x4", "--width", "3"): "a4e8893e95cd9457",
    ("reduce-sat-gap", "--vars", "0"): "0ca80db0e87ffa45",
    ("reduce-sat-gap", "--vars", "1", "--clause", "x1", "--width", "4"): "769c314c744f3824",
    ("reduce-sat-gap", "--vars", "1", "--clause", "x1", "--width", "4",
     "--factor", "2.5"): "a75b47e6e3c609f8",
    ("reduce-sat-gap", "--vars", "3", "--clause", "x1 ~x2 x3", "--clause", "~x1",
     "--clause", "x2 ~x3"): "a8dc0f69b9b00e08",
    ("reduce-sat-gap", "--vars", "3", "--clause", "x1 ~x2 x3", "--clause", "~x1",
     "--clause", "x2 ~x3", "--factor", "2.5", "--width", "64"): "a22982fdb709a379",
}


class TestReductionCommands:
    @pytest.mark.parametrize("argv", list(REDUCTION_DIGESTS))
    def test_output_byte_identical(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == REDUCTION_DIGESTS[argv]

    @pytest.mark.parametrize("command", ["reduce-maxsat", "reduce-sat-gap"])
    @pytest.mark.parametrize("clause", ["-x3", "-3", "-x1 x2", "-x2,-x3"])
    def test_clause_may_start_with_a_minus(self, capsys, command, clause):
        # argparse's own test for a value would take a separate "-x3" for an
        # option; cli's value pattern reads it as the value of --clause
        argv = [command, "--vars", "3", "--clause", "x1"]
        joined = run_cli(capsys, *argv, f"--clause={clause}")
        assert joined[0] == 0 and joined[1]
        assert run_cli(capsys, *argv, "--clause", clause) == joined

    def test_option_after_clause_option_is_still_an_option(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["reduce-maxsat", "--vars", "3", "--clause", "-o", "x1"])
        assert e.value.code == 2
        assert "argument --clause: expected one argument" in capsys.readouterr().err

    def test_reduce_then_solve_matches_oracle_formula(self, capsys, tmp_path):
        out_path = tmp_path / "red.cswp"
        code, _, _ = run_cli(capsys, "reduce-maxsat", "--vars", "1",
                             "--clause", "x1", "-o", str(out_path))
        assert code == 0
        code, out, _ = run_cli(capsys, "solve", str(out_path))
        assert code == 0
        assert "max=10\n" in out  # k_var + k_clause + 2
        assert "witness.free0=0x1" in out

    def test_reduced_file_is_self_describing(self, capsys, tmp_path):
        out_path = tmp_path / "red.cswp"
        run_cli(capsys, "reduce-maxsat", "--vars", "2", "--clause", "x1 ~x2",
                "-o", str(out_path))
        text = out_path.read_text()
        assert "# meta kind=maxsat2 vars=2 clauses=1" in text
        assert "# lit x1 -> m[0]" in text

    def test_reduce_sat_gap_pipes_into_solve(self, capsys, tmp_path):
        out_path = tmp_path / "gap.cswp"
        code, _, _ = run_cli(capsys, "reduce-sat-gap", "--vars", "1",
                             "--clause", "x1", "--width", "4", "-o", str(out_path))
        assert code == 0
        code, out, _ = run_cli(capsys, "solve", str(out_path))
        assert code == 0
        assert out.startswith("max=23\n")  # 6w - 1 at w=4 with decision_len 4


def grid_outputs_digest(capsys, tmp_path, op, width):
    """sha256 prefix over the bytes of a noisy `gen-grid` file, `fit` stdout
    in both formats and `heatmap` stdout for every stage."""
    grid_path = tmp_path / f"{op}{width}.csv"
    run_cli(capsys, "gen-grid", "--op", op, "--width", str(width), "--sigma", "0.7",
            "--seed", "11", "--base", "47.25", "--c-in", "1.1", "--c-out", "3.7",
            "-o", str(grid_path))
    digest = hashlib.sha256(grid_path.read_bytes())
    for argv in (["fit"], ["fit", "--format", "csv"],
                 *(["heatmap", "--stage", stage, "--c-in", "1.1"] for stage in HEATMAP_STAGES)):
        code, out, err = run_cli(capsys, argv[0], str(grid_path), *argv[1:])
        assert (code, err) == (0, "")
        digest.update(out.encode())
    return digest.hexdigest()[:16]


# digests of the outputs of the row-by-row grid code that the columnar one replaced
GRID_DIGESTS = {
    ("add", 1): "e8b0cd2937cc8438",
    ("add", 3): "533b0b70d9add03f",
    ("sub", 1): "e8b0cd2937cc8438",
    ("sub", 3): "5a2c50a21118766b",
    ("and", 1): "a9c39cc07e4f8c18",
    ("and", 3): "e08f55e568392d33",
    ("or", 1): "835c226724a8521e",
    ("or", 3): "63fcb661a2ae37af",
    ("xor", 1): "e8b0cd2937cc8438",
    ("xor", 3): "86fc70d7735ed5ac",
    ("shl", 1): "2efd624b24800132",
    ("shl", 3): "bd5bbcc2b2075cfd",
    ("shr", 1): "2efd624b24800132",
    ("shr", 3): "e3ad29f2e8ac31e6",
    ("add", 8): "c97a34b1f846492d",
    ("shl", 8): "88b52fc87ee78ac0",
}


class TestEnergyCommands:
    @pytest.mark.parametrize("op, width", sorted(GRID_DIGESTS))
    def test_grid_outputs_byte_identical(self, capsys, tmp_path, op, width):
        assert grid_outputs_digest(capsys, tmp_path, op, width) == GRID_DIGESTS[op, width]

    def test_gen_grid_then_fit_recovers_preset(self, capsys, tmp_path):
        grid_path = tmp_path / "grid.csv"
        code, _, _ = run_cli(capsys, "gen-grid", "--op", "add", "--width", "6",
                             "--sigma", "0", "--seed", "0", "--base", "50",
                             "-o", str(grid_path))
        assert code == 0
        code, out, _ = run_cli(capsys, "fit", str(grid_path))
        assert code == 0
        assert "c_in_mw=1.300" in out
        assert "c_out_mw=4.400" in out
        assert "base_mw=50.000" in out

    def test_gen_grid_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            run_cli(capsys, "gen-grid", "--op", "sub", "--width", "4",
                    "--sigma", "1.5", "--seed", "9", "-o", str(path))
        assert a.read_bytes() == b.read_bytes()

    def test_heatmap_stages(self, capsys, tmp_path):
        grid_path = tmp_path / "grid.csv"
        run_cli(capsys, "gen-grid", "--op", "add", "--width", "3", "--base", "7",
                "-o", str(grid_path))
        code, out, _ = run_cli(capsys, "heatmap", str(grid_path), "--stage", "residual")
        assert code == 0
        rows = out.strip().splitlines()
        assert len(rows) == 8
        assert all(float(cell) == pytest.approx(7.0) for cell in rows[0].split(","))

    def test_energy_command(self, capsys, tmp_path):
        path = tmp_path / "p.cswp"
        path.write_text("width 8\no1: mov #0x0\no2: mov #0xff\n")
        code, out, _ = run_cli(capsys, "energy", str(path))
        assert code == 0
        assert "switching=8" in out
        assert "energy_nj=0.398400" in out

    def test_summarize_power(self, capsys):
        code, out, _ = run_cli(capsys, "summarize-power", "--tdual", "328",
                               "362", "424")
        assert code == 0
        assert "p_tsingle_mw=164.000" in out
        assert "pct_min=0.1717" in out
        assert "pct_max=0.3692" in out

    @pytest.mark.parametrize("fmt", ["text", "csv"])
    def test_summarize_power_full_report(self, capsys, fmt):
        pairs = [("p_tdual_mw", "328.000"), ("p_tsingle_mw", "164.000"), ("p_dmin_mw", "34.000"),
                 ("p_dmax_mw", "96.000"), ("p_drng_mw", "62.000"), ("pct_min", "0.1717"),
                 ("pct_max", "0.3692")]
        code, out, err = run_cli(capsys, "summarize-power", "--tdual", "328", "362", "424",
                                 "--format", fmt)
        sep, head = ("=", "") if fmt == "text" else (",", "key,value\n")
        assert (code, err) == (0, "")
        assert out == head + "".join(f"{key}{sep}{value}\n" for key, value in pairs)

    def test_rank_deficient_fit_is_domain_error(self, capsys, tmp_path):
        grid_path = tmp_path / "flat.csv"
        grid_path.write_text(
            "op_a,op_b,h_in,h_out,power_mw\n"
            "0x1,0x0,1,0,10.0\n0x1,0x1,1,1,14.4\n0x1,0x3,1,2,18.8\n"
        )
        code, _, err = run_cli(capsys, "fit", str(grid_path))
        assert code == 1
        assert "h_in" in err


GRID_HEADER = "op_a,op_b,h_in,h_out,power_mw\n"
# three rows of a 2x2 grid that a fourth row, (0x1, 0x1), completes
GRID_2X2_HEAD = "0x0,0x0,0,0,1.0\n0x0,0x1,1,1,2.0\n0x1,0x0,1,1,2.0\n"
GRID_2X2 = GRID_2X2_HEAD + "0x1,0x1,2,1,3.0\n"
NAN_MODEL = '{"p_idle_single_mw": 164, "c_in_mw": "nan", "c_out_mw": 4.4}'
LONG = "1" * 5000  # past Python's 4,300-digit int-string conversion limit


class TestMalformedInput:
    """Malformed input ends in one `error:` line and exit code 1."""

    @pytest.mark.parametrize("files, argv", [
        ({"g.csv": GRID_HEADER + "0x0,0x0,1.5,0,10.0\n"}, ["fit", "g.csv"]),
        ({"g.csv": GRID_HEADER + "0x0,0x0,1\n"}, ["fit", "g.csv"]),
        ({"g.csv": GRID_HEADER}, ["heatmap", "g.csv", "--stage", "raw"]),
        ({"p.cswp": DOUBLING, "bad.json": "{not json"},
         ["energy", "p.cswp", "--input", "free0=1", "--model", "bad.json"]),
        ({"p.cswp": DOUBLING, "list.json": "[1, 2]"},
         ["energy", "p.cswp", "--input", "free0=1", "--model", "list.json"]),
        ({}, ["summarize-power", "--tdual", "0", "0"]),
        ({}, ["summarize-power", "--tdual", "2", "1", "5"]),
        ({}, ["summarize-power", "--tdual", "2", "abc"]),
        ({"g.csv": GRID_HEADER + "0x0,0x0,0,0,1.0\n0x0,0x1,1,1,2.0\n0x1,0x0,1,1,2.0\n-0x1,0x1,1,0,3.0\n"},
         ["heatmap", "g.csv", "--stage", "raw"]),
        ({"g.csv": GRID_HEADER + "0x0,0x0,0,0,1.0\n0x0,0x1,1,1,2.0\n0x1,0x0,1,1,2.0\n0x1,0x0,1,1,2.0\n"},
         ["heatmap", "g.csv", "--stage", "residual"]),
        ({}, ["reduce-maxsat", "--vars", "-1"]),
        ({}, ["reduce-sat-gap", "--vars", "-1"]),
        ({"p.cswp": "width 2\nfree x-y full\no1: mov #0x0\n"}, ["solve", "p.cswp"]),
        ({"g.csv": GRID_HEADER + GRID_2X2_HEAD + "0x1,0x1,2,1,nan\n"}, ["fit", "g.csv"]),
        ({"g.csv": GRID_HEADER + GRID_2X2_HEAD + "0x1,0x1,2,1,inf\n"},
         ["heatmap", "g.csv", "--stage", "raw"]),
        ({"g.csv": GRID_HEADER + GRID_2X2_HEAD + "0x1,0x1,2,1,3.0,extra\n"}, ["fit", "g.csv"]),
        ({}, ["gen-grid", "--op", "add", "--width", "2", "--sigma", "-2"]),
        ({}, ["gen-grid", "--op", "add", "--width", "2", "--sigma", "nan"]),
        ({}, ["gen-grid", "--op", "add", "--width", "2", "--sigma", "inf"]),
        ({"g.csv": GRID_HEADER + "0x0,0x0,1,1," + "1" * 140_000 + "\n"}, ["fit", "g.csv"]),
        ({"p.cswp": DOUBLING, "nan.json": NAN_MODEL},
         ["energy", "p.cswp", "--input", "free0=1", "--model", "nan.json", "--input-term"]),
        ({"g.csv": GRID_HEADER + GRID_2X2}, ["heatmap", "g.csv", "--stage", "residual", "--c-in", "nan"]),
        ({"g.csv": GRID_HEADER + GRID_2X2}, ["heatmap", "g.csv", "--stage", "residual", "--c-out", "inf"]),
        ({}, ["gen-grid", "--op", "add", "--width", "2", "--c-in", "nan"]),
        ({}, ["gen-grid", "--op", "add", "--width", "2", "--base", "nan"]),
        ({}, ["gen-grid", "--op", "add", "--width", "2", "--base=-inf"]),
        ({}, ["summarize-power", "--tdual", "nan", "5"]),
        ({}, ["summarize-power", "--tdual", "2", "5", "inf"]),
        ({"powers.txt": "5 nan\n"}, ["summarize-power", "--tdual", "2", "--powers-file", "powers.txt"]),
        ({}, ["reduce-sat-gap", "--vars", "1", "--clause", "x1", "--factor", "nan"]),
        ({}, ["reduce-sat-gap", "--vars", "1", "--clause", "x1", "--factor", "inf"]),
        ({}, ["gen-grid", "--op", "add", "--width", "2", "--seed", "-1"]),
        ({}, ["reduce-maxsat", "--vars", "1", "--clause", "x1", "--width", "70"]),
        ({}, ["reduce-sat-gap", "--vars", "1", "--clause", "x1", "--width", "70"]),
        ({"p.cswp": f"width 4\no{LONG}: mov #0x0\n"}, ["solve", "p.cswp"]),
        ({"p.cswp": f"width 4\nmem 1\no1: mov m[{LONG}]\n"}, ["solve", "p.cswp"]),
        ({"p.cswp": f"width 4\no1: mov #0x0\no2: mov o{LONG}\n"}, ["solve", "p.cswp"]),
        ({"p.cswp": f"width 4\nmem 1\no1: store #0x0 -> m[{LONG}]\n"}, ["solve", "p.cswp"]),
        ({}, ["reduce-maxsat", "--vars", "1", "--clause", f"x{LONG}"]),
        ({}, ["reduce-sat-gap", "--vars", "1", "--clause", f"~x{LONG}"]),
        ({}, ["reduce-sat-gap", "--vars", "1", "--clause", f"x1 {LONG}"]),
        ({}, ["reduce-sat-gap", "--vars", "0", "--factor", "1e308"]),
        ({}, ["reduce-sat-gap", "--vars", "1", "--clause", "x1", "--factor", "262144"]),
        ({"p.cswp": DOUBLING}, ["run", "p.cswp", "--input", "free0=1", "--input", "free0=2"]),
        ({"p.cswp": DOUBLING}, ["energy", "p.cswp", "--input", "free0=1", "--input", "0=2"]),
        ({}, ["reduce-maxsat", "--vars", "10000000"]),
        ({}, ["reduce-sat-gap", "--vars", "10000000"]),
        ({}, ["reduce-sat-gap", "--vars", "1000000000000"]),
    ])
    def test_error_line_not_traceback(self, capsys, tmp_path, monkeypatch, files, argv):
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("files, argv, message", [
        ({"p.cswp": DOUBLING}, ["run", "p.cswp", "--input", "a"], "bad --input 'a', want name=value"),
        ({"p.cswp": "width 2\no1: mov #0x0\nfree 0 full\n"}, ["solve", "p.cswp"],
         "line 3: free declarations must precede instructions"),
        ({"p.cswp": "width 4\nmem 1\nfree a full\no1: mov freea\no2: mov #0x1 -> q[0]\n"}, ["solve", "p.cswp"],
         "line 5: bad memory destination 'q[0]'\n"),
        ({}, ["reduce-maxsat", "--vars", "1", "--clause", ""], "empty clause"),
        ({}, ["reduce-maxsat", "--vars", "3", "--clause", "x1 x2 x3"], "clause 0 has 3 literals, want 1 or 2"),
        ({}, ["reduce-maxsat", "--vars", "2", "--clause", "x5"], "clause 0: x5 exceeds 2 variables"),
        ({"p.cswp": DOUBLING, "m.json": '{"p_idle_single_mw": 164, "c_in_mw": 1.3}'},
         ["energy", "p.cswp", "--input", "free0=1", "--model", "m.json"],
         "model file 'm.json' missing key 'c_out_mw'"),
        ({"p.cswp": DOUBLING, "m.json": '{"p_idle_single_mw": 164, "c_in_mw": [1.3], "c_out_mw": 4.4}'},
         ["energy", "p.cswp", "--input", "free0=1", "--model", "m.json"],
         "model file 'm.json' has a non-numeric value: c_in_mw is [1.3]\n"),
        ({"p.cswp": DOUBLING, "m.json": '{"p_idle_single_mw": 164, "c_in_mw": 1.3, "c_out_mw": false}'},
         ["energy", "p.cswp", "--input", "free0=1", "--model", "m.json"],
         "model file 'm.json' has a non-numeric value: c_out_mw is false\n"),
        ({"p.cswp": DOUBLING, "m.json": '{"p_idle_single_mw": 164, "c_in_mw": "1.3", "c_out_mw": 4.4}'},
         ["energy", "p.cswp", "--input", "free0=1", "--model", "m.json"],
         "model file 'm.json' has a non-numeric value: c_in_mw is \"1.3\"\n"),
        ({"p.cswp": DOUBLING, "m.json": '{"p_idle_single_mw": 1%s, "c_in_mw": 1.3, "c_out_mw": 4.4}' % ("0" * 400)},
         ["energy", "p.cswp", "--input", "free0=1", "--model", "m.json"],
         "model file 'm.json' has a value outside the float range: p_idle_single_mw\n"),
        ({"p.cswp": DOUBLING, "m.json": '{"p_idle_single_mw": 164, "c_in_mw": 1.3, "c_out_mw": 4.4, "f_hz": true}'},
         ["energy", "p.cswp", "--input", "free0=1", "--model", "m.json"],
         "model file 'm.json' has a non-numeric value: f_hz is true\n"),
        ({"p.cswp": DOUBLING, "m.json": '{"p_idle_single_mw": 164, "c_in_mw": NaN, "c_out_mw": 4.4}'},
         ["energy", "p.cswp", "--input", "free0=1", "--model", "m.json"],
         "model c_in nan must be finite\n"),
        ({"g.csv": GRID_HEADER + GRID_2X2_HEAD + "0x1,0x1,2,1,3.0,extra\n"}, ["fit", "g.csv"],
         "CSV line 5: 6 fields, want 5\n"),
        ({"g.csv": GRID_HEADER + GRID_2X2_HEAD + "0x1,0x1,2,1," + "1" * 400 + ".0\n"},
         ["heatmap", "g.csv", "--stage", "raw"], "CSV line 5: power_mw is outside the float64 range\n"),
        ({}, ["summarize-power", "--tdual=-5", "3"], "dual-core idle and test powers must be non-negative"),
        ({}, ["summarize-power", "--tdual", "5", "3", "-1"], "dual-core idle and test powers must be non-negative"),
    ])
    def test_error_names_the_input(self, capsys, tmp_path, monkeypatch, files, argv, message):
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {message}") and err.count("\n") == 1

    @pytest.mark.parametrize("argv, err", [
        (["reduce-sat-gap", "--vars", "1", "--clause", "x1", "--factor", "0.5"],
         "error: gap factor 0.5 must be >= 1\n"),
        (["reduce-sat-gap", "--vars", "1", "--clause", "x1", "--factor", "1e-300"],
         "error: gap factor 1e-300 must be >= 1\n"),
        (["reduce-sat-gap", "--vars", "1", "--clause", "x1", "--factor=-inf"],
         "error: gap factor -inf must be finite\n"),
    ])
    def test_factor_named_as_given(self, capsys, argv, err):
        assert run_cli(capsys, *argv) == (1, "", err)

    @pytest.mark.filterwarnings("error")  # no overflow warning either
    @pytest.mark.parametrize("options", [
        ["--width", "1", "--base", "1e308", "--c-out", "1e308"],
        ["--width", "4", "--sigma", "1e308"],  # at seed 0, a noise draw is -inf
    ])
    def test_gen_grid_non_finite_power(self, capsys, tmp_path, options):
        code, out, err = run_cli(capsys, "gen-grid", "--op", "add", *options, "-o", str(tmp_path / "g.csv"))
        assert (code, out) == (1, "")
        assert re.fullmatch(r"error: grid power -?inf at operands \(0x[0-9a-f]+, 0x[0-9a-f]+\) is not finite: "
                            r"the base, coefficients or noise sigma are too large\n", err)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.filterwarnings("error")  # no overflow warning either
    @pytest.mark.parametrize("files, argv, err", [
        ({"p.cswp": DOUBLING, "m.json": '{"p_idle_single_mw": 1, "c_in_mw": 1, "c_out_mw": 1, "f_hz": 1e-320}'},
         ["energy", "p.cswp", "--input", "free0=1", "--model", "m.json"],
         "error: clock period inf s of f 1e-320 Hz is not finite\n"),
        ({"p.cswp": DOUBLING, "m.json": '{"p_idle_single_mw": 1e308, "c_in_mw": 1e308, "c_out_mw": 1e308}'},
         ["energy", "p.cswp", "--input", "free0=1", "--model", "m.json", "--input-term"],
         "error: trace energy inf nJ is not finite: the model's coefficients are too large\n"),
        # a --tdual of 3 * 2**970 rounds 1.7976931348623157e308 - tdual up
        # by half an ulp, so the range, tdual added back, rounds to inf
        ({}, ["summarize-power", "--tdual", "2.9937604643020797e+292", "0", "1.7976931348623157e308"],
         "error: power summary p_drng inf is not finite: the powers are too large\n"),
        ({"g.csv": GRID_HEADER + f"0x0,0x0,0,0,{1e308:.1f}\n0x0,0x1,1,1,{1.7e308:.1f}\n"
                                 f"0x1,0x0,1,1,{-1.7e308:.1f}\n0x1,0x1,2,1,1.0\n"},
         ["fit", "g.csv"],
         "error: fit mean_abs_error inf is not finite: the grid's powers are too large\n"),
        ({"g.csv": GRID_HEADER + GRID_2X2}, ["heatmap", "g.csv", "--stage", "residual", "--c-in", "1e308",
                                             "--c-out", "1e308"],
         "error: heatmap residual value -inf at operands (0x0, 0x1) is not finite: "
         "the coefficients are too large\n"),
        ({"g.csv": GRID_HEADER + GRID_2X2}, ["heatmap", "g.csv", "--stage", "minus-in", "--c-in", "1e308"],
         "error: heatmap minus-in value -inf at operands (0x1, 0x1) is not finite: "
         "the coefficients are too large\n"),
    ])
    def test_non_finite_result(self, capsys, tmp_path, monkeypatch, files, argv, err):
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        monkeypatch.chdir(tmp_path)
        assert run_cli(capsys, *argv) == (1, "", err)
        assert run_cli(capsys, *argv, "-o", "out.txt") == (1, "", err)
        assert not (tmp_path / "out.txt").exists()

    # a grid is read as bytes, never decoded: what is wrong with it is its header
    @pytest.mark.parametrize("argv, err", [
        *([argv, "cannot read x: 'utf-8' codec can't decode byte 0xff in position 8: invalid start byte"]
          for argv in (["solve", "x"], ["run", "x"], ["energy", "x"], ["bound", "x", "--method", "knownbits"],
                       ["summarize-power", "--tdual", "2", "--powers-file", "x"])),
        (["fit", "x"], "CSV line 1: want the header op_a,op_b,h_in,h_out,power_mw"),
        (["heatmap", "x", "--stage", "raw"], "CSV line 1: want the header op_a,op_b,h_in,h_out,power_mw"),
    ])
    def test_undecodable_file(self, capsys, tmp_path, monkeypatch, argv, err):
        (tmp_path / "x").write_bytes(b"width 4\n\xff\n")
        monkeypatch.chdir(tmp_path)
        assert run_cli(capsys, *argv) == (1, "", f"error: {err}\n")

    @pytest.mark.parametrize("output, reason", [
        ("missing/out.txt", "No such file or directory"),
        ("adir", "Is a directory"),
    ])
    def test_unwritable_output(self, capsys, tmp_path, monkeypatch, output, reason):
        (tmp_path / "p.cswp").write_text(DOUBLING)
        (tmp_path / "adir").mkdir()
        monkeypatch.chdir(tmp_path)
        assert run_cli(capsys, "solve", "p.cswp", "-o", output) == (
            1, "", f"error: cannot write {output}: {reason}\n")
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["adir", "p.cswp"]


class TestValidation:
    INVALID = "width 4\no1: mov o5\n"

    @pytest.mark.parametrize("argv", [
        ["run", "p.cswp", "--input", "free0=1"],
        ["energy", "p.cswp", "--input", "free0=1"],
        ["solve", "p.cswp"],
        ["bound", "p.cswp", "--method", "coarse"],
        ["bound", "p.cswp", "--method", "knownbits"],
        ["reduce-maxsat", "--vars", "2", "--clause", "x1 ~x2"],
        ["reduce-sat-gap", "--vars", "2", "--clause", "x1 ~x2"],
    ])
    def test_each_command_validates_once(self, capsys, tmp_path, monkeypatch, argv):
        (tmp_path / "p.cswp").write_text(DOUBLING)
        monkeypatch.chdir(tmp_path)
        calls = []

        def counted(program):
            calls.append(program)
            return validate_program(program)

        for module in (core, cli, analysis):  # every binding of the name
            monkeypatch.setattr(module, "validate_program", counted, raising=False)
        assert run_cli(capsys, *argv)[0] == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("argv", [
        ["run", "p.cswp", "--input", "nonsense"],
        ["energy", "p.cswp", "--input", "free0=zz", "--model", "missing.json"],
        ["solve", "p.cswp", "--budget", "0"],
        ["bound", "p.cswp", "--method", "coarse"],
        ["bound", "p.cswp", "--method", "knownbits"],
    ])
    def test_invalid_program_reported_first(self, capsys, tmp_path, monkeypatch, argv):
        (tmp_path / "p.cswp").write_text(self.INVALID)
        monkeypatch.chdir(tmp_path)
        assert run_cli(capsys, *argv) == (
            1, "", "error: invalid program: instruction 0: forward or self reference to o5\n")


class TestInputNames:
    """An --input key names the declared free input of that name, else the
    one named by the key less a leading "free"; a key that names inputs
    both ways is an error."""

    # operands always carry the "free" prefix: freefreeze is the input "freeze"
    PROGRAM = ("width 4\nfree free full\nfree freeze full\nfree full full\n"
               "o1: add freefree, freefreeze\no2: xor o1, freefull\n")

    def run(self, capsys, tmp_path, command, program, pairs):
        path = tmp_path / "p.cswp"
        path.write_text(program)
        return run_cli(capsys, command, str(path), *(arg for pair in pairs for arg in ("--input", pair)))

    @pytest.mark.parametrize("command", ["run", "energy"])
    @pytest.mark.parametrize("pairs", [
        ["freeze=3", "free=1", "full=2"],
        ["freefreeze=3", "freefree=1", "freefull=2"],
        ["full=2", "freefree=0x1", "freeze=3"],
    ])
    def test_declared_names_resolve(self, capsys, tmp_path, command, pairs):
        want = self.run(capsys, tmp_path, command, self.PROGRAM, ["freefreeze=3", "freefree=1", "freefull=2"])
        assert self.run(capsys, tmp_path, command, self.PROGRAM, pairs) == want
        if command == "run":
            assert want == (0, "o1=0x4\no2=0x6\ntransition.1=1\ntotal=1\n", "")

    @pytest.mark.parametrize("command", ["run", "energy"])
    @pytest.mark.parametrize("program, pairs, err", [
        (PROGRAM.replace("o1:", "free ze full\no1:"), ["freeze=3", "free=1", "full=2", "ze=4"],
         "--input 'freeze' names both free input 'freeze' and free input 'ze'"),
        (PROGRAM, ["freeze=1", "freefreeze=2", "free=1", "full=2"], "--input names 'freeze' twice"),
        (PROGRAM, ["freefree=1", "free=2", "freeze=3", "full=2"], "--input names 'free' twice"),
        (PROGRAM, ["freeze=x", "free=1", "full=2"], "bad input value 'x' for 'freeze'"),
        (PROGRAM, ["freeze=3", "free=1", "full=2", "freebogus=1"], "assignment names undeclared free input 'bogus'"),
    ], ids=["both-readings", "freeze-twice", "free-twice", "bad-value", "undeclared"])
    def test_error_names_the_inputs(self, capsys, tmp_path, command, program, pairs, err):
        assert self.run(capsys, tmp_path, command, program, pairs) == (1, "", f"error: {err}\n")

    @pytest.mark.parametrize("command", ["run", "energy"])
    def test_name_with_or_without_prefix(self, capsys, tmp_path, command):
        code, out, _ = self.run(capsys, tmp_path, command, DOUBLING, ["free0=1"])
        assert code == 0
        assert self.run(capsys, tmp_path, command, DOUBLING, ["0=1"]) == (0, out, "")


class TestParserReuse:
    def test_no_values_leak_between_calls(self, capsys, doubling_path):
        # argparse's append actions copy their default list, so the parser
        # built once per process carries nothing from one call to the next
        first = ["run", doubling_path, "--input", "free0=0x1"]
        second = ["run", doubling_path]
        clauses = ["reduce-maxsat", "--vars", "2", "--clause", "x1 ~x2", "--clause", "x2"]
        bare = ["reduce-maxsat", "--vars", "2"]
        fresh = {}
        for argv in (first, second, clauses, bare):
            cli._build_parser.cache_clear()
            fresh[tuple(argv)] = run_cli(capsys, *argv)
        for a, b in ((first, second), (clauses, bare)):
            assert run_cli(capsys, *a) == fresh[tuple(a)]
            assert run_cli(capsys, *b) == fresh[tuple(b)]
        assert fresh[tuple(second)][0] == 1
        assert "vars=2 clauses=0 " in fresh[tuple(bare)][1]
        assert cli._build_parser() is cli._build_parser()

    def test_budget_default_read_at_call_time(self, capsys, monkeypatch, doubling_path):
        main(["solve", doubling_path])  # the cached parser exists before the patch
        capsys.readouterr()
        monkeypatch.setattr(analysis, "DEFAULT_BUDGET", 3)
        code, _, err = run_cli(capsys, "solve", doubling_path)
        assert (code, err) == (1, "error: exhaustive search needs 4 assignments, budget is 3\n")


class TestOutputHandling:
    def test_atomic_write_leaves_no_temp_files(self, capsys, tmp_path):
        out_path = tmp_path / "x.cswp"
        run_cli(capsys, "reduce-maxsat", "--vars", "1", "-o", str(out_path))
        assert out_path.exists()
        assert [p for p in os.listdir(tmp_path) if p.startswith(".cswp-tmp-")] == []

    @pytest.mark.parametrize("umask", [0o022, 0o002, 0o077], ids=oct)
    def test_new_file_mode_follows_umask(self, capsys, tmp_path, umask):
        previous = os.umask(umask)
        try:
            run_cli(capsys, "reduce-maxsat", "--vars", "1", "-o", str(tmp_path / "x.cswp"))
        finally:
            os.umask(previous)
        assert stat.S_IMODE(os.stat(tmp_path / "x.cswp").st_mode) == 0o666 & ~umask

    # the replacement is a new file of whoever runs cswp, so it takes only
    # the old file's permission bits, never its setuid, setgid or sticky bit
    @pytest.mark.parametrize("old_mode, new_mode", [
        (0o640, 0o640), (0o4755, 0o755), (0o2750, 0o750), (0o1644, 0o644), (0o7777, 0o777),
    ])
    def test_replaced_file_keeps_its_mode(self, capsys, tmp_path, old_mode, new_mode):
        out_path = tmp_path / "x.cswp"
        out_path.write_text("old\n")
        out_path.chmod(old_mode)
        run_cli(capsys, "reduce-maxsat", "--vars", "1", "-o", str(out_path))
        assert out_path.read_text().startswith("# meta kind=maxsat2")
        assert stat.S_IMODE(os.stat(out_path).st_mode) == new_mode

    def test_writes_through_symlink(self, capsys, tmp_path):
        target = tmp_path / "sub" / "target.cswp"
        target.parent.mkdir()
        target.write_text("old\n")
        link = tmp_path / "link.cswp"
        link.symlink_to(target)
        _, expected, _ = run_cli(capsys, "reduce-maxsat", "--vars", "1")
        assert run_cli(capsys, "reduce-maxsat", "--vars", "1", "-o", str(link)) == (0, "", "")
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_text() == expected
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["link.cswp", "sub", "target.cswp"]

    def test_writes_pipe_in_place(self, capsys, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        # a reader opened first lets the writer open the pipe without blocking
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            _, expected, _ = run_cli(capsys, "reduce-maxsat", "--vars", "1")
            assert run_cli(capsys, "reduce-maxsat", "--vars", "1", "-o", str(fifo)) == (0, "", "")
            assert stat.S_ISFIFO(os.stat(fifo).st_mode)
            assert os.read(reader, 1 << 16).decode() == expected
        finally:
            os.close(reader)

    def test_failed_command_writes_nothing(self, capsys, tmp_path):
        out_path = tmp_path / "never.txt"
        code, _, _ = run_cli(capsys, "fit", str(tmp_path / "missing.csv"),
                             "-o", str(out_path))
        assert code == 1
        assert not out_path.exists()

    @pytest.mark.parametrize("error, printed", [(OSError(28, "No space left on device"), True),
                                                (RuntimeError("interrupted"), False)])
    @pytest.mark.parametrize("old", [None, "old\n"], ids=["new", "existing"])
    def test_failed_replace_removes_temp_file(self, capsys, tmp_path, monkeypatch, error, printed, old):
        out_path = tmp_path / "x.cswp"
        if old is not None:
            out_path.write_text(old)

        def replace(src, dst):
            raise error

        monkeypatch.setattr(cli.os, "replace", replace)
        argv = ["reduce-maxsat", "--vars", "1", "-o", str(out_path)]
        if printed:
            assert run_cli(capsys, *argv) == (1, "", f"error: cannot write {out_path}: No space left on device\n")
        else:
            with pytest.raises(RuntimeError, match="interrupted"):
                main(argv)
        assert [p.name for p in tmp_path.iterdir()] == ([] if old is None else ["x.cswp"])
        assert old is None or out_path.read_text() == old

    def test_reduction_output_reparses(self, capsys, tmp_path):
        out_path = tmp_path / "r.cswp"
        run_cli(capsys, "reduce-maxsat", "--vars", "3", "--clause", "x1 x2",
                "--clause", "~x3", "-o", str(out_path))
        from cswp.textfmt import parse_program, serialize_program
        program = parse_program(out_path.read_text())
        assert parse_program(serialize_program(program)) == program


def subparsers():
    """Subcommand name -> its parser, from the parser `main` uses."""
    parser = cli._build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def option_surface(parser):
    """dest -> (option strings, default, type, required, choices, action
    class, nargs, metavar) for every option of one subcommand's parser."""
    return {
        a.dest: (tuple(a.option_strings), a.default, getattr(a.type, "__name__", a.type),
                 a.required, None if a.choices is None else tuple(a.choices),
                 type(a).__name__, a.nargs, a.metavar)
        for a in parser._actions
    }


# each subcommand's options as declared one by one, before any declaration
# was shared between subcommands
_HELP = (("-h", "--help"), "==SUPPRESS==", None, False, None, "_HelpAction", 0, None)
_OUTPUT = (("-o", "--output"), None, None, False, None, "_StoreAction", None, None)
_FORMAT = (("--format",), "text", None, False, ("text", "csv"), "_StoreAction", None, None)
_PROGRAM = ((), None, None, True, None, "_StoreAction", None, None)
_GRID = ((), None, None, True, None, "_StoreAction", None, None)
_INPUT = (("--input",), [], None, False, None, "_AppendAction", None, "NAME=VALUE")
_VARS = (("--vars",), None, "int", True, None, "_StoreAction", None, None)
_CLAUSE = (("--clause",), [], None, False, None, "_AppendAction", None, "LITS")
_WIDTH = (("--width",), 8, "int", False, None, "_StoreAction", None, None)
_MODEL = (("--model",), "xs1l-paper", None, False, None, "_StoreAction", None, None)
_C_IN = (("--c-in",), None, "float", False, None, "_StoreAction", None, None)
_C_OUT = (("--c-out",), None, "float", False, None, "_StoreAction", None, None)
OPTION_SURFACE = {
    "run": {"help": _HELP, "output": _OUTPUT, "format": _FORMAT, "program": _PROGRAM,
            "input": _INPUT},
    "solve": {"help": _HELP, "output": _OUTPUT, "format": _FORMAT, "program": _PROGRAM,
              "budget": (("--budget",), None, "int", False, None, "_StoreAction", None, None)},
    "bound": {"help": _HELP, "output": _OUTPUT, "format": _FORMAT, "program": _PROGRAM,
              "method": (("--method",), None, None, True, ("coarse", "knownbits"),
                         "_StoreAction", None, None)},
    "reduce-maxsat": {"help": _HELP, "output": _OUTPUT, "vars": _VARS, "clause": _CLAUSE,
                      "width": _WIDTH},
    "reduce-sat-gap": {"help": _HELP, "output": _OUTPUT, "vars": _VARS, "clause": _CLAUSE,
                       "width": _WIDTH,
                       "factor": (("--factor",), 1.0, "float", False, None, "_StoreAction", None, None)},
    "fit": {"help": _HELP, "output": _OUTPUT, "format": _FORMAT, "grid": _GRID},
    "gen-grid": {"help": _HELP, "output": _OUTPUT,
                 "op": (("--op",), None, None, True, ("add", "sub", "and", "or", "xor", "shl", "shr"),
                        "_StoreAction", None, None),
                 "width": _WIDTH,
                 "sigma": (("--sigma",), 0.0, "float", False, None, "_StoreAction", None, None),
                 "seed": (("--seed",), 0, "int", False, None, "_StoreAction", None, None),
                 "model": _MODEL,
                 "base": (("--base",), None, "float", False, None, "_StoreAction", None, None),
                 "c_in": _C_IN, "c_out": _C_OUT},
    "heatmap": {"help": _HELP, "output": _OUTPUT, "grid": _GRID,
                "stage": (("--stage",), None, None, True, ("raw", "minus-out", "minus-in", "residual"),
                          "_StoreAction", None, None),
                "model": _MODEL, "c_in": _C_IN, "c_out": _C_OUT},
    "energy": {"help": _HELP, "output": _OUTPUT, "format": _FORMAT, "program": _PROGRAM,
               "input": _INPUT, "model": _MODEL,
               "input_term": (("--input-term",), False, None, False, None, "_StoreTrueAction", 0, None)},
    "summarize-power": {"help": _HELP, "output": _OUTPUT, "format": _FORMAT,
                        "tdual": (("--tdual",), None, "float", True, None, "_StoreAction", None, None),
                        "powers": ((), None, None, True, None, "_StoreAction", "*", None),
                        "powers_file": (("--powers-file",), None, None, False, None, "_StoreAction",
                                        None, None)},
}


class TestOptionSurface:
    def test_subcommands(self):
        assert list(subparsers()) == list(OPTION_SURFACE)

    @pytest.mark.parametrize("command", list(OPTION_SURFACE))
    def test_options(self, command):
        assert option_surface(subparsers()[command]) == OPTION_SURFACE[command]


REPORTS = [
    ["run", "p.cswp", "--input", "free0=1"],
    ["solve", "p.cswp"],
    ["bound", "p.cswp", "--method", "knownbits"],
    ["fit", "g.csv"],
    ["energy", "p.cswp", "--input", "free0=1", "--input-term"],
    ["summarize-power", "--tdual", "328", "362", "424"],
]
FILES = [
    ["reduce-maxsat", "--vars", "2", "--clause", "x1 ~x2"],
    ["reduce-sat-gap", "--vars", "1", "--clause", "x1", "--width", "4"],
    ["gen-grid", "--op", "add", "--width", "3", "--sigma", "0.5", "--seed", "1"],
    ["heatmap", "g.csv", "--stage", "residual"],
]


@pytest.fixture
def workdir(capsys, tmp_path, monkeypatch):
    """A working directory holding the p.cswp and g.csv that REPORTS and
    FILES read."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "p.cswp").write_text(DOUBLING)
    assert run_cli(capsys, "gen-grid", "--op", "add", "--width", "3", "--base", "7",
                   "--sigma", "0.25", "-o", "g.csv") == (0, "", "")
    return tmp_path


class TestOneWritePath:
    """Every command's output goes through one write: `-o FILE` gets the
    bytes stdout gets, with the same exit code."""

    def test_every_command_covered(self):
        assert {argv[0] for argv in REPORTS + FILES} == set(subparsers())

    @pytest.mark.parametrize("argv", [argv + ["--format", fmt] for argv in REPORTS
                                      for fmt in ("text", "csv")] + FILES, ids=" ".join)
    def test_file_equals_stdout(self, capsys, workdir, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "") and out
        assert run_cli(capsys, *argv, "-o", "out.txt") == (code, "", "")
        assert (workdir / "out.txt").read_bytes() == out.encode()

    @pytest.mark.parametrize("argv", REPORTS + FILES, ids=" ".join)
    def test_command_returns_its_output_only(self, capsys, workdir, argv):
        # a report returns its key=value pairs and a file command its text;
        # neither carries an exit code, which main alone decides
        args = cli._parse_args(argv)
        output = args.func(args)
        if argv in REPORTS:
            assert isinstance(output, list) and output
            assert all(isinstance(pair, str) and "=" in pair and "\n" not in pair for pair in output)
            output = cli._render_report(output, "text")
        assert isinstance(output, str)
        assert run_cli(capsys, *argv) == (0, output, "")


def outcome(capsys, argv):
    """Exit code (or SystemExit code), stdout and stderr of main(argv)."""
    try:
        code = main(list(argv))
    except SystemExit as e:
        code = f"SystemExit {e.code}"
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# per subcommand, options given a value of the wrong type or outside their
# choices, and an option left without its value
BAD_VALUES = {
    "run": [["--input"]],
    "solve": [["--budget", "x"]],
    "bound": [["--method", "exact"]],
    "reduce-maxsat": [["--vars", "x"], ["--width", "1.5"]],
    "reduce-sat-gap": [["--factor", "x"]],
    "fit": [["-o"]],
    "gen-grid": [["--op", "mul"], ["--seed", "x"], ["--sigma", "x"]],
    "heatmap": [["--stage", "cooked"], ["--c-in", "x"]],
    "energy": [["--model"]],
    "summarize-power": [["--tdual", "x"]],
}
DISPATCH_CASES = [[], ["frobnicate"], ["frobnicate", "-h"], ["-h"], ["--help"], ["--bogus", "solve", "p.cswp"],
                  ["--", "solve", "p.cswp"], ["solve", "p.cswp", "--form", "csv"],
                  ["bound", "p.cswp", "--meth", "coarse"], ["bound", "p.cswp", "--method=coarse"],
                  ["solve", "p.cswp", "-o", "-"], ["heatmap", "g.csv", "--stage", "raw", "--c-in", "-1"],
                  ["summarize-power", "1", "--tdual", "5", "2"], ["summarize-power", "--tdual", "5", "-1"],
                  ["gen-grid", "--op", "add", "--width", "1", "--base", "-9e9"],
                  ["summarize-power", "--tdual", "5", "3", "-1e3"],
                  ["reduce-maxsat", "--vars", "3", "--clause", "-x3"]]
for _argv in REPORTS + FILES:
    _name = _argv[0]
    DISPATCH_CASES += [
        _argv,
        _argv + ["--bogus"],  # unknown option
        _argv + ["stray"],  # leftover argument
        _argv + ["--", "stray"],
        [_name],  # missing required argument
        [_name, "-h"],
        _argv + (["--format", "xml"] if _argv in REPORTS else ["--format", "text"]),
        *(_argv + bad for bad in BAD_VALUES[_name]),
    ]


class TestDispatch:
    """`main` parses argv that starts with a subcommand and is in the plain
    form straight from that subcommand's actions, and hands any other argv
    to the full parser; what it prints and returns is what the full
    parser's route gives."""

    def test_every_command_covered(self):
        assert set(BAD_VALUES) == {argv[0] for argv in REPORTS + FILES} == set(subparsers())

    @pytest.mark.parametrize("argv", DISPATCH_CASES, ids=lambda argv: " ".join(argv) or "<none>")
    def test_same_as_full_parser(self, capsys, workdir, monkeypatch, argv):
        direct = outcome(capsys, argv)
        monkeypatch.setattr(cli, "_parse_args", lambda argv: cli._build_parser().parse_args(argv))
        assert outcome(capsys, argv) == direct

    @pytest.mark.parametrize("argv", REPORTS + FILES, ids=" ".join)
    def test_valid_argv_skips_full_parser(self, capsys, workdir, monkeypatch, argv):
        def parse(*args, **kwargs):
            raise AssertionError("argparse parsed a valid argv")

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", parse)
        assert outcome(capsys, argv)[0] == 0


# argv holding a value that starts with "-" and that argparse's own test
# for a value does not read, with what each gives: the output of its "="
# form, or an exit code and the last line of stderr
NEGATIVE_VALUES = [
    (["gen-grid", "--op", "add", "--width", "1", "--base", "-9e9"],
     ["gen-grid", "--op", "add", "--width", "1", "--base=-9e9"]),
    (["gen-grid", "--op", "add", "--width", "1", "--c-in", "-1e-3"],
     (1, "error: power coefficients must be non-negative")),
    (["summarize-power", "--tdual", "328", "-1e3"],
     (1, "error: dual-core idle and test powers must be non-negative")),
    (["reduce-sat-gap", "--vars", "3", "--clause", "x1", "--factor", "-1e0"],
     (1, "error: gap factor -1.0 must be >= 1")),
    (["reduce-maxsat", "--vars", "3", "--clause", "-3abc"],
     (1, "error: bad literal '-3abc' (want e.g. x3 or ~x3)")),
    (["reduce-maxsat", "--vars", "-1e3", "--clause", "x1"],
     ("SystemExit 2", "cswp reduce-maxsat: error: argument --vars: invalid int value: '-1e3'")),
    (["summarize-power", "--tdual", "328", "-inf"],
     (1, "error: dual-core idle and test powers must be finite")),
    (["gen-grid", "--op", "add", "--width", "1", "--base", "-Infinity"],
     (1, "error: base power -inf must be finite")),
    (["gen-grid", "--op", "add", "--width", "1", "--c-in", "-nan"],
     (1, "error: model c_in nan must be finite")),
]


class TestValueRule:
    """A token that is a negative number or starts with a negated literal is
    a value on both routes, so it reaches cswp's own checks."""

    @pytest.mark.parametrize("route", ["main", "full parser"])
    @pytest.mark.parametrize("argv, expected", NEGATIVE_VALUES, ids=lambda x: " ".join(map(str, x)))
    def test_value_reaches_its_check(self, capsys, monkeypatch, route, argv, expected):
        if route == "full parser":
            monkeypatch.setattr(cli, "_parse_args", lambda argv: cli._build_parser().parse_args(argv))
        code, out, err = outcome(capsys, argv)
        if isinstance(expected, list):
            assert (code, err) == (0, "") and out
            assert outcome(capsys, expected) == (code, out, err)
        else:
            assert (code, out, err.splitlines()[-1]) == (expected[0], "", expected[1])

    # case is ignored where float() ignores it, in an infinity or a NaN,
    # and nowhere else: -X3 is no clause
    @pytest.mark.parametrize("token, value", [
        ("-inf", True), ("-INF", True), ("-Infinity", True), ("-nan", True), ("-NaN", True), ("-x3", True),
        ("-X3", False), ("--inf", False), ("-i", False), ("-n", False)])
    def test_case_ignored_only_in_inf_and_nan(self, token, value):
        assert bool(cli._VALUE.match(token)) is value

    # an option string the pattern matches would make argparse take every
    # such token for an option, and a short option such as -x would take
    # -x3 as -x with the value 3; options holding such text (--x1) go too
    @pytest.mark.parametrize("command", list(subparsers()))
    def test_no_option_looks_like_a_value(self, command):
        parser = subparsers()[command]
        assert parser._negative_number_matcher is cli._VALUE
        assert [o for o in parser._option_string_actions if cli._VALUE.search(o + "0")] == []

    # `_plain_args` seeds each dest once, from its action's default
    @pytest.mark.parametrize("command", list(subparsers()))
    def test_no_two_actions_share_a_dest(self, command):
        dests = [a.dest for a in subparsers()[command]._actions]
        assert len(dests) == len(set(dests))


def readme():
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as fh:
        return fh.read()


def readme_commands(lead):
    """The commands, in backticks, of the parenthesised list that follows
    `lead` in README."""
    listed = re.search(re.escape(lead).replace(r"\ ", r"\s+") + r"\s*\(([^)]*)\)", readme()).group(1)
    return re.findall(r"`([^`]+)`", listed)


class TestReadmeInventories:
    """README's lists of the commands that take `--format` and of those that
    write one file format name every subcommand of the parser."""

    def test_reports_take_format(self):
        assert readme_commands("The commands that print a `key=value` report") == [
            name for name, parser in subparsers().items() if "--format" in parser._option_string_actions]

    def test_file_commands_reject_format(self):
        assert readme_commands("the four that write one file format") == [
            name for name, parser in subparsers().items() if "--format" not in parser._option_string_actions]


def walkthrough_argvs():
    """The argv of each `$ cswp` line of README's CLI walkthrough."""
    section = readme().split("\n## CLI walkthrough\n")[1].split("\n## ")[0]
    return [shlex.split(line.removeprefix("$ cswp "), comments=True)
            for line in section.splitlines() if line.startswith("$ cswp ")]


# tokens the property draws argv from, besides each subcommand's own option
# strings: values of every kind the options take, invalid ones, ones that
# start with "-", and NaN
PLAIN_VALUES = ["p.cswp", "g.csv", "1", "0x1f", "2.5", "nan", "inf", "", "-", "-1", "-9e9", "-.5", "-1e3",
                "-inf", "-Infinity", "-nan",
                "-x3", "-x2,-x3", "x1 ~x2", "~x1", "free0=1", "text", "csv", "xml", "coarse", "knownbits", "add", "mul", "raw", "residual", "01"]


def _takes(action, value):
    """Whether `action` takes `value` as its plain value."""
    try:
        converted = action.type(value) if action.type else value
    except ValueError:
        return False
    return not value.startswith("-") and (action.choices is None or converted in action.choices)


@functools.cache
def argv_pieces(command):
    """A strategy for a piece of argv to insert into `command`'s: most
    often one of its options with a value, often one the option takes, and
    otherwise one or two tokens of every kind."""
    parser = subparsers()[command]
    options = [a for a in parser._actions if a.option_strings]
    long = [o for a in options for o in a.option_strings if o.startswith("--")]
    plain = st.one_of([
        st.sampled_from([[o] for o in a.option_strings]) if a.nargs == 0 else
        st.tuples(st.sampled_from(a.option_strings),
                  st.sampled_from([v for v in PLAIN_VALUES if _takes(a, v)]) | st.sampled_from(PLAIN_VALUES),
                  ).map(list)
        for a in options])
    token = st.one_of(
        st.sampled_from(list(parser._option_string_actions)),
        st.sampled_from([o[:k] for o in long for k in range(3, len(o))]),  # abbreviations
        st.builds("{}={}".format, st.sampled_from(long), st.sampled_from(PLAIN_VALUES)),
        st.sampled_from(PLAIN_VALUES),
        st.just("--"),
    )
    return st.one_of(plain, plain, plain, st.lists(token, min_size=1, max_size=2))


@st.composite
def near_plain_argv(draw, command):
    """argv for `command` less its name: a valid argv with some of its
    tokens dropped and `argv_pieces` inserted at random places."""
    argv = next(argv for argv in REPORTS + FILES if argv[0] == command)[1:]
    for _ in range(draw(st.integers(0, 2))):
        if argv and draw(st.integers(0, 3)) == 0:
            del argv[draw(st.integers(0, len(argv) - 1))]
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(argv)))
        argv[at:at] = draw(argv_pieces(command))
    return argv


def known_args(parser, argv):
    """`parser.parse_known_args(argv)`, or its usage error as a string."""
    try:
        with contextlib.redirect_stderr(io.StringIO()) as err:
            return parser.parse_known_args(argv)
    except SystemExit:
        return err.getvalue()


class TestPlainParse:
    """`_plain_args` returns a namespace only where argparse's own parse of
    the same argv gives an equal one with nothing left over."""

    @pytest.mark.parametrize("command", list(OPTION_SURFACE))
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_agrees_with_argparse(self, command, data):
        parser = subparsers()[command]
        argv = data.draw(near_plain_argv(command))
        plain = cli._plain_args(parser, argv)
        if plain is not None:  # repr, since nan != nan
            assert repr((plain, [])) == repr(known_args(parser, argv))

    # a Python whose argparse keeps its actions otherwise fails here rather
    # than silently sending every argv to the full parser
    @pytest.mark.parametrize("argv", REPORTS + FILES + walkthrough_argvs(), ids=" ".join)
    def test_takes_every_documented_argv(self, argv):
        parser = subparsers()[argv[0]]
        plain = cli._plain_args(parser, argv[1:])
        assert plain is not None
        assert repr((plain, [])) == repr(known_args(parser, argv[1:]))

    # a positional that is not a plain store, last in a run of positionals
    # that is otherwise plain: a "+" one, which no nargs case takes
    @pytest.mark.parametrize("last", [{"nargs": "+"}])
    def test_declines_positional_that_is_not_a_plain_store(self, last):
        parser = argparse.ArgumentParser()
        parser.add_argument("--flag", action="store_true")
        parser.add_argument("first")
        parser.add_argument("last", **last)
        argv = ["--flag", "a", "b"]
        assert cli._plain_args(parser, argv) is None
        assert parser.parse_known_args(argv) == (argparse.Namespace(flag=True, first="a", last=["b"]), [])

    def test_walkthrough_shows_every_command(self):
        assert {argv[0] for argv in walkthrough_argvs()} == set(subparsers())


def text_mode_read(path):
    """The file at `path` read in text mode with no newline translation."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise core.CswpError(f"cannot read {path}: {e}") from None


def read_outcome(read, path):
    try:
        return read(path)
    except core.CswpError as e:
        return f"CswpError: {e}"


class TestReadAsBytes:
    """Files are read as bytes. Programs and power lists come out as text
    mode with no newline translation reads them: UTF-8, with their line ends
    as written, and the same error for bytes that are not UTF-8. A grid's
    bytes go to the CSV reader as they are, undecoded."""

    PIECES = [b"a", b"0", b" ", b"\r", b"\n", b"\r\n", b"\xff", b"\xc3", b"\xc3\xa9", b"\xe2\x80\xa8",
              b"\xef\xbb\xbf", b"\x85"]

    def test_read_text_matches_text_mode(self, tmp_path):
        rng = random.Random(15)
        path = str(tmp_path / "x")
        for _ in range(500):
            data = b"".join(rng.choice(self.PIECES) for _ in range(rng.randint(0, 24)))
            if rng.random() < 0.1:  # an error position past the first 8 KiB
                data = b"x" * 9000 + data
            with open(path, "wb") as fh:
                fh.write(data)
            assert read_outcome(cli._read_text, path) == read_outcome(text_mode_read, path), data

    # each program file's line ends as written, from its LF text: the parser
    # and `str.split` read every one, so each gives the LF file's output
    LINE_ENDS = {
        "crlf": lambda text: text.replace("\n", "\r\n"),
        "cr": lambda text: text.replace("\n", "\r"),
        "mixed": lambda text: "".join(line + ("\n", "\r\n", "\r")[i % 3]
                                      for i, line in enumerate(text.splitlines())),
        "no-final-lf": lambda text: text.removesuffix("\n"),
        "crlf-no-final-crlf": lambda text: text.replace("\n", "\r\n").removesuffix("\r\n"),
    }

    @staticmethod
    def line_end_programs():
        """LF texts of `tests/randprog.py` programs, both reductions (with
        their `#` comment lines) and a program with a bad `width` line."""
        rng = random.Random(33)
        texts = [textfmt.serialize_program(random_program(rng)) for _ in range(20)]
        texts.append(reductions.serialize_reduced(reductions.reduce_maxsat2(
            MaxSat2Instance(3, [(1, -2), (2, 3), (-1,)]), width=4)))
        texts.append(reductions.serialize_gap(reductions.reduce_sat_gap(
            SatInstance(2, [(1, 2), (-1,)]), width=4, factor=1.5)))
        return texts + ["width\nfree a full\no1: mov freea\n"]

    def test_program_line_ends(self, capsys, tmp_path):
        path = str(tmp_path / "p.cswp")
        for text in self.line_end_programs():
            names = re.findall(r"^free (\S+)", text, re.M)
            inputs = [arg for name in names for arg in ("--input", f"{name}=1")]
            argvs = [["solve", path], ["bound", path, "--method", "knownbits"],
                     ["bound", path, "--method", "coarse"], ["run", path, *inputs], ["energy", path, *inputs]]
            with open(path, "w", newline="") as fh:
                fh.write(text)
            expected = [outcome(capsys, argv) for argv in argvs]
            for form, edit in self.LINE_ENDS.items():
                with open(path, "w", newline="") as fh:
                    fh.write(edit(text))
                assert [outcome(capsys, argv) for argv in argvs] == expected, (form, text)
        assert expected[0][0] == 1 and "bad width line" in expected[0][2]

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
    def test_powers_file_line_ends(self, capsys, tmp_path, end):
        path = tmp_path / "powers.txt"
        path.write_bytes(end.join(["362", "424.5", "", "390"]).encode() + end.encode())
        assert outcome(capsys, ["summarize-power", "--tdual", "328", "--powers-file", str(path)]) == \
            outcome(capsys, ["summarize-power", "--tdual", "328", "362", "424.5", "390"])

    # g.csv has 64 rows, lines 2 to 65; None for the output of the file as written
    @pytest.mark.parametrize("argv", [["fit", "g.csv"], ["heatmap", "g.csv", "--stage", "minus-in"]])
    @pytest.mark.parametrize("edit, err", [
        (lambda data: data.replace(b"\n", b"\r\n"), None),
        (lambda data: data.removesuffix(b"\n"), None),
        (lambda data: data.replace(b"\n", b"\r\n").removesuffix(b"\r\n"), None),
        (lambda data: data.replace(b"\n", b"\r"), "CSV line 1: want the header op_a,op_b,h_in,h_out,power_mw"),
        (lambda data: data.replace(b"\n", b"\r", 5), "CSV line 1: want the header op_a,op_b,h_in,h_out,power_mw"),
        (lambda data: data.replace(b"\n", b"\r", 6).replace(b"\r", b"\n", 1), "CSV line 2: 25 fields, want 5"),
        (lambda data: b"\xef\xbb\xbf" + data, "CSV line 1: want the header op_a,op_b,h_in,h_out,power_mw"),
        (lambda data: b"\n".join(b",".join(b'"%s"' % f for f in line.split(b",")) if line else line
                                 for line in data.split(b"\n")),
         "CSV line 1: want the header op_a,op_b,h_in,h_out,power_mw"),
        (lambda data: data + b"\r\n0x0,0x0,0,0,1.\xff\n", "CSV line 66: 1 fields, want 5"),
        (lambda data: data.replace(b"\n", b"\r\n") + b"0x0,0x0,0,0,1.\xff\n",
         "CSV line 66: power_mw must be [-]<digits>.<digits>"),
        (lambda data: data[:40] + b"\xc3\xa9" + data[40:], "CSV line 2: h_out must be <digits>"),
        (lambda data: data[:-10] + b"\xff" + data[-10:], "CSV line 65: power_mw must be [-]<digits>.<digits>"),
        (None, "cannot read g.csv: [Errno 2] No such file or directory: 'g.csv'"),
    ], ids=["crlf", "no-final-lf", "crlf-no-final-crlf", "cr", "some-cr", "cr-in-rows", "bom", "quoted",
            "blank-crlf-line", "crlf-bad-utf8", "non-ascii", "non-utf8", "missing"])
    def test_grid_bytes(self, capsys, workdir, argv, edit, err):
        expected = outcome(capsys, argv)
        assert expected[0] == 0
        path = workdir / "g.csv"
        if edit is None:
            path.unlink()
        else:
            path.write_bytes(edit(path.read_bytes()))
        assert outcome(capsys, argv) == (expected if err is None else (1, "", f"error: {err}\n"))

    @staticmethod
    def open_read(path):
        """How `cli._read_file` read before it read with `os.read`."""
        try:
            with open(path, "rb") as fh:
                return fh.read()
        except OSError as e:
            raise core.CswpError(f"cannot read {path}: {e}") from None

    @pytest.mark.parametrize("name", ["d", "d/", "missing", "f/", "d/missing"])
    def test_read_errors_match_open(self, capsys, tmp_path, monkeypatch, name):
        # a directory, a missing file and a regular file named as a directory
        # (ENOTDIR) each end in the line the open() read gave
        monkeypatch.chdir(tmp_path)
        (tmp_path / "d").mkdir()
        (tmp_path / "f").write_text(DOUBLING)
        expected = read_outcome(self.open_read, name)
        assert expected.startswith(f"CswpError: cannot read {name}: [Errno ")
        assert read_outcome(cli._read_file, name) == expected
        line = f"error: {expected.removeprefix('CswpError: ')}\n"
        assert outcome(capsys, ["bound", name, "--method", "coarse"]) == (1, "", line)
        assert outcome(capsys, ["fit", name]) == (1, "", line)

    @pytest.mark.parametrize("size", [0, 1, 4095, 4096, 3 << 20])
    def test_regular_file_bytes_match_open(self, tmp_path, size):
        path = str(tmp_path / "x")
        with open(path, "wb") as fh:
            fh.write(random.Random(size).randbytes(size))
        assert cli._read_file(path) == self.open_read(path)

    def test_file_holding_more_than_its_size(self):
        # /proc files report a size of 0 but hold bytes
        path = "/proc/self/cmdline"
        if not os.path.exists(path):
            pytest.skip("no /proc")
        assert os.stat(path).st_size == 0
        data = cli._read_file(path)
        assert data and data == self.open_read(path)

    def test_short_read_reads_on(self, tmp_path, monkeypatch):
        # a read that returns less than the size, as Linux's does past 2 GiB
        path = str(tmp_path / "x")
        with open(path, "wb") as fh:
            fh.write(random.Random(5).randbytes(10_000))
        read = os.read
        monkeypatch.setattr(os, "read", lambda fd, n: read(fd, min(n, 999)))
        assert cli._read_file(path) == self.open_read(path)

    def test_pipe_read_to_eof(self, tmp_path):
        # a FIFO (size 0 on Linux) reads on to EOF, however the writer
        # splits its bytes
        path = str(tmp_path / "fifo")
        os.mkfifo(path)
        data = random.Random(3).randbytes(200_000)

        def write():
            with open(path, "wb", buffering=0) as fh:
                for k in range(0, len(data), 30_000):
                    fh.write(data[k:k + 30_000])

        writer = threading.Thread(target=write)
        writer.start()
        try:
            assert cli._read_file(path) == data
        finally:
            writer.join()

    def test_file_not_regular_reads_on_past_its_size(self, tmp_path, monkeypatch):
        # on some systems a pipe's size counts only the bytes buffered, so a
        # first read may return just that size with more to come
        path = str(tmp_path / "x")
        data = random.Random(4).randbytes(10_000)
        with open(path, "wb") as fh:
            fh.write(data)
        fstat, read = os.fstat, os.read
        monkeypatch.setattr(os, "fstat", lambda fd: os.stat_result((stat.S_IFIFO | 0o600, *fstat(fd)[1:6], 4000,
                                                                    *fstat(fd)[7:10])))
        monkeypatch.setattr(os, "read", lambda fd, n: read(fd, min(n, 4000)))
        assert cli._read_file(path) == data

    def test_reads_leave_no_descriptor_open(self, tmp_path):
        fds = "/proc/self/fd"
        if not os.path.isdir(fds):
            pytest.skip("no /proc")
        (tmp_path / "d").mkdir()
        (tmp_path / "f").write_text(DOUBLING)
        paths = [str(tmp_path / name) for name in ("f", "d", "missing", "f/")]
        before = len(os.listdir(fds))
        for k in range(200):
            read_outcome(cli._read_file, paths[k % len(paths)])
        assert len(os.listdir(fds)) == before
