import hashlib
import os

import pytest

from cswp import analysis, cli, core
from cswp.core import validate_program
from cswp.energy import HEATMAP_STAGES
from cswp.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


DOUBLING = "width 2\nfree 0 full\no1: mov free0\no2: add o1, o1\n"


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

    def test_chunk_size_does_not_change_output(self, capsys, monkeypatch, doubling_path):
        _, one_chunk, _ = run_cli(capsys, "solve", doubling_path)
        for rows in (1, 3, 7):
            monkeypatch.setattr(analysis, "CHUNK_ROWS", rows)
            assert run_cli(capsys, "solve", doubling_path) == (0, one_chunk, "")

    def test_workers_flag_is_gone(self, doubling_path):
        with pytest.raises(SystemExit) as exc:
            main(["solve", doubling_path, "--workers", "2"])
        assert exc.value.code == 2

    def test_repeat_invocation_is_byte_identical(self, capsys, doubling_path):
        _, first, _ = run_cli(capsys, "solve", doubling_path)
        _, second, _ = run_cli(capsys, "solve", doubling_path)
        assert first == second


class TestReductionCommands:
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

    def test_checksat_verify_all_assignments(self, capsys):
        code, out, _ = run_cli(capsys, "checksat-verify", "--vars", "2",
                               "--clause", "x1 x2", "--clause", "~x1")
        assert code == 0
        assert out.endswith("ok=true\n")

    def test_checksat_verify_single_assignment(self, capsys):
        code, out, _ = run_cli(capsys, "checksat-verify", "--vars", "2",
                               "--clause", "x1 x2", "--assign", "0,1")
        assert code == 0
        assert "assign.01=result:1,expected:1" in out

    @pytest.mark.parametrize("bits", ["2", "0,x", "1 0", "01-"])
    def test_checksat_verify_rejects_non_binary_assign(self, capsys, bits):
        code, out, err = run_cli(capsys, "checksat-verify", "--vars", "1",
                                 "--clause", "x1", "--assign", bits)
        assert (code, out) == (1, "")
        assert err.startswith("error:") and "0 or 1" in err

    def test_checksat_verify_all_assignments_respects_budget(self, capsys, monkeypatch):
        monkeypatch.setattr(analysis, "DEFAULT_BUDGET", 4)
        code, out, err = run_cli(capsys, "checksat-verify", "--vars", "3", "--clause", "x1")
        assert (code, out) == (1, "")
        assert err == "error: exhaustive search needs 8 assignments, budget is 4\n"
        code, out, _ = run_cli(capsys, "checksat-verify", "--vars", "2", "--clause", "x1")
        assert code == 0 and out.endswith("ok=true\n")


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
        ({}, ["checksat-verify", "--vars", "-1"]),
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
    ])
    def test_error_line_not_traceback(self, capsys, tmp_path, monkeypatch, files, argv):
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["solve", "x"],
        ["run", "x"],
        ["energy", "x"],
        ["bound", "x", "--method", "knownbits"],
        ["fit", "x"],
        ["heatmap", "x", "--stage", "raw"],
        ["summarize-power", "--tdual", "2", "--powers-file", "x"],
    ])
    def test_undecodable_file(self, capsys, tmp_path, monkeypatch, argv):
        (tmp_path / "x").write_bytes(b"width 4\n\xff\n")
        monkeypatch.chdir(tmp_path)
        assert run_cli(capsys, *argv) == (
            1, "", "error: cannot read x: 'utf-8' codec can't decode byte 0xff in position 8: "
                   "invalid start byte\n")

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
        ["checksat-verify", "--vars", "2", "--clause", "x1 ~x2"],
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

    def test_failed_command_writes_nothing(self, capsys, tmp_path):
        out_path = tmp_path / "never.txt"
        code, _, _ = run_cli(capsys, "fit", str(tmp_path / "missing.csv"),
                             "-o", str(out_path))
        assert code == 1
        assert not out_path.exists()

    def test_reduction_output_reparses(self, capsys, tmp_path):
        out_path = tmp_path / "r.cswp"
        run_cli(capsys, "reduce-maxsat", "--vars", "3", "--clause", "x1 x2",
                "--clause", "~x3", "-o", str(out_path))
        from cswp.textfmt import parse_program, serialize_program
        program = parse_program(out_path.read_text())
        assert parse_program(serialize_program(program)) == program
