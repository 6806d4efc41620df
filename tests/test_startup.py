"""`cswp` as a process: which commands load NumPy (and that none loads
`fractions` or `csv`), and what a fresh interpreter running the command line
prints; and, read from the source, that the package holds no code that
only tests call.

Each process case starts its own interpreter with `PYTHONPATH` set to this
checkout's `src/`, so nothing an earlier test imported can hide an import.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cswp
from cswp.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"

GRID = "op_a,op_b,h_in,h_out,power_mw\n0x0,0x0,0,0,1.0\n0x0,0x1,1,1,2.0\n0x1,0x0,1,1,2.0\n0x1,0x1,2,1,3.0\n"
PROGRAM = ("width 8\nfree a full\nfree b 01\n"
           "o1: mov freea\no2: shl o1, freeb\no3: xor o2, #0x5a\no4: ite freeb, o3, o1\n")

# Runs `cli.main` on its arguments with stdout captured, then prints the
# exit code and whether NumPy, `fractions` and `csv` were loaded.
CHILD = """
import contextlib, io, sys
from cswp import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(code, "numpy" in sys.modules, "fractions" in sys.modules, "csv" in sys.modules)
"""


def python(*args, cwd):
    """The completed process of a fresh interpreter that sees cswp in src/."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, timeout=60)


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "p.cswp").write_text(PROGRAM)
    (tmp_path / "g.csv").write_text(GRID)
    assert main(["reduce-maxsat", *CLAUSES, "-o", str(tmp_path / "m.cswp")]) == 0
    return tmp_path


CLAUSES = ["--vars", "2", "--clause", "x1 ~x2", "--clause", "x2"]
# commands that compute no array, and those that do: `solve` searches the
# two-valued maxsat2 embedding m.cswp over planes, and p.cswp, whose input
# `a` is eight bits wide, over columns
WITHOUT_NUMPY = [
    ["run", "p.cswp", "--input", "a=3", "--input", "b=1"],
    ["solve", "m.cswp"],
    ["bound", "p.cswp", "--method", "coarse"],
    ["bound", "p.cswp", "--method", "knownbits"],
    ["energy", "p.cswp", "--input", "a=3", "--input", "b=1"],
    ["energy", "p.cswp", "--input", "a=3", "--input", "b=1", "--input-term"],
    ["reduce-maxsat", *CLAUSES],
    ["reduce-sat-gap", *CLAUSES],
    ["summarize-power", "--tdual", "328", "362", "424"],
]
WITH_NUMPY = [
    ["solve", "p.cswp"],
    ["gen-grid", "--op", "add", "--width", "3"],
    ["fit", "g.csv"],
    ["heatmap", "g.csv", "--stage", "residual"],
]


class TestNumpyStaysOut:
    @pytest.mark.parametrize("module", ["cswp", "cswp.cli"])
    def test_import(self, tmp_path, module):
        done = python("-c", f"import sys, {module}; "
                            "print('numpy' in sys.modules, 'fractions' in sys.modules, 'csv' in sys.modules)",
                      cwd=tmp_path)
        assert (done.stdout, done.stderr) == (b"False False False\n", b"")

    @pytest.mark.parametrize("argv", WITHOUT_NUMPY, ids=" ".join)
    def test_command_without_arrays(self, workdir, argv):
        done = python("-c", CHILD, *argv, cwd=workdir)
        assert (done.stdout, done.stderr) == (b"0 False False False\n", b"")

    @pytest.mark.parametrize("argv", WITH_NUMPY, ids=" ".join)
    def test_command_with_arrays(self, workdir, argv):
        done = python("-c", CHILD, *argv, cwd=workdir)
        assert (done.stdout, done.stderr) == (b"0 True False False\n", b"")


class TestProcess:
    """`python -m cswp.cli` prints what `main` prints in-process."""

    @pytest.mark.parametrize("argv", [["bound", "p.cswp", "--method", "knownbits"], ["solve", "p.cswp"]],
                             ids=" ".join)
    def test_same_bytes_as_main(self, capsys, monkeypatch, workdir, argv):
        monkeypatch.chdir(workdir)
        assert main(argv) == 0
        expected = capsys.readouterr().out.encode()
        done = python("-m", "cswp.cli", *argv, cwd=workdir)
        assert (done.returncode, done.stdout, done.stderr) == (0, expected, b"")

    def test_malformed_program(self, workdir):
        (workdir / "bad.cswp").write_text("width 4\no1: mov o5\n")
        done = python("-m", "cswp.cli", "solve", "bad.cswp", cwd=workdir)
        assert (done.returncode, done.stdout) == (1, b"")
        lines = done.stderr.decode().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and "o5" in lines[0]


class TestNoTestOnlyCode:
    """Every top-level function and class of `src/cswp/` is referenced
    outside its own body, by a name, an attribute or an import, somewhere in
    `src/cswp/` or `perfbench/`, or is exported in `cswp.__all__`. A helper
    that only tests call belongs with the tests."""

    def test_every_definition_has_a_reference(self):
        paths = sorted((SRC / "cswp").glob("*.py")) + sorted((SRC.parent / "perfbench").glob("*.py"))
        statements = [(path, statement) for path in paths for statement in ast.parse(path.read_bytes()).body]
        names = [{node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute)
                  else node.name for node in ast.walk(statement)
                  if isinstance(node, (ast.Name, ast.Attribute, ast.alias))} for _, statement in statements]
        unreferenced = [
            f"{path.stem}.{statement.name}" for i, (path, statement) in enumerate(statements)
            if path.parent.name == "cswp" and isinstance(statement, (ast.FunctionDef, ast.ClassDef))
            and statement.name not in cswp.__all__
            and not any(statement.name in other for j, other in enumerate(names) if j != i)]
        assert unreferenced == []
