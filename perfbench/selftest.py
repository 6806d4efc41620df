"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload at its smallest size, untraced and traced, and asserts
that each run prints every metric of BENCHMARK.json with its unit and passes
its checks; that the counts marked exact in `EXACT` repeat between two
traced runs of one seed; that energy-fit never reaches `analysis` or known
bits; that a planted wrong answer raises `failed` above 0; and that the
benchmark exits non-zero without a result where no cswp sources exist. When
`tests/randprog.py` is present it also checks that the corpus generator
draws the same programs.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import TARGETS  # noqa: E402
from workloads import WORKLOADS, random_program_text  # noqa: E402

# Per-layer metrics that count work and therefore repeat exactly for a seed.
EXACT = [f"{t}.calls" for t in TARGETS] + [
    "analysis.assignments", "analysis.insn_evals", "knownbits.insns",
    "knownbits.slack_bits", "energy.grid_rows", "trace.spans",
]
# Printed beside the gated metrics: the raw wall-clock times and the counts.
REPORT_ONLY = {"wall_s": "s", "jobs_per_s": "1/s", "job_ms.p50": "ms",
               "fail_share": "ratio", "job_ms.samples": "count"}


def run(cwd: Path, *args) -> tuple[int, list]:
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--seed", "1", "--seconds", "0.2",
                           "--size", "smoke", *args], cwd=cwd, capture_output=True, text=True,
                          timeout=180)
    return proc.returncode, proc.stdout.splitlines()


def result(lines: list) -> dict:
    out = json.loads(lines[-1])
    assert sorted(out) == ["attempted", "correct", "failed", "metrics"], sorted(out)
    assert isinstance(out["attempted"], int) and out["attempted"] >= 1
    assert isinstance(out["failed"], int)
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for workload in WORKLOADS:
        layers = []
        for trace, wanted in (("0", spec["end_to_end"]), ("1", spec["per_layer"]), ("1", None)):
            rc, lines = run(ROOT, "--workload", workload, "--trace", trace)
            assert rc == 0, (workload, trace, lines[-5:])
            out = result(lines)
            assert out["correct"] and out["failed"] == 0, (workload, trace, lines[:5])
            if wanted is None:
                layers.append(out["metrics"])
                continue
            assert sorted(out["metrics"]) == sorted(m["name"] for m in wanted), workload
            for m in wanted:
                assert out["metrics"][m["name"]]["unit"] == m["unit"], m
                assert any(line.split()[:1] == [m["name"]] and line.endswith(" " + m["unit"])
                           for line in lines), m["name"]
            if trace == "0":
                for name, unit in REPORT_ONLY.items():
                    assert any(line.split()[:1] == [name] and line.endswith(unit) for line in lines), name
            else:
                layers.append(out["metrics"])
        for name in EXACT:
            assert layers[0][name] == layers[1][name], (workload, name)
        if workload == "energy-fit":
            touched = [n for n in EXACT if n.startswith(("analysis.", "knownbits."))
                       and layers[0][n]["value"]]
            assert not touched, touched
        rc, lines = run(ROOT, "--workload", workload, "--plant-fault")
        out = result(lines)
        assert rc == 0 and out["failed"] > 0 and not out["correct"], (workload, lines[-3:])
        print(f"ok {workload}")

    (ROOT / ".perfbench_out").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench_out", prefix="bare-"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        rc, lines = run(bare, "--workload", WORKLOADS[0])
        assert rc != 0 and not any(line.startswith("{") for line in lines), (rc, lines[-3:])
    finally:
        shutil.rmtree(bare)
    print("ok bare directory exits non-zero")

    if (ROOT / "tests" / "randprog.py").is_file():
        sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
        from cswp.textfmt import serialize_program
        from randprog import random_program

        a, b = random.Random(3003), random.Random(3003)
        for _ in range(300):
            assert serialize_program(random_program(a)) == random_program_text(b)
        print("ok corpus generator draws tests/randprog.py programs")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
