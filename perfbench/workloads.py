"""Seeded inputs and job lists for the three benchmark workloads.

Every input is drawn here from the run's seed and written as a file or an
argument list; the program under test only ever sees those files and
arguments, through `cswp.cli.main(argv)`. Nothing in this module imports
cswp, so the inputs do not change when the code under test does.

Workloads (why each exists is recorded in BENCHMARK.json):

* reduce-solve: maxsat2 and sat-gap embeddings, solved exactly and bounded.
* corpus: many short random programs, plus long wide ones that are only
  bounded.
* energy-fit: grid generation, fit, heat maps, power summary, and trace
  energy of programs at fixed inputs; it never enters `analysis`.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field

# Mnemonics in the order of `cswp.core.ARITY`, which `tests/randprog.py`
# draws from; keeping the order makes `random_program_text` reproduce that
# generator's programs draw for draw.
ARITY = {
    "mov": 1, "not": 1, "eqz": 1, "load": 1, "add": 2, "sub": 2, "and": 2,
    "or": 2, "xor": 2, "shl": 2, "shr": 2, "store": 1, "ite": 3,
}
MNEMONICS = list(ARITY)

WORKLOADS = ("reduce-solve", "corpus", "energy-fit")

# Sizes. "smoke" is the smallest size of each workload, used by the self-test.
SIZES = {
    "full": {
        "maxsat": (14, 30), "gap": (12, 40),
        "pool": 300, "wide8": 4, "wide8_width": 8, "long": 40, "long_len": 200,
        "grid_ops": ("add", "xor", "shl"), "grid_width": 8, "energy_programs": 60,
    },
    "smoke": {
        "maxsat": (4, 6), "gap": (4, 8),
        "pool": 8, "wide8": 1, "wide8_width": 4, "long": 2, "long_len": 20,
        "grid_ops": ("add",), "grid_width": 4, "energy_programs": 3,
    },
}
# the mnemonics of every short program with two full-width inputs
WIDE8_MNEMONICS = ("add", "sub", "xor", "shl", "ite")
LONG_WIDTHS = (8, 16, 32, 64)
ENERGY_WIDTHS = (8, 16, 32)
GRID_SIGMA = 1.5


@dataclass
class Job:
    """One `cswp` invocation.

    `program` is the program file the job reads and `output` the file it
    writes with -o; `readback` names the in-job step that reads a reduced
    program's answer back (`"maxsat"` or `"gap"`); `ref` holds what the
    reference check needs and the job itself never sees.
    """

    kind: str
    argv: list
    program: str | None = None
    output: str | None = None
    readback: str | None = None
    ref: dict = field(default_factory=dict)

    @property
    def name(self) -> str:
        target = self.program or self.output or ""
        return f"{self.kind}:{os.path.basename(target)}"


# ---------------------------------------------------------------------------
# program generators

def random_program_text(rng, widths=(1, 4), full=(0, 2), binary=(0, 2),
                        length=(1, 8), mem_size=4, mnemonics=None) -> str:
    """A random straight-line program in canonical text form.

    With the defaults this draws exactly what `tests/randprog.py`'s
    `random_program(rng)` draws, so a pool seeded like the test suite's is
    the same pool. Given `mnemonics`, the program instead uses exactly those,
    in shuffled order, so its cost per assignment hardly depends on the seed.
    """
    width = rng.randint(*widths)
    n_full = rng.randint(*full)
    n_bin = rng.randint(*binary)
    frees = [(f"f{i}", "full") for i in range(n_full)]
    frees += [(f"b{i}", "01") for i in range(n_bin)]
    rng.shuffle(frees)

    def source(index):
        kinds = ["const"]
        if frees:
            kinds.append("free")
        if index > 0:
            kinds += ["prior", "prior"]
        if mem_size > 0:
            kinds.append("mem")
        kind = rng.choice(kinds)
        if kind == "const":
            return f"#0x{rng.randrange(1 << width):x}"
        if kind == "free":
            return f"free{rng.choice(frees)[0]}"
        if kind == "prior":
            return f"o{rng.randrange(index) + 1}"
        return f"m[{rng.randrange(mem_size)}]"

    lines = [f"width {width}", f"mem {mem_size}"]
    lines += [f"free {name} {domain}" for name, domain in frees]
    order = rng.sample(mnemonics, len(mnemonics)) if mnemonics else None
    for index in range(len(order) if order else rng.randint(*length)):
        mnemonic = order[index] if order else rng.choice(MNEMONICS)
        if mnemonic == "load":
            srcs = [f"m[{rng.randrange(mem_size)}]"]
        else:
            srcs = [source(index) for _ in range(ARITY[mnemonic])]
        line = f"o{index + 1}: {mnemonic} {', '.join(srcs)}"
        if mnemonic == "store" or (rng.random() < 0.15 and mem_size > 0):
            line += f" -> m[{rng.randrange(mem_size)}]"
        lines.append(line)
    return "\n".join(lines) + "\n"


def maxsat_clauses(rng, n, m):
    """m clauses of 1-2 literals over n variables; with `random.Random(7)`,
    n=14 and m=30 this is the maxsat2 case of ROADMAP's baselines."""
    return [
        [rng.choice([1, -1]) * rng.randint(1, n) for _ in range(rng.randint(1, 2))]
        for _ in range(m)
    ]


def gap_clauses(rng, n, m):
    """m clauses of 3 distinct variables with exactly half the literals
    negated, so the program length does not depend on the seed."""
    signs = [1, -1] * (3 * m // 2) + [1] * (3 * m % 2)
    rng.shuffle(signs)
    return [
        [signs[3 * c + k] * v for k, v in enumerate(rng.sample(range(1, n + 1), 3))]
        for c in range(m)
    ]


def _literal(lit: int) -> str:
    return f"~x{-lit}" if lit < 0 else f"x{lit}"


def _clause_args(clauses):
    args = []
    for clause in clauses:
        args += ["--clause", " ".join(_literal(l) for l in clause)]
    return args


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# workloads

def _reduce_solve(seed, size, work):
    jobs = []
    n, m = size["maxsat"]
    clauses = maxsat_clauses(random.Random(seed), n, m)
    path = os.path.join(work, "maxsat.cswp")
    ref = {"vars": n, "clauses": clauses}
    jobs.append(Job("reduce-maxsat", ["reduce-maxsat", "--vars", str(n), *_clause_args(clauses),
                                      "-o", path], output=path, ref=ref))
    jobs += _solve_and_bound(path, "maxsat", ref)

    n, m = size["gap"]
    clauses = gap_clauses(random.Random(f"gap-{seed}"), n, m)
    path = os.path.join(work, "gap.cswp")
    ref = {"vars": n, "clauses": clauses}
    jobs.append(Job("reduce-sat-gap", ["reduce-sat-gap", "--vars", str(n), *_clause_args(clauses),
                                       "-o", path], output=path, ref=ref))
    jobs += _solve_and_bound(path, "gap", ref)
    return jobs


def _solve_and_bound(path, readback=None, ref=None, solve=True):
    jobs = []
    if solve:
        jobs.append(Job("solve", ["solve", path], program=path, readback=readback, ref=ref or {}))
    for method in ("knownbits", "coarse"):
        jobs.append(Job(f"bound.{method}", ["bound", path, "--method", method], program=path,
                        ref={"exact": solve}))
    return jobs


def _corpus(seed, size, work):
    jobs = []
    programs = []
    rng = random.Random(seed)
    for i in range(size["pool"]):
        programs.append((f"pool{i:03d}", random_program_text(rng), True))
    rng = random.Random(f"wide8-{seed}")
    width = size["wide8_width"]
    for i in range(size["wide8"]):
        text = random_program_text(rng, widths=(width, width), full=(2, 2), binary=(0, 0),
                                   mnemonics=WIDE8_MNEMONICS)
        programs.append((f"wide8_{i}", text, True))
    rng = random.Random(f"long-{seed}")
    for i in range(size["long"]):
        w = LONG_WIDTHS[i % len(LONG_WIDTHS)]
        text = random_program_text(rng, widths=(w, w), full=(2, 2), binary=(2, 2),
                                   length=(size["long_len"],) * 2)
        programs.append((f"long{i:02d}", text, False))
    for name, text, solve in programs:
        path = os.path.join(work, name + ".cswp")
        _write(path, text)
        jobs += _solve_and_bound(path, solve=solve)
    return jobs


def _energy_fit(seed, size, work):
    jobs = []
    rng = random.Random(f"energy-{seed}")
    width = size["grid_width"]
    for op in size["grid_ops"]:
        planted = {
            "base": round(rng.uniform(40.0, 60.0), 3),
            "c_in": round(rng.uniform(0.5, 2.0), 3),
            "c_out": round(rng.uniform(2.0, 6.0), 3),
        }
        grid = os.path.join(work, f"grid_{op}.csv")
        coeffs = ["--c-in", str(planted["c_in"]), "--c-out", str(planted["c_out"])]
        ref = {"op": op, "width": width, "sigma": GRID_SIGMA, **planted}
        jobs.append(Job("gen-grid", ["gen-grid", "--op", op, "--width", str(width),
                                     "--sigma", str(GRID_SIGMA), "--seed", str(rng.randrange(1 << 30)),
                                     "--base", str(planted["base"]), *coeffs, "-o", grid],
                        output=grid, ref=ref))
        jobs.append(Job("fit", ["fit", grid], program=grid, ref=ref))
        for stage in ("raw", "minus-out", "minus-in", "residual"):
            out = os.path.join(work, f"heat_{op}_{stage}.csv")
            jobs.append(Job("heatmap", ["heatmap", grid, "--stage", stage, *coeffs, "-o", out],
                            program=grid, output=out, ref={**ref, "stage": stage}))

    tdual = round(rng.uniform(300.0, 340.0), 3)
    powers = [round(tdual + rng.uniform(5.0, 120.0), 3) for _ in range(32)]
    jobs.append(Job("summarize-power", ["summarize-power", "--tdual", str(tdual),
                                        *map(str, powers)], ref={"tdual": tdual, "powers": powers}))

    rng = random.Random(f"energy-programs-{seed}")
    for i in range(size["energy_programs"]):
        w = ENERGY_WIDTHS[i % len(ENERGY_WIDTHS)]
        text = random_program_text(rng, widths=(w, w), full=(2, 2), binary=(1, 1),
                                   length=(40, 40))
        path = os.path.join(work, f"energy{i:02d}.cswp")
        _write(path, text)
        values = {}
        for line in text.splitlines():
            if line.startswith("free "):
                _, name, domain = line.split()
                values[name] = rng.randrange(2 if domain == "01" else 1 << w)
        inputs = [a for name, v in values.items() for a in ("--input", f"{name}={v:#x}")]
        ref = {"inputs": values}
        jobs.append(Job("run", ["run", path, *inputs], program=path, ref=ref))
        jobs.append(Job("energy", ["energy", path, *inputs], program=path, ref=ref))
        jobs.append(Job("energy.input-term", ["energy", path, *inputs, "--input-term"],
                        program=path, ref=ref))
    return jobs


GENERATORS = {"reduce-solve": _reduce_solve, "corpus": _corpus, "energy-fit": _energy_fit}


def build(workload: str, seed: int, work: str, size: str = "full") -> list[Job]:
    """Write the workload's input files under `work` and return its jobs in
    the order one pass runs them."""
    os.makedirs(work, exist_ok=True)
    return GENERATORS[workload](seed, SIZES[size], work)
