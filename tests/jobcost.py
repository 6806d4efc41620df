"""Per-stage cost of the short jobs of a corpus run, or of the grid jobs of
an energy-fit run, with the standard library only.

    python tests/jobcost.py [--programs N] [--rounds R] [--seed S]
    python tests/jobcost.py --grids [--rounds R] [--seed S]

Writes N `tests/randprog.py` programs (`random_program(rng)` with its
defaults, one `random.Random(S)` for all) to a temporary directory, then runs
R rounds over them. A round takes the programs in turn and runs `solve`,
`bound --method knownbits` and `bound --method coarse` on each, interleaved
as perfbench's corpus workload runs them. Each job goes through the stages of
`cswp.cli.main`, each timed on its own:

    argv     cli._parse_args(argv)
    read     cli._read_text(path): the file read and its decode
    parse    textfmt.parse_program(text), with the Program's validation
    command  the subcommand's body (`args.func(args)`) less read and parse
    render   cli._render_report and cli._write_output to stdout

Stdout goes to an in-memory buffer. In the first round each job's report
is checked against what `cli.main(argv)` writes. The script prints the
median microseconds per job of each stage, and of their total, by job kind.

With --grids it builds perfbench's full-size energy-fit workload at seed S
(`perfbench/workloads.py`) in a temporary directory, writes its three
8-bit grids with the workload's own `gen-grid` jobs, and then runs R rounds
of the workload's `fit` and four `heatmap` jobs per grid through
`cli.main` (no bytecode is written next to `workloads.py`). Each of these
functions is timed where the job calls it:

    argv     cli._parse_args
    read     cli._read_file: the grid file's bytes
    csv      energy.measurements_from_csv
    compute  energy.fit_hamming_model or energy.heatmap_matrix
    write    energy.heatmap_to_csv or cli._render_report: the text
    output   cli._write_output: stdout or the -o file
    other    the rest of the job

In the first round each job's stdout and -o file are checked against what
`cli.main` writes without the timers.

This file is not a test module: pytest does not collect it, and it is no
part of the tier-1 run.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import random
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

from cswp import cli, energy  # noqa: E402
from cswp.textfmt import parse_program, serialize_program  # noqa: E402
from randprog import random_program  # noqa: E402

STAGES = ("argv", "read", "parse", "command", "render")
JOBS = (("solve", []), ("bound.knownbits", ["--method", "knownbits"]), ("bound.coarse", ["--method", "coarse"]))


def run_job(argv: list[str]) -> list[int]:
    """The nanoseconds of each stage of one job, in STAGES order."""
    clock = time.perf_counter_ns
    t0 = clock()
    args = cli._parse_args(argv)
    t1 = clock()
    text = cli._read_text(args.program)
    t2 = clock()
    program = parse_program(text)
    t3 = clock()
    cli._program = lambda _: program  # the command takes the program parsed above
    pairs = args.func(args)
    t4 = clock()
    cli._write_output(args.output, cli._render_report(pairs, args.format))
    t5 = clock()
    return [t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4]


# (module, function, stage) of each function a grid job times
GRID_TIMED = ((cli, "_parse_args", "argv"), (cli, "_read_file", "read"), (energy, "measurements_from_csv", "csv"),
              (energy, "fit_hamming_model", "compute"), (energy, "heatmap_matrix", "compute"),
              (energy, "heatmap_to_csv", "write"), (cli, "_render_report", "write"), (cli, "_write_output", "output"))
GRID_STAGES = ("argv", "read", "csv", "compute", "write", "output", "other")


@contextlib.contextmanager
def timed(spent: dict[str, int]):
    """Within the block, each GRID_TIMED function adds the nanoseconds of
    each of its calls to spent[stage]."""
    def timer(function, stage):
        def call(*args, **kwargs):
            t0 = time.perf_counter_ns()
            try:
                return function(*args, **kwargs)
            finally:
                spent[stage] += time.perf_counter_ns() - t0
        return call

    originals = [getattr(module, name) for module, name, _ in GRID_TIMED]
    for (module, name, stage), function in zip(GRID_TIMED, originals):
        setattr(module, name, timer(function, stage))
    try:
        yield
    finally:
        for (module, name, _), function in zip(GRID_TIMED, originals):
            setattr(module, name, function)


def outcome(job, code: int, out: io.StringIO) -> tuple[int, str, bytes | None]:
    """(exit code, stdout, -o file bytes or None) of a `job` just run."""
    if not job.output:
        return code, out.getvalue(), None
    with open(job.output, "rb") as fh:
        return code, out.getvalue(), fh.read()


def run_grid_job(job) -> tuple[tuple[int, str, bytes | None], list[int]]:
    """The `outcome` of one timed `cli.main` run of `job`, and the
    nanoseconds of each GRID_STAGES stage of it."""
    spent = dict.fromkeys(GRID_STAGES, 0)
    with contextlib.redirect_stdout(io.StringIO()) as out, timed(spent):
        t0 = time.perf_counter_ns()
        code = cli.main(job.argv)
        spent["other"] = time.perf_counter_ns() - t0 - sum(spent.values())
    return outcome(job, code, out), [spent[stage] for stage in GRID_STAGES]


def grid_main(opts) -> int:
    sys.dont_write_bytecode = True  # nothing lands under perfbench/
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import workloads

    times = {}
    with tempfile.TemporaryDirectory() as work:
        jobs = workloads.build("energy-fit", opts.seed, work)
        for job in jobs:
            if job.kind == "gen-grid" and cli.main(job.argv) != 0:
                print(f"{' '.join(job.argv)}: failed", file=sys.stderr)
                return 1
        jobs = [(job.kind + (f".{job.ref['stage']}" if job.kind == "heatmap" else ""), job)
                for job in jobs if job.kind in ("fit", "heatmap")]
        for round_ in range(opts.rounds):
            for kind, job in jobs:
                if round_ == 0:
                    with contextlib.redirect_stdout(io.StringIO()) as whole:
                        want = outcome(job, cli.main(job.argv), whole)
                got, stages = run_grid_job(job)
                if round_ == 0 and got != want:
                    print(f"{' '.join(job.argv)}: timed output differs from main's", file=sys.stderr)
                    return 1
                times.setdefault(kind, []).append(stages)

    print(f"energy-fit grid jobs, {opts.rounds} rounds, seed {opts.seed}: median us per job")
    print(f"{'job':<20}" + "".join(f"{name:>9}" for name in (*GRID_STAGES, "total")))
    for kind, rows in times.items():
        medians = [statistics.median(column) / 1000 for column in zip(*rows)]
        total = statistics.median(map(sum, rows)) / 1000
        print(f"{kind:<20}" + "".join(f"{m:9.1f}" for m in (*medians, total)))
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--programs", type=int, default=300)
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--grids", action="store_true", help="time energy-fit's fit and heatmap jobs instead")
    opts = parser.parse_args(argv)
    if opts.grids:
        return grid_main(opts)

    rng = random.Random(opts.seed)
    times = {kind: [[] for _ in STAGES] for kind, _ in JOBS}
    program_of = cli._program
    with tempfile.TemporaryDirectory() as work:
        paths = []
        for i in range(opts.programs):
            paths.append(os.path.join(work, f"p{i:03d}.cswp"))
            with open(paths[-1], "w") as fh:
                fh.write(serialize_program(random_program(rng)))
        jobs = [(kind, [kind.split(".")[0], path, *extra]) for path in paths for kind, extra in JOBS]
        for round_ in range(opts.rounds):
            for kind, job in jobs:
                with contextlib.redirect_stdout(io.StringIO()) as staged:
                    try:
                        stages = run_job(job)
                    finally:
                        cli._program = program_of
                if round_ == 0:
                    with contextlib.redirect_stdout(io.StringIO()) as whole:
                        code = cli.main(job)
                    if code != 0 or whole.getvalue() != staged.getvalue():
                        print(f"{' '.join(job)}: staged report differs from main's", file=sys.stderr)
                        return 1
                for column, ns in zip(times[kind], stages):
                    column.append(ns)

    print(f"{opts.programs} programs, {opts.rounds} rounds, seed {opts.seed}: median us per job")
    print(f"{'job':<16}" + "".join(f"{name:>9}" for name in (*STAGES, "total")))
    for kind, columns in times.items():
        medians = [statistics.median(column) / 1000 for column in columns]
        total = statistics.median(map(sum, zip(*columns))) / 1000
        print(f"{kind:<16}" + "".join(f"{m:9.2f}" for m in (*medians, total)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
