"""Line coverage of `src/cswp` with the standard library only (the
`coverage` package is not a dependency), by the test suite or by the
benchmark's jobs.

    python tests/linecov.py [pytest arguments]
    python tests/linecov.py --workloads [--seed N]   (seed 7 by default)
    python tests/linecov.py --gap [--seed N]

The first form runs pytest in this process (by default on the whole suite,
quietly); the second writes every job of the three benchmark workloads, at
the full size that the benchmark scores, with `perfbench/workloads.py` to a
temporary directory and runs them in order as `perfbench/run.py` runs one
job: through `cswp.cli.main`, and a solve job of a reduction with its
read-back. Each runs under a `sys.settrace` hook that records every line
executed in `src/cswp`, then prints each executable line that never ran as
`path:line: source`, and a total: with `--workloads`, the lines that no
benchmark job reaches. The third form runs both in one process under the
same hook, the jobs first, so that the lines a module runs as it is
imported count for the jobs that import it, as in a benchmark run. It
prints each line that some test runs and no job runs, and their count: the
routes the suite holds that no workload takes. A file's executable lines
are the line numbers of every code object compiled from it. Code run in a
subprocess (the start-up tests) is not seen. The exit status is pytest's,
or with `--workloads` 1 if a job failed (with `--gap`, either). The
benchmark's modules are imported without writing bytecode next to them.
This file is not a test module: pytest does not collect it, and it is no
part of the tier-1 run. The hook slows the suite down about twofold.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import threading
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "cswp")


def executable_lines(path: str) -> set[int]:
    with open(path, encoding="utf-8") as fh:
        code = compile(fh.read(), path, "exec")
    lines, stack = set(), [code]
    while stack:
        co = stack.pop()
        lines.update(line for _, _, line in co.co_lines() if line)
        stack.extend(c for c in co.co_consts if isinstance(c, types.CodeType))
    return lines


def traced(run) -> tuple[object, dict[str, set[int]]]:
    """`run()`'s result and the lines of `src/cswp` it executed, by file."""
    ran: dict[str, set[int]] = {}  # source file -> lines seen
    ours: dict[str, set[int] | None] = {}  # co_filename -> its set in `ran`, None outside src/cswp

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in ours:
            path = os.path.realpath(filename)
            ours[filename] = ran.setdefault(path, set()) if os.path.dirname(path) == SRC else None
        seen = ours[filename]
        if seen is None:
            return None
        seen.add(frame.f_lineno)  # a call event: the def line, or where a generator resumes

        def line(frame, event, arg):
            seen.add(frame.f_lineno)
            return line

        return line

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        result = run()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return result, ran


def report(ran: dict[str, set[int]], only: dict[str, set[int]] | None = None):
    """Print each executable line not in `ran`, of those in `only` where it
    is given, and their count."""
    total = missed = 0
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(SRC, name)
        lines = executable_lines(path)
        if only is not None:
            lines &= only.get(path, set())
        with open(path, encoding="utf-8") as fh:
            source = fh.read().splitlines()
        total += len(lines)
        for number in sorted(lines - ran.get(path, set())):
            missed += 1
            print(f"{os.path.relpath(path, ROOT)}:{number}: {source[number - 1].strip()}")
    if only is None:
        print(f"{total - missed} of {total} executable lines in src/cswp ran; {missed} did not")
    else:
        print(f"{missed} lines of src/cswp run in some test and in no benchmark job")


def suite_lines(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    import pytest

    args = args or ["-q", "-p", "no:cacheprovider", os.path.join(ROOT, "tests")]
    status, ran = traced(lambda: pytest.main(args))
    return int(status), ran


def workload_lines(seed: int) -> tuple[bool, dict[str, set[int]]]:
    """Whether every job ran, and the lines the jobs ran."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [os.path.join(ROOT, "perfbench"), os.path.dirname(SRC)]
    import run
    import workloads

    def run_jobs():
        # traced, since a benchmark run imports it too; run_job finds it in sys.modules
        import cswp.cli  # noqa: F401

        return [run.run_job(job) for job in jobs]

    with tempfile.TemporaryDirectory() as work:
        jobs = [job for name in workloads.WORKLOADS
                for job in workloads.build(name, seed, os.path.join(work, name))]
        results, ran = traced(run_jobs)
    del sys.path[:2]  # a suite run after the jobs imports no module from perfbench/
    failed = [(job, r) for job, r in zip(jobs, results) if r.rc != 0 or r.error]
    for job, r in failed:
        print(f"failed: {job.name} (exit {r.rc}) {r.error or r.stderr.strip()}", file=sys.stderr)
    print(f"{len(jobs)} jobs at seed {seed}; {len(failed)} failed")
    return not failed, ran


def main(argv: list[str]) -> int:
    if argv[:1] not in (["--workloads"], ["--gap"]):
        status, ran = suite_lines(argv)
        report(ran)
        return status
    parser = argparse.ArgumentParser(prog=f"linecov.py {argv[0]}")
    parser.add_argument("--seed", type=int, default=7)
    options = parser.parse_args(argv[1:])
    ok, jobs_ran = workload_lines(options.seed)
    if argv[0] == "--workloads":
        report(jobs_ran)
        return int(not ok)
    status, suite_ran = suite_lines([])
    report(jobs_ran, only=suite_ran)
    return status or int(not ok)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
