"""Benchmark of the cswp command line, driven in-process the way a user drives it.

    python3 perfbench/run.py --workload reduce-solve|corpus|energy-fit \\
        --seed N --seconds S --trace 0|1

One client, one process, one thread, closed loop: the jobs of a workload run
back to back through `cswp.cli.main(argv)` on files generated from the seed.
A pass is one run of the workload's whole job list; passes repeat until
`--seconds` have gone by, so a run always ends on a whole pass. Outputs are
checked against independent references after the timed passes, and every
later pass must reproduce the first pass's outputs byte for byte.

With `--trace 0` the run reports the end-to-end metrics of BENCHMARK.json;
`setup_s` is the median time of fresh interpreters that import cswp and
generate the workload's files, started one before the timed passes and one
after each of them. The gated times are normalised (`.norm`): the speed of a
shared host drifts by up to half for tens of seconds at a time, so during
untraced passes a timer signal times one call of a fixed pure-Python loop
every `CAL_PERIOD_S` (see `SpeedProbe`), and each job's time, less the time
spent in those calls, is scaled by `CAL_REF_S` over the median loop time
around the job. A normalised time is what the job would take on a machine
where the loop takes `CAL_REF_S`; the raw wall-clock times are printed and
recorded beside them.

With `--trace 1` untraced and traced passes alternate, spans are recorded
around the cswp functions the CLI reaches (see tracing.py), and the run
reports the per-layer metrics. The last line of standard output is one JSON
object; the lines before it give every metric with its unit, the machine
facts, and the first failures. Records and spans go to `.perfbench_out/` at
the checkout's root.

`--size smoke` runs the smallest size of a workload and `--plant-fault`
corrupts one answer before the checks; both are for selftest.py.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 7
# Normalised times are seconds on a machine where one `_cal_loop()` call
# takes CAL_REF_S; the loop is timed every CAL_PERIOD_S of wall time, and a
# job is normalised by the samples within CAL_WINDOW_S of it, or by the
# CAL_MIN_SAMPLES nearest ones where fewer fall there.
CAL_REF_S = 50e-6
CAL_LOOPS = 400
CAL_PERIOD_S = 0.01
CAL_WINDOW_S = 0.1
CAL_MIN_SAMPLES = 5


@dataclass
class Result:
    seconds: float
    norm: float
    rc: int | None
    stdout: str
    stderr: str
    error: str | None = None
    readback: dict | None = None
    digest: str = ""
    start: float = 0.0


@dataclass
class Pass:
    traced: bool
    wall: float
    results: list
    layers: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)


def parse_args(argv=None):
    from workloads import SIZES, WORKLOADS

    p = argparse.ArgumentParser(description="cswp benchmark: one workload, one run.")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=tuple(SIZES), default="full")
    p.add_argument("--plant-fault", action="store_true",
                   help="corrupt one recorded answer before the checks")
    p.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_cswp():
    """Import cswp from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "cswp" / "__init__.py").is_file():
        raise SystemExit(f"error: no cswp sources at {src / 'cswp'}")
    sys.path.insert(0, str(src))
    import cswp.cli  # noqa: F401


# ---------------------------------------------------------------------------
# jobs and passes

def readback(job, stdout: str) -> dict:
    """Read the solver's answer back through the reduction's file metadata."""
    from checks import fields

    reductions = sys.modules["cswp.reductions"]
    f = fields(stdout)
    witness = {k[len("witness.free"):]: int(v, 16) for k, v in f.items() if k.startswith("witness.free")}
    with open(job.program) as fh:
        text = fh.read()
    if job.readback == "maxsat":
        reduced = reductions.load_reduced(text)
        return {"assignment": reductions.recover_assignment(reduced, witness)}
    gap = reductions.load_gap(text)
    return {"assignment": reductions.recover_assignment(gap, witness),
            "satisfiable": int(f["max"]) >= gap.gap_bits}


def run_job(job) -> Result:
    cli = sys.modules["cswp.cli"]
    out, err = io.StringIO(), io.StringIO()
    rc, error, back = None, None, None
    start = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(job.argv)
            if job.readback and rc == 0:
                back = readback(job, out.getvalue())
    except SystemExit as e:
        rc = e.code if isinstance(e.code, int) else 1
    except Exception:  # a crashing job is a failed job; the run goes on
        error = "raised " + traceback.format_exc().strip().splitlines()[-1]
    return Result(perf_counter() - start, 0.0, rc, out.getvalue(), err.getvalue(), error, back,
                  start=start)


def _cal_loop():
    acc, table = 0, {}
    for i in range(CAL_LOOPS):
        k = i & 31
        acc = (acc + table.get(k, i) * 3) & 0xFFFF
        table[k] = acc
    return acc


class SpeedProbe:
    """While active, a SIGALRM handler times one `_cal_loop()` call every
    `CAL_PERIOD_S`; `samples` holds (start, seconds) in time order."""

    def __init__(self):
        self.samples = []

    def _handler(self, signum, frame):
        start = perf_counter()
        _cal_loop()
        self.samples.append((start, perf_counter() - start))

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, CAL_PERIOD_S, CAL_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def normalise(self, results):
        """Take the time of the probe's calls out of each result's `seconds`
        and set its `norm` from the median loop time around the job."""
        times = [t for t, _ in self.samples]
        for r in results:
            end = r.start + r.seconds
            i, j = bisect.bisect_left(times, r.start), bisect.bisect_left(times, end)
            r.seconds -= sum(d for _, d in self.samples[i:j])
            i = bisect.bisect_left(times, r.start - CAL_WINDOW_S)
            j = bisect.bisect_left(times, end + CAL_WINDOW_S)
            while j - i < CAL_MIN_SAMPLES and (i > 0 or j < len(times)):
                i, j = max(i - 1, 0), min(j + 1, len(times))
            loop = statistics.median(d for _, d in self.samples[i:j])
            r.norm = r.seconds * CAL_REF_S / loop


def run_pass(jobs, pass_no: int, tracer) -> tuple[float, list]:
    """Runs every job once; returns the sum of the job times and the results.
    Untraced passes run under a `SpeedProbe` and normalise each job's time."""
    gc.collect()
    results = []
    with contextlib.nullcontext() if tracer else SpeedProbe() as probe:
        for i, job in enumerate(jobs):
            if tracer:
                tracer.job = f"{pass_no}:{i}"
            results.append(run_job(job))
    if probe:
        probe.normalise(results)
    wall = sum(r.seconds for r in results)
    for job, r in zip(jobs, results):
        try:
            output = Path(job.output).read_bytes() if job.output else b""
        except OSError:
            output = b"missing"
        r.digest = hashlib.sha256(repr((r.rc, r.stdout, r.readback)).encode() + output).hexdigest()
        if pass_no:
            r.stdout = r.stderr = ""
    return wall, results


def run_passes(jobs, seconds: float, tracer, between=None) -> tuple[list, float]:
    """Whole passes until `seconds` are spent; with a tracer, untraced and
    traced passes alternate, starting untraced, and at least one of each runs.
    `between()`, if given, is called after each pass. Also returns the peak
    resident memory in MiB after the first pass, which has run every job
    once; later passes only add this module's records."""
    import tracing

    passes, rss_mb = [], 0.0
    start = perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            first = len(tracer.spans)
            tracer.counts.clear()
            tracer.install()
        try:
            wall, results = run_pass(jobs, len(passes), tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        p = Pass(traced, wall, results)
        if traced:
            p.layers = tracing.layer_times(tracer.spans, first)
            p.counts = tracer.counts.copy()
        passes.append(p)
        if len(passes) == 1:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if between:
            between()
        if perf_counter() - start >= seconds and (tracer is None or len(passes) >= 2):
            return passes, rss_mb


# ---------------------------------------------------------------------------
# checks

def plant_fault(jobs, results):
    """Change the first digit of the first solve or fit answer."""
    for job, r in zip(jobs, results):
        if job.kind in ("solve", "fit") and r.rc == 0:
            r.stdout = re.sub(r"\d", lambda m: str((int(m.group()) + 1) % 10), r.stdout, count=1)
            return


def check(jobs, passes):
    """(failed job runs, first failure reasons, known-bits slack values)."""
    from checks import Checker

    checker = Checker()
    first = passes[0].results
    reasons = {}
    for i, (job, r) in enumerate(zip(jobs, first)):
        try:
            reason = checker.check(job, r)
        except Exception as e:  # malformed output disagrees with the reference
            reason = f"check raised {type(e).__name__}: {e}"
        if reason:
            reasons[i] = reason
    failed, notes = 0, []
    for n, p in enumerate(passes):
        for i, r in enumerate(p.results):
            reason = r.error or (f"exit code {r.rc}" if r.rc != 0 else None) or reasons.get(i)
            if not reason and r.digest != first[i].digest:
                reason = "output differs from the first pass"
            if reason:
                failed += 1
                if len(notes) < 20:
                    notes.append(f"pass {n} {jobs[i].name}: {reason}")
    return failed, notes, checker.kb_slack


# ---------------------------------------------------------------------------
# metrics

class SetupProbes:
    """Wall times of fresh interpreters that import cswp and write the
    workload's files, each into its own directory. `probe()` runs one while
    fewer than `want` have run; `finish()` runs the rest."""

    def __init__(self, args, work: Path):
        self.args, self.work, self.times = args, work, []
        self.want = SETUP_PROBES if args.size == "full" else 1

    def probe(self):
        if len(self.times) >= self.want:
            return
        a = self.args
        cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
               str(self.work / f"probe{len(self.times)}"), "--workload", a.workload,
               "--seed", str(a.seed), "--size", a.size]
        start = perf_counter()
        # no timeout: Popen.wait polls every 50 ms when given one
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        self.times.append(perf_counter() - start)

    def finish(self) -> list:
        while len(self.times) < self.want:
            self.probe()
        return self.times


def end_to_end(jobs, passes, setup, rss_mb, failed, attempted, kb_slack) -> dict:
    from checks import fields

    untraced = [p for p in passes if not p.traced]
    metrics = {"setup_s": statistics.median(setup)}
    for suffix, t in (("", lambda r: r.seconds), (".norm", lambda r: r.norm)):
        latency = [t(r) * 1000 for p in untraced for r in p.results]
        metrics["wall_s" + suffix] = statistics.median(sum(map(t, p.results)) for p in untraced)
        metrics["jobs_per_s" + suffix] = len(latency) / sum(latency) * 1000
        metrics["job_ms.p50" + suffix] = statistics.median(latency)
        if len(latency) >= 100:
            metrics["job_ms.p90" + suffix] = statistics.quantiles(latency, n=10)[-1]
    metrics["job_ms.samples"] = len(latency)
    metrics["peak_rss_mb"] = rss_mb
    metrics["fail_share"] = failed / attempted
    # only the first pass keeps its output; later passes reproduce it exactly
    explored = {i: int(fields(r.stdout).get("explored", 0))
                for i, (job, r) in enumerate(zip(jobs, passes[0].results)) if job.kind == "solve"}
    solves = [(i, p.results[i]) for p in untraced for i in explored if p.results[i].rc == 0]
    if solves:
        metrics["assignments_per_s"] = (sum(explored[i] for i, _ in solves)
                                        / sum(r.seconds for _, r in solves))
    if kb_slack:
        metrics["kb_slack_bits"] = statistics.mean(kb_slack)
    return metrics


EXTRA_UNITS = {"wall_s": "s", "jobs_per_s": "1/s", "job_ms.p50": "ms", "job_ms.p90": "ms",
               "job_ms.p90.norm": "ms", "job_ms.samples": "count", "fail_share": "ratio",
               "assignments_per_s": "1/s", "kb_slack_bits": "bits"}


def git_sha() -> str | None:
    """HEAD's commit read from .git without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def facts(args) -> dict:
    import numpy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "machine": platform.machine(), "git_sha": git_sha(),
    }


def bench(args, spec, work: Path) -> int:
    import tracing
    import workloads

    probes = None if args.trace else SetupProbes(args, work)
    if probes:
        probes.probe()
    jobs = workloads.build(args.workload, args.seed, str(work / "inputs"), args.size)
    tracer = tracing.Tracer() if args.trace else None
    passes, rss_mb = run_passes(jobs, args.seconds, tracer, probes and probes.probe)
    setup = probes.finish() if probes else []
    if args.plant_fault:
        plant_fault(jobs, passes[0].results)
    failed, notes, kb_slack = check(jobs, passes)
    attempted = len(jobs) * len(passes)

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]} | EXTRA_UNITS
    if tracer:
        traced = [(p.wall, p.layers, p.counts) for p in passes if p.traced]
        untraced = [p.wall for p in passes if not p.traced]
        slack = statistics.mean(kb_slack) if kb_slack else 0.0
        computed = tracing.layer_metrics(traced, untraced, slack)
    else:
        computed = end_to_end(jobs, passes, setup, rss_mb, failed, attempted, kb_slack)
    wanted = spec["per_layer"] if tracer else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in computed]
    if missing:
        raise SystemExit(f"error: metrics not computed: {', '.join(missing)}")

    info = facts(args)
    record = {"facts": info, "attempted": attempted, "failed": failed, "failures": notes,
              "pass_walls": [p.wall for p in passes],
              "pass_norm": [sum(r.norm for r in p.results) for p in passes], "traced": [p.traced for p in passes],
              "setup_runs": setup, "metrics": computed,
              "job_ms": {job.name: statistics.median(p.results[i].seconds * 1000 for p in passes
                                                     if not p.traced)
                         for i, job in enumerate(jobs)},
              "job_ms.norm": {job.name: statistics.median(p.results[i].norm * 1000
                                                          for p in passes if not p.traced)
                              for i, job in enumerate(jobs)}}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer:
        spans = {"fields": ["name", "start", "end", "parent", "job"], "spans": tracer.spans}
        (OUT / f"spans-{stem}.json").write_text(json.dumps(spans) + "\n")

    for note in notes:
        print(f"FAIL {note}")
    for name, value in computed.items():
        print(f"{name:48s} {value:.6g} {units[name]}")
    print("facts " + json.dumps(info))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    import_cswp()
    import workloads

    if args.setup_probe:
        workloads.build(args.workload, args.seed, args.setup_probe, args.size)
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    try:
        return bench(args, spec, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
