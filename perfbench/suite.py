"""Run every workload untraced and traced and print every metric with its unit.

    python3 perfbench/suite.py [--seed N] [--seconds S] [--record FILE --label TEXT]

For each workload this prints the end-to-end metrics of the untraced run
(including those that are not defined on every workload, such as
`assignments_per_s` and `kb_slack_bits`, and `fail_share`), the tracing
overhead (median traced pass minus median untraced pass of the traced run,
whose passes alternate, and against the untraced run's `wall_s`, which
also carries the machine's drift between runs; and, free of that drift, the
spans of one pass times the measured cost of one span). It fails unless every job
passed its checks, `analysis.brute_force_worst_case` takes most of the
traced wall time on reduce-solve, and energy-fit never calls into
`analysis` or known bits. With `--record` it appends the results,
with the machine facts and git sha, to a trajectory file as one point.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import EXTRA_UNITS, OUT  # noqa: E402
from tracing import span_cost  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"error: {' '.join(cmd)} exited {proc.returncode}\n{proc.stderr}")
    return json.loads((OUT / f"result-{workload}-seed{seed}-trace{trace}.json").read_text())


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--record", type=Path, help="trajectory JSON file to append to")
    p.add_argument("--label", default="", help="what the recorded point measures")
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]} | EXTRA_UNITS
    point = {"label": args.label, "seed": args.seed, "seconds": args.seconds, "workloads": {}}
    ok = True
    cost = span_cost()
    for workload in WORKLOADS:
        plain, traced = run(workload, args.seed, args.seconds, 0), run(workload, args.seed, args.seconds, 1)
        point["facts"] = {k: plain["facts"][k] for k in ("nproc", "python", "numpy", "machine", "git_sha")}
        e2e, layers = plain["metrics"], traced["metrics"]
        print(f"== {workload}  seed {args.seed}  attempted {plain['attempted']}  failed {plain['failed']}")
        for name, value in e2e.items():
            print(f"  {name:34s} {value:12.6g} {units[name]}")
        within = layers["trace.overhead_s"]
        across = layers["trace.wall_s"] - e2e["wall_s"]
        print(f"  {'tracing overhead':34s} {within:12.6g} s "
              f"({within / layers['trace.untraced_wall_s']:+.1%}, traced minus untraced passes of the "
              f"traced run; {across:+.4g} s against the untraced run's wall_s)")
        print(f"  {'tracing cost of one pass':34s} {layers['trace.spans'] * cost:12.6g} s "
              f"({layers['trace.spans']} spans at {cost * 1e6:.2f} us)")
        ok = ok and plain["failed"] == 0 and traced["failed"] == 0
        if workload == "reduce-solve":
            share = layers["analysis.brute_force_worst_case.busy_s"] / layers["trace.wall_s"]
            print(f"  {'brute_force share of traced wall':34s} {share:12.1%}")
            ok = ok and share > 0.5
        if workload == "energy-fit":
            reached = {n: v for n, v in layers.items()
                       if n.startswith(("analysis.", "knownbits.")) and n.endswith((".calls", ".insns")) and v}
            print(f"  {'analysis/knownbits calls':34s} {sum(reached.values()):12d}")
            ok = ok and not reached
        point["workloads"][workload] = {"end_to_end": e2e, "per_layer": layers}
        if workload == "reduce-solve":  # per-job times of the ROADMAP baseline case
            point["workloads"][workload]["job_ms"] = plain["job_ms"]
    if args.record:
        points = json.loads(args.record.read_text()) if args.record.exists() else []
        args.record.write_text(json.dumps(points + [point], indent=1) + "\n")
    print("suite ok" if ok else "suite FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
