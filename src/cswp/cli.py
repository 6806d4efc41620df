"""Command-line front end.

Subcommands cover the full pipeline: run/solve/bound programs, build and
verify the two clause-set reductions, generate measurement grids, fit the
power model, summarize power figures, and estimate trace energy. All output
is byte-deterministic for fixed inputs and seeds; files are written
atomically (write-then-rename). Exit codes: 0 success, 1 domain error,
2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys
import tempfile

from . import analysis, energy, reductions, sat
from .core import CswpError, execute
from .textfmt import parse_program


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise CswpError(f"cannot read {path}: {e}") from None


def _write_output(path: str | None, text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".cswp-tmp-")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as e:  # strerror only: str(e) names the random temp file
        raise CswpError(f"cannot write {path}: {e.strerror}") from None


def _render_report(pairs: list[str], fmt: str) -> str:
    if fmt == "csv":
        return "key,value\n" + "".join(p.replace("=", ",", 1) + "\n" for p in pairs)
    return "".join(p + "\n" for p in pairs)


def _parse_assignment(pairs: list[str]) -> dict[str, int]:
    assignment = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        if not sep:
            raise CswpError(f"bad --input {pair!r}, want name=value")
        if name.startswith("free"):
            name = name[4:]
        try:
            assignment[name] = int(value, 0)
        except ValueError:
            raise CswpError(f"bad input value {value!r} for {name!r}") from None
    return assignment


def _instance_from_args(args, cls):
    clauses = [sat.parse_clause(c) for c in args.clause or []]
    return cls(num_vars=args.vars, clauses=tuple(clauses))


# ---------------------------------------------------------------------------
# subcommand bodies

def _cmd_run(args) -> int:
    program = parse_program(_read_text(args.program))
    trace = execute(program, _parse_assignment(args.input))
    report = trace.switching()
    pairs = [f"o{i + 1}=0x{bv.value:x}" for i, bv in enumerate(trace.outputs)]
    pairs += [f"transition.{i + 1}={t}" for i, t in enumerate(report.transitions)]
    pairs.append(f"total={report.total}")
    _write_output(args.output, _render_report(pairs, args.format))
    return 0


def _cmd_solve(args) -> int:
    program = parse_program(_read_text(args.program))
    budget = analysis.DEFAULT_BUDGET if args.budget is None else args.budget
    result = analysis.brute_force_worst_case(program, budget=budget)
    _write_output(args.output, _render_report(result.report_lines(), args.format))
    return 0


def _cmd_bound(args) -> int:
    program = parse_program(_read_text(args.program))
    if args.method == "coarse":
        pairs = [f"coarse={analysis.coarse_upper_bound(program)}"]
    else:
        pairs = [f"knownbits={analysis.knownbits_upper_bound(program)}"]
    _write_output(args.output, _render_report(pairs, args.format))
    return 0


def _cmd_reduce_maxsat(args) -> int:
    instance = _instance_from_args(args, sat.MaxSat2Instance)
    reduced = reductions.reduce_maxsat2(instance, width=args.width)
    _write_output(args.output, reductions.serialize_reduced(reduced))
    return 0


def _cmd_reduce_sat_gap(args) -> int:
    instance = _instance_from_args(args, sat.SatInstance)
    gap = reductions.reduce_sat_gap(instance, width=args.width, factor=args.factor)
    _write_output(args.output, reductions.serialize_gap(gap))
    return 0


def _cmd_checksat_verify(args) -> int:
    instance = _instance_from_args(args, sat.SatInstance)
    program, result_index = reductions.build_checksat_program(instance, width=args.width)
    if args.assign:
        bits = args.assign.replace(",", "")
        if set(bits) - {"0", "1"}:
            raise CswpError(f"bad --assign {args.assign!r}: each value must be 0 or 1")
        combos = [[bit == "1" for bit in bits]]
        if len(combos[0]) != instance.num_vars:
            raise CswpError(f"--assign covers {len(combos[0])} of {instance.num_vars} variables")
    else:
        analysis.check_budget(1 << instance.num_vars, analysis.DEFAULT_BUDGET)
        combos = [
            [(i >> k) & 1 == 1 for k in range(instance.num_vars)]
            for i in range(1 << instance.num_vars)
        ]
    pairs = []
    ok = True
    for bools in combos:
        assignment = {str(i): int(b) for i, b in enumerate(bools)}
        got = execute(program, assignment).outputs[result_index].value
        expected = 1 if sat.all_satisfied(instance, bools) else 0
        ok = ok and got == expected
        key = "".join("1" if b else "0" for b in bools)
        pairs.append(f"assign.{key or 'none'}=result:{got},expected:{expected}")
    pairs.append(f"ok={'true' if ok else 'false'}")
    _write_output(args.output, _render_report(pairs, args.format))
    return 0 if ok else 1


def _cmd_fit(args) -> int:
    grid = energy.measurements_from_csv(_read_text(args.grid))
    fit = energy.fit_hamming_model(grid)
    _write_output(args.output, _render_report(fit.report_lines(), args.format))
    return 0


def _model_from_args(args) -> energy.EnergyModel:
    """The --model preset or file with any --c-in/--c-out override; the
    model's own checks cover the overrides too."""
    model = energy.load_model(args.model)
    overrides = {"c_in": args.c_in, "c_out": args.c_out}
    return dataclasses.replace(model, **{k: v for k, v in overrides.items() if v is not None})


def _cmd_gen_grid(args) -> int:
    model = _model_from_args(args)
    base = args.base if args.base is not None else model.p_idle_single
    grid = energy.gen_synthetic_grid(
        width=args.width,
        mnemonic=args.op,
        model=model,
        base=base,
        noise_sigma=args.sigma,
        seed=args.seed,
    )
    _write_output(args.output, energy.measurements_to_csv(grid, args.width))
    return 0


def _cmd_heatmap(args) -> int:
    grid = energy.measurements_from_csv(_read_text(args.grid))
    model = _model_from_args(args)
    matrix = energy.heatmap_matrix(grid, args.stage, c_in=model.c_in, c_out=model.c_out)
    _write_output(args.output, energy.heatmap_to_csv(matrix))
    return 0


def _cmd_energy(args) -> int:
    program = parse_program(_read_text(args.program))
    model = energy.load_model(args.model)
    trace = execute(program, _parse_assignment(args.input))
    report = trace.switching()
    nj = energy.trace_energy(trace, model, include_input_term=args.input_term)
    pairs = [
        f"switching={report.total}",
        f"transitions={len(report.transitions)}",
        f"energy_nj={nj:.6f}",
    ]
    _write_output(args.output, _render_report(pairs, args.format))
    return 0


def _parse_powers(tokens: list[str]) -> list[float]:
    try:
        return [float(token) for token in tokens]
    except ValueError as e:
        raise CswpError(f"bad power value: {e}") from None


def _cmd_summarize_power(args) -> int:
    powers = _parse_powers(args.powers)
    if args.powers_file:
        powers += _parse_powers(_read_text(args.powers_file).split())
    summary = energy.summarize_power(args.tdual, powers)
    _write_output(args.output, _render_report(summary.report_lines(), args.format))
    return 0


# ---------------------------------------------------------------------------

@functools.cache  # built once per process; parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cswp",
        description="Worst-case output-datapath switching analysis for straight-line bit-vector programs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("-o", "--output", default=None, help="output path (default: stdout)")
        p.add_argument("--format", choices=("text", "csv"), default="text")
        return p

    p = add("run", _cmd_run, "execute a program and report its switching")
    p.add_argument("program")
    p.add_argument("--input", action="append", default=[], metavar="NAME=VALUE",
                   help="free-input value (repeatable); accepts 0x hex")

    p = add("solve", _cmd_solve, "exact worst-case switching by exhaustive enumeration")
    p.add_argument("program")
    p.add_argument("--budget", type=int, default=None)  # None: analysis.DEFAULT_BUDGET

    p = add("bound", _cmd_bound, "sound upper bound on worst-case switching")
    p.add_argument("program")
    p.add_argument("--method", choices=("coarse", "knownbits"), required=True)

    p = add("reduce-maxsat", _cmd_reduce_maxsat, "embed a maxsat2 instance as a program")
    p.add_argument("--vars", type=int, required=True)
    p.add_argument("--clause", action="append", default=[], metavar="LITS",
                   help="clause literals, e.g. 'x1 ~x2' (repeatable)")
    p.add_argument("--width", type=int, default=8)

    p = add("reduce-sat-gap", _cmd_reduce_sat_gap, "embed a SAT instance with a switching gap")
    p.add_argument("--vars", type=int, required=True)
    p.add_argument("--clause", action="append", default=[], metavar="LITS")
    p.add_argument("--width", type=int, default=8)
    p.add_argument("--factor", type=float, default=1.0)

    p = add("checksat-verify", _cmd_checksat_verify, "check the emitted clause evaluator against direct evaluation")
    p.add_argument("--vars", type=int, required=True)
    p.add_argument("--clause", action="append", default=[], metavar="LITS")
    p.add_argument("--width", type=int, default=8)
    p.add_argument("--assign", default=None, metavar="BITS", help="single assignment, e.g. 1,0,1 (default: all)")

    p = add("fit", _cmd_fit, "least-squares fit of the Hamming power model")
    p.add_argument("grid", help="measurement CSV")

    p = add("gen-grid", _cmd_gen_grid, "generate a synthetic measurement grid")
    p.add_argument("--op", required=True, choices=energy.GRID_MNEMONICS)
    p.add_argument("--width", type=int, default=8)
    p.add_argument("--sigma", type=float, default=0.0, help="noise std dev in mW")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--model", default="xs1l-paper", help="preset name or model JSON")
    p.add_argument("--base", type=float, default=None, help="intercept mW (default: model idle power)")
    p.add_argument("--c-in", type=float, default=None, dest="c_in", help="override model c_in")
    p.add_argument("--c-out", type=float, default=None, dest="c_out", help="override model c_out")

    p = add("heatmap", _cmd_heatmap, "export a power decomposition matrix as CSV")
    p.add_argument("grid")
    p.add_argument("--stage", choices=energy.HEATMAP_STAGES, required=True)
    p.add_argument("--model", default="xs1l-paper")
    p.add_argument("--c-in", type=float, default=None, dest="c_in")
    p.add_argument("--c-out", type=float, default=None, dest="c_out")

    p = add("energy", _cmd_energy, "estimate trace energy for one execution")
    p.add_argument("program")
    p.add_argument("--input", action="append", default=[], metavar="NAME=VALUE")
    p.add_argument("--model", default="xs1l-paper")
    p.add_argument("--input-term", action="store_true", dest="input_term",
                   help="add the operand-bus Hamming term")

    p = add("summarize-power", _cmd_summarize_power, "dynamic power range from measured test powers")
    p.add_argument("--tdual", type=float, required=True, help="dual-core idle power in mW")
    p.add_argument("powers", nargs="*", help="measured test powers in mW")
    p.add_argument("--powers-file", default=None, help="file of whitespace-separated powers")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CswpError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
