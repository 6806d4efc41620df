"""Command-line front end.

Subcommands cover the full pipeline: run/solve/bound programs, build the
two clause-set reductions, generate measurement grids, fit the power model,
summarize power figures, and estimate trace energy. Each is a `_cmd_*`
function of the parsed arguments that returns its output: a report builds
its key=value pairs here, from the values `analysis` and `energy` return,
and `--format` renders them as text or CSV; any other command returns the
text of its one file format. `main` writes that output once, to stdout or
atomically (write-then-rename) to `-o FILE`. An option that several
subcommands take is declared once. All output is byte-deterministic for
fixed inputs and seeds. Exit codes: 0 success, 1 domain error, 2 usage
error.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import functools
import os
import re
import stat
import sys
import tempfile

from . import analysis, energy, reductions, sat
from .core import CswpError, Program, execute
from .textfmt import parse_program


def _read_file(path: str) -> bytes:
    """The bytes of the file `path` names, those `open(path, "rb").read()`
    returns, read with no file object: one `os.read` asks for a byte more
    than `fstat` gives. Reading goes on to EOF only where that read got some
    bytes but not the size: the extra byte (a file holding more than its
    size says, as under /proc), a short read (a regular file past the 2 GiB
    a Linux `read` returns at most), or any bytes of a file that is not
    regular (a pipe, whose size on some systems counts the bytes buffered).
    Each failure is the OSError `open()` raises, with its message; a
    directory is caught from the `fstat`, as `os.read` would report it
    without the path."""
    try:
        fd = os.open(path, os.O_RDONLY)  # not inherited by child processes (PEP 446)
        try:
            st = os.fstat(fd)
            mode, size = st.st_mode, st.st_size
            if stat.S_ISDIR(mode):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
            data = os.read(fd, size + 1)
            if data and (len(data) != size or not stat.S_ISREG(mode)):
                chunks = [data]
                while data := os.read(fd, max(size, 1 << 16)):
                    chunks.append(data)
                data = b"".join(chunks)
        finally:
            os.close(fd)
    except OSError as e:
        raise CswpError(f"cannot read {path}: {e}") from None
    return data


def _read_text(path: str) -> str:
    """The UTF-8 text of the file `path` names, with its line ends as
    written: `parse_program` and `str.split` read every one."""
    try:
        return _read_file(path).decode()
    except UnicodeDecodeError as e:
        raise CswpError(f"cannot read {path}: {e}") from None


def _write_output(path: str | None, text: str):
    """Write `text` to stdout for no path or `-`, else to the file `path`
    names, through any symlinks. A new or regular file is replaced atomically
    and keeps its permission bits, but not setuid, setgid or sticky (a new
    one gets 0o666 less the umask); any other file,
    such as a device or a pipe, is written in place."""
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    target = os.path.realpath(path)
    try:
        try:
            mode = os.stat(target).st_mode
        except FileNotFoundError:
            mode = None
        if mode is not None and not stat.S_ISREG(mode):
            with open(target, "w") as fh:
                fh.write(text)
            return
        if mode is None:
            umask = os.umask(0)
            os.umask(umask)
            mode = 0o666 & ~umask
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".cswp-tmp-")
        try:
            with os.fdopen(fd, "w") as fh:
                os.fchmod(fh.fileno(), mode & 0o777)
                fh.write(text)
            os.replace(tmp, target)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as e:  # strerror only: str(e) names the random temp file
        raise CswpError(f"cannot write {path}: {e.strerror}") from None


def _render_report(pairs: list[str], fmt: str) -> str:
    if fmt == "csv":
        return "key,value\n" + "".join(p.replace("=", ",", 1) + "\n" for p in pairs)
    return "".join(p + "\n" for p in pairs)


def _parse_assignment(pairs: list[str], program: Program) -> dict[str, int]:
    """The assignment of the --input NAME=VALUE pairs. NAME is the free
    input of that name if `program` declares one, else NAME without a
    leading "free" (the form `solve` prints); naming an input both ways is
    an error."""
    declared = {name for name, _ in program.free_inputs}
    assignment = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep:
            raise CswpError(f"bad --input {pair!r}, want name=value")
        name = key[4:] if key.startswith("free") else key
        if key in declared:
            if name != key and name in declared:
                raise CswpError(f"--input {key!r} names both free input {key!r} and free input {name!r}")
            name = key
        if name in assignment:
            raise CswpError(f"--input names {name!r} twice")
        try:
            assignment[name] = int(value, 0)
        except ValueError:
            raise CswpError(f"bad input value {value!r} for {name!r}") from None
    return assignment


def _program(args) -> Program:
    return parse_program(_read_text(args.program))


def _instance_from_args(args, cls):
    return cls(num_vars=args.vars, clauses=tuple(map(sat.parse_clause, args.clause)))


# ---------------------------------------------------------------------------
# subcommand bodies: a report returns its key=value pairs, a file command
# returns its text

def _cmd_run(args) -> list[str]:
    program = _program(args)
    trace = execute(program, _parse_assignment(args.input, program))
    pairs = [f"o{i + 1}=0x{v:x}" for i, v in enumerate(trace.outputs)]
    pairs += [f"transition.{i + 1}={t}" for i, t in enumerate(trace.transitions)]
    pairs.append(f"total={sum(trace.transitions)}")
    return pairs


def _cmd_solve(args) -> list[str]:
    budget = analysis.DEFAULT_BUDGET if args.budget is None else args.budget
    result = analysis.brute_force_worst_case(_program(args), budget=budget)
    witness = [f"witness.free{name}=0x{value:x}" for name, value in result.witness.items()]
    return [f"max={result.max_switching}", *witness, f"explored={result.explored}"]


# looked up in `analysis` at call time, so a wrapper put there is called
_BOUNDS = {
    "coarse": lambda program: analysis.coarse_upper_bound(program),
    "knownbits": lambda program: analysis.knownbits_upper_bound(program),
}


def _cmd_bound(args) -> list[str]:
    return [f"{args.method}={_BOUNDS[args.method](_program(args))}"]


def _cmd_reduce_maxsat(args) -> str:
    instance = _instance_from_args(args, sat.MaxSat2Instance)
    return reductions.serialize_reduced(reductions.reduce_maxsat2(instance, width=args.width))


def _cmd_reduce_sat_gap(args) -> str:
    instance = _instance_from_args(args, sat.SatInstance)
    gap = reductions.reduce_sat_gap(instance, width=args.width, factor=args.factor)
    return reductions.serialize_gap(gap)


def _cmd_fit(args) -> list[str]:
    fit = energy.fit_hamming_model(energy.measurements_from_csv(_read_file(args.grid)))
    return [f"base_mw={fit.base:.3f}", f"c_in_mw={fit.c_in:.3f}", f"c_out_mw={fit.c_out:.3f}",
            f"mae_mw={fit.mean_abs_error:.3f}"]


def _model_from_args(args) -> energy.EnergyModel:
    """The --model preset or file with any --c-in/--c-out override; the
    model's own checks cover the overrides too."""
    model = energy.load_model(args.model)
    overrides = {"c_in": args.c_in, "c_out": args.c_out}
    return dataclasses.replace(model, **{k: v for k, v in overrides.items() if v is not None})


def _cmd_gen_grid(args) -> str:
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
    return energy.measurements_to_csv(grid, args.width)


def _cmd_heatmap(args) -> str:
    grid = energy.measurements_from_csv(_read_file(args.grid))
    model = _model_from_args(args)
    matrix = energy.heatmap_matrix(grid, args.stage, c_in=model.c_in, c_out=model.c_out)
    return energy.heatmap_to_csv(matrix)


def _cmd_energy(args) -> list[str]:
    program = _program(args)
    model = energy.load_model(args.model)
    trace = execute(program, _parse_assignment(args.input, program))
    nj = energy.trace_energy(trace, model, include_input_term=args.input_term)
    return [
        f"switching={sum(trace.transitions)}",
        f"transitions={len(trace.transitions)}",
        f"energy_nj={nj:.6f}",
    ]


def _parse_powers(tokens: list[str]) -> list[float]:
    try:
        return [float(token) for token in tokens]
    except ValueError as e:
        raise CswpError(f"bad power value: {e}") from None


def _cmd_summarize_power(args) -> list[str]:
    powers = _parse_powers(args.powers)
    if args.powers_file:
        powers += _parse_powers(_read_text(args.powers_file).split())
    summary = energy.summarize_power(args.tdual, powers)
    return [f"p_tdual_mw={summary.p_tdual:.3f}", f"p_tsingle_mw={summary.p_tsingle:.3f}",
            f"p_dmin_mw={summary.p_dmin:.3f}", f"p_dmax_mw={summary.p_dmax:.3f}",
            f"p_drng_mw={summary.p_drng:.3f}", f"pct_min={summary.pct_min:.4f}",
            f"pct_max={summary.pct_max:.4f}"]


# ---------------------------------------------------------------------------

# a negative number as float() reads it (-9e9, -.5, -inf, -nan) or a clause
# that starts with a negated literal (-3, -x3): a value, where argparse's test
# reads no exponent and no infinity; case is ignored only where float() ignores it
_VALUE = re.compile(r"-(?:[x.]?\d|(?i:inf|nan))")


@functools.cache  # built once per process; parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cswp",
        description="Worst-case output-datapath switching analysis for straight-line bit-vector programs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.subcommands = sub.choices  # name -> its parser, for `_parse_args`

    def add(name, func, help_text, *shared):
        """A subcommand taking -o and the `shared` option groups, in that
        order, before its own options."""
        p = sub.add_parser(name, help=help_text, parents=[output, *shared])
        p._negative_number_matcher = _VALUE  # such a token is a value, never an option
        p.set_defaults(func=func)
        return p

    # the options several subcommands take, each declared once in a group;
    # a report (key=value lines) takes --format, the other commands write
    # their one file format
    output, report, program, grid, inputs, clauses, model, overrides = (
        argparse.ArgumentParser(add_help=False) for _ in range(8))
    output.add_argument("-o", "--output", default=None, help="output path (default: stdout)")
    report.add_argument("--format", choices=("text", "csv"), default="text")
    program.add_argument("program")
    grid.add_argument("grid", help="measurement CSV")
    inputs.add_argument("--input", action="append", default=[], metavar="NAME=VALUE",
                        help="free-input value (repeatable); accepts 0x hex")
    clauses.add_argument("--vars", type=int, required=True)
    clauses.add_argument("--clause", action="append", default=[], metavar="LITS",
                         help="clause literals, e.g. 'x1 ~x2' (repeatable)")
    clauses.add_argument("--width", type=int, default=8)
    model.add_argument("--model", default="xs1l-paper", help="preset name or model JSON")
    overrides.add_argument("--c-in", type=float, default=None, dest="c_in", help="override model c_in")
    overrides.add_argument("--c-out", type=float, default=None, dest="c_out", help="override model c_out")

    add("run", _cmd_run, "execute a program and report its switching", report, program, inputs)

    p = add("solve", _cmd_solve, "exact worst-case switching by exhaustive enumeration", report, program)
    p.add_argument("--budget", type=int, default=None)  # None: analysis.DEFAULT_BUDGET

    p = add("bound", _cmd_bound, "sound upper bound on worst-case switching", report, program)
    p.add_argument("--method", choices=tuple(_BOUNDS), required=True)

    add("reduce-maxsat", _cmd_reduce_maxsat, "embed a maxsat2 instance as a program", clauses)

    p = add("reduce-sat-gap", _cmd_reduce_sat_gap, "embed a SAT instance with a switching gap", clauses)
    p.add_argument("--factor", type=float, default=1.0)

    add("fit", _cmd_fit, "least-squares fit of the Hamming power model", report, grid)

    p = add("gen-grid", _cmd_gen_grid, "generate a synthetic measurement grid", model, overrides)
    p.add_argument("--op", required=True, choices=energy.GRID_MNEMONICS)
    p.add_argument("--width", type=int, default=8)
    p.add_argument("--sigma", type=float, default=0.0, help="noise std dev in mW")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--base", type=float, default=None, help="intercept mW (default: model idle power)")

    p = add("heatmap", _cmd_heatmap, "export a power decomposition matrix as CSV", grid, model, overrides)
    p.add_argument("--stage", choices=energy.HEATMAP_STAGES, required=True)

    p = add("energy", _cmd_energy, "estimate trace energy for one execution", report, program, inputs, model)
    p.add_argument("--input-term", action="store_true", dest="input_term",
                   help="add the operand-bus Hamming term")

    p = add("summarize-power", _cmd_summarize_power, "dynamic power range from measured test powers", report)
    p.add_argument("--tdual", type=float, required=True, help="dual-core idle power in mW")
    p.add_argument("powers", nargs="*", help="measured test powers in mW")
    p.add_argument("--powers-file", default=None, help="file of whitespace-separated powers")

    return parser


_PLAIN_KINDS = (argparse._StoreAction, argparse._AppendAction)


def _plain_args(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace | None:
    """The namespace `parser.parse_known_args(argv)` returns, built straight
    from the parser's own actions when argv is in the plain form, or None.

    In the plain form every token that starts with "-" is one of the
    parser's option strings, spelled out in full; a store or append option
    takes the next token, which does not start with "-", as its one value; a
    store_true option takes none; the other tokens, the positionals, form
    one run, which the store positionals take in order, one token each or
    the rest for a "*"; and every required option is given. These are the
    action kinds cswp's parsers declare. Values pass through argparse's own
    type conversion and choices check, and each action sets the namespace
    itself, so a repeated store option keeps its last value and an append
    option extends a copy of its default. No cswp option has a string
    default and a `type`, so defaults land as argparse puts them."""
    args = argparse.Namespace()
    for action in parser._actions:  # the defaults, as parse_known_args sets them
        if action.default is not argparse.SUPPRESS:
            setattr(args, action.dest, action.default)
    vars(args).update(parser._defaults)
    given, run, run_over = set(), [], False
    tokens = iter(argv)
    try:
        for token in tokens:
            if token[:1] != "-":
                if run_over:
                    return None
                run.append(token)
                continue
            run_over = bool(run)
            action = parser._option_string_actions.get(token)
            if type(action) is argparse._StoreTrueAction:
                value = None
            elif type(action) in _PLAIN_KINDS and action.nargs is None:
                value = next(tokens, "-")
                if value[:1] == "-":
                    return None
                parser._check_value(action, value := parser._get_value(action, value))
            else:
                return None
            action(parser, args, value, token)
            given.add(action)
        taken = 0  # tokens of the run the positionals have taken
        for action in parser._actions:
            if action.option_strings:
                if action.required and action not in given:
                    return None
            elif action.nargs == "*":
                action(parser, args, parser._get_values(action, run[taken:]))
                taken = len(run)
            elif action.nargs is None and taken < len(run):
                parser._check_value(action, value := parser._get_value(action, run[taken]))
                action(parser, args, value)
                taken += 1
            else:
                return None
    except argparse.ArgumentError:
        return None
    return args if taken == len(run) else None


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """The parsed arguments of `argv`. argv that starts with a subcommand
    and is in the plain form is parsed by `_plain_args` from that
    subcommand's parser, the one the full parser hands the rest of argv to;
    the full parser takes any other argv, so its usage text, errors and exit
    code 2 are argparse's. A token `_VALUE` matches is never an option."""
    parser = _build_parser()
    command = parser.subcommands.get(argv[0]) if argv else None
    args = None if command is None else _plain_args(command, argv[1:])
    return parser.parse_args(argv) if args is None else args


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        output = args.func(args)
        if "format" in args:  # a report: its key=value pairs
            output = _render_report(output, args.format)
        _write_output(args.output, output)
    except CswpError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
