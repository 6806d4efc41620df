"""Reference answers for the benchmark's correctness checks.

Nothing here imports the code under test. Programs are read with a parser of the
canonical text format and run by a numpy interpreter that evaluates every
instruction once over a whole array of assignments; clause sets are solved
by truth tables.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass

import numpy as np

U64 = np.uint64


# ---------------------------------------------------------------------------
# programs

@dataclass
class Prog:
    width: int
    mem: int
    frees: list        # [(name, "01" | "full")] in declaration order
    insns: list        # [(mnemonic, [(kind, value)], mem_dest | None)]
    meta: dict         # fields of a "# meta" line, if any


_COMMENT = re.compile(r"#(?!0x).*")


def _operand(token: str):
    if token.startswith("#0x"):
        return ("c", int(token[3:], 16))
    if token.startswith("m["):
        return ("m", int(token[2:-1]))
    if token.startswith("free"):
        return ("f", token[4:])
    return ("o", int(token[1:]) - 1)


def parse(text: str) -> Prog:
    width = mem = None
    frees, insns, meta = [], [], {}
    for line in text.splitlines():
        if line.startswith("# meta "):
            meta = dict(kv.split("=", 1) for kv in line[len("# meta "):].split())
        line = _COMMENT.sub("", line).strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        if head == "width":
            width = int(rest)
        elif head == "mem":
            mem = int(rest)
        elif head == "free":
            name, domain = rest.split()
            frees.append((name, domain))
        else:
            mnemonic, _, operands = rest.partition(" ")
            operands, _, dest = operands.partition("->")
            srcs = [_operand(tok.strip()) for tok in operands.split(",")]
            insns.append((mnemonic, srcs, int(dest.strip()[2:-1]) if dest else None))
    return Prog(width, mem or 0, frees, insns, meta)


def _apply(mnemonic, a, w, mask):
    if mnemonic in ("mov", "store", "load"):
        return a[0] & mask
    if mnemonic == "add":
        return (a[0] + a[1]) & mask
    if mnemonic == "sub":
        return (a[0] - a[1]) & mask
    if mnemonic == "and":
        return a[0] & a[1]
    if mnemonic == "or":
        return a[0] | a[1]
    if mnemonic == "xor":
        return a[0] ^ a[1]
    if mnemonic == "not":
        return ~a[0] & mask
    if mnemonic == "shl":
        return (a[0] << (a[1] % U64(w))) & mask
    if mnemonic == "shr":
        return a[0] >> (a[1] % U64(w))
    if mnemonic == "ite":
        return np.where(a[0] != 0, a[1], a[2])
    if mnemonic == "eqz":
        return (a[0] == 0).astype(U64)
    raise ValueError(f"unknown mnemonic {mnemonic!r}")


def execute(prog: Prog, cols: dict, size: int):
    """Outputs and operand values of every instruction, each an array over
    `size` assignments; `cols` maps a free input to its values."""
    mask = U64((1 << prog.width) - 1)
    memory = [np.zeros(size, U64)] * prog.mem
    outputs, operands = [], []
    for mnemonic, srcs, dest in prog.insns:
        args = []
        for kind, value in srcs:
            if kind == "c":
                args.append(np.full(size, value, U64))
            elif kind == "f":
                args.append(cols[value])
            elif kind == "m":
                args.append(memory[value])
            else:
                args.append(outputs[value])
        out = _apply(mnemonic, args, prog.width, mask)
        if dest is not None:
            memory[dest] = out
        outputs.append(out)
        operands.append(args)
    return outputs, operands


def transitions(outputs) -> np.ndarray:
    """Hamming distance of each adjacent output pair, shape (n-1, size)."""
    pairs = [np.bitwise_count(outputs[i] ^ outputs[i + 1]) for i in range(len(outputs) - 1)]
    return np.stack(pairs).astype(np.int64) if pairs else np.zeros((0, len(outputs[0])), np.int64)


def radices(prog: Prog) -> list:
    return [2 if domain == "01" else 1 << prog.width for _, domain in prog.frees]


def worst_case(prog: Prog):
    """Exact (max, witness, assignment count); the witness is the first
    maximizing assignment in enumeration order (last input fastest)."""
    total = math.prod(radices(prog))
    index = np.arange(total, dtype=U64)
    cols = {}
    for (name, _), radix in reversed(list(zip(prog.frees, radices(prog)))):
        cols[name] = index % U64(radix)
        index = index // U64(radix)
    totals = transitions(execute(prog, cols, total)[0]).sum(axis=0)
    best = int(np.argmax(totals))
    return int(totals[best]), {name: int(cols[name][best]) for name, _ in prog.frees}, total


def at(prog: Prog, values: dict):
    """Outputs, operands and transitions of one run, as Python ints."""
    cols = {name: np.array([values[name]], U64) for name, _ in prog.frees}
    outputs, operands = execute(prog, cols, 1)
    outs = [int(o[0]) for o in outputs]
    ops = [[int(a[0]) for a in args] for args in operands]
    return outs, ops, [bin(outs[i] ^ outs[i + 1]).count("1") for i in range(len(outs) - 1)]


def sampled_max(prog: Prog, samples: int = 64) -> int:
    """Largest switching over a few seeded random assignments: a lower bound
    on the exact maximum for programs too large to enumerate."""
    rng = np.random.default_rng(0)
    cols = {
        name: rng.integers(0, radix, samples, dtype=U64, endpoint=False) if radix < 1 << 64
        else rng.integers(0, np.iinfo(U64).max, samples, dtype=U64, endpoint=True)
        for (name, _), radix in zip(prog.frees, radices(prog))
    }
    return int(transitions(execute(prog, cols, samples)[0]).sum(axis=0).max())


# ---------------------------------------------------------------------------
# clause sets, by truth table in lexicographic order (x1 most significant)

def _truth(n: int, clauses):
    index = np.arange(1 << n)
    var = [((index >> (n - 1 - k)) & 1).astype(bool) for k in range(n)]
    sat = [np.logical_or.reduce([var[l - 1] if l > 0 else ~var[-l - 1] for l in c]) for c in clauses]
    return var, np.array(sat)


def maxsat(n: int, clauses):
    """(best satisfied count, lexicographically first optimal assignment)."""
    var, sat = _truth(n, clauses)
    counts = sat.sum(axis=0)
    best = int(np.argmax(counts))
    return int(counts[best]), [bool(v[best]) for v in var]


def satisfiable(n: int, clauses) -> bool:
    return bool(np.logical_and.reduce(_truth(n, clauses)[1]).any())


def satisfies(assignment, clauses) -> bool:
    return all(any(assignment[abs(l) - 1] == (l > 0) for l in c) for c in clauses)


# ---------------------------------------------------------------------------
# measurement grids

def read_grid(text: str):
    rows = list(csv.reader(text.splitlines()))
    if rows[0] != ["op_a", "op_b", "h_in", "h_out", "power_mw"]:
        raise ValueError(f"bad header {rows[0]!r}")
    body = rows[1:]
    ints = np.array([[int(r[0], 16), int(r[1], 16), int(r[2]), int(r[3])] for r in body], np.int64)
    return ints, np.array([float(r[4]) for r in body])


def check_grid(text: str, ref: dict):
    ints, power = read_grid(text)
    w, size = ref["width"], 1 << ref["width"]
    a, b = np.meshgrid(np.arange(size, dtype=U64), np.arange(size, dtype=U64), indexing="ij")
    a, b = a.ravel(), b.ravel()
    if len(ints) != size * size or (ints[:, 0] != a).any() or (ints[:, 1] != b).any():
        return "grid does not list every operand pair in order"
    result = _apply(ref["op"], [a, b], w, U64(size - 1))
    h_in = np.bitwise_count(a) + np.bitwise_count(b)
    h_out = np.bitwise_count(result)
    if (ints[:, 2] != h_in).any() or (ints[:, 3] != h_out).any():
        return "grid Hamming weights differ from the operation's"
    noise = power - (ref["base"] + ref["c_in"] * h_in + ref["c_out"] * h_out)
    sigma, n = ref["sigma"], len(noise)
    if abs(noise.mean()) > 5 * sigma / math.sqrt(n) + 1e-6:
        return f"grid noise mean {noise.mean():.4f} is not 0"
    if abs(noise.std() - sigma) > 5 * sigma / math.sqrt(2 * n) + 1e-6:
        return f"grid noise std {noise.std():.4f} is not {sigma}"
    return None


def check_fit(fields: dict, grid_text: str, ref: dict):
    """The fit must recover each planted coefficient within 6 standard
    errors of the least-squares estimate at the planted noise level (plus
    the 0.0005 of the report's rounding)."""
    ints, _ = read_grid(grid_text)
    design = np.column_stack([np.ones(len(ints)), ints[:, 2], ints[:, 3]]).astype(float)
    se = ref["sigma"] * np.sqrt(np.diag(np.linalg.inv(design.T @ design)))
    for key, planted, err in zip(("base_mw", "c_in_mw", "c_out_mw"),
                                 (ref["base"], ref["c_in"], ref["c_out"]), se):
        if abs(float(fields[key]) - planted) > 6 * err + 0.0005:
            return f"fit {key}={fields[key]} is not within {6 * err:.4f} of planted {planted}"
    return None


def check_heatmap(heat_text: str, grid_text: str, ref: dict):
    ints, power = read_grid(grid_text)
    value = power.copy()
    if ref["stage"] in ("minus-out", "residual"):
        value -= ref["c_out"] * ints[:, 3]
    if ref["stage"] in ("minus-in", "residual"):
        value -= ref["c_in"] * ints[:, 2]
    size = 1 << ref["width"]
    expected = np.zeros((size, size))
    expected[ints[:, 0], ints[:, 1]] = value
    got = np.array([[float(v) for v in row] for row in csv.reader(heat_text.splitlines())])
    if got.shape != expected.shape or np.abs(got - expected).max() > 2e-6:
        return f"heatmap {ref['stage']} differs from the grid's decomposition"
    return None


def power_summary(tdual: float, powers) -> dict:
    single = tdual / 2
    dmin, dmax = min(powers) - tdual, max(powers) - tdual
    return {
        "p_tdual_mw": tdual, "p_tsingle_mw": single, "p_dmin_mw": dmin, "p_dmax_mw": dmax,
        "p_drng_mw": dmax - dmin, "pct_min": dmin / (single + dmin), "pct_max": dmax / (single + dmax),
    }


# the xs1l-paper model the energy jobs name: idle mW, c_in, c_out, clock Hz
XS1L = (164.0, 1.3, 4.4, 500e6)


def trace_energy_nj(outs, ops, input_term: bool) -> float:
    """One instruction per cycle; each transition costs idle power plus
    c_out per output bit flipped (plus c_in per operand-bus bit flipped)."""
    idle, c_in, c_out, f = XS1L
    bus, bus_dist = [0, 0, 0], []
    for args in ops:
        d = 0
        for k, v in enumerate(args):
            d += bin(bus[k] ^ v).count("1")
            bus[k] = v
        bus_dist.append(d)
    mw_cycles = 0.0
    for i in range(len(outs) - 1):
        mw_cycles += idle + c_out * bin(outs[i] ^ outs[i + 1]).count("1")
        if input_term:
            mw_cycles += c_in * bus_dist[i + 1]
    return mw_cycles / f * 1e6
