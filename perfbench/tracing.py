"""Spans around the public cswp functions the CLI reaches.

`Tracer.install()` replaces each function in `TARGETS` by a wrapper at every
`cswp.*` module attribute bound to it (so `cswp.cli.parse_program` and
`cswp.reductions.parse_program` are both wrapped) and `uninstall()` puts the
originals back. A wrapper appends one span `[name, start, end, parent, job]`
per call, where `parent` is the index of the innermost enclosing span or -1,
and updates the layer counters named in `COUNTERS`. Spans stay in memory
until the benchmark writes them out at the end of the run.
"""

from __future__ import annotations

import sys
from collections import Counter
from statistics import median
from time import perf_counter

# "<module>.<function>" under cswp; `cli.main` is the entry every job calls.
TARGETS = (
    "cli.main",
    "textfmt.parse_program",
    "textfmt.serialize_program",
    "core.validate_program",
    "core.execute",
    "core.evaluate_switching",
    "analysis.brute_force_worst_case",
    "analysis.knownbits_upper_bound",
    "analysis.coarse_upper_bound",
    "reductions.reduce_maxsat2",
    "reductions.reduce_sat_gap",
    "reductions.serialize_reduced",
    "reductions.serialize_gap",
    "reductions.load_reduced",
    "reductions.load_gap",
    "reductions.recover_assignment",
    "energy.load_model",
    "energy.gen_synthetic_grid",
    "energy.measurements_to_csv",
    "energy.measurements_from_csv",
    "energy.fit_hamming_model",
    "energy.heatmap_matrix",
    "energy.heatmap_to_csv",
    "energy.summarize_power",
    "energy.trace_energy",
)


def _count_parse(counts, args, result):
    counts["textfmt.bytes"] += len(args[0])


def _count_search(counts, args, result):
    counts["analysis.assignments"] += result.explored
    counts["analysis.insn_evals"] += result.explored * len(args[0].instructions)


def _count_knownbits(counts, args, result):
    counts["knownbits.insns"] += len(args[0].instructions)


def _count_grid(counts, args, result):
    counts["energy.grid_rows"] += len(result)


COUNTERS = {
    "textfmt.parse_program": _count_parse,
    "analysis.brute_force_worst_case": _count_search,
    "analysis.knownbits_upper_bound": _count_knownbits,
    "energy.measurements_from_csv": _count_grid,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.job = None
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn):
        spans, stack, counts, count = self.spans, self._stack, self.counts, COUNTERS.get(name)

        def wrapper(*args, **kwargs):
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if count:
                count(counts, args, result)
            return result

        return wrapper

    def install(self):
        modules = [m for key, m in list(sys.modules.items()) if key == "cswp" or key.startswith("cswp.")]
        for target in TARGETS:
            module, _, attr = target.partition(".")
            original = getattr(sys.modules.get(f"cswp.{module}"), attr, None)
            if original is None:
                continue
            wrapper = self._wrap(target, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))

    def uninstall(self):
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()


def layer_times(spans, first: int) -> dict:
    """Per target: calls, busy time and self time (busy minus the time its
    child spans cover) over spans[first:]."""
    child = Counter()
    for name, start, end, parent, _ in spans[first:]:
        if parent >= first:
            child[parent] += end - start
    out = {t: [0, 0.0, 0.0] for t in TARGETS}
    for i, (name, start, end, _, _) in enumerate(spans[first:], first):
        row = out[name]
        row[0] += 1
        row[1] += end - start
        row[2] += end - start - child[i]
    return out


def span_cost(calls: int = 50_000) -> float:
    """Seconds a span adds to one call: a wrapped no-op against a bare one."""
    def noop():
        return None

    wrapped = Tracer()._wrap("cli.main", noop)
    times = []
    for fn in (noop, wrapped):
        start = perf_counter()
        for _ in range(calls):
            fn()
        times.append(perf_counter() - start)
    return (times[1] - times[0]) / calls


def layer_metrics(passes: list, untraced_walls: list, kb_slack: float) -> dict:
    """Per-layer metric values from the traced passes: each pass is
    (wall_s, layer_times, counts); counts are per pass and repeat exactly,
    times are medians over passes."""
    def rate(num, den):
        return num / den if den > 0 else 0.0

    metrics = {}
    for t in TARGETS:
        metrics[f"{t}.calls"] = passes[0][1][t][0]
        metrics[f"{t}.busy_s"] = median([p[1][t][1] for p in passes])
        metrics[f"{t}.self_s"] = median([p[1][t][2] for p in passes])
    counts = passes[0][2]
    metrics["textfmt.parse_program.bytes_per_s"] = median(
        [rate(p[2]["textfmt.bytes"], p[1]["textfmt.parse_program"][1]) for p in passes])
    search = "analysis.brute_force_worst_case"
    metrics["analysis.assignments"] = counts["analysis.assignments"]
    metrics["analysis.insn_evals"] = counts["analysis.insn_evals"]
    metrics["analysis.assignments_per_s"] = median(
        [rate(p[2]["analysis.assignments"], p[1][search][1]) for p in passes])
    metrics["analysis.insn_evals_per_s"] = median(
        [rate(p[2]["analysis.insn_evals"], p[1][search][1]) for p in passes])
    metrics["knownbits.insns"] = counts["knownbits.insns"]
    metrics["knownbits.insns_per_s"] = median(
        [rate(p[2]["knownbits.insns"], p[1]["analysis.knownbits_upper_bound"][1]) for p in passes])
    metrics["knownbits.slack_bits"] = kb_slack
    metrics["energy.grid_rows"] = counts["energy.grid_rows"]
    metrics["trace.spans"] = sum(row[0] for row in passes[0][1].values())
    metrics["trace.wall_s"] = median([p[0] for p in passes])
    metrics["trace.untraced_wall_s"] = median(untraced_walls)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    return metrics
