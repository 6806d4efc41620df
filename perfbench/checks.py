"""Correctness check of each job's output against `reference`.

`Checker.check(job, result)` returns None when the output agrees with the
reference and a one-line reason otherwise. Checks run after the timed
passes on the files the last pass left, which every pass must have written
identically. The text-format round trip is the one check that calls cswp, since
that property of cswp is what it checks.
"""

from __future__ import annotations

import reference as ref
from cswp.textfmt import parse_program, serialize_program


def fields(stdout: str) -> dict:
    return dict(line.split("=", 1) for line in stdout.splitlines() if "=" in line)


class Checker:
    def __init__(self):
        self._texts = {}
        self._programs = {}
        self._exact = {}
        self.kb_slack = []   # known-bits bound minus exact maximum, per bound job

    def text(self, path: str) -> str:
        if path not in self._texts:
            with open(path) as fh:
                self._texts[path] = fh.read()
        return self._texts[path]

    def program(self, path: str) -> ref.Prog:
        if path not in self._programs:
            self._programs[path] = ref.parse(self.text(path))
        return self._programs[path]

    def exact(self, path: str):
        if path not in self._exact:
            self._exact[path] = ref.worst_case(self.program(path))
        return self._exact[path]

    def check(self, job, result) -> str | None:
        if result.error:
            return result.error
        if result.rc != 0:
            return f"exit code {result.rc}: {result.stderr.strip()[:200]}"
        method = getattr(self, "_" + job.kind.replace("-", "_").replace(".", "_"))
        return method(job, result, fields(result.stdout))

    # -- reduce-solve ---------------------------------------------------------

    def _reduce(self, job, result, kind):
        meta = self.program(job.output).meta
        want = {"kind": kind, "vars": str(job.ref["vars"])}
        if any(meta.get(k) != v for k, v in want.items()):
            return f"metadata {meta!r} does not describe {want!r}"
        return None

    def _reduce_maxsat(self, job, result, _):
        return self._reduce(job, result, "maxsat2")

    def _reduce_sat_gap(self, job, result, _):
        return self._reduce(job, result, "sat-gap")

    def _solve(self, job, result, f):
        best, witness, explored = self.exact(job.program)
        got = {k[len("witness.free"):]: int(v, 16) for k, v in f.items() if k.startswith("witness.free")}
        if int(f["max"]) != best or got != witness or int(f["explored"]) != explored:
            return f"solve gave max={f['max']} {got} explored={f['explored']}, want {best} {witness} {explored}"
        clauses, n = job.ref.get("clauses"), job.ref.get("vars")
        if job.readback == "maxsat":
            sat_count, assignment = ref.maxsat(n, clauses)
            if best != 4 * n + 4 * len(clauses) + 2 * sat_count:
                return f"max {best} is not 4n + 4m + 2*{sat_count}"
            if result.readback["assignment"] != assignment:
                return "recovered assignment is not the oracle's optimum"
        elif job.readback == "gap":
            sat = ref.satisfiable(n, clauses)
            prog = self.program(job.program)
            decision = int(prog.meta["decision_len"])
            if prog.insns[decision - 1][0] != "ite":
                return "decision phase does not end in the ite widening"
            phase = ref.at(prog, witness)[2][decision:]
            if any(t != (prog.width if sat else 0) for t in phase):
                return f"switching phase does not follow satisfiability ({sat})"
            if result.readback["satisfiable"] != sat:
                return f"read back satisfiable={result.readback['satisfiable']}, oracle says {sat}"
            if sat and not ref.satisfies(result.readback["assignment"], clauses):
                return "recovered assignment does not satisfy the clauses"
        return None

    # -- bounds ---------------------------------------------------------------

    def _coarse(self, path):
        prog = self.program(path)
        return max(0, len(prog.insns) - 1) * prog.width

    def _bound_coarse(self, job, result, f):
        if int(f["coarse"]) != self._coarse(job.program):
            return f"coarse={f['coarse']}, want (n-1)*w = {self._coarse(job.program)}"
        return None

    def _bound_knownbits(self, job, result, f):
        kb = int(f["knownbits"])
        if kb > self._coarse(job.program):
            return f"knownbits={kb} exceeds the coarse bound"
        prog = self.program(job.program)
        if job.ref["exact"]:
            exact = self.exact(job.program)[0]
            if kb < exact:
                return f"knownbits={kb} is below the exact maximum {exact}"
            self.kb_slack.append(kb - exact)
        elif kb < ref.sampled_max(prog):
            return f"knownbits={kb} is below a sampled switching"
        return self._round_trip(job.program)

    def _round_trip(self, path):
        text = self.text(path)
        program = parse_program(text)
        if parse_program(serialize_program(program)) != program:
            return "parse(serialize(p)) != p"
        if not ref.parse(text).meta and serialize_program(program) != text:
            return "serialize(parse(text)) is not the canonical text"
        return None

    # -- energy ---------------------------------------------------------------

    def _gen_grid(self, job, result, _):
        return ref.check_grid(self.text(job.output), job.ref)

    def _fit(self, job, result, f):
        return ref.check_fit(f, self.text(job.program), job.ref)

    def _heatmap(self, job, result, _):
        return ref.check_heatmap(self.text(job.output), self.text(job.program), job.ref)

    def _summarize_power(self, job, result, f):
        want = ref.power_summary(job.ref["tdual"], job.ref["powers"])
        for key, value in want.items():
            tol = 5e-5 if key.startswith("pct") else 5e-4
            if abs(float(f[key]) - value) > tol + 1e-9:
                return f"{key}={f[key]}, want {value:.6f}"
        return None

    def _run(self, job, result, _):
        outs, _, trans = ref.at(self.program(job.program), job.ref["inputs"])
        lines = [f"o{i + 1}=0x{v:x}" for i, v in enumerate(outs)]
        lines += [f"transition.{i + 1}={t}" for i, t in enumerate(trans)]
        lines.append(f"total={sum(trans)}")
        if result.stdout != "".join(line + "\n" for line in lines):
            return "run output differs from the reference execution"
        return None

    def _energy(self, job, result, f, input_term=False):
        outs, ops, trans = ref.at(self.program(job.program), job.ref["inputs"])
        nj = ref.trace_energy_nj(outs, ops, input_term)
        if int(f["switching"]) != sum(trans) or int(f["transitions"]) != len(trans):
            return f"energy switching={f['switching']}, want {sum(trans)}"
        if abs(float(f["energy_nj"]) - nj) > 1e-6:
            return f"energy_nj={f['energy_nj']}, want {nj:.6f}"
        return None

    def _energy_input_term(self, job, result, f):
        return self._energy(job, result, f, input_term=True)
