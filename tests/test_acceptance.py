"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they pass.
"""

import functools
import itertools
import random
import time

import numpy as np

from cswp import analysis
from cswp.analysis import (
    brute_force_worst_case,
    coarse_upper_bound,
    knownbits_upper_bound,
)
from cswp.core import BINARY01, execute, hamming_distance
from cswp.energy import PRESETS, fit_hamming_model, gen_synthetic_grid, summarize_power
from cswp.reductions import (
    K_CLAUSE,
    K_SAT,
    K_VAR,
    recover_assignment,
    reduce_maxsat2,
    reduce_sat_gap,
)
from cswp.sat import MaxSat2Instance, SatInstance
from cswp.textfmt import parse_program, serialize_program

from oracles import count_satisfied, maxsat_oracle, sat_oracle
from randprog import random_program
from tnum import abstract_outputs, contains


def criterion(num, desc):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num} FAIL  {desc}")
                raise
            print(f"criterion {num} PASS  {desc}")
        return wrapper
    return decorate


# deterministic instance/program pools shared across criteria

def maxsat2_pool(count=100, seed=1001):
    rng = random.Random(seed)
    pool = []
    for _ in range(count):
        n = rng.randint(1, 4)
        clauses = [
            [rng.choice([1, -1]) * rng.randint(1, n) for _ in range(rng.randint(1, 2))]
            for _ in range(rng.randint(0, 6))
        ]
        pool.append(MaxSat2Instance(n, clauses))
    return pool


def sat_pool(count=50, seed=2026):
    rng = random.Random(seed)
    pool = []
    for _ in range(count):
        n = rng.randint(1, 3)
        clauses = [
            [rng.choice([1, -1]) * v
             for v in rng.sample(range(1, n + 1), rng.randint(1, n))]
            for _ in range(rng.randint(1, 8))
        ]
        pool.append(SatInstance(n, clauses))
    return pool


def maxsat2_switching(inst, sat_count):
    """Total switching the maxsat2 embedding of `inst` realizes at an
    assignment satisfying `sat_count` clauses."""
    return K_VAR * inst.num_vars + K_CLAUSE * len(inst.clauses) + K_SAT * sat_count


def embed(bools):
    """Truth values, variable-index order, as the embeddings' free inputs."""
    return {str(i): int(b) for i, b in enumerate(bools)}


def program_pool(count=200, seed=3003):
    rng = random.Random(seed)
    return [random_program(rng, max_instructions=8, max_width=4,
                           max_full_inputs=2, max_binary_inputs=2)
            for _ in range(count)]


@criterion(1, "reduction theorem: brute-force max equals k_var*n + k_clause*|C| + 2*maxsat")
def test_criterion_1_reduction_theorem():
    start = time.monotonic()
    for inst in maxsat2_pool():
        red = reduce_maxsat2(inst, width=4)
        best, _ = maxsat_oracle(inst)
        result = brute_force_worst_case(red.program)
        assert result.max_switching == maxsat2_switching(inst, best)
        recovered = recover_assignment(red, result.witness)
        assert count_satisfied(inst, recovered) == best
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s, budget 10s"


@criterion(2, "per-assignment constancy: every assignment matches the formula exactly")
def test_criterion_2_per_assignment_constancy():
    for inst in maxsat2_pool():
        red = reduce_maxsat2(inst, width=4)
        for bools in itertools.product((False, True), repeat=inst.num_vars):
            total = sum(execute(red.program, embed(bools)).transitions)
            assert total - maxsat2_switching(inst, count_satisfied(inst, bools)) == 0


@criterion(3, "gap property: phase silent iff unsat, saturated at w when sat; length rule")
def test_criterion_3_gap_property():
    pool = sat_pool()
    n_sat = n_unsat = 0
    for inst in pool:
        gap = reduce_sat_gap(inst, width=4, factor=1)
        assert gap.switching_len >= gap.decision_len / 2 + 1
        satisfiable, model = sat_oracle(inst)
        if satisfiable:
            n_sat += 1
            phase = execute(gap.program, embed(model)).transitions[gap.decision_len:]
            assert phase == (gap.program.width,) * len(phase)
        else:
            n_unsat += 1
            for bools in itertools.product((False, True), repeat=inst.num_vars):
                transitions = execute(gap.program, embed(bools)).transitions
                assert set(transitions[gap.decision_len:]) == {0}
    assert n_sat >= 5 and n_unsat >= 5, f"poor mix: {n_sat} sat / {n_unsat} unsat"


@criterion(4, "bound ordering: brute force <= known-bits <= coarse on 200 random programs")
def test_criterion_4_bound_ordering():
    for program in program_pool():
        exact = brute_force_worst_case(program).max_switching
        kb = knownbits_upper_bound(program)
        coarse = coarse_upper_bound(program)
        assert exact <= kb <= coarse
        assert coarse == max(0, len(program.instructions) - 1) * program.width


@criterion(5, "published power arithmetic: 164 mW single core, 17/37/42 percent")
def test_criterion_5_power_arithmetic():
    summary = summarize_power(328.0, [328.0 + 34.0, 328.0 + 96.0])
    assert summary.p_tsingle == 164.0
    assert abs(summary.pct_min * 100 - 17.0) <= 0.5
    assert abs(summary.pct_max * 100 - 37.0) <= 0.5
    high = summarize_power(328.0, [328.0 + 34.0, 328.0 + 123.0])
    assert abs(high.pct_max * 100 - 42.0) <= 1.0


@criterion(6, "model fit: noisy 8-bit add grid recovers (1.3, 4.4) within 5 percent")
def test_criterion_6_fit_recovery():
    model = PRESETS["xs1l-paper"]
    noisy = gen_synthetic_grid(8, "add", model, base=50.0, noise_sigma=1.5, seed=0)
    fit = fit_hamming_model(noisy)
    assert abs(fit.c_in - 1.3) <= 0.065
    assert abs(fit.c_out - 4.4) <= 0.22

    clean = gen_synthetic_grid(8, "add", model, base=50.0)
    exact = fit_hamming_model(clean)
    assert abs(exact.base - 50.0) <= 1e-9
    assert abs(exact.c_in - 1.3) <= 1e-9
    assert abs(exact.c_out - 4.4) <= 1e-9


@criterion(7, "core properties: metric axioms at w=8, determinism, round-trips, soundness")
def test_criterion_7_core_properties():
    # Hamming metric axioms, exhaustive at w = 8 (vectorized oracle)
    table = np.array([v.bit_count() for v in range(256)], dtype=np.int64)
    values = np.arange(256)
    dist = table[values[:, None] ^ values[None, :]]
    assert (np.diag(dist) == 0).all()
    assert (dist == dist.T).all()
    assert (dist[values, values ^ 0xFF] == 8).all()
    for b in range(256):
        assert (dist[:, b][:, None] + dist[b, :][None, :] >= dist).all()
    # the implementation agrees with the oracle table
    for a in range(0, 256, 17):
        for b in range(256):
            assert hamming_distance(a, b) == dist[a, b]

    rng = random.Random(4004)

    # execute determinism
    for _ in range(25):
        program = random_program(rng)
        assignment = {
            name: (rng.randrange(2) if d == BINARY01 else rng.randrange(1 << program.width))
            for name, d in program.free_inputs
        }
        assert execute(program, assignment) == execute(program, assignment)

    # parse/serialize round-trip on every generated program shape
    for program in program_pool(count=100, seed=5005):
        assert parse_program(serialize_program(program)) == program
    for inst in maxsat2_pool(count=20, seed=6006):
        assert_round_trip(reduce_maxsat2(inst, width=4).program)
    for inst in sat_pool(count=20, seed=7007):
        assert_round_trip(reduce_sat_gap(inst, width=4).program)

    # known-bits soundness on 1,000 random (program, input) pairs
    pairs = 0
    while pairs < 1000:
        program = random_program(rng)
        outs = abstract_outputs(program)
        for _ in range(4):
            assignment = {
                name: (rng.randrange(2) if d == BINARY01 else rng.randrange(1 << program.width))
                for name, d in program.free_inputs
            }
            trace = execute(program, assignment)
            for abstract, concrete in zip(outs, trace.outputs):
                assert contains(abstract, concrete, program.width)
            pairs += 1


def assert_round_trip(program):
    assert parse_program(serialize_program(program)) == program


@criterion(8, "witness validity and agreement of every chunk size with one chunk")
def test_criterion_8_witness_validity(monkeypatch):
    programs = program_pool(count=60, seed=8008)
    programs += [reduce_maxsat2(inst, width=4).program for inst in maxsat2_pool(count=10, seed=9009)]
    one_chunk = []
    for program in programs:
        result = brute_force_worst_case(program)
        assert sum(execute(program, result.witness).transitions) == result.max_switching
        one_chunk.append(result)
    for rows in (1, 3, 7):
        monkeypatch.setattr(analysis, "_chunk_rows", lambda dtype: rows)
        assert [brute_force_worst_case(p) for p in programs] == one_chunk
