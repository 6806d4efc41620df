"""Boolean-side oracles, independent of program execution: clause counting
under a truth assignment, and the truth-table maximum and satisfiability
that the reduction tests check the switching engine against."""

import itertools
from typing import Sequence

from cswp.analysis import DEFAULT_BUDGET, check_budget
from cswp.core import CswpError
from cswp.sat import MaxSat2Instance, SatInstance


def literal_value(lit: int, assignment: Sequence[bool]) -> bool:
    return bool(assignment[abs(lit) - 1]) != (lit < 0)


def clause_satisfied(clause, assignment: Sequence[bool]) -> bool:
    return any(literal_value(lit, assignment) for lit in clause)


def count_satisfied(instance, assignment: Sequence[bool]) -> int:
    """Number of satisfied clauses under a full truth assignment."""
    if len(assignment) != instance.num_vars:
        raise CswpError(f"assignment covers {len(assignment)} of {instance.num_vars} variables")
    return sum(clause_satisfied(c, assignment) for c in instance.clauses)


def all_satisfied(instance, assignment: Sequence[bool]) -> bool:
    return count_satisfied(instance, assignment) == len(instance.clauses)


def maxsat_oracle(
    instance: MaxSat2Instance, budget: int = DEFAULT_BUDGET
) -> tuple[int, tuple[bool, ...]]:
    """Exact maximum satisfied-clause count and the lexicographically smallest
    maximizing assignment (False < True, variables in index order)."""
    check_budget(1 << instance.num_vars, budget)
    best = -1
    best_assignment = None
    for assignment in itertools.product((False, True), repeat=instance.num_vars):
        score = count_satisfied(instance, assignment)
        if score > best:
            best = score
            best_assignment = assignment
    return best, best_assignment


def sat_oracle(
    instance: SatInstance, budget: int = DEFAULT_BUDGET
) -> tuple[bool, tuple[bool, ...] | None]:
    """Decision form: (satisfiable, first satisfying model or None)."""
    check_budget(1 << instance.num_vars, budget)
    for assignment in itertools.product((False, True), repeat=instance.num_vars):
        if all_satisfied(instance, assignment):
            return True, assignment
    return False, None
