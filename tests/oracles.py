"""Boolean-side oracles, independent of program execution: truth-table
maximum and satisfiability that the reduction tests check the switching
engine against."""

import itertools

from cswp.analysis import DEFAULT_BUDGET, check_budget
from cswp.sat import MaxSat2Instance, SatInstance, all_satisfied, count_satisfied


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
