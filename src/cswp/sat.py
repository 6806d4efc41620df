"""Clause sets for the MAXSAT2 and SAT embeddings: literals, instances,
satisfaction counting, and the x1/~x2 literal notation used by the CLI and
program-file metadata."""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import CswpError


@dataclass(frozen=True)
class Literal:
    """A Boolean variable (1-based index) or its negation."""

    var_index: int
    negated: bool = False

    def __post_init__(self):
        if self.var_index < 1:
            raise ValueError(f"variable index {self.var_index} must be >= 1")

    def __str__(self):
        return f"~x{self.var_index}" if self.negated else f"x{self.var_index}"


_LIT = re.compile(r"([~!-]?)x?(\d+)$")


def parse_literal(token: str) -> Literal:
    m = _LIT.match(token.strip())
    if not m or int(m.group(2)) < 1:
        raise CswpError(f"bad literal {token!r} (want e.g. x3 or ~x3)")
    return Literal(int(m.group(2)), negated=bool(m.group(1)))


def parse_clause(text: str) -> tuple[Literal, ...]:
    """Space- or comma-separated literals, e.g. 'x1 ~x2'."""
    tokens = [t for t in re.split(r"[,\s]+", text.strip()) if t]
    if not tokens:
        raise CswpError("empty clause")
    return tuple(parse_literal(t) for t in tokens)


def _normalize(clauses: Iterable) -> tuple[tuple[Literal, ...], ...]:
    out = []
    for clause in clauses:
        lits = []
        for lit in clause:
            if isinstance(lit, Literal):
                lits.append(lit)
            elif isinstance(lit, int) and lit != 0:
                lits.append(Literal(abs(lit), negated=lit < 0))
            else:
                raise CswpError(f"bad literal {lit!r}")
        out.append(tuple(lits))
    return tuple(out)


def _check_num_vars(num_vars: int):
    if num_vars < 0:
        raise CswpError(f"number of variables {num_vars} is negative")


@dataclass(frozen=True)
class SatInstance:
    """CNF: clauses of any positive length. Clauses accept Literal objects or
    DIMACS-style signed ints (-3 means ~x3)."""

    num_vars: int
    clauses: tuple = ()

    def __post_init__(self):
        _check_num_vars(self.num_vars)
        object.__setattr__(self, "clauses", _normalize(self.clauses))
        for i, clause in enumerate(self.clauses):
            if not clause:
                raise CswpError(f"clause {i} is empty")
            for lit in clause:
                if lit.var_index > self.num_vars:
                    raise CswpError(f"clause {i}: x{lit.var_index} exceeds {self.num_vars} variables")


@dataclass(frozen=True)
class MaxSat2Instance:
    """Clause set with at most two literals per clause."""

    num_vars: int
    clauses: tuple = ()

    def __post_init__(self):
        _check_num_vars(self.num_vars)
        object.__setattr__(self, "clauses", _normalize(self.clauses))
        for i, clause in enumerate(self.clauses):
            if not 1 <= len(clause) <= 2:
                raise CswpError(f"clause {i} has {len(clause)} literals, want 1 or 2")
            for lit in clause:
                if lit.var_index > self.num_vars:
                    raise CswpError(f"clause {i}: x{lit.var_index} exceeds {self.num_vars} variables")


def literal_value(lit: Literal, assignment: Sequence[bool]) -> bool:
    value = assignment[lit.var_index - 1]
    return not value if lit.negated else value


def clause_satisfied(clause, assignment: Sequence[bool]) -> bool:
    return any(literal_value(lit, assignment) for lit in clause)


def count_satisfied(instance, assignment: Sequence[bool]) -> int:
    """Number of satisfied clauses under a full truth assignment."""
    if len(assignment) != instance.num_vars:
        raise CswpError(f"assignment covers {len(assignment)} of {instance.num_vars} variables")
    return sum(clause_satisfied(c, assignment) for c in instance.clauses)


def all_satisfied(instance, assignment: Sequence[bool]) -> bool:
    return count_satisfied(instance, assignment) == len(instance.clauses)
