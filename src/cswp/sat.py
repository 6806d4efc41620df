"""Clause sets for the MAXSAT2 and SAT embeddings: instances and the x1/~x2
literal notation used by the CLI and program-file metadata. A literal is a
DIMACS-style signed int: 3 is x3, -3 is ~x3."""

from __future__ import annotations

import re
from dataclasses import dataclass

from .core import CswpError

_LIT = re.compile(r"([~!-]?)x?(\d+)$")


def parse_literal(token: str) -> int:
    """x3 -> 3; ~x3, !x3, -x3 or -3 -> -3."""
    m = _LIT.match(token.strip())
    try:
        index = int(m.group(2)) if m else 0
    except ValueError:  # more digits than int() converts
        index = 0
    if index < 1:
        raise CswpError(f"bad literal {token!r} (want e.g. x3 or ~x3)")
    return -index if m.group(1) else index


def format_literal(lit: int) -> str:
    return f"~x{-lit}" if lit < 0 else f"x{lit}"


def parse_clause(text: str) -> tuple[int, ...]:
    """Space- or comma-separated literals, e.g. 'x1 ~x2'."""
    tokens = [t for t in re.split(r"[,\s]+", text.strip()) if t]
    if not tokens:
        raise CswpError("empty clause")
    return tuple(parse_literal(t) for t in tokens)


@dataclass(frozen=True)
class _ClauseSet:
    """Clauses of nonzero signed ints over the variables x1..x{num_vars}; a
    subclass states which clause lengths it takes."""

    num_vars: int
    clauses: tuple = ()

    def __post_init__(self):
        if type(self.num_vars) is not int:  # a bool is not a count
            raise CswpError(f"number of variables {self.num_vars!r} is not an int")
        if self.num_vars < 0:
            raise CswpError(f"number of variables {self.num_vars} is negative")
        object.__setattr__(self, "clauses", tuple(map(tuple, self.clauses)))
        for i, clause in enumerate(self.clauses):
            if problem := self._length_problem(clause):
                raise CswpError(f"clause {i} {problem}")
            for lit in clause:
                if type(lit) is not int or lit == 0:  # a bool is not a literal
                    raise CswpError(f"bad literal {lit!r}")
                if abs(lit) > self.num_vars:
                    raise CswpError(f"clause {i}: x{abs(lit)} exceeds {self.num_vars} variables")


class SatInstance(_ClauseSet):
    """CNF: clauses of any positive length."""

    @staticmethod
    def _length_problem(clause) -> str | None:
        return None if clause else "is empty"


class MaxSat2Instance(_ClauseSet):
    """Clause set with at most two literals per clause."""

    @staticmethod
    def _length_problem(clause) -> str | None:
        return None if 1 <= len(clause) <= 2 else f"has {len(clause)} literals, want 1 or 2"

