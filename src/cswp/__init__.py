"""Worst-case output-datapath switching analysis for straight-line bit-vector
programs: an abstract machine and switching objective, clause-set reductions
that embed maximum-satisfiability in switching activity, exact enumeration and
sound upper bounds, and a Hamming-weight instruction power model."""

from .core import (
    BINARY01,
    FULL,
    Const,
    CswpError,
    ExecutionError,
    ExecutionTrace,
    Free,
    Instruction,
    MemRead,
    PriorOutput,
    Program,
    ProgramValidationError,
    execute,
    hamming_distance,
    validate_program,
)
from .textfmt import ParseError, parse_program, serialize_program

__all__ = [
    "BINARY01",
    "FULL",
    "Const",
    "CswpError",
    "ExecutionError",
    "ExecutionTrace",
    "Free",
    "Instruction",
    "MemRead",
    "ParseError",
    "PriorOutput",
    "Program",
    "ProgramValidationError",
    "execute",
    "hamming_distance",
    "parse_program",
    "serialize_program",
    "validate_program",
]
