"""Canonical line-based text format for programs.

    width 4
    mem 2
    free 0 01
    o1: mov free0
    o2: xor o1, #0x1
    o3: store o2 -> m[1]

Header lines first (width, mem, one free line per input in declaration order),
then 1-based sequentially numbered instruction lines. `#` starts a comment
unless immediately followed by `0x` (hex constants). Free-input names match
core.NAME_PATTERN. Text that is well-formed line by line but describes an
invalid program raises core.ProgramValidationError from the Program it builds.
parse(serialize(p)) == p for every valid program.
"""

from __future__ import annotations

import re

from .core import (
    ARITY,
    DOMAINS,
    MNEMONICS,
    NAME_PATTERN,
    Const,
    CswpError,
    Free,
    Instruction,
    MemRead,
    PriorOutput,
    Program,
)

_SRC_CONST = re.compile(r"#0x([0-9a-fA-F]+)$")
_SRC_MEM = re.compile(r"m\[(\d+)\]$")
_SRC_PRIOR = re.compile(r"o(\d+)$")
_SRC_FREE = re.compile(rf"free({NAME_PATTERN})$")
_INSN = re.compile(r"o(\d+):\s*([a-z]+)\s*(.*)$")


class ParseError(CswpError):
    def __init__(self, lineno: int, message: str):
        self.lineno = lineno
        super().__init__(f"line {lineno}: {message}")


def _strip_comment(line: str) -> str:
    i = 0
    while True:
        i = line.find("#", i)
        if i < 0:
            return line
        if line.startswith("0x", i + 1):
            i += 3  # hex constant, keep scanning
            continue
        return line[:i]


def _decimal(digits: str, lineno: int) -> int:
    try:
        return int(digits)
    except ValueError:  # longer than Python's int-string conversion limit
        raise ParseError(lineno, f"number of {len(digits)} digits is too long") from None


def _parse_source(token: str, lineno: int):
    token = token.strip()
    if m := _SRC_CONST.match(token):
        return Const(int(m.group(1), 16))
    if m := _SRC_MEM.match(token):
        return MemRead(_decimal(m.group(1), lineno))
    if m := _SRC_PRIOR.match(token):
        return PriorOutput(_decimal(m.group(1), lineno) - 1)
    if m := _SRC_FREE.match(token):
        return Free(m.group(1))
    raise ParseError(lineno, f"unrecognized operand source {token!r}")


def parse_program(text: str) -> Program:
    """Parse the canonical text format. Raises ParseError with a line number on
    syntax problems, and ProgramValidationError when the program the text
    describes breaks a structural invariant (see core.validate_program)."""
    width = None
    mem_size = None
    free_inputs: list[tuple[str, str]] = []
    instructions: list[Instruction] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue

        if line.startswith("width "):
            if width is not None:
                raise ParseError(lineno, "duplicate width line")
            if instructions:
                raise ParseError(lineno, "width must precede instructions")
            try:
                width = int(line.split()[1])
            except (IndexError, ValueError):
                raise ParseError(lineno, f"bad width line {line!r}") from None
            continue

        if line.startswith("mem "):
            if mem_size is not None:
                raise ParseError(lineno, "duplicate mem line")
            if instructions:
                raise ParseError(lineno, "mem must precede instructions")
            try:
                mem_size = int(line.split()[1])
            except (IndexError, ValueError):
                raise ParseError(lineno, f"bad mem line {line!r}") from None
            continue

        if line.startswith("free "):
            if instructions:
                raise ParseError(lineno, "free declarations must precede instructions")
            parts = line.split()
            if len(parts) != 3 or parts[2] not in DOMAINS:
                raise ParseError(lineno, f"bad free line {line!r} (want: free <name> <01|full>)")
            free_inputs.append((parts[1], parts[2]))
            continue

        m = _INSN.match(line)
        if not m:
            raise ParseError(lineno, f"unrecognized line {line!r}")
        index = _decimal(m.group(1), lineno)
        if index != len(instructions) + 1:
            raise ParseError(lineno, f"instruction numbered o{index}, expected o{len(instructions) + 1}")
        mnemonic = m.group(2)
        if mnemonic not in MNEMONICS:
            raise ParseError(lineno, f"unknown mnemonic {mnemonic!r}")

        rest = m.group(3).strip()
        mem_dest = None
        if "->" in rest:
            rest, _, dest = rest.partition("->")
            dest = dest.strip()
            dm = _SRC_MEM.match(dest)
            if not dm:
                raise ParseError(lineno, f"bad memory destination {dest!r}")
            mem_dest = _decimal(dm.group(1), lineno)
            rest = rest.strip()
        if not rest:
            raise ParseError(lineno, f"{mnemonic} needs {ARITY[mnemonic]} input(s), got 0")
        sources = tuple(_parse_source(tok, lineno) for tok in rest.split(","))
        if len(sources) != ARITY[mnemonic]:
            raise ParseError(
                lineno, f"{mnemonic} needs {ARITY[mnemonic]} input(s), got {len(sources)}"
            )
        instructions.append(Instruction(mnemonic, sources, mem_dest))

    if width is None:
        raise ParseError(1, "missing width header")
    return Program(width=width, mem_size=mem_size or 0, instructions=tuple(instructions),
                   free_inputs=tuple(free_inputs))


def _format_source(src) -> str:
    if isinstance(src, Const):
        return f"#0x{src.value:x}"
    if isinstance(src, MemRead):
        return f"m[{src.addr}]"
    if isinstance(src, PriorOutput):
        return f"o{src.index + 1}"
    if isinstance(src, Free):
        return f"free{src.name}"
    raise ValueError(f"unknown operand source {src!r}")


def serialize_program(program: Program) -> str:
    """Emit the canonical text form (always includes the mem header)."""
    lines = [f"width {program.width}", f"mem {program.mem_size}"]
    for name, domain in program.free_inputs:
        lines.append(f"free {name} {domain}")
    for idx, insn in enumerate(program.instructions):
        srcs = ", ".join(_format_source(s) for s in insn.inputs)
        line = f"o{idx + 1}: {insn.mnemonic} {srcs}"
        if insn.mem_dest is not None:
            line += f" -> m[{insn.mem_dest}]"
        lines.append(line)
    return "\n".join(lines) + "\n"
