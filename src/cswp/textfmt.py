"""Canonical line-based text format for programs.

    width 4
    mem 2
    free 0 01
    o1: mov free0
    o2: xor o1, #0x1
    o3: store o2 -> m[1]

Header lines first (width, mem, one free line per input in declaration order),
then 1-based sequentially numbered instruction lines; a header line is known
by its first whitespace-separated token. `#` starts a comment
unless immediately followed by `0x` (hex constants). Free-input names match
core.NAME_PATTERN. The operand syntax is stated once, in `_OPERAND_CLASSES`:
the per-line loop's operand and memory-destination checks, the pattern of
serializer-form lines and the one reader and writer of each class come from it.
Text that is well-formed line by line but describes an invalid program raises
core.ProgramValidationError from the Program it builds.
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

# The four operand classes, keyed by their distinct first characters. A row
# is a class's token pattern, with one group around the number or name; the
# class; its reader, which takes the class's one field from a token that the
# pattern matches without another regex; and its writer, from field to token.
_OPERAND_CLASSES = {
    "#": (r"#0x([0-9a-fA-F]+)", Const, lambda token: int(token[3:], 16), lambda value: f"#0x{value:x}"),
    "m": (r"m\[(\d+)\]", MemRead, lambda token: int(token[2:-1]), lambda addr: f"m[{addr}]"),
    "o": (r"o(\d+)", PriorOutput, lambda token: int(token[1:]) - 1, lambda index: f"o{index + 1}"),
    "f": (rf"free({NAME_PATTERN})", Free, lambda token: token[4:], lambda name: f"free{name}"),
}
_CONVERT = {kind: (cls, cls.__match_args__[0], read) for kind, (_, cls, read, _) in _OPERAND_CLASSES.items()}
# each class's writer, keyed by the exact class: a valid program's
# operands are instances of these four and of no subclass
_FORMAT = {cls: write for _, cls, _, write in _OPERAND_CLASSES.values()}
_OPERAND = re.compile("|".join(row[0] for row in _OPERAND_CLASSES.values()))
# an instruction's index has the syntax of a prior output that names it, and
# a store's destination that of a memory read of its address
_INSN = re.compile(_OPERAND_CLASSES["o"][0] + r":\s*([a-z]+)\s*(.*)$")
_MEM_DEST = re.compile(_OPERAND_CLASSES["m"][0])
_WRITE_INDEX, _WRITE_MEM = _OPERAND_CLASSES["o"][3], _OPERAND_CLASSES["m"][3]
# an instruction line exactly as serialize_program writes it: index,
# mnemonic, one to three operand tokens and any destination, in the operand
# classes narrowed to ASCII digits and lower-case hex. It must follow a "\n",
# which the search finds fast, and not the first line, which cannot be an
# instruction of a valid program anyway.
_ASCII = {kind: row[0].replace(r"\d", "[0-9]").replace("A-F", "") for kind, row in _OPERAND_CLASSES.items()}
_TOKEN = "|".join(pattern.replace("(", "(?:") for pattern in _ASCII.values())
_ROW = re.compile(rf"\n{_ASCII['o']}: ([a-z]+) ({_TOKEN})(?:, ({_TOKEN}))?(?:, ({_TOKEN}))?"
                  rf"(?: -> {_ASCII['m']})?(?=\n|\Z)")
# a comment: a `#` not starting a hex constant, up to the next line break
# that str.splitlines knows, so stripping every comment at once keeps the
# line numbers; a space stands in for it, so that a `\r` before a comment
# line never meets the `\n` after it as one `\r\n` break
_COMMENT = re.compile(r"#(?!0x)[^\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]*")


class ParseError(CswpError):
    def __init__(self, lineno: int, message: str):
        self.lineno = lineno
        super().__init__(f"line {lineno}: {message}")


def _too_long(digits: str, lineno: int) -> ParseError:  # past Python's int-string conversion limit
    return ParseError(lineno, f"number of {len(digits)} digits is too long")


def _decimal(digits: str, lineno: int) -> int:
    try:
        return int(digits)
    except ValueError:
        raise _too_long(digits, lineno) from None


def parse_program(text: str) -> Program:
    """Parse the canonical text format. Raises ParseError with a line number on
    syntax problems, and ProgramValidationError when the program the text
    describes breaks a structural invariant (see core.validate_program).

    The instruction lines of text in `serialize_program`'s form are read in
    one regex call (see `_Parse.take_rows`); any other line goes through the
    per-line loop, `_Parse.take_lines`, which reports every syntax error."""
    text = _COMMENT.sub(" ", text)
    lines = text.splitlines()
    rows = _ROW.findall(text)
    # each row is one line, so they are the last lines if the loop finds no
    # instruction before them
    head = len(lines) - len(rows)
    parse = _Parse()
    parse.take_lines(lines[:head], 1)
    if parse.instructions or not parse.take_rows(rows):
        parse.take_lines(lines[head:], head + 1)
    return parse.program()


_new, _set = object.__new__, object.__setattr__


class _Sources(dict):
    """Operand token -> source, for one parse_program call: operand classes
    are frozen, so instructions may share one, and only successes are kept,
    so each error still names its own line. Indexing converts a token that
    `_OPERAND` or `_ROW` matched on first sight, through its class's row of
    `_CONVERT`, or raises ValueError for a number too long for int().

    The source is built as the class's generated `__init__` builds it, by
    `object.__setattr__` of its one field, without that `__init__`'s frame:
    the operand classes have no `__post_init__`."""

    def __missing__(self, token: str):
        cls, field, value = _CONVERT[token[0]]
        source = _new(cls)
        _set(source, field, value(token))
        self[token] = source
        return source


class _Parse:
    """What one parse_program call has read so far, in text order."""

    def __init__(self):
        self.header = {"width": None, "mem": None}
        self.free_inputs: list[tuple[str, str]] = []
        self.instructions: list[Instruction] = []
        self.known_sources = _Sources()

    def take_rows(self, rows: list[tuple[str, ...]]) -> bool:
        """Add the instructions of `_ROW` rows and return True, or add
        nothing and return False where the per-line loop must read them: an
        index out of sequence, an unknown mnemonic, a wrong operand count or
        a number too long for int()."""
        source, arity, new = self.known_sources.__getitem__, ARITY.get, tuple.__new__
        instructions = []
        try:
            for number, (index, mnemonic, a, b, c, dest) in enumerate(rows, len(self.instructions) + 1):
                sources = (source(a), source(b), source(c)) if c else (source(a), source(b)) if b else (source(a),)
                if index != str(number) or arity(mnemonic) != len(sources):
                    return False
                instructions.append(new(Instruction, (mnemonic, sources, int(dest) if dest else None)))
        except ValueError:
            return False
        self.instructions += instructions
        return True

    def take_lines(self, lines: list[str], first_lineno: int):
        """The per-line loop: add each line's header value, free input or
        instruction, or raise ParseError naming the line."""
        header, free_inputs, instructions = self.header, self.free_inputs, self.instructions
        known_sources = self.known_sources
        for lineno, line in enumerate(lines, start=first_lineno):
            line = line.strip()
            if m := _INSN.match(line):  # almost every line is an instruction
                digits, mnemonic, rest = m.groups()
                index = _decimal(digits, lineno)
                if index != len(instructions) + 1:
                    raise ParseError(lineno, f"instruction numbered {_WRITE_INDEX(index - 1)}, "
                                             f"expected {_WRITE_INDEX(len(instructions))}")
                if mnemonic not in MNEMONICS:
                    raise ParseError(lineno, f"unknown mnemonic {mnemonic!r}")

                mem_dest = None  # `rest` has no outer whitespace: the line is stripped
                if "->" in rest:
                    rest, _, dest = rest.partition("->")
                    dest = dest.strip()
                    dm = _MEM_DEST.fullmatch(dest)
                    if not dm:
                        raise ParseError(lineno, f"bad memory destination {dest!r}")
                    mem_dest = _decimal(dm[1], lineno)
                    rest = rest.strip()
                if not rest:
                    raise ParseError(lineno, f"{mnemonic} needs {ARITY[mnemonic]} input(s), got 0")
                sources = []
                for token in rest.split(","):
                    operand = _OPERAND.fullmatch(token.strip())
                    if operand is None:
                        raise ParseError(lineno, f"unrecognized operand source {token.strip()!r}")
                    try:
                        sources.append(known_sources[operand[0]])
                    except ValueError:
                        raise _too_long(operand[operand.lastindex], lineno) from None
                if len(sources) != ARITY[mnemonic]:
                    raise ParseError(
                        lineno, f"{mnemonic} needs {ARITY[mnemonic]} input(s), got {len(sources)}"
                    )
                instructions.append(Instruction(mnemonic, sources, mem_dest))
                continue

            if not line:
                continue

            keyword = line.split(maxsplit=1)[0]
            if keyword in header:
                if header[keyword] is not None:
                    raise ParseError(lineno, f"duplicate {keyword} line")
                if instructions:
                    raise ParseError(lineno, f"{keyword} must precede instructions")
                try:
                    _, value = line.split()
                    header[keyword] = int(value)
                except ValueError:
                    raise ParseError(lineno, f"bad {keyword} line {line!r}") from None
                continue

            if keyword == "free":
                if instructions:
                    raise ParseError(lineno, "free declarations must precede instructions")
                parts = line.split()
                if len(parts) != 3 or parts[2] not in DOMAINS:
                    raise ParseError(lineno, f"bad free line {line!r} (want: free <name> <01|full>)")
                free_inputs.append((parts[1], parts[2]))
                continue

            raise ParseError(lineno, f"unrecognized line {line!r}")

    def program(self) -> Program:
        if self.header["width"] is None:
            raise ParseError(1, "missing width header")
        return Program(width=self.header["width"], mem_size=self.header["mem"] or 0,
                       instructions=tuple(self.instructions), free_inputs=tuple(self.free_inputs))


def serialize_program(program: Program) -> str:
    """Emit the canonical text form (always includes the mem header)."""
    lines = [f"width {program.width}", f"mem {program.mem_size}"]
    for name, domain in program.free_inputs:
        lines.append(f"free {name} {domain}")
    for idx, (mnemonic, inputs, mem_dest) in enumerate(program.instructions):
        srcs = ", ".join([_FORMAT[type(s)](getattr(s, s.__match_args__[0])) for s in inputs])
        line = f"{_WRITE_INDEX(idx)}: {mnemonic} {srcs}"
        if mem_dest is not None:
            line += f" -> {_WRITE_MEM(mem_dest)}"
        lines.append(line)
    return "\n".join(lines) + "\n"
