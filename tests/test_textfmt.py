import random

import pytest
from hypothesis import given, settings, strategies as st

from cswp.core import (
    ARITY,
    BINARY01,
    FULL,
    MNEMONICS,
    NAME_PATTERN,
    Const,
    Free,
    Instruction,
    MemRead,
    PriorOutput,
    Program,
    ProgramValidationError,
)
from cswp.textfmt import ParseError, parse_program, serialize_program

from randprog import random_program


class TestParse:
    def test_minimal_program(self):
        p = parse_program("width 4\no1: mov #0x0\n")
        assert p.width == 4
        assert p.mem_size == 0
        assert len(p.instructions) == 1
        assert p.instructions[0] == Instruction("mov", (Const(0),))

    def test_full_header_and_sources(self):
        text = (
            "width 8\n"
            "mem 4\n"
            "free a 01\n"
            "free b full\n"
            "o1: mov freea\n"
            "o2: xor o1, #0x1\n"
            "o3: store o2 -> m[3]\n"
            "o4: load m[3]\n"
            "o5: ite o4, freeb, #0xff\n"
        )
        p = parse_program(text)
        assert p.free_inputs == (("a", BINARY01), ("b", FULL))
        assert p.instructions[0].inputs == (Free("a"),)
        assert p.instructions[2].mem_dest == 3
        assert p.instructions[3].inputs == (MemRead(3),)
        assert p.instructions[4].inputs == (PriorOutput(3), Free("b"), Const(0xFF))

    def test_comments_and_blank_lines_ignored(self):
        text = (
            "# a comment\n"
            "width 4\n"
            "\n"
            "o1: mov #0x5  # trailing comment\n"
        )
        p = parse_program(text)
        assert p.instructions[0] == Instruction("mov", (Const(5),))

    def test_hex_constant_not_eaten_by_comment_stripping(self):
        p = parse_program("width 8\no1: mov #0xab # but this is a comment\n")
        assert p.instructions[0] == Instruction("mov", (Const(0xAB),))

    def test_wrong_arity_is_a_parse_error_with_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_program("width 4\no1: add free0\n")

    def test_nonsequential_index_rejected(self):
        with pytest.raises(ParseError, match="o3"):
            parse_program("width 4\no3: mov #0x0\n")

    def test_unknown_mnemonic_rejected(self):
        with pytest.raises(ParseError, match="frob"):
            parse_program("width 4\no1: frob #0x0\n")

    def test_missing_width_rejected(self):
        with pytest.raises(ParseError, match="width"):
            parse_program("o1: mov #0x0\n")

    def test_bad_source_rejected(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_program("width 4\no1: mov ??\n")

    def test_header_after_instructions_rejected(self):
        with pytest.raises(ParseError, match="precede"):
            parse_program("width 4\no1: mov #0x0\nmem 2\n")

    def test_structural_fault_is_a_validation_error(self):
        with pytest.raises(ProgramValidationError) as excinfo:
            parse_program("width 4\no1: mov o5\n")
        assert str(excinfo.value) == "invalid program: instruction 0: forward or self reference to o5"

    @pytest.mark.parametrize("header, message", [
        ("width 4\nwidth 4\n", "line 2: duplicate width line"),
        ("width 4\nmem 2\nmem 3\n", "line 3: duplicate mem line"),
        ("width 4\nmem 0\nmem 0\n", "line 3: duplicate mem line"),
    ])
    def test_duplicate_header_rejected(self, header, message):
        with pytest.raises(ParseError, match=message):
            parse_program(header + "o1: mov #0x0\n")


class TestRoundTrip:
    def test_simple_round_trip(self):
        p = Program(
            width=4,
            mem_size=2,
            instructions=(
                Instruction("mov", (Free("x"),)),
                Instruction("store", (PriorOutput(0),), mem_dest=1),
                Instruction("or", (PriorOutput(0), Const(0x3))),
            ),
            free_inputs=(("x", BINARY01),),
        )
        assert parse_program(serialize_program(p)) == p

    def test_random_programs_round_trip(self):
        rng = random.Random(23)
        for _ in range(200):
            p = random_program(rng)
            assert parse_program(serialize_program(p)) == p

    def test_serialize_is_stable(self):
        rng = random.Random(5)
        p = random_program(rng)
        assert serialize_program(p) == serialize_program(p)

    # arbitrary text, plus names of the accepted form so both outcomes occur
    NAMES = st.one_of(st.text(), st.from_regex(r"[A-Za-z0-9_]+", fullmatch=True))

    @given(st.lists(NAMES, max_size=3, unique=True), st.sampled_from([BINARY01, FULL]))
    def test_every_accepted_name_round_trips(self, names, domain):
        try:
            p = Program(
                width=4,
                instructions=(Instruction("mov", (Const(0),)),)
                + tuple(Instruction("mov", (Free(n),)) for n in names),
                free_inputs=tuple((n, domain) for n in names),
            )
        except ProgramValidationError:
            return
        assert parse_program(serialize_program(p)) == p


# line ends that str.splitlines splits on, as the parser does
SEPARATORS = ("\n", "\r\n", "\x0b", "\x85")


@st.composite
def program_text(draw):
    """Valid header and instruction lines joined by any line end. In a noisy
    text any number, name, operand, mnemonic, operand count or memory
    destination may instead be arbitrary or near-valid, headers may follow
    instructions, and arbitrary lines are mixed in."""
    noisy = draw(st.booleans())

    def pick(valid, odd):
        return draw(st.one_of(valid, odd) if noisy else valid)

    def number(valid=st.integers(0, 9)):
        return pick(valid.map(str), st.one_of(st.integers(-2, 70).map(str), st.text(max_size=3),
                                              st.sampled_from(["\u0663", "1_0", "+4", "0x4"])))

    def operand():
        kind = draw(st.sampled_from(["const", "mem", "prior", "free"]))
        if kind == "const":
            token = f"#0x{draw(st.integers(0, 300)):x}"
        elif kind == "mem":
            token = f"m[{number()}]"
        elif kind == "prior":
            token = f"o{number()}"
        else:
            token = f"free{name()}"
        return pick(st.just(token), st.text(max_size=4))

    def name():
        return pick(st.from_regex(NAME_PATTERN, fullmatch=True), st.text(max_size=4))

    lines = [f"width {number(st.integers(1, 64))}"]
    for index in range(1, draw(st.integers(0, 6)) + 1):
        mnemonic = pick(st.sampled_from(sorted(MNEMONICS)), st.sampled_from(["frob", "ADD", ""]))
        count = pick(st.just(ARITY.get(mnemonic, 1)), st.integers(0, 4))
        operands = ", ".join(operand() for _ in range(count))
        dest = pick(st.sampled_from(["", "", " -> m[0]", " -> m[2]"]), st.just(" -> x"))
        lines.append(f"o{number(st.just(index))}: {mnemonic} {operands}{dest}")
    for _ in range(draw(st.integers(0, 3))):  # headers, right after width unless noisy
        if draw(st.booleans()):
            line = f"mem {number()}"
        else:
            line = f"free {name()} {pick(st.sampled_from([BINARY01, FULL]), st.just('2'))}"
        lines.insert(draw(st.integers(1, 1 + noisy * (len(lines) - 1))), line)
    for _ in range(noisy * draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.text(max_size=12)))
    lines = [pick(st.just(line), st.just(f" {line}\t# c")) for line in lines]
    return "".join(line + draw(st.sampled_from(SEPARATORS)) for line in lines)


@settings(max_examples=300, deadline=None)
@given(program_text())
def test_any_text_raises_parse_error_or_round_trips(text):
    try:
        p = parse_program(text)
    except (ParseError, ProgramValidationError):
        return
    assert parse_program(serialize_program(p)) == p
