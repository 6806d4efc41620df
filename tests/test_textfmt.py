import dataclasses
import random
import re
import typing

import pytest
from hypothesis import example, given, settings, strategies as st

from cswp.core import (
    ARITY,
    BINARY01,
    FULL,
    MNEMONICS,
    NAME_PATTERN,
    Const,
    OperandSource,
    Free,
    Instruction,
    MemRead,
    PriorOutput,
    Program,
    ProgramValidationError,
)
from cswp import reductions, textfmt
from cswp.sat import MaxSat2Instance, SatInstance
from cswp.textfmt import ParseError, parse_program, serialize_program

import refparse
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

    # a line with a mnemonic and no operands, also before a memory destination
    @pytest.mark.parametrize("line, message", [
        ("o1: mov", "line 3: mov needs 1 input(s), got 0"),
        ("o1: store -> m[0]", "line 3: store needs 1 input(s), got 0"),
    ])
    def test_no_operands_is_a_parse_error_with_line(self, line, message):
        with pytest.raises(ParseError) as excinfo:
            parse_program(f"width 4\nmem 1\n{line}\n")
        assert str(excinfo.value) == message

    def test_bad_memory_destination_is_a_parse_error_with_line(self):
        with pytest.raises(ParseError) as excinfo:
            parse_program("width 4\nmem 1\nfree a full\no1: mov freea\no2: mov #0x1 -> q[0]\n")
        assert str(excinfo.value) == "line 5: bad memory destination 'q[0]'"

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

    @pytest.mark.parametrize("header, message", [
        ("width 4 9\n", "line 1: bad width line 'width 4 9'"),
        ("width 4 4\n", "line 1: bad width line 'width 4 4'"),
        ("width 4\nmem 2 7\n", "line 2: bad mem line 'mem 2 7'"),
        ("width 4\nmem 2\t0\n", "line 2: bad mem line 'mem 2\\t0'"),
        ("width\n", "line 1: bad width line 'width'"),
        ("width 4\nmem\n", "line 2: bad mem line 'mem'"),
        ("width\t4\nmem\t2\t7\n", "line 2: bad mem line 'mem\\t2\\t7'"),
        ("width 4\nfree\n", "line 2: bad free line 'free' (want: free <name> <01|full>)"),
        ("width 4\nfree\tx\n", "line 2: bad free line 'free\\tx' (want: free <name> <01|full>)"),
    ])
    def test_header_line_takes_exactly_one_value(self, header, message):
        with pytest.raises(ParseError) as excinfo:
            parse_program(header + "o1: mov #0x0\n")
        assert str(excinfo.value) == message

    def test_header_fields_split_on_any_whitespace(self):
        spaced = parse_program("width 4\nmem 2\nfree x 01\no1: mov freex\n")
        assert parse_program("width\t4\nmem \t2\nfree\tx\t01\no1: mov freex\n") == spaced


def test_operand_classes_agree():
    # the core's four operand classes are exactly the serializer's
    # formatter keys and exactly what the parser's converters build, so a
    # fifth class cannot miss either walk
    classes = set(typing.get_args(OperandSource))
    assert len(classes) == 4 and set(textfmt._FORMAT) == classes
    tokens = {"#": "#0x1f", "m": "m[2]", "o": "o3", "f": "freea"}
    assert tokens.keys() == textfmt._OPERAND_CLASSES.keys() == textfmt._CONVERT.keys()
    built = set()
    for kind, (pattern, cls, _, _) in textfmt._OPERAND_CLASSES.items():
        assert re.fullmatch(pattern, tokens[kind])
        source = textfmt._Sources()[tokens[kind]]
        assert type(source) is cls and textfmt._FORMAT[cls](getattr(source, cls.__match_args__[0])) == tokens[kind]
        built.add(type(source))
    assert built == classes


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

    @given(st.integers(0, 2**32), st.sampled_from([4, 64]), st.booleans())
    def test_parsed_operands_are_constructed_ones(self, seed, max_width, loop):
        # the parser builds operands without the dataclass __init__; each
        # must be what that __init__ builds: the exact class, equal with an
        # equal hash and repr, and frozen. `loop` puts a space before each
        # comma, which sends every instruction line to the per-line loop.
        p = random_program(random.Random(seed), max_instructions=12, max_width=max_width)
        text = serialize_program(p)
        if loop:
            text = text.replace(", ", " , ")
        q = parse_program(text)
        assert q == p
        for insn, original in zip(q.instructions, p.instructions):
            for source, src in zip(insn.inputs, original.inputs):
                field = dataclasses.fields(src)[0].name
                built = type(src)(getattr(src, field))
                assert type(source) is type(src)
                assert source == built and hash(source) == hash(built) and repr(source) == repr(built)
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(source, field, getattr(src, field))


def watch_loop(monkeypatch, strict):
    """Record each instruction line the per-line loop reads; with `strict`,
    the loop raises on the first one instead."""
    seen = []
    take_lines = textfmt._Parse.take_lines

    def watched(self, lines, first_lineno):
        read = [line for line in lines if textfmt._INSN.match(line.strip())]
        if read and strict:
            raise AssertionError(f"the per-line loop read instruction line {read[0]!r}")
        seen.extend(read)
        return take_lines(self, lines, first_lineno)

    monkeypatch.setattr(textfmt._Parse, "take_lines", watched)
    return seen


LONG = "1" * 4301  # past Python's 4,300-digit int-string conversion limit


class TestSerializerRows:
    """Text in serialize_program's form has its instruction lines read in one
    regex call; any other text reaches the per-line loop and parses as the
    reference parser parses it."""

    def test_random_programs_skip_the_loop(self, monkeypatch):
        watch_loop(monkeypatch, strict=True)
        rng = random.Random(1501)
        for _ in range(300):
            p = random_program(rng)
            assert parse_program(serialize_program(p)) == p

    @pytest.mark.parametrize("seed", [1, 2])
    def test_reductions_skip_the_loop(self, monkeypatch, seed):
        rng = random.Random(seed)
        lits = lambda n, k: [rng.choice([-1, 1]) * rng.randint(1, n) for _ in range(k)]
        maxsat = reductions.reduce_maxsat2(MaxSat2Instance(6, tuple(lits(6, 2) for _ in range(9))))
        gap = reductions.reduce_sat_gap(SatInstance(5, tuple(lits(5, 3) for _ in range(7))), width=4)
        watch_loop(monkeypatch, strict=True)
        assert reductions.load_reduced(reductions.serialize_reduced(maxsat)).program == maxsat.program
        assert reductions.load_gap(reductions.serialize_gap(gap)).program == gap.program

    @pytest.mark.parametrize("text", [
        "width 4\no1:  mov #0x1\n",
        "width 4\no1: mov #0x1\no2: add o1,  o1\n",
        "width 4\no1: mov #0x1 \n",
        "width 4\no1:\tmov #0x1\n",
        "width 4\no1: mov\t#0x1\n",
        "width 4\no01: mov #0x1\n",
        "width 4\no1: mov #0x1\no02: mov o1\n",
        "width 4\no1: mov #0x1 # trailing comment\n",
        "width 4\no1: mov #0xAB\n",
        "width 8\no1: mov #0x1\no2: xor o1, #0xAB\n",
        "width 4\no1: mov #0x1\no2: mov o\u0661\n",
        "width 4\nmem 1\no1: mov #0x1\no2: store o1 -> m[\u0660]\n",
        "width 4\r\nmem 1\r\no1: mov m[0]\r\n",
        "width 4\nmem 1\no1: store #0x1 ->m[0]\n",
        "width 4\n o1: mov #0x1\no2: mov o1\n",
        f"width 4\nmem 1\no1: mov m[{LONG}]\n",
        f"width 4\no1: mov #0x0\no2: mov o{LONG}\n",
        f"width 4\nmem 1\no1: store #0x0 -> m[{LONG}]\n",
        f"width 4\no{LONG}: mov #0x0\n",
        "width 4\no1: frob #0x1\n",
        "width 4\no1: add #0x1\n",
        "width 4\no1: mov #0x1, #0x2\n",
        "width 4\no2: mov #0x1\n",
        "width 4\no1: mov #0x1\nmem 2\n",
        "width 4\no1: mov #0x1\n\no2: mov o1\n",
        "width 4\no1: mov #0x1\x85o2: mov o1\n",
        "o1: mov #0x1\nwidth 4\n",
    ])
    def test_other_form_reaches_the_loop(self, monkeypatch, text):
        seen = watch_loop(monkeypatch, strict=False)
        assert parse_outcome(parse_program, text) == parse_outcome(refparse.parse_program, text)
        assert seen


# line ends that str.splitlines splits on, as the parser does
SEPARATORS = ("\n", "\r\n", "\x0b", "\x85")


def _or_keep(odd):
    """A field's noisy choice: None keeps the valid value, else an odd one."""
    return st.one_of(st.none(), odd)


# program_text's strategies, built once: rebuilding them on every draw, the
# regex strategy above all, took about a third of its two properties' time
_DIGIT = st.integers(0, 9).map(str)
_WIDTH = st.integers(1, 64).map(str)
_ODD_NUMBER = _or_keep(st.one_of(st.integers(-2, 70).map(str), st.text(max_size=3),
                                 st.sampled_from(["\u0663", "1_0", "+4", "0x4"])))
_ODD_TOKEN = _or_keep(st.text(max_size=4))
_NAME = st.from_regex(NAME_PATTERN, fullmatch=True)
_OPERAND_KIND = st.sampled_from(["const", "mem", "prior", "free"])
_CONST = st.integers(0, 300)
_HEX_CASE = st.sampled_from("xX")
_MNEMONIC = st.sampled_from(sorted(MNEMONICS))
_ODD_MNEMONIC = _or_keep(st.sampled_from(["frob", "ADD", ""]))
_ODD_COUNT = _or_keep(st.integers(0, 4))
_DEST = st.sampled_from(["", "", " -> m[0]", " -> m[2]"])
_ODD_DEST = _or_keep(st.just(" -> x"))
_DOMAIN = st.sampled_from([BINARY01, FULL])
_ODD_DOMAIN = _or_keep(st.just("2"))
_COMMENTED = _or_keep(st.just(True))
_ODD_LINE = st.text(max_size=12)
_SEPARATOR = st.sampled_from(SEPARATORS)


@st.composite
def program_text(draw):
    """Valid header and instruction lines joined by any line end. In a noisy
    text any number, name, operand, mnemonic, operand count or memory
    destination may instead be arbitrary or near-valid, headers may follow
    instructions, and arbitrary lines are mixed in."""
    noisy = draw(st.booleans())

    def pick(valid, odd):
        """`valid` (a value, or a strategy drawn only when kept), or in a
        noisy text possibly a draw from the prebuilt `odd`."""
        got = draw(odd) if noisy else None
        if got is not None:
            return got
        return draw(valid) if isinstance(valid, st.SearchStrategy) else valid

    def number(valid=_DIGIT):
        return pick(valid, _ODD_NUMBER)

    def operand():
        kind = draw(_OPERAND_KIND)
        if kind == "const":
            token = f"#0x{draw(_CONST):{draw(_HEX_CASE)}}"
        elif kind == "mem":
            token = f"m[{number()}]"
        elif kind == "prior":
            token = f"o{number()}"
        else:
            token = f"free{name()}"
        return pick(token, _ODD_TOKEN)

    def name():
        return pick(_NAME, _ODD_TOKEN)

    lines = [f"width {number(_WIDTH)}"]
    for index in range(1, draw(st.integers(0, 6)) + 1):
        mnemonic = pick(_MNEMONIC, _ODD_MNEMONIC)
        count = pick(ARITY.get(mnemonic, 1), _ODD_COUNT)
        operands = ", ".join(operand() for _ in range(count))
        dest = pick(_DEST, _ODD_DEST)
        lines.append(f"o{number(str(index))}: {mnemonic} {operands}{dest}")
    for _ in range(draw(st.integers(0, 3))):  # headers, right after width unless noisy
        if draw(st.booleans()):
            line = f"mem {number()}"
        else:
            line = f"free {name()} {pick(_DOMAIN, _ODD_DOMAIN)}"
        lines.insert(draw(st.integers(1, 1 + noisy * (len(lines) - 1))), line)
    for _ in range(noisy * draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(_ODD_LINE))
    lines = [f" {line}\t# c" if pick(False, _COMMENTED) else line for line in lines]
    return "".join(line + draw(_SEPARATOR) for line in lines)


@settings(max_examples=300, deadline=None)
@given(program_text())
def test_any_text_raises_parse_error_or_round_trips(text):
    try:
        p = parse_program(text)
    except (ParseError, ProgramValidationError):
        return
    assert parse_program(serialize_program(p)) == p


# every line break str.splitlines knows
LINE_BREAKS = ("\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")
# what a mutation writes: line breaks, whole-line and trailing comments (one
# between a `\r` and a `\n` among them), hex constants beside comments, and
# operand syntax
PIECES = st.one_of(
    st.sampled_from([*LINE_BREAKS, "#", "# c", "#0x", "#0x1 # c", "\r# c\n", "\x85#\r", " ", "\t",
                     ",", "->", "o1", "m[0]", "free", "7"]),
    st.text(max_size=3),
)


@st.composite
def mutated_program_text(draw):
    """Program text with up to four pieces written over it, each either at
    any place or right at a line break."""
    text = draw(st.one_of(
        program_text(),
        st.integers(0, 2**32 - 1).map(lambda seed: serialize_program(random_program(random.Random(seed)))),
    ))
    for _ in range(draw(st.integers(0, 4))):
        breaks = [i for i, c in enumerate(text) if c in "".join(LINE_BREAKS)]
        if breaks and draw(st.booleans()):
            i = breaks[draw(st.integers(0, len(breaks) - 1))]
        else:
            i = draw(st.integers(0, len(text)))
        text = text[:i] + draw(PIECES) + text[i + draw(st.integers(0, 3)):]
    return text


def parse_outcome(parse, text):
    try:
        return parse(text)
    except Exception as e:  # both parsers must fail alike, whatever the error
        return type(e), str(e)


@settings(max_examples=300, deadline=None)
@given(mutated_program_text())
@example("width 4\r# a comment line between \\r and \\n\nfree a 2\n")  # the error is on line 3
@example("".join(f"# {i}{b}" for i, b in enumerate(LINE_BREAKS)) + "width 4\no1: mov #0x1# c\no2: frob\n")
@example(f"width 4\nmem 1\no1: mov #0x1\no2: store o1 -> m[{'9' * 4301}]\n")  # serializer form, too long
@example("width 4\nfree a 01\no01: mov freea\no2:\tadd o1,  o1\n")  # the first row is not serializer form
@example("width 4\nmem 1\no1: mov\n")  # a mnemonic with no operands
@example("width 4\nmem 1\no1: store -> m[0]\n")
def test_parser_matches_reference_parser(text):
    assert parse_outcome(parse_program, text) == parse_outcome(refparse.parse_program, text)
