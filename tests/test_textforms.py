import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arcdiag import (
    ParseError,
    Permutation,
    diagram_from_permutation,
    format_arc,
    format_arcset,
    format_diagram,
    format_diagram_body,
    format_permutation,
    full_arc_set,
    named_congruence,
    parse_arc,
    parse_arcset,
    parse_congruence_spec,
    parse_diagram,
    parse_diagram_body,
    parse_permutation,
)
from arcdiag import textforms
from arcdiag.arcs import Arc, _shown, side_mask

perms = lambda n: st.permutations(range(1, n + 1)).map(lambda e: Permutation(tuple(e)))


def test_parse_permutation_digit_form():
    x = parse_permutation("157842936")
    assert x.entries == (1, 5, 7, 8, 4, 2, 9, 3, 6)


def test_parse_permutation_comma_form():
    assert parse_permutation("1,5,7,8,4,2,9,3,6") == parse_permutation("157842936")
    big = parse_permutation("10,1,2,3,4,5,6,7,8,9")
    assert big.n == 10
    assert format_permutation(big) == "10,1,2,3,4,5,6,7,8,9"


def test_format_permutation_prefers_digits():
    assert format_permutation(Permutation((2, 1, 3))) == "213"


@pytest.mark.parametrize(
    "text,offset",
    [
        ("15x", 2),
        ("", 0),
        ("1,5,x", 4),
        ("122", 0),
        ("15", 0),
    ],
)
def test_parse_permutation_errors_carry_offsets(text, offset):
    with pytest.raises(ParseError) as err:
        parse_permutation(text)
    assert err.value.offset == offset
    assert f"(byte {offset})" in str(err.value)


def test_parse_arc_example():
    alpha = parse_arc("4-8:LRL", n=9)
    assert (alpha.a, alpha.b) == (4, 8)
    assert alpha.left == frozenset({5, 7})
    assert alpha.right == frozenset({6})


def test_parse_arc_errors():
    with pytest.raises(ParseError) as err:
        parse_arc("4-8:LXL", n=9)
    assert err.value.offset == 5
    with pytest.raises(ParseError):
        parse_arc("4-8:LL", n=9)  # needs exactly three side letters
    with pytest.raises(ParseError):
        parse_arc("1-2:L", n=4)  # unit arcs carry no sides
    with pytest.raises(ParseError):
        parse_arc("8-4:LRL", n=9)
    with pytest.raises(ParseError):
        parse_arc("4-8:LRL", n=7)


def test_parse_then_format_canonicalizes():
    d = parse_diagram_body("2-5:LL;1-3:R;3-7:LRL", n=8)
    assert format_diagram_body(d) == "1-3:R;2-5:LL;3-7:LRL"


def test_diagram_header_round_trip():
    d = parse_diagram("n=8\n1-3:R;2-5:LL;3-7:LRL")
    assert format_diagram(d) == "n=8\n1-3:R;2-5:LL;3-7:LRL"
    assert parse_diagram(format_diagram(d)) == d
    assert parse_diagram("n=8\n1-3:R;2-5:LL;3-7:LRL\n") == d


def test_diagram_errors_carry_offsets():
    with pytest.raises(ParseError) as err:
        parse_diagram("m=8\n1-3:R")
    assert err.value.offset == 0
    with pytest.raises(ParseError) as err:
        parse_diagram("n=8\n1-3:R;9-9")
    assert err.value.offset == 10
    with pytest.raises(ParseError) as err:
        parse_diagram("n=8\n1-3:R;-")
    assert err.value.offset == 10
    with pytest.raises(ValueError, match="endpoint"):
        parse_diagram_body("1-2;1-3:L", n=3)


@pytest.mark.parametrize(
    "text, offset",
    [
        ("n=3\n1-2\nx", 8),
        ("n=3\n1-2\n\nx", 9),
        ("n=3\n1-2\n\n\n  y", 10),
        ("n=3\n\n\nx", 6),
        ("n=3\n1-\u00e9\nx", 9),  # é is two bytes in UTF-8
        ("n=3\n1-\udc80\nx", 8),  # one undecodable byte, as read under surrogateescape
    ],
)
def test_extra_line_offset_is_its_first_character(text, offset):
    with pytest.raises(ParseError, match="unexpected extra line") as err:
        parse_diagram(text)
    assert err.value.offset == offset


def test_empty_diagram_forms():
    d = parse_diagram("n=5\n")
    assert d.arcs == frozenset()
    assert format_diagram(d) == "n=5\n"
    assert parse_diagram_body("", n=5) == d


def test_arcset_round_trip():
    u = named_congruence(4, "tamari")
    text = format_arcset(u)
    assert text.splitlines()[0] == "n=4"
    assert parse_arcset(text) == u
    assert parse_arcset("n=4\n1-2\n\n2-3\n") .arcs == {
        parse_arc("1-2", n=4),
        parse_arc("2-3", n=4),
    }


def test_parse_congruence_specs():
    assert parse_congruence_spec("tamari", 4) == named_congruence(4, "tamari")
    assert parse_congruence_spec("baxter", 5) == named_congruence(5, "baxter")
    assert parse_congruence_spec("cambrian:LRLR", 4) == named_congruence(
        4, "cambrian", orientation="LRLR"
    )
    assert parse_congruence_spec("clumped:2", 5) == named_congruence(5, "clumped", k=2)
    assert parse_congruence_spec("maxlen:3", 5) == named_congruence(5, "maxlen", k=3)


@pytest.mark.parametrize(
    "spec",
    ["tamari:1", "cambrian", "cambrian:LR", "cambrian:LRX", "clumped:x", "maxlen:", "bogus"],
)
def test_parse_congruence_spec_errors(spec):
    with pytest.raises(ParseError):
        parse_congruence_spec(spec, 3)


@given(st.integers(1, 9).flatmap(perms))
@settings(max_examples=300, deadline=None)
def test_permutation_text_round_trip(x):
    assert parse_permutation(format_permutation(x)) == x


@given(st.integers(1, 7).flatmap(perms))
@settings(max_examples=300, deadline=None)
def test_diagram_text_round_trip(x):
    d = diagram_from_permutation(x)
    assert parse_diagram(format_diagram(d)) == d
    assert parse_diagram_body(format_diagram_body(d), n=x.n) == d


def test_full_arc_set_text_round_trip():
    for n in range(2, 7):
        u = full_arc_set(n)
        assert parse_arcset(format_arcset(u)) == u
        for alpha in u.arcs:
            assert parse_arc(format_arc(alpha), n=n) == alpha


def parse_arc_on_3(text):
    return parse_arc(text, 3)


def parse_spec_on_4(text):
    return parse_congruence_spec(text, 4)


@pytest.mark.parametrize("digit", ["²", "٣"])
@pytest.mark.parametrize(
    "parse,template,offset",
    [
        (parse_permutation, "1{}", 1),
        (parse_permutation, "1,{}", 2),
        (parse_permutation, "{}1,2", 0),
        (parse_arc_on_3, "{}-3", 0),
        (parse_arc_on_3, "1-{}", 2),
        (parse_arc_on_3, "1{}-3", 1),
        (parse_diagram, "n={}\n", 2),
        (parse_diagram, "n=3{}\n", 3),
        (parse_diagram, "n=3\n1-{}", 6),
        (parse_arcset, "n={}\n1-2", 2),
        (parse_spec_on_4, "clumped:{}", 8),
        (parse_spec_on_4, "maxlen:1{}", 8),
    ],
)
def test_non_ascii_digits_are_parse_errors(parse, template, offset, digit):
    # str.isdigit accepts these; int() then raised without an offset or,
    # for some, read a different number
    text = template.format(digit)
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.offset == offset


@pytest.mark.parametrize(
    "parse,template,offset",
    [
        (parse_permutation, "1,{}", 2),
        (parse_arc_on_3, "1-{}", 2),
        (parse_diagram, "n={}\n", 2),
        (parse_spec_on_4, "maxlen:{}", 7),
    ],
)
def test_overlong_numbers_are_parse_errors(parse, template, offset):
    # int() refuses strings past sys.get_int_max_str_digits() (4300 by default)
    with pytest.raises(ParseError) as err:
        parse(template.format("9" * 5000))
    assert err.value.offset == offset


def test_numeric_bound_missing_its_colon_points_inside_the_text():
    with pytest.raises(ParseError) as err:
        parse_congruence_spec("clumped", 3)
    assert err.value.offset == len("clumped")


def parses_or_reports_offset(parse, text):
    """Either a value or a ParseError pointing inside the text, nothing else."""
    try:
        parse(text)
    except ParseError as exc:
        assert 0 <= exc.offset <= len(text.encode("utf-8", "replace")), (text, exc.offset)


def any_text(alphabet, max_size=24):
    return st.one_of(st.text(max_size=max_size), st.text(alphabet, max_size=max_size))


FUZZ = settings(max_examples=400, deadline=None)


@given(any_text("0123456789,²٣x"))
@FUZZ
def test_fuzz_parse_permutation(text):
    parses_or_reports_offset(parse_permutation, text)


@given(any_text("0123456789-:LR²٣x"), st.integers(0, 12))
@FUZZ
def test_fuzz_parse_arc(text, n):
    parses_or_reports_offset(lambda t: parse_arc(t, n), text)


@given(
    st.one_of(
        st.text(max_size=30),
        st.tuples(
            st.sampled_from(["n=", "m=", ""]),
            st.text("0123456789²", max_size=2),
            st.text("0123456789-:;LR\n²٣", max_size=30),
        ).map("".join),
    )
)
@example("n=9223372036854775808")
@example("n=9223372036854775808\n1-2")
@example("n=9223372036854775808\n1-x")
@FUZZ
def test_fuzz_parse_diagram(text):
    try:
        parses_or_reports_offset(parse_diagram, text)
    except ValueError as exc:
        if str(exc).startswith("n must be at most "):
            # a header past sys.maxsize, which `ArcSet` refuses without an
            # offset, in the words of the CLI's size errors
            n = int(text.split("\n")[0][2:])
            assert n > sys.maxsize and str(exc) == f"n must be at most {sys.maxsize}, got {_shown(n)}", (text, exc)
        else:
            # well-formed text whose arcs cannot share a diagram: a validity
            # error from validate_diagram, which carries no offset
            assert str(exc).startswith("incompatible arcs: "), (text, exc)


@given(
    st.one_of(
        st.text(max_size=20),
        st.tuples(
            st.sampled_from(["tamari", "baxter", "cambrian", "clumped", "maxlen", "bogus", ""]),
            st.text(":LR0123456789²٣x", max_size=10),
        ).map("".join),
    ),
    st.integers(0, 6),
)
@FUZZ
def test_fuzz_parse_congruence_spec(text, n):
    parses_or_reports_offset(lambda t: parse_congruence_spec(t, n), text)


def looped_scan_int(text, offset, message, base=0):
    """The per-character digit scan that `textforms._scan_int` replaced, kept as its oracle."""
    start = offset
    while offset < len(text) and text[offset] in "0123456789":
        offset += 1
    if offset == start:
        raise ParseError(message, base + start)
    try:
        return int(text[start:offset]), offset
    except ValueError:
        raise ParseError("number too long", base + start) from None


def looped_parse_arc(text, n, base_offset=0):
    """`parse_arc` with the per-character side-letter scan it replaced, kept as its oracle."""
    a, offset = textforms._scan_int(text, 0, "expected the lower endpoint", base_offset)
    if offset >= len(text) or text[offset] != "-":
        raise ParseError("expected '-' between endpoints", base_offset + offset)
    b, offset = textforms._scan_int(text, offset + 1, "expected the upper endpoint", base_offset)
    sides = ""
    if offset < len(text):
        if text[offset] != ":":
            raise ParseError("unexpected trailing text", base_offset + offset)
        sides_start = offset + 1
        sides = text[sides_start:]
        for i, ch in enumerate(sides):
            if ch not in "LR":
                raise ParseError(f"expected L or R, got {ch!r}", base_offset + sides_start + i)
        if b - a == 1:
            raise ParseError("an arc of length 1 has no interior sides", base_offset + offset)
    if b - a > 1 and len(sides) != b - a - 1:
        raise ParseError(f"arc {a}-{b} needs {b - a - 1} side letters, got {len(sides)}", base_offset + len(text))
    try:
        return Arc(n, a, b, side_mask(sides))
    except ValueError as exc:
        raise ParseError(str(exc), base_offset) from None


def parse_arc_on_9(text):
    return textforms.parse_arc(text, 9)  # looked up per call, so patching the module reaches it


NUMBERS = ["3", "003", "+3", " 3", "٣", "1_0", "", "9" * 5000, "3x"]
SIDES = ["LRLRL"] + [
    "LRLRL"[:i] + bad + "LRLRL"[i + 1:] for bad in ("l", "X", "Ł") for i in (0, 2, 4)
]
SCAN_CORPUS = (
    [(parse_permutation, t.format(v)) for t in ("1,2,{}", "{},1,2", "2,{},1") for v in NUMBERS]
    + [(parse_permutation, t) for t in ("1,,2", "1,2,", ",", "1,2,3,")]
    + [(parse_arc_on_9, t.format(v)) for t in ("{}-5:R", "1-{}", "1-{}:LR", "2{}-9") for v in NUMBERS]
    + [(parse_diagram, t.format(v)) for t in ("n={}", "n={}\n1-3:L", "n=9\n2-{}", "n=9\n8-9;1-{}:LR")
       for v in NUMBERS]
    + [(parse, t.format(s)) for s in SIDES for parse, t in ((parse_arc_on_9, "1-7:{}"),
                                                            (parse_diagram, "n=9\n8-9;1-7:{}"))]
)


def parsed(parse, text):
    """The value, or the type, message and offset of the error raised instead."""
    try:
        return parse(text)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "offset", None)


def short_id(value):
    """A test id for a long input, cut in the middle; pytest's own id otherwise."""
    return f"{value[:20]}...{value[-10:]}" if isinstance(value, str) and len(value) > 40 else None


@pytest.mark.parametrize("parse, text", SCAN_CORPUS, ids=short_id)
def test_scans_match_the_per_character_loops(parse, text, monkeypatch):
    got = parsed(parse, text)
    monkeypatch.setattr(textforms, "_scan_int", looped_scan_int)
    monkeypatch.setattr(textforms, "parse_arc", looped_parse_arc)
    assert got == parsed(parse, text)
