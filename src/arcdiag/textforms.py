"""Parsing and formatting for the textual exchange forms.

Forms are ASCII and canonical: formatting a parsed value reproduces a
unique normal form (arcs in ascending (a, b, sides) order, digit form
for permutations up to n = 9).  Parse failures raise `ParseError` with
the byte offset of the offending character.
"""
from __future__ import annotations

from typing import Callable

from .arcs import Arc, ArcSet, _grown, side_mask
from .congruences import _named_rule
from .diagrams import Diagram, validate_diagram
from .perms import Permutation


class ParseError(ValueError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte {offset})")
        self.offset = offset


def format_permutation(x: Permutation) -> str:
    return str(x)


def parse_permutation(text: str) -> Permutation:
    """Digits run together, or comma-separated values for any size.

    >>> parse_permutation("25314").entries
    (2, 5, 3, 1, 4)
    >>> parse_permutation("2,5,3,1,4").entries
    (2, 5, 3, 1, 4)
    """
    if not text:
        raise ParseError("empty permutation", 0)
    values: list[int] = []
    if "," in text:
        offset = 0
        for part in text.split(","):
            values.append(_whole_int(part, f"expected a number, got {part!r}", offset))
            offset += len(part) + 1
    else:
        for i, ch in enumerate(text):
            if ch not in "123456789":
                raise ParseError(f"expected a digit 1-9, got {ch!r}", i)
            values.append(int(ch))
    try:
        return Permutation(tuple(values))
    except ValueError as exc:
        raise ParseError(str(exc), 0) from None


def format_arc(alpha: Arc) -> str:
    return str(alpha)


def _scan_int(text: str, offset: int, message: str, base: int = 0) -> tuple[int, int]:
    # ASCII digits only: str.isdigit also passes digits that int() rejects or misreads
    end = len(text) - len(text[offset:].lstrip("0123456789"))
    if end == offset:
        raise ParseError(message, base + offset)
    try:
        return int(text[offset:end]), end
    except ValueError:  # more digits than sys.get_int_max_str_digits() allows
        raise ParseError("number too long", base + offset) from None


def _whole_int(text: str, message: str, base: int = 0) -> int:
    """The number spelled by all of `text`, or an error at its first non-digit."""
    value, end = _scan_int(text, 0, message, base)
    if end < len(text):
        raise ParseError(message, base + end)
    return value


def parse_arc(text: str, n: int, base_offset: int = 0) -> Arc:
    """`a-b` for a short arc, `a-b:<sides>` with one L or R per interior point.

    >>> str(parse_arc("4-8:LRL", 9))
    '4-8:LRL'
    """
    a, offset = _scan_int(text, 0, "expected the lower endpoint", base_offset)
    if offset >= len(text) or text[offset] != "-":
        raise ParseError("expected '-' between endpoints", base_offset + offset)
    b, offset = _scan_int(text, offset + 1, "expected the upper endpoint", base_offset)
    sides = ""
    if offset < len(text):
        if text[offset] != ":":
            raise ParseError("unexpected trailing text", base_offset + offset)
        sides_start = offset + 1
        sides = text[sides_start:]
        i = len(sides) - len(sides.lstrip("LR"))
        if i < len(sides):
            raise ParseError(f"expected L or R, got {sides[i]!r}", base_offset + sides_start + i)
        if b - a == 1:
            raise ParseError("an arc of length 1 has no interior sides", base_offset + offset)
    if b - a > 1 and len(sides) != b - a - 1:
        raise ParseError(
            f"arc {a}-{b} needs {b - a - 1} side letters, got {len(sides)}",
            base_offset + len(text),
        )
    try:
        return Arc(n, a, b, side_mask(sides))
    except ValueError as exc:
        raise ParseError(str(exc), base_offset) from None


def format_diagram_body(diagram: Diagram) -> str:
    return str(diagram)


def format_diagram(diagram: Diagram) -> str:
    return f"n={diagram.n}\n{format_diagram_body(diagram)}"


def _parse_header(lines: list[str]) -> int:
    if not lines or not lines[0].startswith("n="):
        raise ParseError("expected a header line n=<N>", 0)
    return _whole_int(lines[0][2:], "expected a number after n=", 2)


def parse_diagram_body(text: str, n: int, base_offset: int = 0) -> Diagram:
    """Arcs joined by ';'; the empty string is the empty diagram."""
    arcs = []
    if text:
        offset = 0
        for chunk in text.split(";"):
            arcs.append(parse_arc(chunk, n, base_offset + offset))
            offset += len(chunk) + 1
    return validate_diagram(n, arcs)


def parse_diagram(text: str) -> Diagram:
    """Header line n=<N>, then the arcs on one line.

    >>> str(parse_diagram("n=8\\n1-3:R;2-5:LL;3-7:LRL"))
    '1-3:R;2-5:LL;3-7:LRL'
    """
    lines = text.split("\n")
    n = _parse_header(lines)
    body = lines[1] if len(lines) > 1 else ""
    offset = len(lines[0]) + 1
    for k, extra in enumerate(lines[2:]):
        if extra:  # the k lines before it are empty; the unchecked body may hold non-ASCII,
            # and an undecodable input byte, read as a lone surrogate, counts as one byte
            raise ParseError("unexpected extra line", offset + len(body.encode("utf-8", "replace")) + 1 + k)
    return parse_diagram_body(body, n, offset)


def format_arcset(arcset: ArcSet) -> str:
    lines = [f"n={arcset.n}"]
    lines.extend(str(alpha) for alpha in arcset.sorted_arcs())
    return "\n".join(lines)


def parse_arcset(text: str) -> ArcSet:
    """Header line n=<N>, then one arc per line."""
    lines = text.split("\n")
    n = _parse_header(lines)
    offset = len(lines[0]) + 1
    members = []
    for line in lines[1:]:
        if line:
            members.append(parse_arc(line, n, offset))
        offset += len(line) + 1
    return ArcSet(n, frozenset(members))


def parse_congruence_spec(spec: str, n: int) -> ArcSet:
    """CLI congruence names: tamari, baxter, cambrian:<LR..>, clumped:<k>, maxlen:<k>."""
    return _grown(n, _spec_rule(spec, n))[0]


def _spec_rule(spec: str, n: int) -> Callable[[tuple[int, int, int]], bool]:
    """The key rule a congruence spec names on n points; see `congruences._named_rule`."""
    name, sep, payload = spec.partition(":")
    if name in ("tamari", "baxter"):
        if sep:
            raise ParseError(f"{name} takes no parameter", len(name))
        return _named_rule(n, name)
    if name == "cambrian":
        if not sep:
            raise ParseError("cambrian needs an orientation, e.g. cambrian:RLR", len(name))
        for i, ch in enumerate(payload):
            if ch not in "LR":
                raise ParseError(f"expected L or R, got {ch!r}", len(name) + 1 + i)
        if len(payload) != n:
            raise ParseError(f"orientation needs {n} letters, got {len(payload)}", len(name) + 1)
        return _named_rule(n, "cambrian", orientation=payload)
    if name in ("clumped", "maxlen"):
        message = f"{name} needs a numeric bound, e.g. {name}:2"
        if not sep:
            raise ParseError(message, len(name))
        k = _whole_int(payload, message, len(name) + 1)
        try:
            return _named_rule(n, name, k=k)
        except ValueError as exc:
            raise ParseError(str(exc), len(name) + 1) from None
    raise ParseError(f"unknown congruence family {name!r}", 0)
