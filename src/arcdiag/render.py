"""Deterministic ASCII, SVG, and DOT views of diagrams and posets.

Both renderers share one layout: points sit on a vertical axis with 1
at the bottom, and an arc's horizontal offset at an interior point is a
whole number of units, positive when the point lies on the arc's left
(the arc bows to the point's right) and negative on the other side.
Arcs sharing a point and side are stacked in the left-to-right order of
the bottom-to-top sweep that validation draws with, `diagrams._sweep`,
so curves never cross: at a point with r arcs on its left, the i-th arc
from the left, counting from 0, sits at i - r, or at i - r + 1 once past
the point.  A set
that is not a diagram is refused with the error of `validate_diagram`.
Output depends only on the input values.
"""
from __future__ import annotations

from typing import Callable

from .arcs import Arc, ArcSet, _arc_text, _arcs_on, _spelled, _subarc_cover_keys, full_arc_set
from .congruences import _cover_bottoms, _prefix_walk, _require_congruence
from .diagrams import Diagram, _sweep
from .perms import Permutation

SPACING = 40  # vertical px between points
UNIT = 22  # horizontal px per offset unit
MARGIN = 30
RADIUS = 4
STROKE_WIDTH = 2
COL_WIDTH = 2  # ascii columns per offset unit


def arc_offsets(diagram: Diagram) -> dict[Arc, dict[int, int]]:
    """Unit offsets per arc and height, arcs in canonical order; endpoints sit on the axis at 0.

    Incompatible arcs raise the error of `validate_diagram`.
    """
    per = {a: {a: 0, b: 0} for a, b, _ in diagram._keys}  # by lower endpoint, which `_sweep` finds unshared
    for p, passing, r in _sweep(diagram):
        for i, (a, _, _) in enumerate(passing, -r):
            per[a][p] = i if i < 0 else i + 1
    return {alpha: per[alpha.a] for alpha in diagram.sorted_arcs()}


def _layout(diagram: Diagram) -> tuple[dict[Arc, dict[int, int]], int, int]:
    """`arc_offsets` of the diagram, and its least and greatest offset (0 and 0 with no arcs)."""
    offsets = arc_offsets(diagram)
    every = [o for per in offsets.values() for o in per.values()]
    return offsets, min(every, default=0), max(every, default=0)


def _marker(h: int) -> str:
    return str(h) if h <= 9 else "o"


def render_ascii(diagram: Diagram) -> str:
    """Character-grid picture, one row per point and one between.

    >>> from .textforms import parse_diagram
    >>> print(render_ascii(parse_diagram("n=3\\n1-3:L")))
    3
     \\
    2 |
     /
    1
    """
    n = diagram.n
    offsets, lo, hi = _layout(diagram)
    center = -lo * COL_WIDTH
    width = (hi - lo) * COL_WIDTH + 1
    grid = [bytearray(b" " * width) for _ in range(2 * n - 1)]  # ASCII rows, each run filled by one slice
    bar = ord("|")

    def row_of(h: int) -> int:
        return 2 * (n - h)

    for alpha, per in offsets.items():
        for h in range(alpha.a + 1, alpha.b):
            grid[row_of(h)][center + COL_WIDTH * per[h]] = bar
        for h in range(alpha.a, alpha.b):
            upper = center + COL_WIDTH * per[h + 1]
            lower = center + COL_WIDTH * per[h]
            r = row_of(h) - 1
            if upper == lower:
                grid[r][upper] = bar
            elif lower > upper:
                grid[r][upper + 1:lower] = b"_" * (lower - upper - 2) + b"\\"
            else:
                grid[r][lower + 1:upper] = b"/" + b"_" * (upper - lower - 2)

    for h in range(1, n + 1):
        grid[row_of(h)][center] = ord(_marker(h))
    return b"\n".join(row.rstrip() for row in grid).decode()


def render_svg(diagram: Diagram) -> str:
    """Standalone SVG with smooth monotone curves through the layout.

    Each height step is one cubic segment with vertical tangents, so a
    curve's horizontal position between two points is a fixed blend of
    its offsets at those points and stacking order is preserved at every
    height, not just at the points themselves.
    """
    n = diagram.n
    offsets, lo, hi = _layout(diagram)
    cx = MARGIN - lo * UNIT
    width = 2 * MARGIN + (hi - lo) * UNIT
    height = 2 * MARGIN + (n - 1) * SPACING
    bend = SPACING // 3

    def y(h: int) -> int:
        return MARGIN + (n - h) * SPACING

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    ]
    if offsets:
        lines.append(f'<g fill="none" stroke="black" stroke-width="{STROKE_WIDTH}">')
        for alpha, per in offsets.items():
            points = [(cx + UNIT * per[h], y(h)) for h in range(alpha.a, alpha.b + 1)]
            parts = [f"M {points[0][0]} {points[0][1]}"]
            for (x0, y0), (x1, y1) in zip(points, points[1:]):
                parts.append(f"C {x0} {y0 - bend},{x1} {y1 + bend},{x1} {y1}")
            lines.append(f'<path d="{" ".join(parts)}"/>')
        lines.append("</g>")
    for h in range(1, n + 1):
        lines.append(f'<circle cx="{cx}" cy="{y(h)}" r="{RADIUS}"/>')
    lines.append("</svg>")
    return "\n".join(lines)


def _dot(graph: str, covers: dict, spell: Callable[[object], str]) -> str:
    """DOT text of a Hasse diagram: each node, in order, maps to its upper covers in order; `spell` names it."""
    names = {x: spell(x) for x in covers}  # every cover end is a node
    lines = [f"digraph {graph} {{", "  rankdir=BT;"]
    lines.extend(f'  "{name}";' for name in names.values())
    lines.extend(f'  "{name}" -> "{names[y]}";' for name, ups in zip(names.values(), covers.values()) for y in ups)
    lines.append("}")
    return "\n".join(lines)


def export_dot(kind: str, n: int, arcset: ArcSet | None = None) -> str:
    """DOT text for the forcing order on arcs or the weak order Hasse diagram.

    `kind` is "forcing" or "weak"; for "weak" an ArcSet restricts the
    nodes to the uncontracted permutations of that congruence, giving
    the quotient as an induced subposet; without one, the quotient by the
    congruence contracting nothing.  Nodes, and each node's upper covers,
    come in canonical (lexicographic) order; the maps are keyed by arc
    keys and by words, each spelled as `str` spells its arc or permutation.
    """
    if kind == "forcing":
        if arcset is not None:
            raise ValueError("the forcing export does not take a congruence")
        covers: dict[tuple[int, int, int], list] = {key: [] for key in sorted(full_arc_set(n)._keys, key=_spelled)}
        for beta in covers:
            for alpha in _subarc_cover_keys(*beta):
                covers[alpha].append(beta)
        return _dot("forcing", covers, lambda key: _arc_text(*_spelled(key)))
    if kind == "weak":
        # every descent of a class bottom y is uncontracted, and the classes
        # that y's class covers are those of y's lower covers, all distinct
        keep = _require_congruence(n, _arcs_on(n, arcset))
        above: dict[tuple[int, ...], list] = {word + t: [] for word, tails in _prefix_walk(n, keep) for t in tails}
        for y in above:
            for x in _cover_bottoms(y, keep):
                above[x].append(y)
        return _dot("weak_order", above, lambda word: str(Permutation._trusted(word)))
    raise ValueError(f"unknown export kind {kind!r}")
