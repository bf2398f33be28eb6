"""Noncrossing arc diagrams and their bijection with permutations.

A diagram is a set of pairwise compatible arcs on n points.  Each
permutation maps to the diagram collecting one arc per descent (the arcs
of its canonical joinands), and that map is a bijection: the inverse
reads the diagram's connected components off from left to right, writing
each component's points in decreasing order.  The components are thus
the descending runs of the inverse, which is all `deletion_stages` reads.

The component walk of `permutation_from_diagram` mirrors how the diagram
sits in the plane.  Treating arcs as edges, every component of a valid
diagram is a path through decreasing point labels.  A component sits
right of another when a witness point lies left of (or on) the first and
right of (or on) the second.  Writing the components in an in-degree
order, always the leftmost one with the smallest minimum label,
reconstructs the one-line notation in O(k²) steps for k components.
"""
from __future__ import annotations

import heapq
import itertools
import math
from typing import Iterable, Iterator

from .arcs import Arc, ArcSet, _arcs_on, _descent_arcs, incompatibility_reason
from .perms import Permutation, _Frozen


Diagram = ArcSet  # with pairwise compatible arcs; `validate_diagram` checks them


def validate_diagram(n: int, arcs: Iterable[Arc]) -> Diagram:
    """Check pairwise compatibility and wrap the arcs in a Diagram.

    Pairwise compatibility suffices: any set of pairwise compatible arcs
    can be drawn together without crossings.  So the set is drawn from
    point 1 upward (`_sweep`), which decides in time that follows the
    arcs' spans; only a refused set evaluates the compatibility masks of
    `ArcSet._forcing`, whose first pair in canonical order that they leave
    out words the error.  A bad size fails the `ArcSet` checks first.
    """
    diagram = Diagram(n, arcs)
    for _ in _sweep(diagram):  # raises for a set it cannot draw
        pass
    return diagram


def diagram_from_permutation(x: Permutation) -> Diagram:
    """The noncrossing arc diagram of x, one arc per descent.

    The descent b = x_i > x_{i+1} = a contributes the arc from a to b
    whose left side holds the in-between values appearing before the
    descent.  This is the same set as the arcs of the canonical joinands.

    >>> str(diagram_from_permutation(Permutation((1, 5, 7, 8, 4, 2, 9, 3, 6))))
    '2-4:R;3-9:LLRLL;4-8:LRL'
    """
    return Diagram._trusted(x.n, frozenset([key for _, key in _descent_arcs(x)]))


def _components(diagram: Diagram) -> tuple[list[tuple[int, ...]], list[int], list[int]]:
    """The components' points, each run decreasing and runs by lowest point, and their leftish and rightish masks.

    A mask holds the component's points plus the left (right) sides of its arcs.
    """
    n = diagram.n
    parent = list(range(n + 1))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for a, b, _ in diagram._keys:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    members: dict[int, list[int]] = {}  # ascending points, components by their lowest
    for p in range(1, n + 1):
        members.setdefault(find(p), []).append(p)
    sides = {root: [sum(1 << p for p in pts)] * 2 for root, pts in members.items()}  # leftish, rightish
    for a, b, mask in diagram._keys:
        side = sides[find(a)]
        side[0] |= ((1 << (b - a - 1)) - 1 ^ mask) << (a + 1)
        side[1] |= mask << (a + 1)
    return ([tuple(reversed(pts)) for pts in members.values()],
            [side[0] for side in sides.values()], [side[1] for side in sides.values()])


def permutation_from_diagram(diagram: Diagram) -> Permutation:
    """Invert `diagram_from_permutation`: write the components from left to right, each decreasingly.

    Of the components not right of any remaining one, the one with the
    smallest minimum goes next.  In Kahn's order each component counts the
    components it is right of, and enters a heap keyed by its lowest point
    when the count reaches 0; writing it lowers its dependants' counts, in
    O(k²) time for k components.  Inputs that cannot be drawn fail
    loudly instead of producing a wrong permutation: the word must be a
    permutation whose diagram is the input, which holds exactly for valid
    diagrams since `diagram_from_permutation` is a bijection onto them.

    >>> from .textforms import parse_diagram
    >>> str(permutation_from_diagram(parse_diagram("n=8\\n1-3:R;2-5:LL;3-7:LRL")))
    '46731528'
    """
    runs, leftish, rightish = _components(diagram)
    k = len(runs)
    # components never share points, so witness points are never endpoints
    # of arcs on both sides and the mask test matches the pairwise rule
    right_of = [[left & right != 0 for right in rightish] for left in leftish]
    for i, row in enumerate(right_of):
        row[i] = False

    color = [0] * k  # 0 unseen, 1 on stack, 2 done

    def check_acyclic(i: int) -> None:
        color[i] = 1
        row = right_of[i]
        for j in range(k):
            if row[j]:
                if color[j] == 1:
                    raise ValueError("the left-of relation on components has a cycle")
                if color[j] == 0:
                    check_acyclic(j)
        color[i] = 2

    for i in range(k):
        if color[i] == 0:
            check_acyclic(i)

    blockers = [sum(row) for row in right_of]  # remaining components i is right of
    left_of = [[i for i, row in enumerate(right_of) if row[j]] for j in range(k)]
    # (lowest point, i) of the leftmost components, never two with overlapping spans:
    # a point strictly inside a span lies on a side of an arc, which relates the two
    ready = [(runs[i][-1], i) for i in range(k) if not blockers[i]]
    heapq.heapify(ready)
    word: list[int] = []
    while ready:
        pick = heapq.heappop(ready)[1]
        word.extend(runs[pick])
        for i in left_of[pick]:
            blockers[i] -= 1
            if not blockers[i]:
                heapq.heappush(ready, (runs[i][-1], i))
    # on an acyclic relation Kahn's order writes each component once, so the word is a permutation
    x = Permutation._trusted(tuple(word))
    if diagram_from_permutation(x) != diagram:
        raise ValueError(f"{diagram!r} is not a noncrossing arc diagram")
    return x


def deletion_stages(diagram: Diagram) -> list[tuple[int, ...]]:
    """The components in the order `permutation_from_diagram` writes them: the descending runs of its result.

    Each component is written decreasingly, and a descent from one
    component into the next would be an arc of the result's diagram, the
    input, joining the two.  So the runs split exactly at the ascents.

    >>> from .textforms import parse_diagram
    >>> deletion_stages(parse_diagram("n=8\\n1-3:R;2-5:LL;3-7:LRL"))
    [(4,), (6,), (7, 3, 1), (5, 2), (8,)]
    """
    word = permutation_from_diagram(diagram).entries
    starts = [i for i in range(len(word)) if i == 0 or word[i - 1] < word[i]]
    return [word[i:j] for i, j in zip(starts, starts[1:] + [len(word)])]


def _sweep(arcset: ArcSet) -> Iterator[tuple[int, list[tuple[int, int, int]], int]]:
    """Per point p from the bottom up: p, the keys of the arcs passing p left to right, and how many are left of p.

    Between points the open arcs keep one left-to-right order.  At p it
    must read: the arcs with p on their right, then the arc ending at p if
    any, then the arcs with p on their left.  The arc ending at p closes
    and the one starting at p opens at p's gap.  Only the points under some
    arc's span are visited, so the work follows the arcs, not n.  Two arcs
    sharing an endpoint of one kind, or an order broken at some point,
    raise the error of `_refusal`.
    """
    starts: dict[int, tuple[int, int, int]] = {}
    ends: dict[int, tuple[int, int, int]] = {}
    for key in arcset._keys:
        if starts.setdefault(key[0], key) is not key or ends.setdefault(key[1], key) is not key:
            raise _refusal(arcset)
    passing: list[tuple[int, int, int]] = []  # the open arcs, left to right
    p = 0
    for first in sorted(starts):
        if first <= p:
            continue  # opened on the last run of points
        for p in itertools.count(first):
            ending = ends.get(p)
            if ending:
                at = passing.index(ending)
                del passing[at]
            sides = [mask >> (p - a - 1) & 1 for a, _, mask in passing]  # 1 when p is on the arc's right
            r = sides.count(1)
            if 0 in sides[:r] or ending and at != r:
                raise _refusal(arcset)
            yield p, passing, r
            if p in starts:
                passing.insert(r, starts[p])
            elif not passing:
                break


def _refusal(arcset: ArcSet) -> ValueError:
    """The error for a set `_sweep` refuses: its first incompatible pair in canonical order, by `incompatibility_reason`."""
    keys, later = arcset._forcing
    for i, mask in enumerate(later):
        filled = mask | (2 << i) - 1  # keys up to i, and the later keys compatible with key i
        j = (filled ^ (filled + 1)).bit_length() - 1  # the lowest key missing from it
        if j < len(keys):
            alpha, beta = Arc(arcset.n, *keys[i]), Arc(arcset.n, *keys[j])
            return ValueError(f"incompatible arcs: {incompatibility_reason(alpha, beta)}")
    return ValueError(f"{arcset!r} is not a noncrossing arc diagram")  # the sweep and the masks disagree


def enumerate_diagrams(n: int, arcset: ArcSet | None = None) -> Iterator[Diagram]:
    """All diagrams drawn from `arcset` (all arcs when None), in a fixed backtracking order.

    Arcs are tried in canonical order and partial selections are pruned
    at the first incompatible pair, so every emitted set is valid and
    every valid set is emitted exactly once, each before its extensions.
    A flat stack holds per chosen arc the keys so far and the arcs still
    to try, so many arcs do not nest calls.
    """
    keys, later = _arcs_on(n, arcset)._forcing
    yield Diagram._trusted(n, frozenset())
    stack = [((), (1 << len(keys)) - 1)]
    while stack:
        chosen, untried = stack[-1]
        if not untried:
            stack.pop()
            continue
        i = (untried & -untried).bit_length() - 1
        stack[-1] = (chosen, untried & (untried - 1))
        chosen += (keys[i],)
        yield Diagram._trusted(n, frozenset(chosen))
        stack.append((chosen, untried & later[i]))


def count_diagrams(n: int, arcset: ArcSet | None = None) -> tuple[int, ...]:
    """How many diagrams are drawn from `arcset` (all arcs when None), by arc count k = 0..n-1.

    Nothing is listed.  A diagram is a set of pairwise compatible arcs
    (the canonical join complex is flag), so it is a clique of the
    compatibility graph.  Taking its arcs in canonical order, the cliques
    inside a set S of still allowed arcs are the empty one plus, for each
    i in S, arc i joined to a clique among the arcs of S after i that are
    compatible with it.  That count F(S) depends on S alone and is
    memoized on it.  For an arc t of S, let T be the arcs of S from t on:
    for each i >= t the arcs after i are the same in S as in T, so F(S)
    is F(T) plus the terms of the arcs of S before t.  Each sum peels
    the lowest arcs of S only until the rest is a memoized suffix (at
    worst the empty set), so the memo holds the same sets as the full
    sum over S would.  The recursion is at most n deep, one level per
    arc of a clique.  On Python 3.11, once the set's masks are cached,
    all arcs count in about 5 ms at n=9 and 33 ms at n=10; building the
    set and its masks first adds about 2 and 5 ms.

    >>> from .arcs import full_arc_set
    >>> count_diagrams(4)
    (1, 11, 11, 1)
    >>> left_arcs = ArcSet(4, (alpha for alpha in full_arc_set(4).arcs if not alpha.mask))
    >>> count_diagrams(4, left_arcs)
    (1, 6, 6, 1)
    """
    keys, later = _arcs_on(n, arcset)._forcing
    # Each count is a polynomial in x packed into one int, with a slot of
    # `width` bits per coefficient.  No coefficient exceeds the n! diagrams
    # on n points, so sums never carry from one slot into the next.
    width = math.factorial(n).bit_length()
    packed = _count_cliques((1 << len(keys)) - 1, later, width, {0: 1})
    slot = (1 << width) - 1
    return tuple((packed >> (k * width)) & slot for k in range(max(n, 1)))


def _count_cliques(allowed: int, later: list[int], width: int, memo: dict[int, int]) -> int:
    # The memo belongs to one count_diagrams call and no closure refers to
    # it, so it is freed when that call returns.  It is seeded with the
    # empty set, so the peeling below always ends at a memoized suffix.
    got = memo.get(allowed)
    if got is None:
        below = 0
        rest = allowed
        while got is None:
            low = rest & -rest
            rest ^= low
            below += _count_cliques(allowed & later[low.bit_length() - 1], later, width, memo)
            got = memo.get(rest)
        got = memo[allowed] = got + (below << width)
    return got


class DiagramClass(_Frozen):
    __slots__ = _fields = ("is_matching", "is_perfect_matching")

    def __init__(self, is_matching: bool, is_perfect_matching: bool) -> None:
        self._fill(is_matching, is_perfect_matching)


def classify_diagram(diagram: Diagram) -> DiagramClass:
    """Matching flags.

    A matching uses every point at most once as an endpoint; a perfect
    matching uses every point exactly once.

    >>> from .arcs import make_arc
    >>> d = validate_diagram(4, [make_arc(4, 1, 2), make_arc(4, 3, 4)])
    >>> classify_diagram(d)
    DiagramClass(is_matching=True, is_perfect_matching=True)
    """
    endpoints = [p for a, b, _ in diagram._keys for p in (a, b)]
    is_matching = len(endpoints) == len(set(endpoints))
    return DiagramClass(
        is_matching=is_matching,
        is_perfect_matching=is_matching and len(endpoints) == diagram.n,
    )
