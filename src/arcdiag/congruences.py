"""Lattice congruences of the weak order, encoded as sets of arcs.

A congruence is determined by which join-irreducible permutations it
contracts, and contraction propagates along the subarc order: once an
arc's join-irreducible is contracted, so is that of every arc having it
as a subarc.  A set of arcs therefore describes a congruence exactly
when it is closed under passing to subarcs; we keep the uncontracted
set U.

Permutations untouched by the congruence are those whose every descent
has its arc in U.  A descent's arc has on its right the values between
its ends missing from the mask of values before it.  Both listings place
values left to right on one stack carrying that mask, and keep a prefix
only while `keep` accepts the (a, b, mask) key of its newest descent's
arc: one route looks the key up in U, the other asks a memo that decides
once per key whether a subarc-minimal contracted arc lies below the arc,
that is, whether its forbidden descent pattern (see `has_pattern`) occurs.
The last few values are placed through a second memo: their kept orders
depend only on the last placed value and the unplaced set, so each such
pair's orders are built once and appended to every prefix ending so.
`_prefix_walk` and `_cover_bottoms` yield plain words (tuples); a
`Permutation` is built only where one is returned.

A congruence contracts the weak-order cover that swaps a descent of x
exactly when it contracts that descent's arc, the cover's label.  Walks
swapping contracted descents (ascents), keeping the same mask per
position, reach class bottoms (tops).  A bottom's descents are all
uncontracted, and the classes its class covers in the quotient are
those of its lower covers, one per descent; the walk from such a cover
starts beside its swap, since every other label is the bottom's own.

Named families are rules: each decides from an arc's (a, b, mask) key
alone whether the arc is uncontracted, and each is closed under subarcs
by construction.  `named_congruence` grows its set from the rule.  The
projection walk reads a key rule as well: `project_down` and `project_up`
pass a set's membership test, and a caller holding a named rule can walk
with it directly, building no set, at any n.

* ``cambrian``    per-point orientation, one arc per pair a < b;
                  ``tamari`` is the orientation R...R (left arcs only)
* ``clumped(k)``  arcs with at most k inflections; ``baxter`` is k = 0
* ``maxlen(k)``   arcs of length below k
"""
from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence

from .arcs import Arc, ArcSet, _grown, _inflections, _right_mask
from .diagrams import enumerate_diagrams
from .perms import Permutation, positions


def _require_congruence(n: int, arcset: ArcSet) -> Callable[[tuple[int, int, int]], bool]:
    """Raise unless `arcset` lives on n points and is closed under subarcs; return its key rule."""
    if arcset.n != n:
        raise ValueError(f"arc set lives on {arcset.n} points, not {n}")
    if not arcset.subarc_closed:
        raise ValueError("arc set is not closed under subarcs")
    return arcset._keys.__contains__


def congruence_from_contracted(n: int, generators: Iterable[Arc]) -> ArcSet:
    """Uncontracted arcs of the smallest congruence contracting the generators.

    An arc survives exactly when none of the generators is a subarc of it.

    >>> from .arcs import make_arc
    >>> str(congruence_from_contracted(3, [make_arc(3, 1, 3, {2})]))
    '1-2;1-3:L;2-3'
    """
    contracted = ArcSet(n, frozenset(generators))  # checks that they live on n points
    return _grown(n, lambda key: key not in contracted._keys)[0]


def minimal_contracted_generators(n: int, arcset: ArcSet) -> tuple[Arc, ...]:
    """Subarc-minimal elements of the complement of `arcset`, canonical order.

    They are the arcs where growing the closed set from the unit arcs stops.
    """
    return ArcSet._trusted(n, frozenset(_grown(n, _require_congruence(n, arcset))[1])).sorted_arcs()


def has_pattern(x: Permutation, alpha: Arc) -> bool:
    """Whether x contains the descent pattern that the arc alpha forbids.

    A witness is a descent x_i >= b, x_{i+1} <= a with every left value
    of alpha before position i and every right value after i+1.  The arc
    may live on fewer points than x.

    >>> from .arcs import make_arc
    >>> has_pattern(Permutation((3, 1, 2)), make_arc(3, 1, 3, {2}))
    True
    >>> has_pattern(Permutation((2, 3, 1)), make_arc(3, 1, 3, {2}))
    False
    """
    if alpha.b > x.n:
        raise ValueError(f"pattern endpoint {alpha.b} exceeds n={x.n}")
    e, pos = x.entries, None
    for i in range(1, x.n):
        if e[i - 1] >= alpha.b and e[i] <= alpha.a:
            pos = pos or positions(x)
            if all(pos[v - 1] < i for v in alpha.left) and all(pos[v - 1] > i + 1 for v in alpha.right):
                return True
    return False


_TAIL = 4  # the last values of each listed word, placed through the tails memo


def _kept_orders(tails: dict[tuple[int, tuple[int, ...]], list[tuple[int, ...]]],
                 keep: Callable[[tuple[int, int, int]], bool],
                 b: int, rest: tuple[int, ...], used: int) -> list[tuple[int, ...]]:
    """The orders of `rest` that may follow b in `_prefix_walk`, smallest first, memoized in `tails`."""
    if not rest:
        return [()]
    key = (b, rest)
    if key not in tails:
        tails[key] = [(v,) + t for j, v in enumerate(rest)
                      if v > b or keep((v, b, _right_mask(v, b, used)))
                      for t in _kept_orders(tails, keep, v, rest[:j] + rest[j + 1:], used | 1 << v)]
    return tails[key]


def _prefix_walk(n: int, keep: Callable[[tuple[int, int, int]], bool]) -> Iterator[tuple[int, ...]]:
    """The words of the permutations of 1..n in lexicographic order, pruned at descents.

    Placing a after b > a forms a descent whose interior values in `used`
    (a bit per placed value) sit left of it, the rest right; unless
    `keep((a, b, _right_mask(a, b, used)))` holds, the prefix goes with
    all its completions.  A stack holds (prefix, unplaced values, used);
    children go on in reverse, so they come off smallest first.

    Once at most `_TAIL` values are unplaced, the kept orders of `rest`
    depend only on the last placed value b and on `rest` (`used` is the
    rest's complement), so `_kept_orders` builds them once per (b, rest)
    and they are appended to every prefix that ends the same way.  The
    memo holds at most n * C(n, k) * k! suffixes of each length
    k <= `_TAIL` (b lies outside `rest`), whatever the output size, and
    goes with the generator.
    """
    tails: dict[tuple[int, tuple[int, ...]], list[tuple[int, ...]]] = {}
    stack = [((), tuple(range(1, n + 1)), 0)]
    while stack:
        word, rest, used = stack.pop()
        b = word[-1] if word else 0  # the first value forms no descent
        if len(rest) <= _TAIL:
            for t in _kept_orders(tails, keep, b, rest, used):
                yield word + t
            continue
        for j in range(len(rest) - 1, -1, -1):
            v = rest[j]
            if v > b or keep((v, b, _right_mask(v, b, used))):
                stack.append((word + (v,), rest[:j] + rest[j + 1:], used | 1 << v))


def uncontracted_permutations(n: int, arcset: ArcSet) -> Iterator[Permutation]:
    """Permutations whose diagram stays inside `arcset`, in lexicographic order.

    >>> from .arcs import make_arc
    >>> U = congruence_from_contracted(3, [make_arc(3, 1, 3, {2})])
    >>> [str(x) for x in uncontracted_permutations(3, U)]
    ['123', '132', '213', '231', '321']
    """
    yield from map(Permutation._trusted, _prefix_walk(n, _require_congruence(n, arcset)))


class _PatternMemo(dict):
    """Arc key -> whether no minimal contracted arc is a subarc of that arc, decided once per key."""

    def __init__(self, patterns: Iterable[tuple[int, int, int]]) -> None:
        super().__init__()
        # (a, b, interior bits, right bits) per pattern key, a bit per value
        self.patterns = [(ga, gb, (1 << gb) - (2 << ga), gmask << (ga + 1)) for ga, gb, gmask in patterns]

    def __missing__(self, key: tuple[int, int, int]) -> bool:
        a, b, mask = key
        right = mask << (a + 1)
        self[key] = kept = not any(a <= ga and gb <= b and right & inner == gright
                                   for ga, gb, inner, gright in self.patterns)
        return kept


def uncontracted_by_avoidance(n: int, arcset: ArcSet) -> Iterator[Permutation]:
    """The same list, cut where a minimal forbidden pattern occurs at the newest descent.

    The pattern of g occurs at a descent exactly when g is a subarc of
    the descent's arc: g's left values are placed and its right values not.
    The patterns are the grower's failure keys, unsorted: `minimal_contracted_generators` as keys.
    """
    keep = _PatternMemo(_grown(n, _require_congruence(n, arcset))[1]).__getitem__
    yield from map(Permutation._trusted, _prefix_walk(n, keep))


def _before_masks(e: Sequence[int]) -> list[int]:
    """before[i] has a bit per value at positions 1..i-1 of e (1-based); index 0 unused."""
    before = [0, 0]
    for v in e[:-1]:
        before.append(before[-1] | 1 << v)
    return before


def _swap_walk(e: list[int], before: list[int], todo: list[int],
               keep: Callable[[tuple[int, int, int]], bool], down: bool) -> tuple[int, ...]:
    """Swap descents (ascents) at positions i, i+1 while `keep` fails on their cover label's key.

    Positions come off the `todo` stack.  The label's right side is read
    from `before[i]`, the values at positions 1..i-1.  A swap at i
    changes only `before[i + 1]` and the labels at i - 1 and i + 1, so
    only those go back on the stack.  `e` and `before` change in place.
    """
    n = len(e)
    while todo:
        i = todo.pop()
        if not 0 < i < n or (e[i - 1] > e[i]) != down:
            continue
        a, b = (e[i], e[i - 1]) if down else (e[i - 1], e[i])
        if not keep((a, b, _right_mask(a, b, before[i]))):
            e[i - 1], e[i] = e[i], e[i - 1]
            before[i + 1] = before[i] | 1 << e[i - 1]
            todo += (i + 1, i - 1)
    return tuple(e)


def _walk(x: Permutation, keep: Callable[[tuple[int, int, int]], bool], down: bool) -> Permutation:
    """The bottom (top) of x's class: `_swap_walk` from x, every position on the stack."""
    e = list(x.entries)
    return Permutation._trusted(_swap_walk(e, _before_masks(e), list(range(x.n - 1, 0, -1)), keep, down))


def _cover_bottoms(e: tuple[int, ...], keep: Callable[[tuple[int, int, int]], bool]) -> Iterator[tuple[int, ...]]:
    """For each descent of the class bottom's word e, left to right, the bottom of e with it swapped.

    Every other label of the swapped word is one of e's own, and a
    bottom's labels are all kept, so the walk starts at the two
    positions beside the swap only.
    """
    before = _before_masks(e)
    for s in range(1, len(e)):
        if e[s - 1] > e[s]:
            x = list(e)
            x[s - 1], x[s] = e[s], e[s - 1]
            swapped = before.copy()
            swapped[s + 1] = before[s] | 1 << e[s]
            yield _swap_walk(x, swapped, [s + 1, s - 1], keep, True)


def project_down(x: Permutation, arcset: ArcSet) -> Permutation:
    """Bottom element of the congruence class of x.

    Swaps descents whose label is contracted until none is left.  Each
    swap stays inside the class, and a class is an interval, so the walk
    stops only at its bottom.  Idempotent and order preserving.

    >>> from .arcs import make_arc
    >>> U = congruence_from_contracted(3, [make_arc(3, 1, 3, {2})])
    >>> str(project_down(Permutation((3, 1, 2)), U)), str(project_up(Permutation((1, 3, 2)), U))
    ('132', '312')
    """
    return _walk(x, _require_congruence(x.n, arcset), down=True)


def project_up(x: Permutation, arcset: ArcSet) -> Permutation:
    """Top element of the congruence class of x: the walk of `project_down` over ascents."""
    return _walk(x, _require_congruence(x.n, arcset), down=False)


def named_congruence(
    n: int,
    name: str,
    k: int | None = None,
    orientation: str | None = None,
) -> ArcSet:
    """Build one of the named congruence families on n points.

    ``cambrian`` needs `orientation`, a string over {L, R} of length n;
    its arcs pass every interior point tagged R on their left and every
    point tagged L on their right, one arc per pair a < b.  ``clumped``
    and ``maxlen`` need the bound `k`.  ``tamari`` is ``cambrian`` with
    every point tagged R, and ``baxter`` is ``clumped`` with k = 0.

    >>> str(named_congruence(3, "tamari"))
    '1-2;1-3:L;2-3'
    >>> named_congruence(3, "cambrian", orientation="RRR") == named_congruence(3, "tamari")
    True
    """
    return _grown(n, _named_rule(n, name, k, orientation))[0]


def _named_rule(n: int, name: str, k: int | None = None,
                orientation: str | None = None) -> Callable[[tuple[int, int, int]], bool]:
    """The key rule of a named family: whether the arc (a, b, mask) is uncontracted."""
    if name == "tamari":
        name, orientation = "cambrian", "R" * n
    elif name == "baxter":
        name, k = "clumped", 0
    if name == "cambrian":
        if orientation is None or len(orientation) != n or set(orientation) - set("LR"):
            raise ValueError(f"cambrian needs an orientation over L/R of length {n}")
        # bit p - 1 for each point p that the arcs pass on their right
        right = sum(1 << p for p, side in enumerate(orientation) if side == "L")

        def cambrian(key: tuple[int, int, int]) -> bool:
            a, b, mask = key
            return mask == right >> a & (1 << b - a - 1) - 1

        return cambrian
    if name == "clumped":
        if k is None or k < 0:
            raise ValueError("clumped needs a bound k >= 0")
        return lambda key: _inflections(*key) <= k
    if name == "maxlen":
        if k is None or k < 1:
            raise ValueError("maxlen needs a bound k >= 1")
        return lambda key: key[1] - key[0] < k
    raise ValueError(f"unknown congruence family {name!r}")


def complex_faces(n: int, arcset: ArcSet) -> Iterator[frozenset[Arc]]:
    """Faces of the canonical join complex restricted to `arcset`.

    The faces are exactly the diagrams drawn from the uncontracted arcs;
    the complex is flag, so pairwise compatibility is all that is pruned.
    """
    _require_congruence(n, arcset)
    for diagram in enumerate_diagrams(n, arcset):
        yield diagram.arcs
