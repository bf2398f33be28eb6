"""Arcs on n points and their correspondence with join-irreducible permutations.

An arc connects a lower endpoint a to an upper endpoint b > a on a
vertical column of points 1..n (1 at the bottom) and passes each interior
point on one side.  We store one bit per interior point, set when the
point is on the arc's right; `right`, `left` and `interior` read the
same fact back as point sets.

Arcs are exactly the join-irreducible permutations in disguise: a single
descent b > a with the values strictly between them split into those
before the descent (left side) and after it (right side).  The same rule
labels every weak-order cover by an arc, so a permutation's canonical
joinands live here too: each is the permutation of a descent's arc.

Two arcs are compatible when some noncrossing diagram contains both,
which reduces to a finite check on shared endpoints and side-forcing
witness points.  A set of arcs, `ArcSet`, stores each as its (a, b, mask)
key; an `Arc` is built only where one is printed or handed out.
"""
from __future__ import annotations

import sys
from collections import defaultdict
from functools import cached_property
from typing import Callable, Iterable, Iterator

from .perms import Permutation, _Frozen


class Arc(_Frozen):
    """An arc from a up to b; bit i of `mask` is set when point a + 1 + i is on its right."""

    __slots__ = _fields = ("n", "a", "b", "mask")

    def __init__(self, n: int, a: int, b: int, mask: int) -> None:
        if not 1 <= a < b <= n:
            raise ValueError(f"need 1 <= a < b <= n, got a={a} b={b} n={n}")
        if not 0 <= mask < 1 << (b - a - 1):
            raise ValueError(f"mask {mask} does not fit the {b - a - 1} interior points")
        object.__setattr__(self, "n", n)  # not `_fill`, whose loop makes an arc 1.4 times as slow to build
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "mask", mask)

    @property
    def interior(self) -> frozenset[int]:
        return frozenset(range(self.a + 1, self.b))

    @property
    def right(self) -> frozenset[int]:
        return frozenset(p for p in range(self.a + 1, self.b) if self.mask >> (p - self.a - 1) & 1)

    @property
    def left(self) -> frozenset[int]:
        return self.interior - self.right

    def __str__(self) -> str:
        return _arc_text(*arc_key(self))

    def __repr__(self) -> str:
        return f"Arc({self.n}, {str(self)!r})"


_SIDE_LETTERS, _SIDE_BITS = str.maketrans("01", "LR"), str.maketrans("LR", "01")


def make_arc(n: int, a: int, b: int, right: Iterable[int] = ()) -> Arc:
    """Build an arc from the interior points on its right.

    >>> str(make_arc(9, 4, 8, {6}))
    '4-8:LRL'
    """
    right = set(right)
    if not all(a < p < b for p in right):
        raise ValueError(f"right side {sorted(right)} not inside ({a}, {b})")
    return Arc(n, a, b, sum(1 << (p - a - 1) for p in right))


def _spelled(key: tuple[int, int, int]) -> tuple[int, int, str]:
    """(a, b, side string) of the arc with key (a, b, mask): how it prints, and its canonical order."""
    a, b, mask = key
    # bin() spells the mask top bit first, after a 1 that pads it to b - a - 1 digits
    return a, b, bin(mask | 1 << (b - a - 1))[:2:-1].translate(_SIDE_LETTERS)


def _shown(value: object) -> str:
    """`value` as text to echo in a message, its middle cut out past 40 characters."""
    text = str(value)
    return text if len(text) <= 40 else f"{text[:20]}...{text[-10:]}"


def _arc_text(a: int, b: int, sides: str) -> str:
    """An arc as text: `a-b`, then `:` and the side string when there are interior points."""
    return f"{a}-{b}:{sides}" if sides else f"{a}-{b}"


def side_string(alpha: Arc) -> str:
    """One character per interior point, bottom to top, L or R."""
    return _spelled((alpha.a, alpha.b, alpha.mask))[2]


def side_mask(sides: str) -> int:
    """The mask of a string over L and R; inverse of `side_string`."""
    return int(sides[::-1].translate(_SIDE_BITS) or "0", 2)


def arc_key(alpha: Arc) -> tuple[int, int, str]:
    """Canonical sort key: ascending (a, b, side string)."""
    return _spelled((alpha.a, alpha.b, alpha.mask))


class ArcSet(_Frozen):
    """A set of arcs on n points: a diagram, or the uncontracted arcs of a congruence.

    It stores its arcs' (a, b, mask) keys, `_keys`; `.arcs` views them as
    `Arc` values.  Only sizes are checked here, so broken sets can be built
    for the negative paths.  Counting reads the cached forcing masks and
    congruences the cached subarc closure, once per set; `validate_diagram`
    draws the set point by point and reads the masks only to word a refusal.
    """

    _fields = ("n", "_keys")  # and a __dict__ for the cached properties

    def __init__(self, n: int, arcs: Iterable[Arc]) -> None:
        if n > sys.maxsize:  # sys.maxsize bounds a list's length, and the inverse and the renders list the points
            raise ValueError(f"n must be at most {sys.maxsize}, got {_shown(n)}")
        arcs = tuple(arcs)
        for alpha in arcs:
            if alpha.n != n:
                raise ValueError(f"arc {alpha!r} does not live on {n} points")
        self._fill(n, frozenset([(alpha.a, alpha.b, alpha.mask) for alpha in arcs]))

    @classmethod
    def _trusted(cls, n: int, keys: frozenset[tuple[int, int, int]]) -> ArcSet:
        """The set of the arcs with these keys, each known to be an arc on n points."""
        s = object.__new__(cls)
        s.__dict__.update(n=n, _keys=keys)  # not `_fill`, whose loop makes this twice as slow
        return s

    def __reduce__(self) -> tuple:
        return self._trusted, (self.n, self._keys)

    @cached_property
    def arcs(self) -> frozenset[Arc]:
        return frozenset(Arc(self.n, *key) for key in self._keys)

    def sorted_arcs(self) -> tuple[Arc, ...]:
        return tuple(Arc(self.n, *key) for key in sorted(self._keys, key=_spelled))

    def __contains__(self, alpha: Arc) -> bool:  # as `in self.arcs`: only an `Arc` on n points can be in
        return alpha.__class__ is Arc and alpha.n == self.n and (alpha.a, alpha.b, alpha.mask) in self._keys

    def __str__(self) -> str:
        return ";".join(_arc_text(*spelled) for spelled in sorted(map(_spelled, self._keys)))

    def __repr__(self) -> str:
        return f"ArcSet({self.n}, {str(self)!r})"

    @cached_property
    def subarc_closed(self) -> bool:
        keys = self._keys
        return all(cover in keys for key in keys for cover in _subarc_cover_keys(*key))

    @cached_property
    def _forcing(self) -> tuple[tuple[tuple[int, int, int], ...], list[int]]:
        """The keys in canonical order, and per key a mask of the other keys it clashes with, bit j for the j-th.

        Two arcs clash by the rule of `incompatibility_reason`: they share an
        endpoint of one kind, or each is forced right of the other as
        `forces_right_of` says.  Rather than testing pairs, the arcs are
        gathered per point by the side they pass it on, so each arc takes a
        few `|` and `&` over the points it spans and the cost follows the
        arcs, not n.  Counting reads the masks for every set; validation and
        layout draw a set with `diagrams._sweep` and read them only to word
        a refusal.
        """
        keys = tuple(sorted(self._keys, key=_spelled))
        lower: dict[int, int] = defaultdict(int)  # arcs with p as lower endpoint
        upper: dict[int, int] = defaultdict(int)  # arcs with p as upper endpoint
        on_left: dict[int, int] = defaultdict(int)  # arcs passing interior point p on their left
        on_right: dict[int, int] = defaultdict(int)
        for j, (a, b, mask) in enumerate(keys):
            bit = 1 << j
            lower[a] |= bit
            upper[b] |= bit
            for k, p in enumerate(range(a + 1, b)):
                (on_right if mask >> k & 1 else on_left)[p] |= bit

        clash = []
        for i, (a, b, mask) in enumerate(keys):
            # an endpoint of alpha, the i-th arc, forces only arcs passing it in their interior
            forced_left_of_alpha = on_right[a] | on_right[b]
            forced_right_of_alpha = on_left[a] | on_left[b]
            for k, p in enumerate(range(a + 1, b)):
                if mask >> k & 1:
                    forced_right_of_alpha |= on_left[p] | lower[p] | upper[p]
                else:
                    forced_left_of_alpha |= on_right[p] | lower[p] | upper[p]
            both = (forced_left_of_alpha & forced_right_of_alpha) | lower[a] | upper[b]
            clash.append(both & ~(1 << i))
        return keys, clash


def full_arc_set(n: int) -> ArcSet:
    """Every arc on n points; the trivial congruence contracting nothing."""
    return _grown(n, lambda key: True)[0]


def all_arcs(n: int) -> list[Arc]:
    """Every arc on n points in canonical order; there are 2^n - n - 1."""
    return list(full_arc_set(n).sorted_arcs())


def _right_mask(a: int, b: int, before: int) -> int:
    """The arc mask of a descent b > a: the values in (a, b) missing from `before`, a bit per value."""
    return (~before & (1 << b) - (2 << a)) >> (a + 1)


def _descent_arcs(x: Permutation) -> Iterator[tuple[int, tuple[int, int, int]]]:
    """(i, key) per descent i of x in one pass; the key's arc also labels the cover swapping i and i+1."""
    e, before = x.entries, 0
    for i in range(1, x.n):
        b, a = e[i - 1], e[i]
        if b > a:
            yield i, (a, b, _right_mask(a, b, before))
        before |= 1 << b


def arc_from_ji(x: Permutation) -> Arc:
    """The arc of a join-irreducible permutation: the cover label at its one descent.

    The single descent b > a gives the endpoints; an interior value sits
    on the left exactly when it appears before the descent.

    >>> str(arc_from_ji(Permutation((1, 2, 3, 5, 7, 8, 4, 6, 9))))
    '4-8:LRL'
    """
    found = [key for _, key in _descent_arcs(x)]
    if len(found) != 1:
        raise ValueError(f"{x} has {len(found)} descents, join-irreducibles have exactly 1")
    return Arc(x.n, *found[0])


def ji_from_arc(alpha: Arc) -> Permutation:
    """The join-irreducible permutation of an arc; inverse of `arc_from_ji`.

    >>> str(ji_from_arc(make_arc(9, 4, 8, {6})))
    '123578469'
    """
    a, b = alpha.a, alpha.b
    return Permutation((*range(1, a), *sorted(alpha.left), b, a, *sorted(alpha.right), *range(b + 1, alpha.n + 1)))


def joinand_at(x: Permutation, i: int) -> Permutation:
    """The canonical joinand of x attached to the descent at position i.

    It is the minimal permutation weakly below x whose inversions include
    (x_i, x_{i+1}): the permutation of the arc labelling that descent.

    >>> str(joinand_at(Permutation((3, 4, 2, 1)), 2))
    '1342'
    >>> str(joinand_at(Permutation((3, 4, 2, 1)), 3))
    '2134'
    """
    for j, key in _descent_arcs(x):
        if j == i:
            return ji_from_arc(Arc(x.n, *key))
    raise ValueError(f"position {i} is not a descent of {x}")


def canonical_joinands(x: Permutation) -> frozenset[Permutation]:
    """One joinand per descent; the unique irredundant minimal join representation.

    >>> sorted(str(j) for j in canonical_joinands(Permutation((3, 4, 2, 1))))
    ['1342', '2134']
    """
    return frozenset(ji_from_arc(Arc(x.n, *key)) for _, key in _descent_arcs(x))


def forces_right_of(first: Arc, second: Arc) -> int | None:
    """A witness point making `first` pass right of `second`, or None.

    A point p forces that when p is on the left of (or an endpoint of)
    `first` and on the right of (or an endpoint of) `second`, unless p is
    an endpoint of both.
    """
    candidates = (first.left | {first.a, first.b}) & (second.right | {second.a, second.b})
    for p in sorted(candidates):
        if p in (first.a, first.b) and p in (second.a, second.b):
            continue
        return p
    return None


def incompatibility_reason(alpha: Arc, beta: Arc) -> str | None:
    """None when the arcs can share a diagram, else a human-readable reason."""
    if alpha.n != beta.n:
        raise ValueError(f"mixed sizes: {alpha.n} and {beta.n}")
    if alpha == beta:
        return None
    if alpha.b == beta.b:
        return f"{alpha} and {beta} share the upper endpoint {alpha.b}"
    if alpha.a == beta.a:
        return f"{alpha} and {beta} share the lower endpoint {alpha.a}"
    p = forces_right_of(alpha, beta)
    q = forces_right_of(beta, alpha)
    if p is not None and q is not None:
        return (
            f"point {p} forces {alpha} right of {beta} "
            f"while point {q} forces the opposite"
        )
    return None


def compatible(alpha: Arc, beta: Arc) -> bool:
    """Whether some noncrossing arc diagram contains both arcs.

    >>> compatible(make_arc(4, 1, 4, ()), make_arc(4, 2, 3, ()))
    True
    >>> compatible(make_arc(3, 1, 3, {2}), make_arc(3, 1, 3, ()))
    False
    """
    return incompatibility_reason(alpha, beta) is None


def is_subarc(alpha: Arc, beta: Arc) -> bool:
    """Whether alpha is a subarc of beta.

    Requires beta.a <= alpha.a < alpha.b <= beta.b with alpha passing
    every shared interior point on the same side as beta.

    >>> is_subarc(make_arc(4, 2, 3, ()), make_arc(4, 1, 4, {2, 3}))
    True
    >>> is_subarc(make_arc(4, 1, 3, {2}), make_arc(4, 1, 4, {2, 3}))
    True
    """
    if alpha.n != beta.n:
        raise ValueError(f"mixed sizes: {alpha.n} and {beta.n}")
    if not (beta.a <= alpha.a < alpha.b <= beta.b):
        return False
    return alpha.right == beta.right & alpha.interior


def subarc_covers(beta: Arc) -> tuple[Arc, ...]:
    """The subarcs of beta one point shorter, sides kept; a unit arc has none.

    Every proper subarc of beta lies below one of them, so they generate
    the subarc order.

    >>> [str(alpha) for alpha in subarc_covers(make_arc(9, 4, 8, {6}))]
    ['4-7:LR', '5-8:RL']
    """
    return tuple(Arc(beta.n, *key) for key in _subarc_cover_keys(beta.a, beta.b, beta.mask))


def _subarc_cover_keys(a: int, b: int, mask: int) -> tuple[tuple[int, int, int], ...]:
    """The keys of `subarc_covers`: drop the top point, or drop the bottom point and shift the mask."""
    return ((a, b - 1, mask & ~(1 << (b - a - 2))), (a + 1, b, mask >> 1)) if b > a + 1 else ()


def _grown(n: int, keep: Callable[[tuple[int, int, int]], bool]) -> tuple[ArcSet, list[tuple[int, int, int]]]:
    """The arcs on n points whose subarcs all pass `keep`, and the subarc-minimal failures.

    `keep` reads an (a, b, mask) key, and the failures come as keys; no
    `Arc` is built.  Grows from the unit arcs, so the work follows
    the kept arcs: a kept arc from a to b extends to b + 1, with b on
    either side, when its other subarc cover (from a + 1) was kept too.
    """
    kept: dict[tuple[int, int, int], None] = {}  # an ordered set of keys
    failed: list[tuple[int, int, int]] = []
    tried = [(a, a + 1, 0) for a in range(1, n)]
    while tried:
        for key in tried:
            if keep(key):
                kept[key] = None
            else:
                failed.append(key)
        tried = [
            (a, b + 1, mask)
            for a, b, m in tried
            if b < n and (a, b, m) in kept
            for mask in (m, m | 1 << (b - a - 1))
            if (a + 1, b + 1, mask >> 1) in kept
        ]
    return ArcSet._trusted(n, frozenset(kept)), failed


def inflections(alpha: Arc) -> int:
    """Side changes between consecutive interior points.

    >>> inflections(make_arc(9, 4, 8, {6}))
    2
    """
    return _inflections(alpha.a, alpha.b, alpha.mask)


def _inflections(a: int, b: int, mask: int) -> int:
    """`inflections` of the arc with key (a, b, mask)."""
    pairs = (1 << (b - a - 1)) - 1 >> 1  # a bit per interior point but the top one
    return ((mask ^ mask >> 1) & pairs).bit_count()
