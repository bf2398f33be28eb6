"""Permutations of {1,...,n} and the weak order lattice.

The (right) weak order compares permutations by containment of their
inversion sets, where an inversion of x is a pair (b, a) with b > a and
b appearing before a in one-line notation.  Under this order S_n is a
lattice: the join of a family is decoded from the transitive closure of
the union of their inversion sets, and the meet is the join computed in
the reversed word.  The lattice works on one encoding of an inversion
set, a bit mask per value of the smaller values it inverts, and one
decoder turns masks back into a permutation or rejects them.

Every permutation is the join of one join-irreducible permutation per
descent, its canonical joinands.  The joinand attached to descent i is
the unique weak-order-minimal permutation having (x_i, x_{i+1}) as an
inversion while staying below x; each joinand is the permutation of an
arc, so `arcs` builds them.

Positions and values are 1-based throughout.
"""
from __future__ import annotations

import itertools
from operator import attrgetter
from typing import Iterable, Iterator


class _Frozen:
    """A value that equals, hashes, pickles and prints as its `_fields`, set once by `__init__`."""

    __slots__ = ()
    _fields: tuple[str, ...]  # each subclass names its fields

    def __init_subclass__(cls) -> None:
        get = attrgetter(*cls._fields)  # of one name it gives the bare value, so that one is wrapped
        cls._values = staticmethod(get if len(cls._fields) > 1 else lambda x: (get(x),))

    def _fill(self, *values: object) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other: object) -> bool:
        return self._values(self) == self._values(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self) -> tuple:
        return self.__class__, self._values(self)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values(self)))
        return f"{self.__class__.__qualname__}({fields})"


class Permutation(_Frozen):
    """A permutation of {1..n} in one-line notation.

    >>> Permutation((2, 5, 3, 1, 4)).n
    5
    >>> str(Permutation((2, 5, 3, 1, 4)))
    '25314'

    Construction checks the word.  `_trusted` skips the check; only code
    that builds a tuple of 1..n as a permutation by construction may
    call it (the listings, the walks, `_decode`, the cover functions and
    the inverse map), never on parsed or user-given words.
    """

    __slots__ = _fields = ("entries",)

    def __init__(self, entries: tuple[int, ...]) -> None:
        entries = tuple(entries)
        if sorted(entries) != list(range(1, len(entries) + 1)):
            raise ValueError(f"not a permutation of 1..{len(entries)}: {entries!r}")
        object.__setattr__(self, "entries", entries)

    @classmethod
    def _trusted(cls, entries: tuple[int, ...]) -> Permutation:
        """The permutation with these entries, a tuple known to be a permutation of 1..n."""
        x = object.__new__(cls)
        object.__setattr__(x, "entries", entries)
        return x

    def __eq__(self, other: object) -> bool:  # the base's rule, reading the one field directly
        return self.entries == other.entries if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash((self.entries,))

    @property
    def n(self) -> int:
        return len(self.entries)

    def __str__(self) -> str:
        if self.n <= 9:
            return "".join(str(v) for v in self.entries)
        return ",".join(str(v) for v in self.entries)

    def __repr__(self) -> str:
        return f"Permutation({str(self)!r})"


class InversionSet(_Frozen):
    """A set of pairs (b, a), b > a, attached to a fixed n.

    Arbitrary pair sets are representable; only sets that are both
    transitive and co-transitive decode back to a permutation, and that
    is checked by `is_valid_inversion_set`, not at construction.
    """

    __slots__ = _fields = ("n", "pairs")

    def __init__(self, n: int, pairs: frozenset[tuple[int, int]]) -> None:
        pairs = frozenset(pairs)
        for b, a in pairs:
            if not 1 <= a < b <= n:
                raise ValueError(f"bad inversion pair ({b}, {a}) for n={n}")
        self._fill(n, pairs)


def identity(n: int) -> Permutation:
    return Permutation(tuple(range(1, n + 1)))


def top(n: int) -> Permutation:
    """The maximal permutation n, n-1, ..., 1."""
    return Permutation(tuple(range(n, 0, -1)))


def all_permutations(n: int) -> Iterator[Permutation]:
    """All of S_n in lexicographic order of one-line notation."""
    for word in itertools.permutations(range(1, n + 1)):
        yield Permutation._trusted(word)


def reversed_word(x: Permutation) -> Permutation:
    """One-line notation read backwards; complements the inversion set."""
    return Permutation(tuple(reversed(x.entries)))


def positions(x: Permutation) -> tuple[int, ...]:
    """positions(x)[v - 1] is the 1-based position of the value v.

    >>> positions(Permutation((2, 5, 3, 1, 4)))
    (4, 1, 3, 5, 2)
    """
    pos = [0] * x.n
    for i, v in enumerate(x.entries, start=1):
        pos[v - 1] = i
    return tuple(pos)


def inversions(x: Permutation) -> InversionSet:
    """All pairs (b, a) with b > a and b before a in x.

    >>> sorted(inversions(Permutation((2, 5, 3, 1, 4))).pairs)
    [(2, 1), (3, 1), (5, 1), (5, 3), (5, 4)]
    """
    entries = x.entries
    pairs = []
    for i, b in enumerate(entries):
        for a in entries[i + 1 :]:
            if b > a:
                pairs.append((b, a))
    return InversionSet(x.n, frozenset(pairs))


def weak_leq(x: Permutation, y: Permutation) -> bool:
    """x is below y in the weak order: inversions(x) is a subset."""
    if x.n != y.n:
        raise ValueError(f"mixed sizes: {x.n} and {y.n}")
    return all(mx & ~my == 0 for mx, my in zip(_masks(x), _masks(y)))


def descents(x: Permutation) -> tuple[int, ...]:
    """1-based positions i with x_i > x_{i+1}.

    >>> descents(Permutation((1, 5, 7, 8, 4, 2, 9, 3, 6)))
    (4, 5, 7)
    """
    e = x.entries
    return tuple(i for i in range(1, x.n) if e[i - 1] > e[i])


def is_join_irreducible(x: Permutation) -> bool:
    """True when x covers exactly one element, i.e. has a single descent."""
    return len(descents(x)) == 1


def upper_covers(x: Permutation) -> frozenset[Permutation]:
    """Permutations obtained by swapping an ascent x_i < x_{i+1}."""
    return _swapped(x, down=False)


def lower_covers(x: Permutation) -> frozenset[Permutation]:
    """Permutations obtained by swapping a descent x_i > x_{i+1}."""
    return _swapped(x, down=True)


def _swapped(x: Permutation, down: bool) -> frozenset[Permutation]:
    """x with one descent (ascent when not `down`) swapped, for each one."""
    out = []
    e = x.entries
    for i in range(x.n - 1):
        if (e[i] > e[i + 1]) == down:
            out.append(Permutation._trusted(e[:i] + (e[i + 1], e[i]) + e[i + 2 :]))
    return frozenset(out)


def _masks(x: Permutation) -> list[int]:
    """below[v] has bit u set when v > u and v comes before u; index 0 unused."""
    below = [0] * (x.n + 1)
    seen = 0  # the values right of the current one
    for v in reversed(x.entries):
        below[v] = seen & ((1 << v) - 1)
        seen |= 1 << v
    return below


def _pair_masks(inv: InversionSet) -> list[int]:
    """The masks of `_masks` for an arbitrary pair set."""
    below = [0] * (inv.n + 1)
    for b, a in inv.pairs:
        below[b] |= 1 << a
    return below


def _decode(below: list[int]) -> Permutation:
    """The permutation whose `_masks` are `below`; ValueError when there is none.

    The values go in by insertion, smallest first: among 1..v, v follows
    exactly the smaller values it does not invert.  Masks no permutation
    has still place every value, so the word is a permutation of 1..n,
    and its own masks must give `below` back.
    """
    word: list[int] = []
    for v in range(1, len(below)):
        word.insert(v - 1 - below[v].bit_count(), v)
    x = Permutation._trusted(tuple(word))
    if _masks(x) != below:
        raise ValueError("pair set is not the inversion set of any permutation")
    return x


def is_valid_inversion_set(inv: InversionSet) -> bool:
    """True when inv is transitive and co-transitive, i.e. decodable."""
    try:
        _decode(_pair_masks(inv))
    except ValueError:
        return False
    return True


def permutation_from_inversions(inv: InversionSet) -> Permutation:
    """Decode a valid inversion set back to its permutation.

    The values are placed by insertion off the pairs, and the round trip
    is checked so malformed input fails loudly.

    >>> x = Permutation((2, 5, 3, 1, 4))
    >>> permutation_from_inversions(inversions(x)) == x
    True
    """
    return _decode(_pair_masks(inv))


def join(perms: Iterable[Permutation], n: int | None = None) -> Permutation:
    """Least upper bound in the weak order; identity for an empty family.

    >>> str(join([Permutation((2, 1, 3)), Permutation((1, 3, 2))]))
    '321'
    >>> str(join([Permutation((1, 3, 2))], n=3))
    '132'
    """
    xs = list(perms)
    if not xs:
        if n is None:
            raise ValueError("empty join needs an explicit n")
        return identity(n)
    if n is not None and n != xs[0].n:
        raise ValueError(f"n={n} does not match elements of size {xs[0].n}")
    n = xs[0].n
    if any(x.n != n for x in xs):
        raise ValueError("mixed sizes in join")
    below = [0] * (n + 1)
    for x in xs:
        for v, m in enumerate(_masks(x)):
            below[v] |= m
    # all members of below[v] are < v, so one ascending pass closes the union
    for v in range(2, n + 1):
        m = below[v]
        while m:
            u = (m & -m).bit_length() - 1
            m &= m - 1
            below[v] |= below[u]
    return _decode(below)


def meet(perms: Iterable[Permutation], n: int | None = None) -> Permutation:
    """Greatest lower bound; the reversal anti-automorphism applied to join.

    >>> str(meet([Permutation((2, 3, 1)), Permutation((3, 1, 2))]))
    '123'
    >>> str(meet([], n=3))
    '321'
    """
    xs = list(perms)
    if not xs:
        if n is None:
            raise ValueError("empty meet needs an explicit n")
        return top(n)
    return reversed_word(join([reversed_word(x) for x in xs], n=n))
