import itertools
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import arcdiag.congruences
import arcdiag.perms
from arcdiag import (
    InversionSet,
    ParseError,
    Permutation,
    all_arcs,
    all_permutations,
    canonical_joinands,
    congruence_from_contracted,
    descents,
    diagram_from_permutation,
    full_arc_set,
    identity,
    inversions,
    is_join_irreducible,
    is_valid_inversion_set,
    join,
    joinand_at,
    lower_covers,
    meet,
    named_congruence,
    parse_permutation,
    permutation_from_diagram,
    permutation_from_inversions,
    project_down,
    project_up,
    top,
    uncontracted_by_avoidance,
    uncontracted_permutations,
    upper_covers,
    weak_leq,
)

perms = lambda n: st.permutations(range(1, n + 1)).map(lambda e: Permutation(tuple(e)))


def P(text):
    return Permutation(tuple(int(c) for c in text))


def test_inversions_worked_example():
    assert inversions(P("25314")).pairs == {(2, 1), (3, 1), (5, 1), (5, 3), (5, 4)}


def test_inversions_extremes():
    assert inversions(identity(5)).pairs == set()
    assert inversions(top(4)).pairs == {(b, a) for b in range(1, 5) for a in range(1, b)}


def test_permutation_validates():
    with pytest.raises(ValueError):
        Permutation((1, 1, 3))
    with pytest.raises(ValueError):
        Permutation((0, 1, 2))


def test_weak_leq_examples():
    assert weak_leq(P("213"), P("231"))
    assert not weak_leq(P("213"), P("132"))
    assert not weak_leq(P("132"), P("213"))
    with pytest.raises(ValueError):
        weak_leq(P("21"), P("213"))


def test_descents_worked_example():
    assert descents(P("157842936")) == (4, 5, 7)
    assert descents(identity(6)) == ()
    assert descents(top(4)) == (1, 2, 3)


@pytest.mark.parametrize("n", range(1, 9))
def test_inversion_round_trip(n):
    for x in all_permutations(n):
        assert permutation_from_inversions(inversions(x)) == x


def test_invalid_inversion_set_rejected():
    bad = InversionSet(3, frozenset({(3, 1)}))
    assert not is_valid_inversion_set(bad)
    with pytest.raises(ValueError):
        permutation_from_inversions(bad)


@pytest.mark.parametrize("n", range(1, 6))
def test_decoding_matches_definition(n):
    # every pair set decodes exactly when it is transitive and co-transitive,
    # written out pairwise: (c,b),(b,a) give (c,a), and (c,a) gives (c,b) or (b,a)
    pairs = [(b, a) for b in range(2, n + 1) for a in range(1, b)]
    triples = list(itertools.combinations(range(1, n + 1), 3))
    decoded = set()
    for r in range(len(pairs) + 1):
        for chosen in itertools.combinations(pairs, r):
            s = frozenset(chosen)
            transitive = all(
                (c, a) in s for a, b, c in triples if (c, b) in s and (b, a) in s
            )
            cotransitive = all(
                (c, b) in s or (b, a) in s for a, b, c in triples if (c, a) in s
            )
            inv = InversionSet(n, s)
            assert is_valid_inversion_set(inv) == (transitive and cotransitive), sorted(s)
            if transitive and cotransitive:
                x = permutation_from_inversions(inv)
                assert inversions(x).pairs == s
                decoded.add(x)
            else:
                with pytest.raises(ValueError):
                    permutation_from_inversions(inv)
    assert decoded == set(all_permutations(n))


def test_joinand_worked_examples():
    x = P("157842936")
    assert str(joinand_at(x, 4)) == "123578469"
    assert str(joinand_at(x, 5)) == "142356789"
    assert str(joinand_at(x, 7)) == "124578936"
    assert {str(j) for j in canonical_joinands(x)} == {
        "123578469",
        "142356789",
        "124578936",
    }
    with pytest.raises(ValueError):
        joinand_at(x, 1)


def _pair_bit(n):
    pairs = [(b, a) for b in range(1, n + 1) for a in range(1, b)]
    return {p: i for i, p in enumerate(pairs)}


def _masks(n, bit):
    elems = list(all_permutations(n))
    masks = np.zeros(len(elems), dtype=np.int64)
    for i, x in enumerate(elems):
        m = 0
        for p in inversions(x).pairs:
            m |= 1 << bit[p]
        masks[i] = m
    return elems, masks


@pytest.mark.parametrize("n", range(2, 8))
def test_joinand_is_minimal_with_descent_inverted(n):
    # brute-force oracle: the joinand at i is the unique weak-order-minimal
    # y <= x whose inversions contain the descent pair
    bit = _pair_bit(n)
    elems, masks = _masks(n, bit)
    index = {x: i for i, x in enumerate(elems)}
    for x in elems:
        mx = masks[index[x]]
        below = (masks & ~mx) == 0
        for i in descents(x):
            b, a = x.entries[i - 1], x.entries[i]
            has = (masks >> bit[(b, a)]) & 1 == 1
            cands = masks[below & has]
            minimum = np.bitwise_and.reduce(cands)
            assert minimum in cands
            assert masks[index[joinand_at(x, i)]] == minimum


@pytest.mark.parametrize("n", range(1, 8))
def test_canonical_join_recovers_element(n):
    for x in all_permutations(n):
        parts = canonical_joinands(x)
        assert join(list(parts), n=n) == x
        for j in parts:
            assert is_join_irreducible(j)


def test_canonical_join_recovers_element_n8():
    for x in all_permutations(8):
        assert join(list(canonical_joinands(x)), n=8) == x


@pytest.mark.parametrize("seed", range(3))
def test_round_trips_at_n200(seed):
    rng = random.Random(seed)
    x = Permutation(tuple(rng.sample(range(1, 201), 200)))
    assert join(canonical_joinands(x)) == x
    assert permutation_from_inversions(inversions(x)) == x


@pytest.mark.parametrize("n", range(2, 7))
def test_canonical_joinands_form_antichain(n):
    for x in all_permutations(n):
        parts = canonical_joinands(x)
        for s, t in itertools.combinations(parts, 2):
            assert not weak_leq(s, t) and not weak_leq(t, s)


@pytest.mark.parametrize("n", range(2, 6))
def test_canonical_joinands_are_lowest_possible(n):
    # s belongs under every join representation of x: the join of all
    # y <= x avoiding s's up-set falls strictly short of x
    elems = list(all_permutations(n))
    for x in elems:
        lower = [y for y in elems if weak_leq(y, x)]
        for s in canonical_joinands(x):
            dodges = [y for y in lower if not weak_leq(s, y)]
            assert join(dodges, n=n) != x


@pytest.mark.parametrize("n", range(1, 7))
def test_subsets_of_joinands_are_canonical(n):
    for x in all_permutations(n):
        parts = canonical_joinands(x)
        for r in range(len(parts) + 1):
            for sub in itertools.combinations(parts, r):
                assert set(canonical_joinands(join(list(sub), n=n))) == set(sub)


@pytest.mark.parametrize("n", range(2, 8))
def test_join_irreducible_iff_single_joinand(n):
    for x in all_permutations(n):
        assert is_join_irreducible(x) == (canonical_joinands(x) == frozenset({x}))
        assert is_join_irreducible(x) == (len(descents(x)) == 1)


@pytest.mark.parametrize("n", range(1, 5))
def test_join_meet_against_full_scan(n):
    elems = list(all_permutations(n))
    for x in elems:
        for y in elems:
            ubs = [z for z in elems if weak_leq(x, z) and weak_leq(y, z)]
            least = [u for u in ubs if all(weak_leq(u, v) for v in ubs)]
            assert least == [join([x, y])]
            lbs = [z for z in elems if weak_leq(z, x) and weak_leq(z, y)]
            greatest = [l for l in lbs if all(weak_leq(v, l) for v in lbs)]
            assert greatest == [meet([x, y])]


@pytest.mark.parametrize("n", [5, 6])
def test_join_meet_cover_oracle(n):
    # j is the join of x,y iff j bounds both and no lower cover of j does;
    # dually for meets; this checks every pair without a quadratic scan
    elems = list(all_permutations(n))
    pairs_of = {x: frozenset(inversions(x).pairs) for x in elems}
    lower_of = {x: [pairs_of[c] for c in lower_covers(x)] for x in elems}
    upper_of = {x: [pairs_of[c] for c in upper_covers(x)] for x in elems}
    join_cache = {}
    meet_cache = {}
    for x in elems:
        px = pairs_of[x]
        for y in elems:
            u = px | pairs_of[y]
            j = join_cache.get(u)
            if j is None:
                j = join_cache[u] = join([x, y])
            pj = pairs_of[j]
            assert u <= pj
            assert not any(u <= c for c in lower_of[j])
            i = px & pairs_of[y]
            m = meet_cache.get(i)
            if m is None:
                m = meet_cache[i] = meet([x, y])
            pm = pairs_of[m]
            assert pm <= i
            assert not any(c <= i for c in upper_of[m])


def test_join_of_nothing_is_identity():
    assert join([], n=4) == identity(4)
    assert meet([], n=4) == top(4)


def test_join_worked_example():
    assert str(join([P("213"), P("132")])) == "321"
    assert str(meet([P("231"), P("312")])) == "123"


@pytest.mark.parametrize("n", range(2, 7))
def test_covers_are_adjacent_transpositions(n):
    for x in all_permutations(n):
        ups = upper_covers(x)
        assert len(ups) == n - 1 - len(descents(x))
        for y in ups:
            assert len(inversions(y).pairs) == len(inversions(x).pairs) + 1
            assert x in lower_covers(y)


@given(st.integers(2, 8).flatmap(lambda n: st.tuples(perms(n), perms(n), perms(n))))
@settings(max_examples=300, deadline=None)
def test_weak_order_axioms(triple):
    x, y, z = triple
    assert weak_leq(x, x)
    if weak_leq(x, y) and weak_leq(y, x):
        assert x == y
    if weak_leq(x, y) and weak_leq(y, z):
        assert weak_leq(x, z)


@given(st.integers(2, 7).flatmap(lambda n: st.tuples(perms(n), perms(n))))
@settings(max_examples=200, deadline=None)
def test_join_meet_bound_properties(pair):
    x, y = pair
    j = join([x, y])
    m = meet([x, y])
    assert weak_leq(x, j) and weak_leq(y, j)
    assert weak_leq(m, x) and weak_leq(m, y)
    assert weak_leq(m, j)
    assert join([x, x]) == x and meet([x, x]) == x


def _closure(pairs, n):
    # Warshall's algorithm on the relation b -> a, one pair at a time
    rel = set(pairs)
    for k in range(1, n + 1):
        for b in range(1, n + 1):
            if (b, k) in rel:
                for a in range(1, n + 1):
                    if (k, a) in rel:
                        rel.add((b, a))
    return rel


@given(st.integers(2, 12).flatmap(lambda n: st.lists(perms(n), min_size=1, max_size=4)))
@settings(max_examples=200, deadline=None)
def test_join_is_closure_of_union(family):
    n = family[0].n
    union = set().union(*(inversions(x).pairs for x in family))
    assert inversions(join(family)).pairs == _closure(union, n)
    rev = lambda x: Permutation(x.entries[::-1])
    assert meet(family) == rev(join([rev(x) for x in family]))


@pytest.mark.parametrize(
    "entries, message",
    [
        ((1, 1, 3), "not a permutation of 1..3: (1, 1, 3)"),
        ((0, 1), "not a permutation of 1..2: (0, 1)"),
        ((2, 3), "not a permutation of 1..2: (2, 3)"),
    ],
)
def test_checked_construction_rejects_non_permutations(entries, message):
    with pytest.raises(ValueError) as err:
        Permutation(entries)
    assert type(err.value) is ValueError and str(err.value) == message


def test_checked_construction_keeps_parse_errors_and_tuples():
    with pytest.raises(ParseError) as err:
        parse_permutation("112")
    assert str(err.value) == "not a permutation of 1..3: (1, 1, 2) (byte 0)"
    assert err.value.offset == 0
    x = Permutation([2, 1, 3])
    assert type(x.entries) is tuple and x.entries == (2, 1, 3)


def _assert_checked_equal(x):
    """x holds a tuple and equals, hash for hash, the checked construction of its word."""
    assert type(x.entries) is tuple
    checked = Permutation(x.entries)
    assert x == checked and hash(x) == hash(checked)


def test_trusted_construction_matches_checked_construction():
    word12 = list(range(1, 13))
    random.Random(1200).shuffle(word12)
    for w in [*itertools.permutations(range(1, 5)), tuple(word12)]:
        x, checked = Permutation._trusted(w), Permutation(w)
        assert type(x) is Permutation and x == checked and hash(x) == hash(checked)
        assert (str(x), repr(x)) == (str(checked), repr(checked))
        assert pickle.loads(pickle.dumps(x)) == checked and x.n == len(w)
        with pytest.raises(AttributeError):
            x.entries = w
        with pytest.raises(AttributeError):
            del x.entries
        assert x.entries is w


def _built_from(x, sets):
    """Every permutation the unchecked constructions build from x and the arc sets."""
    yield arcdiag.perms._decode(arcdiag.perms._masks(x))
    yield permutation_from_inversions(inversions(x))
    yield join(lower_covers(x), n=x.n)
    yield permutation_from_diagram(diagram_from_permutation(x))
    yield from upper_covers(x)
    yield from lower_covers(x)
    for u in sets:
        yield project_down(x, u)
        yield project_up(x, u)
        # the walk yields words, wrapped unchecked here so that the caller checks each
        yield from map(Permutation._trusted,
                       arcdiag.congruences._cover_bottoms(project_down(x, u).entries, u._keys.__contains__))


def test_built_permutations_match_checked_construction():
    rng = random.Random(1600)
    for n in range(7):
        sets = [full_arc_set(n)]
        if n >= 2:
            sets += [named_congruence(n, "tamari"), named_congruence(n, "baxter"),
                     congruence_from_contracted(n, rng.sample(all_arcs(n), min(2, n - 1)))]
        listed = list(all_permutations(n))
        assert len(listed) == len(set(listed))
        for u in sets:
            for route in (uncontracted_permutations, uncontracted_by_avoidance):
                listed += route(n, u)
        for x in listed:
            _assert_checked_equal(x)
        for x in all_permutations(n):
            for y in _built_from(x, sets):
                _assert_checked_equal(y)
    x = Permutation(tuple(random.Random(200).sample(range(1, 201), 200)))
    sets = [named_congruence(200, "tamari"), named_congruence(200, "baxter")]
    for y in _built_from(x, sets):
        _assert_checked_equal(y)
