import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcdiag import (
    ArcSet,
    Diagram,
    Permutation,
    all_arcs,
    all_permutations,
    arc_from_ji,
    canonical_joinands,
    classify_diagram,
    compatible,
    count_diagrams,
    deletion_stages,
    diagram_from_permutation,
    enumerate_diagrams,
    incompatibility_reason,
    make_arc,
    parse_diagram,
    permutation_from_diagram,
    validate_diagram,
)

perms = lambda n: st.permutations(range(1, n + 1)).map(lambda e: Permutation(tuple(e)))


def P(text):
    return Permutation(tuple(int(c) for c in text))


def body(diagram):
    return str(diagram)


def test_delta_worked_example():
    assert body(diagram_from_permutation(P("157842936"))) == "2-4:R;3-9:LLRLL;4-8:LRL"


@pytest.mark.parametrize("n", range(1, 8))
def test_delta_is_the_canonical_join_representation(n):
    # the paper's link: the arcs of x are the arcs of its canonical joinands
    for x in all_permutations(n):
        assert {arc_from_ji(j) for j in canonical_joinands(x)} == diagram_from_permutation(x).arcs


def test_delta_of_identity_is_empty():
    assert diagram_from_permutation(P("12345")).arcs == frozenset()


def test_delta_arc_per_descent():
    x = P("46731528")
    d = diagram_from_permutation(x)
    assert body(d) == "1-3:R;2-5:LL;3-7:LRL"
    assert len(d.arcs) == 3


def test_validate_diagram_rejects_shared_endpoints():
    with pytest.raises(ValueError, match="endpoint"):
        validate_diagram(4, [make_arc(4, 1, 3, frozenset()), make_arc(4, 2, 3, frozenset())])


def test_validate_diagram_rejects_crossing():
    with pytest.raises(ValueError, match="forces"):
        validate_diagram(8, [make_arc(8, 2, 5, {4}), make_arc(8, 3, 7, {4})])


@pytest.mark.parametrize("n", range(3, 7))
def test_validation_matches_the_pairwise_rule(n):
    # accepts exactly the pairwise compatible sets, and words the first
    # rejected pair i < j in canonical order
    rng = random.Random(7100 + n)
    arcs = all_arcs(n)
    for _ in range(400):
        sub = sorted(rng.sample(arcs, rng.randint(1, min(n + 1, len(arcs)))), key=arcs.index)
        clashes = [
            reason
            for alpha, beta in itertools.combinations(sub, 2)
            if (reason := incompatibility_reason(alpha, beta)) is not None
        ]
        rng.shuffle(sub)
        if clashes:
            with pytest.raises(ValueError) as exc:
                validate_diagram(n, sub)
            assert str(exc.value) == "incompatible arcs: " + clashes[0]
        else:
            assert validate_diagram(n, sub).arcs == frozenset(sub)


def test_validation_cost_follows_the_arcs():
    # masks sized by n would not fit in memory here
    assert parse_diagram("n=9999999999\n9999999998-9999999999").n == 9999999999
    n = 10**18
    top = make_arc(n, n - 1, n, frozenset())
    assert validate_diagram(n, [top]).arcs == {top}


def test_deletion_stages_worked_example():
    d = diagram_from_permutation(P("46731528"))
    assert deletion_stages(d) == [(4,), (6,), (7, 3, 1), (5, 2), (8,)]
    assert str(permutation_from_diagram(d)) == "46731528"


def test_stages_spell_the_permutation():
    for x in all_permutations(5):
        stages = deletion_stages(diagram_from_permutation(x))
        spelled = tuple(v for stage in stages for v in stage)
        assert spelled == x.entries


@pytest.mark.parametrize("n", range(1, 8))
def test_inverse_of_delta_is_identity(n, delta_image):
    for x, d in delta_image(n).items():
        assert permutation_from_diagram(d) == x


@pytest.mark.parametrize("n", range(1, 7))
def test_inverse_matches_exhaustive_search(n, delta_image):
    # secondary oracle: invert by scanning all of S_n
    by_diagram = {d: x for x, d in delta_image(n).items()}
    assert len(by_diagram) == len(delta_image(n))
    for d, x in by_diagram.items():
        assert permutation_from_diagram(d) == x


@pytest.mark.parametrize("n", range(1, 7))
def test_enumeration_is_the_delta_image(n, delta_image):
    listed = list(enumerate_diagrams(n))
    assert len(listed) == len(set(listed))
    assert set(listed) == set(delta_image(n).values())


def test_enumeration_is_deterministic():
    first = list(enumerate_diagrams(5))
    second = list(enumerate_diagrams(5))
    assert first == second


def test_enumeration_stays_inside_arcset():
    unit_arcs = ArcSet(5, frozenset(alpha for alpha in all_arcs(5) if alpha.b - alpha.a == 1))
    short = list(enumerate_diagrams(5, unit_arcs))
    assert all(all(alpha.b - alpha.a == 1 for alpha in d.arcs) for d in short)
    # the four unit arcs are pairwise compatible, so every subset shows up
    assert len(short) == 16


def test_diagram_is_arcset():
    assert Diagram is ArcSet
    d = diagram_from_permutation(P("46731528"))
    assert make_arc(8, 1, 3, {2}) in d
    assert repr(d) == "ArcSet(8, '1-3:R;2-5:LL;3-7:LRL')"


@pytest.mark.parametrize("walk", [enumerate_diagrams, count_diagrams])
def test_enumeration_and_count_reject_arcset_on_wrong_n(walk):
    arcset = ArcSet(4, frozenset(all_arcs(4)))
    with pytest.raises(ValueError, match="lives on 4 points, not 5"):
        list(walk(5, arcset))


def test_delta_of_inverse_is_identity_n7():
    for d in enumerate_diagrams(7):
        assert diagram_from_permutation(permutation_from_diagram(d)) == d


def test_flagness_by_exhaustion_small():
    # every subset whose pairs are compatible is a diagram reached by delta
    for n in range(2, 5):
        arcs = all_arcs(n)
        image = {d.arcs for d in enumerate_diagrams(n)}
        for r in range(len(arcs) + 1):
            for sub in itertools.combinations(arcs, r):
                ok = all(compatible(a, b) for a, b in itertools.combinations(sub, 2))
                assert ok == (frozenset(sub) in image)


def test_flagness_sampled_n6(delta_image):
    rng = random.Random(20260819)
    arcs = all_arcs(6)
    image = {d.arcs for d in delta_image(6).values()}
    for _ in range(4000):
        size = rng.randint(2, 5)
        sub = frozenset(rng.sample(arcs, size))
        ok = all(compatible(a, b) for a, b in itertools.combinations(sub, 2))
        assert ok == (sub in image)


def test_corrupt_diagram_fails_loudly():
    bad = Diagram(8, frozenset({make_arc(8, 2, 5, {4}), make_arc(8, 3, 7, {4})}))
    with pytest.raises(ValueError):
        deletion_stages(bad)
    with pytest.raises(ValueError):
        permutation_from_diagram(bad)


@pytest.mark.parametrize("n", range(3, 7))
def test_inverse_rejects_exactly_the_incompatible_sets(n):
    rng = random.Random(6000 + n)
    arcs = all_arcs(n)
    for _ in range(400):
        sub = rng.sample(arcs, rng.randint(1, min(n, len(arcs))))
        valid = all(compatible(a, b) for a, b in itertools.combinations(sub, 2))
        d = Diagram(n, frozenset(sub))
        for inverse in (deletion_stages, permutation_from_diagram):
            if valid:
                inverse(d)
            else:
                with pytest.raises(ValueError):
                    inverse(d)


def test_classify_diagram():
    d = validate_diagram(4, [make_arc(4, 1, 2, frozenset()), make_arc(4, 3, 4, frozenset())])
    c = classify_diagram(d)
    assert (c.is_matching, c.is_perfect_matching) == (True, True)
    e = classify_diagram(diagram_from_permutation(P("46731528")))
    assert (e.is_matching, e.is_perfect_matching) == (False, False)
    empty = classify_diagram(Diagram(3, frozenset()))
    assert empty.is_matching and not empty.is_perfect_matching


@given(st.integers(1, 8).flatmap(perms))
@settings(max_examples=400, deadline=None)
def test_round_trip_sampled(x):
    d = diagram_from_permutation(x)
    assert len(d.arcs) == len([i for i in range(1, x.n) if x.entries[i - 1] > x.entries[i]])
    assert permutation_from_diagram(d) == x
