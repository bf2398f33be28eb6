import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcdiag import (
    Arc,
    ArcSet,
    Permutation,
    all_arcs,
    all_permutations,
    arc_from_ji,
    arc_key,
    compatible,
    descents,
    forces_right_of,
    incompatibility_reason,
    inflections,
    is_join_irreducible,
    is_subarc,
    ji_from_arc,
    make_arc,
    subarc_covers,
)
from arcdiag.arcs import _shown, _spelled, side_mask, side_string


def arcs_st(n):
    def build(draw_ab_bits):
        a, b, bits = draw_ab_bits
        right = frozenset(p for i, p in enumerate(range(a + 1, b)) if bits >> i & 1)
        return make_arc(n, a, b, right)

    return (
        st.tuples(st.integers(1, n - 1), st.integers(1, n - 1))
        .map(lambda t: (min(t), max(t[0], t[1]) + (t[0] == t[1])))
        .flatmap(
            lambda ab: st.tuples(
                st.just(ab[0]), st.just(ab[1]), st.integers(0, 2 ** (ab[1] - ab[0] - 1) - 1)
            )
        )
        .map(build)
    )


def P(text):
    return Permutation(tuple(int(c) for c in text))


def test_make_arc_validates():
    with pytest.raises(ValueError):
        make_arc(5, 3, 3, frozenset())
    with pytest.raises(ValueError):
        make_arc(5, 0, 2, frozenset())
    with pytest.raises(ValueError):
        make_arc(5, 1, 3, {4})


def test_arc_mask_must_fit_the_interior():
    Arc(5, 1, 4, 3)
    for mask in (-1, 4):
        with pytest.raises(ValueError):
            Arc(5, 1, 4, mask)
    with pytest.raises(ValueError):
        Arc(5, 2, 3, 1)
    for p in (1, 4, 5):
        with pytest.raises(ValueError):
            make_arc(5, 1, 4, {p})


@pytest.mark.parametrize("n", range(2, 9))
def test_mask_readers_match_the_point_sets(n):
    arcs = all_arcs(n)
    # the side string spelled from the right view is the key the mask's cached string replaced
    by_points = sorted(
        arcs,
        key=lambda alpha: (
            alpha.a,
            alpha.b,
            "".join("R" if p in alpha.right else "L" for p in range(alpha.a + 1, alpha.b)),
        ),
    )
    assert sorted(reversed(arcs), key=arc_key) == by_points
    for alpha in arcs:
        again = make_arc(n, alpha.a, alpha.b, alpha.right)
        assert again == alpha and hash(again) == hash(alpha)
        assert side_mask(side_string(alpha)) == alpha.mask
        right = alpha.right
        assert inflections(alpha) == sum(
            (p in right) != (p + 1 in right) for p in range(alpha.a + 1, alpha.b - 1)
        )


def test_arc_text_form():
    assert str(make_arc(9, 4, 8, {6})) == "4-8:LRL"
    assert str(make_arc(4, 1, 2, frozenset())) == "1-2"
    assert str(make_arc(3, 1, 3, {2})) == "1-3:R"


def test_left_is_interior_minus_right():
    alpha = make_arc(9, 3, 9, {6})
    assert alpha.left == frozenset({4, 5, 7, 8})
    assert alpha.interior == frozenset(range(4, 9))


@pytest.mark.parametrize("n", range(2, 11))
def test_arc_count(n):
    arcs = all_arcs(n)
    assert len(arcs) == 2**n - n - 1
    assert len(set(arcs)) == len(arcs)
    # same total as summing over descent positions
    assert len(arcs) == sum((n - d) * 2 ** (d - 1) for d in range(1, n))
    # every endpoint pair with every side word, L before R: canonical order
    assert arcs == [
        make_arc(n, a, b, (p for p, side in zip(range(a + 1, b), word) if side == "R"))
        for a in range(1, n)
        for b in range(a + 1, n + 1)
        for word in itertools.product("LR", repeat=b - a - 1)
    ]


@pytest.mark.parametrize("n", range(2, 9))
def test_ji_arc_bijection(n):
    seen = set()
    for alpha in all_arcs(n):
        j = ji_from_arc(alpha)
        assert is_join_irreducible(j)
        assert arc_from_ji(j) == alpha
        seen.add(j)
    assert len(seen) == 2**n - n - 1


@pytest.mark.parametrize("n", range(2, 9))
def test_every_ji_is_reached(n):
    for x in all_permutations(n):
        if is_join_irreducible(x):
            assert ji_from_arc(arc_from_ji(x)) == x


def test_arc_from_ji_worked_examples():
    assert str(arc_from_ji(P("123578469"))) == "4-8:LRL"
    assert str(arc_from_ji(P("142356789"))) == "2-4:R"
    assert str(arc_from_ji(P("124578936"))) == "3-9:LLRLL"
    with pytest.raises(ValueError):
        arc_from_ji(P("321"))


def test_ji_from_arc_has_one_descent():
    j = ji_from_arc(make_arc(9, 4, 8, {6}))
    assert str(j) == "123578469"
    assert len(descents(j)) == 1


@pytest.mark.parametrize("n", range(2, 7))
def test_compatible_symmetric_reflexive(n):
    arcs = all_arcs(n)
    for alpha in arcs:
        assert compatible(alpha, alpha)
    for alpha, beta in itertools.combinations(arcs, 2):
        assert compatible(alpha, beta) == compatible(beta, alpha)


@pytest.mark.parametrize("n", range(2, 7))
def test_compatible_iff_some_diagram_holds_both(n, delta_image):
    # ground truth: two arcs are compatible exactly when some permutation's
    # diagram contains both
    together = set()
    for diagram in delta_image(n).values():
        for pair in itertools.combinations(sorted(diagram.arcs, key=str), 2):
            together.add(frozenset(pair))
    for alpha, beta in itertools.combinations(all_arcs(n), 2):
        assert compatible(alpha, beta) == (frozenset({alpha, beta}) in together)


def test_incompatibility_reasons():
    shared = incompatibility_reason(make_arc(4, 1, 3, frozenset()), make_arc(4, 2, 3, {}))
    assert shared is not None and "endpoint" in shared
    crossing = incompatibility_reason(make_arc(8, 2, 5, {4}), make_arc(8, 3, 7, {4}))
    assert crossing is not None and "opposite" in crossing
    assert incompatibility_reason(make_arc(8, 2, 5, frozenset()), make_arc(8, 3, 7, {5})) is None
    with pytest.raises(ValueError):
        compatible(make_arc(3, 1, 2, frozenset()), make_arc(4, 1, 2, frozenset()))


def test_forcing_witness_direction():
    first = make_arc(8, 2, 5, frozenset())
    second = make_arc(8, 3, 7, {5})
    assert forces_right_of(first, second) == 3
    assert forces_right_of(second, first) is None


@pytest.mark.parametrize("n", range(2, 7))
def test_subarc_is_partial_order(n):
    arcs = all_arcs(n)
    below = {beta: {alpha for alpha in arcs if is_subarc(alpha, beta)} for beta in arcs}
    for beta in arcs:
        assert beta in below[beta]
        for alpha in below[beta]:
            if beta in below[alpha]:
                assert alpha == beta
            for gamma in below[alpha]:
                assert gamma in below[beta]


@pytest.mark.parametrize("n", range(2, 7))
def test_subarc_generators_agree(n):
    arcs = all_arcs(n)
    for beta in arcs:
        shorter = [
            alpha
            for alpha in arcs
            if is_subarc(alpha, beta) and alpha.b - alpha.a == beta.b - beta.a - 1
        ]
        assert list(subarc_covers(beta)) == shorter


def test_subarc_examples():
    outer = make_arc(9, 3, 9, {6})
    assert is_subarc(make_arc(9, 4, 8, {6}), outer)
    assert not is_subarc(make_arc(9, 4, 8, {5}), outer)
    assert not is_subarc(make_arc(9, 4, 8, frozenset()), outer)


def test_inflections_examples():
    assert inflections(make_arc(9, 3, 9, {6})) == 2
    assert inflections(make_arc(9, 3, 9, {6, 7, 8})) == 1
    assert inflections(make_arc(5, 2, 5, frozenset())) == 0
    assert inflections(make_arc(5, 1, 5, {2, 3, 4})) == 0
    assert inflections(make_arc(6, 1, 6, {3, 5})) == 3
    assert inflections(make_arc(4, 1, 2, frozenset())) == 0


@given(st.integers(3, 9).flatmap(lambda n: st.tuples(arcs_st(n), arcs_st(n))))
@settings(max_examples=300, deadline=None)
def test_arc_relations_sampled(pair):
    alpha, beta = pair
    assert is_subarc(alpha, alpha)
    assert compatible(alpha, alpha)
    if is_subarc(alpha, beta):
        assert beta.right & alpha.interior == alpha.right
    both = forces_right_of(alpha, beta), forces_right_of(beta, alpha)
    if alpha != beta and None not in both:
        assert not compatible(alpha, beta)


def every_arc(n):
    """Each arc on n points, built straight from its (a, b, mask), in no particular order."""
    return [Arc(n, a, b, mask) for b in range(n, 1, -1) for a in range(1, b) for mask in range(1 << (b - a - 1))]


@pytest.mark.parametrize("n", range(1, 11))
def test_sorted_keys_give_the_canonical_order(n):
    arcs = every_arc(n)
    spelled = {
        alpha: "".join("R" if p in alpha.right else "L" for p in range(alpha.a + 1, alpha.b)) for alpha in arcs
    }
    canonical = sorted(arcs, key=lambda alpha: (alpha.a, alpha.b, spelled[alpha]))
    assert sorted(arcs, key=arc_key) == canonical
    keys = [(alpha.a, alpha.b, alpha.mask) for alpha in arcs]
    assert [Arc(n, *key) for key in sorted(keys, key=_spelled)] == canonical
    arcset = ArcSet(n, arcs)
    assert list(arcset.sorted_arcs()) == canonical == all_arcs(n)
    assert str(arcset) == ";".join(str(alpha) for alpha in canonical)
    for alpha in arcs:
        sides = spelled[alpha]
        assert str(alpha) == (f"{alpha.a}-{alpha.b}:{sides}" if sides else f"{alpha.a}-{alpha.b}")


def test_membership_needs_an_arc_on_the_same_n():
    arcset = ArcSet(5, [make_arc(5, 1, 4, {2}), make_arc(5, 2, 3)])
    assert make_arc(5, 1, 4, {2}) in arcset and make_arc(5, 2, 3) in arcset
    for m in (4, 6, 9):
        assert Arc(m, 1, 4, 1) not in arcset and Arc(m, 2, 3, 0) not in arcset
    assert Arc(5, 1, 4, 2) not in arcset
    # the key alone, or anything else that is not an arc, is not a member either
    assert (1, 4, 1) not in arcset and (2, 3, 0) not in arcset and "2-3" not in arcset


def test_shown_cuts_the_middle_past_40_characters():
    assert _shown("7" * 40) == "7" * 40
    long = "".join(str(i % 10) for i in range(41))
    assert _shown(long) == long[:20] + "..." + long[-10:] and len(_shown(long)) == 33
    assert _shown(10 ** 40) == "1" + "0" * 19 + "..." + "0" * 10
