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
    arc_offsets,
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
from arcdiag import diagrams
from arcdiag.diagrams import _Component
from arcdiag.textforms import parse_arc

perms = lambda n: st.permutations(range(1, n + 1)).map(lambda e: Permutation(tuple(e)))


def P(text):
    return Permutation(tuple(int(c) for c in text))


def body(diagram):
    return str(diagram)


def test_delta_worked_example():
    assert body(diagram_from_permutation(P("157842936"))) == "2-4:R;3-9:LLRLL;4-8:LRL"


@pytest.mark.parametrize("n", range(1, 9))
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


def arc_subsets(n, rng):
    """Every subset of the arcs at n=4; else 400 seeded ones, each with a twin arc sharing an endpoint one time in four."""
    arcs = all_arcs(n)
    if n == 4:
        yield from (list(sub) for r in range(len(arcs) + 1) for sub in itertools.combinations(arcs, r))
        return
    for _ in range(400):
        sub = rng.sample(arcs, rng.randint(1, min(n + 1, len(arcs))))
        alpha = sub[0]
        twins = [beta for beta in arcs if beta != alpha and (beta.a == alpha.a or beta.b == alpha.b)]
        if twins and rng.random() < 0.25:
            sub.append(rng.choice([beta for beta in twins if beta not in sub] or twins))
        yield sorted(set(sub), key=arcs.index)


@pytest.mark.parametrize("n", range(2, 8))
def test_validation_matches_the_pairwise_rule(n):
    # accepts exactly the pairwise compatible sets, and words the first
    # rejected pair i < j in canonical order
    rng = random.Random(7100 + n)
    verdicts = set()
    for sub in arc_subsets(n, rng):
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
            verdicts.add(clashes[0].split()[-3] if "endpoint" in clashes[0] else "forces")
        else:
            assert validate_diagram(n, sub).arcs == frozenset(sub)
            verdicts.add("accepted")
    # n=2 has one arc, and a point forces two arcs apart only from n=4 on
    every = {"accepted", "lower", "upper", "forces"}
    assert verdicts == ({"accepted"} if n == 2 else every - {"forces"} if n == 3 else every)


def test_a_refusal_the_masks_cannot_word_still_raises(monkeypatch):
    # should the sweep and the clash masks ever disagree, the set is refused, not accepted
    prop = ArcSet.__dict__["_forcing"]
    evaluate = prop.func
    monkeypatch.setattr(prop, "func", lambda arcset: (evaluate(arcset)[0], [0] * len(arcset._keys)))
    crossing = [make_arc(8, 2, 5, {4}), make_arc(8, 3, 7, {4})]
    with pytest.raises(ValueError, match=r"^ArcSet\(8, '2-5:LR;3-7:RLL'\) is not a noncrossing arc diagram$"):
        validate_diagram(8, crossing)


def test_validation_cost_follows_the_arcs():
    # masks or a sweep sized by n would not fit in memory or time here
    assert parse_diagram("n=9999999999\n9999999998-9999999999").n == 9999999999
    n = 10**18
    top = make_arc(n, n - 1, n, frozenset())
    assert validate_diagram(n, [top]).arcs == {top}
    assert arc_offsets(Diagram(n, [top])) == {top: {n - 1: 0, n: 0}}
    bottom = make_arc(10**15, 1, 2)
    assert validate_diagram(10**15, [bottom]).arcs == {bottom}
    assert arc_offsets(Diagram(10**15, [bottom])) == {bottom: {1: 0, 2: 0}}


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


CYCLE = "the left-of relation on components has a cycle"
OVERLAP = "leftmost components overlap in label range"


def rescanned_stages(diagram):
    """The slow oracle of `deletion_stages`: rescan every remaining pair at each stage.

    At every stage it lists the components not right of any remaining
    one, checks their spans sorted by minimum, and deletes the one with
    the smallest minimum: O(k³) for k components.  It reads
    `_components` and `diagram_from_permutation` through the module, so
    patching them there patches both routes.
    """
    comps = diagrams._components(diagram)
    k = len(comps)
    right_of = [
        [i != j and comps[i].leftish & comps[j].rightish != 0 for j in range(k)]
        for i in range(k)
    ]
    color = [0] * k

    def check_acyclic(i):
        color[i] = 1
        for j in range(k):
            if right_of[i][j]:
                if color[j] == 1:
                    raise ValueError(CYCLE)
                if color[j] == 0:
                    check_acyclic(j)
        color[i] = 2

    for i in range(k):
        if color[i] == 0:
            check_acyclic(i)
    remaining = set(range(k))
    order = []
    while remaining:
        lefts = [i for i in remaining if not any(right_of[i][j] for j in remaining if j != i)]
        if not lefts:
            raise ValueError("no leftmost component among the remainder")
        spans = sorted((comps[i].lo, comps[i].hi) for i in lefts)
        for (_, prev_hi), (cur_lo, _) in zip(spans, spans[1:]):
            if prev_hi >= cur_lo:
                raise ValueError(OVERLAP)
        pick = min(lefts, key=lambda i: comps[i].lo)
        order.append(comps[pick].points_desc)
        remaining.remove(pick)
    word = tuple(p for run in order for p in run)
    if diagrams.diagram_from_permutation(Permutation._trusted(word)) != diagram:
        raise ValueError(f"{diagram!r} is not a noncrossing arc diagram")
    return order


def outcome(inverse, diagram):
    """The stage list, or the message of the ValueError raised instead."""
    try:
        return inverse(diagram)
    except ValueError as exc:
        return str(exc)


def unchecked(n, body):
    """The arcs of `body` on n points as a Diagram, without the compatibility check."""
    return Diagram(n, frozenset(parse_arc(chunk, n) for chunk in body.split(";")))


@pytest.mark.parametrize("n", range(1, 8))
def test_stages_match_the_rescan_oracle(n, delta_image):
    for d in delta_image(n).values():
        assert deletion_stages(d) == rescanned_stages(d)


@pytest.mark.parametrize("n", range(3, 8))
def test_stages_match_the_rescan_oracle_on_arc_subsets(n):
    # both routes raise on the same sets, with the same message
    rng = random.Random(2100 + n)
    arcs = all_arcs(n)
    reached = set()
    for _ in range(1000):
        d = Diagram(n, frozenset(rng.sample(arcs, rng.randint(1, min(n, len(arcs))))))
        got = outcome(deletion_stages, d)
        assert got == outcome(rescanned_stages, d)
        reached.add("stages" if isinstance(got, list) else got.split(")")[-1].strip())
    assert reached == {"stages", CYCLE, "is not a noncrossing arc diagram"}


def raised(inverse, diagram):
    """The stage list, or the type and message of the exception raised instead."""
    try:
        return inverse(diagram)
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("n", [30, 45, 60])
def test_stages_match_the_rescan_oracle_with_many_components(n):
    # from the identity (n components) to random permutations (about n/2)
    rng = random.Random(2300 + n)
    for _ in range(20):
        entries = list(range(1, n + 1))
        for _ in range(rng.randint(0, n)):
            i, j = rng.randrange(n), rng.randrange(n)
            entries[i], entries[j] = entries[j], entries[i]
        d = diagram_from_permutation(Permutation(tuple(entries)))
        assert raised(deletion_stages, d) == raised(rescanned_stages, d)


def test_stages_match_the_rescan_oracle_on_arc_subsets_at_n12():
    rng = random.Random(2312)
    arcs = all_arcs(12)
    for _ in range(200):
        d = Diagram(12, frozenset(rng.sample(arcs, rng.randint(1, 12))))
        assert raised(deletion_stages, d) == raised(rescanned_stages, d)


@pytest.mark.parametrize(
    "n, body, message",
    [
        # drawn by the seeded sampler above (seed 2100 + n), one per guard
        (3, "1-3:L;1-3:R", CYCLE),
        (4, "1-3:L;2-4:L", CYCLE),
        (3, "1-2;1-3:R", "ArcSet(3, '1-2;1-3:R') is not a noncrossing arc diagram"),
        (6, "1-6:LRRL;5-6", "ArcSet(6, '1-6:LRRL;5-6') is not a noncrossing arc diagram"),
    ],
)
def test_guards_reached_by_arc_sets(n, body, message):
    d = unchecked(n, body)
    for inverse in (deletion_stages, rescanned_stages):
        with pytest.raises(ValueError) as exc:
            inverse(d)
        assert str(exc.value) == message


def test_overlap_guard_is_not_reached_by_arc_sets():
    # A point strictly inside a component's span lies on a side of one of
    # its arcs, which relates the two components, so two leftmost
    # components never overlap: the guard checks `_components` alone.
    arcs = all_arcs(4)
    for r in range(len(arcs) + 1):
        for sub in itertools.combinations(arcs, r):
            assert outcome(deletion_stages, Diagram(4, frozenset(sub))) != OVERLAP


def synthetic_components(rng, n):
    """Components on 1..n with spans and a right-of relation drawn at random.

    Component i is right of j when leftish(i) holds a point of j; each
    rightish holds its own points alone.  The relation mostly follows a
    random order, and sometimes has a cycle.
    """
    labels = [rng.randrange(rng.randint(1, n)) for _ in range(n)]
    blocks = [[p for p in range(1, n + 1) if labels[p - 1] == b] for b in sorted(set(labels))]
    rng.shuffle(blocks)
    own = [sum(1 << p for p in pts) for pts in blocks]
    comps = []
    for i, pts in enumerate(blocks):
        leftish = own[i]
        for j in range(len(blocks)):
            if j != i and (j < i or rng.random() < 0.03) and rng.random() < 0.3:
                leftish |= 1 << rng.choice(blocks[j])
        comps.append(_Component(tuple(reversed(pts)), pts[0], pts[-1], leftish, own[i]))
    return comps


@pytest.mark.parametrize("n", range(1, 13))
def test_stages_match_the_rescan_oracle_on_synthetic_components(n, monkeypatch):
    # Patched components reach the overlap guard, at any stage; the
    # forward map is patched to agree, so whole stage lists compare too.
    rng = random.Random(2200 + n)
    reached = set()
    monkeypatch.setattr(diagrams, "diagram_from_permutation", lambda x: d)
    for _ in range(300):
        comps = synthetic_components(rng, n)
        monkeypatch.setattr(diagrams, "_components", lambda diagram: comps)
        d = Diagram(n, frozenset())
        got = outcome(deletion_stages, d)
        assert got == outcome(rescanned_stages, d)
        reached.add("stages" if isinstance(got, list) else got)
    assert reached == ({"stages", CYCLE, OVERLAP} if n > 2 else {"stages"})


def test_overlap_guard_is_reached_by_broken_components(monkeypatch):
    # {1, 3} and {2} with no relation between them: both are leftmost
    comps = [_Component((3, 1), 1, 3, 0b1010, 0b1010), _Component((2,), 2, 2, 0b100, 0b100)]
    monkeypatch.setattr(diagrams, "_components", lambda diagram: comps)
    for inverse in (deletion_stages, rescanned_stages):
        with pytest.raises(ValueError) as exc:
            inverse(Diagram(3, frozenset()))
        assert str(exc.value) == OVERLAP


def test_inverse_of_the_empty_diagram_at_n1000():
    # n components with no relation: quadratic, where the rescan was cubic
    n = 1000
    assert permutation_from_diagram(Diagram(n, frozenset())) == Permutation(tuple(range(1, n + 1)))


def test_inverse_of_a_random_permutation_at_n1000():
    entries = list(range(1, 1001))
    random.Random(1000).shuffle(entries)
    x = Permutation(tuple(entries))
    assert permutation_from_diagram(diagram_from_permutation(x)) == x


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
