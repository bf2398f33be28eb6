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
    congruence_from_contracted,
    count_diagrams,
    deletion_stages,
    diagram_from_permutation,
    enumerate_diagrams,
    incompatibility_reason,
    make_arc,
    named_congruence,
    parse_diagram,
    permutation_from_diagram,
    validate_diagram,
)
from arcdiag import diagrams
from arcdiag.diagrams import _compat_graph
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


def recursive_listing(n, arcset=None):
    """The listing as one nested call per chosen arc: the order oracle of `enumerate_diagrams`."""
    keys, later = _compat_graph(n, arcset)
    chosen = []

    def walk(allowed):
        yield Diagram._trusted(n, frozenset(chosen))
        m = allowed
        while m:
            i = (m & -m).bit_length() - 1
            m &= m - 1
            chosen.append(keys[i])
            yield from walk(allowed & later[i])
            chosen.pop()

    yield from walk((1 << len(keys)) - 1)


@pytest.mark.parametrize("n", range(1, 8))
def test_listing_order_matches_the_recursive_walk(n):
    rng = random.Random(2500 + n)
    arcs = all_arcs(n)
    sets = [None, *(named_congruence(n, *spec) for spec in [("tamari",), ("baxter",), ("maxlen", 2), ("clumped", 1)])]
    sets += [congruence_from_contracted(n, rng.sample(arcs, rng.randint(1, min(4, len(arcs))))) for _ in range(4 * (n > 1))]
    for arcset in sets:
        assert list(enumerate_diagrams(n, arcset)) == list(recursive_listing(n, arcset))


def test_listing_goes_deeper_than_the_recursion_limit():
    # Every two unit arcs are compatible, so the listing is every subset of
    # the 1,099 unit arcs, in lexicographic order of their indices with each
    # set before its extensions: the first 1,100 nest one arc deeper each.
    n = 1100
    units = [(a, a + 1, 0) for a in range(1, n)]
    maxlen2 = named_congruence(n, "maxlen", k=2)
    assert maxlen2._keys == frozenset(units)
    picked = ()
    for d in itertools.islice(enumerate_diagrams(n, maxlen2), 3000):
        assert d._keys == frozenset(units[i] for i in picked)
        if not picked:
            picked = (0,)
        elif picked[-1] + 1 < len(units):
            picked += (picked[-1] + 1,)
        else:
            picked = picked[:-2] + (picked[-2] + 1,)


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


def built_components(diagram):
    """The components of the diagram's arcs, merged as point sets from `Arc` values.

    In the form `diagrams._components` returns: the runs of points written
    decreasingly, by lowest point, then per run its points plus the left
    sides of its arcs, and its points plus the right sides, as bitmasks.
    """
    block = {p: {p} for p in range(1, diagram.n + 1)}
    for alpha in diagram.arcs:
        merged = block[alpha.a] | block[alpha.b]
        for p in merged:
            block[p] = merged
    runs = [tuple(sorted(block[p], reverse=True)) for p in range(1, diagram.n + 1) if min(block[p]) == p]
    index = {p: i for i, run in enumerate(runs) for p in run}
    leftish = [sum(1 << p for p in run) for run in runs]
    rightish = leftish[:]
    for alpha in diagram.arcs:
        i = index[alpha.a]
        leftish[i] |= sum(1 << p for p in alpha.left)
        rightish[i] |= sum(1 << p for p in alpha.right)
    return runs, leftish, rightish


def rescanned(diagram, components):
    """The slow oracle of the component walk: rescan every remaining pair at each stage.

    At every stage it lists the given components not right of any
    remaining one and deletes the one with the smallest minimum: O(k³)
    for k components.  It reads `diagram_from_permutation` through the
    module, so patching it there patches both routes.
    """
    runs, leftish, rightish = components
    k = len(runs)
    right_of = [[i != j and leftish[i] & rightish[j] != 0 for j in range(k)] for i in range(k)]
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
        pick = min(lefts, key=lambda i: runs[i][-1])
        order.append(runs[pick])
        remaining.remove(pick)
    word = tuple(p for run in order for p in run)
    if diagrams.diagram_from_permutation(Permutation._trusted(word)) != diagram:
        raise ValueError(f"{diagram!r} is not a noncrossing arc diagram")
    return order


def rescanned_stages(diagram):
    """The stages of the rescan over the diagram's own components, built apart from the walk."""
    return rescanned(diagram, built_components(diagram))


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
    # The walk does not check that two leftmost components are apart in
    # label range: a point strictly inside one component's span lies on a
    # side of one of its arcs, which relates the two, so they are never
    # leftmost together.  Checked on every arc set at n=4, valid or not.
    arcs = all_arcs(4)
    overlapping = 0
    for r in range(len(arcs) + 1):
        for sub in itertools.combinations(arcs, r):
            runs, leftish, rightish = built_components(Diagram(4, frozenset(sub)))
            for i, j in itertools.permutations(range(len(runs)), 2):
                if runs[i][-1] < runs[j][-1] < runs[i][0]:
                    overlapping += 1
                    assert leftish[i] & rightish[j] or leftish[j] & rightish[i]
    assert overlapping


def synthetic_components(rng, n):
    """Components on 1..n with spans and a right-of relation drawn at random, as `built_components` gives them.

    Component i is right of j when leftish(i) holds a point of j; each
    rightish holds its own points alone.  The relation mostly follows a
    random order, and sometimes has a cycle.  Spans may overlap.
    """
    labels = [rng.randrange(rng.randint(1, n)) for _ in range(n)]
    blocks = [[p for p in range(1, n + 1) if labels[p - 1] == b] for b in sorted(set(labels))]
    rng.shuffle(blocks)
    own = [sum(1 << p for p in pts) for pts in blocks]
    leftish = own[:]
    for i in range(len(blocks)):
        for j in range(len(blocks)):
            if j != i and (j < i or rng.random() < 0.03) and rng.random() < 0.3:
                leftish[i] |= 1 << rng.choice(blocks[j])
    return [tuple(reversed(pts)) for pts in blocks], leftish, own


@pytest.mark.parametrize("n", range(1, 13))
def test_stages_match_the_rescan_oracle_on_synthetic_components(n, monkeypatch):
    # The same components go to the rescan and, patched in, to the walk;
    # they reach the cycle guard, and leftmost ones may overlap in label range.
    # The forward map is patched to agree, so whole words compare too.
    rng = random.Random(2200 + n)
    reached = set()
    monkeypatch.setattr(diagrams, "diagram_from_permutation", lambda x: d)
    for _ in range(300):
        comps = synthetic_components(rng, n)
        monkeypatch.setattr(diagrams, "_components", lambda diagram: comps)
        d = Diagram(n, frozenset())
        got = outcome(lambda d: permutation_from_diagram(d).entries, d)
        assert got == outcome(lambda d: tuple(p for run in rescanned(d, comps) for p in run), d)
        reached.add("word" if isinstance(got, tuple) else got)
    assert reached == ({"word", CYCLE} if n > 2 else {"word"})


@pytest.mark.parametrize("n", [*range(1, 8), 200, 1000])
def test_every_stage_is_a_maximal_descending_run(n, delta_image):
    if n < 8:
        cases = delta_image(n)
    else:
        rng = random.Random(2400 + n)
        cases = {}
        for _ in range(3):
            entries = list(range(1, n + 1))
            rng.shuffle(entries)
            x = Permutation(tuple(entries))
            cases[x] = diagram_from_permutation(x)
    for x, d in cases.items():
        stages = deletion_stages(d)
        assert tuple(v for stage in stages for v in stage) == x.entries
        assert all(stage and all(u > v for u, v in zip(stage, stage[1:])) for stage in stages)
        assert all(stage[-1] < after[0] for stage, after in zip(stages, stages[1:]))


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
