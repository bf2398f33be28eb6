import bisect
import inspect
import itertools
import random
import sys

import pytest

import arcdiag.congruences
import arcdiag.render
from arcdiag import (
    Arc,
    ArcSet,
    Permutation,
    all_arcs,
    all_permutations,
    canonical_joinands,
    catalan,
    complex_faces,
    congruence_from_contracted,
    count_by_arcs,
    diagram_from_permutation,
    export_dot,
    full_arc_set,
    has_pattern,
    inversions,
    is_subarc,
    ji_from_arc,
    join,
    lower_covers,
    make_arc,
    minimal_contracted_generators,
    named_congruence,
    narayana,
    parse_congruence_spec,
    project_down,
    project_up,
    subarc_covers,
    uncontracted_by_avoidance,
    uncontracted_permutations,
)
from arcdiag.arcs import _grown, arc_key
from arcdiag.congruences import _cover_bottoms, _require_congruence, _walk
from arcdiag.perms import positions
from arcdiag.textforms import _spec_rule


def random_congruences(n, count, seed):
    rng = random.Random(seed)
    arcs = all_arcs(n)
    for _ in range(count):
        gens = rng.sample(arcs, rng.randint(1, min(4, len(arcs))))
        yield gens, congruence_from_contracted(n, gens)


def test_full_arc_set_is_closed():
    for n in range(2, 8):
        u = full_arc_set(n)
        assert len(u.arcs) == 2**n - n - 1
        assert u.subarc_closed


def test_closure_detects_missing_subarc():
    u = named_congruence(4, "tamari")
    broken = ArcSet(4, u.arcs - {make_arc(4, 1, 2, frozenset())})
    assert not broken.subarc_closed


@pytest.mark.parametrize("n", range(2, 6))
def test_closure_check_matches_every_subarc(n):
    # the one-step check against the definition: every subarc of a member
    rng = random.Random(5000 + n)
    arcs = all_arcs(n)
    for _, u in random_congruences(n, 20, seed=4000 + n):
        dropped = rng.sample(sorted(u.arcs, key=str), min(1, len(u.arcs)))
        for members in (u.arcs, u.arcs - set(dropped)):
            closed = all(
                alpha in members for beta in members for alpha in arcs if is_subarc(alpha, beta)
            )
            assert ArcSet(n, members).subarc_closed == closed


@pytest.mark.parametrize("n", range(3, 8))
def test_contraction_yields_closed_sets(n):
    for gens, u in random_congruences(n, 25, seed=1000 + n):
        assert u.subarc_closed
        assert not any(g in u.arcs for g in gens)
        for alpha in all_arcs(n):
            contracted = any(is_subarc(g, alpha) for g in gens)
            assert contracted == (alpha not in u.arcs)


@pytest.mark.parametrize("n", range(3, 7))
def test_minimal_generators_regenerate(n):
    arcs = all_arcs(n)
    for _, u in random_congruences(n, 15, seed=2000 + n):
        gens = minimal_contracted_generators(n, u)
        assert congruence_from_contracted(n, gens) == u
        for g, h in itertools.permutations(gens, 2):
            assert not is_subarc(g, h)
        # the cover scan: arcs outside U whose subarc covers lie in U
        assert gens == tuple(
            g for g in arcs if g not in u and all(beta in u for beta in subarc_covers(g))
        )


def sorted_generators(n, u):
    """Oracle: the grower's failure keys as arcs, sorted by `arc_key`."""
    return tuple(sorted((Arc(n, *key) for key in _grown(n, _require_congruence(n, u))[1]), key=arc_key))


@pytest.mark.parametrize("n", range(1, 8))
def test_minimal_generators_match_the_arc_key_sort(n):
    congruences = [named_congruence(n, "tamari"), named_congruence(n, "baxter"), full_arc_set(n)]
    if n > 1:  # there is no arc to contract at n = 1
        congruences += [u for _, u in random_congruences(n, 10, seed=9100 + n)]
    for u in congruences:
        assert minimal_contracted_generators(n, u) == sorted_generators(n, u)


def test_has_pattern_examples():
    t = make_arc(3, 1, 3, {2})
    assert has_pattern(Permutation((3, 1, 2)), t)
    assert not has_pattern(Permutation((2, 3, 1)), t)
    # embedded occurrence inside a longer word
    assert has_pattern(Permutation((4, 1, 3, 2)), t)


def test_tamari_members_n3():
    u = named_congruence(3, "tamari")
    assert {str(a) for a in u.arcs} == {"1-2", "2-3", "1-3:L"}
    got = [str(x) for x in uncontracted_permutations(3, u)]
    assert got == ["123", "132", "213", "231", "321"]


def test_contracting_the_other_slope():
    u = congruence_from_contracted(3, [make_arc(3, 1, 3, frozenset())])
    got = {str(x) for x in uncontracted_permutations(3, u)}
    assert got == {"123", "132", "213", "312", "321"}


def scan_by_diagram(image, u):
    """Oracle: scan S_n for the permutations whose diagram lies in u."""
    return [x for x, d in image.items() if d.arcs <= u.arcs]


def scan_by_avoidance(n, u):
    """Oracle: scan S_n for the permutations with none of u's minimal forbidden patterns."""
    patterns = minimal_contracted_generators(n, u)
    return [x for x in all_permutations(n) if not any(has_pattern(x, g) for g in patterns)]


def assert_routes_match_scans(n, u, image):
    expected = scan_by_diagram(image, u)
    assert scan_by_avoidance(n, u) == expected
    assert list(uncontracted_permutations(n, u)) == expected
    assert list(uncontracted_by_avoidance(n, u)) == expected


@pytest.mark.parametrize("n", range(2, 8))
def test_avoidance_route_matches_delta_route(n, delta_image):
    # n = 1 has no arc to contract; the full arc set below covers it
    for _, u in random_congruences(n, 12, seed=3000 + n):
        assert_routes_match_scans(n, u, delta_image(n))


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("spec", ["tamari", "baxter", "clumped:1", "clumped:2", "maxlen:1", "maxlen:2",
                                  "maxlen:3", "cambrian", "cambrian-seeded"])
def test_listing_routes_match_scans_on_named_specs(n, spec, delta_image):
    if spec == "cambrian":
        spec += ":" + ("LR" * n)[:n]
    elif spec == "cambrian-seeded":
        spec = "cambrian:" + seeded_orientations(n, 1, seed=19000 + n)[0]
    assert_routes_match_scans(n, parse_congruence_spec(spec, n), delta_image(n))


@pytest.mark.parametrize("n", range(1, 8))
def test_full_arc_set_lists_all_of_s_n(n):
    everything = list(all_permutations(n))
    assert list(uncontracted_permutations(n, full_arc_set(n))) == everything
    assert list(uncontracted_by_avoidance(n, full_arc_set(n))) == everything


@pytest.mark.parametrize("route", [uncontracted_permutations, uncontracted_by_avoidance],
                         ids=lambda route: route.__name__)
def test_listing_at_the_smallest_sizes_and_the_empty_set(route):
    # up to `_TAIL` points the whole listing comes from the tails memo, empty rest included
    assert [str(x) for x in route(0, full_arc_set(0))] == [""]
    assert [str(x) for x in route(1, full_arc_set(1))] == ["1"]
    assert [str(x) for x in route(2, full_arc_set(2))] == ["12", "21"]
    assert [str(x) for x in route(2, ArcSet(2, frozenset()))] == ["12"]
    assert list(route(4, ArcSet(4, frozenset()))) == [Permutation((1, 2, 3, 4))]


def seeded_contract_sets(n, count, seed):
    """Sets made by contracting three seeded long arcs; they keep most of S_n."""
    rng = random.Random(seed)
    longest = [alpha for alpha in all_arcs(n) if alpha.b - alpha.a >= n - 2]
    for _ in range(count):
        yield congruence_from_contracted(n, rng.sample(longest, min(3, len(longest))))


@pytest.mark.parametrize("n", range(3, 9))
def test_listing_routes_match_scans_on_contract_sets(n, delta_image):
    for u in seeded_contract_sets(n, 2 if n == 8 else 4, seed=15000 + n):
        assert_routes_match_scans(n, u, delta_image(n))


def test_pattern_rule_runs_once_per_arc_key(monkeypatch):
    decided = []
    missing = arcdiag.congruences._PatternMemo.__missing__

    def counted(memo, key):
        kept = missing(memo, key)
        decided.append((key, kept))
        return kept

    monkeypatch.setattr(arcdiag.congruences._PatternMemo, "__missing__", counted)
    u = named_congruence(7, "clumped", k=1)
    assert list(uncontracted_by_avoidance(7, u)) == list(uncontracted_permutations(7, u))
    keys = [key for key, _ in decided]
    assert len(keys) == len(set(keys))
    # for a closed set, no minimal contracted arc below an arc means the arc is in it
    assert all(kept == (key in u._keys) for key, kept in decided)
    assert any(not kept for _, kept in decided)


def test_tails_memo_needs_the_last_placed_value(monkeypatch):
    # a copy of the memo that forgets b hands one tail list to prefixes
    # ending in different values, and lists words with contracted descents
    u = named_congruence(6, "baxter")  # Tamari listings happen to survive the mutation
    right = list(uncontracted_permutations(6, u))
    walk = arcdiag.congruences._prefix_walk(6, u._keys.__contains__)
    assert [w + t for w, ts in walk for t in ts] == [x.entries for x in right]
    source = inspect.getsource(arcdiag.congruences._kept_orders)
    assert source.count("key = (b, rest)") == 1
    namespace = dict(vars(arcdiag.congruences))
    exec(source.replace("key = (b, rest)", "key = rest"), namespace)
    monkeypatch.setattr(arcdiag.congruences, "_kept_orders", namespace["_kept_orders"])
    assert len(list(uncontracted_permutations(6, u))) != len(right)


def test_listing_is_output_sensitive():
    # 16,796 of the 3,628,800 permutations of S_10; a scan would visit them all
    u = named_congruence(10, "tamari")
    assert sum(1 for _ in uncontracted_permutations(10, u)) == catalan(10)
    assert sum(1 for _ in uncontracted_by_avoidance(10, u)) == catalan(10)


@pytest.mark.parametrize(
    "name,kwargs",
    [
        ("tamari", {}),
        ("baxter", {}),
        ("cambrian", {"orientation": "LRLRL"}),
        ("clumped", {"k": 1}),
        ("maxlen", {"k": 3}),
    ],
)
def test_named_families_are_closed(name, kwargs):
    u = named_congruence(5, name, **kwargs)
    assert u.subarc_closed
    assert list(uncontracted_permutations(5, u)) == list(uncontracted_by_avoidance(5, u))


def test_named_family_relations():
    for n in range(2, 7):
        assert named_congruence(n, "cambrian", orientation="R" * n) == named_congruence(n, "tamari")
        assert named_congruence(n, "baxter") == named_congruence(n, "clumped", k=0)
        assert named_congruence(n, "maxlen", k=n) == full_arc_set(n)
        all_left = named_congruence(n, "cambrian", orientation="L" * n)
        assert all(not alpha.left for alpha in all_left.arcs)
        prev = named_congruence(n, "clumped", k=0)
        for k in range(1, n):
            cur = named_congruence(n, "clumped", k=k)
            assert prev.arcs <= cur.arcs
            prev = cur


def oracle_keep(spec):
    """The per-arc filter of a spec, written from each family's definition."""
    name, _, payload = spec.partition(":")
    if name == "tamari":
        return lambda alpha: not alpha.right
    if name == "cambrian":
        return lambda alpha: all(
            (p in alpha.left) == (payload[p - 1] == "R") for p in alpha.interior
        )
    if name == "maxlen":
        return lambda alpha: alpha.b - alpha.a < int(payload)
    bound = 0 if name == "baxter" else int(payload)

    def keep(alpha):
        sides = [p in alpha.right for p in range(alpha.a + 1, alpha.b)]
        return sum(s != t for s, t in zip(sides, sides[1:])) <= bound

    return keep


def family_specs(n):
    yield from ("tamari", "baxter")
    yield from (f"clumped:{k}" for k in range(4))
    yield from (f"maxlen:{k}" for k in range(1, n + 1))
    if n <= 8:
        orientations = ["".join(o) for o in itertools.product("LR", repeat=n)]
    else:
        orientations = [("LR" * n)[:n], ("RL" * n)[:n], "L" * (n // 2) + "R" * (n - n // 2)]
    yield from (f"cambrian:{o}" for o in orientations)


@pytest.mark.parametrize("n", range(1, 11))
def test_named_families_match_filter_oracle(n):
    arcs = all_arcs(n)
    for spec in family_specs(n):
        keep = oracle_keep(spec)
        assert parse_congruence_spec(spec, n).arcs == {alpha for alpha in arcs if keep(alpha)}, spec


# the length-2 arcs bending right; contracting them leaves the left arcs
RIGHT_BENDS_40 = [make_arc(40, a, a + 2, {a + 1}) for a in range(1, 39)]


@pytest.mark.parametrize(
    "build, size",
    [
        (lambda: parse_congruence_spec("tamari", 200).arcs, 19_900),
        (lambda: parse_congruence_spec("cambrian:" + "LR" * 100, 200).arcs, 19_900),
        (lambda: parse_congruence_spec("baxter", 60).arcs, 59**2),
        (lambda: parse_congruence_spec("clumped:1", 40).arcs, 19_799),
        (lambda: parse_congruence_spec("maxlen:3", 200).arcs, 199 + 2 * 198),
        (lambda: congruence_from_contracted(40, RIGHT_BENDS_40).arcs, 780),
        (lambda: minimal_contracted_generators(40, named_congruence(40, "tamari")), 38),
    ],
    ids=["tamari", "alternating", "baxter", "clumped1", "maxlen3", "contracted", "minimal"],
)
def test_cambrian_sets_are_generated_not_filtered(build, size, monkeypatch):
    # rule sets and closures grow from the unit arcs, never listing all 2^n - n - 1
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "arcdiag" and hasattr(module, "all_arcs"):
            monkeypatch.setattr(module, "all_arcs", lambda n: pytest.fail("all_arcs called"))
    assert len(build()) == size


def test_contracted_right_bends_give_the_left_arcs():
    u = congruence_from_contracted(40, RIGHT_BENDS_40)
    assert u == named_congruence(40, "tamari")
    assert minimal_contracted_generators(40, u) == tuple(RIGHT_BENDS_40)


def test_contraction_rejects_generators_on_other_sizes():
    with pytest.raises(ValueError, match="does not live on 4 points"):
        congruence_from_contracted(4, [make_arc(5, 1, 3, {2})])


def test_named_congruence_rejects_bad_args():
    with pytest.raises(ValueError):
        named_congruence(4, "cambrian")
    with pytest.raises(ValueError):
        named_congruence(4, "cambrian", orientation="LR")
    with pytest.raises(ValueError):
        named_congruence(4, "maxlen", k=0)
    with pytest.raises(ValueError):
        named_congruence(4, "nope")


def test_project_down_worked_example():
    from arcdiag import Permutation

    u = named_congruence(3, "tamari")
    assert str(project_down(Permutation((3, 1, 2)), u)) == "132"
    assert str(project_down(Permutation((3, 2, 1)), u)) == "321"


def join_projection(x, irreducibles):
    """The bottom of x's class as the join of the uncontracted join-irreducibles below x.

    `irreducibles` pairs the join-irreducible of each uncontracted arc
    with its inversion set.
    """
    inv = inversions(x).pairs
    return join([ji for ji, pairs in irreducibles if pairs <= inv], n=x.n)


@pytest.mark.parametrize("n", range(2, 7))
def test_projections_match_join_oracle(n):
    alternating = "".join("LR"[i % 2] for i in range(n))
    congruences = [
        named_congruence(n, "tamari"),
        named_congruence(n, "baxter"),
        named_congruence(n, "clumped", k=1),
        named_congruence(n, "maxlen", k=3),
        named_congruence(n, "cambrian", orientation=alternating),
    ] + [u for _, u in random_congruences(n, 5, seed=6000 + n)]
    for u in congruences:
        irreducibles = [(ji, inversions(ji).pairs) for ji in map(ji_from_arc, u.sorted_arcs())]
        classes = {}
        for x in all_permutations(n):
            bottom = join_projection(x, irreducibles)
            assert project_down(x, u) == bottom
            classes.setdefault(bottom, []).append(x)
        for members in classes.values():
            # a class is an interval, so its top has the most inversions
            top = max(members, key=lambda x: len(inversions(x).pairs))
            assert all(project_up(x, u) == top for x in members)


def scanned_label(x, pos, i):
    """Oracle: the arc of the cover swapping positions i and i+1, given `pos = positions(x)`.

    Its right side holds the values between the two entries that sit after
    position i + 1, found by scanning their positions.
    """
    e = x.entries
    a, b = sorted(e[i - 1 : i + 1])
    return Arc(x.n, a, b, sum(1 << (v - a - 1) for v in range(a + 1, b) if pos[v - 1] > i + 1))


def assert_descent_arcs_match_scan(x):
    e, pos = x.entries, positions(x)
    scanned = {scanned_label(x, pos, i) for i in range(1, x.n) if e[i - 1] > e[i]}
    assert diagram_from_permutation(x).arcs == scanned, x
    assert canonical_joinands(x) == {ji_from_arc(alpha) for alpha in scanned}, x


@pytest.mark.parametrize("n", range(1, 8))
def test_descent_arcs_match_position_scan(n):
    for x in all_permutations(n):
        assert_descent_arcs_match_scan(x)


@pytest.mark.parametrize("seed", [14001, 14002, 14003])
def test_descent_arcs_match_position_scan_n200(seed):
    entries = list(range(1, 201))
    random.Random(seed).shuffle(entries)
    assert_descent_arcs_match_scan(Permutation(tuple(entries)))


def rescanning_walk(x, u, down):
    """Oracle: swap the first descent (ascent) with a contracted label, then rescan from position 1."""
    while True:
        e, pos = x.entries, positions(x)
        for i in range(1, x.n):
            if (e[i - 1] > e[i]) == down and scanned_label(x, pos, i) not in u.arcs:
                x = Permutation(e[: i - 1] + (e[i], e[i - 1]) + e[i + 1 :])
                break
        else:
            return x


def assert_walks_match_oracle(xs, u):
    for x in xs:
        assert project_down(x, u) == rescanning_walk(x, u, down=True), (x, u)
        assert project_up(x, u) == rescanning_walk(x, u, down=False), (x, u)


def walk_specs(n):
    yield from ("tamari", "baxter", "clumped:1", "maxlen:2", "maxlen:3")
    yield "cambrian:" + ("LR" * n)[:n]


@pytest.mark.parametrize("n", range(1, 8))
def test_walk_matches_rescanning_oracle(n):
    everything = list(all_permutations(n))
    for spec in walk_specs(n):
        assert_walks_match_oracle(everything, parse_congruence_spec(spec, n))
    if n > 1:
        for _, u in random_congruences(n, 3 if n == 7 else 6, seed=7000 + n):
            assert_walks_match_oracle(everything, u)


@pytest.mark.parametrize("spec", ["tamari", "baxter", "cambrian"])
def test_walk_matches_rescanning_oracle_n100(spec):
    n = 100
    if spec == "cambrian":
        spec += ":" + "LLR" * 33 + "L"
    rng = random.Random(8100)
    entries = list(range(1, n + 1))
    rng.shuffle(entries)
    u = parse_congruence_spec(spec, n)
    assert_walks_match_oracle([Permutation(tuple(entries))], u)


@pytest.mark.parametrize("n", [1, 2, 5, 12])
def test_walk_matches_rescanning_oracle_at_the_extremes(n):
    extremes = [Permutation(tuple(range(1, n + 1))), Permutation(tuple(range(n, 0, -1)))]
    for u in [full_arc_set(n), *(parse_congruence_spec(spec, n) for spec in walk_specs(n))]:
        assert_walks_match_oracle(extremes, u)


@pytest.mark.parametrize("n", range(3, 8))
@pytest.mark.parametrize("spec", ["tamari", "baxter", "clumped:1"])
def test_weak_export_matches_rescanning_walk(n, spec, monkeypatch):
    u = parse_congruence_spec(spec, n)
    fast = export_dot("weak", n, u)
    # the export walks words, so the oracle takes and gives them
    monkeypatch.setattr(arcdiag.render, "_cover_bottoms", lambda y, keep: [
        rescanning_walk(x, u, down=True).entries for x in lower_covers(Permutation(y))])
    assert export_dot("weak", n, u) == fast


def descent_covers(y):
    """y's lower covers in S_n, one per descent, left to right."""
    e = y.entries
    return [Permutation(e[:i] + (e[i + 1], e[i]) + e[i + 2:]) for i in range(y.n - 1) if e[i] > e[i + 1]]


@pytest.mark.parametrize("n", range(1, 8))
def test_cover_bottoms_match_projected_covers(n):
    specs = ["tamari", "baxter", "clumped:1", "cambrian:" + ("LR" * n)[:n]]
    for u in [parse_congruence_spec(spec, n) for spec in specs] + list(seeded_contract_sets(n, 2, seed=19200 + n)):
        for y in uncontracted_permutations(n, u):
            got = list(_cover_bottoms(y.entries, u._keys.__contains__))
            assert got == [project_down(x, u).entries for x in descent_covers(y)], (str(u), y)
            assert set(got) == {project_down(x, u).entries for x in lower_covers(y)}


def seeded_orientations(n, count, seed):
    rng = random.Random(seed)
    return ["".join(rng.choice("LR") for _ in range(n)) for _ in range(count)]


@pytest.mark.parametrize("n", range(1, 9))
def test_named_rules_hold_on_their_sets(n):
    specs = ["tamari", "baxter", "clumped:1", "clumped:2", "maxlen:1", "maxlen:3"]
    specs += [f"cambrian:{o}" for o in seeded_orientations(n, 3, seed=17000 + n)]
    keys = [(alpha.a, alpha.b, alpha.mask) for alpha in all_arcs(n)]
    for spec in specs:
        rule, members = _spec_rule(spec, n), parse_congruence_spec(spec, n)._keys
        assert [key for key in keys if rule(key) != (key in members)] == [], spec


def seeded_permutations(n, count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        entries = list(range(1, n + 1))
        rng.shuffle(entries)
        yield Permutation(tuple(entries))


@pytest.mark.parametrize(
    "n, spec, count",
    [(200, "tamari", 20), (200, "baxter", 20), (200, "cambrian:" + "LR" * 100, 20),
     (12, "clumped:1", 200), (12, "clumped:2", 200), (12, "maxlen:3", 200)],
    ids=lambda v: v[:12] if isinstance(v, str) else str(v),
)
def test_rule_walk_matches_set_walk(n, spec, count):
    rule, u = _spec_rule(spec, n), parse_congruence_spec(spec, n)
    for x in seeded_permutations(n, count, seed=17100 + n):
        assert _walk(x, rule, down=True) == project_down(x, u), (spec, x)
        assert _walk(x, rule, down=False) == project_up(x, u), (spec, x)


def search_tree(values):
    """Oracle with no arcs: the binary search tree built by inserting `values` in order.

    Returns the parent of each value (0 for the root) and, per t, whether
    inserting values[t + 1] before values[t] builds another tree.  Inserting
    never moves a placed node, so the trees differ exactly when the trees
    after those two insertions do, that is, when a new node hangs elsewhere.
    """
    placed, when, parent, swapped = [], {}, {}, []

    def hang(v, newest=None):
        # a new leaf hangs from the later-inserted of its two neighbours in value order
        j = bisect.bisect(placed, v)
        if newest is not None and bisect.bisect(placed, newest) == j:
            return newest
        return max(placed[max(j - 1, 0) : j + 1], key=when.__getitem__, default=0)

    for t, v in enumerate(values):
        if t + 1 < len(values):
            w = values[t + 1]
            swapped.append((hang(v), hang(w, v)) != (hang(v, w), hang(w)))
        parent[v] = hang(v)
        when[v] = t
        bisect.insort(placed, v)
    return tuple(parent[v] for v in sorted(parent)), swapped


@pytest.mark.parametrize("n", range(1, 7))
def test_search_tree_swaps_match_rebuilt_trees(n):
    for values in itertools.permutations(range(1, n + 1)):
        tree, swapped = search_tree(values)
        rebuilt = [search_tree(values[:t] + (values[t + 1], values[t]) + values[t + 2 :])[0]
                   for t in range(n - 1)]
        assert swapped == [other != tree for other in rebuilt], values


def tree_keys(e):
    """Per spec, the tree key of the word e and per descent i of e whether swapping it changes the key.

    Tamari (sylvester) classes are the fibres of the tree of e read right
    to left, the classes of ``cambrian:L...L`` those of e read left to
    right, and Baxter classes those of the pair (Hivert-Novelli-Thibon;
    Law-Reading).
    """
    n = len(e)
    (back, back_swapped), (forth, forth_swapped) = search_tree(e[::-1]), search_tree(e)
    # descent i swaps e[i - 1] and e[i]: time n - 1 - i read backwards, i - 1 read forwards
    back_changes = {i: back_swapped[n - 1 - i] for i in range(1, n)}
    forth_changes = {i: forth_swapped[i - 1] for i in range(1, n)}
    return {
        "tamari": (back, back_changes),
        "cambrian:" + "L" * n: (forth, forth_changes),
        "baxter": ((back, forth), {i: back_changes[i] or forth_changes[i] for i in range(1, n)}),
    }


@pytest.mark.parametrize("n", [200, 1000])
def test_rule_walk_reaches_search_tree_bottoms(n):
    # a class is an interval, so y is the bottom of the class of x exactly when
    # it has the key of x and no descent swap keeps the key
    for x in seeded_permutations(n, 3, seed=17200 + n):
        x_keys = tree_keys(x.entries)
        for spec, (key, _) in x_keys.items():
            y = _walk(x, _spec_rule(spec, n), down=True).entries
            y_key, changes = tree_keys(y)[spec]
            assert y_key == key, spec
            assert all(changes[i] for i in range(1, n) if y[i - 1] > y[i]), spec


@pytest.mark.parametrize("n", range(2, 6))
def test_project_down_properties(n):
    elems = list(all_permutations(n))
    pairs_of = {x: frozenset(inversions(x).pairs) for x in elems}
    for _, u in random_congruences(n, 10, seed=4000 + n):
        bottoms = set(uncontracted_permutations(n, u))
        down = {x: project_down(x, u) for x in elems}
        assert set(down.values()) == bottoms
        for x in elems:
            assert pairs_of[down[x]] <= pairs_of[x]
            assert down[down[x]] == down[x]
        for x in elems:
            for y in elems:
                if pairs_of[x] <= pairs_of[y]:
                    assert pairs_of[down[x]] <= pairs_of[down[y]]


def test_project_down_tamari_n6(delta_image):
    u = named_congruence(6, "tamari")
    image = delta_image(6)
    bottoms = {x for x, d in image.items() if all(alpha in u.arcs for alpha in d.arcs)}
    assert len(bottoms) == catalan(6)
    fixed = {x for x in image if project_down(x, u) == x}
    assert fixed == bottoms


@pytest.mark.parametrize("n", range(2, 5))
def test_fibers_are_intervals_with_monotone_extremes(n):
    # the equivalence x ~ y iff both project to the same bottom must have
    # interval classes whose top map is monotone as well
    elems = list(all_permutations(n))
    pairs_of = {x: frozenset(inversions(x).pairs) for x in elems}
    for _, u in random_congruences(n, 12, seed=5000 + n):
        classes = {}
        for x in elems:
            classes.setdefault(project_down(x, u), []).append(x)
        tops = {}
        for bottom, members in classes.items():
            top = max(members, key=lambda x: len(pairs_of[x]))
            assert all(pairs_of[bottom] <= pairs_of[x] <= pairs_of[top] for x in members)
            interval = [x for x in elems if pairs_of[bottom] <= pairs_of[x] <= pairs_of[top]]
            assert sorted(interval, key=str) == sorted(members, key=str)
            for x in members:
                tops[x] = top
        for x in elems:
            for y in elems:
                if pairs_of[x] <= pairs_of[y]:
                    assert pairs_of[tops[x]] <= pairs_of[tops[y]]


@pytest.mark.parametrize("n", [4, 5, 7])
def test_cambrian_counts_are_narayana(n):
    row = tuple(narayana(n, k) for k in range(1, n + 1))
    for bits in range(2**n):
        orientation = "".join("LR"[bits >> i & 1] for i in range(n))
        u = named_congruence(n, "cambrian", orientation=orientation)
        assert count_by_arcs(n, u).counts == row


def test_complex_faces_tamari_n3():
    u = named_congruence(3, "tamari")
    faces = list(complex_faces(3, u))
    assert len(faces) == catalan(3)
    assert frozenset() in faces
    bodies = {";".join(sorted(str(a) for a in f)) for f in faces}
    assert bodies == {"", "1-2", "2-3", "1-3:L", "1-2;2-3"}


@pytest.mark.parametrize("n", range(1, 6))
def test_complex_face_counts(n):
    assert sum(1 for _ in complex_faces(n, full_arc_set(n))) == len(list(all_permutations(n)))
    assert sum(1 for _ in complex_faces(n, named_congruence(n, "tamari"))) == catalan(n)


PRECONDITION_ENTRY_POINTS = {
    "uncontracted_permutations": lambda n, u: list(uncontracted_permutations(n, u)),
    "uncontracted_by_avoidance": lambda n, u: list(uncontracted_by_avoidance(n, u)),
    "project_down": lambda n, u: project_down(Permutation(tuple(range(n, 0, -1))), u),
    "project_up": lambda n, u: project_up(Permutation(tuple(range(1, n + 1))), u),
    "complex_faces": lambda n, u: list(complex_faces(n, u)),
    "count_by_arcs": count_by_arcs,
    "minimal_contracted_generators": minimal_contracted_generators,
}


@pytest.mark.parametrize("entry", sorted(PRECONDITION_ENTRY_POINTS))
def test_congruence_preconditions(entry):
    call = PRECONDITION_ENTRY_POINTS[entry]
    with pytest.raises(ValueError, match="points, not"):
        call(4, named_congruence(3, "tamari"))
    u = named_congruence(4, "tamari")
    broken = ArcSet(4, u.arcs - {make_arc(4, 1, 2, frozenset())})
    with pytest.raises(ValueError, match="not closed"):
        call(4, broken)


def test_complex_rejects_unclosed_sets():
    u = named_congruence(4, "tamari")
    broken = ArcSet(4, u.arcs - {make_arc(4, 1, 2, frozenset())})
    with pytest.raises(ValueError):
        list(complex_faces(4, broken))
