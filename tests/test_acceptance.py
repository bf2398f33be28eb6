"""End-to-end acceptance checks for the headline counts and worked examples.

Each test covers one numbered claim, prints a single PASS/FAIL line with
the observed numbers (run pytest with -s to watch them), and fails loudly
on any mismatch.  Everything here goes through the public API; expected
values are either closed-form formulas evaluated exactly or brute-force
recounts done inline, never copied from the code under test.
"""
import functools
import io
import itertools
import math
import random

from arcdiag import (
    ArcSet,
    all_arcs,
    all_permutations,
    baxter_number,
    catalan,
    classify_diagram,
    compatible,
    congruence_from_contracted,
    count_by_arcs,
    descents,
    diagram_from_permutation,
    enumerate_diagrams,
    eulerian,
    inversions,
    is_subarc,
    ji_from_arc,
    join,
    named_congruence,
    narayana,
    permutation_from_diagram,
    prodmin,
    project_down,
    uncontracted_by_avoidance,
    uncontracted_permutations,
)
from arcdiag.cli import dispatch

BAXTER = [1, 2, 6, 22, 92, 422, 2074, 10754]
ZIGZAG_EVEN = {2: 1, 4: 5, 6: 61, 8: 1385}


@functools.lru_cache(maxsize=None)
def image(n):
    return {x: diagram_from_permutation(x) for x in all_permutations(n)}


@functools.lru_cache(maxsize=None)
def enumerated(n):
    return tuple(enumerate_diagrams(n))


def report(num, ok, detail):
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def test_01_diagram_count_matches_factorial():
    totals = []
    for n in range(1, 9):
        distinct = set(image(n).values())
        listed = enumerated(n)
        assert len(listed) == len(set(listed))
        assert set(listed) == distinct
        totals.append(len(listed))
    ok = totals == [math.factorial(n) for n in range(1, 9)]
    assert report(1, ok, f"diagram counts n=1..8 are {totals}")


def test_02_round_trips():
    flat = 0
    for n in range(1, 9):
        for x, d in image(n).items():
            assert permutation_from_diagram(d) == x
            flat += 1
    back = 0
    for n in range(1, 8):
        for d in enumerated(n):
            assert diagram_from_permutation(permutation_from_diagram(d)) == d
            back += 1
    assert report(2, True, f"{flat} permutations and {back} diagrams round trip")


def test_03_arc_count_histogram_is_eulerian():
    for n in range(1, 9):
        row = [eulerian(n, k) for k in range(n)]
        hist = [0] * n
        for d in enumerated(n):
            hist[len(d.arcs)] += 1
        assert hist == row, f"n={n}: {hist} != {row}"
    by_descents = [0] * 8
    for x in image(8):
        by_descents[len(descents(x))] += 1
    ok = by_descents == [eulerian(8, k) for k in range(8)]
    assert report(3, ok, f"n=8 histogram {by_descents}")


def test_04_left_arc_diagrams_are_catalan_narayana():
    totals = []
    for n in range(1, 9):
        table = count_by_arcs(n, named_congruence(n, "tamari"))
        assert table.total == catalan(n)
        assert list(table.counts) == [narayana(n, k + 1) for k in range(n)]
        totals.append(table.total)
    ok = totals == [1, 2, 5, 14, 42, 132, 429, 1430]
    assert report(4, ok, f"left-arc totals {totals}")


def test_05_one_sided_totals_are_baxter():
    totals = []
    for n in range(1, 9):
        table = count_by_arcs(n, named_congruence(n, "baxter"))
        assert table.total == baxter_number(n)
        totals.append(table.total)
    ok = totals == BAXTER
    assert report(5, ok, f"zero-inflection totals {totals}")


def _has_consecutive_descents(x):
    w = x.entries
    return any(w[i] > w[i + 1] > w[i + 2] for i in range(len(w) - 2))


def test_06_matchings():
    for n in range(1, 9):
        for x, d in image(n).items():
            assert classify_diagram(d).is_matching == (not _has_consecutive_descents(x))

    perfect = {}
    for m in (2, 4, 6, 8):
        perfect[m] = sum(1 for d in enumerated(m) if classify_diagram(d).is_perfect_matching)
        zigzag = sum(
            1
            for x in image(m)
            if descents(x) == tuple(range(1, m, 2))
        )
        assert perfect[m] == zigzag == ZIGZAG_EVEN[m]

    left_perfect = []
    for m in (2, 4, 6, 8, 10):
        left_arcs = ArcSet(m, frozenset(alpha for alpha in all_arcs(m) if not alpha.right))
        count = sum(
            1
            for d in enumerate_diagrams(m, left_arcs)
            if classify_diagram(d).is_perfect_matching
        )
        assert count == catalan(m // 2)
        left_perfect.append(count)
    ok = left_perfect == [1, 2, 5, 14, 42]
    assert report(6, ok, f"perfect matchings {perfect}, left perfect {left_perfect}")


def test_07_bounded_length_quotients():
    checked = 0
    for n in range(1, 9):
        # tally the longest arc length per diagram, 0 for the empty one
        tally = [0] * n
        for d in enumerated(n):
            tally[max((alpha.b - alpha.a for alpha in d.arcs), default=0)] += 1
        for k in range(1, n + 1):
            running = sum(tally[:k])
            assert running == prodmin(n, k), f"n={n} k={k}: {running} != {prodmin(n, k)}"
            checked += 1
    assert report(7, True, f"{checked} (n, k) quotient sizes match the min-product formula")


def test_08_single_inflection_dual_routes():
    totals = []
    for n in range(1, 9):
        U = named_congruence(n, "clumped", k=1)
        via_delta = sum(1 for d in image(n).values() if d.arcs <= U.arcs)
        via_patterns = sum(1 for _ in uncontracted_by_avoidance(n, U))
        assert via_delta == via_patterns, f"n={n}: {via_delta} != {via_patterns}"
        assert via_delta == sum(1 for _ in enumerate_diagrams(n, U))
        totals.append(via_delta)
    assert report(8, True, f"single-inflection totals {totals} agree on both routes")


def test_09_pairwise_compatibility_implies_membership():
    # Subsets with an incompatible pair fail the premise outright, so the
    # exhaustive claim reduces to: the pairwise-compatible subsets (what
    # enumerate_diagrams walks) are exactly the diagrams of permutations.
    for n in range(1, 6):
        assert set(enumerated(n)) == set(image(n).values())
    for n in range(2, 5):
        arcs = all_arcs(n)
        valid = {d.arcs for d in image(n).values()}
        for r in range(len(arcs) + 1):
            for subset in itertools.combinations(arcs, r):
                premise = all(compatible(a, b) for a, b in itertools.combinations(subset, 2))
                assert premise == (frozenset(subset) in valid)
    assert set(enumerated(6)) == set(image(6).values())
    rng = random.Random(961)
    arcs6 = all_arcs(6)
    valid6 = {d.arcs for d in image(6).values()}
    samples = 20000
    hits = 0
    for _ in range(samples):
        subset = rng.sample(arcs6, rng.randint(2, 6))
        premise = all(compatible(a, b) for a, b in itertools.combinations(subset, 2))
        assert premise == (frozenset(subset) in valid6)
        hits += premise
    assert report(9, True, f"exhaustive n<=5, {samples} sampled subsets at n=6 ({hits} compatible)")


def _random_generator_sets(n, count, seed):
    rng = random.Random(seed)
    pool = all_arcs(n)
    for _ in range(count):
        yield rng.sample(pool, rng.randint(0, min(4, len(pool))))


def test_10_random_congruence_dual_routes():
    checked = 0
    for n in range(1, 7):
        for gens in _random_generator_sets(n, 100, seed=100 + n):
            U = congruence_from_contracted(n, gens)
            via_delta = list(uncontracted_permutations(n, U))
            via_patterns = list(uncontracted_by_avoidance(n, U))
            assert via_delta == via_patterns, f"n={n} gens={sorted(map(str, gens))}"
            checked += 1
    assert report(10, True, f"{checked} random congruences agree on both routes")


def test_11_congruence_class_structure():
    checked = 0
    for n in range(2, 6):
        cases = [(named_congruence(n, "tamari"), None)]
        for gens in _random_generator_sets(n, 25 if n < 5 else 12, seed=110 + n):
            cases.append((congruence_from_contracted(n, gens), gens))
        for U, gens in cases:
            perms = list(all_permutations(n))
            pairs = {x: inversions(x).pairs for x in perms}
            proj = {x: project_down(x, U) for x in perms}
            classes = {}
            for x in perms:
                classes.setdefault(proj[x], []).append(x)
            tops = {bottom: join(members, n=n) for bottom, members in classes.items()}
            for bottom, members in classes.items():
                interval = {
                    y
                    for y in perms
                    if pairs[bottom] <= pairs[y] <= pairs[tops[bottom]]
                }
                assert set(members) == interval, f"class of {bottom} is not an interval"
            for x, y in itertools.combinations(perms, 2):
                lo, hi = (x, y) if pairs[x] <= pairs[y] else (y, x)
                if pairs[lo] <= pairs[hi]:
                    assert pairs[proj[lo]] <= pairs[proj[hi]]
                    assert pairs[tops[proj[lo]]] <= pairs[tops[proj[hi]]]
            contracted = {
                alpha for alpha in all_arcs(n) if proj[ji_from_arc(alpha)] != ji_from_arc(alpha)
            }
            assert contracted == set(all_arcs(n)) - U.arcs
            if gens is not None:
                closure = {
                    alpha for alpha in all_arcs(n) if any(is_subarc(g, alpha) for g in gens)
                }
                assert contracted == closure
            checked += 1
    assert report(11, True, f"{checked} congruences: interval classes, monotone maps, exact closures")


def test_12_cambrian_rows_are_narayana():
    checked = 0
    for n in range(1, 7):
        row = [narayana(n, k + 1) for k in range(n)]
        for bits in itertools.product("LR", repeat=n):
            table = count_by_arcs(n, named_congruence(n, "cambrian", orientation="".join(bits)))
            assert list(table.counts) == row, f"orientation {''.join(bits)}"
            checked += 1
    assert report(12, True, f"{checked} orientations all give Narayana rows")


def test_13_worked_examples(capsys, monkeypatch):
    assert dispatch(["delta", "157842936"]) == 0
    delta_out = capsys.readouterr().out
    assert delta_out == "n=9\n2-4:R;3-9:LLRLL;4-8:LRL\n"

    monkeypatch.setattr("sys.stdin", io.StringIO("n=8\n1-3:R;2-5:LL;3-7:LRL\n"))
    assert dispatch(["inverse"]) == 0
    assert capsys.readouterr().out == "46731528\n"

    quotient = {str(x) for x in uncontracted_permutations(3, named_congruence(3, "tamari"))}
    ok = quotient == {"123", "213", "231", "132", "321"}
    with capsys.disabled():
        report(13, ok, f"delta/inverse examples exact, Tamari n=3 quotient {sorted(quotient)}")
    assert ok
