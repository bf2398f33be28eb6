import itertools
import json
import math
import random
from pathlib import Path

import pytest

from arcdiag import (
    Arc,
    ArcSet,
    all_arcs,
    all_permutations,
    baxter_number,
    catalan,
    compatible,
    congruence_from_contracted,
    count_by_arcs,
    descents,
    enumerate_diagrams,
    eulerian,
    full_arc_set,
    inflections,
    make_arc,
    named_congruence,
    narayana,
    prodmin,
    uncontracted_by_avoidance,
    verify_report,
)
from arcdiag import Permutation, counting, diagrams
from arcdiag.counting import ALTERNATING_EVEN, _diagram_key
from arcdiag.diagrams import _compat_graph, count_diagrams
from arcdiag.textforms import parse_congruence_spec


def test_catalan_values():
    assert [catalan(n) for n in range(9)] == [1, 1, 2, 5, 14, 42, 132, 429, 1430]


def test_narayana_rows_sum_to_catalan():
    for n in range(1, 10):
        row = [narayana(n, k) for k in range(1, n + 1)]
        assert sum(row) == catalan(n)
        assert row == row[::-1]
    assert narayana(4, 2) == 6


@pytest.mark.parametrize("n", range(1, 8))
def test_eulerian_matches_descent_tallies(n):
    tally = [0] * n
    for x in all_permutations(n):
        tally[len(descents(x))] += 1
    assert tally == [eulerian(n, k) for k in range(n)]
    assert sum(tally) == math.factorial(n)


def test_baxter_values():
    assert [baxter_number(n) for n in range(1, 9)] == [1, 2, 6, 22, 92, 422, 2074, 10754]


def test_prodmin():
    assert prodmin(5, 3) == 54
    assert prodmin(4, 1) == 1
    for n in range(1, 9):
        assert prodmin(n, n) == math.factorial(n)


def test_alternating_constants_match_brute_force():
    for two_n, expected in ALTERNATING_EVEN.items():
        count = 0
        for x in all_permutations(two_n):
            e = x.entries
            if all(e[i] > e[i + 1] if i % 2 == 0 else e[i] < e[i + 1] for i in range(two_n - 1)):
                count += 1
        assert count == expected


# clumped:1 totals for n = 1..13, the generic-rectangulation counts the
# paper ties to that quotient; the program's output, cross-checked below
# (n = 13 also by the clique count before its suffix stop, and by the
# point sweep of ROADMAP item 5)
GENERIC_RECTANGULATIONS = (
    1, 2, 6, 24, 116, 642, 3938, 26194, 186042, 1395008, 10948768, 89346128,
    754062288,
)
BRUTEFORCE_N9 = Path(__file__).parents[1] / "perfbench" / "bruteforce_n9.json"


def test_generic_rectangulation_totals():
    totals = tuple(
        count_by_arcs(n, named_congruence(n, "clumped", k=1)).total
        for n in range(1, len(GENERIC_RECTANGULATIONS) + 1)
    )
    assert totals == GENERIC_RECTANGULATIONS
    for n in range(1, 8):
        avoiding = uncontracted_by_avoidance(n, named_congruence(n, "clumped", k=1))
        assert sum(1 for _ in avoiding) == GENERIC_RECTANGULATIONS[n - 1]
    # the table of the stdlib brute-force oracle, which imports nothing from arcdiag
    oracle = json.loads(BRUTEFORCE_N9.read_text())
    assert oracle["n"] == 9
    assert count_by_arcs(9, named_congruence(9, "clumped", k=1)).counts == tuple(
        oracle["rows"]["clumped:1"]
    )
    assert sum(oracle["rows"]["clumped:1"]) == GENERIC_RECTANGULATIONS[8]


def test_count_by_arcs_tamari():
    table = count_by_arcs(4, named_congruence(4, "tamari"))
    assert table.counts == (1, 6, 6, 1)
    assert table.total == catalan(4)


def test_counting_one_set_again_evaluates_the_forcing_rule_once(forcing_evaluations):
    # the set caches its canonical order and clash masks, so a second count reuses them
    u = named_congruence(7, "baxter")
    first, second = count_by_arcs(7, u), count_by_arcs(7, u)
    assert first == second and first.total == baxter_number(7)
    assert sum(1 for _ in enumerate_diagrams(7, u)) == first.total
    assert forcing_evaluations == [u]


def test_count_by_arcs_rejects_unclosed():
    u = named_congruence(4, "tamari")
    broken = ArcSet(4, u.arcs - {make_arc(4, 1, 2, frozenset())})
    with pytest.raises(ValueError):
        count_by_arcs(4, broken)
    with pytest.raises(ValueError):
        count_by_arcs(5, u)


def test_verify_report_passes_small():
    report = verify_report(4)
    assert report.passed
    assert report.failures() == ()
    names = {r.name for r in report.results}
    assert "diagram-count" in names and "zero-inflection-total" in names
    assert all(r.n <= 4 for r in report.results)


def test_verify_report_rejects_silly_bounds():
    with pytest.raises(ValueError):
        verify_report(0)
    with pytest.raises(ValueError):
        verify_report(9)


def test_verify_report_text_and_json():
    report = verify_report(3)
    text = report.to_text()
    assert "all checks passed" in text
    assert "n=3 diagram-count" in text
    doc = json.loads(report.to_json())
    assert doc["passed"] is True
    assert doc["n_max"] == 3
    assert all({"name", "n", "expected", "observed", "passed"} <= set(r) for r in doc["checks"])


def test_diagram_keys_are_exact():
    for n in range(1, 7):
        listed = list(enumerate_diagrams(n))
        assert len({_diagram_key(d) for d in listed}) == len(listed)


def test_verify_report_sees_a_map_that_is_not_one_to_one(monkeypatch):
    # two permutations sent to one diagram: the key row, the round trip and
    # the perfect-matching tally each fail, and every other row still runs
    real = counting.diagram_from_permutation
    twin = Permutation((2, 1, 4, 3))

    def collapsing(x):
        return real(twin if x == Permutation((4, 3, 2, 1)) else x)

    monkeypatch.setattr(counting, "diagram_from_permutation", collapsing)
    failed = {(r.name, r.n): r.observed for r in verify_report(4).failures()}
    assert failed == {
        ("distinct-diagrams", 4): 23,
        ("round-trip-mismatches", 4): 1,
        ("matching-vs-consecutive-321", 4): 1,
        ("perfect-matching-count", 4): 6,
    }


def test_inflections_drive_zero_inflection_count():
    u = full_arc_set(4)
    zero = [alpha for alpha in u.arcs if inflections(alpha) == 0]
    assert frozenset(zero) == named_congruence(4, "baxter").arcs


def listed_row(n, arcset):
    """The oracle: list every diagram inside arcset and tally arc counts."""
    row = [0] * n
    for diagram in enumerate_diagrams(n, arcset):
        row[len(diagram.arcs)] += 1
    return tuple(row)


def summed(n, arcset):
    """The oracle: the clique count summed over every arc of each allowed set.

    F(S) = 1 + x * (the sum of F(S & later[i]) over every i in S), memoized
    on S and packed as in `count_diagrams`; returns the row by arc count
    and the sets the memo holds.
    """
    arcs, later = _compat_graph(n, arcset)
    width = math.factorial(n).bit_length()
    memo = {}

    def cliques(allowed):
        got = memo.get(allowed)
        if got is None:
            below = 0
            m = allowed
            while m:
                low = m & -m
                m ^= low
                below += cliques(allowed & later[low.bit_length() - 1])
            got = memo[allowed] = 1 + (below << width)
        return got

    packed = cliques((1 << len(arcs)) - 1)
    return tuple(packed >> (k * width) & (1 << width) - 1 for k in range(n)), set(memo)


def memo_states(monkeypatch, n, arcset):
    """The sets `count_diagrams` memoizes while counting `arcset`."""
    memos = []
    real = diagrams._count_cliques

    def spy(allowed, later, width, memo):
        memos.append(memo)
        return real(allowed, later, width, memo)

    monkeypatch.setattr(diagrams, "_count_cliques", spy)
    count_diagrams(n, arcset)
    monkeypatch.undo()
    return set(memos[0])


def named_specs(n, rng):
    """Every named family on n points: each bound, and the alternating and three seeded orientations."""
    specs = ["tamari", "baxter"]
    specs += [f"clumped:{k}" for k in range(n)] + [f"maxlen:{k}" for k in range(1, n + 1)]
    orientations = {"LR" * n, "RL" * n} | {"".join(rng.choice("LR") for _ in range(n)) for _ in range(3)}
    return specs + [f"cambrian:{o[:n]}" for o in sorted(orientations)]


@pytest.mark.parametrize("n", range(1, 11))
def test_count_matches_summed_oracle_named_specs(n):
    rng = random.Random(2000 + n)
    for spec in named_specs(n, rng):
        u = parse_congruence_spec(spec, n)
        assert count_by_arcs(n, u).counts == summed(n, u)[0], spec
    assert count_by_arcs(n, full_arc_set(n)).counts == summed(n, None)[0]


@pytest.mark.parametrize("n", range(2, 10))
def test_count_matches_summed_oracle_random_congruences(n):
    rng = random.Random(3000 + n)
    arcs = all_arcs(n)
    for _ in range(6):
        u = congruence_from_contracted(n, rng.sample(arcs, rng.randint(1, min(5, len(arcs)))))
        assert count_by_arcs(n, u).counts == summed(n, u)[0], u


@pytest.mark.parametrize("n", range(2, 9))
def test_count_matches_summed_oracle_unclosed_subsets(n):
    # count_diagrams takes any arc set; count_by_arcs alone asks for closure
    rng = random.Random(4000 + n)
    arcs = all_arcs(n)
    for density in (0.2, 0.5, 0.8):
        subset = ArcSet(n, frozenset(alpha for alpha in arcs if rng.random() < density))
        assert count_diagrams(n, subset) == summed(n, subset)[0], subset


@pytest.mark.parametrize("n,spec", [(9, "full"), (9, "tamari"), (9, "baxter"), (9, "cambrian:LRLRLRLRL"),
                                    (9, "clumped:1"), (9, "clumped:2"), (9, "maxlen:3"), (9, "maxlen:4"),
                                    (10, "tamari"), (10, "baxter"), (10, "cambrian:RLRLRLRLRL"), (10, "maxlen:4")])
def test_suffix_stop_memoizes_the_summed_states(monkeypatch, n, spec):
    # stopping at a memoized suffix skips terms, never states, so memory stays as it was
    u = full_arc_set(n) if spec == "full" else parse_congruence_spec(spec, n)
    assert memo_states(monkeypatch, n, u) == summed(n, u)[1]


@pytest.mark.parametrize("n", range(1, 9))
def test_mask_graph_matches_pairwise_compatible(n):
    keys, later = _compat_graph(n, None)
    arcs = [Arc(n, *key) for key in keys]
    assert arcs == all_arcs(n)
    for i, j in itertools.product(range(len(arcs)), repeat=2):
        expected = i < j and compatible(arcs[i], arcs[j])
        assert bool(later[i] >> j & 1) == expected, (arcs[i], arcs[j])


@pytest.mark.parametrize("n", range(1, 9))
def test_count_matches_listing_full_set(n):
    u = full_arc_set(n)
    assert count_by_arcs(n, u).counts == listed_row(n, u)


FAMILIES = [
    ("tamari", {}),
    ("baxter", {}),
    ("cambrian", {"orientation": "LRRLRLLR"}),
    ("clumped", {"k": 0}),
    ("clumped", {"k": 1}),
    ("clumped", {"k": 2}),
    ("maxlen", {"k": 2}),
    ("maxlen", {"k": 3}),
    ("maxlen", {"k": 5}),
]


@pytest.mark.parametrize("n", [5, 8])
@pytest.mark.parametrize("name,kwargs", FAMILIES)
def test_count_matches_listing_named_families(n, name, kwargs):
    if "orientation" in kwargs:
        kwargs = {"orientation": kwargs["orientation"][:n]}
    u = named_congruence(n, name, **kwargs)
    assert count_by_arcs(n, u).counts == listed_row(n, u)


@pytest.mark.parametrize("n", [4, 6, 7, 8])
def test_count_matches_listing_random_congruences(n):
    rng = random.Random(1000 + n)
    arcs = all_arcs(n)
    for _ in range(4):
        u = congruence_from_contracted(n, rng.sample(arcs, rng.randint(1, 4)))
        assert count_by_arcs(n, u).counts == listed_row(n, u)


def test_counts_past_listing_sizes():
    assert count_by_arcs(10, full_arc_set(10)).counts == tuple(eulerian(10, k) for k in range(10))
    tamari = count_by_arcs(12, named_congruence(12, "tamari"))
    assert tamari.counts == tuple(narayana(12, k) for k in range(1, 13))
    assert tamari.total == catalan(12) == 208012
    assert count_by_arcs(11, named_congruence(11, "baxter")).total == baxter_number(11) == 1882960


def test_counting_a_given_set_builds_no_other_arcs(monkeypatch):
    u = named_congruence(6, "tamari")
    monkeypatch.setattr("arcdiag.diagrams.full_arc_set", lambda n: pytest.fail("all arcs rebuilt"))
    assert count_by_arcs(6, u).total == catalan(6)
    assert sum(1 for _ in enumerate_diagrams(6, u)) == catalan(6)
