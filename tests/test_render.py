import itertools
import random
import re
from collections import Counter, defaultdict

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arcdiag import (
    Arc,
    Diagram,
    Permutation,
    all_permutations,
    arc_offsets,
    catalan,
    compatible,
    congruence_from_contracted,
    diagram_from_permutation,
    export_dot,
    forces_right_of,
    inversions,
    is_subarc,
    all_arcs,
    arc_key,
    make_arc,
    named_congruence,
    parse_diagram,
    project_down,
    project_up,
    render_ascii,
    render_svg,
    subarc_covers,
    uncontracted_permutations,
    upper_covers,
    validate_diagram,
)
from arcdiag.render import MARGIN, SPACING, UNIT

perms = lambda n: st.permutations(range(1, n + 1)).map(lambda e: Permutation(tuple(e)))

FIG_DIAGRAM = parse_diagram("n=8\n1-3:R;2-5:LL;3-7:LRL")

ASCII_GOLDEN = (
    "  8\n"
    "\n"
    "  7\n"
    "   \\\n"
    "  6 |\n"
    " /__\n"
    "| 5\n"
    " __\\_\\\n"
    "  4 | |\n"
    "   / /\n"
    "  3 |\n"
    " / /\n"
    "| 2\n"
    " \\\n"
    "  1"
)


def test_ascii_golden():
    assert render_ascii(FIG_DIAGRAM) == ASCII_GOLDEN


def test_ascii_empty_diagram():
    assert render_ascii(Diagram(3, frozenset())) == "3\n\n2\n\n1"


def test_ascii_single_unit_arc():
    d = Diagram(2, frozenset({make_arc(2, 1, 2, frozenset())}))
    assert render_ascii(d) == "2\n|\n1"


def test_ascii_markers_above_nine():
    rows = render_ascii(Diagram(11, frozenset())).split("\n")
    assert len(rows) == 21
    assert rows[0] == "o" and rows[-1] == "1" and rows[2] == "o"


def test_render_is_deterministic():
    again = parse_diagram("n=8\n1-3:R;2-5:LL;3-7:LRL")
    assert render_ascii(again) == render_ascii(FIG_DIAGRAM)
    assert render_svg(again) == render_svg(FIG_DIAGRAM)


def test_svg_empty_diagram_is_circles_only():
    svg = render_svg(Diagram(3, frozenset()))
    assert svg.count("<circle") == 3
    assert "<path" not in svg
    assert svg.startswith("<svg xmlns=")


def test_svg_counts_and_integer_coordinates():
    svg = render_svg(FIG_DIAGRAM)
    assert svg.count("<path") == 3
    assert svg.count("<circle") == 8
    for number in re.findall(r'[-+]?\d*\.?\d+(?=[ ,"])', svg):
        assert "." not in number


def _waypoints(svg):
    """Per path, the x coordinate at each integer height, from the d string."""
    out = []
    for d in re.findall(r'<path d="([^"]+)"', svg):
        tokens = d.replace(",", " ").split()
        xs = {int(tokens[2]): int(tokens[1])}
        i = 3
        while i < len(tokens):
            assert tokens[i] == "C"
            x, y = int(tokens[5 + i]), int(tokens[6 + i])
            xs[y] = x
            i += 7
        out.append(xs)
    return out


def test_svg_waypoints_match_layout():
    svg = render_svg(FIG_DIAGRAM)
    offsets = arc_offsets(FIG_DIAGRAM)
    arcs = FIG_DIAGRAM.sorted_arcs()
    lo = min(o for per in offsets.values() for o in per.values())
    cx = MARGIN - lo * UNIT
    for alpha, xs in zip(arcs, _waypoints(svg)):
        for h in range(alpha.a, alpha.b + 1):
            y = MARGIN + (FIG_DIAGRAM.n - h) * SPACING
            assert xs[y] == cx + UNIT * offsets[alpha][h]


def test_offset_signs_follow_sides():
    offsets = arc_offsets(FIG_DIAGRAM)
    for alpha, per in offsets.items():
        assert per[alpha.a] == 0 and per[alpha.b] == 0
        for p in alpha.interior:
            assert (per[p] > 0) == (p in alpha.left)
            assert (per[p] < 0) == (p in alpha.right)


def seeded_permutation(seed, n):
    entries = list(range(1, n + 1))
    random.Random(seed).shuffle(entries)
    return Permutation(tuple(entries))


@given(st.integers(2, 7).flatmap(perms))
@example(seeded_permutation(100, 100))
@example(seeded_permutation(150, 150))
@example(seeded_permutation(200, 200))
@settings(max_examples=250, deadline=None)
def test_forced_order_holds_at_every_shared_height(x):
    d = diagram_from_permutation(x)
    offsets = arc_offsets(d)
    for alpha, beta in itertools.combinations(d.arcs, 2):
        shared = alpha.interior & beta.interior
        if forces_right_of(alpha, beta) is not None:
            assert all(offsets[alpha][h] > offsets[beta][h] for h in shared)
        for h in shared:
            assert offsets[alpha][h] != offsets[beta][h]


@pytest.mark.parametrize("n", range(4, 7))
def test_render_refuses_incompatible_arcs_like_validation(n):
    rng = random.Random(8200 + n)
    arcs = all_arcs(n)
    refused = 0
    while refused < 100:
        sub = frozenset(rng.sample(arcs, rng.randint(2, n)))
        if all(compatible(a, b) for a, b in itertools.combinations(sub, 2)):
            continue
        with pytest.raises(ValueError) as expected:
            validate_diagram(n, sub)
        # one set drawn twice each way: the sweep must refuse it every time, in the same words
        diagram = Diagram(n, sub)
        for draw in (arc_offsets, render_ascii, render_svg) * 2:
            with pytest.raises(ValueError) as got:
                draw(diagram)
            assert str(got.value) == str(expected.value)
        refused += 1


def test_parse_and_every_draw_share_one_forcing_evaluation(forcing_evaluations):
    # a diagram is parsed and drawn by the sweep alone, with no forcing masks
    d = parse_diagram("n=8\n1-3:R;2-5:LL;3-7:LRL")
    offsets, ascii_art, svg = arc_offsets(d), render_ascii(d), render_svg(d)
    fresh = Diagram(8, d.arcs)
    assert (arc_offsets(fresh), render_ascii(fresh), render_svg(fresh)) == (offsets, ascii_art, svg)
    assert forcing_evaluations == [] and "_forcing" not in d.__dict__
    # a refused set evaluates the masks once, to word its error, and every refusal reads them
    with pytest.raises(ValueError) as expected:
        parse_diagram("n=8\n2-5:LR;3-7:RLL")
    assert forcing_evaluations == [Diagram(8, [make_arc(8, 2, 5, {4}), make_arc(8, 3, 7, {4})])]
    refused = Diagram(8, forcing_evaluations[0].arcs)
    for draw in (arc_offsets, render_ascii, render_svg) * 2:
        with pytest.raises(ValueError) as got:
            draw(refused)
        assert str(got.value) == str(expected.value)
    assert forcing_evaluations[1:] == [refused]


def masked_offsets(diagram):
    """The popcount layout that `arc_offsets` replaced, kept as its oracle.

    An arc's offset at an interior point ranks it among the arcs passing
    that point on the same side, by a popcount of the arcs there that the
    forcing rule puts left of it.
    """
    keys = [(alpha.a, alpha.b, alpha.mask) for alpha in diagram.sorted_arcs()]
    lower, upper, on_left, on_right = (defaultdict(int) for _ in range(4))
    for j, (a, b, mask) in enumerate(keys):
        lower[a] |= 1 << j
        upper[b] |= 1 << j
        for k, p in enumerate(range(a + 1, b)):
            (on_right if mask >> k & 1 else on_left)[p] |= 1 << j
    offsets = {}
    for a, b, mask in keys:
        left_of_alpha = on_right[a] | on_right[b]  # the arcs alpha is forced right of
        for k, p in enumerate(range(a + 1, b)):
            if not mask >> k & 1:
                left_of_alpha |= on_right[p] | lower[p] | upper[p]
        per = offsets[Arc(diagram.n, a, b, mask)] = {a: 0, b: 0}
        for k, p in enumerate(range(a + 1, b)):
            if mask >> k & 1:
                per[p] = (left_of_alpha & on_right[p]).bit_count() - on_right[p].bit_count()
            else:
                per[p] = (left_of_alpha & on_left[p]).bit_count() + 1
    return offsets


def test_sweep_layout_matches_the_popcount_oracle(delta_image):
    diagrams = list(delta_image(7).values())
    diagrams += [diagram_from_permutation(seeded_permutation(seed, n)) for n in (200, 1000) for seed in (n, n + 1)]
    for d in diagrams:
        offsets = arc_offsets(d)
        assert offsets == masked_offsets(d) and list(offsets) == list(d.sorted_arcs()), str(d)


def test_gallery_n3_matches_side_data():
    diagrams = sorted(
        {diagram_from_permutation(x) for x in all_permutations(3)}, key=str
    )
    assert [str(d) for d in diagrams] == ["", "1-2", "1-2;2-3", "1-3:L", "1-3:R", "2-3"]
    for d in diagrams:
        svg = render_svg(d)
        assert svg.count("<circle") == 3
        assert svg.count("<path") == len(d.arcs)
        for alpha, xs in zip(d.sorted_arcs(), _waypoints(svg)):
            if alpha.interior:
                cx = int(re.search(r'<circle cx="(\d+)"', svg).group(1))
                y2 = MARGIN + (3 - 2) * SPACING
                assert (xs[y2] > cx) == (2 in alpha.left)


def test_ascii_wide_offsets_stay_grid_aligned():
    # nested left arcs force two offset columns at height 3
    d = parse_diagram("n=5\n1-5:LLL;2-4:L")
    art = render_ascii(d)
    assert "4" in art and "|" in art
    assert render_ascii(d) == art


def test_export_forcing_n4_has_eleven_nodes():
    dot = export_dot("forcing", 4)
    nodes = re.findall(r'^  "([^"]+)";$', dot, re.M)
    assert len(nodes) == 11
    assert dot.startswith("digraph forcing {")
    assert dot.rstrip().endswith("}")


@pytest.mark.parametrize("n", range(3, 8))
def test_export_forcing_matches_reduction(n):
    arcs = all_arcs(n)
    strictly_under = {
        beta: {alpha for alpha in arcs if alpha != beta and is_subarc(alpha, beta)}
        for beta in arcs
    }
    expected = set()
    for beta, unders in strictly_under.items():
        for alpha in unders:
            if not any(alpha in strictly_under[gamma] for gamma in unders):
                expected.add((str(alpha), str(beta)))
    dot = export_dot("forcing", n)
    edges = set(re.findall(r'^  "([^"]+)" -> "([^"]+)";$', dot, re.M))
    assert edges == expected


def test_export_forcing_n9_two_covers_into_each_long_arc():
    dot = export_dot("forcing", 9)
    edges = re.findall(r'^  "([^"]+)" -> "([^"]+)";$', dot, re.M)
    assert len(edges) == len(set(edges)) == 988
    into = Counter(beta for _, beta in edges)
    long_arcs = {str(alpha) for alpha in all_arcs(9) if alpha.b - alpha.a >= 2}
    assert into == dict.fromkeys(long_arcs, 2)


def test_export_forcing_n2_trivial():
    dot = export_dot("forcing", 2)
    assert re.findall(r'^  "([^"]+)";$', dot, re.M) == ["1-2"]
    assert "->" not in dot


def pair_sort_forcing_dot(n):
    """The forcing export by its former route: every (subarc cover, arc) pair, sorted afterwards."""
    arcs = all_arcs(n)
    covers = sorted(
        ((alpha, beta) for beta in arcs for alpha in subarc_covers(beta)),
        key=lambda e: (arc_key(e[0]), arc_key(e[1])),
    )
    expected = ["digraph forcing {", "  rankdir=BT;"]
    expected += [f'  "{alpha}";' for alpha in arcs]
    expected += [f'  "{alpha}" -> "{beta}";' for alpha, beta in covers]
    expected.append("}")
    return "\n".join(expected)


@pytest.mark.parametrize("n", range(0, 9))
def test_export_forcing_matches_pair_sort_route(n):
    assert export_dot("forcing", n) == pair_sort_forcing_dot(n)


def scan_sn_weak_dot(n):
    """The full weak-order export by its former route: S_n, each element's upper covers sorted."""
    elements = list(all_permutations(n))
    covers = [(x, y) for x in elements for y in sorted(upper_covers(x), key=lambda p: p.entries)]
    expected = ["digraph weak_order {", "  rankdir=BT;"]
    expected += [f'  "{x}";' for x in elements]
    expected += [f'  "{x}" -> "{y}";' for x, y in covers]
    expected.append("}")
    return "\n".join(expected)


@pytest.mark.parametrize("n", range(0, 8))
def test_export_weak_matches_sn_scan(n):
    assert export_dot("weak", n) == scan_sn_weak_dot(n)


def test_export_weak_n3():
    dot = export_dot("weak", 3)
    nodes = re.findall(r'^  "([^"]+)";$', dot, re.M)
    edges = re.findall(r'^  "([^"]+)" -> "([^"]+)";$', dot, re.M)
    assert len(nodes) == 6 and len(edges) == 6
    assert ("123", "213") in edges and ("231", "321") in edges


def test_export_weak_quotient_n3():
    dot = export_dot("weak", 3, named_congruence(3, "tamari"))
    nodes = re.findall(r'^  "([^"]+)";$', dot, re.M)
    edges = set(re.findall(r'^  "([^"]+)" -> "([^"]+)";$', dot, re.M))
    assert nodes == ["123", "132", "213", "231", "321"]
    assert edges == {
        ("123", "132"),
        ("123", "213"),
        ("132", "321"),
        ("213", "231"),
        ("231", "321"),
    }


def pairwise_weak_covers(elements):
    """Hasse covers of the weak order restricted to `elements`, comparing inversion sets pairwise."""
    pairs_of = {x: inversions(x).pairs for x in elements}
    by_size = sorted(elements, key=lambda x: (len(pairs_of[x]), x.entries))
    covers = []
    for x in elements:
        found = []
        for v in by_size:
            if len(pairs_of[v]) <= len(pairs_of[x]) or not pairs_of[x] < pairs_of[v]:
                continue
            if not any(pairs_of[w] <= pairs_of[v] for w in found):
                found.append(v)
                covers.append((x, v))
    return covers


def scan_weak_dot(n, u):
    """The quotient export with its nodes from a scan of S_n and its covers found pairwise."""
    elements = [x for x in all_permutations(n) if diagram_from_permutation(x).arcs <= u.arcs]
    covers = sorted(pairwise_weak_covers(elements), key=lambda e: (e[0].entries, e[1].entries))
    expected = ["digraph weak_order {", "  rankdir=BT;"]
    expected += [f'  "{x}";' for x in elements]
    expected += [f'  "{x}" -> "{y}";' for x, y in covers]
    expected.append("}")
    return "\n".join(expected)


@pytest.mark.parametrize("n", range(2, 6))
def test_export_weak_quotient_matches_pairwise_covers(n):
    rng = random.Random(7000 + n)
    arcs = all_arcs(n)
    for _ in range(8):
        u = congruence_from_contracted(n, rng.sample(arcs, rng.randint(1, min(4, len(arcs)))))
        assert export_dot("weak", n, u) == scan_weak_dot(n, u)


@pytest.mark.parametrize("n", range(3, 7))
@pytest.mark.parametrize("name", ["tamari", "baxter"])
def test_export_weak_named_quotient_matches_scan(name, n):
    u = named_congruence(n, name)
    assert export_dot("weak", n, u) == scan_weak_dot(n, u)


def top_route_weak_dot(n, u):
    """The quotient export by its former route: the bottoms of the upper covers of each class top."""
    elements = list(uncontracted_permutations(n, u))
    covers = sorted(
        {(x, project_down(y, u)) for x in elements for y in upper_covers(project_up(x, u))},
        key=lambda e: (e[0].entries, e[1].entries),
    )
    expected = ["digraph weak_order {", "  rankdir=BT;"]
    expected += [f'  "{x}";' for x in elements]
    expected += [f'  "{x}" -> "{y}";' for x, y in covers]
    expected.append("}")
    return "\n".join(expected)


def quotients_at(n):
    """The named families, an alternating Cambrian spec and three seeded contractions of short arcs."""
    yield named_congruence(n, "tamari")
    yield named_congruence(n, "baxter")
    yield named_congruence(n, "clumped", k=1)
    yield named_congruence(n, "maxlen", k=3)
    yield named_congruence(n, "cambrian", orientation="LR" * (n // 2) + "L" * (n % 2))
    rng = random.Random(9100 + n)
    # short generators contract many arcs, so the quotients and the former route's walks stay small
    arcs = [alpha for alpha in all_arcs(n) if alpha.b - alpha.a <= 3]
    for _ in range(3):
        yield congruence_from_contracted(n, rng.sample(arcs, 3))


@pytest.mark.parametrize("n", [7, 8, 10])
def test_export_weak_quotient_matches_top_route(n):
    # past nine points the nodes take the comma form; maxlen:2 keeps 2^9 = 512 of S_10
    for u in quotients_at(n) if n <= 8 else [named_congruence(n, "maxlen", k=2)]:
        assert export_dot("weak", n, u) == top_route_weak_dot(n, u)


def test_export_weak_tamari_n8_counts():
    dot = export_dot("weak", 8, named_congruence(8, "tamari"))
    nodes = re.findall(r'^  "([^"]+)";$', dot, re.M)
    edges = re.findall(r'^  "([^"]+)" -> "([^"]+)";$', dot, re.M)
    assert len(nodes) == catalan(8) == 1430
    # a class covers one class per descent of its bottom, and by Narayana
    # symmetry the bottoms have (n - 1) * C_n / 2 descents in all
    assert len(edges) == len(set(edges)) == 7 * catalan(8) // 2 == 5005


def test_export_rejects_bad_arguments():
    with pytest.raises(ValueError):
        export_dot("hasse", 3)
    with pytest.raises(ValueError):
        export_dot("forcing", 3, named_congruence(3, "tamari"))
