"""Exact enumeration helpers and the self-verification report.

Every count here is an exact integer; the closed forms divide evenly and
that is checked rather than rounded.  The verification report recomputes
the headline counts from scratch (diagram counts on one side, formulas
or independent scans on the other) and returns the comparisons
as data, so a failing check is a report row, not an exception.
"""
from __future__ import annotations

import math
from functools import lru_cache

from .arcs import ArcSet, full_arc_set
from .congruences import (
    _require_congruence,
    named_congruence,
    uncontracted_by_avoidance,
    uncontracted_permutations,
)
from .diagrams import (
    classify_diagram,
    count_diagrams,
    diagram_from_permutation,
    enumerate_diagrams,
    permutation_from_diagram,
)
from .perms import _Frozen, all_permutations


def catalan(n: int) -> int:
    """Binomial form of the Catalan numbers.

    >>> [catalan(n) for n in range(1, 7)]
    [1, 2, 5, 14, 42, 132]
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return math.comb(2 * n, n) // (n + 1)


def narayana(n: int, k: int) -> int:
    """Rank sizes refining the Catalan numbers, k = 1..n.

    >>> [narayana(4, k) for k in range(1, 5)]
    [1, 6, 6, 1]
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k} n={n}")
    return math.comb(n, k) * math.comb(n, k - 1) // n


@lru_cache(maxsize=None)
def eulerian(n: int, k: int) -> int:
    """Permutations of n with k descents, by the standard recurrence.

    >>> [eulerian(4, k) for k in range(4)]
    [1, 11, 11, 1]
    """
    if n < 0 or k < 0 or k >= max(n, 1):
        return 0
    if n <= 1:
        return 1 if k == 0 else 0
    return (k + 1) * eulerian(n - 1, k) + (n - k) * eulerian(n - 1, k - 1)


def baxter_number(n: int) -> int:
    """Triple-binomial sum for the Baxter numbers; the division is exact.

    >>> [baxter_number(n) for n in range(1, 9)]
    [1, 2, 6, 22, 92, 422, 2074, 10754]
    """
    if n < 1:
        raise ValueError("n must be positive")
    total = sum(
        math.comb(n + 1, k) * math.comb(n + 1, k + 1) * math.comb(n + 1, k + 2)
        for k in range(n)
    )
    denom = math.comb(n + 1, 1) * math.comb(n + 1, 2)
    q, r = divmod(total, denom)
    if r:
        raise ArithmeticError(f"Baxter sum {total} is not divisible by {denom}")
    return q


def prodmin(n: int, k: int) -> int:
    """The product of min(i, k) over i = 1..n.

    >>> prodmin(5, 3)
    54
    """
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    out = 1
    for i in range(1, n + 1):
        out *= min(i, k)
    return out


class CountTable(_Frozen):
    """Diagram counts split by number of arcs, k = 0..n-1."""

    __slots__ = _fields = ("n", "counts")

    def __init__(self, n: int, counts: tuple[int, ...]) -> None:
        self._fill(n, counts)

    @property
    def total(self) -> int:
        return sum(self.counts)


def count_by_arcs(n: int, arcset: ArcSet) -> CountTable:
    """Count the diagrams inside `arcset`, split by arc count."""
    _require_congruence(n, arcset)
    counts = count_diagrams(n, arcset)
    return CountTable(n=n, counts=counts)


# Down-up alternating permutation counts for even sizes; these are the
# perfect-matching diagram totals and the tests recount them by scanning
# for the alternating shape directly.
ALTERNATING_EVEN = {2: 1, 4: 5, 6: 61, 8: 1385}


class CheckResult(_Frozen):
    __slots__ = _fields = ("name", "n", "expected", "observed", "passed")

    def __init__(self, name: str, n: int, expected: object, observed: object, passed: bool) -> None:
        self._fill(name, n, expected, observed, passed)


class VerifyReport(_Frozen):
    __slots__ = _fields = ("n_max", "results")

    def __init__(self, n_max: int, results: tuple[CheckResult, ...]) -> None:
        self._fill(n_max, results)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(r for r in self.results if not r.passed)

    def to_text(self) -> str:
        lines = []
        for r in self.results:
            status = "ok" if r.passed else "FAIL"
            lines.append(f"{status:4} n={r.n} {r.name}: expected {r.expected}, got {r.observed}")
        verdict = "all checks passed" if self.passed else f"{len(self.failures())} checks failed"
        lines.append(f"{len(self.results)} checks, {verdict}")
        return "\n".join(lines)

    def to_json(self) -> str:
        import json  # only `verify --json` needs it, so the CLI starts without it

        records = [
            {
                "name": r.name,
                "n": r.n,
                "expected": repr(r.expected),
                "observed": repr(r.observed),
                "passed": r.passed,
            }
            for r in self.results
        ]
        return json.dumps({"n_max": self.n_max, "passed": self.passed, "checks": records}, indent=2)


def _has_consecutive_321(x) -> bool:
    e = x.entries
    return any(e[i] > e[i + 1] > e[i + 2] for i in range(len(e) - 2))


def _diagram_key(d) -> int:
    """An int key of a diagram: arc (a, b, mask) puts b above its mask in the a-th 2n-bit field.

    It is exact because no two arcs of a diagram share a lower endpoint.
    """
    n, key = d.n, 0
    for a, b, mask in d._keys:
        key |= (b << n | mask) << (2 * n * a)
    return key


# The largest n_max `verify_report` accepts: for each n its checks take
# every permutation of S_n to its diagram and back.
VERIFY_MAX_N = 8


def verify_report(n_max: int) -> VerifyReport:
    """Recompute the headline counts up to n_max and report each comparison."""
    if not 1 <= n_max <= VERIFY_MAX_N:
        raise ValueError(f"n_max must be between 1 and {VERIFY_MAX_N}")
    results: list[CheckResult] = []

    def add(name: str, n: int, expected, observed) -> None:
        results.append(CheckResult(name, n, expected, observed, expected == observed))

    for n in range(1, n_max + 1):
        table = count_by_arcs(n, full_arc_set(n))
        add("diagram-count", n, math.factorial(n), table.total)
        add("arc-count-row", n, tuple(eulerian(n, k) for k in range(n)), table.counts)

        # one pass over S_n checks each diagram as it comes and keeps only its key
        keys = set()
        mismatches = matching_conflicts = perfect = 0
        for x in all_permutations(n):
            d = diagram_from_permutation(x)
            keys.add(_diagram_key(d))
            mismatches += permutation_from_diagram(d) != x
            kind = classify_diagram(d)
            matching_conflicts += kind.is_matching != (not _has_consecutive_321(x))
            perfect += kind.is_perfect_matching
        add("distinct-diagrams", n, math.factorial(n), len(keys))
        add("round-trip-mismatches", n, 0, mismatches)

        tamari = named_congruence(n, "tamari")
        left = count_by_arcs(n, tamari)
        add("left-arc-total", n, catalan(n), left.total)
        add("left-arc-row", n, tuple(narayana(n, k + 1) for k in range(n)), left.counts)

        add(
            "zero-inflection-total",
            n,
            baxter_number(n),
            count_by_arcs(n, named_congruence(n, "baxter")).total,
        )

        add("matching-vs-consecutive-321", n, 0, matching_conflicts)
        if n % 2 == 0:
            add("perfect-matching-count", n, ALTERNATING_EVEN[n], perfect)
            left_perfect = sum(
                1
                for face in enumerate_diagrams(n, tamari)
                if classify_diagram(face).is_perfect_matching
            )
            add("left-perfect-matching-count", n, catalan(n // 2), left_perfect)

        for k in range(1, n + 1):
            add(
                f"maxlen-{k}-total",
                n,
                prodmin(n, k),
                count_by_arcs(n, named_congruence(n, "maxlen", k=k)).total,
            )

        clumped = named_congruence(n, "clumped", k=1)
        add(
            "one-inflection-dual-route",
            n,
            sum(1 for _ in uncontracted_permutations(n, clumped)),
            sum(1 for _ in uncontracted_by_avoidance(n, clumped)),
        )

    return VerifyReport(n_max=n_max, results=tuple(results))
