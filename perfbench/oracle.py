"""Independent oracle for the benchmark checks.

Nothing here imports arcdiag.  Every function is written from its
definition: the counting sequences from their closed forms or
recurrences, the descent-arc map from "a descent b > a, with the right
side holding the in-between values that come after the descent", the
join-irreducible of an arc from its one-line shape, and the weak order as
containment of inversion sets.  Permutations are tuples of ints, arcs are
tuples (a, b, right) with `right` a frozenset of interior points.

    python3 perfbench/oracle.py selftest        # check against typed-in terms
    python3 perfbench/oracle.py table           # rebuild bruteforce_n9.json from an S_9 scan
"""
from __future__ import annotations

import itertools
import json
import math
import os
import sys

TABLE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "bruteforce_n9.json")
TABLE_COMMAND = "python3 perfbench/oracle.py table"
# specs at n=9 whose rows by arc count have no closed form used here
TABLE_SPECS = ("clumped:1", "clumped:2", "baxter", "maxlen:3", "maxlen:4")


# -- sequences -------------------------------------------------------------

def factorial(n: int) -> int:
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


_EULERIAN: dict[tuple[int, int], int] = {}


def eulerian(n: int, k: int) -> int:
    """Permutations of n with k descents: A(n,k) = (k+1)A(n-1,k) + (n-k)A(n-1,k-1)."""
    if k < 0 or (n >= 1 and k >= n) or (n == 0 and k != 0):
        return 0
    if n <= 1:
        return 1
    key = (n, k)
    if key not in _EULERIAN:
        _EULERIAN[key] = (k + 1) * eulerian(n - 1, k) + (n - k) * eulerian(n - 1, k - 1)
    return _EULERIAN[key]


def eulerian_row(n: int) -> tuple[int, ...]:
    return tuple(eulerian(n, k) for k in range(n))


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def narayana(n: int, k: int) -> int:
    return math.comb(n, k) * math.comb(n, k - 1) // n


def narayana_row(n: int) -> tuple[int, ...]:
    """Counts by k - 1 = number of arcs, k = 1..n."""
    return tuple(narayana(n, k) for k in range(1, n + 1))


def baxter_row(n: int) -> tuple[int, ...]:
    """Baxter permutations of n by descents: C(n+1,k)C(n+1,k+1)C(n+1,k+2) / (C(n+1,1)C(n+1,2))."""
    denom = math.comb(n + 1, 1) * math.comb(n + 1, 2)
    row = []
    for k in range(n):
        q, r = divmod(math.comb(n + 1, k) * math.comb(n + 1, k + 1) * math.comb(n + 1, k + 2), denom)
        if r:
            raise ArithmeticError(f"Baxter term n={n} k={k} is not an integer")
        row.append(q)
    return tuple(row)


def baxter(n: int) -> int:
    return sum(baxter_row(n))


def prodmin(n: int, k: int) -> int:
    out = 1
    for i in range(1, n + 1):
        out *= min(i, k)
    return out


def alternating(n: int) -> int:
    """Euler zigzag number E_n, by the Seidel boustrophedon triangle."""
    row = [1]
    for _ in range(n):
        nxt = [0]
        for v in reversed(row):
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[-1]


# -- arcs and permutations -------------------------------------------------

def sides(arc) -> str:
    a, b, right = arc
    return "".join("R" if p in right else "L" for p in range(a + 1, b))


def arc_text(arc) -> str:
    a, b, _ = arc
    return f"{a}-{b}" if b == a + 1 else f"{a}-{b}:{sides(arc)}"


def arc_from_text(text: str):
    ends, _, letters = text.partition(":")
    a, b = (int(v) for v in ends.split("-"))
    return (a, b, frozenset(a + 1 + i for i, ch in enumerate(letters) if ch == "R"))


def inflections(arc) -> int:
    s = sides(arc)
    return sum(1 for x, y in zip(s, s[1:]) if x != y)


def descent_arcs(word) -> list:
    """One arc per descent b = w_i > w_{i+1} = a; right side: values in (a, b) after the descent."""
    pos = {v: i for i, v in enumerate(word)}
    out = []
    for i in range(len(word) - 1):
        b, a = word[i], word[i + 1]
        if b > a:
            out.append((a, b, frozenset(v for v in range(a + 1, b) if pos[v] > i + 1)))
    return out


def diagram_text(word) -> str:
    """The canonical body: arcs sorted by (a, b, sides), joined by ';'."""
    arcs = sorted(descent_arcs(word), key=lambda arc: (arc[0], arc[1], sides(arc)))
    return ";".join(arc_text(arc) for arc in arcs)


def perm_text(word) -> str:
    if len(word) <= 9:
        return "".join(str(v) for v in word)
    return ",".join(str(v) for v in word)


def perm_from_text(text: str) -> tuple[int, ...]:
    if "," in text:
        return tuple(int(v) for v in text.split(","))
    return tuple(int(ch) for ch in text)


def ji_word(n: int, arc) -> tuple[int, ...]:
    """1..a-1, left side ascending, b, a, right side ascending, b+1..n."""
    a, b, right = arc
    left = [p for p in range(a + 1, b) if p not in right]
    return tuple(range(1, a)) + tuple(left) + (b, a) + tuple(sorted(right)) + tuple(range(b + 1, n + 1))


def all_arcs(n: int) -> list:
    out = []
    for a in range(1, n):
        for b in range(a + 1, n + 1):
            interior = list(range(a + 1, b))
            for bits in itertools.product((False, True), repeat=len(interior)):
                out.append((a, b, frozenset(p for p, r in zip(interior, bits) if r)))
    return out


def is_subarc(alpha, beta) -> bool:
    a, b, right = alpha
    a2, b2, right2 = beta
    return a2 <= a < b <= b2 and right == frozenset(p for p in right2 if a < p < b)


def inversions(word) -> int:
    """Bit (b-1)*n + (a-1) set for each pair b > a with b before a."""
    n = len(word)
    mask = 0
    for i, b in enumerate(word):
        for a in word[i + 1:]:
            if b > a:
                mask |= 1 << ((b - 1) * n + (a - 1))
    return mask


def weak_leq(u, w) -> bool:
    return inversions(u) & ~inversions(w) == 0


# -- congruences by their defining arc sets ---------------------------------

def arc_predicate(spec: str, n: int):
    """Membership in the uncontracted arc set named by a spec string.

    `tamari`: no point on the right; `baxter`: no inflection;
    `clumped:k`: at most k inflections; `maxlen:k`: b - a < k;
    `cambrian:O`: interior p on the left exactly when O[p-1] is R;
    `contract:<arc>,<arc>,...`: no listed arc is a subarc.
    """
    name, _, payload = spec.partition(":")
    if name == "tamari":
        return lambda arc: not arc[2]
    if name == "baxter":
        return lambda arc: inflections(arc) == 0
    if name == "clumped":
        k = int(payload)
        return lambda arc: inflections(arc) <= k
    if name == "maxlen":
        k = int(payload)
        return lambda arc: arc[1] - arc[0] < k
    if name == "cambrian":
        return lambda arc: all((p not in arc[2]) == (payload[p - 1] == "R") for p in range(arc[0] + 1, arc[1]))
    if name == "contract":
        gens = [arc_from_text(t) for t in payload.split(",")]
        return lambda arc: not any(is_subarc(g, arc) for g in gens)
    raise ValueError(f"unknown spec {spec!r}")


def uncontracted(n: int, keep) -> list:
    """Brute force: every word of S_n whose descent arcs all satisfy `keep`."""
    return [w for w in itertools.permutations(range(1, n + 1)) if all(keep(arc) for arc in descent_arcs(w))]


def rows_by_descents(n: int, keep) -> tuple[int, ...]:
    row = [0] * n
    for w in uncontracted(n, keep):
        row[sum(1 for i in range(n - 1) if w[i] > w[i + 1])] += 1
    return tuple(row)


def load_table() -> dict:
    with open(TABLE_PATH) as fh:
        table = json.load(fh)
    return {spec: tuple(row) for spec, row in table["rows"].items()}


def make_table(n: int = 9) -> dict:
    """Rows by arc count for TABLE_SPECS, from one scan of S_n."""
    keeps = [(spec, arc_predicate(spec, n)) for spec in TABLE_SPECS]
    rows = {spec: [0] * n for spec in TABLE_SPECS}
    for w in itertools.permutations(range(1, n + 1)):
        arcs = descent_arcs(w)
        for spec, keep in keeps:
            if all(keep(arc) for arc in arcs):
                rows[spec][len(arcs)] += 1
    return {"n": n, "command": TABLE_COMMAND, "rows": rows}


# -- self-test against sequence terms typed in by hand ----------------------

def selftest() -> list[str]:
    """Return a list of failures; empty when every hand-typed term matches."""
    known = {
        "factorial": ([factorial(n) for n in range(11)],
                      [1, 1, 2, 6, 24, 120, 720, 5040, 40320, 362880, 3628800]),
        "eulerian 4": (eulerian_row(4), (1, 11, 11, 1)),
        "eulerian 5": (eulerian_row(5), (1, 26, 66, 26, 1)),
        "eulerian 6": (eulerian_row(6), (1, 57, 302, 302, 57, 1)),
        "eulerian 7": (eulerian_row(7), (1, 120, 1191, 2416, 1191, 120, 1)),
        "catalan": ([catalan(n) for n in range(11)],
                    [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796]),
        "narayana 4": (narayana_row(4), (1, 6, 6, 1)),
        "narayana 5": (narayana_row(5), (1, 10, 20, 10, 1)),
        "narayana 6": (narayana_row(6), (1, 15, 50, 50, 15, 1)),
        "baxter": ([baxter(n) for n in range(1, 11)],
                   [1, 2, 6, 22, 92, 422, 2074, 10754, 58202, 326240]),
        "baxter row 4": (baxter_row(4), (1, 10, 10, 1)),
        "prodmin": ([prodmin(5, 3), prodmin(4, 2), prodmin(6, 6), prodmin(7, 1)], [54, 8, 720, 1]),
        "alternating even": ([alternating(n) for n in (0, 2, 4, 6, 8, 10)], [1, 1, 5, 61, 1385, 50521]),
        "descent arcs 157842936": (diagram_text((1, 5, 7, 8, 4, 2, 9, 3, 6)), "2-4:R;3-9:LLRLL;4-8:LRL"),
        "descent arcs 46731528": (diagram_text((4, 6, 7, 3, 1, 5, 2, 8)), "1-3:R;2-5:LL;3-7:LRL"),
        "descent arcs 2143": (diagram_text((2, 1, 4, 3)), "1-2;3-4"),
        "ji 4-8:LRL": (ji_word(9, arc_from_text("4-8:LRL")), (1, 2, 3, 5, 7, 8, 4, 6, 9)),
        "ji 1-3:R": (ji_word(3, arc_from_text("1-3:R")), (3, 1, 2)),
        "weak": ([weak_leq((1, 2, 3), (3, 2, 1)), weak_leq((1, 3, 2), (3, 1, 2)),
                  weak_leq((2, 1, 3), (1, 3, 2)), weak_leq((3, 1, 2), (2, 3, 1))],
                 [True, True, False, False]),
        "arc count 4": (len(all_arcs(4)), 11),
        "subarc": ([is_subarc(arc_from_text("2-3"), arc_from_text("1-4:RR")),
                    is_subarc(arc_from_text("1-3:R"), arc_from_text("1-4:RR")),
                    is_subarc(arc_from_text("1-3:L"), arc_from_text("1-4:RR"))],
                   [True, True, False]),
        "tamari count 5": (len(uncontracted(5, arc_predicate("tamari", 5))), 42),
        "baxter count 5": (len(uncontracted(5, arc_predicate("baxter", 5))), 92),
    }
    return [f"{name}: got {got}, expected {want}" for name, (got, want) in known.items() if _norm(got) != _norm(want)]


def _norm(value):
    return tuple(value) if isinstance(value, (list, tuple)) else value


def main(argv: list[str]) -> int:
    if argv == ["selftest"]:
        failures = selftest()
        for line in failures:
            print("FAIL", line)
        print("oracle selftest:", "ok" if not failures else f"{len(failures)} failures")
        return 1 if failures else 0
    if argv == ["table"]:
        table = make_table()
        with open(TABLE_PATH, "w") as fh:
            json.dump(table, fh, indent=1)
            fh.write("\n")
        print(json.dumps(table["rows"]))
        return 0
    print("usage: python3 perfbench/oracle.py selftest | table", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
