"""Tabulate quotient sizes for the named congruence families.

Counts diagrams inside each family's arc set for a range of n, so the
growth of the classical sequences (Catalan, Baxter, the bounded-length
products, the single-inflection counts) can be eyeballed side by side.

    python3 scripts/quotient_census.py --n-max 8
    python3 scripts/quotient_census.py --n-max 6 --by-arcs
"""
from __future__ import annotations

import argparse

from arcdiag import count_by_arcs, full_arc_set, named_congruence

CLUMP_BOUNDS = (1, 2)
LENGTH_BOUNDS = (2, 3)


def families(n: int):
    yield "full", full_arc_set(n)
    yield "tamari", named_congruence(n, "tamari")
    yield "baxter", named_congruence(n, "baxter")
    for k in CLUMP_BOUNDS:
        yield f"clumped:{k}", named_congruence(n, "clumped", k=k)
    for k in LENGTH_BOUNDS:
        if k <= n:
            yield f"maxlen:{k}", named_congruence(n, "maxlen", k=k)
    alternating = ("LR" * n)[:n]
    yield f"cambrian:{alternating}", named_congruence(n, "cambrian", orientation=alternating)


def run(n_max: int, by_arcs: bool) -> None:
    for n in range(1, n_max + 1):
        print(f"n={n}")
        for label, arcset in families(n):
            table = count_by_arcs(n, arcset)
            line = f"  {label:<16} {table.total:>8}"
            if by_arcs:
                line += "  " + ",".join(str(c) for c in table.counts)
            print(line)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-max", type=int, default=7)
    parser.add_argument("--by-arcs", action="store_true", help="append per-arc-count rows")
    args = parser.parse_args()
    run(args.n_max, args.by_arcs)


if __name__ == "__main__":
    main()
