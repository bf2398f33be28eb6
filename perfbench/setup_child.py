"""The set-up a workload pays in a fresh interpreter, and the arc sets it reuses.

    python3 perfbench/setup_child.py <src dir> build '<plan as JSON>'
    python3 perfbench/setup_child.py <src dir> import-cli

`build` imports arcdiag and builds every arc set of the plan, with the
pace sampler running (see `pace`), and prints `pace.report`; the parent
times the whole child, interpreter start included, and scales it.
`import-cli` prints how long `import arcdiag.cli` takes inside the child.
The benchmark builds its own arc sets with the same `build_arc_sets`.
"""
import importlib
import json
import sys
import time

import pace


def build_arc_sets(ad, plan):
    """plan items: ["full", n], ["spec", n, spec], ["contract", n, [arc texts]] or ["cli", 0]."""
    sets = {}
    for item in plan:
        kind, n = item[0], item[1]
        if kind == "cli":
            importlib.import_module(ad.__name__ + ".cli")
        elif kind == "full":
            sets[f"full:{n}"] = ad.full_arc_set(n)
        elif kind == "spec":
            sets[f"{item[2]}@{n}"] = ad.parse_congruence_spec(item[2], n)
        elif kind == "contract":
            gens = [ad.parse_arc(text, n) for text in item[2]]
            sets["contract:" + ",".join(item[2]) + f"@{n}"] = ad.congruence_from_contracted(n, gens)
        else:
            raise ValueError(f"unknown plan item {item!r}")
    return sets


def main(argv):
    src, mode = argv[0], argv[1]
    sys.path.insert(0, src)
    if mode == "import-cli":
        t0 = time.perf_counter()
        import arcdiag.cli  # noqa: F401

        print(time.perf_counter() - t0)
        return 0
    sampler = pace.Sampler()
    sampler.sample()
    with sampler:
        import arcdiag

        build_arc_sets(arcdiag, json.loads(argv[2]))
    sampler.sample()
    print(pace.report(sampler))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
