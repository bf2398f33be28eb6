"""Self-test of the checks: each workload, at small sizes, on clean and corrupted outputs.

Run through `python3 perfbench/run.py --selftest`.  For every workload the
clean outputs of one round must pass its check, and each corrupted copy
must fail it.
"""
from __future__ import annotations

import copy

import workloads as wl


def _swap_round_trip(out):
    (d0, b0), (d1, b1) = out["small"][0], out["small"][1]
    out["small"][0], out["small"][1] = (d0, b1), (d1, b0)


def _count_off_by_one(out):
    key = next(k for k in out if k[0] != "full")
    counts = list(out[key])
    counts[1] += 1
    out[key] = tuple(counts)


def _projection_not_below(out):
    spec, x, _ = out["project"][0]
    top = "".join(str(v) for v in range(len(x), 0, -1))
    out["project"][0] = (spec, x, top if x != top else x)


def _drop_cover(out):
    lines = out["weak"].split("\n")
    lines.remove(next(line for line in lines if "->" in line))
    out["weak"] = "\n".join(lines)


def _verify_row_off_by_one(out):
    code, text = out["verify"]
    out["verify"] = (code, text.replace("expected 1, got 1", "expected 2, got 2", 1))


CASES = [
    (lambda: wl.Roundtrip(n_all=5, n_big=12, big_count=2, render_count=10),
     [("swapped round-trip result", _swap_round_trip)]),
    (lambda: wl.Census(n_full=5, specs9=("tamari", "baxter", "cambrian:LRLRL", "clumped:1", "maxlen:3"),
                       n_sparse=6, sparse=("tamari", "baxter", "cambrian", "maxlen:4")),
     [("count off by one", _count_off_by_one)]),
    (lambda: wl.Quotient(n=5, sample=10, n_forcing=5, gen_len=3, gens=2),
     [("projection not below its input", _projection_not_below), ("Hasse export with one cover dropped", _drop_cover)]),
    (lambda: wl.Cli(n_max=4, n_small=6),
     [("verify row off by one", _verify_row_off_by_one)]),
]


def run(ad, cli) -> list[str]:
    from setup_child import build_arc_sets

    failures = []
    for make, corruptions in CASES:
        workload = make()
        workload.prepare(seed=7)
        if workload.name == "cli":
            workload.runner = wl.dispatch_runner(cli)
        out = workload.run_round(ad, build_arc_sets(ad, workload.plan()), wl.Recorder())
        errors = workload.check(out)
        if errors:
            failures.append(f"{workload.name}: clean outputs fail the check: {errors[0]}")
        for label, corrupt in corruptions:
            bad = copy.deepcopy(out)
            corrupt(bad)
            caught = workload.check(bad)
            status = "caught" if caught else "MISSED"
            print(f"{workload.name}: {label}: {status}" + (f" ({caught[0]})" if caught else ""))
            if not caught:
                failures.append(f"{workload.name}: check passed a {label}")
    return failures
