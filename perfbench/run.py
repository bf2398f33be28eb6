"""Benchmark for arcdiag: four workloads, end-to-end metrics, and a traced per-layer run.

    python3 perfbench/run.py --workload roundtrip --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload, one process
    python3 perfbench/run.py --selftest                       # oracle and check self-tests

Workloads: roundtrip, census, quotient, cli (see README.md).  The program
is imported from `src/` of the checkout this file sits in; without it
the benchmark exits 2 and prints no result.  Rounds of the workload's
operations repeat while another round is expected to end within
`--seconds` of measured time (one round at least).  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.  With
`--trace 0` the metrics are the end-to-end ones, with every time scaled
to the pace of a reference kernel sampled while it was measured (see
`pace.py`); with `--trace 1` every public function of arcdiag is wrapped
and the metrics are per layer.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import pace  # noqa: E402
import workloads as wl  # noqa: E402
from setup_child import build_arc_sets  # noqa: E402
from tracing import Tracer  # noqa: E402

clock = time.perf_counter
SETUP_REPEATS = 9

# per-layer metric -> functions whose self times it sums
SELF_TIME = {
    "perms.join_s": ("perms.join",),
    "perms.inversions_s": ("perms.inversions",),
    "perms.all_permutations_s": ("perms.all_permutations",),
    "arcs.compatible_s": ("arcs.compatible",),
    "arcs.all_arcs_s": ("arcs.all_arcs",),
    "arcs.incompatibility_reason_s": ("arcs.incompatibility_reason",),
    "diagrams.diagram_from_permutation_s": ("diagrams.diagram_from_permutation",),
    "diagrams.permutation_from_diagram_s": ("diagrams.permutation_from_diagram",),
    "diagrams.deletion_stages_s": ("diagrams.deletion_stages",),
    "diagrams.validate_diagram_s": ("diagrams.validate_diagram",),
    "diagrams.enumerate_diagrams_s": ("diagrams.enumerate_diagrams",),
    "congruences.project_down_s": ("congruences.project_down",),
    "congruences.is_subarc_closed_s": ("congruences.is_subarc_closed",),
    "congruences.uncontracted_permutations_s": ("congruences.uncontracted_permutations",),
    "congruences.uncontracted_by_avoidance_s": ("congruences.uncontracted_by_avoidance",),
    "congruences.named_congruence_s": ("congruences.named_congruence",),
    "counting.count_by_arcs_s": ("counting.count_by_arcs",),
    "counting.verify_report_s": ("counting.verify_report",),
    "textforms.parse_permutation_s": ("textforms.parse_permutation",),
    "textforms.format_diagram_s": ("textforms.format_diagram", "textforms.format_diagram_body"),
    "textforms.parse_diagram_s": ("textforms.parse_diagram", "textforms.parse_diagram_body", "textforms.parse_arc"),
    "textforms.parse_congruence_spec_s": ("textforms.parse_congruence_spec",),
    "render.render_ascii_s": ("render.render_ascii",),
    "render.render_svg_s": ("render.render_svg",),
    "render.export_dot_weak_s": ("render.export_dot_weak",),
    "render.export_dot_forcing_s": ("render.export_dot_forcing",),
    "cli.dispatch_s": ("cli.dispatch",),
    # helpers that hold much of the rest of the program's self time
    "perms.descents_s": ("perms.descents",),
    "perms.positions_s": ("perms.positions",),
    "arcs.forces_right_of_s": ("arcs.forces_right_of",),
    "arcs.side_string_s": ("arcs.side_string",),
    "arcs.arc_key_s": ("arcs.arc_key",),
    "arcs.subarcs_s": ("arcs.subarcs",),
    "arcs.is_subarc_s": ("arcs.is_subarc",),
    "arcs.ji_from_arc_s": ("arcs.ji_from_arc",),
    "diagrams.classify_diagram_s": ("diagrams.classify_diagram",),
    "congruences.has_pattern_s": ("congruences.has_pattern",),
    "textforms.format_permutation_s": ("textforms.format_permutation",),
    "render.arc_offsets_s": ("render.arc_offsets",),
}
CALLS = {
    "perms.join_calls": "perms.join",
    "perms.inversions_calls": "perms.inversions",
    "arcs.compatible_calls": "arcs.compatible",
    "arcs.incompatibility_reason_calls": "arcs.incompatibility_reason",
    "arcs.subarcs_calls": "arcs.subarcs",
    "diagrams.validate_diagram_calls": "diagrams.validate_diagram",
    "congruences.project_down_calls": "congruences.project_down",
    "congruences.is_subarc_closed_calls": "congruences.is_subarc_closed",
    "congruences.has_pattern_calls": "congruences.has_pattern",
}
LISTINGS = ("congruences.uncontracted_permutations", "congruences.uncontracted_by_avoidance")


class Unusable(Exception):
    """The checkout cannot be benchmarked; nothing is printed on stdout."""


def load_program():
    if not os.path.isfile(os.path.join(SRC, "arcdiag", "__init__.py")):
        raise Unusable(f"no arcdiag package under {SRC}")
    sys.path.insert(0, SRC)
    import arcdiag
    import arcdiag.cli

    if not os.path.abspath(arcdiag.__file__).startswith(SRC + os.sep):
        raise Unusable(f"imported arcdiag from {arcdiag.__file__}, not from {SRC}")
    return arcdiag, arcdiag.cli


def run_child(*args: str) -> tuple[float, str]:
    t0 = clock()
    proc = subprocess.run([sys.executable, os.path.join(HERE, "setup_child.py"), SRC, *args],
                          capture_output=True, text=True, cwd=ROOT, timeout=120)
    elapsed = clock() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
    return elapsed, proc.stdout


def measure_setup(plan) -> float:
    """Median time of a fresh interpreter that imports arcdiag and builds the plan:
    its wall time less the child's sampling, scaled to the pace sampled in it."""
    arg = json.dumps(plan)
    run_child("build", arg)  # writes bytecode caches on a fresh checkout
    times = []
    for _ in range(SETUP_REPEATS):
        wall, out = run_child("build", arg)
        spent, units = pace.parse_report(out)
        times.append((wall - spent) * pace.UNIT_S / statistics.mean(units))
    return statistics.median(times)


def measure_cli_import() -> float:
    return statistics.median(float(run_child("import-cli")[1]) for _ in range(SETUP_REPEATS))


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def layer_metrics(tracer: Tracer, wall: float, cli_import: float) -> dict:
    summary = tracer.summary()

    def get(name, field):
        return summary.get(name, {}).get(field, 0)

    out = {}
    for metric, names in SELF_TIME.items():
        out[metric] = (sum(get(n, "self_s") for n in names), "s")
    for metric, name in CALLS.items():
        out[metric] = (get(name, "calls"), "count")
    inverses = get("diagrams.permutation_from_diagram", "calls")
    out["diagrams.validate_per_inverse"] = (
        get("diagrams.validate_diagram", "calls") / inverses if inverses else 0.0, "ratio")
    out["diagrams.enumerate_diagrams_yielded"] = (get("diagrams.enumerate_diagrams", "yields"), "count")
    under = tracer.parent_names("perms.all_permutations")
    # each listing resumes its scan once more to see it end
    scanned = sum(under.get(n, 0) for n in LISTINGS) - sum(get(n, "calls") for n in LISTINGS)
    kept = sum(get(n, "yields") for n in LISTINGS)
    out["congruences.list_yield"] = (kept / scanned if scanned > 0 else 0.0, "ratio")
    out["cli.import_s"] = (cli_import, "s")
    program = tracer.top_level_seconds()
    named = sum(get(n, "self_s") for names in SELF_TIME.values() for n in names)
    out["trace.wall_s"] = (wall, "s")
    out["trace.program_s"] = (program, "s")
    out["trace.named_s"] = (named, "s")
    out["trace.unnamed_s"] = (program - named, "s")
    out["trace.bench_s"] = (wall - program, "s")
    out["trace.spans"] = (len(tracer.end), "count")
    return out, summary


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    ad, cli = load_program()
    workload = wl.WORKLOADS[name]()
    workload.prepare(seed)
    sampler = None if trace else pace.Sampler()
    if name == "cli":
        workload.runner = wl.dispatch_runner(cli) if trace else wl.subprocess_runner(ROOT, sampler)
    plan = workload.plan()
    setup = cli_import = None
    if trace:
        cli_import = measure_cli_import()
    else:
        setup = measure_setup(plan)

    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install(ad)
    t0 = clock()
    sets = build_arc_sets(ad, plan)
    build_s = clock() - t0
    recs, round_times, errors = [], [], []
    while True:
        rec = wl.Recorder(sampler)
        t0 = clock()
        with sampler if sampler and workload.IN_PROCESS else contextlib.nullcontext():
            out = workload.run_round(ad, sets, rec)
        rec.finish()
        round_times.append(clock() - t0)
        recs.append(rec)
        errors.extend(workload.check(out))
        del out
        if sum(round_times) + statistics.median(round_times) > seconds:
            break

    result = {
        "workload": name,
        "rounds": len(recs),
        "correct": not errors and not oracle.selftest(),
        "errors": errors,
        "attempted": sum(len(r.ops) for r in recs),
        "failed": sum(r.failed for r in recs),
        "figures": workload.figures(recs),
    }
    if sampler:
        # the reference unit's time over its nominal time: above 1, a slow host
        result["figures"].append(("host_pace", statistics.median(sampler.times) / pace.UNIT_S, "x"))
        for part, kinds in (("small", workload.SMALL), ("large", workload.LARGE)):
            raw = statistics.median(r.seconds(kinds, scaled=False) for r in recs)
            result["figures"].append((f"{part}_ops_unscaled_s", raw, "s"))
    if trace:
        tracer.uninstall()
        metrics, summary = layer_metrics(tracer, build_s + sum(round_times), cli_import)
        os.makedirs(OUT, exist_ok=True)
        tracer.write(os.path.join(OUT, f"{name}.spans.gz"), summary)
    else:
        metrics = {
            "setup_s": (setup, "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "small_ops_s": (statistics.median(r.seconds(workload.SMALL) for r in recs), "s"),
            "large_ops_s": (statistics.median(r.seconds(workload.LARGE) for r in recs), "s"),
        }
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return result


def report(result: dict) -> None:
    print(f"workload {result['workload']}: {result['rounds']} round(s), attempted {result['attempted']}, "
          f"failed {result['failed']}, correct {result['correct']}")
    for line in result["errors"]:
        print(f"  error: {line}")
    for fig, value, unit in result["figures"]:
        print(f"  {fig} = {value:.6g} {unit}")
    for metric, m in result["metrics"].items():
        print(f"  {metric} = {m['value']:.6g} {m['unit']}")


def selftest() -> int:
    """Oracle terms, then each workload's check on its own small outputs, clean and corrupted."""
    import selftest as st

    ad, cli = load_program()
    failures = [f"oracle: {line}" for line in oracle.selftest()] + st.run(ad, cli)
    for line in failures:
        print("FAIL", line)
    print("selftest:", "ok" if not failures else f"{len(failures)} failures")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.selftest:
            return selftest()
        if args.workload is None:
            parser.error("--workload is required")
        names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
        results = []
        for name in names:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
            report(result)
            results.append(result)
    except Unusable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": m for r in results for k, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
