"""The four workloads: inputs made from a seed, one round of operations, checks.

Every round of a workload runs the same list of operations; only the
values drawn from the seed change.  An operation's wall time is recorded
under a kind, and each kind belongs to the workload's small or large
part (`SMALL`, `LARGE`), which the end-to-end metrics sum.  The program
sees only text and spec strings; arc sets are built from spec strings
by `setup_child.build_arc_sets`.

Checks compare against `oracle` (which imports nothing from arcdiag) or
against a property the method must have, never against stored output of
the program.  A check returns a list of error strings; empty means right.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import os
import random
import re
import statistics
import subprocess
import sys
import time
import xml.etree.ElementTree as ET

import oracle as o
from pace import STRETCH_SAMPLES, UNIT_S, Sampler, parse_report

clock = time.perf_counter
MAX_ERRORS = 5
SVG = "{http://www.w3.org/2000/svg}"


class Recorder:
    """Wall time of every operation of one round, by kind, and failed operations.

    With a `pace.Sampler` running, each operation's time leaves out the
    sampler's interrupts, and each stretch of operations with at least
    `pace.STRETCH_SAMPLES` samples is scaled to the reference pace.
    """

    def __init__(self, sampler: Sampler | None = None) -> None:
        self.kinds: list[str] = []
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self.failed = 0
        self.sampler = sampler
        self._pending: list[int] = []
        self._mark = len(sampler.times) if sampler else 0

    def time(self, kind: str, fn, *args):
        s = self.sampler
        spent0 = s.spent if s else 0.0
        t0 = clock()
        out = fn(*args)
        seconds = clock() - t0
        if s:
            seconds -= s.spent - spent0
        self.kinds.append(kind)
        self.raw.append(seconds)
        self.scaled.append(seconds)
        if s:
            self._pending.append(len(self.raw) - 1)
            if len(s.times) - self._mark >= STRETCH_SAMPLES:
                self.finish()
        return out

    def finish(self) -> None:
        """Scale the operations since the last stretch; call once the round has ended."""
        if not self._pending:
            return
        s = self.sampler
        if len(s.times) == self._mark:
            s.sample()  # a stretch shorter than one interval
        factor = UNIT_S / statistics.mean(s.times[self._mark:])
        for i in self._pending:
            self.scaled[i] = self.raw[i] * factor
        self._pending.clear()
        self._mark = len(s.times)

    @property
    def ops(self) -> list[tuple[str, float]]:
        return list(zip(self.kinds, self.scaled))

    def seconds(self, kinds, scaled: bool = True) -> float:
        times = self.scaled if scaled else self.raw
        return sum(s for k, s in zip(self.kinds, times) if k in kinds)

    def count(self, kinds) -> int:
        return sum(1 for k in self.kinds if k in kinds)


class Errors(list):
    def add(self, message: str) -> None:
        if len(self) < MAX_ERRORS:
            self.append(message)
        elif len(self) == MAX_ERRORS:
            self.append("... more errors")


def _body(diagram_text: str) -> str:
    return diagram_text.split("\n", 1)[1] if "\n" in diagram_text else ""


def _arc_count(body: str) -> int:
    return body.count(";") + 1 if body else 0


def _check_ascii(errs: Errors, picture: str, n: int, where: str) -> None:
    rows = picture.rstrip("\n").split("\n")
    if len(rows) != 2 * n - 1:
        errs.add(f"{where}: ascii has {len(rows)} rows, want {2 * n - 1}")
        return
    for h in range(1, n + 1):
        if (str(h) if h <= 9 else "o") not in rows[2 * (n - h)]:
            errs.add(f"{where}: ascii row of point {h} lacks its marker")


def _check_svg(errs: Errors, svg: str, n: int, arcs: int, where: str) -> None:
    try:
        root = ET.fromstring(svg)
    except ET.ParseError as exc:
        errs.add(f"{where}: svg does not parse: {exc}")
        return
    circles = sum(1 for _ in root.iter(SVG + "circle"))
    paths = sum(1 for _ in root.iter(SVG + "path"))
    if circles != n or paths != arcs:
        errs.add(f"{where}: svg has {circles} circles and {paths} paths, want {n} and {arcs}")


def _check_projection(errs: Errors, n: int, keep, ji_masks, x_text: str, y_text: str, where: str) -> None:
    """y is the class bottom of x: below x, uncontracted, above every uncontracted JI below x."""
    x = o.perm_from_text(x_text)
    try:
        y = o.perm_from_text(y_text)
    except ValueError:
        y = ()
    if sorted(y) != list(range(1, n + 1)):
        errs.add(f"{where}: projection of {x_text} is {y_text!r}, not a permutation of {n}")
        return
    inv_x, inv_y = o.inversions(x), o.inversions(y)
    if inv_y & ~inv_x:
        errs.add(f"{where}: projection {y_text} is not below {x_text}")
    if not all(keep(arc) for arc in o.descent_arcs(y)):
        errs.add(f"{where}: projection {y_text} of {x_text} has a contracted arc")
    if any(m & ~inv_x == 0 and m & ~inv_y for m in ji_masks):
        errs.add(f"{where}: an uncontracted join-irreducible below {x_text} is not below {y_text}")


class Workload:
    name = ""
    # where the operations run: in this process, where the sampler
    # interrupts them, or in child processes that sample themselves
    IN_PROCESS = True
    SMALL: frozenset[str] = frozenset()
    LARGE: frozenset[str] = frozenset()

    def plan(self) -> list:
        """Arc sets the workload reuses, as `setup_child.build_arc_sets` items."""
        return []

    def prepare(self, seed: int) -> None:
        raise NotImplementedError

    def run_round(self, ad, sets: dict, rec: Recorder):
        raise NotImplementedError

    def check(self, out) -> list[str]:
        raise NotImplementedError

    def figures(self, recs: list[Recorder]) -> list[tuple[str, float, str]]:
        raise NotImplementedError


def _per_round(recs, fn) -> float:
    return statistics.median(fn(rec) for rec in recs)


def _rate(recs, kinds) -> float:
    return _per_round(recs, lambda r: r.count(kinds) / r.seconds(kinds))


class Roundtrip(Workload):
    """Every permutation of S_n_all, plus random permutations at n_big in comma form."""

    name = "roundtrip"
    SMALL = frozenset({"rt_small", "render"})
    LARGE = frozenset({"rt_big"})

    def __init__(self, n_all: int = 8, n_big: int = 200, big_count: int = 12, render_count: int = 1500):
        self.n_all, self.n_big, self.big_count, self.render_count = n_all, n_big, big_count, render_count

    def prepare(self, seed: int) -> None:
        rng = random.Random(seed)
        words = list(itertools.permutations(range(1, self.n_all + 1)))
        rng.shuffle(words)
        self.small = [(o.perm_text(w), f"n={self.n_all}\n{o.diagram_text(w)}") for w in words]
        # every seed inverts diagrams with the same number of arcs, the
        # commonest descent count, since validation is quadratic in it
        self.big = []
        while len(self.big) < self.big_count:
            w = list(range(1, self.n_big + 1))
            rng.shuffle(w)
            if sum(1 for a, b in zip(w, w[1:]) if a > b) == (self.n_big - 1) // 2:
                self.big.append((o.perm_text(w), f"n={self.n_big}\n{o.diagram_text(w)}"))
        self.render_idx = sorted(rng.sample(range(len(self.small)), min(self.render_count, len(self.small))))

    def run_round(self, ad, sets, rec):
        def trip(text):
            x = ad.parse_permutation(text)
            dtext = ad.format_diagram(ad.diagram_from_permutation(x))
            diagram = ad.parse_diagram(dtext)
            return dtext, diagram, ad.format_permutation(ad.permutation_from_diagram(diagram))

        def render(diagram):
            return ad.render_ascii(diagram), ad.render_svg(diagram)

        # the large trips and the renders are spread over the S_n pass, so
        # that every part of the round samples the host's speed alike
        keep = set(self.render_idx)
        every = max(1, len(self.small) // max(1, len(self.big)))
        small, big, pictures = [], [], []
        for i, (text, _) in enumerate(self.small):
            dtext, diagram, back = rec.time("rt_small", trip, text)
            small.append((dtext, back))
            if i in keep:
                pictures.append(rec.time("render", render, diagram))
            if i % every == every - 1 and len(big) < len(self.big):
                dtext, _, back = rec.time("rt_big", trip, self.big[len(big)][0])
                big.append((dtext, back))
        return {"small": small, "big": big, "render": pictures}

    def check(self, out):
        errs = Errors()
        for label, inputs, results in (("S_n", self.small, out["small"]), ("big", self.big, out["big"])):
            if len(results) != len(inputs):
                errs.add(f"{label}: {len(results)} results for {len(inputs)} inputs")
            for (text, want), (dtext, back) in zip(inputs, results):
                if back != text:
                    errs.add(f"{label}: round trip of {text[:40]} gave {back[:40]}")
                if dtext != want:
                    errs.add(f"{label}: diagram of {text[:40]} is {dtext[:60]!r}, oracle {want[:60]!r}")
        texts = [dtext for dtext, _ in out["small"]]
        if len(set(texts)) != o.factorial(self.n_all):
            errs.add(f"S_n: {len(set(texts))} distinct diagrams, want {o.factorial(self.n_all)}")
        hist = [0] * self.n_all
        for dtext in texts:
            hist[_arc_count(_body(dtext))] += 1
        if tuple(hist) != o.eulerian_row(self.n_all):
            errs.add(f"S_n: arc-count histogram {hist}, Eulerian {o.eulerian_row(self.n_all)}")
        if len(out["render"]) != len(self.render_idx):
            errs.add(f"render: {len(out['render'])} results for {len(self.render_idx)} inputs")
        for idx, (picture, svg) in zip(self.render_idx, out["render"]):
            where = f"render {self.small[idx][0]}"
            _check_ascii(errs, picture, self.n_all, where)
            _check_svg(errs, svg, self.n_all, _arc_count(_body(self.small[idx][1])), where)
        return errs

    def figures(self, recs):
        return [
            (f"roundtrip_rate_n{self.n_all}", _rate(recs, {"rt_small"}), "perms/s"),
            (f"roundtrip_rate_n{self.n_big}", _rate(recs, {"rt_big"}), "perms/s"),
            ("render_rate", _rate(recs, {"render"}), "diagrams/s"),
        ]


class Census(Workload):
    """count_by_arcs on the full arc set at n_full and on sparse quotient specs."""

    name = "census"
    SMALL = frozenset({"quotient"})
    LARGE = frozenset({"full"})
    FULL_COUNTS = 3

    def __init__(self, n_full: int = 9, specs9=("tamari", "baxter", "cambrian:LRLRLRLRL", "clumped:1",
                                                "clumped:2", "maxlen:3", "maxlen:4"),
                 n_sparse: int = 10, sparse=("tamari", "baxter", "cambrian", "maxlen:4")):
        self.n_full, self.specs9, self.n_sparse, self.sparse = n_full, specs9, n_sparse, sparse

    def prepare(self, seed: int) -> None:
        rng = random.Random(seed)
        # an alternating orientation, starting on either side
        phase = rng.choice("LR")
        alt = "".join(phase if i % 2 == 0 else ("R" if phase == "L" else "L") for i in range(self.n_sparse))
        specs = [(self.n_full, s) for s in self.specs9]
        specs += [(self.n_sparse, f"cambrian:{alt}" if s == "cambrian" else s) for s in self.sparse]
        rng.shuffle(specs)
        self.specs = specs
        self.table = o.load_table()
        self.table_n = 9

    def plan(self):
        return [["full", self.n_full]] + [["spec", n, s] for n, s in self.specs]

    def run_round(self, ad, sets, rec):
        # the full count runs FULL_COUNTS times, between slices of the
        # quotient counts, so that it samples the host's speed at several times
        k = self.FULL_COUNTS + 1
        slices = [self.specs[i * len(self.specs) // k:(i + 1) * len(self.specs) // k] for i in range(k)]
        out = {}
        for i, part in enumerate(slices):
            for n, spec in part:
                out[(spec, n)] = rec.time("quotient", ad.count_by_arcs, n, sets[f"{spec}@{n}"]).counts
            if i < self.FULL_COUNTS:
                counts = rec.time("full", ad.count_by_arcs, self.n_full, sets[f"full:{self.n_full}"]).counts
                if out.setdefault(("full", self.n_full), counts) != counts:
                    out[("full", self.n_full)] = (-1,) * self.n_full  # repeats disagree: fails the check
        return out

    def expected(self, spec: str, n: int):
        """(row by arc count or None, total)."""
        name, _, k = spec.partition(":")
        if name == "full":
            return o.eulerian_row(n), o.factorial(n)
        if name in ("tamari", "cambrian"):
            return o.narayana_row(n), o.catalan(n)
        if n == self.table_n and spec in self.table:
            row = self.table[spec]
        elif n < self.table_n:
            row = o.rows_by_descents(n, o.arc_predicate(spec, n))
        else:
            row = None
        if name == "baxter":
            return row, o.baxter(n)
        if name == "maxlen":
            return row, o.prodmin(n, int(k))
        return row, sum(row)

    def check(self, out):
        errs = Errors()
        want_keys = {("full", self.n_full)} | {(s, n) for n, s in self.specs}
        if set(out) != want_keys:
            errs.add(f"counted {sorted(out)}, want {sorted(want_keys)}")
        for (spec, n), counts in out.items():
            row, total = self.expected(spec, n)
            if sum(counts) != total:
                errs.add(f"{spec} n={n}: total {sum(counts)}, want {total}")
            if row is not None and tuple(counts) != tuple(row):
                errs.add(f"{spec} n={n}: row {tuple(counts)}, want {tuple(row)}")
        return errs

    def figures(self, recs):
        return [
            ("census_full_s", _per_round(recs, lambda r: r.seconds({"full"}) / r.count({"full"})), "s"),
            ("census_quotients_s", _per_round(recs, lambda r: r.seconds({"quotient"})), "s"),
        ]


class Quotient(Workload):
    """Projection to class bottoms, quotient listing by two routes, and two DOT exports."""

    name = "quotient"
    SMALL = frozenset({"project"})
    LARGE = frozenset({"list", "hasse", "forcing"})

    def __init__(self, n: int = 8, sample: int = 50, n_forcing: int = 9, gen_len: int = 6, gens: int = 3):
        self.n, self.sample_size, self.n_forcing, self.gen_len, self.gen_count = n, sample, n_forcing, gen_len, gens

    def prepare(self, seed: int) -> None:
        n, rng = self.n, random.Random(seed)
        phase = rng.choice("LR")
        alt = "".join(phase if i % 2 == 0 else ("R" if phase == "L" else "L") for i in range(n))
        # long generators contract few arcs, so the quotient is not tiny
        long_arcs = [arc for arc in o.all_arcs(n) if arc[1] - arc[0] == self.gen_len]
        gens = sorted(rng.sample(long_arcs, self.gen_count), key=lambda arc: (arc[0], arc[1], o.sides(arc)))
        self.gens = [o.arc_text(arc) for arc in gens]
        contract = "contract:" + ",".join(self.gens)
        self.proj_specs = ["tamari", "baxter", "clumped:1", f"cambrian:{alt}", contract]
        self.list_specs = ["clumped:1", contract]
        self.sample = [o.perm_text(w) for w in rng.sample(list(itertools.permutations(range(1, n + 1))), self.sample_size)]
        arcs = o.all_arcs(n)
        self.keep = {spec: o.arc_predicate(spec, n) for spec in self.proj_specs}
        self.ji_masks = {spec: [o.inversions(o.ji_word(n, arc)) for arc in arcs if keep(arc)]
                         for spec, keep in self.keep.items()}
        self.listed = {spec: {o.perm_text(w) for w in o.uncontracted(n, self.keep[spec])} for spec in self.list_specs}
        self.tamari = {o.perm_text(w) for w in o.uncontracted(n, o.arc_predicate("tamari", n))}
        self.forcing_arcs = o.all_arcs(self.n_forcing)

    def plan(self):
        return [["spec", self.n, s] for s in self.proj_specs[:4]] + [["contract", self.n, self.gens]]

    def run_round(self, ad, sets, rec):
        n = self.n

        def project(text, U):
            return ad.format_permutation(ad.project_down(ad.parse_permutation(text), U))

        def listing(fn, U):
            return list(fn(n, U))

        large = [(spec, route) for spec in self.list_specs
                 for route in ("uncontracted_permutations", "uncontracted_by_avoidance")]
        large += [("hasse", None), ("forcing", None)]
        jobs = [(spec, text) for spec in self.proj_specs for text in self.sample]
        # projections run in slices between the large operations
        slices = [jobs[i * len(jobs) // (len(large) + 1):(i + 1) * len(jobs) // (len(large) + 1)]
                  for i in range(len(large) + 1)]
        projections, lists = [], {}
        for part, job in zip(slices, large + [None]):
            for spec, text in part:
                projections.append((spec, text, rec.time("project", project, text, sets[f"{spec}@{n}"])))
            if job is None:
                break
            spec, route = job
            if spec == "hasse":
                weak = rec.time("hasse", ad.export_dot, "weak", n, sets[f"tamari@{n}"])
            elif spec == "forcing":
                forcing = rec.time("forcing", ad.export_dot, "forcing", self.n_forcing)
            else:
                found = rec.time("list", listing, getattr(ad, route), sets[f"{spec}@{n}"])
                lists[(spec, route)] = [ad.format_permutation(x) for x in found]
        return {"project": projections, "lists": lists, "weak": weak, "forcing": forcing}

    def check(self, out):
        errs, n = Errors(), self.n
        if len(out["project"]) != len(self.proj_specs) * len(self.sample):
            errs.add(f"{len(out['project'])} projections, want {len(self.proj_specs) * len(self.sample)}")
        for spec, x_text, y_text in out["project"]:
            _check_projection(errs, n, self.keep[spec], self.ji_masks[spec], x_text, y_text, spec)
        for spec in self.list_specs:
            routes = [out["lists"].get((spec, r), []) for r in ("uncontracted_permutations", "uncontracted_by_avoidance")]
            for found in routes:
                if len(found) != len(set(found)) or set(found) != self.listed[spec]:
                    errs.add(f"{spec}: listing of {len(found)} differs from the oracle's {len(self.listed[spec])}")
        self._check_weak(errs, out["weak"])
        self._check_forcing(errs, out["forcing"])
        return errs

    @staticmethod
    def _dot(text: str):
        nodes, edges = [], []
        for line in text.split("\n"):
            m = re.fullmatch(r'  "([^"]*)" -> "([^"]*)";', line)
            if m:
                edges.append(m.groups())
                continue
            m = re.fullmatch(r'  "([^"]*)";', line)
            if m:
                nodes.append(m.group(1))
        return nodes, edges

    def _check_weak(self, errs: Errors, text: str) -> None:
        n = self.n
        nodes, edges = self._dot(text)
        covers = (n - 1) * o.catalan(n) // 2
        if len(nodes) != o.catalan(n) or set(nodes) != self.tamari:
            errs.add(f"weak export: {len(nodes)} nodes, not the {o.catalan(n)} Tamari bottoms")
        if len(edges) != covers or len(set(edges)) != len(edges):
            errs.add(f"weak export: {len(edges)} covers, want {covers} distinct")
        node_set = set(nodes)
        for x, y in edges:
            if x not in node_set or y not in node_set or x == y or not o.weak_leq(o.perm_from_text(x), o.perm_from_text(y)):
                errs.add(f"weak export: {x} -> {y} is not a weak-order relation between nodes")

    def _check_forcing(self, errs: Errors, text: str) -> None:
        arcs = {o.arc_text(arc): arc for arc in self.forcing_arcs}
        nodes, edges = self._dot(text)
        long_arcs = sum(1 for arc in self.forcing_arcs if arc[1] - arc[0] >= 2)
        if len(nodes) != len(arcs) or set(nodes) != set(arcs):
            errs.add(f"forcing export: {len(nodes)} nodes, want the {len(arcs)} arcs")
        if len(edges) != 2 * long_arcs or len(set(edges)) != len(edges):
            errs.add(f"forcing export: {len(edges)} covers, want {2 * long_arcs} distinct")
        indegree: dict[str, int] = {}
        for lo, hi in edges:
            alpha, beta = arcs.get(lo), arcs.get(hi)
            if alpha is None or beta is None or not o.is_subarc(alpha, beta) or \
                    (beta[1] - beta[0]) != (alpha[1] - alpha[0]) + 1:
                errs.add(f"forcing export: {lo} -> {hi} is not a cover of the subarc order")
            indegree[hi] = indegree.get(hi, 0) + 1
        if any(indegree.get(o.arc_text(arc), 0) != 2 for arc in self.forcing_arcs if arc[1] - arc[0] >= 2):
            errs.add("forcing export: an arc of length >= 2 does not cover exactly two subarcs")

    def figures(self, recs):
        return [
            ("project_rate", _rate(recs, {"project"}), "projections/s"),
            ("quotient_list_s", _per_round(recs, lambda r: r.seconds({"list"})), "s"),
            ("hasse_s", _per_round(recs, lambda r: r.seconds({"hasse"})), "s"),
            ("forcing_dot_s", _per_round(recs, lambda r: r.seconds({"forcing"})), "s"),
        ]


def subprocess_runner(root: str, sampler: Sampler):
    """Run arcdiag's CLI from the checkout's source, one process at a time.

    Each command runs under `cli_child.py`, which samples the pace inside
    the child; its samples and sampling time are added to `sampler`, as if
    this process had taken them during the call.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env.pop("ARCDIAG_MAX_N", None)
    child = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_child.py")

    def run(argv, stdin):
        proc = subprocess.run([sys.executable, child, *argv], input=stdin or "", cwd=root,
                              env=env, capture_output=True, text=True, timeout=170)
        spent, times = parse_report(proc.stderr)
        sampler.spent += spent
        sampler.times.extend(times)
        return proc.returncode, proc.stdout

    return run


def dispatch_runner(cli):
    """Run a command in this process through `arcdiag.cli.dispatch`."""

    def run(argv, stdin):
        out, err, saved = io.StringIO(), io.StringIO(), sys.stdin
        sys.stdin = io.StringIO(stdin or "")
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.dispatch(list(argv))
        finally:
            sys.stdin = saved
        return code, out.getvalue()

    return run


class Cli(Workload):
    """`verify --n-max n_max` plus a fixed batch of small commands, each its own process."""

    name = "cli"
    SMALL = frozenset({"delta", "inverse", "pipe", "project", "render", "delta_big", "inverse_big"})
    LARGE = frozenset({"verify"})
    IN_PROCESS = False
    BIG_N = 50

    def __init__(self, n_max: int = 7, n_small: int = 9):
        self.n_max, self.n_small = n_max, n_small
        self.runner = None

    def prepare(self, seed: int) -> None:
        rng = random.Random(seed)
        m = self.n_small

        def perm(n):
            return tuple(rng.sample(range(1, n + 1), n))

        def body(w):
            return o.diagram_text(w)

        # the two large inputs do not depend on the seed: both calls fail on
        # every run while the CLI caps delta and inverse at ARCDIAG_MAX_N
        big = tuple(random.Random(self.BIG_N).sample(range(1, self.BIG_N + 1), self.BIG_N))
        w = [perm(m), perm(m - 2), perm(m), perm(m - 1), perm(m), perm(m), perm(m - 1), perm(m)]
        self.commands = [
            ("delta", [["delta", o.perm_text(w[0])]], None, w[0]),
            ("delta", [["delta", o.perm_text(w[1])]], None, w[1]),
            ("inverse", [["inverse", body(w[2]), "--n", str(m)]], None, w[2]),
            ("inverse", [["inverse"]], f"n={m - 1}\n{body(w[3])}\n", w[3]),
            ("pipe", [["delta", o.perm_text(w[4])], ["inverse"]], None, w[4]),
            ("project", [["project", o.perm_text(w[5]), "--congruence", "tamari"]], None, ("tamari", w[5])),
            ("project", [["project", o.perm_text(w[6]), "--congruence", "clumped:1"]], None, ("clumped:1", w[6])),
            ("render", [["render", "--ascii", body(w[7]), "--n", str(m)]], None, w[7]),
            ("delta_big", [["delta", o.perm_text(big)]], None, big),
            ("inverse_big", [["inverse", body(big), "--n", str(self.BIG_N)]], None, big),
        ]
        self.verify_expected = self._verify_expected()

    def _verify_expected(self) -> dict:
        """(check name, n) -> repr of the oracle value, for every row `verify` prints."""
        want = {}
        for n in range(1, self.n_max + 1):
            want[("diagram-count", n)] = o.factorial(n)
            want[("arc-count-row", n)] = o.eulerian_row(n)
            want[("distinct-diagrams", n)] = o.factorial(n)
            want[("round-trip-mismatches", n)] = 0
            want[("left-arc-total", n)] = o.catalan(n)
            want[("left-arc-row", n)] = o.narayana_row(n)
            want[("zero-inflection-total", n)] = o.baxter(n)
            want[("matching-vs-consecutive-321", n)] = 0
            if n % 2 == 0:
                want[("perfect-matching-count", n)] = o.alternating(n)
                want[("left-perfect-matching-count", n)] = o.catalan(n // 2)
            for k in range(1, n + 1):
                want[(f"maxlen-{k}-total", n)] = o.prodmin(n, k)
            want[("one-inflection-dual-route", n)] = len(o.uncontracted(n, o.arc_predicate("clumped:1", n)))
        return {key: repr(value) for key, value in want.items()}

    def plan(self):
        return [["cli", 0]]

    def run_round(self, ad, sets, rec):
        run = self.runner

        def call(steps, stdin):
            code, text = 0, stdin
            for argv in steps:
                code, text = run(argv, text)
                if code != 0:
                    break
            return code, text

        # verify runs between the two halves of the small commands
        half = len(self.commands) // 2
        results = []
        for i, (kind, steps, stdin, _) in enumerate(self.commands):
            if i == half:
                verify = rec.time("verify", run, ["verify", "--n-max", str(self.n_max)], None)
                rec.failed += verify[0] != 0
            code, text = rec.time(kind, call, steps, stdin)
            rec.failed += code != 0
            results.append((code, text))
        code, text = verify
        return {"commands": results, "verify": (code, text)}

    def check(self, out):
        errs = Errors()
        for (kind, steps, _, want), (code, text) in zip(self.commands, out["commands"]):
            if code != 0:
                continue  # a failed operation, counted in `failed`
            where = " ".join(steps[0])[:50]
            if kind in ("delta", "delta_big"):
                if text != f"n={len(want)}\n{o.diagram_text(want)}\n":
                    errs.add(f"{where}: printed {text[:60]!r}")
            elif kind in ("inverse", "pipe", "inverse_big"):
                if text != o.perm_text(want) + "\n":
                    errs.add(f"{where}: printed {text[:60]!r}, want {o.perm_text(want)}")
            elif kind == "project":
                spec, x = want
                keep = o.arc_predicate(spec, len(x))
                masks = [o.inversions(o.ji_word(len(x), arc)) for arc in o.all_arcs(len(x)) if keep(arc)]
                _check_projection(errs, len(x), keep, masks, o.perm_text(x), text.strip(), where)
            elif kind == "render":
                _check_ascii(errs, text, len(want), where)
        if len(out["commands"]) != len(self.commands):
            errs.add(f"{len(out['commands'])} command results for {len(self.commands)} commands")
        self._check_verify(errs, *out["verify"])
        return errs

    def _check_verify(self, errs: Errors, code: int, text: str) -> None:
        if code == 1:
            errs.add("verify exited 1: a check of its own failed")
        if code != 0:
            return
        lines = text.rstrip("\n").split("\n")
        seen = set()
        for line in lines[:-1]:
            m = re.fullmatch(r"(ok|FAIL) +n=(\d+) ([^:]+): expected (.*)", line)
            if not m:
                errs.add(f"verify: unreadable row {line!r}")
                continue
            status, n, name, rest = m.groups()
            expected, _, got = rest.rpartition(", got ")
            key = (name, int(n))
            seen.add(key)
            if status != "ok" or expected != got:
                errs.add(f"verify: row {line!r} is not ok")
            if self.verify_expected.get(key) != expected:
                errs.add(f"verify: {name} n={n} expects {expected}, oracle {self.verify_expected.get(key)}")
        if seen != set(self.verify_expected):
            errs.add(f"verify: {len(seen)} rows, oracle lists {len(self.verify_expected)}")
        if lines[-1] != f"{len(self.verify_expected)} checks, all checks passed":
            errs.add(f"verify: last line {lines[-1]!r}")

    def figures(self, recs):
        return [
            ("verify_s", _per_round(recs, lambda r: r.seconds({"verify"})), "s"),
            ("cli_call_s", statistics.median(s for r in recs for k, s in r.ops if k in self.SMALL), "s"),
        ]


WORKLOADS = {w.name: w for w in (Roundtrip, Census, Quotient, Cli)}
