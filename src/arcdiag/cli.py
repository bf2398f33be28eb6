"""Command line front end.

Every subcommand prints plain text on stdout and returns an exit code:
0 for success, 1 when a verification check fails, 2 for unusable input
(bad flags, malformed text, out-of-range sizes).  `delta` and `project` take
any n >= 1, and `inverse` and `render` any n up to sys.maxsize, the longest
list Python can build: their work grows polynomially with n, and `project`
walks with its congruence's key rule, building no arc set.  The commands whose work grows with all arcs or all of S_n
(`enumerate`, `complex`, `export`, `verify`) refuse sizes above the cap
in ARCDIAG_MAX_N (default 9) up front; `verify` stops at VERIFY_MAX_N
(8) below that.  Integer flags, like ARCDIAG_MAX_N, take ASCII digits only.
"""
from __future__ import annotations

import argparse
import functools
import os
import sys

from .arcs import ArcSet, _shown, full_arc_set
from .congruences import _walk
from .counting import VERIFY_MAX_N, count_by_arcs, verify_report
from .diagrams import Diagram, diagram_from_permutation, enumerate_diagrams, permutation_from_diagram
from .render import export_dot, render_ascii, render_svg
from .textforms import (
    _spec_rule,
    _whole_int,
    format_diagram,
    format_diagram_body,
    format_permutation,
    parse_congruence_spec,
    parse_diagram,
    parse_diagram_body,
    parse_permutation,
)

DEFAULT_MAX_N = 9


def _ascii_int(raw: str) -> int:
    """A whole number in ASCII digits, as every parser reads one: int() also takes "1_0", "+3", " 3 " and "٣"."""
    try:
        return _whole_int(raw, "expected a whole number in ASCII digits")
    except ValueError as exc:  # argparse prints this error's message, where it would echo all of `raw`
        raise argparse.ArgumentTypeError(str(exc)) from None


def _max_n() -> int:
    raw = os.environ.get("ARCDIAG_MAX_N", "").strip()
    try:
        limit = _whole_int(raw, "expected ASCII digits") if raw else DEFAULT_MAX_N
    except ValueError:
        limit = 0
    if limit < 1:
        raise ValueError(f"ARCDIAG_MAX_N must be an integer of at least 1, not {_shown(raw)!r}")
    return limit


def _check_n(n: int) -> int:
    limit = _max_n()
    if not 1 <= n <= limit:
        raise ValueError(f"n must be between 1 and {limit} (ARCDIAG_MAX_N), got {_shown(n)}")
    return n


def _check_positive(n: int) -> None:
    if n < 1:  # `ArcSet` refuses n above sys.maxsize
        raise ValueError(f"n must be at least 1, got {n}")


def _read_diagram(args: argparse.Namespace) -> Diagram:
    text = args.diagram if args.diagram is not None else sys.stdin.read()
    if text.lstrip().startswith("n="):
        diagram = parse_diagram(text)
        _check_positive(diagram.n)
        if args.n is not None and args.n != diagram.n:
            raise ValueError(f"--n {_shown(args.n)} does not match a diagram on {diagram.n} points")
        return diagram
    if args.n is None:
        raise ValueError("a bare diagram body needs --n")
    _check_positive(args.n)
    return parse_diagram_body(text.rstrip("\n"), args.n)


def _cmd_delta(args: argparse.Namespace) -> int:
    x = parse_permutation(args.perm)
    print(format_diagram(diagram_from_permutation(x)))
    return 0


def _cmd_inverse(args: argparse.Namespace) -> int:
    diagram = _read_diagram(args)
    print(format_permutation(permutation_from_diagram(diagram)))
    return 0


def _listed_congruence(args: argparse.Namespace) -> tuple[int, ArcSet]:
    """The checked --n and the arcs of --congruence, all arcs without one."""
    n = _check_n(args.n)
    return n, parse_congruence_spec(args.congruence, n) if args.congruence else full_arc_set(n)


def _print_diagrams(n: int, arcset: ArcSet) -> int:
    """Print every diagram drawn from `arcset`, one body per line; return how many."""
    total = 0
    for diagram in enumerate_diagrams(n, arcset):
        print(format_diagram_body(diagram))
        total += 1
    return total


def _cmd_enumerate(args: argparse.Namespace) -> int:
    n, arcset = _listed_congruence(args)
    if args.by_arcs:
        table = count_by_arcs(n, arcset)
        for k, count in enumerate(table.counts):
            print(f"arcs={k} count={count}")
        print(f"total {table.total}")
        return 0
    print(f"total {_print_diagrams(n, arcset)}")
    return 0


def _cmd_project(args: argparse.Namespace) -> int:
    x = parse_permutation(args.perm)
    if args.n is not None and args.n != x.n:
        raise ValueError(f"--n {_shown(args.n)} does not match a permutation of {x.n}")
    print(format_permutation(_walk(x, _spec_rule(args.congruence, x.n), down=True)))
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    diagram = _read_diagram(args)
    if args.svg:
        print(render_svg(diagram))
    else:
        print(render_ascii(diagram))
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    n = _check_n(args.n)
    kind = "forcing" if args.forcing else "weak"
    arcset = None
    if args.congruence is not None:
        if kind == "forcing":
            raise ValueError("--congruence only applies to --weak")
        arcset = parse_congruence_spec(args.congruence, n)
    print(export_dot(kind, n, arcset))
    return 0


def _cmd_complex(args: argparse.Namespace) -> int:
    # the faces of the canonical join complex are the diagrams drawn from the arcs
    _print_diagrams(*_listed_congruence(args))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    limit = min(_max_n(), VERIFY_MAX_N)
    if not 1 <= args.n_max <= limit:
        raise ValueError(f"--n-max must be between 1 and {limit}, got {_shown(args.n_max)}")
    report = verify_report(args.n_max)
    print(report.to_json() if args.json else report.to_text())
    return 0 if report.passed else 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="arcdiag",
        description="Noncrossing arc diagrams for permutations and their lattice quotients.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("delta", help="map a permutation to its arc diagram")
    p.add_argument("perm", help="permutation, digits (n<=9) or comma separated")
    p.set_defaults(handler=_cmd_delta)

    p = sub.add_parser("inverse", help="map an arc diagram back to its permutation")
    p.add_argument("diagram", nargs="?", default=None, help="diagram body; omit to read the n=... form from stdin")
    p.add_argument("--n", type=_ascii_int, default=None, help="number of points for a bare body")
    p.set_defaults(handler=_cmd_inverse)

    p = sub.add_parser("enumerate", help="list all diagrams, optionally inside a congruence")
    p.add_argument("--n", type=_ascii_int, required=True)
    p.add_argument("--congruence", default=None, help="tamari | baxter | cambrian:<dirs> | clumped:<k> | maxlen:<k>")
    p.add_argument("--by-arcs", action="store_true", help="print counts per arc number instead of diagrams")
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("project", help="project a permutation down to its class bottom")
    p.add_argument("perm")
    p.add_argument("--congruence", required=True)
    p.add_argument("--n", type=_ascii_int, default=None, help="optional size cross-check")
    p.set_defaults(handler=_cmd_project)

    p = sub.add_parser("render", help="draw a diagram")
    p.add_argument("diagram", nargs="?", default=None)
    p.add_argument("--n", type=_ascii_int, default=None)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--ascii", action="store_true")
    mode.add_argument("--svg", action="store_true")
    p.set_defaults(handler=_cmd_render)

    p = sub.add_parser("export", help="emit DOT for the forcing order or the weak order")
    p.add_argument("--n", type=_ascii_int, required=True)
    kind = p.add_mutually_exclusive_group(required=True)
    kind.add_argument("--forcing", action="store_true")
    kind.add_argument("--weak", action="store_true")
    p.add_argument("--congruence", default=None, help="restrict --weak to a quotient")
    p.set_defaults(handler=_cmd_export)

    p = sub.add_parser("complex", help="list the faces of an arc complex")
    p.add_argument("--n", type=_ascii_int, required=True)
    p.add_argument("--congruence", default=None)
    p.set_defaults(handler=_cmd_complex)

    p = sub.add_parser("verify", help="recompute the headline counts and compare")
    p.add_argument("--n-max", type=_ascii_int, default=6)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_verify)

    return parser


def dispatch(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    try:
        code = dispatch()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left (`| head`): end quietly, and let the last flush hit devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 0
    sys.exit(code)


if __name__ == "__main__":
    main()
