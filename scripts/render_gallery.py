"""Render every diagram of S_n (or of a quotient) to a directory of SVGs.

Files are named by the permutation whose diagram they draw, and an
index.html stitches them into a single scrollable page.

    python3 scripts/render_gallery.py 4 --out gallery4
    python3 scripts/render_gallery.py 5 --congruence tamari --out tamari5 --ascii
"""
from __future__ import annotations

import argparse
import html
from pathlib import Path

from arcdiag import (
    diagram_from_permutation,
    format_diagram_body,
    format_permutation,
    full_arc_set,
    render_ascii,
    render_svg,
    uncontracted_permutations,
)
from arcdiag.textforms import parse_congruence_spec


def run(n: int, out: Path, congruence: str | None, ascii_mode: bool) -> None:
    # the permutations whose diagrams lie in the congruence's arcs, in lexicographic order
    arcset = parse_congruence_spec(congruence, n) if congruence else full_arc_set(n)
    pairs = [(format_permutation(x), diagram_from_permutation(x)) for x in uncontracted_permutations(n, arcset)]
    if ascii_mode:
        for word, d in pairs:
            print(f"{word}  {format_diagram_body(d)}")
            print(render_ascii(d))
            print()
        print(f"{len(pairs)} diagrams")
        return

    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for word, d in pairs:
        name = f"{word.replace(',', '-')}.svg"
        (out / name).write_text(render_svg(d), encoding="utf-8")
        caption = html.escape(f"{word}  {format_diagram_body(d)}".rstrip())
        rows.append(
            f'<figure><img src="{name}" alt="{caption}"><figcaption>{caption}</figcaption></figure>'
        )
    index = (
        "<!doctype html><meta charset='utf-8'><title>arc diagrams</title>"
        "<style>figure{display:inline-block;margin:8px;text-align:center;"
        "font-family:monospace}</style>\n" + "\n".join(rows) + "\n"
    )
    (out / "index.html").write_text(index, encoding="utf-8")
    print(f"wrote {len(pairs)} diagrams to {out}/")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("n", type=int)
    parser.add_argument("--congruence", default=None, help="tamari | baxter | cambrian:<dirs> | clumped:<k> | maxlen:<k>")
    parser.add_argument("--out", type=Path, default=Path("gallery"))
    parser.add_argument("--ascii", action="store_true", help="print ASCII art to stdout instead of writing SVGs")
    args = parser.parse_args()
    run(args.n, args.out, args.congruence, args.ascii)


if __name__ == "__main__":
    main()
