"""Command-line front end.

Subcommands: verify, compare, certify, mc, plot.  Exit codes for verify:
0 = safe, 1 = unknown, 2 = falsified; any error exits above 2 (3 for
file/value problems, 4 for usage mistakes).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .domains import DOMAINS
from .intervals import Box
from .network import read_model
from .reports import (
    CELL_FULL_COLOR,
    CELL_PARTIAL_COLOR,
    read_mc_points,
    read_reach_cells,
    render_svg,
    verdict_document,
    write_certification,
    write_mc_points,
    write_reach_cells,
    write_verdict,
)
from .topology import _check_determinant_test, certify_cells, grid_cell_batch, grid_counts
from .verifier import (
    FALSIFIED,
    MODES,
    SAFE,
    UNKNOWN,
    VerificationProblem,
    monte_carlo,
    verify,
)

_EXIT = {SAFE: 0, UNKNOWN: 1, FALSIFIED: 2}
_EXIT_ERROR = 3
_EXIT_USAGE = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # box values like "-1,2;-1,2" or "-inf,0" must parse as arguments, not
        # option strings; there are no numeric short options, so anything
        # starting with "-<digit>", "-.", "-inf" or "-nan" is data
        self._negative_number_matcher = re.compile(r"^-([\d.]|inf|nan)", re.IGNORECASE)

    # argparse exits with code 2 by default, which would collide with "falsified"
    def error(self, message):
        raise _UsageError(message)


def parse_box(text: str) -> Box:
    """Parse "lo,hi;lo,hi;..." into a box."""
    dims = []
    for part in text.split(";"):
        pieces = part.split(",")
        if len(pieces) != 2:
            raise ValueError(f"expected 'lo,hi' pairs separated by ';', got {text!r}")
        dims.append((float(pieces[0]), float(pieces[1])))
    return Box.from_bounds(dims)


def parse_grid(text: str | None) -> tuple[int, ...] | None:
    """Parse "c" or "c,c,..." into integer counts; None (no ``--grid``) stays None."""
    return None if text is None else tuple(int(c) for c in text.split(","))


def _problem_from_args(args) -> VerificationProblem:
    """The verification problem a ``verify`` or ``compare`` command line describes."""
    input_box, safe_box = parse_box(args.input), parse_box(args.safe)
    return VerificationProblem(
        net=read_model(args.model),
        input_box=input_box,
        safe_box=safe_box,
        domain=args.domain,
        mode=getattr(args, "mode", "auto"),
        grid=parse_grid(args.grid),
        max_refinements=getattr(args, "max_refine", 0),
        seed=getattr(args, "seed", 0),
        falsify_samples=getattr(args, "falsify_samples", 0),
    )


def cmd_verify(args) -> int:
    verdict = verify(_problem_from_args(args))
    print(json.dumps(verdict_document(verdict), indent=1))
    if args.out:
        write_verdict(verdict, args.out)
    if args.cells_out and verdict.cell_batch is not None:
        write_reach_cells(verdict.cell_batch, args.cells_out)
    return _EXIT[verdict.status]


def cmd_compare(args) -> int:
    """Run boundary, subset and full modes at the same per-cell width.

    ``--out`` writes the three verdict documents.  A box with a zero-width
    dimension has no faces to propagate, so its boundary document has status
    ``n/a`` and a ``reason``.
    """
    base = _problem_from_args(args)
    docs = []
    for mode in ("boundary", "subset", "full"):
        if mode == "boundary" and base.input_box.degenerate_dims():
            docs.append({"status": "n/a", "stats": {"mode": mode}, "output_hull": None,
                         "counterexample": None,
                         "reason": "the input box has a zero-width dimension"})
        else:
            docs.append(verdict_document(verify(replace(base, mode=mode))))
    print(f"{'mode':<8}  {'cells':>8}  {'verdict':>9}  {'time_ms':>10}")
    for doc in docs:
        stats = doc["stats"]
        time_ms = f"{stats['wall_ms']:.2f}" if "wall_ms" in stats else "-"
        cells = stats.get("cells_propagated", "-")
        print(f"{stats['mode']:<8}  {cells:>8}  {doc['status']:>9}  {time_ms:>10}")
    if args.out:
        Path(args.out).write_text(json.dumps(docs, indent=1) + "\n", encoding="utf-8")
    return 0


def cmd_certify(args) -> int:
    net = read_model(args.model)
    input_box = parse_box(args.input)
    counts = grid_counts(parse_grid(args.grid), input_box)
    if input_box.degenerate_dims():
        raise ValueError("certification requires a non-degenerate input box")
    _check_determinant_test(net, input_box.dim)  # before the grid is built
    cells = grid_cell_batch(input_box, counts)  # every grid cell, as full mode builds them
    det_lo, det_hi, certified = certify_cells(net, cells.lo, cells.hi)  # each cell once
    if args.out:
        write_certification(cells.index, det_lo, det_hi, certified, args.out)
    # the cells that touch no face: the interior block [1, c - 1) of the row-major grid
    interior = int(certified.reshape(counts)[tuple(slice(1, c - 1) for c in counts)].sum())
    summary = {"total": cells.count, "certified_interior": interior,
               "kept": cells.count - interior, "certified_cells": int(certified.sum())}
    print(json.dumps(summary, indent=1))
    return 0


def cmd_mc(args) -> int:
    net = read_model(args.model)
    region = parse_box(args.input)
    safe = parse_box(args.safe) if args.safe else None
    result = monte_carlo(net, region, args.samples, args.seed, safe=safe)
    if args.out:
        write_mc_points(result, args.out)
    doc = {
        "samples": int(result.points.shape[0]),
        "image_hull": result.image_hull.bounds(),
        "violations": int(result.violations.shape[0]),
        "first_violation": None
        if result.violations.shape[0] == 0
        else [float(v) for v in result.violations[0]],
    }
    print(json.dumps(doc, indent=1))
    return 0


def cmd_plot(args) -> int:
    layers = []
    for path, color in (
        (args.full_cells, CELL_FULL_COLOR),
        (args.partial_cells, CELL_PARTIAL_COLOR),
    ):
        if path:
            _, lo, hi = read_reach_cells(path)
            layers.append((color, lo, hi))
    mc_points = read_mc_points(args.mc) if args.mc else None
    safe = parse_box(args.safe) if args.safe else None
    svg = render_svg(layers, mc_points, safe, args.proj)
    Path(args.out).write_text(svg, encoding="utf-8")
    return 0


def _add_common(parser, *, safe_required: bool) -> None:
    parser.add_argument("--model", required=True, help="model JSON path")
    parser.add_argument("--input", required=True, help='input box "lo,hi;lo,hi;..."')
    parser.add_argument(
        "--safe", required=safe_required, help='safe box "lo,hi;lo,hi;..."'
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="reachbound", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="verify one problem and emit a verdict")
    _add_common(p, safe_required=True)
    p.add_argument("--grid", help="per-dim cell counts, e.g. 100 or 100,50")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--domain", choices=DOMAINS, default="box")
    p.add_argument("--mode", choices=MODES, default="auto")
    p.add_argument("--max-refine", type=int, default=0,
                   help="grid doublings on unknown, in every mode")
    p.add_argument("--falsify-samples", type=int, default=0)
    p.add_argument("--out", help="write the verdict JSON here too")
    p.add_argument("--cells-out", help="write per-cell reach hulls CSV")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("compare", help="run boundary, subset and full at equal cell width")
    _add_common(p, safe_required=True)
    p.add_argument("--grid", help="per-dim cell counts, e.g. 100 or 100,50")
    p.add_argument("--domain", choices=DOMAINS, default="box")
    p.add_argument("--out", help="write the three verdict documents as JSON")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("certify", help="per-cell homeomorphism certification")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--grid")
    p.add_argument("--out", help="write the per-cell CSV here")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("mc", help="Monte-Carlo image sampling")
    _add_common(p, safe_required=False)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--out", help="write sampled points CSV")
    p.set_defaults(func=cmd_mc)

    p = sub.add_parser("plot", help="render reach cells, MC points and safe box to SVG")
    p.add_argument("--full-cells", help="reach-cell CSV drawn in blue")
    p.add_argument("--partial-cells", help="boundary/subset reach-cell CSV drawn in red")
    p.add_argument("--mc", help="MC points CSV drawn in yellow")
    p.add_argument("--safe", help="safe box outline drawn in green")
    p.add_argument("--proj", type=int, nargs=2, help="output dims to project onto")
    p.add_argument("--out", required=True, help="SVG output path")
    p.set_defaults(func=cmd_plot)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    try:
        # overflow becomes exit 3 through Box's non-finite check, in either
        # domain; numpy's RuntimeWarnings would only show internals on stderr
        with np.errstate(all="ignore"):
            return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
