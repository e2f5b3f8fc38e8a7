#!/usr/bin/env python3
"""Boundary-only versus full-set verification on a certified invertible network.

Generates a seeded 2-5-2 tanh network whose Jacobian determinant excludes zero
on the whole unit square, then verifies the same safety property by
propagating (a) every grid cell and (b) only the boundary cells, at matching
cell widths.  Writes the model, verdicts, reach-cell dumps, Monte-Carlo
samples and an overlay SVG into the output directory.
"""

import argparse
import json
import time
from pathlib import Path

import numpy as np

import reachbound as rb
from reachbound.reports import (
    CELL_FULL_COLOR,
    CELL_PARTIAL_COLOR,
    render_svg,
    write_mc_points,
    write_reach_cells,
    write_verdict,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="out/boundary_vs_full")
    ap.add_argument("--seed", type=int, default=25)
    ap.add_argument("--grid", type=int, default=100)
    ap.add_argument("--plot-grid", type=int, default=24, help="coarser grid for the SVG")
    args = ap.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    net = rb.generate_network(args.seed, (2, 5, 2), "tanh", 0.8)
    rb.write_model(net, outdir / "model.json")
    box = rb.Box.from_bounds([(0, 1), (0, 1)])

    det_lo, det_hi, certified = rb.certify_homeomorphism(net, box)
    print(f"whole-box determinant: [{det_lo!r}, {det_hi!r}]  certified={certified}")

    # one sample sets the safe box and is both written and drawn, so
    # `reachbound plot` on the written CSVs rebuilds the figure
    mc = rb.monte_carlo(net, box, 2000, seed=0)
    hull = mc.image_hull
    half = (hull.hi - hull.lo) * 0.5
    safe = rb.Box.from_arrays(hull.midpoint() - 1.3 * half, hull.midpoint() + 1.3 * half)
    print(f"safe box from inflated MC hull: {safe}")

    rows = []
    for mode in ("full", "boundary"):
        problem = rb.VerificationProblem(
            net, box, safe, mode=mode, grid=(args.grid, args.grid)
        )
        t0 = time.perf_counter()
        verdict = rb.verify(problem)
        elapsed = time.perf_counter() - t0
        rows.append((mode, verdict.stats["cells_propagated"], verdict.status, elapsed))
        write_verdict(verdict, outdir / f"verdict_{mode}.json")
    print(f"{'mode':<10}{'cells':>8}{'verdict':>10}{'seconds':>10}")
    for mode, cells, status, secs in rows:
        print(f"{mode:<10}{cells:>8}{status:>10}{secs:>10.4f}")
    reduction = 100.0 * (1.0 - rows[1][1] / rows[0][1])
    print(f"boundary mode propagates {reduction:.1f}% fewer cells")

    # coarser run for a readable figure
    dumps = {}
    for mode in ("full", "boundary"):
        problem = rb.VerificationProblem(
            net, box, safe, mode=mode, grid=(args.plot_grid, args.plot_grid)
        )
        verdict = rb.verify(problem)
        path = outdir / f"cells_{mode}.csv"
        write_reach_cells(verdict.cell_batch, path)
        dumps[mode] = verdict.cell_batch
    write_mc_points(mc, outdir / "mc.csv")
    svg = render_svg(
        [
            (CELL_FULL_COLOR, dumps["full"].out_lo, dumps["full"].out_hi),
            (CELL_PARTIAL_COLOR, dumps["boundary"].out_lo, dumps["boundary"].out_hi),
        ],
        mc.images,
        safe,
    )
    (outdir / "reach.svg").write_text(svg, encoding="utf-8")
    print(f"artifacts written to {outdir}/")


if __name__ == "__main__":
    main()
