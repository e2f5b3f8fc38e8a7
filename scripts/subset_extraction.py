#!/usr/bin/env python3
"""Subset verification of a non-invertible network.

Uses a seeded 2-7-2 tanh network whose Jacobian determinant changes sign on
[-1,1]^2, so the map is not a homeomorphism there, and which fails the
gradient-row test on the whole box, so subset mode cannot take the faces.
Reports the per-cell determinant certification of a uniform grid, then
verifies safety in subset mode, which drops the interior cells where no
output has a zero gradient, and compares against the full-set baseline.
Subset mode keeps a certified interior cell only inside a node of at most 2
cells per dimension, which its tree keeps whole rather than test cell by
cell.
"""

import argparse
from pathlib import Path

import reachbound as rb
from reachbound import cli
from reachbound.reports import write_reach_cells, write_verdict


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="out/subset_extraction")
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--grid", type=int, default=200)
    ap.add_argument("--verify-grid", type=int, default=60)
    # dropping cells pays only when propagation costs more per cell than the
    # Jacobian tree.  Measured on a shared 2-vCPU Xeon VM with one BLAS
    # thread at --verify-grid 60 (process time of `verify`, best of 15 in one
    # process, the three quietest of five runs): with zonotopes, subset mode
    # takes 1.8 ms against 2.6-2.8 ms for full mode; with plain boxes,
    # 1.5-1.6 ms against 1.0 ms
    ap.add_argument("--domain", choices=rb.domains.DOMAINS, default="zono")
    args = ap.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    net = rb.generate_network(args.seed, (2, 7, 2), "tanh", 2.0)
    rb.write_model(net, outdir / "model.json")
    box = rb.Box.from_bounds([(-1, 1), (-1, 1)])

    whole = rb.certify_homeomorphism(net, box)
    print(f"whole-box determinant: [{whole.det_lo!r}, {whole.det_hi!r}]  "
          f"certified={whole.certified}  "
          f"row test passed={rb.topology.box_passes_row_test(net, box)}")

    # the certify command's per-cell report certifies every cell; subset mode
    # below tests only the interior cells, the ones it may drop, with the
    # gradient-row tree
    print(f"certify --grid {args.grid}:")
    if cli.main(["certify", "--model", str(outdir / "model.json"), "--input", "-1,1;-1,1",
                 "--grid", str(args.grid), "--out", str(outdir / "certification.csv")]):
        raise SystemExit(1)

    mc = rb.monte_carlo(net, box, 100_000, seed=0)
    hull = mc.image_hull
    half = (hull.hi - hull.lo) * 0.5
    safe = rb.Box.from_arrays(hull.midpoint() - 1.25 * half, hull.midpoint() + 1.25 * half)

    rows = []
    for mode in ("full", "subset"):
        verdict = rb.verify(
            rb.VerificationProblem(
                net, box, safe, domain=args.domain, mode=mode,
                grid=(args.verify_grid, args.verify_grid),
            )
        )
        rows.append((mode, verdict.stats["cells_propagated"], verdict.status,
                     verdict.stats["wall_ms"]))
        write_verdict(verdict, outdir / f"verdict_{mode}.json")
        if mode == "subset":
            write_reach_cells(verdict.cell_batch, outdir / "cells_subset.csv")
    print(f"{'mode':<10}{'cells':>8}{'verdict':>10}{'ms':>10}")
    for mode, cells, status, ms in rows:
        print(f"{mode:<10}{cells:>8}{status:>10}{ms:>10.1f}")
    print(f"artifacts written to {outdir}/")


if __name__ == "__main__":
    main()
