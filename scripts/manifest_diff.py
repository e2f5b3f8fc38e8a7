#!/usr/bin/env python3
"""Compare the verdicts of two source trees on the benchmark's manifest problems.

    python3 scripts/manifest_diff.py PARENT_SRC CHANGE_SRC [--seeds 0 7]

Builds the problems of every workload in ``perfbench/workloads.py`` for each
seed, then runs all of them once under each source tree, each tree in its
own subprocess with ``PYTHONPATH`` set to that tree's ``src`` directory.  A
problem is listed when its status, path, ``cells_propagated``, subset stats
(``cells_total``, ``cells_certified``, ``cells_kept``), cell digest or the
bytes of its output hull differ.  The cell digest is a SHA-256 over the
verdict's ``cell_batch``: ``index`` as int64, ``out_lo`` and ``out_hi``.
For a moved hull the listing says whether it lies inside the parent's hull
(within 1e-9 per endpoint) and whether it still encloses the workload's
oracle sample; a hull of ``boundary`` mode, which assumes invertibility,
need not.  Timing stats are never compared.

Exits 0 when every status is equal and every moved hull lies inside the
parent's and encloses the oracle, and 1 otherwise: a change may alter the
cells on purpose, so a path, cell or stat difference alone does not fail.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

SLACK = 1e-9
SUBSET_STATS = ("cells_total", "cells_certified", "cells_kept")


def run_tree(src: Path, manifests: list, out: Path) -> dict:
    """pid -> record for every problem, verified under the reachbound in ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src), OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    subprocess.run([sys.executable, __file__, "--worker", str(out), *map(str, manifests)],
                   env=env, check=True, timeout=1800)
    return json.loads(out.read_text(encoding="utf-8"))


def worker(out: str, manifests: list) -> None:
    import numpy as np
    import probe
    import reachbound as rb

    src = Path(os.environ["PYTHONPATH"]).resolve()
    if not Path(rb.__file__).resolve().is_relative_to(src):
        raise ImportError(f"reachbound was imported from {rb.__file__}, not {src}")
    records = {}
    for path in manifests:
        manifest = json.loads(Path(path).read_text(encoding="utf-8"))
        nets = probe.read_models(rb, manifest)
        for p in manifest["problems"]:
            v = rb.verify(probe.build_problem(rb, manifest, nets, p))
            hull, cells = v.output_hull, v.cell_batch
            digest = hashlib.sha256()
            for arr in (np.asarray(cells.index, dtype=np.int64), cells.out_lo, cells.out_hi):
                digest.update(arr.tobytes())
            records[f"{manifest['key']}/{p['pid']}"] = {
                "status": v.status,
                "path": v.stats.get("path", v.stats["mode"]),
                "cells_propagated": v.stats["cells_propagated"],
                "subset_stats": {k: v.stats[k] for k in SUBSET_STATS if k in v.stats},
                "cells": digest.hexdigest(),
                "assumes_invertible": v.stats.get("assumes_invertible", False),
                "hull_lo": [float(x).hex() for x in hull.lo],
                "hull_hi": [float(x).hex() for x in hull.hi],
                "oracle": manifest["oracle"][p["net"]],
            }
    Path(out).write_text(json.dumps(records), encoding="utf-8")


def write_manifests(seeds, tmp: Path) -> list:
    import workloads

    paths = []
    for name, build in workloads.WORKLOADS.items():
        for seed in seeds:
            wl = build(seed)
            key = f"{name}/seed{seed}"
            manifest = wl.manifest(tmp / name / f"seed{seed}")
            manifest["key"] = key
            manifest["oracle"] = {n: [lo.tolist(), hi.tolist()] for n, (lo, hi) in wl.oracle.items()}
            path = tmp / name / f"seed{seed}.json"
            path.write_text(json.dumps(manifest), encoding="utf-8")
            paths.append(path)
    return paths


def compare(parent: dict, change: dict) -> tuple:
    """(report lines, whether the change passes) for two runs of the same problems."""
    lines, ok = [], True
    for pid, old in parent.items():
        new = change[pid]
        diffs = [f"{k} {old[k]} -> {new[k]}"
                 for k in ("status", "path", "cells_propagated", "subset_stats", "cells")
                 if old[k] != new[k]]
        ok &= old["status"] == new["status"]
        if (old["hull_lo"], old["hull_hi"]) != (new["hull_lo"], new["hull_hi"]):
            ol, oh, nl, nh = ([float.fromhex(x) for x in r[k]]
                              for r in (old, new) for k in ("hull_lo", "hull_hi"))
            inside = all(a >= b - SLACK for a, b in zip(nl, ol)) and all(
                a <= b + SLACK for a, b in zip(nh, oh))
            image_lo, image_hi = new["oracle"]
            encloses = new["assumes_invertible"] or (
                all(a <= b + SLACK for a, b in zip(nl, image_lo))
                and all(a >= b - SLACK for a, b in zip(nh, image_hi)))
            ok &= inside and encloses
            diffs.append(f"hull moved, inside the parent's: {inside}, encloses the oracle: {encloses}")
        if diffs:
            lines.append(f"{pid}: " + "; ".join(diffs))
    return lines, ok


def main() -> int:
    if sys.argv[1:2] == ["--worker"]:
        worker(sys.argv[2], sys.argv[3:])
        return 0
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", type=Path, help="the parent's src directory")
    ap.add_argument("change", type=Path, help="the change's src directory")
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 7])
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        manifests = write_manifests(args.seeds, tmp)
        parent = run_tree(args.parent.resolve(), manifests, tmp / "parent.json")
        change = run_tree(args.change.resolve(), manifests, tmp / "change.json")
    lines, ok = compare(parent, change)
    for line in lines:
        print(line)
    print(f"{len(parent)} problems, {len(lines)} with differences")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
