#!/usr/bin/env python3
"""Compare the verdicts of two source trees on the benchmark's manifest problems.

    python3 scripts/manifest_diff.py PARENT_SRC CHANGE_SRC [--seeds 0 7]

Builds the problems of every workload in ``perfbench/workloads.py`` for each
seed, then runs all of them once under each source tree, each tree in its
own subprocess with ``PYTHONPATH`` set to that tree's ``src`` directory.
Each problem's record is its verdict document (`reports.verdict_document`)
without the timing stats (keys ending in ``_ms``), plus a cell digest
(`cell_digest`: a SHA-256 over the verdict's ``cell_batch``, its lattice
ranges, bounds and output hulls), and the workload's oracle sample.  A
problem is listed when any field differs: its status, a stat, the counterexample, the cell
digest or its output hull.  For a moved hull the listing says
whether it lies inside the parent's hull (within 1e-9 per endpoint),
whether it still encloses the oracle sample (a hull of ``boundary`` mode,
which assumes invertibility, need not), and its largest outward and inward
endpoint moves.  The summary line adds the largest outward move over all
problems when any hull moved, since "inside the parent's" allows 1e-9.

Exits 0 when every status is equal and every moved hull encloses the
oracle and, on a Safe or Unknown verdict, lies inside the parent's, and 1
otherwise.  A Falsified verdict rests on its counterexample, not on its
hull, so a change that draws the sample at another level may widen that
hull; and a change may alter the cells on purpose, so a path, cell or stat
difference alone does not fail.
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


def run_tree(src: Path, manifests: list, out: Path) -> dict:
    """pid -> record for every problem, verified under the reachbound in ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src), OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    subprocess.run([sys.executable, __file__, "--worker", str(out), *map(str, manifests)],
                   env=env, check=True, timeout=1800)
    return json.loads(out.read_text(encoding="utf-8"))


def cell_digest(batch) -> str:
    """SHA-256 over a batch's ``index`` and ``b`` as int64, ``lo``, ``hi``, ``out_lo``, ``out_hi``."""
    import numpy as np

    digest = hashlib.sha256()
    for arr in (np.asarray(batch.index, dtype=np.int64), np.asarray(batch.b, dtype=np.int64),
                batch.lo, batch.hi, batch.out_lo, batch.out_hi):
        digest.update(arr.tobytes())
    return digest.hexdigest()


def worker(out: str, manifests: list) -> None:
    import probe
    import reachbound as rb
    from reachbound.reports import verdict_document

    src = Path(os.environ["PYTHONPATH"]).resolve()
    if not Path(rb.__file__).resolve().is_relative_to(src):
        raise ImportError(f"reachbound was imported from {rb.__file__}, not {src}")
    records = {}
    for path in manifests:
        manifest = json.loads(Path(path).read_text(encoding="utf-8"))
        nets = probe.read_models(rb, manifest)
        for p in manifest["problems"]:
            v = rb.verify(probe.build_problem(rb, manifest, nets, p))
            record = verdict_document(v)
            record["stats"] = {k: s for k, s in record["stats"].items() if not k.endswith("_ms")}
            record.update(cells=cell_digest(v.cell_batch), oracle=manifest["oracle"][p["net"]])
            records[f"{manifest['key']}/{p['pid']}"] = record
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


def _changes(old: dict, new: dict, prefix: str = "") -> list:
    """``field old -> new`` for each field that differs, stats one by one."""
    out = []
    for k in dict.fromkeys([*old, *new]):
        a, b = old.get(k), new.get(k)
        if isinstance(a, dict) and isinstance(b, dict):
            out += _changes(a, b, f"{prefix}{k}.")
        elif a != b and k != "output_hull":
            out.append(f"{prefix}{k} {a} -> {b}")
    return out


def hull_moves(old: dict, new: dict) -> tuple:
    """(largest outward, largest inward) endpoint move of the new hull; 0 where none."""
    (ol, oh), (nl, nh) = (zip(*r["output_hull"]) for r in (old, new))
    outward = [a - b for a, b in zip(ol, nl)] + [b - a for a, b in zip(oh, nh)]
    return max([0.0, *outward]), max([0.0, *(-m for m in outward)])


def compare(parent: dict, change: dict) -> tuple:
    """(report lines, whether the change passes) for two runs of the same problems."""
    lines, ok = [], True
    for pid, old in parent.items():
        new = change[pid]
        diffs = _changes(old, new)
        ok &= old["status"] == new["status"]
        if old["output_hull"] != new["output_hull"]:
            (ol, oh), (nl, nh) = (zip(*r["output_hull"]) for r in (old, new))
            inside = all(a >= b - SLACK for a, b in zip(nl, ol)) and all(
                a <= b + SLACK for a, b in zip(nh, oh))
            image_lo, image_hi = new["oracle"]
            encloses = new["stats"].get("assumes_invertible", False) or (
                all(a <= b + SLACK for a, b in zip(nl, image_lo))
                and all(a >= b - SLACK for a, b in zip(nh, image_hi)))
            ok &= encloses and (inside or new["status"] == "falsified")
            outward, inward = hull_moves(old, new)
            diffs.append(f"hull moved, inside the parent's: {inside}, encloses the oracle: "
                         f"{encloses}, outward {outward:.3g}, inward {inward:.3g}")
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
    outward = [hull_moves(old, change[pid])[0] for pid, old in parent.items()
               if old["output_hull"] != change[pid]["output_hull"]]
    summary = f"{len(parent)} problems, {len(lines)} with differences"
    if outward:
        summary += f", largest outward hull move {max(outward):.3g}"
    print(summary)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
