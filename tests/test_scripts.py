"""Each experiment in scripts/ runs end to end on small grids."""

import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args, files",
    [
        pytest.param(
            "boundary_vs_full.py", ["--grid", "8", "--plot-grid", "4"],
            ["cells_boundary.csv", "cells_full.csv", "mc.csv", "model.json", "reach.svg",
             "verdict_boundary.json", "verdict_full.json"],
            id="boundary_vs_full",
        ),
        pytest.param(
            "subset_extraction.py", ["--grid", "8", "--verify-grid", "8"],
            ["cells_subset.csv", "certification.csv", "model.json", "verdict_full.json",
             "verdict_subset.json"],
            id="subset_extraction",
        ),
    ],
)
def test_script_writes_its_artifacts(script, args, files, tmp_path):
    outdir = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--outdir", str(outdir), *args],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in outdir.iterdir()) == files


def test_manifest_diff_finds_no_difference_between_a_tree_and_itself(tmp_path):
    src = str(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "manifest_diff.py"), src, src, "--seeds", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["88 problems, 0 with differences"]


@pytest.mark.parametrize("field, value", [
    ("cells", "1" * 64),
    ("stats", {"cells_certified": 3, "cells_kept": 13, "refinement_level": 1}),
    ("counterexample", [0.25]),
])
def test_manifest_diff_lists_a_cell_change_without_failing(field, value):
    compare = runpy.run_path(str(ROOT / "scripts" / "manifest_diff.py"))["compare"]
    stats = {"mode": "subset", "path": "subset", "input_certified": False, "cells_total": 16,
             "cells_certified": 4, "cells_kept": 12, "cells_propagated": 12,
             "refinement_level": 0}
    record = {"status": "falsified", "stats": stats, "output_hull": [[0.0, 1.0]],
              "counterexample": [0.5], "cells": "0" * 64, "oracle": [[0.25], [0.75]]}
    if field == "stats":
        changed = dict(record, stats=dict(stats, **value))
        want = [f"stats.{k} {stats[k]} -> {v}" for k, v in value.items()]
    else:
        changed = dict(record, **{field: value})
        want = [f"{field} {record[field]} -> {value}"]
    lines, ok = compare({"p/0": record, "p/1": record}, {"p/0": record, "p/1": changed})
    assert lines == ["p/1: " + "; ".join(want)] and ok
