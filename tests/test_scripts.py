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
    ("subset_stats", {"cells_total": 16, "cells_certified": 3, "cells_kept": 13}),
])
def test_manifest_diff_lists_a_cell_change_without_failing(field, value):
    compare = runpy.run_path(str(ROOT / "scripts" / "manifest_diff.py"))["compare"]
    record = {"status": "safe", "path": "subset", "cells_propagated": 12,
              "subset_stats": {"cells_total": 16, "cells_certified": 4, "cells_kept": 12},
              "cells": "0" * 64, "assumes_invertible": False, "hull_lo": [(0.0).hex()],
              "hull_hi": [(1.0).hex()], "oracle": [[0.25], [0.75]]}
    parent = {"p/0": record, "p/1": record}
    lines, ok = compare(parent, {"p/0": record, "p/1": dict(record, **{field: value})})
    assert lines == [f"p/1: {field} {record[field]} -> {value}"] and ok
