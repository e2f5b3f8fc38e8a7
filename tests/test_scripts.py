"""Each experiment in scripts/ runs end to end on small grids."""

import os
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
