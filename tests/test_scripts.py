"""Each experiment in scripts/ runs end to end on small grids; the benchmark pair runner
is checked on canned run lines, since tier-1 runs no benchmark, and the mutant catalogue
on its snippets, since tier-1 runs no mutant."""

import json
import os
import re
import runpy
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import reachbound as rb
from reachbound import cli
from reachbound.topology import CellBatch, grid_cell_batch
from reachbound.verifier import propagate_cells
from mutants import MUTANTS

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
    run_script(script, outdir, *args)
    assert sorted(p.name for p in outdir.iterdir()) == files


def run_script(script, outdir, *args) -> str:
    """Run one experiment script into `outdir`; returns what it prints."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--outdir", str(outdir), *args],
        cwd=outdir.parent,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.fixture(scope="module")
def default_runs(tmp_path_factory):
    """Both experiment scripts at their default arguments: script -> (outdir, printed text)."""
    runs = {}
    for script in ("boundary_vs_full.py", "subset_extraction.py"):
        outdir = tmp_path_factory.mktemp("defaults") / "out"
        runs[script] = outdir, run_script(script, outdir)
    return runs


def printed_cells(text) -> dict:
    """The cells each mode propagated, from a script's table of modes."""
    return {m: int(c) for m, c in re.findall(r"^(full|boundary|subset) +(\d+) ", text, re.M)}


def test_readme_quotes_the_experiment_cell_counts(default_runs):
    cells = {script: printed_cells(text) for script, (_, text) in default_runs.items()}
    b, s = cells["boundary_vs_full.py"], cells["subset_extraction.py"]
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    quoted = dict(re.findall(r"^python scripts/(\S+) +# (.*)$", readme, re.M))
    assert quoted == {
        "boundary_vs_full.py": f"certified net: {b['boundary']} boundary vs {b['full']} full cells",
        "subset_extraction.py":
            f"sign-varying det: subset mode keeps {s['subset']} of {s['full']} cells",
    }


def test_reachbound_plot_rebuilds_the_boundary_vs_full_figure(default_runs, tmp_path):
    outdir, text = default_runs["boundary_vs_full.py"]
    bounds = re.search(r"^safe box from inflated MC hull: (.*)$", text, re.M).group(1)
    safe = ";".join(re.findall(r"\[(\S+, \S+)\]", bounds)).replace(" ", "")
    rebuilt = tmp_path / "reach.svg"
    assert cli.main([
        "plot", "--full-cells", str(outdir / "cells_full.csv"),
        "--partial-cells", str(outdir / "cells_boundary.csv"), "--mc", str(outdir / "mc.csv"),
        "--safe", safe, "--out", str(rebuilt),
    ]) == 0
    assert rebuilt.read_bytes() == (outdir / "reach.svg").read_bytes()


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


def test_manifest_diff_cell_digest_reads_the_ranges_and_bounds():
    cell_digest = runpy.run_path(str(ROOT / "scripts" / "manifest_diff.py"))["cell_digest"]
    net = rb.generate_network(0, (2, 4, 2))
    batch = propagate_cells(net, grid_cell_batch(rb.Box.from_bounds([(0, 1)] * 2), (3, 3)), "box")
    digest = cell_digest(batch)
    assert digest == cell_digest(batch) and len(digest) == 64
    moved = batch.lo.copy()
    moved[4, 1] = np.nextafter(moved[4, 1], -np.inf)
    assert cell_digest(CellBatch(batch.grid, batch.index, batch.b, moved, batch.hi,
                                 batch.out_lo, batch.out_hi)) != digest
    b = batch.b.copy()
    b[4, 0] += 1
    assert cell_digest(CellBatch(batch.grid, batch.index, b, batch.lo, batch.hi,
                                 batch.out_lo, batch.out_hi)) != digest


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


def test_manifest_diff_says_how_far_a_hull_moved(monkeypatch, capsys):
    ns = runpy.run_path(str(ROOT / "scripts" / "manifest_diff.py"))
    stats = {"mode": "full", "cells_propagated": 16, "refinement_level": 0}
    record = {"status": "safe", "stats": stats, "output_hull": [[0.0, 1.0], [-2.0, 2.0]],
              "counterexample": None, "cells": "0" * 64, "oracle": [[0.25, -1.0], [0.75, 1.0]]}
    # dimension 0 widens by 1e-12 below and narrows by 2^-40 above; dimension 1 stays
    moved = dict(record, output_hull=[[-1e-12, 1.0 - 2.0**-40], [-2.0, 2.0]])
    lines, ok = ns["compare"]({"p/0": record, "p/1": record}, {"p/0": record, "p/1": moved})
    assert ok and lines == ["p/1: hull moved, inside the parent's: True, encloses the oracle: "
                            "True, outward 1e-12, inward 9.09e-13"]
    # the summary line reports the largest outward move over all problems
    runs = {"parent": {"p/0": record, "p/1": record}, "change": {"p/0": moved, "p/1": moved}}
    script = ns["main"].__globals__  # run_path returns a copy of the script's globals
    monkeypatch.setitem(script, "write_manifests", lambda seeds, tmp: [])
    monkeypatch.setitem(script, "run_tree", lambda src, manifests, out: runs[src.name])
    monkeypatch.setattr(sys, "argv", ["manifest_diff.py", "parent", "change"])
    assert ns["main"]() == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "2 problems, 2 with differences, largest outward hull move 1e-12"


@pytest.mark.parametrize("status, passes", [("falsified", True), ("unknown", False),
                                            ("safe", False)])
def test_manifest_diff_lets_only_a_falsified_hull_widen(status, passes):
    compare = runpy.run_path(str(ROOT / "scripts" / "manifest_diff.py"))["compare"]
    stats = {"mode": "auto", "path": "subset", "cells_propagated": 16, "refinement_level": 1}
    record = {"status": status, "stats": stats, "output_hull": [[0.0, 1.0]],
              "counterexample": None, "cells": "0" * 64, "oracle": [[0.25], [0.75]]}
    # a coarser level's hull: wider than the parent's, and still around the oracle sample
    wider = dict(record, output_hull=[[-0.5, 1.0]])
    lines, ok = compare({"p/0": record}, {"p/0": wider})
    assert ok is passes and lines == ["p/0: hull moved, inside the parent's: False, encloses "
                                      "the oracle: True, outward 0.5, inward 0"]
    # a hull that no longer encloses the oracle fails in every status
    short = dict(record, output_hull=[[0.5, 1.0]])
    assert compare({"p/0": record}, {"p/0": short})[1] is False


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m["name"] for m in MUTANTS])
def test_every_mutant_snippet_occurs_once(mutant):
    # `scripts/mutate.py` runs the catalogue; this keeps it applicable to the tree
    assert mutant["old"] != mutant["new"] and mutant["tests"]
    assert (ROOT / mutant["file"]).read_text(encoding="utf-8").count(mutant["old"]) == 1
    for test in mutant["tests"]:
        path, _, name = test.partition("::")
        assert f"def {name.split('[')[0]}(" in (ROOT / path).read_text(encoding="utf-8")


def test_mutate_touching_selects_the_mutants_of_the_files_named():
    touching = runpy.run_path(str(ROOT / "scripts" / "mutate.py"))["touching"]
    intervals = [m for m in MUTANTS if m["file"] == "src/reachbound/intervals.py"]
    assert intervals and touching(MUTANTS, ["src/reachbound/intervals.py"]) == intervals
    assert touching(MUTANTS, ["./src/reachbound/intervals.py"]) == intervals
    assert touching(MUTANTS, ["src/reachbound/nowhere.py"]) == []
    assert touching(MUTANTS, None) == MUTANTS


def bench_run_line(pps, p50, failed=0):
    """One ``perfbench/run.py`` result line."""
    return json.dumps({"correct": failed == 0, "attempted": 100, "failed": failed,
                       "metrics": {"problems_per_s": {"value": pps, "unit": "1/s"},
                                   "verify_ms_p50": {"value": p50, "unit": "ms"}}})


def test_bench_pairs_summarizes_canned_runs():
    ns = runpy.run_path(str(ROOT / "scripts" / "bench_pairs.py"))
    parse = lambda line: ns["last_json_line"](f"workload planar-zono seed 3: 1 call\n{line}\n")
    parent = [(100.0, 2.0), (110.0, 2.0), (120.0, 2.0), (130.0, 2.0)]
    change = [(120.0, 1.0), (110.0, 3.0), (150.0, 2.0), (125.0, 1.5)]
    pairs = [(parse(bench_run_line(*p)), parse(bench_run_line(*c, failed=int(i == 2))))
             for i, (p, c) in enumerate(zip(parent, change))]
    specs = {"problems_per_s": {"better": "higher", "bound": 0.25},
             "verify_ms_p50": {"better": "lower", "bound": 0.25}}
    series = ns["summarize"](pairs, specs)
    assert series["pairs"] == 4 and series["failed"] == {"parent": 0, "change": 1}
    assert series["correct"] is False
    pps = series["metrics"]["problems_per_s"]
    # inclusive quartiles of 100..130; a tie (110 against 110) counts for neither side
    assert pps["parent"] == {"median": 115.0, "q1": 107.5, "q3": 122.5}
    assert pps["change"] == {"median": 122.5, "q1": 117.5, "q3": 131.25}
    assert pps["wins"] == 2 and pps["unit"] == "1/s"
    assert pps["parent_runs"] == [100.0, 110.0, 120.0, 130.0]
    assert pps["change_runs"] == [120.0, 110.0, 150.0, 125.0]
    # spreads of 15 / 115 and 13.75 / 122.5 are within the bound of 0.25
    assert pps["resolved"] is True
    # lower is better for a latency
    p50 = series["metrics"]["verify_ms_p50"]
    assert p50["wins"] == 2
    # the change's runs 1.0-3.0 spread 2.25 - 1.375 = 0.875, half of its median 1.75
    assert p50["change"] == {"median": 1.75, "q1": 1.375, "q3": 2.25}
    assert p50["resolved"] is False
    # a spread exactly at the bound still resolves; the parent's spread of 0 is within any
    at_bound = {"verify_ms_p50": {"better": "lower", "bound": 0.5}}
    assert ns["summarize"](pairs, at_bound)["metrics"]["verify_ms_p50"]["resolved"] is True
    tighter = {"verify_ms_p50": {"better": "lower", "bound": 0.49}}
    assert ns["summarize"](pairs, tighter)["metrics"]["verify_ms_p50"]["resolved"] is False
    # neither median is worse than the parent's; exactly at the bound does not regress
    assert pps["regressed"] is False and p50["regressed"] is False
    for better, worse in (("lower", 2.5), ("higher", 1.5)):
        pair = [(parse(bench_run_line(100.0, 2.0)), parse(bench_run_line(100.0, worse)))]
        for bound, regressed in ((0.3, False), (0.25, False), (0.2, True)):
            spec = {"verify_ms_p50": {"better": better, "bound": bound}}
            p50 = ns["summarize"](pair, spec)["metrics"]["verify_ms_p50"]
            assert p50["regressed"] is regressed, (better, bound)
            assert p50["wins"] == 0
    # a claim needs ceil(0.9 N) wins of N
    assert pps["claim_met"] is False
    assert series["metrics"]["verify_ms_p50"]["claim_met"] is False
    lines = ns["summary_lines"]({"planar-zono": series})
    assert lines == [
        "planar-zono problems_per_s: 115 -> 122.5 1/s (+6.5%), wins 2 of 4, resolved, "
        "not regressed, claim not met",
        "planar-zono verify_ms_p50: 2 -> 1.75 ms (-12.5%), wins 2 of 4, unresolved, "
        "not regressed, claim not met",
    ]
    # ten pairs: the parent's 100..109 spread q3 - q1 = 106.75 - 102.25 = 4.5 about 104.5
    base = [100.0 + i for i in range(10)]

    def claim(gain, losses):
        runs = [(p, p + gain) if i >= losses else (p, p - 1.0) for i, p in enumerate(base)]
        pairs = [(parse(bench_run_line(p, 2.0)), parse(bench_run_line(c, 1.0))) for p, c in runs]
        return ns["summarize"](pairs, specs)["metrics"]

    met = claim(5.0, 1)
    # 9 of 10 wins, and the median 109.5 beats 104.5 by 5 > 4.5
    assert met["problems_per_s"]["wins"] == 9 and met["problems_per_s"]["change"]["median"] == 109.5
    assert met["problems_per_s"]["claim_met"] is True
    # lower is better for a latency, and a parent spread of 0 asks only for a lower median
    assert met["verify_ms_p50"]["claim_met"] is True
    # 9 of 10 wins, but the median 108.5 beats 104.5 by 4, within the parent's spread
    short = claim(4.0, 1)["problems_per_s"]
    assert short["wins"] == 9 and short["change"]["median"] == 108.5
    assert short["claim_met"] is False
    # a median far ahead with 8 of 10 wins
    few = claim(20.0, 2)["problems_per_s"]
    assert few["wins"] == 8 and few["claim_met"] is False
    one = ns["summarize"](pairs[:1], {})
    assert one["metrics"]["problems_per_s"]["change"] == {"median": 120.0, "q1": 120.0, "q3": 120.0}
    assert "wins" not in one["metrics"]["problems_per_s"]
    assert "resolved" not in one["metrics"]["problems_per_s"]
    assert "regressed" not in one["metrics"]["problems_per_s"]
    assert "claim_met" not in one["metrics"]["problems_per_s"]
    # a metric outside BENCHMARK.json prints its medians alone; a parent median of 0 no percent
    one["metrics"]["problems_per_s"]["parent"]["median"] = 0.0
    line = ns["summary_lines"]({"planar-box": one})[0]
    assert line == "planar-box problems_per_s: 0 -> 120 1/s (n/a)"
    pair = [(parse(bench_run_line(100.0, 2.0)), parse(bench_run_line(100.0, 3.0)))]
    line = ns["summary_lines"]({"cube-refine": ns["summarize"](pair, specs)})[1]
    assert line == ("cube-refine verify_ms_p50: 2 -> 3 ms (+50.0%), wins 0 of 1, resolved, "
                    "regressed, claim not met")
    old = {"series": {"planar-zono": {"metrics": {"problems_per_s": {"change": {"median": 99.0}}}}}}
    delta = ns["baseline_delta"]({"planar-zono": series}, old, "BENCH_25")
    assert delta == {"planar-zono": {"problems_per_s": {"BENCH_25_change_median": 99.0,
                                                        "change_median": 122.5}}}


def test_bench_pairs_refuses_an_unlisted_workload_before_copying(tmp_path, monkeypatch, capsys):
    ns = runpy.run_path(str(ROOT / "scripts" / "bench_pairs.py"))
    copies = []
    monkeypatch.setattr(shutil, "copytree", lambda *a, **k: copies.append(a))
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as exit_:
        ns["main"]([str(ROOT), str(ROOT), "--seed", "1", "--pairs", "1",
                    "--workloads", "cube-refine", "planar-bx", "--out", str(out)])
    assert exit_.value.code == 2 and copies == [] and not out.exists()
    assert "invalid choice: 'planar-bx'" in capsys.readouterr().err


def fake_cache_dir(path, entries):
    """A sysfs-like cache directory: one ``index<i>`` per (level, size) entry."""
    for i, (level, size) in enumerate(entries):
        (path / f"index{i}").mkdir(parents=True)
        (path / f"index{i}" / "level").write_text(f"{level}\n")
        (path / f"index{i}" / "size").write_text(f"{size}\n")
    return path


def test_bench_pairs_records_numpy_and_the_l2_cache(tmp_path, monkeypatch):
    ns = runpy.run_path(str(ROOT / "scripts" / "bench_pairs.py"))
    l2_cache_bytes = ns["l2_cache_bytes"]
    none = tmp_path / "none"
    linux = fake_cache_dir(tmp_path / "linux", [(1, "48K"), (1, "32K"), (2, "2048K"),
                                                (3, "307200K")])
    for reported, size in ((ValueError("unrecognized configuration name"), None),
                           (OSError(), None), (0, None), (-1, None), (2**21, 2**21)):
        def sysconf(name, reported=reported):
            assert name == "SC_LEVEL2_CACHE_SIZE"
            if isinstance(reported, Exception):
                raise reported
            return reported
        with monkeypatch.context() as m:
            m.setattr(os, "sysconf", sysconf)
            assert l2_cache_bytes(none) == size
            # sysfs stands in where sysconf reports nothing, and only there
            assert l2_cache_bytes(linux) == (size or 2048 * 2**10)
    with monkeypatch.context() as m:
        m.setattr(os, "sysconf", lambda name: 0)
        for i, (entries, size) in enumerate((([(2, "1M")], 2**20), ([(2, "524288")], 524288),
                                             ([(1, "32K")], None), ([(2, "")], None),
                                             ([(2, "0K")], None))):
            assert l2_cache_bytes(fake_cache_dir(tmp_path / f"case{i}", entries)) == size
    # one canned pair, no tree copied and no benchmark run
    monkeypatch.setattr(shutil, "copytree", lambda *a, **k: None)
    line = bench_run_line(100.0, 2.0)
    monkeypatch.setattr(subprocess, "run",
                        lambda *a, **k: subprocess.CompletedProcess(a, 0, f"{line}\n", ""))
    out = tmp_path / "bench.json"
    assert ns["main"]([str(ROOT), str(ROOT), "--seed", "1", "--pairs", "1",
                       "--workloads", "cube-refine", "--out", str(out)]) == 0
    env = json.loads(out.read_text())["env"]
    assert env["numpy"] == np.__version__
    assert env["l2_cache_bytes"] == ns["l2_cache_bytes"]()
    assert set(env) == {"nproc", "python", "numpy", "l2_cache_bytes"}
