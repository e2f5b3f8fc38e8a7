#!/usr/bin/env python3
"""Run the benchmark on two source trees in alternating pairs and summarize it.

    python3 scripts/bench_pairs.py PARENT CHANGE --seed S --pairs N \\
        [--workloads planar-zono planar-box] [--seconds T] [--baseline BENCH_25.json] \\
        --out BENCH_30.json

PARENT and CHANGE are checkouts (each with ``src/`` and ``perfbench/``).
``--seconds`` defaults to ``BENCHMARK.json``'s ``run_seconds``, and
``--workloads`` takes only the names ``BENCHMARK.json`` lists: any other is
refused before a tree is copied.
Each is copied once into a fresh temporary directory, without ``.git``,
``__pycache__`` or earlier benchmark output, at two paths of equal length
(``.../parent`` and ``.../change``), since a path's length can move memory
layout.  Every run is ``python3 perfbench/run.py --workload W --seed S
--seconds T --trace 0`` in its copy with ``PYTHONDONTWRITEBYTECODE=1``, so
no run leaves byte code for the next.  Pair i runs the parent first when i
is even and the change first when it is odd.

The output JSON has ``workloads`` (the last stdout line of each side of the
first pair), ``series`` (per workload and metric: the median, q1 and q3 by
the inclusive method for each side, ``wins``, the pairs where the change
reads better by the metric's direction in ``BENCHMARK.json``, ties counting
for neither, ``resolved``, false when either side's interquartile spread
exceeds the metric's ``BENCHMARK.json`` bound times that side's median, so
the runs spread too widely to tell, ``regressed``, true when the change's
median is worse than the parent's by more than that bound times the
parent's median, the rule that refuses a change, ``claim_met``, true when
the change wins at least ceil(0.9 N) of N pairs and its median beats the
parent's by more than the parent's q3 - q1, the rule a claimed gain must
pass, and every run in pair order; plus the
summed ``failed`` counts and whether every run read ``correct``) and, with
``--baseline``, the change medians of an earlier file's series next to this
one's.  Its ``env`` records the CPU count, the Python and NumPy versions and
the L2 cache size in bytes (``os.sysconf("SC_LEVEL2_CACHE_SIZE")``, else
the level-2 entry under ``/sys/devices/system/cpu/cpu0/cache``, null where
neither reports it), to which the passes' row blocks are sized.  After
writing it, the script prints one summary line per workload and metric: the
parent and change medians, the change in percent of the parent's, and, for
a metric of ``BENCHMARK.json``, the wins of N pairs, ``resolved`` or
``unresolved``, ``regressed`` or ``not regressed`` and ``claim met`` or
``claim not met``.
"""

import argparse
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".perfbench_out", ".hypothesis",
                                ".pytest_cache")


def quartiles(values):
    """(median, q1, q3) by the inclusive method; one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


def summarize(pairs, specs):
    """The ``series`` entry of one workload from its ``[(parent, change), ...]`` run results.

    ``specs`` maps a metric name to its ``BENCHMARK.json`` end-to-end entry,
    of which ``better`` ("lower" or "higher") and ``bound`` are read; a
    metric missing from it gets no ``wins``, ``resolved``, ``regressed`` or
    ``claim_met``.
    """
    out = {
        "pairs": len(pairs),
        "failed": {side: sum(pair[i]["failed"] for pair in pairs) for i, side in enumerate(SIDES)},
        "correct": all(run["correct"] for pair in pairs for run in pair),
        "metrics": {},
    }
    for name, first in pairs[0][0]["metrics"].items():
        runs = {side: [pair[i]["metrics"][name]["value"] for pair in pairs]
                for i, side in enumerate(SIDES)}
        entry = {"unit": first["unit"]}
        for side in SIDES:
            median, q1, q3 = quartiles(runs[side])
            entry[side] = {"median": median, "q1": q1, "q3": q3}
        spec = specs.get(name)
        if spec is not None:
            sign = 1 if spec["better"] == "higher" else -1
            entry["wins"] = sum(sign * (c - p) > 0 for p, c in zip(runs["parent"], runs["change"]))
            entry["resolved"] = all(entry[side]["q3"] - entry[side]["q1"]
                                    <= spec["bound"] * abs(entry[side]["median"]) for side in SIDES)
            parent, change = entry["parent"]["median"], entry["change"]["median"]
            entry["regressed"] = sign * (parent - change) > spec["bound"] * abs(parent)
            spread = entry["parent"]["q3"] - entry["parent"]["q1"]
            entry["claim_met"] = (entry["wins"] >= math.ceil(0.9 * len(pairs))
                                  and sign * (change - parent) > spread)
        entry["parent_runs"] = runs["parent"]
        entry["change_runs"] = runs["change"]
        out["metrics"][name] = entry
    return out


def summary_lines(series) -> list:
    """One line per workload and metric of ``series``: medians, percent change, wins and flags."""
    lines = []
    for wl, entry in series.items():
        for name, m in entry["metrics"].items():
            parent, change = m["parent"]["median"], m["change"]["median"]
            pct = f"{100 * (change - parent) / abs(parent):+.1f}%" if parent else "n/a"
            line = f"{wl} {name}: {parent:.4g} -> {change:.4g} {m['unit']} ({pct})"
            if "wins" in m:
                line += (f", wins {m['wins']} of {entry['pairs']}, "
                         f"{'resolved' if m['resolved'] else 'unresolved'}, "
                         f"{'regressed' if m['regressed'] else 'not regressed'}, "
                         f"{'claim met' if m['claim_met'] else 'claim not met'}")
            lines.append(line)
    return lines


def baseline_delta(series, baseline: dict, label: str):
    """Change medians of ``baseline``'s series next to ``series``' for the workloads in both."""
    delta = {}
    for wl, entry in series.items():
        old = baseline.get("series", {}).get(wl)
        if old is None:
            continue
        delta[wl] = {name: {f"{label}_change_median": old["metrics"][name]["change"]["median"],
                            "change_median": m["change"]["median"]}
                     for name, m in entry["metrics"].items() if name in old["metrics"]}
    return delta


CPU0_CACHE = Path("/sys/devices/system/cpu/cpu0/cache")
SIZE_UNITS = {"K": 2**10, "M": 2**20}


def l2_cache_bytes(cache_dir: Path = CPU0_CACHE):
    """The L2 cache size in bytes, or None where neither source reports it.

    ``os.sysconf`` first; where it knows no ``SC_LEVEL2_CACHE_SIZE`` (CPython
    3.11 on Linux) or reports none, the ``size`` of the ``index*`` entry of
    ``cache_dir`` whose ``level`` is 2, such as ``2048K``.
    """
    try:
        size = os.sysconf("SC_LEVEL2_CACHE_SIZE")
    except (ValueError, OSError):  # a name this platform does not know, or no value
        size = 0
    if size > 0:
        return size
    for index in sorted(cache_dir.glob("index*")):
        try:
            if (index / "level").read_text().strip() != "2":
                continue
            text = (index / "size").read_text().strip()
        except OSError:
            continue
        digits, scale = (text[:-1], SIZE_UNITS[text[-1]]) if text[-1:] in SIZE_UNITS else (text, 1)
        return int(digits) * scale if digits.isdigit() and int(digits) > 0 else None
    return None


def last_json_line(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True, check=True)
    return last_json_line(proc.stdout)


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, required=True)
    names = [w["name"] for w in bench["workloads"]]
    ap.add_argument("--workloads", nargs="+", default=names, choices=names)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--baseline", type=Path, help="an earlier BENCH_<pr>.json to compare medians with")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    specs = {m["name"]: m for m in bench["end_to_end"]}
    doc = {
        "command": f"python3 perfbench/run.py --workload <name> --seed {args.seed} "
                   f"--seconds {args.seconds:g} --trace 0",
        "seed": args.seed,
        "note": "series: medians and quartiles (inclusive method) of alternating pairs from "
                "fresh copies with no __pycache__ and PYTHONDONTWRITEBYTECODE=1; wins counts "
                "the pairs where the change reads better, ties counting for neither; resolved "
                "is false when a side's q3 - q1 exceeds the metric's BENCHMARK.json bound "
                "times its median; regressed is true when the change's median is worse than "
                "the parent's by more than the bound times the parent's median; claim_met is "
                "true when the change wins at least ceil(0.9 pairs) pairs and its median beats "
                "the parent's by more than the parent's q3 - q1; *_runs list every run in pair "
                "order",
        "env": {"nproc": os.cpu_count(), "python": platform.python_version(),
                "numpy": importlib.metadata.version("numpy"), "l2_cache_bytes": l2_cache_bytes()},
        "workloads": {},
        "series": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        for side, src in zip(SIDES, (args.parent, args.change)):
            shutil.copytree(src, trees[side], ignore=IGNORE)
        for wl in args.workloads:
            pairs = []
            for i in range(args.pairs):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                runs = {side: run_once(trees[side], wl, args.seed, args.seconds) for side in order}
                pairs.append((runs["parent"], runs["change"]))
                print(f"{wl} pair {i + 1}/{args.pairs}: problems_per_s "
                      f"{runs['parent']['metrics']['problems_per_s']['value']:.1f} -> "
                      f"{runs['change']['metrics']['problems_per_s']['value']:.1f}", flush=True)
            doc["workloads"][wl] = dict(zip(SIDES, pairs[0]))
            doc["series"][wl] = summarize(pairs, specs)
    if args.baseline is not None:
        label = args.baseline.stem
        doc[f"delta_vs_{label}"] = baseline_delta(doc["series"], json.loads(args.baseline.read_text()),
                                                  label)
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    print("\n".join(summary_lines(doc["series"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
