#!/usr/bin/env python3
"""Check that the tests kill every mutant of the catalogue in ``tests/mutants.py``.

    python3 scripts/mutate.py [--touching FILE...]

``--touching`` keeps only the mutants whose ``file`` is one of the FILEs,
written as the catalogue writes them, relative to the repository root,
prints how many it skipped, and exits 0 when none is left.

First runs every test of the kept mutants on an unmutated copy of the tree,
which must pass, or no kill would mean anything.  Then, for each mutant:
copies the tree, without ``.git`` and caches, into a fresh temporary directory,
replaces the mutant's one ``old`` snippet with ``new``, and runs
``python -m pytest -x -q`` on the mutant's tests there, with ``PYTHONPATH``
set to the copy's ``src``.  A failing run or a timeout kills the mutant.
The timeout is ten times the baseline run's wall time: a mutant's tests
are a subset of the baseline's, so a run ten times as slow is taken as one
that never stops.  Prints the timeout, one line per mutant and a summary
line, and exits 1 if any mutant survives.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from mutants import MUTANTS  # noqa: E402

IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".perfbench_out", ".hypothesis",
                                ".pytest_cache")


def run_tests(tests: list, mutant=None, timeout=None) -> str:
    """"passed", "failed" or "timeout": ``tests`` on a copy of the tree, ``mutant`` applied."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=IGNORE)
        if mutant is not None:
            path = tree / mutant["file"]
            text = path.read_text(encoding="utf-8")
            if text.count(mutant["old"]) != 1:
                raise ValueError(f"{mutant['name']}: its snippet is not once in {mutant['file']}")
            path.write_text(text.replace(mutant["old"], mutant["new"]), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
        try:
            proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p",
                                   "no:cacheprovider", *tests], cwd=tree, env=env,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            return "timeout"
        return "passed" if proc.returncode == 0 else "failed"


def touching(mutants: list, files) -> list:
    """The mutants whose ``file`` is one of ``files``, all of them for ``None``."""
    if files is None:
        return list(mutants)
    paths = {os.path.normpath(f) for f in files}
    return [m for m in mutants if os.path.normpath(m["file"]) in paths]


def main() -> int:
    parser = argparse.ArgumentParser(description="Run the mutant catalogue.")
    parser.add_argument("--touching", nargs="+", metavar="FILE",
                        help="run only the mutants of these files")
    files = parser.parse_args().touching
    mutants = touching(MUTANTS, files)
    if files is not None:
        print(f"{len(MUTANTS) - len(mutants)} of {len(MUTANTS)} mutants skipped", flush=True)
    if not mutants:
        return 0
    started = time.perf_counter()
    tests = list(dict.fromkeys(t for m in mutants for t in m["tests"]))
    baseline = run_tests(tests)
    if baseline != "passed":
        print(f"the catalogue's tests {baseline} without a mutant")
        return 1
    timeout = 10 * (time.perf_counter() - started)
    print(f"baseline passed; mutant timeout {timeout:.0f} s", flush=True)
    survivors = []
    for mutant in mutants:
        outcome = run_tests(mutant["tests"], mutant, timeout)
        if outcome == "passed":
            survivors.append(mutant["name"])
        print(f"{mutant['name']}: {'survived' if outcome == 'passed' else 'killed'} ({outcome})",
              flush=True)
    print(f"{len(mutants) - len(survivors)} of {len(mutants)} mutants killed "
          f"in {time.perf_counter() - started:.0f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
