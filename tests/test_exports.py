import ast
import importlib
import pkgutil
import runpy
from pathlib import Path

import reachbound
from reachbound.domains import DOMAINS
from reachbound.verifier import MODES
from conftest import MIXED, make_net

# hooks that `verify` no longer calls, so their per-layer metrics read 0
UNREACHED_HOOKS = {
    "reachbound.verifier.certify_homeomorphism",  # ROADMAP item 12
    "reachbound.topology.certify_cells",  # ROADMAP item 12
}


def test_export_lists_resolve():
    """Every name in a module's ``__all__`` exists; a stale one only breaks ``import *``."""
    names = [m.name for m in pkgutil.iter_modules(reachbound.__path__) if m.name != "__main__"]
    assert {"intervals", "domains", "topology", "verifier"} <= set(names)
    for name in names:
        module = importlib.import_module(f"reachbound.{name}")
        exported = getattr(module, "__all__", ())
        missing = [n for n in exported if not hasattr(module, n)]
        assert not missing, f"reachbound.{name}.__all__ names missing attributes: {missing}"
        assert len(set(exported)) == len(exported), f"duplicate names in reachbound.{name}.__all__"


def test_trace_hooks_resolve():
    """Every benchmark trace hook names a live attribute; a stale one zeroes its metrics."""
    tracer = runpy.run_path(str(Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"))
    missing = [target for target, _, _ in tracer["HOOKS"] if tracer["resolve"](target) is None]
    assert not missing, f"trace hooks with no target: {missing}"


def test_trace_hooks_are_reached():
    """`verify` in every mode and domain records a span on each hook but `UNREACHED_HOOKS`."""
    tracer = runpy.run_path(str(Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"))
    net, box = make_net(**MIXED), reachbound.Box.from_bounds([(-1, 1), (-1, 1)])
    # unknown: without samples it refines, and with them it falsifies at level 0
    safe = reachbound.Box.from_bounds([(-1e-3, 1e-3)] * 2)
    spans = tracer["Tracer"]()
    spans.install()
    try:
        for mode in MODES:
            for domain in DOMAINS:
                for samples in (0, 256):
                    problem = reachbound.VerificationProblem(
                        net, box, safe, domain=domain, mode=mode, grid=(8,), max_refinements=1,
                        falsify_samples=samples)
                    reachbound.verify(problem)
    finally:
        spans.uninstall()
    assert spans.missing == []
    recorded = {span[0] for span in spans.spans}
    unreached = {target for target, name, _ in tracer["HOOKS"] if name not in recorded}
    assert unreached == UNREACHED_HOOKS


def test_no_unused_imports():
    """Every name a module imports is used, exported, or the target of a benchmark trace hook."""
    root = Path(__file__).resolve().parents[1]
    tracer = runpy.run_path(str(root / "perfbench" / "tracer.py"))
    hooked = {tuple(target.split(".")[1:3]) for target, _, _ in tracer["HOOKS"]}
    unused = []
    for path in sorted((root / "src" / "reachbound").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        exported = {
            name
            for node in tree.body
            if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "__all__"
            for name in ast.literal_eval(node.value)
        }
        unused += [f"{path.stem}.{name}" for name in sorted(imported - used - exported)
                   if (path.stem, name) not in hooked]
    assert not unused, f"imported names that are never used: {unused}"
