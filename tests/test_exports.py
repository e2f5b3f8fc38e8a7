import importlib
import pkgutil

import reachbound


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
