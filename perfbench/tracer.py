"""In-memory span tracer that wraps the program's public names from outside.

Each hook names a module or class attribute, such as
``reachbound.verifier.propagate_cells``.  Installing a hook replaces that
attribute with a wrapper that records one span per call: name, start, end,
parent span and the verify call it belongs to, plus optional counts taken
from the arguments and result.  Callers inside the program look these names
up at call time, so the wrapper sees every call without the program knowing.
A hook whose target no longer exists is reported in ``missing`` and skipped.
"""

from __future__ import annotations

import csv
import functools
import importlib
import json
import math
from contextlib import contextmanager
from time import process_time

import numpy as np

NAME, START, END, PARENT, CALL, COUNTS = range(6)


def _cells(arr) -> int:
    return math.prod(np.shape(arr)[:-1])


# (target, span name, counts from (args, result) or None)
HOOKS = (
    ("reachbound.verifier.propagate_cells", "verifier.propagate_cells",
     lambda a, r: {"cells": a[1].count}),
    ("reachbound.verifier.extract_subset", "topology.extract_subset",
     lambda a, r: {"total": r.counts["total"], "kept": r.counts["kept"]}),
    ("reachbound.verifier.certify_homeomorphism", "topology.certify_box", None),
    ("reachbound.verifier.monte_carlo", "verifier.monte_carlo", None),
    ("reachbound.verifier.forward_batch", "network.forward_batch",
     lambda a, r: {"points": len(a[1])}),
    ("reachbound.verifier.box_propagate_arrays", "domains.box_propagate",
     lambda a, r: {"cells": _cells(a[1])}),
    ("reachbound.verifier.zono_propagate", "domains.zono_propagate", None),
    ("reachbound.verifier.boundary_cell_batch", "topology.boundary_cell_batch", None),
    ("reachbound.verifier.grid_cell_batch", "topology.grid_cell_batch", None),
    ("reachbound.topology.certify_cells", "topology.certify_cells",
     lambda a, r: {"cells": int(r[2].size), "certified": int(r[2].sum())}),
    ("reachbound.topology.jacobian_interval_arrays", "topology.jacobian",
     lambda a, r: {"cells": _cells(a[1])}),
    ("reachbound.topology.CellGrid.bounds_arrays", "topology.bounds_arrays",
     lambda a, r: {"cells": int(r[0].shape[0])}),
)


def resolve(target: str):
    """(owner, attribute) for a dotted target, or None if it does not exist."""
    parts = target.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:-1]:
            owner = getattr(owner, name, None)
        if owner is not None and hasattr(owner, parts[-1]):
            return owner, parts[-1]
        return None
    return None


class Tracer:
    """Spans are lists [name, start, end, parent index, call, counts]."""

    def __init__(self):
        self.spans: list = []
        self.missing: list = []
        self.call = -1
        self._stack: list = []
        self._installed: list = []

    def _open(self, name):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.call, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    @contextmanager
    def span(self, name: str):
        rec = self._open(name)
        rec[START] = process_time()
        try:
            yield rec
        finally:
            rec[END] = process_time()
            self._stack.pop()

    def _wrap(self, fn, name, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            rec[START] = process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = process_time()
                self._stack.pop()
            if count is not None:
                rec[COUNTS] = count(args, result)
            return result

        return traced

    def install(self, hooks=HOOKS) -> None:
        for target, name, count in hooks:
            found = resolve(target)
            if found is None:
                self.missing.append(target)
                continue
            owner, attr = found
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrap(original, name, count))
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def self_times(self) -> np.ndarray:
        """Each span's duration minus the time its direct children cover."""
        spans = self.spans
        out = np.array([s[END] - s[START] for s in spans])
        for s, dur in zip(spans, out.copy()):
            if s[PARENT] >= 0:
                out[s[PARENT]] -= dur
        return out

    def write(self, path) -> None:
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(["span", "name", "start_s", "end_s", "parent", "call", "counts"])
            for i, s in enumerate(self.spans):
                out.writerow([i, s[NAME], f"{s[START] - t0:.9f}", f"{s[END] - t0:.9f}",
                              s[PARENT], s[CALL], json.dumps(s[COUNTS]) if s[COUNTS] else ""])
