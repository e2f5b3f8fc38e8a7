"""One verification driver over the cells that can hold an output extremum.

Three cell sets can be propagated: the input faces (``boundary``), the grid
minus the interior cells where no output has a zero gradient (``subset``),
or every grid cell (``full``).  Modes ``boundary`` and ``full`` name their
set; ``subset`` and ``auto`` are both the paper's method, which tests the
whole input box first and picks the faces or the subset (see `verify`).
Each set has its builder in `topology`, which also refuses a level past its
cell budget; where the subset can drop no cell, it is every grid cell.

Soundness contract: a `safe` verdict means the computed over-approximation of
the required cells' images lies inside the safe box.  The faces alone hold
every output extremum only when no output has a critical point inside the
box: ``boundary`` mode records ``assumes_invertible`` in its stats and
leaves that obligation to the caller, while ``subset`` and ``auto``
discharge it with the gradient-row test on the whole box.  The subset path
drops interior cells where no output has a critical point
(`extract_subset`).  The argument is about the network in real arithmetic:
the enclosures are sound for it, so the verdict bounds its real image.  A
float evaluation of an interior point can leave that image by a few ulps,
and such a point is not covered.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import topology
from .domains import (
    Box,
    box_propagate_arrays,
    normalize_domain,
    zono_propagate,
)
from .network import Network, _index, forward_batch, forward_point
from .topology import (
    CellBatch,
    CellBudgetError,
    boundary_cell_batch,
    box_passes_row_test,
    certify_homeomorphism,  # noqa: F401  (unused; the benchmark tracer hooks this name)
    extract_subset,
    grid_cell_batch,
    grid_counts,
)

__all__ = [
    "SAFE",
    "UNKNOWN",
    "FALSIFIED",
    "VerificationProblem",
    "Verdict",
    "propagate_cells",
    "verify",
    "MonteCarloResult",
    "monte_carlo",
]

SAFE = "safe"
UNKNOWN = "unknown"
FALSIFIED = "falsified"

MODES = ("boundary", "subset", "full", "auto")


@dataclass(frozen=True)
class VerificationProblem:
    net: Network
    input_box: Box
    safe_box: Box
    domain: str = "box"
    mode: str = "auto"
    grid: Optional[tuple[int, ...]] = None
    max_refinements: int = 0  # grid doublings on Unknown, in every mode
    seed: int = 0
    falsify_samples: int = 0  # 0 disables counterexample search

    def __post_init__(self):
        for name in ("max_refinements", "seed", "falsify_samples"):
            object.__setattr__(self, name, _index(name, getattr(self, name)))
        _check_sample_budget(self.falsify_samples)
        if self.input_box.dim != self.net.input_dim:
            raise ValueError("input box dimension does not match the network")
        if self.safe_box.dim != self.net.output_dim:
            raise ValueError("safe box dimension does not match the network output")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        normalize_domain(self.domain)  # raises ValueError on an unknown tag
        object.__setattr__(self, "grid", grid_counts(self.grid, self.input_box))


def _column_hull(lo: np.ndarray, hi: np.ndarray):
    """Column minima of (N, d) ``lo`` and column maxima of ``hi``, one strided reduction each.

    NumPy reduces ``min(axis=0)`` of a tall, narrow array one row at a time:
    at 40 000 x 2 that takes about 17 times as long as a reduction per
    column.  A NaN in a column still gives a NaN end, which `Box` rejects.
    """
    return np.array([col.min() for col in lo.T]), np.array([col.max() for col in hi.T])


@dataclass
class Verdict:
    status: str
    stats: dict
    output_hull: Optional[Box]
    counterexample: Optional[np.ndarray] = None
    cell_batch: Optional[CellBatch] = None  # reporting hook


def propagate_cells(net: Network, batch: CellBatch, domain: str) -> CellBatch:
    """Fill the batch's output hulls under the box or zonotope domain, a block of cells at a time."""
    propagate = box_propagate_arrays if normalize_domain(domain) == "box" else zono_propagate
    batch.out_lo, batch.out_hi = propagate(net, batch.lo, batch.hi)
    return batch


# ---------------------------------------------------------------------------
# Monte-Carlo estimation and falsification


@dataclass
class MonteCarloResult:
    points: np.ndarray
    images: np.ndarray
    image_hull: Box
    violations: np.ndarray  # inputs whose images leave the safe box


def _check_sample_budget(n: int) -> None:
    """Refuse more than `topology.CELL_BUDGET` samples, before any is drawn."""
    if n > topology.CELL_BUDGET:
        raise ValueError(f"sample count {n} is more than the budget of {topology.CELL_BUDGET}; "
                         "refusing to allocate it")


def monte_carlo(
    net: Network, region: Box, n: int, seed: int, safe: Optional[Box] = None
) -> MonteCarloResult:
    """Deterministic uniform sampling of a box and its exact float images.

    The counter-based Philox generator makes the sample sequence a pure
    function of the seed, independent of batching.  A ``safe`` box must have
    the network's output dimension, or it would broadcast over the outputs.
    All ``n`` points are drawn and evaluated at once, so ``n`` past
    `topology.CELL_BUDGET` is refused as a grid level is.
    """
    n, seed = _index("sample count", n, 1), _index("seed", seed)
    _check_sample_budget(n)
    if safe is not None and safe.dim != net.output_dim:
        raise ValueError(f"safe box dimension {safe.dim} != output dim {net.output_dim}")
    width = region.finite_widths()
    rng = np.random.Generator(np.random.Philox(seed))
    points = region.lo + rng.random((n, region.dim)) * width
    images = forward_batch(net, points)
    hull = Box.from_arrays(*_column_hull(images, images))
    if safe is None:
        violations = np.empty((0, region.dim))
    else:
        # one column at a time: a row-wise any() over (n, d) is NumPy's slow path
        bad = np.zeros(n, dtype=bool)
        for col, lo, hi in zip(images.T, safe.lo, safe.hi):
            bad |= (col < lo) | (col > hi)
        violations = points[bad]
    return MonteCarloResult(points, images, hull, violations)


# ---------------------------------------------------------------------------
# the driver


def verify(problem: VerificationProblem) -> Verdict:
    """Propagate the required cells and check that their images lie in the safe box.

    Modes ``subset`` and ``auto`` pick the path with one Jacobian enclosure
    of the whole input box (`box_passes_row_test`).  If every row has an
    entry that excludes 0, no output has a critical point in the box, so
    the faces suffice on any network shape (path ``boundary``, with
    ``input_certified`` true).  Otherwise `extract_subset` drops the
    interior cells that pass the row test, or none where it cannot drop
    one (path ``subset``, ``stats["cells_certified"]`` counts them), since
    an output extremum lies on the box's faces or where that output's
    gradient is zero.  ``stats["path"]`` names the set propagated.  A level
    is Safe when the safe box contains its hull, a `Box`.  In every mode the
    grid doubles on Unknown up to ``max_refinements`` times (`grid_counts`)
    unless doubling cannot change the cells: on a box with no width, or on
    the faces of a 1-d box, which are its two end points at every count.

    With ``falsify_samples`` set, an Unknown level 0 draws one Monte-Carlo
    sample of the input box before any refinement (`monte_carlo`).  The
    sample depends on the box, the count and the seed only, so drawing it
    again at a later level would find the same points.  If a sampled input's
    image, re-checked as one point (`forward_point`), leaves the safe box,
    the verdict is Falsified with level 0's hull and cells; if none does,
    the grid refines as without falsification.  A Safe level 0 draws nothing.

    Each level's builder refuses a level past `topology.CELL_BUDGET` with
    `CellBudgetError`, a ValueError, before it builds the level's grid.  At
    level 0 that error ends `verify`; at a refinement level, refining stops
    and the verdict, hull, cells and ``refinement_level`` of the level before
    it stand.

    ``stats`` times three phases: ``certify_ms`` (the whole-box row test and
    subset extraction) and ``propagate_ms`` (propagating the required cells),
    both over all refinement levels, and ``falsify_ms`` (the one sample and
    its re-checks, 0.0 when it is not drawn).
    """
    started = time.perf_counter()
    net, box = problem.net, problem.input_box
    stats = {"mode": problem.mode, "certify_ms": 0.0, "propagate_ms": 0.0, "falsify_ms": 0.0}
    path = problem.mode
    if path in ("subset", "auto"):
        phase = time.perf_counter()
        passed = box_passes_row_test(net, box)
        stats["certify_ms"] = (time.perf_counter() - phase) * 1e3
        path = "boundary" if passed else "subset"
        stats.update(path=path, input_certified=passed)
    if path == "boundary":
        stats["assumes_invertible"] = problem.mode == "boundary"

    # the cells of a box without width, or the faces of a 1-d box, are the same at every count
    safe, counterexample = problem.safe_box, None
    refinable = box.dim - len(box.degenerate_dims()) > (path == "boundary")
    for level in range(problem.max_refinements + 1 if refinable else 1):
        counts = grid_counts(problem.grid, box, level)
        try:
            if path == "boundary":
                cells = boundary_cell_batch(box, counts)
            elif path == "full":
                cells = grid_cell_batch(box, counts)
            else:  # the subset path's cells come out of certification
                phase = time.perf_counter()
                cells = extract_subset(net, box, counts)
                c = cells.counts
                stats.update(cells_total=c["total"], cells_certified=c["certified_interior"],
                             cells_kept=c["kept"])
                stats["certify_ms"] += (time.perf_counter() - phase) * 1e3
        except CellBudgetError:
            if level == 0:
                raise
            break  # keep the last level within the budget
        batch, done = cells, level
        phase = time.perf_counter()
        propagate_cells(net, batch, problem.domain)
        stats["propagate_ms"] += (time.perf_counter() - phase) * 1e3
        hull = Box.from_arrays(*_column_hull(batch.out_lo, batch.out_hi))
        ok = safe.contains_box(hull)
        if ok:
            break
        if level == 0 and problem.falsify_samples > 0:  # the first Unknown level
            phase = time.perf_counter()
            mc = monte_carlo(net, box, problem.falsify_samples, problem.seed, safe=safe)
            # promote only on an exact point re-check
            counterexample = next((x for x in mc.violations
                                   if not safe.contains_point(forward_point(net, x))), None)
            stats["falsify_ms"] = (time.perf_counter() - phase) * 1e3
            if counterexample is not None:
                break
    stats.update(cells_propagated=batch.count, refinement_level=done)
    status = SAFE if ok else UNKNOWN if counterexample is None else FALSIFIED
    stats["wall_ms"] = (time.perf_counter() - started) * 1e3
    return Verdict(status, stats, hull, counterexample, cell_batch=batch)
