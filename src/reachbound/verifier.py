"""One verification driver over the cells that can hold an output extremum.

Three cell sets can be propagated: the input faces (``boundary``), the grid
minus the interior cells where no output has a zero gradient (``subset``),
or every grid cell (``full``).  Modes ``boundary`` and ``full`` name their
set; ``subset`` and ``auto`` are both the paper's method, which tests the
whole input box first and picks one of the three (see `verify`).

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

import math
import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .domains import (
    Box,
    box_propagate_arrays,
    normalize_domain,
    zono_propagate,
)
from .network import Network, forward_batch, forward_point
from .topology import (
    CellGrid,
    box_passes_row_test,
    certify_homeomorphism,  # noqa: F401  (unused; the benchmark tracer hooks this name)
    extract_subset,
    grid_counts,
    partition,
    subset_tree_applies,
)

__all__ = [
    "SAFE",
    "UNKNOWN",
    "FALSIFIED",
    "VerificationProblem",
    "Verdict",
    "CellBatch",
    "propagate_cells",
    "boundary_cell_batch",
    "grid_cell_batch",
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
        if self.max_refinements < 0 or self.falsify_samples < 0:
            raise ValueError("max_refinements and falsify_samples must be nonnegative")
        if self.input_box.dim != self.net.input_dim:
            raise ValueError("input box dimension does not match the network")
        if self.safe_box.dim != self.net.output_dim:
            raise ValueError("safe box dimension does not match the network output")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        object.__setattr__(self, "domain", normalize_domain(self.domain))
        object.__setattr__(
            self, "grid",
            grid_counts(self.grid, self.input_box.dim, self.input_box.degenerate_dims()),
        )


@dataclass
class CellBatch:
    """Cells to propagate, as arrays, with lattice indices for reporting."""

    index: np.ndarray  # (N, n) integer labels
    lo: np.ndarray  # (N, n)
    hi: np.ndarray  # (N, n)
    out_lo: Optional[np.ndarray] = None  # filled by propagate_cells
    out_hi: Optional[np.ndarray] = None

    @property
    def count(self) -> int:
        return int(self.lo.shape[0])

    def hull(self) -> Box:
        return Box.from_arrays(self.out_lo.min(axis=0), self.out_hi.max(axis=0))


@dataclass
class Verdict:
    status: str
    stats: dict
    output_hull: Optional[Box]
    counterexample: Optional[np.ndarray] = None
    cell_batch: Optional[CellBatch] = None  # reporting hook


def grid_cell_batch(grid: CellGrid) -> CellBatch:
    idx, lo, hi = grid.bounds_arrays()
    return CellBatch(idx, lo, hi)


def boundary_cell_batch(input_box: Box, counts: Sequence[int]) -> CellBatch:
    """All boundary-face cells of a box partition, as rows of the grid lattice.

    For each dimension k, the grid with ``counts[k]`` set to 1 has one cell
    for each face cell of either k-face.  Its edges in every other dimension
    are the full grid's, from the same `CellGrid` expression on the same
    interval, and its only edges in dimension k are the box's endpoints.
    Pinning ``lo[:, k]`` and ``hi[:, k]`` both to the low edge therefore puts
    each cell exactly on the low face, and pinning both to the high edge puts
    it on the high face.  The lattice index in dimension k is 0 on the low
    face and ``counts[k]`` on the high face.
    """
    if input_box.degenerate_dims():
        raise ValueError("boundary faces require a box that is non-degenerate in every dimension")
    parts = []
    for k in range(input_box.dim):
        face_counts = tuple(1 if j == k else c for j, c in enumerate(counts))
        idx, lo, hi = partition(input_box, face_counts).bounds_arrays()
        for label, edge in ((0, lo[:, k]), (counts[k], hi[:, k])):
            face_idx, face_lo, face_hi = idx.copy(), lo.copy(), hi.copy()
            face_idx[:, k] = label
            face_lo[:, k] = face_hi[:, k] = edge
            parts.append((face_idx, face_lo, face_hi))
    return CellBatch(*(np.concatenate(arrays) for arrays in zip(*parts)))


def propagate_cells(net: Network, batch: CellBatch, domain: str) -> CellBatch:
    """Fill the batch's output hulls under the box or zonotope domain."""
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


def monte_carlo(
    net: Network, region: Box, n: int, seed: int, safe: Optional[Box] = None
) -> MonteCarloResult:
    """Deterministic uniform sampling of a box and its exact float images.

    The counter-based Philox generator makes the sample sequence a pure
    function of the seed, independent of batching.  A ``safe`` box must have
    the network's output dimension, or it would broadcast over the outputs.
    """
    if n < 1:
        raise ValueError("sample count must be at least 1")
    if safe is not None and safe.dim != net.output_dim:
        raise ValueError(f"safe box dimension {safe.dim} != output dim {net.output_dim}")
    width = region.finite_widths()
    rng = np.random.Generator(np.random.Philox(seed))
    points = region.lo + rng.random((n, region.dim)) * width
    images = forward_batch(net, points)
    hull = Box.from_arrays(images.min(axis=0), images.max(axis=0))
    if safe is None:
        violations = np.empty((0, region.dim))
    else:
        bad = np.any(images < safe.lo, axis=1) | np.any(images > safe.hi, axis=1)
        violations = points[bad]
    return MonteCarloResult(points, images, hull, violations)


# ---------------------------------------------------------------------------
# the driver


# Largest cell batch one level may build.  Building a level holds each
# cell's lattice index and bounds (24 bytes per input dimension) plus the
# per-layer interval arrays of its pass, and the subset path an (n, m)
# Jacobian pair per cell and layer: at 2^22 cells the lattice arrays alone
# take 0.2 GB at 2 inputs and 0.6 GB at 6, and a pass several times that.
# The benchmark's largest level is 40 000 cells.
CELL_BUDGET = 2**22


def _check_level_size(path: str, counts) -> int:
    """The cells `_required_cells` builds for ``path`` on a grid of ``counts``.

    ``boundary`` builds ``2 * sum_k prod_{j != k} counts[j]`` face cells, the
    other paths every grid cell; the count is an exact Python integer.  Above
    `CELL_BUDGET` this raises ValueError, before anything is allocated.
    """
    counts = tuple(counts)
    if path == "boundary":
        cells = 2 * sum(math.prod(counts[:k] + counts[k + 1 :]) for k in range(len(counts)))
    else:
        cells = math.prod(counts)
    if cells > CELL_BUDGET:
        raise ValueError(
            f"grid {'x'.join(map(str, counts))} needs {cells} {path} cells, more than the "
            f"budget of {CELL_BUDGET}; refusing to allocate it"
        )
    return cells


def _required_cells(problem: VerificationProblem, path: str, counts):
    """The cells that can hold an output extremum, on a grid of ``counts``.

    - ``boundary``: the input faces suffice when the whole box passes the
      row test: no output then has a critical point in the box, so every
      output's extrema lie on its faces;
    - ``subset``: cells that touch no face of the box and where no output
      has a zero gradient are dropped, since an output extremum lies on the
      box's faces or where that output's gradient is zero (`extract_subset`);
    - ``full``: every cell.

    Returns the cells and the subset extraction, if one was made.
    """
    if path == "boundary":
        return boundary_cell_batch(problem.input_box, counts), None
    if path == "full":
        return grid_cell_batch(partition(problem.input_box, counts)), None
    extraction = extract_subset(problem.net, problem.input_box, counts)
    return CellBatch(extraction.index, extraction.lo, extraction.hi), extraction


def verify(problem: VerificationProblem) -> Verdict:
    """Propagate the required cells and check that their images lie in the safe box.

    Modes ``subset`` and ``auto`` pick the path with one Jacobian enclosure
    of the whole input box (`box_passes_row_test`).  If every row has an
    entry that excludes 0, no output has a critical point in the box, so
    the faces suffice on any network shape (path ``boundary``, with
    ``input_certified`` true).  Otherwise the interior cells that pass the
    row test are dropped (path ``subset``, ``stats["cells_certified"]``
    counts them) where `extract_subset` runs its tree (`subset_tree_applies`),
    and the full grid is propagated elsewhere.  A box with a zero-width
    dimension has no interior and no faces to propagate: it takes the full
    path untested.  ``stats["path"]`` names the set propagated.  In every
    mode the grid doubles on Unknown up to ``max_refinements`` times, except
    in zero-width dimensions.  An Unknown verdict becomes Falsified when
    Monte-Carlo sampling finds an input whose exact image leaves the safe box.

    Each level's cell count is checked against `CELL_BUDGET` before the
    level is built (`_check_level_size`).

    ``stats`` times two phases over all refinement levels: ``certify_ms``
    (the whole-box row test and subset extraction) and ``propagate_ms``
    (propagating the required cells).
    """
    started = time.perf_counter()
    net = problem.net
    stats = {"mode": problem.mode, "certify_ms": 0.0, "propagate_ms": 0.0}
    path = problem.mode
    flat = problem.input_box.degenerate_dims()
    if path in ("subset", "auto"):
        phase = time.perf_counter()
        passed = not flat and box_passes_row_test(net, problem.input_box)
        stats["certify_ms"] = (time.perf_counter() - phase) * 1e3
        tree = subset_tree_applies(net) and not flat
        path = "boundary" if passed else "subset" if tree else "full"
        stats.update(path=path, input_certified=passed)
    if path == "boundary":
        stats["assumes_invertible"] = problem.mode == "boundary"

    safe = problem.safe_box
    safe_lo, safe_hi = safe.lo, safe.hi
    for level in range(problem.max_refinements + 1):
        counts = tuple(c if k in flat else c * 2**level for k, c in enumerate(problem.grid))
        _check_level_size(path, counts)
        phase = time.perf_counter()
        batch, extraction = _required_cells(problem, path, counts)
        built = time.perf_counter()
        propagate_cells(net, batch, problem.domain)
        if extraction is not None:  # the subset path's cells come out of certification
            stats["certify_ms"] += (built - phase) * 1e3
        stats["propagate_ms"] += (time.perf_counter() - built) * 1e3
        ok = bool(np.all(batch.out_lo >= safe_lo) and np.all(batch.out_hi <= safe_hi))
        if ok:
            break
    if extraction is not None:
        c = extraction.counts
        stats.update(cells_total=c["total"], cells_certified=c["certified_interior"],
                     cells_kept=c["kept"])
    stats.update(cells_propagated=batch.count, refinement_level=level)
    verdict = Verdict(SAFE if ok else UNKNOWN, stats, batch.hull(), cell_batch=batch)

    if not ok and problem.falsify_samples > 0:
        mc = monte_carlo(net, problem.input_box, problem.falsify_samples, problem.seed, safe=safe)
        for x in mc.violations:
            # promote only on an exact point re-check
            if not safe.contains_point(forward_point(net, x)):
                verdict.status = FALSIFIED
                verdict.counterexample = x
                break
    stats["wall_ms"] = (time.perf_counter() - started) * 1e3
    return verdict
