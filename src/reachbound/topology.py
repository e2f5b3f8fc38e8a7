"""Grid partitions, interval Jacobians and certification.

Every cell batch is rows of a `CellGrid` lattice, built by `bounds_arrays`;
face cells come from the grids with one count set to 1 (`boundary_cell_batch`).

A network restricted to a cell is certified as a homeomorphism onto its image
when the interval enclosure of its Jacobian determinant over the cell excludes
zero.  The Jacobian enclosure, `jacobian_interval_arrays`, applies to any
network; only the determinant needs a square one with at most 6 inputs,
because it uses cofactor expansion.  This module owns that rule:
`is_certifiable` is the only place it is written, and `certify_cells` the
only place it is checked.  Whole boxes and grid cells are certified by the
same batched `certify_cells`, and every enclosure stays a ``(lo, hi)`` pair
of endpoint arrays.  `extract_subset` certifies only the cells that touch no
face of the input box, the only ones it may drop; a per-cell report of every
cell calls `certify_cells` on the whole grid itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .intervals import (
    Box,
    _act_deriv_arrays,
    _act_range_arrays,
    _idet_arrays,
    _interval_matvec_arrays,
    _nonneg_imul_arrays,
)
from .network import Network

__all__ = [
    "CellGrid",
    "partition",
    "grid_counts",
    "is_certifiable",
    "jacobian_interval_arrays",
    "certify_homeomorphism",
    "certify_cells",
    "CertificationResult",
    "SubsetExtraction",
    "extract_subset",
]


@dataclass(frozen=True)
class CellGrid:
    """Uniform grid of closed cells tiling `base` exactly (shared edges)."""

    base: Box
    counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.counts) != self.base.dim:
            raise ValueError("one subdivision count per dimension required")
        if any(c < 1 for c in self.counts):
            raise ValueError("subdivision counts must be at least 1")
        edges = []
        for k, c in enumerate(self.counts):
            lo, hi = float(self.base.lo[k]), float(self.base.hi[k])
            if lo == hi and c != 1:
                raise ValueError(f"degenerate dimension {k} must have count 1")
            e = lo + np.arange(c + 1) * ((hi - lo) / c)
            e[-1] = hi  # exact tiling of the base box
            e.setflags(write=False)
            edges.append(e)
        object.__setattr__(self, "_edges", tuple(edges))

    @property
    def dim(self) -> int:
        return self.base.dim

    @property
    def total(self) -> int:
        return math.prod(self.counts)

    def edges(self, k: int) -> np.ndarray:
        return self._edges[k]

    def bounds_arrays(self):
        """Row-major (indices, lo, hi) arrays for all cells at once."""
        per_dim = [self.edges(k) for k in range(self.dim)]
        grids = np.meshgrid(*(np.arange(c) for c in self.counts), indexing="ij")
        idx = np.stack([g.ravel() for g in grids], axis=1)
        lo = np.stack([per_dim[k][idx[:, k]] for k in range(self.dim)], axis=1)
        hi = np.stack([per_dim[k][idx[:, k] + 1] for k in range(self.dim)], axis=1)
        return idx, lo, hi

    def interior_mask(self, idx: np.ndarray) -> np.ndarray:
        """True where a cell index touches no face of the base box."""
        counts = np.asarray(self.counts)
        return np.all((idx > 0) & (idx + 1 < counts), axis=1)


def partition(box: Box, counts) -> CellGrid:
    return CellGrid(box, tuple(int(c) for c in counts))


def grid_counts(counts, dim: int) -> tuple[int, ...]:
    """Per-dimension cell counts: None means one cell, and one count applies to all."""
    counts = (1,) * dim if counts is None else tuple(int(c) for c in counts)
    if len(counts) == 1 and dim > 1:
        counts = counts * dim
    if len(counts) != dim or any(c < 1 for c in counts):
        raise ValueError("grid needs one positive count per input dimension")
    return counts


# ---------------------------------------------------------------------------
# interval Jacobians and certification


_DET_MAX_DIM = 6


def is_certifiable(net: Network) -> bool:
    """Whether the determinant test applies: a square network with at most 6 inputs."""
    return net.is_square and net.input_dim <= _DET_MAX_DIM


def jacobian_interval_arrays(net: Network, lo: np.ndarray, hi: np.ndarray):
    """Enclose the Jacobian over batched cells (..., n); returns (..., m, n) bounds.

    With D_l the enclosure of layer l's activation derivative over the cell,
    ``J_1 = D_1 W_1`` and ``J_l = D_l (W_l J_{l-1})``.  In real arithmetic
    ``D (W J)`` is contained in ``(D W) J`` (subdistributivity), so this order
    is never wider than multiplying the interval matrix ``D W`` into ``J``.
    The product is carried transposed, as ``(..., n, m_l)``: row j of ``J^T``
    is the interval vector of column j of ``J``, so ``W_l J_{l-1}`` is the box
    pass's own `_interval_matvec_arrays` call on those rows, with bias 0.  The
    returned bounds are transposed views of it.

    `_act_deriv_arrays` clamps its lower end at 0, so ``D >= 0`` and
    ``D B`` is the sign-select product `_nonneg_imul_arrays`: two products
    where `_imul_arrays` takes four corners.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    jlo = jhi = None
    last = len(net.layers) - 1
    for k, layer in enumerate(net.layers):
        zlo, zhi = _interval_matvec_arrays(layer.weights, layer.bias, lo, hi)
        dlo, dhi = _act_deriv_arrays(layer.activation, zlo, zhi)
        if jlo is None:
            blo = bhi = layer.weights.T
        else:
            blo, bhi = _interval_matvec_arrays(layer.weights, 0.0, jlo, jhi)
        jlo, jhi = _nonneg_imul_arrays(dlo[..., None, :], dhi[..., None, :], blo, bhi)
        if k < last:  # only the next layer reads the activation range
            lo, hi = _act_range_arrays(layer.activation, zlo, zhi)
    return np.swapaxes(jlo, -1, -2), np.swapaxes(jhi, -1, -2)


@dataclass(frozen=True)
class CertificationResult:
    """Interval determinant [det_lo, det_hi] over a cell plus the certified verdict."""

    det_lo: float
    det_hi: float
    certified: bool


def certify_homeomorphism(net: Network, cell: Box) -> CertificationResult:
    """Certify one box as the one-cell case of `certify_cells`."""
    # (n,) bounds: `_interval_matvec_arrays` runs them as a one-row batch
    det_lo, det_hi, certified = certify_cells(net, cell.lo, cell.hi)
    return CertificationResult(float(det_lo), float(det_hi), bool(certified))


def certify_cells(net: Network, lo: np.ndarray, hi: np.ndarray):
    """Batch certification of cells (..., n); returns (det_lo, det_hi, certified) arrays."""
    if not is_certifiable(net):
        raise ValueError(
            f"Jacobian certification requires a square network with at most "
            f"{_DET_MAX_DIM} inputs, got {net.input_dim} -> {net.output_dim}"
        )
    if np.shape(lo)[-1] != net.input_dim:
        raise ValueError(f"cell dimension {np.shape(lo)[-1]} != input dim {net.input_dim}")
    jlo, jhi = jacobian_interval_arrays(net, lo, hi)
    dlo, dhi = _idet_arrays(jlo, jhi)
    certified = (dlo > 0.0) | (dhi < 0.0)
    return dlo, dhi, certified


# ---------------------------------------------------------------------------
# homeomorphic-subset extraction


@dataclass(frozen=True)
class SubsetExtraction:
    """Grid classification into a certified interior subset and the kept rest.

    The removable subset must stay clear of the input boundary, so a cell on a
    face is kept whatever its determinant and only interior cells are
    certified; touching is decided on grid indices, never on float comparisons.
    """

    grid: CellGrid
    index: np.ndarray  # (N, n) row-major cell indices
    lo: np.ndarray  # (N, n) cell bounds
    hi: np.ndarray
    certified_interior_mask: np.ndarray  # (N,) bool, no face on the boundary, certified

    @property
    def kept_mask(self) -> np.ndarray:
        return ~self.certified_interior_mask

    @property
    def counts(self) -> dict:
        total = int(self.certified_interior_mask.shape[0])
        removed = int(self.certified_interior_mask.sum())
        return {"total": total, "certified_interior": removed, "kept": total - removed}


def extract_subset(net: Network, input_box: Box, counts) -> SubsetExtraction:
    """Classify grid cells; the kept cells cover the closure of the rest.

    A cell on a face is kept whatever its determinant, so only interior cells
    are certified; `certify_cells` runs on no rows too, to reject the network.
    """
    if input_box.degenerate_dims():
        raise ValueError("subset extraction requires a non-degenerate input box")
    grid = partition(input_box, counts)
    idx, lo, hi = grid.bounds_arrays()
    mask = grid.interior_mask(idx)
    mask[mask] = certify_cells(net, lo[mask], hi[mask])[2]
    return SubsetExtraction(grid, idx, lo, hi, mask)
