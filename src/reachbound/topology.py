"""Grid partitions, the one cell type and its builders, interval Jacobians and certification.

Every cell batch is a `CellBatch` of lattice ranges ``[a, b)`` on one
`CellGrid`, with the bounds its builder read off the edges once.  Its three
builders take ``(box, counts)``: all cells (`grid_cell_batch`, ``b = a +
1``, bounds broadcast from the edges, ranges derived when read), face cells
(`boundary_cell_batch`, ``a_k = b_k``) and the kept cells of
`extract_subset` (a `SubsetExtraction`, which adds its counts); the last
two, and the tree's nodes, gather their bounds through
`CellGrid.range_bounds`.  Each reads its counts as integers and refuses a
level past `CELL_BUDGET` before building.

Two tests read the interval enclosure of the Jacobian over a cell,
`jacobian_interval_arrays`, which applies to any network:

- the row test passes a cell when every row of the enclosure has an entry
  that excludes zero, so no output has a critical point there.
  `_passes_row_test` is the one row test, on any batch of boxes in blocks
  of rows.  `box_passes_row_test` is its one-box case (a box with a
  zero-width dimension fails untested); `extract_subset` runs it once per
  level of a tree, a level being a coarse grid with node states over the
  whole lattice, whose interior nodes alone are tested.  Both run on
  any network shape: each output's test reads its own gradient row;
- the determinant test certifies a network restricted to a cell as a
  homeomorphism onto its image when the enclosure of the determinant
  excludes zero.  It needs a square network with at most 6 inputs, because
  it uses cofactor expansion.  `certify_cells` checks it on a batch of
  cells, and `certify_homeomorphism` on one box.  A determinant that
  excludes zero implies the row test; `verify` runs only the row test.

Every enclosure stays a ``(lo, hi)`` pair of endpoint arrays.  A per-cell
report of every cell calls `certify_cells` on `grid_cell_batch` itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .domains import _map_row_blocks
from .intervals import (
    Box,
    _act_deriv_arrays,
    _act_range_arrays,
    _down,
    _idet_arrays,
    _interval_matvec_arrays,
    _J_ULPS,
    _lookup,
    _nonneg_imul_arrays,
    _up,
)
from .network import Network, _index

__all__ = [
    "CellGrid",
    "CellBatch",
    "CELL_BUDGET",
    "CellBudgetError",
    "grid_cell_batch",
    "boundary_cell_batch",
    "grid_counts",
    "jacobian_interval_arrays",
    "box_passes_row_test",
    "certify_homeomorphism",
    "certify_cells",
    "SubsetExtraction",
    "extract_subset",
]


@dataclass(frozen=True)
class CellGrid:
    """Uniform grid of closed cells tiling `base` exactly (shared edges); ``counts`` become ints."""

    base: Box
    counts: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "counts", _int_counts(self.counts))
        if len(self.counts) != self.base.dim:
            raise ValueError("one subdivision count per dimension required")
        _refuse_past_budget(0, "grid", self.counts)  # before a count's c + 1 edges
        widths = self.base.finite_widths()
        edges = []
        for k, c in enumerate(self.counts):
            lo, hi = float(self.base.lo[k]), float(self.base.hi[k])
            if lo == hi and c != 1:
                raise ValueError(f"degenerate dimension {k} must have count 1")
            e = lo + np.arange(c + 1) * (widths[k] / c)
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

    def range_bounds(self, a, b):
        """(lo, hi) bounds (..., n) of lattice ranges ``[a, b)``, one index array per dimension."""
        return tuple(np.stack([self.edges(k)[e[k]] for k in range(self.dim)], axis=-1)
                     for e in (a, b))

    def bounds_arrays(self):
        """Row-major ``(lo, hi)`` bounds of all cells, refused past `CELL_BUDGET`.

        The bounds are C-contiguous ``(N, n)`` arrays written by broadcasting
        ``edges(k)[:-1]`` and ``[1:]`` along axis k of the grid's shape: the
        edge floats that `range_bounds` would gather through ``2 N n``
        indices, copied without the indices.  No index array is built: a
        full batch derives its lattice indices when a report reads them
        (`CellBatch.index`).
        """
        _refuse_past_budget(self.total, "grid", self.counts)
        n = self.dim
        lo = np.empty(self.counts + (n,))
        hi = np.empty_like(lo)
        for k, c in enumerate(self.counts):
            axis = (1,) * k + (c,) + (1,) * (n - 1 - k)
            lo[..., k] = self.edges(k)[:-1].reshape(axis)
            hi[..., k] = self.edges(k)[1:].reshape(axis)
        return lo.reshape(-1, n), hi.reshape(-1, n)


@dataclass
class CellBatch:
    """Cells of one grid as lattice index ranges ``[a, b)``, with their bounds and output hulls.

    The builder passes the bounds it read off ``grid``'s edges: the edge
    floats at ``a`` and ``b``, as `CellGrid.range_bounds` gathers them.  A
    batch of every grid cell in row-major order passes ``None`` for both
    index arrays: the passes read only the bounds, so `index` and `b` are
    derived from the grid when a report, ``reachbound certify`` or
    ``scripts/manifest_diff.py`` reads them, and never stored.
    """

    grid: CellGrid
    _index: Optional[np.ndarray]  # (N, n) range starts a; None for every cell, row-major
    _b: Optional[np.ndarray]  # (N, n) range ends; None likewise
    lo: np.ndarray  # (N, n) edges at a and b, read once
    hi: np.ndarray
    out_lo: Optional[np.ndarray] = None  # filled by propagate_cells
    out_hi: Optional[np.ndarray] = None

    @property
    def index(self) -> np.ndarray:
        """(N, n) range starts a, which label the cells in reports."""
        if self._index is not None:
            return self._index
        return np.indices(self.grid.counts).reshape(self.grid.dim, -1).T

    @property
    def b(self) -> np.ndarray:
        """(N, n) range ends: ``a + 1`` for a batch of every grid cell."""
        return self.index + 1 if self._b is None else self._b

    @property
    def count(self) -> int:
        return int(self.lo.shape[0])


# Largest cell batch one level may build.  A level holds each cell's
# lattice range and bounds (32 bytes per input dimension; a full grid's
# range is derived when read) and its output hull (16 bytes per output
# dimension): at 2^22 cells, 0.4 GB at 2 inputs and 1.2 GB at 6.  The
# passes run in blocks of `domains._block_rows` cells, so their per-layer
# arrays do not grow with the grid.  The benchmark's largest level is
# 40 000 cells.
CELL_BUDGET = 2**22


class CellBudgetError(ValueError):
    """A level would build more than `CELL_BUDGET` cells; nothing was allocated."""


def _int_counts(counts) -> tuple[int, ...]:
    """``counts`` as ints of at least 1 through `network._index`: a bool, float or string fails."""
    return tuple(_index("subdivision count", c, 1) for c in counts)


def _refuse_past_budget(cells: int, kind: str, counts) -> None:
    """Raise `CellBudgetError` before any allocation when ``cells`` or a count passes `CELL_BUDGET`.

    A count is bounded on its own because `CellGrid` builds ``c + 1`` edges
    for it however few cells a builder keeps: a 1-d box has 2 face cells.
    """
    if max([cells, *counts]) > CELL_BUDGET:
        need = (f"{cells} {kind} cells" if cells > CELL_BUDGET
                else f"{max(counts)} cells on one axis")
        raise CellBudgetError(f"grid {'x'.join(map(str, counts))} needs {need}, "
                              f"more than the budget of {CELL_BUDGET}; refusing to allocate it")


def grid_cell_batch(box: Box, counts) -> CellBatch:
    """All cells of the grid of ``counts`` on ``box``, ``b = a + 1``: `CellGrid.bounds_arrays`.

    The batch holds no index arrays: its row-major `CellBatch.index` and
    ``b`` are derived when read, so a full-mode level builds only its
    bounds.
    """
    counts = _int_counts(counts)
    _refuse_past_budget(math.prod(counts), "grid", counts)
    grid = CellGrid(box, counts)
    return CellBatch(grid, None, None, *grid.bounds_arrays())


def boundary_cell_batch(box: Box, counts) -> CellBatch:
    """All boundary-face cells of the grid of ``counts`` on ``box``, as lattice ranges.

    A face cell is the range ``[a, b)`` with ``a_k = b_k``, 0 on the low
    k-face and ``counts[k]`` on the high one, and ``b_j = a_j + 1`` in every
    other dimension; its lattice index is ``a``.  Faces come in order of k,
    low before high, each in row-major order: ``2 sum_k prod_{j != k} c_j``.
    """
    if box.degenerate_dims():
        raise ValueError("boundary faces require a box that is non-degenerate in every dimension")
    counts = _int_counts(counts)
    shapes = [counts[:k] + (1,) + counts[k + 1 :] for k in range(len(counts))]
    _refuse_past_budget(2 * sum(map(math.prod, shapes)), "face", counts)
    grid = CellGrid(box, counts)
    parts = []
    for k, shape in enumerate(shapes):
        a = np.indices(shape).reshape(len(shape), -1).T
        b = a + 1
        for edge in (0, counts[k]):
            a[:, k] = b[:, k] = edge
            parts.append((a.copy(), b.copy()))
    a, b = (np.concatenate(ends) for ends in zip(*parts))
    return CellBatch(grid, a, b, *grid.range_bounds(a.T, b.T))


def grid_counts(counts, box: Box, level: int = 0) -> tuple[int, ...]:
    """Per-dimension cell counts on ``box`` at refinement ``level``: None means one cell each.

    One count applies to every dimension except the zero-width ones, which
    take 1.  Each level doubles every count but theirs.  Counts are read
    through `_int_counts`: a bool, float, string or count below 1 fails.
    """
    flat = box.degenerate_dims()
    try:
        counts = (1,) * box.dim if counts is None else _int_counts(counts)
    except (TypeError, ValueError):
        raise ValueError("grid needs a sequence of positive integer counts, "
                         f"got {counts!r}") from None
    if len(counts) == 1:
        counts = tuple(1 if k in flat else counts[0] for k in range(box.dim))
    if len(counts) != box.dim:
        raise ValueError("grid needs one count per input dimension")
    return tuple(c if k in flat else c * 2**level for k, c in enumerate(counts))


# ---------------------------------------------------------------------------
# interval Jacobians and certification


_MAX_INPUTS = 6


def jacobian_interval_arrays(net: Network, lo: np.ndarray, hi: np.ndarray):
    """Enclose the Jacobian over batched cells (..., n); returns (..., m, n) bounds.

    With D_l the enclosure of layer l's activation derivative over the cell,
    ``J_1 = D_1 W_1`` and ``J_l = D_l (W_l J_{l-1})``.  In real arithmetic
    ``D (W J)`` is contained in ``(D W) J`` (subdistributivity), so this order
    is never wider than multiplying the interval matrix ``D W`` into ``J``.
    The product is carried tangent-major, as ``(n, ..., m_l)``: slice j is
    the interval vector of column j of ``J`` for every cell, so ``W_l
    J_{l-1}`` is the box pass's own `_interval_matvec_arrays` call on those
    ``n`` times as many rows, without the bias, and ``D_l``, shaped like the
    cells' pre-activations ``(..., m_l)``, broadcasts along the leading axis.
    The returned bounds are views of it with the tangent axis moved last
    (`np.moveaxis`'s view, by one `np.transpose`).  BLAS may round a row
    differently at another position in the call (a 2-8-1 net does), so the
    row order is part of the bits.

    `_act_deriv_arrays` clamps its lower end at 0, so ``D >= 0`` and
    ``D B`` is the sign-select product `_nonneg_imul_arrays`: two products
    where `_imul_arrays` takes four corners.

    Each layer takes one outward step.  A hidden layer's pre-activation
    enclosure and activation range are the box pass's own kernel calls, so
    they are enclosures and the next pre-activation product charges
    nothing.  Its derivative enclosure and ``D B`` product go unpadded:
    their ends lie within ``c m`` of an enclosure's, ``c = u + r (1 + u)``
    with ``u = 2^-53``, ``r = _PAD_DERIV 2^-52`` and ``m = max(|end|,
    2^-1022)``, and the next ``W J`` product charges that as `_J_ULPS` ulps
    in its term (``x_ulps`` of `_interval_matvec_arrays`, which holds the
    argument).  No product follows a nonlinear last layer, or a one-layer
    net's layer, so its ``D B`` ends take one closing step of ``s =
    _J_ULPS + 1`` (`_down`/`_up`).  By the relative bound in `_down`, s
    steps move an end out by ``c m`` or more once ``2s (1 - u)^3 - 1 >= 17
    + 16u`` (that is, ``c / u``) for a normal end and ``(2s - 1)(1 - u)^2 -
    1 >= 17 + 16u`` below ``2^-1022``: ``s = 10`` meets both, ``s = 9``
    neither.  A linear last layer after at least one other (every benchmark
    net's output layer) has ``D = [1, 1]``, so its ``J`` is ``B``, returned
    as the product computed it, and its pre-activation enclosure, which
    only gave ``D`` its shape, is never computed.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    jlo = jhi = None
    last = len(net.layers) - 1
    for k, layer in enumerate(net.layers):
        if jlo is not None:
            blo, bhi = _interval_matvec_arrays(layer._ops, jlo, jhi, bias=False, x_ulps=_J_ULPS)
            if k == last and _lookup(layer.activation).linear:
                jlo, jhi = blo, bhi
                break
        zlo, zhi = _interval_matvec_arrays(layer._ops, lo, hi)
        dlo, dhi = _act_deriv_arrays(layer.activation, zlo, zhi)
        if jlo is None:  # W_1^T (n, m_1) as (n, 1, ..., 1, m_1), against D's (..., m_1)
            t = layer._ops.t
            blo = bhi = t.reshape(t.shape[:1] + (1,) * (dlo.ndim - 1) + t.shape[1:])
        jlo, jhi = _nonneg_imul_arrays(dlo, dhi, blo, bhi)
        if k == last:  # no product follows to charge the ulps: close them here
            jlo, jhi = _down(jlo, _J_ULPS + 1), _up(jhi, _J_ULPS + 1)
        else:  # only the next layer reads the range, and D is built: reuse z's arrays
            lo, hi = _act_range_arrays(layer.activation, zlo, zhi, out=(zlo, zhi))
    axes = (*range(1, jlo.ndim), 0)
    return jlo.transpose(axes), jhi.transpose(axes)


def _passes_row_test(net: Network, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The row test on boxes (..., n), in row blocks: every Jacobian row has an entry excluding 0."""
    def passes(lo, hi):
        jlo, jhi = jacobian_interval_arrays(net, lo, hi)
        return (np.all(np.any((jlo > 0.0) | (jhi < 0.0), axis=-1), axis=-1),)

    return _map_row_blocks(net, passes, lo, hi, ((),), dtype=bool)[0]


def box_passes_row_test(net: Network, box: Box) -> bool:
    """`_passes_row_test` on one box, on any network shape.

    When it passes, no output has a critical point in the box, so every
    output's extrema over the box lie on its faces (see `extract_subset`).

    A box with a zero-width dimension fails without a Jacobian call: the
    argument steps from a point along the gradient, which needs width in
    every dimension, so an output can peak inside such a box with every row
    passing on an entry of a zero-width dimension.
    """
    if box.dim != net.input_dim:
        raise ValueError(f"box dimension {box.dim} != input dim {net.input_dim}")
    if box.degenerate_dims():
        return False
    return bool(_passes_row_test(net, box.lo, box.hi))


def _check_determinant_test(net: Network, dim: int) -> None:
    """Refuse ``dim``-d cells that `certify_cells` cannot test, before any is built."""
    if not (net.is_square and dim == net.input_dim <= _MAX_INPUTS):  # cofactor expansion
        raise ValueError(f"the determinant test requires a square network with at most "
                         f"{_MAX_INPUTS} inputs and cells of its input dimension, got "
                         f"{dim}-d cells for a {net.input_dim} -> {net.output_dim} network")


def certify_homeomorphism(net: Network, cell: Box) -> tuple[float, float, bool]:
    """`certify_cells` on one box: its ``(det_lo, det_hi, certified)`` as Python scalars."""
    # (n,) bounds: `_interval_matvec_arrays` runs them as a one-row batch
    det_lo, det_hi, certified = certify_cells(net, cell.lo, cell.hi)
    return float(det_lo), float(det_hi), bool(certified)


def certify_cells(net: Network, lo: np.ndarray, hi: np.ndarray):
    """Batch certification of cells (..., n); returns (det_lo, det_hi, certified) arrays.

    Rows run in blocks (`_map_row_blocks`), which bound the per-layer
    Jacobian arrays on large grids.  No rows make no Jacobian call.
    """
    _check_determinant_test(net, np.shape(lo)[-1])
    det_lo, det_hi = _map_row_blocks(
        net, lambda lo, hi: _idet_arrays(*jacobian_interval_arrays(net, lo, hi)), lo, hi, ((), ()))
    return det_lo, det_hi, (det_lo > 0.0) | (det_hi < 0.0)


# ---------------------------------------------------------------------------
# subset extraction

_DROPPED, _TO_TEST, _WHOLE = 0, 1, 2  # the states of a node in `extract_subset`'s tree
# a node of at most this many cells in every dimension is kept whole, untested: its
# children, at most 2 cells per dimension, cannot repay a level's call (`extract_subset`)
_LEAF = 4


class SubsetExtraction(CellBatch):
    """The cells `extract_subset` keeps: every cell that can hold an output extremum.

    They are the cells of the tree's nodes kept whole: the root's ring of
    cells that touch a face of the input box, whatever their Jacobian, and
    the leaf-sized interior nodes that failed or were never tested.  They are
    grid cells, ``b = a + 1``, in row-major order.  Touching is decided on
    grid indices, never on float comparisons.  In ``counts``,
    ``certified_interior`` is the interior cells dropped by the row test.
    """

    @property
    def counts(self) -> dict:
        total, kept = self.grid.total, self.count
        return {"total": total, "certified_interior": total - kept, "kept": kept}


def _split_cuts(cuts: np.ndarray):
    """New cuts and each range's part count: a range of length r splits into ceil(sqrt(r)).

    Part j of a range ``[a, a + r)`` split into p parts is
    ``[a + j r // p, a + (j + 1) r // p)``.  Any p in ``[1, r]`` keeps every
    part nonempty, so the rounding of the float square root does not matter,
    and a range of one cell is its own only part.
    """
    r = np.diff(cuts)
    p = np.ceil(np.sqrt(r)).astype(np.int64)
    i = np.repeat(np.arange(r.size), p)
    j = np.arange(i.size) - np.repeat(np.cumsum(p) - p, p)
    return np.append(cuts[i] + j * r[i] // p[i], cuts[-1]), p


def extract_subset(net: Network, input_box: Box, counts) -> SubsetExtraction:
    """Keep the cells that can hold an output extremum, in row-major order.

    Argument.  A safe set S is a box, so ``f(B) ⊆ S`` iff every output
    ``f_i`` has its minimum and maximum over ``B`` inside ``S``.  Such an
    extremum lies on ``∂B`` or at an interior point where ``∇f_i = 0``.  Row
    i of the Jacobian is ``∇f_i``, so a closed region where, for every row
    i, some entry of the row's enclosure excludes 0 holds neither kind of
    point if it lies inside ``int(B)``: it can be dropped.  The kept cells,
    the ring of cells that touch a face plus every cell not dropped, then
    hold every extremum, and the hull of their images contains that of
    ``f(B)``.  A determinant enclosure that excludes 0 implies this row
    test, because a row box that holds 0 contains a singular matrix.

    Search.  A level is a coarse grid, one cut array per dimension, and an
    ``int8`` array of node states (`_DROPPED`, `_TO_TEST`, `_WHOLE`) over
    the whole lattice.  The root cuts each dimension at ``[0, 1, c - 1, c]``
    and keeps its nodes whole, the ring that touches a face, but the centre:
    the interior block ``[1, c - 1)``, to test unless it is leaf-sized, at
    most `_LEAF` (4) cells in every dimension.  Each level splits every
    range (`_split_cuts`) and the states with it, so children inherit them;
    tests the to-test children in one `_passes_row_test` call, on bounds
    that `CellGrid.range_bounds` reads at their cut indices, so a node's
    bounds are its cells' own floats; drops each passing child; and keeps a
    failing one whole if leaf-sized, else to test.  Once none is left to
    test, `np.repeat` spreads the states over the lattice, and every cell
    not dropped is kept.

    Cost.  A tree level costs one `_passes_row_test` call: 0.09-0.16 ms for
    one row on the planar workload nets, and each further row 3.9-5.8 times
    a box-pass row between 64 and 576 rows (10th percentile of 200 calls,
    one BLAS thread).  A dropped cell saves one box-pass row.  A failing
    leaf-sized node would split into children of at most 2 cells per
    dimension, so in the plane a tested row could drop at most 4 box-pass
    rows, and the level cannot repay its call: on tanh-2-8-8-2 at 200^2
    such a level tested 576 rows in 0.57-0.60 ms to drop 991 cells whose box
    pass took 0.29-0.32 ms (best of 40).  Splitting a range of length r into
    ceil(sqrt(r)) parts, not two, keeps the depth near log log N, because
    each level's call has a fixed cost on top of its cells.

    When the tree dropped no node, every cell is kept, and
    `CellGrid.bounds_arrays` lists them without spreading the states and
    without index arrays, as `grid_cell_batch` does.
    Otherwise one `np.flatnonzero` of the spread keep mask and
    `np.unravel_index` list the kept cells in row-major order, and
    `CellGrid.range_bounds` gathers their bounds.  A grid with no interior
    cell (a count below 3, as in a zero-width dimension) has one root node,
    kept whole, so every cell is kept untested.  The argument reads one
    gradient row per output, so the tree runs on any network shape: it
    needs neither a square network nor few inputs.
    """
    if input_box.dim != net.input_dim:
        raise ValueError(f"input box dimension {input_box.dim} != input dim {net.input_dim}")
    counts = _int_counts(counts)
    _refuse_past_budget(math.prod(counts), "grid", counts)
    grid = CellGrid(input_box, counts)
    inner = min(grid.counts) > 2
    cuts = [np.array([0, 1, c - 1, c] if inner else [0, c]) for c in grid.counts]
    state = np.full([len(c) - 1 for c in cuts], _WHOLE, dtype=np.int8)
    if inner and max(grid.counts) - 2 > _LEAF:
        state[(1,) * grid.dim] = _TO_TEST
    while (state == _TO_TEST).any():
        for k in range(grid.dim):
            cuts[k], parts = _split_cuts(cuts[k])
            state = np.repeat(state, parts, axis=k)
        nodes = np.nonzero(state == _TO_TEST)
        lo, hi = grid.range_bounds(*([c[i + e] for c, i in zip(cuts, nodes)] for e in (0, 1)))
        failed = np.where(np.all([np.diff(c)[i] <= _LEAF for c, i in zip(cuts, nodes)], axis=0),
                          _WHOLE, _TO_TEST)
        state[nodes] = np.where(_passes_row_test(net, lo, hi), _DROPPED, failed)
    if not (state == _DROPPED).any():
        return SubsetExtraction(grid, None, None, *grid.bounds_arrays())
    for k, c in enumerate(cuts):
        state = np.repeat(state, np.diff(c), axis=k)
    index = np.stack(np.unravel_index(np.flatnonzero(state != _DROPPED), state.shape), axis=-1)
    b = index + 1
    return SubsetExtraction(grid, index, b, *grid.range_bounds(index.T, b.T))
