import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import strategies as st

import reachbound as rb
from reachbound import topology
from reachbound.intervals import (
    _act_deriv_arrays,
    _act_range_arrays,
    _down,
    _interval_matvec_arrays,
    _J_ULPS,
    _lookup,
    _nonneg_imul_arrays,
    _operands,
    _TILE,
    _up,
)
from reachbound.topology import (
    CellGrid,
    SubsetExtraction,
    _passes_row_test,
    _refuse_past_budget,
    jacobian_interval_arrays,
)

# Frozen seeded fixtures, chosen so that:
#  - INVERTIBLE certifies on the whole unit square as a single cell,
#  - MIXED has a genuinely sign-varying Jacobian determinant on [-1,1]^2.
INVERTIBLE = dict(seed=25, dims=(2, 5, 2), activation="tanh", scale=0.8)
MIXED = dict(seed=11, dims=(2, 7, 2), activation="tanh", scale=2.0)

# the benchmark's net shapes (perfbench/workloads.py); sigmoid-2-8-2 is its one sigmoid net
WORKLOAD_NETS = [((2, 5, 2), "tanh"), ((2, 7, 2), "tanh"), ((2, 8, 2), "sigmoid"),
                 ((2, 8, 8, 2), "tanh"), ((3, 12, 3), "tanh"), ((4, 12, 4), "tanh"),
                 ((6, 16, 6), "tanh"), ((6, 16, 16, 6), "tanh")]
# nets planned past six inputs (ROADMAP item 23), checked for bits across block splits
PLANNED_NETS = [((8, 16, 8), "tanh"), ((8, 24, 8), "tanh")]


def dec_tanh_deriv(x: Decimal) -> Decimal:
    e = x.exp()
    return 4 / (e + 1 / e) ** 2  # sech^2 = (2 / (e^x + e^-x))^2


def bias_rows(*widths):
    """Row counts around the bias tiles of these widths, ``ceil(_TILE / m)`` rows each: one
    row, a tile less one, a tile, a tile and one, and leftover rows past whole tiles, plus
    the box pass's block."""
    rows = {4000, 4096}
    for t in (math.ceil(_TILE / m) for m in widths):
        rows |= {1, t - 1, t, t + 1, 3 * t + 5}
    return sorted(rows)


def plain_add_bias(rows, tile):
    """The ``(N, m) += (m,)`` broadcast that `intervals._add_bias` replaces."""
    rows += tile[0]


def make_net(**kwargs):
    params = dict(INVERTIBLE)
    params.update(kwargs)
    return rb.generate_network(**params)


def identity_net(dim=2):
    return rb.Network(
        (rb.Layer(np.eye(dim), np.zeros(dim), "linear"),)
    )


def linear_hidden_net(seed=7):
    """A 3 -> 6 -> 5 -> 4 -> 2 net whose second hidden layer is linear, which `deep_nets` never draws."""
    rng = np.random.default_rng(seed)
    dims, acts = (3, 6, 5, 4, 2), ("tanh", "linear", "sigmoid", "linear")
    return rb.Network(tuple(rb.Layer(rng.uniform(-1.5, 1.5, (m, k)), rng.uniform(-1, 1, m), a)
                            for k, m, a in zip(dims, dims[1:], acts)))


def ref_jacobian_interval_arrays(net, lo, hi):
    """The plain Jacobian chain: every layer's pre-activation enclosure and derivative
    enclosure, a linear one's too, and ``W J`` with a zero bias added.

    Hidden layers take the box pass's ranges, their unpadded ``D B`` is
    charged by the next ``W J`` product, and the last layer's ``D B`` takes
    the closing step of ``_J_ULPS + 1``, unless it is linear after another,
    where ``D = 1`` and the product hands ``W J`` back as computed.  ``J``
    is tangent-major, ``(n, ..., m_l)``, as in the kernel: BLAS may round a
    row of ``W J`` differently at another position in the call."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    cells = tuple(range(1, lo.ndim))  # W_1^T's axes for the cells' batch axes
    jlo = jhi = None
    last = len(net.layers) - 1
    for k, layer in enumerate(net.layers):
        zlo, zhi = _interval_matvec_arrays(_operands(layer.weights, layer.bias), lo, hi)
        dlo, dhi = _act_deriv_arrays(layer.activation, zlo, zhi)
        if jlo is None:  # a C-ordered W_1^T: the unpadded product keeps its operand's order,
            # and BLAS may round an F-ordered J's rows differently
            blo = bhi = np.expand_dims(layer.weights.T.copy(), cells)
        else:
            blo, bhi = _interval_matvec_arrays(_operands(layer.weights, 0.0), jlo, jhi,
                                               x_ulps=_J_ULPS)
        jlo, jhi = _nonneg_imul_arrays(dlo, dhi, blo, bhi)
        if k < last:
            lo, hi = _act_range_arrays(layer.activation, zlo, zhi)
        elif k == 0 or not _lookup(layer.activation).linear:
            jlo, jhi = _down(jlo, _J_ULPS + 1), _up(jhi, _J_ULPS + 1)
    return np.moveaxis(jlo, 0, -1), np.moveaxis(jhi, 0, -1)


def linear_net(w, b=None):
    w = np.asarray(w, dtype=float)
    b = np.zeros(w.shape[0]) if b is None else np.asarray(b, dtype=float)
    return rb.Network((rb.Layer(w, b, "linear"),))


def dropped_mask(ex) -> np.ndarray:
    """Row-major mask over all the grid's cells: True where `ex.index` lacks the cell."""
    dropped = np.ones(ex.grid.counts, dtype=bool)
    dropped[tuple(ex.index.T)] = False
    return dropped.ravel()


def interior_mask(grid) -> np.ndarray:
    """Row-major mask over all the grid's cells: True where a cell touches no face of the box."""
    idx = np.indices(grid.counts).reshape(grid.dim, -1).T
    return np.all((idx > 0) & (idx + 1 < np.array(grid.counts)), axis=1)


def row_test(jlo, jhi):
    """Every row of a Jacobian enclosure has an entry that excludes 0."""
    return np.all(np.any((jlo > 0) | (jhi < 0), axis=-1), axis=-1)


def node_indices(grid, lo, hi):
    """Lattice index ranges [a, b) of node bounds that are grid edges."""
    a = np.stack([np.searchsorted(grid.edges(k), lo[:, k]) for k in range(grid.dim)], axis=1)
    b = np.stack([np.searchsorted(grid.edges(k), hi[:, k]) for k in range(grid.dim)], axis=1)
    for k in range(grid.dim):
        assert np.array_equal(grid.edges(k)[a[:, k]], lo[:, k])
        assert np.array_equal(grid.edges(k)[b[:, k]], hi[:, k])
    return a, b


def traced_extraction(net, box, counts):
    """`extract_subset` plus its tree's levels: per Jacobian call, the nodes' [a, b) and
    whether each passes the row test, re-run here on the recorded bounds."""
    calls = []

    def recording(net, lo, hi):
        calls.append((lo, hi))
        return jacobian_interval_arrays(net, lo, hi)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(topology, "jacobian_interval_arrays", recording)
        ex = rb.extract_subset(net, box, counts)
    levels = [(*node_indices(ex.grid, lo, hi), row_test(*jacobian_interval_arrays(net, lo, hi)))
              for lo, hi in calls]
    return ex, levels


def _split_nodes(a: np.ndarray, b: np.ndarray):
    """Children of index-range nodes ``[a, b)``: a range of length r splits into ceil(sqrt(r)).

    Part j of a range ``[a, a + r)`` split into p parts is
    ``[a + j r // p, a + (j + 1) r // p)``.  Any p in ``[1, r]`` keeps every
    part nonempty, so the rounding of the float square root does not matter,
    and a node of one cell is its own only child.
    """
    for k in range(a.shape[1]):
        r = b[:, k] - a[:, k]
        p = np.ceil(np.sqrt(r)).astype(np.int64)
        parent = np.repeat(np.arange(a.shape[0]), p)
        j = np.arange(parent.shape[0]) - np.repeat(np.cumsum(p) - p, p)
        start = a[parent, k] + j * r[parent] // p[parent]
        stop = a[parent, k] + (j + 1) * r[parent] // p[parent]
        a, b = a[parent], b[parent]
        a[:, k], b[:, k] = start, stop
    return a, b


def ref_extract_subset(net, input_box, counts):
    """`extract_subset` as a tree of index-range nodes ``[a, b)``, each node split on its
    own: the oracle for the mask tree.  Returns the extraction and, per level, the
    ``(a, b)`` of the nodes its `_passes_row_test` call evaluated."""
    levels = []
    if input_box.dim != net.input_dim:
        raise ValueError(f"input box dimension {input_box.dim} != input dim {net.input_dim}")
    counts = tuple(int(c) for c in counts)
    _refuse_past_budget(math.prod(counts), "grid", counts)
    grid = CellGrid(input_box, counts)
    a = np.ones((1, grid.dim), dtype=np.int64)
    b = np.array([grid.counts], dtype=np.int64) - 1
    kept = np.ones(grid.counts, dtype=bool)
    kept[tuple(map(slice, a[0], b[0]))] = False
    if not np.all(b > a):  # no interior: the root is empty and every cell stays kept
        a = b = a[:0]
    while a.shape[0]:
        leaf = np.all(b - a <= topology._LEAF, axis=1)
        for ai, bi in zip(a[leaf], b[leaf]):
            kept[tuple(map(slice, ai, bi))] = True
        a, b = _split_nodes(a[~leaf], b[~leaf])
        if a.shape[0]:
            levels.append((a, b))
            passed = _passes_row_test(net, *grid.range_bounds(a.T, b.T))
            a, b = a[~passed], b[~passed]
    index = np.argwhere(kept)
    b = index + 1
    return SubsetExtraction(grid, index, b, *grid.range_bounds(index.T, b.T)), levels


def kept_whole_mask(grid, levels) -> np.ndarray:
    """Row-major mask of the cells inside a leaf-sized node (at most `topology._LEAF` cells
    per dimension) that failed the row test at some level, or that was never evaluated: the
    interior block, which is the tree's root.  The tree keeps such a node whole."""
    kept = np.zeros(grid.counts, dtype=bool)
    root = (np.ones((1, grid.dim), dtype=int), np.array([grid.counts]) - 1)
    for a, b in [root] + [(a[~passed], b[~passed]) for a, b, passed in levels]:
        for ai, bi in zip(a, b):
            if np.all(bi > ai) and np.all(bi - ai <= topology._LEAF):
                kept[tuple(slice(x, y) for x, y in zip(ai, bi))] = True
    return kept.ravel()


def assert_dropped_cells_hold_no_zero_gradient(net, ex, rng, cells=40, per_cell=30):
    """Oracle: in each of up to ``cells`` dropped cells, every output row has a column whose
    ``per_cell`` sampled point Jacobians, two corners of the cell among them, share one
    nonzero sign.  Returns the number of dropped cells checked."""
    n = net.input_dim
    all_lo, all_hi = ex.grid.bounds_arrays()
    rows = rng.permutation(np.flatnonzero(dropped_mask(ex)))[:cells]
    t = rng.random((rows.size, per_cell, n))
    t[:, :2] = rng.integers(0, 2, (rows.size, 2, n))
    lo, hi = all_lo[rows, None], all_hi[rows, None]
    pts = np.minimum(lo + t * (hi - lo), hi)
    jacs = rb.jacobian_batch(net, pts.reshape(-1, n))
    jacs = jacs.reshape(rows.size, per_cell, net.output_dim, n)
    one_sign = np.all(jacs > 0, axis=1) | np.all(jacs < 0, axis=1)  # (cells, m, n)
    assert np.all(np.any(one_sign, axis=-1))
    return rows.size


def mc_safe(net, box, inflate, n=20_000, seed=0):
    hull = rb.monte_carlo(net, box, n, seed).image_hull
    c = hull.midpoint()
    half = np.maximum((hull.hi - hull.lo) * 0.5 * inflate, 1e-6)
    return rb.Box.from_arrays(c - half, c + half)


def sample_box(box: rb.Box, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    lo, hi = box.lo, box.hi
    return lo + rng.random((n, box.dim)) * (hi - lo)


# random nets: 2-6 inputs, 1-3 hidden layers, with a cell-sampling seed; square, or with
# 1 to n + 2 outputs other than n
@st.composite
def deep_nets(draw, square=True):
    n = draw(st.integers(2, 6))
    hidden = draw(st.lists(st.integers(2, 8), min_size=1, max_size=3))
    m = n if square else draw(st.integers(1, n + 2).filter(lambda m: m != n))
    net = rb.generate_network(
        draw(st.integers(0, 2**16)),
        [n, *hidden, m],
        draw(st.sampled_from(["tanh", "sigmoid"])),
        draw(st.floats(0.3, 2.0)),
    )
    last = net.layers[-1]  # the generated output layer is linear; some nets take a sigmoid
    output = rb.Layer(last.weights, last.bias, draw(st.sampled_from(["linear", "sigmoid"])))
    net = rb.Network(net.layers[:-1] + (output,))
    return net, draw(st.integers(0, 2**16))


@pytest.fixture
def unit_square():
    return rb.Box.from_bounds([(0, 1), (0, 1)])


@pytest.fixture
def invertible_net():
    return make_net()


@pytest.fixture
def mixed_net():
    return make_net(**MIXED)
