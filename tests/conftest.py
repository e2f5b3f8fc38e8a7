import numpy as np
import pytest
from hypothesis import strategies as st

import reachbound as rb
from reachbound import topology
from reachbound.topology import jacobian_interval_arrays

# Frozen seeded fixtures, chosen so that:
#  - INVERTIBLE certifies on the whole unit square as a single cell,
#  - MIXED has a genuinely sign-varying Jacobian determinant on [-1,1]^2.
INVERTIBLE = dict(seed=25, dims=(2, 5, 2), activation="tanh", scale=0.8)
MIXED = dict(seed=11, dims=(2, 7, 2), activation="tanh", scale=2.0)

# the benchmark's net shapes (perfbench/workloads.py); sigmoid-2-8-2 is its one sigmoid net
WORKLOAD_NETS = [((2, 5, 2), "tanh"), ((2, 7, 2), "tanh"), ((2, 8, 2), "sigmoid"),
                 ((2, 8, 8, 2), "tanh"), ((3, 12, 3), "tanh"), ((4, 12, 4), "tanh"),
                 ((6, 16, 6), "tanh"), ((6, 16, 16, 6), "tanh")]


def make_net(**kwargs):
    params = dict(INVERTIBLE)
    params.update(kwargs)
    return rb.generate_network(**params)


def identity_net(dim=2):
    return rb.Network(
        (rb.Layer(np.eye(dim), np.zeros(dim), "linear"),)
    )


def linear_net(w, b=None):
    w = np.asarray(w, dtype=float)
    b = np.zeros(w.shape[0]) if b is None else np.asarray(b, dtype=float)
    return rb.Network((rb.Layer(w, b, "linear"),))


def dropped_mask(ex) -> np.ndarray:
    """Row-major mask over all the grid's cells: True where `ex.index` lacks the cell."""
    dropped = np.ones(ex.grid.counts, dtype=bool)
    dropped[tuple(ex.index.T)] = False
    return dropped.ravel()


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


def kept_whole_mask(grid, levels) -> np.ndarray:
    """Row-major mask of the cells inside a leaf-sized node (at most 2 cells per dimension)
    that failed the row test at some level, or that was never evaluated: the interior
    block, which is the tree's root.  The tree keeps such a node whole."""
    kept = np.zeros(grid.counts, dtype=bool)
    root = (np.ones((1, grid.dim), dtype=int), np.array([grid.counts]) - 1)
    for a, b in [root] + [(a[~passed], b[~passed]) for a, b, passed in levels]:
        for ai, bi in zip(a, b):
            if np.all(bi > ai) and np.all(bi - ai <= 2):
                kept[tuple(slice(x, y) for x, y in zip(ai, bi))] = True
    return kept.ravel()


def assert_dropped_cells_hold_no_zero_gradient(net, ex, rng, cells=40, per_cell=30):
    """Oracle: in each of up to ``cells`` dropped cells, every output row has a column whose
    ``per_cell`` sampled point Jacobians, two corners of the cell among them, share one
    nonzero sign.  Returns the number of dropped cells checked."""
    n = net.input_dim
    _, all_lo, all_hi = ex.grid.bounds_arrays()
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
        draw(st.sampled_from(["linear", "sigmoid"])),
    )
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
