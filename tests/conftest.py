import numpy as np
import pytest
from hypothesis import strategies as st

import reachbound as rb

# Frozen seeded fixtures, chosen so that:
#  - INVERTIBLE certifies on the whole unit square as a single cell,
#  - MIXED has a genuinely sign-varying Jacobian determinant on [-1,1]^2.
INVERTIBLE = dict(seed=25, dims=(2, 5, 2), activation="tanh", scale=0.8)
MIXED = dict(seed=11, dims=(2, 7, 2), activation="tanh", scale=2.0)


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


def sample_box(box: rb.Box, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    lo, hi = box.lo, box.hi
    return lo + rng.random((n, box.dim)) * (hi - lo)


# random square nets: 2-6 inputs, 1-3 hidden layers, with a cell-sampling seed
@st.composite
def deep_nets(draw):
    n = draw(st.integers(2, 6))
    hidden = draw(st.lists(st.integers(2, 8), min_size=1, max_size=3))
    net = rb.generate_network(
        draw(st.integers(0, 2**16)),
        [n, *hidden, n],
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
