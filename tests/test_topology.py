from itertools import product

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import reachbound as rb
from reachbound import topology
from reachbound.topology import (
    CellBatch,
    boundary_cell_batch,
    box_passes_row_test,
    certify_cells,
    jacobian_interval_arrays,
)
from conftest import (
    MIXED,
    assert_dropped_cells_hold_no_zero_gradient,
    deep_nets,
    dropped_mask,
    interior_mask,
    kept_whole_mask,
    linear_hidden_net,
    linear_net,
    make_net,
    node_indices,
    ref_extract_subset,
    ref_jacobian_interval_arrays,
    row_test,
    sample_box,
    traced_extraction,
)


# ---------------------------------------------------------------------------
# grid cells


@pytest.mark.parametrize("bounds, counts", [
    ([(-1.0, 2.0)], (7,)),
    ([(-1.0, 1.0), (0.1, 0.7)], (13, 200)),
    ([(0.0, 1.0), (-3.0, 3.0), (1e-3, 2e-3)], (3, 4, 5)),
    ([(-1.0, 1.0)] * 6, (4,) * 6),
    ([(-1.0, 1.0), (0.5, 0.5), (0.0, 0.3)], (6, 1, 9)),
], ids=["1d", "13x200", "3d", "4^6", "zero-width"])
def test_grid_cell_bounds_are_the_gathered_edges(bounds, counts):
    batch = topology.grid_cell_batch(rb.Box.from_bounds(bounds), counts)
    assert np.array_equal(batch.index, np.argwhere(np.ones(counts, dtype=bool)))  # row-major
    assert np.array_equal(batch.b, batch.index + 1)
    lo, hi = batch.grid.range_bounds(batch.index.T, batch.b.T)
    assert batch.lo.tobytes() == lo.tobytes() and batch.hi.tobytes() == hi.tobytes()
    assert batch.lo.shape == batch.hi.shape == (np.prod(counts), len(counts))
    assert batch.lo.flags.c_contiguous and batch.hi.flags.c_contiguous
    assert batch.out_lo is None and batch.out_hi is None
    # every attribute the full constructor sets, and no other
    full = CellBatch(batch.grid, batch.index[:1], batch.b[:1], batch.lo[:1], batch.hi[:1])
    assert vars(batch).keys() == vars(full).keys()


_COUNT_BUILDERS = {
    "grid": topology.grid_cell_batch,
    "faces": boundary_cell_batch,
    "subset": lambda box, counts: topology.extract_subset(make_net(), box, counts),
    "CellGrid": rb.CellGrid,
}


@pytest.mark.parametrize("counts", [(2.7, 3), ("3", "2"), (True, 3), (5, 5.0)],
                         ids=["float", "string", "bool", "integral-float"])
@pytest.mark.parametrize("build", list(_COUNT_BUILDERS.values()), ids=list(_COUNT_BUILDERS))
def test_counts_must_be_integers(unit_square, build, counts):
    with pytest.raises(ValueError, match=r"subdivision count must be an integer, got "):
        build(unit_square, counts)


# ---------------------------------------------------------------------------
# boundary faces


def test_faces_of_unit_square(unit_square):
    faces = boundary_cell_batch(unit_square, (1, 1))
    expected = {
        ((0.0, 0.0), (0.0, 1.0)),
        ((1.0, 1.0), (0.0, 1.0)),
        ((0.0, 1.0), (0.0, 0.0)),
        ((0.0, 1.0), (1.0, 1.0)),
    }
    got = {tuple(zip(lo.tolist(), hi.tolist())) for lo, hi in zip(faces.lo, faces.hi)}
    assert got == expected


def test_faces_count_in_3d():
    faces = boundary_cell_batch(rb.Box.from_bounds([(-1, 1)] * 3), (1, 1, 1))
    assert faces.count == 6
    assert np.all(np.sum(faces.lo == faces.hi, axis=1) == 1)


def test_faces_reject_degenerate_input():
    with pytest.raises(ValueError):
        boundary_cell_batch(rb.Box.from_bounds([(0, 0), (0, 1)]), (1, 1))


def face_box_cells(box, counts):
    """The former construction: 2n degenerate face boxes, each partitioned on its own."""
    parts = []
    for k in range(box.dim):
        for side, v in enumerate((box.lo[k], box.hi[k])):
            face_lo, face_hi = box.lo.copy(), box.hi.copy()
            face_lo[k] = face_hi[k] = v
            face = rb.Box.from_arrays(face_lo, face_hi)
            face_counts = tuple(1 if j == k else counts[j] for j in range(box.dim))
            idx, lo, hi = rb.CellGrid(face, face_counts).bounds_arrays()
            idx = idx.copy()
            idx[:, k] = 0 if side == 0 else counts[k]
            parts.append((idx, lo, hi))
    return tuple(np.concatenate(arrays) for arrays in zip(*parts))


def test_boundary_cell_batch_bit_identical_to_face_boxes():
    rng = np.random.default_rng(61)
    for _ in range(300):
        n = int(rng.integers(1, 7))
        counts = tuple(int(c) for c in rng.integers(1, 9 if n <= 3 else 5, size=n))
        lo = rng.choice([rng.uniform(-10, 10), 0.0, -0.0, -1.0], size=n)
        hi = lo + rng.choice([rng.uniform(1e-3, 10), 1.0, 2.0**-30], size=n)
        box = rb.Box.from_arrays(lo, hi)
        batch = boundary_cell_batch(box, counts)
        idx, ref_lo, ref_hi = face_box_cells(box, counts)
        assert np.array_equal(batch.index, idx)
        assert np.array_equal(batch.lo, ref_lo) and np.array_equal(batch.hi, ref_hi)


# ---------------------------------------------------------------------------
# partitions


def test_partition_cell_count(unit_square):
    grid = rb.CellGrid(unit_square, (100, 100))
    assert grid.total == 10_000


def test_cell_grid_counts_are_ints(unit_square):
    grid = rb.CellGrid(unit_square, [np.int64(3), 2])
    assert grid.counts == (3, 2) and all(type(c) is int for c in grid.counts)


def test_partition_total_is_exact_past_int64():
    grid = rb.CellGrid(rb.Box.from_bounds([(0, 1)] * 7), (1000,) * 7)
    assert grid.total == 1000**7 == 10**21


def test_partition_trivial_is_box(unit_square):
    idx, lo, hi = rb.CellGrid(unit_square, (1, 1)).bounds_arrays()
    assert idx.tolist() == [[0, 0]]
    assert np.array_equal(lo[0], unit_square.lo) and np.array_equal(hi[0], unit_square.hi)


def test_partition_of_faces_gives_400_boundary_cells(unit_square):
    faces = boundary_cell_batch(unit_square, (100, 100))
    assert faces.count == 400
    for f in range(4):  # one block of 100 cells per face, pinned in dimension f // 2
        k = f // 2
        rows = slice(100 * f, 100 * (f + 1))
        assert np.all(faces.lo[rows, k] == faces.hi[rows, k])
        assert np.all(faces.lo[rows, 1 - k] < faces.hi[rows, 1 - k])


def test_partition_rejects_zero_count(unit_square):
    with pytest.raises(ValueError):
        rb.CellGrid(unit_square, (0, 10))


def test_partition_rejects_subdividing_degenerate_dim():
    face = rb.Box.from_bounds([(0, 0), (0, 1)])
    with pytest.raises(ValueError):
        rb.CellGrid(face, (2, 10))


def test_partition_tiles_exactly():
    box = rb.Box.from_bounds([(-0.3, 0.7)])
    grid = rb.CellGrid(box, (7,))
    edges = grid.edges(0)
    assert edges[0] == -0.3 and edges[-1] == 0.7
    assert np.all(np.diff(edges) > 0)
    _, lo, hi = grid.bounds_arrays()
    assert lo.shape == (7, 1)
    assert np.array_equal(hi[:-1, 0], lo[1:, 0])  # shared closed faces


def test_face_cover_equals_boundary(unit_square):
    # every point of the boundary lies in some face cell
    faces = boundary_cell_batch(unit_square, (10, 10))
    for k in range(2):
        for v in (0.0, 1.0):
            pts = sample_box(unit_square, 200, seed=13)
            pts[:, k] = v
            for p in pts:
                assert np.any(np.all((faces.lo <= p) & (p <= faces.hi), axis=1))


@pytest.mark.parametrize("build, at_budget, past_budget", [
    (topology.grid_cell_batch, (10, 10), (10, 11)),
    (lambda box, counts: topology.extract_subset(make_net(**MIXED), box, counts), (10, 10), (10, 11)),
    (boundary_cell_batch, (25, 25), (25, 26)),  # 100 and 102 face cells
    (boundary_cell_batch, (100,), (101,)),  # 2 face cells each, on 101 and 102 edges
], ids=["grid", "subset", "boundary", "boundary-1d"])
def test_every_builder_refuses_before_it_builds(monkeypatch, build, at_budget, past_budget):
    monkeypatch.setattr(topology, "CELL_BUDGET", 100)
    grids = []

    def recording_grid(box, counts):
        grids.append(tuple(counts))
        return rb.CellGrid(box, counts)

    monkeypatch.setattr(topology, "CellGrid", recording_grid)
    box = rb.Box.from_bounds([(-1, 1)] * len(at_budget))
    assert build(box, at_budget).grid.counts == at_budget
    with pytest.raises(ValueError, match="budget of 100; refusing to allocate"):
        build(box, past_budget)
    assert grids == [at_budget]  # the refused level built no grid


def test_cell_grid_refuses_a_count_past_the_budget(monkeypatch):
    monkeypatch.setattr(topology, "CELL_BUDGET", 256)
    box = rb.Box.from_bounds([(-1, 1), (-1, 1)])
    # a face level may sit on a grid of more cells than the budget; only a count is bounded
    assert rb.CellGrid(box, (256, 256)).edges(1).size == 257
    with pytest.raises(topology.CellBudgetError, match="grid 2x257 needs 257 cells on one axis, "
                                                       "more than the budget of 256"):
        rb.CellGrid(box, (2, 257))


def test_bounds_arrays_refuses_a_grid_past_the_budget(monkeypatch):
    # `CellGrid` bounds each count alone, so the full layout checks its own cell count
    monkeypatch.setattr(topology, "CELL_BUDGET", 100)
    box = rb.Box.from_bounds([(-1, 1), (-1, 1)])
    assert rb.CellGrid(box, (10, 10)).bounds_arrays()[1].shape == (100, 2)
    grid = rb.CellGrid(box, (10, 11))
    with pytest.raises(topology.CellBudgetError, match="grid 10x11 needs 110 grid cells, "
                                                       "more than the budget of 100"):
        grid.bounds_arrays()


def test_bounds_arrays_row_major(unit_square):
    grid = rb.CellGrid(unit_square, (2, 3))
    idx, lo, hi = grid.bounds_arrays()
    assert [tuple(i) for i in idx] == list(product(range(2), range(3)))
    edges = [grid.edges(k) for k in range(2)]
    assert np.array_equal(lo, np.array(list(product(*(e[:-1] for e in edges)))))
    assert np.array_equal(hi, np.array(list(product(*(e[1:] for e in edges)))))


@given(st.floats(-8, 8), st.floats(-1e8, 1e8), st.integers(1, 50), st.integers(1, 5))
@settings(max_examples=300, deadline=None)
def test_dyadic_refinement_keeps_the_coarse_edges_bit_for_bit(log_width, lo, c, level):
    # w/(2c) is exactly (w/c)/2 and 2a(r/2) rounds as a r does, so every level of a
    # refinement is a sublattice of the next: a coarse range is a range of the fine grid
    hi = lo + 10.0**log_width
    assume(hi > lo)
    box = rb.Box.from_bounds([(lo, hi)])
    fine = rb.CellGrid(box, (c * 2**level,)).edges(0)[:: 2**level]
    assert fine.tobytes() == rb.CellGrid(box, (c,)).edges(0).tobytes()


# ---------------------------------------------------------------------------
# interval Jacobians


def test_jacobian_interval_linear():
    net = linear_net(2 * np.eye(2), b=[1.0, -1.0])
    cell = rb.Box.from_bounds([(0, 1), (0, 1)])
    jlo, jhi = jacobian_interval_arrays(net, cell.lo, cell.hi)
    target = 2 * np.eye(2)
    assert np.all(jlo <= target) and np.all(jhi >= target)
    assert np.all(jhi - jlo < 1e-12)


def test_jacobian_interval_tanh_point_cell():
    net = rb.Network((rb.Layer(np.eye(2), np.zeros(2), "tanh"),))
    cell = rb.Box([0.0, 0.0], [0.0, 0.0])
    jlo, jhi = jacobian_interval_arrays(net, cell.lo, cell.hi)
    eye = np.eye(2)
    assert np.all(jlo <= eye) and np.all(jhi >= eye)
    assert np.all(jhi - jlo < 1e-12)


def test_jacobian_interval_contains_point_jacobians(invertible_net):
    cell = rb.Box.from_bounds([(0, 0.1), (0, 0.1)])
    jlo, jhi = jacobian_interval_arrays(invertible_net, cell.lo, cell.hi)
    pts = sample_box(cell, 1000, seed=3)
    jacs = rb.jacobian_batch(invertible_net, pts)
    assert np.all(jacs >= jlo[None]) and np.all(jacs <= jhi[None])


@given(deep_nets())
@settings(max_examples=40, deadline=None)
def test_jacobian_and_det_enclose_point_values_at_depth(case):
    net, seed = case
    rng = np.random.default_rng(seed)
    n, cells, per_cell = net.input_dim, 6, 25
    lo = rng.uniform(-1, 1, (cells, n))
    width = rng.uniform(0, 0.4, (cells, n)) * (rng.random((cells, n)) < 0.85)
    hi = lo + width
    jlo, jhi = jacobian_interval_arrays(net, lo, hi)
    det_lo, det_hi, _ = certify_cells(net, lo, hi)
    t = rng.random((cells, per_cell, n))
    pts = np.minimum(lo[:, None] + t * width[:, None], hi[:, None])
    jacs = rb.jacobian_batch(net, pts.reshape(-1, n)).reshape(cells, per_cell, n, n)
    assert np.all(jacs >= jlo[:, None]) and np.all(jacs <= jhi[:, None])
    # np.linalg.det rounds: allow its error, scaled by the Hadamard bound
    dets = np.linalg.det(jacs)
    slack = 1e-12 * np.prod(np.linalg.norm(jacs, axis=-1), axis=-1)
    assert np.all(dets >= det_lo[:, None] - slack) and np.all(dets <= det_hi[:, None] + slack)


@given(deep_nets(square=False))
@example(case=(linear_hidden_net(), 5))
@example(case=(linear_net([[2.0, -1.0], [0.5, 3.0]], [1.0, -1.0]), 6))
@settings(max_examples=30, deadline=None)
def test_jacobian_bits_match_the_plain_chain(case):
    # the linear last layer skips its pre-activation enclosure and D = 1 product
    net, seed = case
    rng = np.random.default_rng(seed)
    n = net.input_dim
    lo = rng.uniform(-1, 1, (37, n))
    hi = lo + rng.uniform(0, 0.4, lo.shape) * (rng.random(lo.shape) < 0.85)
    for ends in ((lo, hi), (lo[0], hi[0]), (lo[:6].reshape(2, 3, n), hi[:6].reshape(2, 3, n))):
        got = jacobian_interval_arrays(net, *ends)
        want = ref_jacobian_interval_arrays(net, *ends)
        assert all(a.shape == b.shape and a.tobytes() == b.tobytes() for a, b in zip(got, want))


def test_certify_homeomorphism_requires_square():
    # the Jacobian enclosure is (3, 2) here; only the determinant needs a square one
    net = rb.generate_network(0, [2, 4, 3])
    cell = rb.Box.from_bounds([(0, 1), (0, 1)])
    assert jacobian_interval_arrays(net, cell.lo, cell.hi)[0].shape == (3, 2)
    with pytest.raises(ValueError):
        rb.certify_homeomorphism(net, cell)


# ---------------------------------------------------------------------------
# certification


def test_certify_identity_linear(unit_square):
    res = rb.certify_homeomorphism(linear_net(np.eye(2)), unit_square)
    assert res.certified
    assert res.det_lo <= 1.0 <= res.det_hi and res.det_hi - res.det_lo < 1e-12


def test_certify_exactly_singular(unit_square):
    res = rb.certify_homeomorphism(linear_net([[1.0, 1.0], [1.0, 1.0]]), unit_square)
    assert not res.certified
    assert res.det_lo <= 0.0 <= res.det_hi


def test_certified_cell_has_constant_nonzero_sign(invertible_net):
    cell = rb.Box.from_bounds([(-0.1, 0.1), (-0.1, 0.1)])
    res = rb.certify_homeomorphism(invertible_net, cell)
    assert res.certified
    pts = sample_box(cell, 10_000, seed=8)
    dets = np.linalg.det(rb.jacobian_batch(invertible_net, pts))
    assert np.min(np.abs(dets)) > 0
    assert len(np.unique(np.sign(dets))) == 1
    assert np.all(dets >= res.det_lo) and np.all(dets <= res.det_hi)


def test_certification_monotone_under_bisection(mixed_net):
    # the children of cell (i, j) on the doubled grid are (2i..2i+1, 2j..2j+1)
    box = rb.Box.from_bounds([(-1, 1), (-1, 1)])
    _, lo, hi = rb.CellGrid(box, (8, 8)).bounds_arrays()
    _, child_lo, child_hi = rb.CellGrid(box, (16, 16)).bounds_arrays()
    parent = certify_cells(mixed_net, lo, hi)[2].reshape(8, 8)
    children = certify_cells(mixed_net, child_lo, child_hi)[2].reshape(16, 16)
    checked = 0
    for i, j in zip(*np.nonzero(parent)):
        assert children[2 * i : 2 * i + 2, 2 * j : 2 * j + 2].all()
        checked += 1
    assert checked > 4


def test_row_test_monotone_under_bisection(mixed_net):
    # the children of cell (i, j) on the doubled grid are (2i..2i+1, 2j..2j+1)
    box = rb.Box.from_bounds([(-1, 1), (-1, 1)])
    _, lo, hi = rb.CellGrid(box, (8, 8)).bounds_arrays()
    _, child_lo, child_hi = rb.CellGrid(box, (16, 16)).bounds_arrays()
    parent = row_test(*jacobian_interval_arrays(mixed_net, lo, hi)).reshape(8, 8)
    children = row_test(*jacobian_interval_arrays(mixed_net, child_lo, child_hi)).reshape(16, 16)
    for row, passed in enumerate(parent.ravel()):
        assert box_passes_row_test(mixed_net, rb.Box.from_arrays(lo[row], hi[row])) == passed
    checked = 0
    for i, j in zip(*np.nonzero(parent)):
        assert children[2 * i : 2 * i + 2, 2 * j : 2 * j + 2].all()
        checked += 1
    assert 4 < checked < 64


def test_a_box_that_passes_the_row_test_holds_no_zero_gradient():
    # oracle: every output row has a column whose sampled point Jacobians share one
    # nonzero sign over the box, corners included
    passed = [0]

    @given(deep_nets())
    @settings(max_examples=100, deadline=None)
    def one_sign_per_row(case):
        net, seed = case
        rng = np.random.default_rng(seed)
        n = net.input_dim
        centre, half = rng.uniform(-1, 1, n), 10.0 ** rng.uniform(-2, 0.3, n)
        box = rb.Box.from_arrays(centre - half, centre + half)
        if not box_passes_row_test(net, box):
            return
        passed[0] += 1
        t = rng.random((200, n))
        t[:20] = rng.integers(0, 2, (20, n))
        pts = np.minimum(box.lo + t * (box.hi - box.lo), box.hi)
        jacs = rb.jacobian_batch(net, pts)
        one_sign = np.all(jacs > 0, axis=0) | np.all(jacs < 0, axis=0)  # (m, n)
        assert np.all(np.any(one_sign, axis=-1))

    one_sign_per_row()
    assert passed[0] > 10


def test_certify_batch_matches_scalar(mixed_net):
    grid = rb.CellGrid(rb.Box.from_bounds([(-1, 1), (-1, 1)]), (5, 5))
    idx, lo, hi = grid.bounds_arrays()
    det_lo, det_hi, certified = certify_cells(mixed_net, lo, hi)
    for row in range(grid.total):
        res = rb.certify_homeomorphism(mixed_net, rb.Box.from_arrays(lo[row], hi[row]))
        assert res.certified == certified[row]
        assert abs(res.det_lo - det_lo[row]) < 1e-9
        assert abs(res.det_hi - det_hi[row]) < 1e-9


# ---------------------------------------------------------------------------
# subset extraction


def test_extraction_linear_keeps_only_boundary_ring():
    net = linear_net([[2.0, 1.0], [0.0, 1.0]])
    ex = rb.extract_subset(net, rb.Box.from_bounds([(0, 1), (0, 1)]), (6, 5))
    counts = ex.counts
    assert counts["total"] == 30
    assert counts["certified_interior"] == (6 - 2) * (5 - 2)
    assert counts["kept"] == 30 - 12


def test_extraction_singular_keeps_everything(unit_square):
    # a zero row has no entry that excludes 0, so no cell passes the row test
    net = linear_net([[1.0, 1.0], [0.0, 0.0]])
    ex = rb.extract_subset(net, unit_square, (4, 4))
    assert ex.counts == {"total": 16, "certified_interior": 0, "kept": 16}


def test_extraction_singular_gradient_free_net_drops_its_interior(unit_square):
    # det = 0 everywhere, yet each output has a nonzero gradient: no interior extremum
    net = linear_net([[1.0, 1.0], [1.0, 1.0]])
    assert not rb.certify_homeomorphism(net, unit_square).certified
    ex, levels = traced_extraction(net, unit_square, (6, 6))
    assert ex.counts == {"total": 36, "certified_interior": 16, "kept": 20}
    assert len(levels) == 1
    interior = interior_mask(ex.grid)
    np.testing.assert_array_equal(dropped_mask(ex), interior)
    # a 2 x 2 interior block is leaf-sized: kept whole, with no Jacobian call
    ex, levels = traced_extraction(net, unit_square, (4, 4))
    assert ex.counts == {"total": 16, "certified_interior": 0, "kept": 16} and levels == []


def test_extraction_accounting_identity(mixed_net):
    ex, levels = traced_extraction(mixed_net, rb.Box.from_bounds([(-1, 1), (-1, 1)]), (20, 20))
    c = ex.counts
    assert c["kept"] + c["certified_interior"] == c["total"] == 400
    # face cells are always kept, an interior cell is kept only inside a leaf-sized node
    # kept whole, and every certified interior cell outside such a node is dropped
    _, lo, hi = ex.grid.bounds_arrays()
    interior, dropped = interior_mask(ex.grid), dropped_mask(ex)
    whole = kept_whole_mask(ex.grid, levels)
    assert np.all(~dropped[~interior])
    assert np.all(whole[interior & ~dropped])
    assert np.all(dropped[certify_cells(mixed_net, lo, hi)[2] & interior & ~whole])


def test_extraction_interior_never_touches_boundary(mixed_net):
    ex = rb.extract_subset(mixed_net, rb.Box.from_bounds([(-1, 1), (-1, 1)]), (20, 20))
    idx = ex.grid.bounds_arrays()[0][dropped_mask(ex)]
    counts = np.array(ex.grid.counts)
    assert np.all(idx > 0) and np.all(idx + 1 < counts)


def test_extraction_matches_exhaustive_classification(mixed_net):
    # each interior cell tested alone: one whose own row test passes is dropped unless
    # it lies in a leaf-sized node kept whole, and the tree drops a cell whose own test
    # fails only inside a passing node
    box = rb.Box.from_bounds([(-1, 1), (-1, 1)])
    ex, levels = traced_extraction(mixed_net, box, (20, 20))
    e0, e1 = ex.grid.edges(0), ex.grid.edges(1)
    dropped, whole = dropped_mask(ex), kept_whole_mask(ex.grid, levels)
    own = np.zeros(400, dtype=bool)
    for row, i in enumerate(product(range(20), range(20))):
        cell = rb.Box.from_bounds([(e0[i[0]], e0[i[0] + 1]), (e1[i[1]], e1[i[1] + 1])])
        interior = all(0 < i[k] and i[k] + 1 < 20 for k in range(2))
        own[row] = interior and row_test(*jacobian_interval_arrays(mixed_net, cell.lo, cell.hi))
        assert not dropped[row] or interior
        assert dropped[row] or not interior or whole[row]
    assert np.all(dropped[own & ~whole])
    assert 0 < own.sum() < interior_mask(ex.grid).sum()
    assert 0 < (own & dropped).sum()


def test_extraction_refines_consistently(mixed_net):
    # every certified 20x20 cell keeps all its 60x60 children certified
    box = rb.Box.from_bounds([(-1, 1), (-1, 1)])
    _, lo_c, hi_c = rb.CellGrid(box, (20, 20)).bounds_arrays()
    _, lo_f, hi_f = rb.CellGrid(box, (60, 60)).bounds_arrays()
    cert_c = certify_cells(mixed_net, lo_c, hi_c)[2].reshape(20, 20)
    cert_f = certify_cells(mixed_net, lo_f, hi_f)[2].reshape(60, 60)
    for i in range(20):
        for j in range(20):
            if cert_c[i, j]:
                assert cert_f[3 * i : 3 * i + 3, 3 * j : 3 * j + 3].all()


def test_extraction_decision_contains_certifying_every_cell():
    seen = [0, 0, 0]  # dropped past the determinant, certified, kept interior cells

    @given(deep_nets())
    @settings(max_examples=200, deadline=None)
    def decision_contains(case):
        net, seed = case
        rng = np.random.default_rng(seed)
        n = net.input_dim
        # small boxes, so that cells certify, up to wide ones, so that some interior
        # cells hold a critical point; counts below 3 leave no interior cell, and
        # counts above 4 give the tree a root to split
        centre, half = rng.uniform(-1, 1, n), 10.0 ** rng.uniform(-3, 0.5, n)
        box = rb.Box.from_arrays(centre - half, centre + half)
        counts = tuple(int(c) for c in rng.integers(1, 8 if n <= 3 else 6, n))
        ex, levels = traced_extraction(net, box, counts)
        _, lo, hi = ex.grid.bounds_arrays()
        interior = interior_mask(ex.grid)
        certified = certify_cells(net, lo, hi)[2] & interior
        own = row_test(*jacobian_interval_arrays(net, lo, hi)) & interior
        dropped, whole = dropped_mask(ex), kept_whole_mask(ex.grid, levels)
        assert dropped.dtype == bool
        # an interior cell is kept only inside a leaf-sized node kept whole
        assert np.all(whole[interior & ~dropped]) and np.all(interior[dropped])
        assert np.all(dropped[certified & ~whole]) and np.all(dropped[own & ~whole])
        seen[0] += int((dropped & ~certified).sum())
        seen[1] += int((dropped & certified).sum())
        seen[2] += int((interior & ~dropped).sum())

    decision_contains()
    assert min(seen) > 0


@given(st.one_of(deep_nets(), deep_nets(square=False)))
@settings(max_examples=60, deadline=None)
def test_dropped_cells_hold_no_zero_gradient(case):
    net, seed = case
    rng = np.random.default_rng(seed)
    n = net.input_dim
    centre, half = rng.uniform(-1, 1, n), 10.0 ** rng.uniform(-2, 0, n)
    ex = rb.extract_subset(net, rb.Box.from_arrays(centre - half, centre + half), (5,) * n)
    assert_dropped_cells_hold_no_zero_gradient(net, ex, rng)


@given(st.one_of(deep_nets(), deep_nets(square=False)))
@settings(max_examples=100, deadline=None)
def test_extraction_returns_the_kept_cells_in_row_major_order(case):
    net, seed = case
    rng = np.random.default_rng(seed)
    n = net.input_dim
    centre, half = rng.uniform(-1, 1, n), 10.0 ** rng.uniform(-2, 0.5, n)
    counts = tuple(int(c) for c in rng.integers(1, 6, n))
    ex = rb.extract_subset(net, rb.Box.from_arrays(centre - half, centre + half), counts)
    assert ex.index.dtype == np.int64 and ex.index.shape == ex.lo.shape == ex.hi.shape
    flat = np.ravel_multi_index(tuple(ex.index.T), counts)
    assert np.all(np.diff(flat) > 0)
    idx, lo, hi = ex.grid.bounds_arrays()
    np.testing.assert_array_equal(ex.index, idx[flat])
    assert ex.lo.tobytes() == lo[flat].tobytes() and ex.hi.tobytes() == hi[flat].tobytes()
    assert np.all(~dropped_mask(ex)[~interior_mask(ex.grid)])  # the ring is kept
    c = ex.counts
    assert c["kept"] == len(ex.index) and c["kept"] + c["certified_interior"] == c["total"]
    assert c["total"] == int(np.prod(counts))


@pytest.mark.parametrize(
    "counts, rows", [((5, 5), 9), ((2, 7), 0), ((20, 20), 324), ((3, 3), 1)]
)
def test_extraction_certifies_interior_rows_only(mixed_net, monkeypatch, counts, rows):
    # one Jacobian call per tree level: its rows are the children of the last level's
    # failing nodes that are not leaf-sized, and the first level tiles the interior block
    calls = []

    def recording_jacobian(net, lo, hi):
        calls.append((lo, hi))
        return jacobian_interval_arrays(net, lo, hi)

    monkeypatch.setattr(topology, "jacobian_interval_arrays", recording_jacobian)
    ex = rb.extract_subset(mixed_net, rb.Box.from_bounds([(-1, 1), (-1, 1)]), counts)
    interior = interior_mask(ex.grid)
    assert interior.sum() == rows
    if all(c - 2 <= 2 for c in counts):  # no interior cell, or a leaf-sized root kept whole
        assert calls == []
        assert np.all(~dropped_mask(ex))
        return
    block = np.zeros(counts, dtype=int)
    pending = np.zeros(counts, dtype=bool)
    pending[tuple(slice(1, c - 1) for c in counts)] = True
    for level, (lo, hi) in enumerate(calls):
        a, b = node_indices(ex.grid, lo, hi)
        assert np.all(a >= 1) and np.all(b <= np.array(counts) - 1) and np.all(b > a)
        block[:] = 0
        for ai, bi in zip(a, b):
            block[ai[0]:bi[0], ai[1]:bi[1]] += 1
        np.testing.assert_array_equal(block, pending)  # disjoint, and tile the pending set
        passed = row_test(*jacobian_interval_arrays(mixed_net, lo, hi))
        if level == 0:  # ceil(sqrt(r))^2 children of an r x r interior block
            assert a.shape[0] == {9: 4, 324: 25}[rows]
        pending[:] = False
        for ai, bi in zip(a[~passed], b[~passed]):
            if np.any(bi - ai > 2):
                pending[ai[0]:bi[0], ai[1]:bi[1]] = True
    assert not pending.any()
    if counts == (20, 20):
        assert len(calls) >= 2


def test_extraction_across_a_block_boundary(mixed_net, monkeypatch):
    box = rb.Box.from_bounds([(-1, 1), (-1, 1)])
    whole = rb.extract_subset(mixed_net, box, (40, 40))
    assert 0 < whole.counts["certified_interior"] < 38 * 38
    block = 7
    monkeypatch.setattr(rb.domains, "_BLOCK", block)
    calls = []

    def recording_jacobian(net, lo, hi):
        calls.append(lo.shape[0])
        return jacobian_interval_arrays(net, lo, hi)

    monkeypatch.setattr(topology, "jacobian_interval_arrays", recording_jacobian)
    blocked = rb.extract_subset(mixed_net, box, (40, 40))
    assert calls[:7] == [block] * 7  # the first level's 7 x 7 children of the 38 x 38 root
    assert max(calls) == block
    np.testing.assert_array_equal(blocked.index, whole.index)
    assert blocked.lo.tobytes() == whole.lo.tobytes() and blocked.hi.tobytes() == whole.hi.tobytes()


@given(deep_nets())
@settings(max_examples=60, deadline=None)
def test_extraction_never_splits_a_leaf_sized_node(case):
    # a node of at most 2 cells per dimension is kept whole: every evaluated node is a
    # child of the root or of a failing node of the last level whose range is longer
    # than 2 in some dimension, and every such node is split
    net, seed = case
    rng = np.random.default_rng(seed)
    n = net.input_dim
    centre, half = rng.uniform(-1, 1, n), 10.0 ** rng.uniform(-2, 0.5, n)
    counts = tuple(int(c) for c in rng.integers(3, 12 if n <= 3 else 7, n))
    ex, levels = traced_extraction(net, rb.Box.from_arrays(centre - half, centre + half), counts)

    def split(a, b):  # the nodes the tree splits: those with a range longer than 2
        longer = np.any(b - a > 2, axis=1)
        return a[longer], b[longer]

    pa, pb = split(np.ones((1, n), dtype=int), np.array([counts]) - 1)
    for a, b, passed in levels:
        inside = np.all((pa[None] <= a[:, None]) & (b[:, None] <= pb[None]), axis=-1)
        assert np.all(inside.sum(axis=1) == 1)
        # the children tile their parents
        assert np.prod(b - a, axis=1).sum() == np.prod(pb - pa, axis=1).sum()
        pa, pb = split(a[~passed], b[~passed])
    assert pa.shape[0] == 0


def _no_jacobian(*args):
    raise AssertionError("a Jacobian enclosure was computed")


def _assert_keeps_every_cell(ex, box, counts):
    full = topology.grid_cell_batch(box, counts)
    assert ex.counts == {"total": full.count, "certified_interior": 0, "kept": full.count}
    for field in ("index", "b", "lo", "hi"):
        assert getattr(ex, field).tobytes() == getattr(full, field).tobytes()


def test_extraction_keeps_every_cell_of_a_flat_box(mixed_net, monkeypatch):
    monkeypatch.setattr(topology, "jacobian_interval_arrays", _no_jacobian)
    box = rb.Box.from_bounds([(0, 0), (0, 1)])
    _assert_keeps_every_cell(rb.extract_subset(mixed_net, box, (1, 4)), box, (1, 4))


def test_extraction_runs_the_tree_on_a_non_square_net(monkeypatch):
    # the 10 x 10 interior of a 12 x 12 grid is not leaf-sized, so the tree tests it
    net, net7 = rb.generate_network(3, [2, 6, 3]), rb.generate_network(3, [7, 8, 7])
    box = rb.Box.from_bounds([(0, 1), (0, 1)])
    ex, levels = traced_extraction(net, box, (12, 12))
    assert len(levels) >= 1 and ex.counts["certified_interior"] > 0
    assert_dropped_cells_hold_no_zero_gradient(net, ex, np.random.default_rng(0))
    # a grid with no interior cell keeps every cell untested, on either shape
    monkeypatch.setattr(topology, "jacobian_interval_arrays", _no_jacobian)
    box7 = rb.Box.from_bounds([(0, 1)] * 7)
    for net, box, counts in ((net, box, (2, 7)), (net7, box7, (2,) * 7)):
        _assert_keeps_every_cell(rb.extract_subset(net, box, counts), box, counts)


def test_extraction_runs_the_tree_on_seven_inputs():
    # the interior block [1, 5) x [1, 2)^6 splits into two leaf-sized children in one call
    net = rb.generate_network(3, [7, 8, 7])
    ex, levels = traced_extraction(net, rb.Box.from_bounds([(0, 1)] * 7), (6,) + (3,) * 6)
    assert len(levels) == 1 and levels[0][0].shape[0] == 2
    assert ex.counts == {"total": 4374, "certified_interior": 4, "kept": 4370}
    assert assert_dropped_cells_hold_no_zero_gradient(net, ex, np.random.default_rng(0)) == 4


def _assert_matches_the_node_tree(net, box, counts):
    """The mask tree keeps the node tree's cells, bytes and counts, and each level's call
    evaluates the node tree's ranges [a, b), in another row order."""
    calls, passes = [], topology._passes_row_test

    def recording(net, lo, hi):
        calls.append((lo, hi))
        return passes(net, lo, hi)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(topology, "_passes_row_test", recording)
        ex = rb.extract_subset(net, box, counts)
    ref, ref_levels = ref_extract_subset(net, box, counts)
    assert ex.counts == ref.counts
    for field in ("index", "b", "lo", "hi"):
        assert getattr(ex, field).tobytes() == getattr(ref, field).tobytes()
    assert len(calls) == len(ref_levels)
    for (lo, hi), ends in zip(calls, ref_levels):
        got = np.hstack(node_indices(ex.grid, lo, hi))
        assert sorted(map(tuple, got)) == sorted(map(tuple, np.hstack(ends)))
    return ex


@given(st.one_of(deep_nets(), deep_nets(square=False)))
@settings(max_examples=60, deadline=None)
def test_extraction_matches_the_node_tree(case):
    net, seed = case
    rng = np.random.default_rng(seed)
    n = net.input_dim
    centre, half = rng.uniform(-1, 1, n), 10.0 ** rng.uniform(-2, 0.5, n)
    # counts of 3 or more give an interior, and one dimension of 1-39 cells makes the
    # grid non-square, takes the tree two or three levels deep, or leaves no interior
    counts = rng.integers(3, {2: 60, 3: 16, 4: 9}.get(n, 6), n)
    counts[rng.integers(n)] = rng.integers(1, 40)
    counts = tuple(int(c) for c in counts)
    _assert_matches_the_node_tree(net, rb.Box.from_arrays(centre - half, centre + half), counts)


@pytest.mark.parametrize("count, kept", [(1, 1), (3, 3), (5, 5), (9, 8), (50, 14), (1000, 12)])
def test_extraction_matches_the_node_tree_on_one_input(count, kept):
    # deep_nets draws 2-6 inputs: here each level's leaf test reads one cut array
    net = rb.generate_network(3, (1, 6, 1), "tanh", 3.0)
    ex = _assert_matches_the_node_tree(net, rb.Box.from_bounds([(-2, 2)]), (count,))
    assert ex.counts["kept"] == kept


def test_a_flat_box_fails_the_row_test_untested(monkeypatch):
    eps = 0.05
    net = rb.Network((
        rb.Layer(np.array([[1.0, 0.0], [1.0, 0.0], [eps, 0.0], [0.0, eps]]),
                 np.array([1.0, -1.0, 0.0, 0.0]), "tanh"),
        rb.Layer(np.array([[0.0, 0.0, 1 / eps, 0.0], [1.0, -1.0, 0.0, 1 / eps]]),
                 np.zeros(2), "linear"),
    ))
    flat = rb.Box.from_bounds([(-1, 1), (0, 0)])
    # every row of the enclosure passes: f1 through x1, f2 through the zero-width x2
    assert row_test(*jacobian_interval_arrays(net, flat.lo, flat.hi))
    # yet f2 peaks inside the box, above its values at both relative faces
    f2 = rb.forward_batch(net, np.array([[-1.0, 0.0], [0.0, 0.0], [1.0, 0.0]]))[:, 1]
    assert f2[1] > max(f2[0], f2[2])
    calls = []
    monkeypatch.setattr(topology, "jacobian_interval_arrays",
                        lambda *a: calls.append(a) or jacobian_interval_arrays(*a))
    assert box_passes_row_test(net, flat) is False and calls == []


def test_box_passes_row_test_refuses_a_box_of_another_dimension(mixed_net):
    with pytest.raises(ValueError, match="box dimension 3 != input dim 2"):
        box_passes_row_test(mixed_net, rb.Box.from_bounds([(-1, 1)] * 3))


def test_certify_cells_across_a_block_boundary(mixed_net, monkeypatch):
    block = 100
    monkeypatch.setattr(rb.domains, "_BLOCK", block)
    grid = rb.CellGrid(rb.Box.from_bounds([(-1, 1), (-1, 1)]), (33, 33))
    _, lo, hi = grid.bounds_arrays()
    assert grid.total > block
    calls = []

    def recording_jacobian(net, lo, hi):
        calls.append(lo.shape)
        return jacobian_interval_arrays(net, lo, hi)

    monkeypatch.setattr(topology, "jacobian_interval_arrays", recording_jacobian)
    blocked = certify_cells(mixed_net, lo.reshape(33, 33, 2), hi.reshape(33, 33, 2))
    assert calls == [(grid.total // 11, 2)] * 11  # 1089 rows in 11 near-equal blocks
    calls.clear()
    monkeypatch.setattr(rb.domains, "_BLOCK", grid.total)
    whole = certify_cells(mixed_net, lo, hi)
    assert calls == [(grid.total, 2)]
    for got, want in zip(blocked, whole):
        assert got.shape == (33, 33)
        assert np.array_equal(got.reshape(-1), want)
    assert 0 < whole[2].sum() < grid.total


@pytest.mark.parametrize("shape", [(0, 2), (3, 0, 2)])
def test_certify_cells_skips_the_jacobian_on_no_cells(mixed_net, monkeypatch, shape):
    calls = []

    def recording_jacobian(net, lo, hi):
        calls.append(lo)
        return jacobian_interval_arrays(net, lo, hi)

    monkeypatch.setattr(topology, "jacobian_interval_arrays", recording_jacobian)
    det_lo, det_hi, certified = certify_cells(mixed_net, np.empty(shape), np.empty(shape))
    assert calls == []
    assert det_lo.shape == det_hi.shape == certified.shape == shape[:-1]
    assert det_lo.dtype == det_hi.dtype == float and certified.dtype == bool


@pytest.mark.parametrize(
    "call",
    [
        lambda net, box: certify_cells(net, np.zeros((4, 3)), np.ones((4, 3))),
        lambda net, box: rb.CellGrid(box, (2, 2, 2)),
        lambda net, box: rb.extract_subset(net, rb.Box.from_bounds([(0, 1)] * 3), (2, 2, 2)),
    ],
    ids=["certify_cells-cell-dim", "cellgrid-count-per-dim", "extract_subset-box-dim"],
)
def test_topology_input_checks(call, mixed_net, unit_square):
    with pytest.raises(ValueError):
        call(mixed_net, unit_square)
