import numpy as np
import pytest
from hypothesis import given, settings

import reachbound as rb
from reachbound.topology import certify_cells, jacobian_interval_arrays
from conftest import MIXED, deep_nets, linear_net, make_net, sample_box


# ---------------------------------------------------------------------------
# boundary faces


def test_faces_of_unit_square(unit_square):
    faces = rb.boundary_faces(unit_square)
    expected = {
        ((0.0, 0.0), (0.0, 1.0)),
        ((1.0, 1.0), (0.0, 1.0)),
        ((0.0, 1.0), (0.0, 0.0)),
        ((0.0, 1.0), (1.0, 1.0)),
    }
    got = {tuple((d.lo, d.hi) for d in f.dims) for f in faces}
    assert got == expected


def test_faces_count_in_3d():
    faces = rb.boundary_faces(rb.Box.from_bounds([(-1, 1)] * 3))
    assert len(faces) == 6
    assert all(len(f.degenerate_dims()) == 1 for f in faces)


def test_faces_reject_degenerate_input():
    with pytest.raises(ValueError):
        rb.boundary_faces(rb.Box.from_bounds([(0, 0), (0, 1)]))


# ---------------------------------------------------------------------------
# partitions


def test_partition_cell_count(unit_square):
    grid = rb.partition(unit_square, (100, 100))
    assert grid.total == 10_000


def test_partition_trivial_is_box(unit_square):
    grid = rb.partition(unit_square, (1, 1))
    assert grid.cell((0, 0)) == unit_square


def test_partition_of_faces_gives_400_boundary_cells(unit_square):
    total = 0
    for face in rb.boundary_faces(unit_square):
        counts = tuple(1 if face.is_degenerate(k) else 100 for k in range(2))
        grid = rb.partition(face, counts)
        assert grid.total == 100
        total += grid.total
    assert total == 400


def test_partition_rejects_zero_count(unit_square):
    with pytest.raises(ValueError):
        rb.partition(unit_square, (0, 10))


def test_partition_rejects_subdividing_degenerate_dim():
    face = rb.Box.from_bounds([(0, 0), (0, 1)])
    with pytest.raises(ValueError):
        rb.partition(face, (2, 10))


def test_partition_tiles_exactly():
    box = rb.Box.from_bounds([(-0.3, 0.7)])
    grid = rb.partition(box, (7,))
    edges = grid.edges(0)
    assert edges[0] == -0.3 and edges[-1] == 0.7
    assert np.all(np.diff(edges) > 0)
    cells = [grid.cell((i,)) for i in range(7)]
    for a, b in zip(cells, cells[1:]):
        assert a.dims[0].hi == b.dims[0].lo  # shared closed faces


def test_face_cover_equals_boundary(unit_square):
    # every point of the boundary lies in some face cell
    rng = np.random.default_rng(12)
    for face in rb.boundary_faces(unit_square):
        counts = tuple(1 if face.is_degenerate(k) else 10 for k in range(2))
        grid = rb.partition(face, counts)
        pts = sample_box(face, 200, seed=13)
        for p in pts:
            assert any(cell.contains_point(p) for _, cell in grid.cells())


def test_bounds_arrays_row_major(unit_square):
    grid = rb.partition(unit_square, (2, 3))
    idx, lo, hi = grid.bounds_arrays()
    assert [tuple(i) for i in idx] == list(grid.indices())
    for row, (i, cell) in zip(range(grid.total), grid.cells()):
        assert np.array_equal(lo[row], cell.lo) and np.array_equal(hi[row], cell.hi)


# ---------------------------------------------------------------------------
# interval Jacobians


def test_jacobian_interval_linear():
    net = linear_net(2 * np.eye(2), b=[1.0, -1.0])
    m = rb.jacobian_interval(net, rb.Box.from_bounds([(0, 1), (0, 1)]))
    target = 2 * np.eye(2)
    assert np.all(m.lo <= target) and np.all(m.hi >= target)
    assert np.all(m.hi - m.lo < 1e-12)


def test_jacobian_interval_tanh_point_cell():
    net = rb.Network((rb.Layer(np.eye(2), np.zeros(2), "tanh"),))
    m = rb.jacobian_interval(net, rb.Box.point([0.0, 0.0]))
    eye = np.eye(2)
    assert np.all(m.lo <= eye) and np.all(m.hi >= eye)
    assert np.all(m.hi - m.lo < 1e-12)


def test_jacobian_interval_contains_point_jacobians(invertible_net):
    cell = rb.Box.from_bounds([(0, 0.1), (0, 0.1)])
    m = rb.jacobian_interval(invertible_net, cell)
    pts = sample_box(cell, 1000, seed=3)
    jacs = rb.jacobian_batch(invertible_net, pts)
    assert np.all(jacs >= m.lo[None]) and np.all(jacs <= m.hi[None])


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


def test_jacobian_interval_requires_square():
    net = rb.generate_network(0, [2, 4, 3])
    with pytest.raises(ValueError):
        rb.jacobian_interval(net, rb.Box.from_bounds([(0, 1), (0, 1)]))


# ---------------------------------------------------------------------------
# certification


def test_certify_identity_linear(unit_square):
    res = rb.certify_homeomorphism(linear_net(np.eye(2)), unit_square)
    assert res.certified
    assert res.det_interval.contains(1.0) and res.det_interval.width < 1e-12


def test_certify_exactly_singular(unit_square):
    res = rb.certify_homeomorphism(linear_net([[1.0, 1.0], [1.0, 1.0]]), unit_square)
    assert not res.certified
    assert res.det_interval.contains(0.0)


def test_certified_cell_has_constant_nonzero_sign(invertible_net):
    cell = rb.Box.from_bounds([(-0.1, 0.1), (-0.1, 0.1)])
    res = rb.certify_homeomorphism(invertible_net, cell)
    assert res.certified
    pts = sample_box(cell, 10_000, seed=8)
    dets = np.linalg.det(rb.jacobian_batch(invertible_net, pts))
    assert np.min(np.abs(dets)) > 0
    assert len(np.unique(np.sign(dets))) == 1
    assert np.all(dets >= res.det_interval.lo) and np.all(dets <= res.det_interval.hi)


def test_certification_monotone_under_bisection(mixed_net):
    grid = rb.partition(rb.Box.from_bounds([(-1, 1), (-1, 1)]), (8, 8))
    checked = 0
    for _, cell in grid.cells():
        if rb.certify_homeomorphism(mixed_net, cell).certified:
            left, right = cell.split()
            for child in (*left.split(), *right.split()):
                assert rb.certify_homeomorphism(mixed_net, child).certified
            checked += 1
    assert checked > 4


def test_certify_batch_matches_scalar(mixed_net):
    grid = rb.partition(rb.Box.from_bounds([(-1, 1), (-1, 1)]), (5, 5))
    idx, lo, hi = grid.bounds_arrays()
    det_lo, det_hi, certified = certify_cells(mixed_net, lo, hi)
    for row, (_, cell) in enumerate(grid.cells()):
        res = rb.certify_homeomorphism(mixed_net, cell)
        assert res.certified == certified[row]
        assert abs(res.det_interval.lo - det_lo[row]) < 1e-9
        assert abs(res.det_interval.hi - det_hi[row]) < 1e-9


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
    net = linear_net([[1.0, 1.0], [1.0, 1.0]])
    ex = rb.extract_subset(net, unit_square, (4, 4))
    assert ex.counts == {"total": 16, "certified_interior": 0, "kept": 16}


def test_extraction_accounting_identity(mixed_net):
    ex = rb.extract_subset(mixed_net, rb.Box.from_bounds([(-1, 1), (-1, 1)]), (20, 20))
    c = ex.counts
    assert c["kept"] + c["certified_interior"] == c["total"] == 400
    # uncertified cells are always kept
    assert np.all(ex.kept_mask[~ex.certified])


def test_extraction_interior_never_touches_boundary(mixed_net):
    ex = rb.extract_subset(mixed_net, rb.Box.from_bounds([(-1, 1), (-1, 1)]), (20, 20))
    idx = ex.index[ex.certified_interior_mask]
    counts = np.array(ex.grid.counts)
    assert np.all(idx > 0) and np.all(idx + 1 < counts)


def test_extraction_matches_exhaustive_classification(mixed_net):
    box = rb.Box.from_bounds([(-1, 1), (-1, 1)])
    ex = rb.extract_subset(mixed_net, box, (20, 20))
    for row, (i, cell) in enumerate(ex.grid.cells()):
        res = rb.certify_homeomorphism(mixed_net, cell)
        interior = all(0 < i[k] and i[k] + 1 < 20 for k in range(2))
        assert (res.certified and interior) == bool(ex.certified_interior_mask[row])


def test_extraction_refines_consistently(mixed_net):
    # every certified 20x20 cell keeps all its 60x60 children certified
    box = rb.Box.from_bounds([(-1, 1), (-1, 1)])
    coarse = rb.extract_subset(mixed_net, box, (20, 20))
    fine = rb.extract_subset(mixed_net, box, (60, 60))
    cert_c = coarse.certified.reshape(20, 20)
    cert_f = fine.certified.reshape(60, 60)
    for i in range(20):
        for j in range(20):
            if cert_c[i, j]:
                assert cert_f[3 * i : 3 * i + 3, 3 * j : 3 * j + 3].all()


def test_extraction_rejects_degenerate_input(mixed_net):
    with pytest.raises(ValueError):
        rb.extract_subset(mixed_net, rb.Box.from_bounds([(0, 0), (0, 1)]), (1, 4))


def test_extraction_rejects_non_square():
    net = rb.generate_network(1, [2, 5, 3])
    with pytest.raises(ValueError):
        rb.extract_subset(net, rb.Box.from_bounds([(0, 1), (0, 1)]), (4, 4))
