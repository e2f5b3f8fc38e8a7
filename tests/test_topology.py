from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings

import reachbound as rb
from reachbound import topology
from reachbound.topology import certify_cells, jacobian_interval_arrays
from reachbound.verifier import boundary_cell_batch
from conftest import MIXED, deep_nets, linear_net, make_net, sample_box


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
            idx, lo, hi = rb.partition(face, face_counts).bounds_arrays()
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
    grid = rb.partition(unit_square, (100, 100))
    assert grid.total == 10_000


def test_partition_total_is_exact_past_int64():
    grid = rb.partition(rb.Box.from_bounds([(0, 1)] * 7), (1000,) * 7)
    assert grid.total == 1000**7 == 10**21


def test_partition_trivial_is_box(unit_square):
    idx, lo, hi = rb.partition(unit_square, (1, 1)).bounds_arrays()
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


def test_bounds_arrays_row_major(unit_square):
    grid = rb.partition(unit_square, (2, 3))
    idx, lo, hi = grid.bounds_arrays()
    assert [tuple(i) for i in idx] == list(product(range(2), range(3)))
    edges = [grid.edges(k) for k in range(2)]
    assert np.array_equal(lo, np.array(list(product(*(e[:-1] for e in edges)))))
    assert np.array_equal(hi, np.array(list(product(*(e[1:] for e in edges)))))


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
    cell = rb.Box.point([0.0, 0.0])
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
    _, lo, hi = rb.partition(box, (8, 8)).bounds_arrays()
    _, child_lo, child_hi = rb.partition(box, (16, 16)).bounds_arrays()
    parent = certify_cells(mixed_net, lo, hi)[2].reshape(8, 8)
    children = certify_cells(mixed_net, child_lo, child_hi)[2].reshape(16, 16)
    checked = 0
    for i, j in zip(*np.nonzero(parent)):
        assert children[2 * i : 2 * i + 2, 2 * j : 2 * j + 2].all()
        checked += 1
    assert checked > 4


def test_certify_batch_matches_scalar(mixed_net):
    grid = rb.partition(rb.Box.from_bounds([(-1, 1), (-1, 1)]), (5, 5))
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
    net = linear_net([[1.0, 1.0], [1.0, 1.0]])
    ex = rb.extract_subset(net, unit_square, (4, 4))
    assert ex.counts == {"total": 16, "certified_interior": 0, "kept": 16}


def test_extraction_accounting_identity(mixed_net):
    ex = rb.extract_subset(mixed_net, rb.Box.from_bounds([(-1, 1), (-1, 1)]), (20, 20))
    c = ex.counts
    assert c["kept"] + c["certified_interior"] == c["total"] == 400
    # uncertified cells are always kept
    _, lo, hi = ex.grid.bounds_arrays()
    assert np.all(ex.kept_mask[~certify_cells(mixed_net, lo, hi)[2]])


def test_extraction_interior_never_touches_boundary(mixed_net):
    ex = rb.extract_subset(mixed_net, rb.Box.from_bounds([(-1, 1), (-1, 1)]), (20, 20))
    idx = ex.index[ex.certified_interior_mask]
    counts = np.array(ex.grid.counts)
    assert np.all(idx > 0) and np.all(idx + 1 < counts)


def test_extraction_matches_exhaustive_classification(mixed_net):
    box = rb.Box.from_bounds([(-1, 1), (-1, 1)])
    ex = rb.extract_subset(mixed_net, box, (20, 20))
    e0, e1 = ex.grid.edges(0), ex.grid.edges(1)
    for row, i in enumerate(product(range(20), range(20))):
        cell = rb.Box.from_bounds([(e0[i[0]], e0[i[0] + 1]), (e1[i[1]], e1[i[1] + 1])])
        res = rb.certify_homeomorphism(mixed_net, cell)
        interior = all(0 < i[k] and i[k] + 1 < 20 for k in range(2))
        assert (res.certified and interior) == bool(ex.certified_interior_mask[row])


def test_extraction_refines_consistently(mixed_net):
    # every certified 20x20 cell keeps all its 60x60 children certified
    box = rb.Box.from_bounds([(-1, 1), (-1, 1)])
    _, lo_c, hi_c = rb.partition(box, (20, 20)).bounds_arrays()
    _, lo_f, hi_f = rb.partition(box, (60, 60)).bounds_arrays()
    cert_c = certify_cells(mixed_net, lo_c, hi_c)[2].reshape(20, 20)
    cert_f = certify_cells(mixed_net, lo_f, hi_f)[2].reshape(60, 60)
    for i in range(20):
        for j in range(20):
            if cert_c[i, j]:
                assert cert_f[3 * i : 3 * i + 3, 3 * j : 3 * j + 3].all()


def test_extraction_decision_equals_certifying_every_cell():
    seen = [0, 0]  # certified and uncertified interior cells, over all examples

    @given(deep_nets())
    @settings(max_examples=200, deadline=None)
    def decision_matches(case):
        net, seed = case
        rng = np.random.default_rng(seed)
        n = net.input_dim
        # small boxes, so that cells certify; counts below 3 leave no interior cell
        centre, half = rng.uniform(-1, 1, n), 10.0 ** rng.uniform(-3, -0.3, n)
        box = rb.Box.from_arrays(centre - half, centre + half)
        ex = rb.extract_subset(net, box, tuple(int(c) for c in rng.integers(1, 6, n)))
        idx, lo, hi = ex.grid.bounds_arrays()
        interior = ex.grid.interior_mask(idx)
        certified = certify_cells(net, lo, hi)[2]
        assert ex.certified_interior_mask.dtype == bool
        np.testing.assert_array_equal(ex.certified_interior_mask, certified & interior)
        seen[0] += int((certified & interior).sum())
        seen[1] += int((~certified & interior).sum())

    decision_matches()
    assert seen[0] > 0 and seen[1] > 0


@pytest.mark.parametrize("counts, rows", [((5, 5), 9), ((2, 7), 0)])
def test_extraction_certifies_interior_rows_only(mixed_net, monkeypatch, counts, rows):
    calls = []

    def recording_certify_cells(net, lo, hi):
        calls.append((lo, hi))
        return certify_cells(net, lo, hi)

    monkeypatch.setattr(topology, "certify_cells", recording_certify_cells)
    ex = rb.extract_subset(mixed_net, rb.Box.from_bounds([(-1, 1), (-1, 1)]), counts)
    [(lo, hi)] = calls
    interior = ex.grid.interior_mask(ex.index)
    assert lo.shape == hi.shape == (rows, 2) and interior.sum() == rows
    np.testing.assert_array_equal(lo, ex.lo[interior])
    np.testing.assert_array_equal(hi, ex.hi[interior])


def test_extraction_rejects_degenerate_input(mixed_net):
    with pytest.raises(ValueError):
        rb.extract_subset(mixed_net, rb.Box.from_bounds([(0, 0), (0, 1)]), (1, 4))


def test_extraction_rejects_non_square():
    net = rb.generate_network(1, [2, 5, 3])
    with pytest.raises(ValueError):
        rb.extract_subset(net, rb.Box.from_bounds([(0, 1), (0, 1)]), (4, 4))
