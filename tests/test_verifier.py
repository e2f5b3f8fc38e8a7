import dataclasses
import json
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reachbound as rb
from reachbound.domains import box_propagate_arrays
from reachbound.reports import verdict_document
from reachbound import topology, verifier
from reachbound.topology import (
    box_passes_row_test,
    certify_cells,
    extract_subset,
    jacobian_interval_arrays,
)
from conftest import deep_nets, identity_net, linear_net, make_net, mc_safe, MIXED


def problem(net, input_box, safe_box, **kwargs):
    return rb.VerificationProblem(net, input_box, safe_box, **kwargs)


# ---------------------------------------------------------------------------
# inclusion checking


def test_inclusion_inside(unit_square, invertible_net):
    lo, hi = box_propagate_arrays(invertible_net, unit_square.lo, unit_square.hi)
    safe = rb.Box.from_arrays(lo - 0.1, hi + 0.1)
    assert rb.verify(problem(invertible_net, unit_square, safe, mode="full")).status == rb.SAFE


def test_inclusion_rejects_small_excess(unit_square):
    short = rb.Box.from_bounds([(-1, 1 - 1e-6), (-1, 2)])
    roomy = rb.Box.from_bounds([(-1, 1 + 1e-6), (-1, 2)])
    assert rb.verify(problem(identity_net(), unit_square, short, mode="full")).status == rb.UNKNOWN
    assert rb.verify(problem(identity_net(), unit_square, roomy, mode="full")).status == rb.SAFE


def test_verify_example_style_safe_set(unit_square, invertible_net):
    # a published-style safe window; the verdict depends on the seeded weights
    safe = rb.Box.from_bounds([(-3.85, -1.85), (-0.9, 1.7)])
    v = rb.verify(problem(invertible_net, unit_square, safe, mode="full"))
    assert v.status in (rb.SAFE, rb.UNKNOWN)


@pytest.mark.parametrize("grid, message", [
    ("12", "sequence"), (4, "sequence"), ((2.7,), "integer counts"), ((4, 2.0), "integer counts"),
    ((True,), "integer counts"), ((3, "2"), "integer counts"),
    ((0,), "positive integer counts"), ((-2,), "positive integer counts"),
    ((3, 0), "positive integer counts"),
], ids=["string", "int", "float", "integral-float", "bool", "numeric-string", "zero", "negative",
        "zero-of-two"])
def test_grid_counts_are_integers(unit_square, invertible_net, grid, message):
    with pytest.raises(ValueError, match=message):
        problem(invertible_net, unit_square, unit_square, grid=grid)
    assert problem(invertible_net, unit_square, unit_square, grid=(np.int64(3), 2)).grid == (3, 2)


def test_check_inclusion_dimension_mismatch(unit_square, invertible_net):
    # a safe box of the wrong dimension is rejected before any inclusion check
    with pytest.raises(ValueError):
        problem(invertible_net, unit_square, rb.Box.from_bounds([(0, 1)] * 3))


# ---------------------------------------------------------------------------
# boundary mode


def test_boundary_identity_safe(unit_square):
    p = problem(
        identity_net(),
        unit_square,
        rb.Box.from_bounds([(-0.1, 1.1), (-0.1, 1.1)]),
        mode="boundary",
        grid=(7, 7),
    )
    v = rb.verify(p)
    assert v.status == rb.SAFE
    assert v.stats["cells_propagated"] == 4 * 7
    assert v.stats["assumes_invertible"] is True


def test_boundary_identity_unknown(unit_square):
    p = problem(
        identity_net(),
        unit_square,
        rb.Box.from_bounds([(0.2, 0.8), (0.2, 0.8)]),
        mode="boundary",
        grid=(10, 10),
    )
    assert rb.verify(p).status == rb.UNKNOWN


def test_boundary_cell_ratio_vs_full(invertible_net, unit_square):
    full = rb.verify(
        problem(invertible_net, unit_square, mc_safe(invertible_net, unit_square, 1.3),
                mode="full", grid=(100, 100))
    )
    bound = rb.verify(
        problem(invertible_net, unit_square, mc_safe(invertible_net, unit_square, 1.3),
                mode="boundary", grid=(100, 100))
    )
    assert full.stats["cells_propagated"] == 10_000
    assert bound.stats["cells_propagated"] == 400
    assert bound.status == full.status == rb.SAFE


# ---------------------------------------------------------------------------
# full mode


def test_full_identity_safe(unit_square):
    p = problem(
        identity_net(), unit_square, rb.Box.from_bounds([(-1, 2), (-1, 2)]),
        mode="full", grid=(5, 5),
    )
    v = rb.verify(p)
    assert v.status == rb.SAFE and v.stats["cells_propagated"] == 25


def test_full_single_cell_equals_direct_propagation(invertible_net, unit_square):
    p = problem(invertible_net, unit_square, mc_safe(invertible_net, unit_square, 2.0),
                mode="full", grid=(1, 1))
    v = rb.verify(p)
    direct_lo, direct_hi = box_propagate_arrays(invertible_net, unit_square.lo, unit_square.hi)
    assert v.stats["cells_propagated"] == 1
    assert np.allclose(v.output_hull.lo, direct_lo, rtol=0, atol=1e-12)
    assert np.allclose(v.output_hull.hi, direct_hi, rtol=0, atol=1e-12)


def test_full_hull_contains_boundary_hull(invertible_net, unit_square):
    safe = mc_safe(invertible_net, unit_square, 2.0)
    full = rb.verify(problem(invertible_net, unit_square, safe, mode="full", grid=(20, 20)))
    bound = rb.verify(
        problem(invertible_net, unit_square, safe, mode="boundary", grid=(20, 20))
    )
    assert np.all(full.output_hull.lo <= bound.output_hull.lo + 1e-9)
    assert np.all(bound.output_hull.hi <= full.output_hull.hi + 1e-9)


# ---------------------------------------------------------------------------
# subset mode


def test_subset_on_a_certified_box_propagates_its_faces(unit_square):
    net = linear_net([[1.0, 0.5], [0.0, 1.0]])
    p = problem(net, unit_square, rb.Box.from_bounds([(-2, 3), (-2, 3)]),
                mode="subset", grid=(6, 6))
    v = rb.verify(p)
    assert v.status == rb.SAFE
    assert v.stats["cells_propagated"] == 24
    assert v.stats["path"] == "boundary"
    assert v.stats["input_certified"] is True
    assert v.stats["assumes_invertible"] is False


def test_subset_zero_certified_equals_full(unit_square):
    net = linear_net([[1.0, 1.0], [0.0, 0.0]])  # a zero row fails the row test everywhere
    safe = rb.Box.from_bounds([(-1, 3), (-1, 3)])
    sub = rb.verify(problem(net, unit_square, safe, mode="subset", grid=(5, 5)))
    full = rb.verify(problem(net, unit_square, safe, mode="full", grid=(5, 5)))
    assert sub.stats["cells_certified"] == 0
    assert sub.stats["cells_propagated"] == full.stats["cells_propagated"] == 25
    assert sub.status == full.status


def test_subset_mixed_net_safe_with_fewer_cells():
    net = make_net(**MIXED)
    box = rb.Box.from_bounds([(-1, 1), (-1, 1)])
    safe = mc_safe(net, box, 1.2, n=50_000)
    v = rb.verify(problem(net, box, safe, mode="subset", grid=(40, 40)))
    assert v.status == rb.SAFE
    assert v.stats["cells_kept"] < v.stats["cells_total"]


def test_subset_never_drops_boundary_cells():
    net = make_net(**MIXED)
    box = rb.Box.from_bounds([(-1, 1), (-1, 1)])
    v = rb.verify(
        problem(net, box, mc_safe(net, box, 1.3), mode="subset", grid=(15, 15))
    )
    propagated = {tuple(i) for i in v.cell_batch.index}
    counts = (15, 15)
    for idx in product(*(range(c) for c in counts)):
        touches = any(i == 0 or i + 1 == c for i, c in zip(idx, counts))
        if touches:
            assert idx in propagated


def _other_shape_cases(unit_square, scale):
    """A non-square net at a grid whose tree root is not leaf-sized, and a square net of
    7 inputs at a grid with no interior cell.

    At scale 1.0 both fail the whole-box row test; at scale 0.5 both pass it.
    """
    return (
        (rb.generate_network(3, [2, 6, 3], scale=scale), unit_square, (12, 12), 144),
        (rb.generate_network(3, [7, 8, 7], scale=scale), rb.Box.from_bounds([(0, 1)] * 7),
         (2,), 2**7),
    )


def _keeps_the_full_grid(net, box, safe, mode, **kwargs):
    """Verify in ``mode`` with no Jacobian call; the verdict is full mode's on the subset path."""
    def no_jacobian(*args):
        raise AssertionError("a Jacobian enclosure was computed")

    full = rb.verify(problem(net, box, safe, mode="full", **kwargs))
    with pytest.MonkeyPatch.context() as m:
        m.setattr(topology, "jacobian_interval_arrays", no_jacobian)
        v = rb.verify(problem(net, box, safe, mode=mode, **kwargs))
    assert v.stats["path"] == "subset" and v.stats["input_certified"] is False
    assert v.stats["cells_certified"] == 0
    assert v.stats["cells_kept"] == v.stats["cells_total"] == full.stats["cells_propagated"]
    assert v.status == full.status
    for a, b in ((v.output_hull.lo, full.output_hull.lo),
                 (v.output_hull.hi, full.output_hull.hi)):
        assert a.tobytes() == b.tobytes()
    for field in ("index", "lo", "hi", "out_lo", "out_hi"):
        a, b = getattr(v.cell_batch, field), getattr(full.cell_batch, field)
        assert a.tobytes() == b.tobytes()
    return v


def _tree_runs_on_any_net_shape(unit_square, mode):
    (net, box, grid, cells), (net7, box7, grid7, cells7) = _other_shape_cases(unit_square, 1.0)
    # the non-square net fails the whole-box test; then the tree makes its own Jacobian
    # calls and drops cells
    safe = mc_safe(net, box, 3.0)
    full = rb.verify(problem(net, box, safe, mode="full", grid=grid))
    calls = []
    with pytest.MonkeyPatch.context() as m:
        m.setattr(topology, "jacobian_interval_arrays",
                  lambda *a: calls.append(a) or jacobian_interval_arrays(*a))
        v = rb.verify(problem(net, box, safe, mode=mode, grid=grid))
    assert v.stats["path"] == "subset" and v.stats["input_certified"] is False
    assert len(calls) >= 2 and v.stats["cells_certified"] > 0
    assert v.stats["cells_propagated"] == v.stats["cells_kept"] < cells == v.stats["cells_total"]
    assert v.status == full.status == rb.SAFE
    assert full.output_hull.contains_box(v.output_hull)
    assert v.output_hull.contains_box(rb.monte_carlo(net, box, 5000, seed=1).image_hull)
    # the 7-input net at 2^7 cells: no interior cell, so no cell is tested
    assert box_passes_row_test(net7, box7) is False
    with pytest.MonkeyPatch.context() as m:
        m.setattr(verifier, "box_passes_row_test", lambda net, box: False)
        v = _keeps_the_full_grid(net7, box7, mc_safe(net7, box7, 3.0), mode, grid=grid7)
    assert v.stats["cells_propagated"] == cells7 and "fallback_full" not in v.stats
    for net, box in ((net, box), (net7, box7)):
        with pytest.raises(ValueError):
            certify_cells(net, box.lo, box.hi)


def test_subset_runs_the_tree_on_any_net_shape(unit_square):
    _tree_runs_on_any_net_shape(unit_square, "subset")


@pytest.mark.parametrize("mode", ["subset", "auto"])
def test_a_box_that_passes_the_row_test_takes_the_faces_on_any_net_shape(unit_square, mode):
    for net, box, grid, _ in _other_shape_cases(unit_square, scale=0.5):
        safe = mc_safe(net, box, 3.0)
        v = rb.verify(problem(net, box, safe, mode=mode, grid=grid))
        faces = rb.verify(problem(net, box, safe, mode="boundary", grid=grid))
        assert v.stats["path"] == "boundary" and v.stats["input_certified"] is True
        assert v.stats["assumes_invertible"] is False
        assert v.stats["cells_propagated"] == faces.stats["cells_propagated"]
        assert v.status == rb.SAFE
        assert v.output_hull.contains_box(rb.monte_carlo(net, box, 5000, seed=1).image_hull)
        assert v.output_hull.lo.tobytes() == faces.output_hull.lo.tobytes()
        assert v.output_hull.hi.tobytes() == faces.output_hull.hi.tobytes()


# ---------------------------------------------------------------------------
# auto mode


def test_auto_certified_takes_boundary_path(unit_square, invertible_net):
    safe = mc_safe(invertible_net, unit_square, 1.5)
    v = rb.verify(problem(invertible_net, unit_square, safe, grid=(30, 30)))
    assert v.stats["path"] == "boundary"
    assert v.stats["input_certified"] is True
    assert v.stats["assumes_invertible"] is False


@pytest.mark.parametrize("mode", ["subset", "auto"])
def test_a_box_that_fails_the_determinant_but_passes_the_row_test_takes_the_faces(mode):
    # sigmoid-2-8-2 of the planar workloads, without their jitter
    net = rb.generate_network(1, (2, 8, 2), "sigmoid", 2.0)
    box = rb.Box.from_bounds([(-1, 1), (-1, 1)])
    assert not rb.certify_homeomorphism(net, box)[2] and box_passes_row_test(net, box)
    v = rb.verify(problem(net, box, mc_safe(net, box, 1.3), mode=mode, grid=(40, 40)))
    assert v.stats["path"] == "boundary" and v.stats["input_certified"] is True
    assert v.stats["assumes_invertible"] is False and v.stats["cells_propagated"] == 160
    assert v.status == rb.SAFE
    # the cells the subset path propagates: face cells lie in its ring cells, and the
    # box pass is inclusion-monotone, so the face hull lies inside its hull
    ex = extract_subset(net, box, (40, 40))
    tree = rb.verifier.propagate_cells(net, ex, "box")
    assert rb.Box.from_arrays(tree.out_lo.min(axis=0), tree.out_hi.max(axis=0)).contains_box(
        v.output_hull)
    assert v.output_hull.contains_box(rb.monte_carlo(net, box, 20_000, seed=3).image_hull)


@given(deep_nets(), st.sampled_from(["boundary", "subset", "full"]), st.booleans())
@settings(max_examples=40, deadline=None)
def test_every_batch_is_lattice_ranges_of_its_levels_grid(case, mode, refine):
    net, _ = case
    n = net.input_dim
    box = rb.Box.from_bounds([(-1, 1)] * n)
    # no hull fits a point, since every enclosure is padded outward; every hull fits 1e6
    half = np.full(net.output_dim, 0.0 if refine else 1e6)
    safe = rb.Box.from_arrays(-half, half)
    p = problem(net, box, safe, mode=mode, grid=({2: 6, 3: 4}.get(n, 3),), max_refinements=1)
    v = rb.verify(p)
    batch, level, path = v.cell_batch, v.stats["refinement_level"], v.stats.get("path", mode)
    assert level == int(refine)
    counts = np.array(batch.grid.counts)
    assert np.array_equal(counts, np.array(p.grid) * 2**level)
    assert batch.grid.base.lo.tobytes() == box.lo.tobytes()
    assert batch.grid.base.hi.tobytes() == box.hi.tobytes()
    a, b = batch.index, batch.b
    assert np.all((0 <= a) & (a <= b) & (b <= counts))
    if path == "boundary":
        pinned = a == b
        assert np.all(pinned.sum(axis=1) == 1)
        assert np.all((a == 0) | (a == counts) | ~pinned)
    else:
        assert np.array_equal(b, a + 1)
    lo, hi = batch.grid.range_bounds(a.T, b.T)
    assert lo.tobytes() == batch.lo.tobytes() and hi.tobytes() == batch.hi.tobytes()


def test_auto_singular_takes_subset_path(unit_square):
    # a zero row fails the row test; a singular net with nonzero gradient rows passes it
    safe = rb.Box.from_bounds([(-1, 3), (-1, 3)])
    v = rb.verify(problem(linear_net([[1.0, 1.0], [0.0, 0.0]]), unit_square, safe, grid=(4, 4)))
    assert v.stats["path"] == "subset" and v.stats["input_certified"] is False
    assert v.status == rb.SAFE
    v = rb.verify(problem(linear_net([[1.0, 1.0], [1.0, 1.0]]), unit_square, safe, grid=(4, 4)))
    assert v.stats["path"] == "boundary" and v.stats["input_certified"] is True
    assert v.status == rb.SAFE


def test_auto_runs_the_tree_on_any_net_shape(unit_square):
    _tree_runs_on_any_net_shape(unit_square, "auto")


def test_auto_refines_until_safe(unit_square, invertible_net):
    # build a safe box satisfiable at refinement level 2 but not below
    hulls = []
    for level in range(3):
        counts = (4 * 2**level,) * 2
        v = rb.verify(
            problem(invertible_net, unit_square, rb.Box.from_bounds([(-9, 9), (-9, 9)]),
                    mode="boundary", grid=counts)
        )
        hulls.append(v.output_hull)
    safe = rb.Box.from_arrays(
        0.5 * (hulls[2].lo + hulls[1].lo), 0.5 * (hulls[2].hi + hulls[1].hi)
    )
    assert safe.contains_box(hulls[2]) and not safe.contains_box(hulls[1])
    v = rb.verify(
        problem(invertible_net, unit_square, safe, grid=(4, 4), max_refinements=3)
    )
    assert v.status == rb.SAFE
    assert v.stats["refinement_level"] == 2


def test_auto_exhausts_refinements(unit_square, invertible_net):
    v = rb.verify(
        problem(invertible_net, unit_square,
                rb.Box.from_bounds([(1e-9, 2e-9), (0, 1e-9)]), grid=(2, 2),
                max_refinements=1)
    )
    assert v.status == rb.UNKNOWN
    assert v.stats["refinement_level"] == 1


@pytest.mark.parametrize("mode", ["boundary", "subset", "full", "auto"])
def test_every_mode_refines(mode, unit_square, invertible_net):
    # the Unknown problem that auto mode refines above: every mode refines it
    v = rb.verify(
        problem(invertible_net, unit_square,
                rb.Box.from_bounds([(1e-9, 2e-9), (0, 1e-9)]), mode=mode, grid=(2, 2),
                max_refinements=2)
    )
    assert v.status == rb.UNKNOWN
    assert v.stats["refinement_level"] == 2


# MIXED over a segment: the second input has zero width
FLAT = rb.Box.from_bounds([(-1, 1), (0.3, 0.3)])
TINY_SAFE = rb.Box.from_bounds([(-1e-9, 1e-9)] * 2)  # unknown at every level


@pytest.mark.parametrize("domain", ["box", "zono"])
@pytest.mark.parametrize("mode", ["subset", "full", "auto"])
def test_refinement_keeps_zero_width_dimensions_at_one_cell(mode, domain):
    v = rb.verify(problem(make_net(**MIXED), FLAT, TINY_SAFE, mode=mode, domain=domain,
                          grid=(4, 1), max_refinements=1))
    assert v.status == rb.UNKNOWN
    assert v.stats["refinement_level"] == 1 and v.stats["cells_propagated"] == 8
    assert np.all(v.cell_batch.lo[:, 1] == 0.3) and np.all(v.cell_batch.hi[:, 1] == 0.3)


@pytest.mark.parametrize("domain", ["box", "zono"])
@pytest.mark.parametrize("mode", ["subset", "auto"])
def test_a_flat_input_box_keeps_every_cell(mode, domain):
    # a box with no interior has no cell to drop, so nothing is tested
    v = _keeps_the_full_grid(make_net(**MIXED), FLAT, TINY_SAFE, mode, domain=domain,
                             grid=(5, 1), max_refinements=1)
    assert v.status == rb.UNKNOWN and v.stats["cells_propagated"] == 10


@pytest.mark.parametrize("domain", ["box", "zono"])
@pytest.mark.parametrize("mode", ["subset", "full", "auto"])
def test_a_box_with_no_width_is_not_refined(monkeypatch, mode, domain):
    # its one cell is the grid of every level, so a refinement would repeat level 0
    builds = []

    def recording(build):
        def record(*args):
            builds.append(args[-1])
            return build(*args)
        return record

    for name in ("grid_cell_batch", "extract_subset"):
        monkeypatch.setattr(verifier, name, recording(getattr(verifier, name)))
    point = rb.Box.from_bounds([(0.3, 0.3), (-0.2, -0.2)])
    v = rb.verify(problem(make_net(**MIXED), point, TINY_SAFE, mode=mode, domain=domain,
                          max_refinements=5))
    assert v.status == rb.UNKNOWN and v.stats["refinement_level"] == 0
    assert builds == [(1, 1)]


def test_boundary_mode_refuses_a_flat_input_box():
    with pytest.raises(ValueError, match="non-degenerate"):
        rb.verify(problem(make_net(**MIXED), FLAT, TINY_SAFE, mode="boundary", grid=(4, 1)))


@pytest.mark.parametrize("mode", ["boundary", "subset", "full", "auto"])
def test_phase_times_in_stats_and_document(mode):
    net = make_net(**MIXED)
    box = rb.Box.from_bounds([(-1, 1), (-1, 1)])
    safe = rb.Box.from_bounds([(-1e-9, 1e-9), (-1e-9, 1e-9)])  # unknown: every level runs
    v = rb.verify(problem(net, box, safe, mode=mode, grid=(8, 8), max_refinements=1))
    doc = verdict_document(v)
    for stats in (v.stats, doc["stats"]):
        assert stats["certify_ms"] >= 0 and stats["propagate_ms"] > 0
        assert stats["falsify_ms"] == 0.0  # no sample is drawn
        assert stats["certify_ms"] + stats["propagate_ms"] + stats["falsify_ms"] <= stats["wall_ms"]
    falsified = rb.verify(problem(net, box, safe, mode=mode, grid=(8, 8), max_refinements=1,
                                  falsify_samples=64))
    stats = falsified.stats
    assert falsified.status == rb.FALSIFIED and stats["falsify_ms"] > 0
    assert stats["certify_ms"] + stats["propagate_ms"] + stats["falsify_ms"] <= stats["wall_ms"]
    if mode in ("boundary", "full"):
        assert v.stats["certify_ms"] == 0
    else:
        assert v.stats["certify_ms"] > 0


@pytest.mark.parametrize("mode", ["boundary", "subset", "full", "auto"])
@pytest.mark.parametrize("domain", ["box", "zono"])
@pytest.mark.parametrize("half_width, status", [(99.0, rb.SAFE), (1e-9, rb.UNKNOWN)],
                         ids=["safe", "unknown"])
def test_verdict_document_stats_are_the_verdict_stats(mode, domain, half_width, status):
    box = rb.Box.from_bounds([(-1, 1), (-1, 1)])
    safe = rb.Box.from_bounds([(-half_width, half_width)] * 2)
    v = rb.verify(problem(make_net(**MIXED), box, safe, mode=mode, domain=domain, grid=(8, 8),
                          max_refinements=1))
    assert v.status == status
    doc = verdict_document(v)
    assert doc["stats"] == v.stats
    assert json.loads(json.dumps(doc)) == doc


# ---------------------------------------------------------------------------
# Monte-Carlo oracle and falsification


def test_monte_carlo_deterministic(unit_square, invertible_net):
    a = rb.monte_carlo(invertible_net, unit_square, 500, seed=9)
    b = rb.monte_carlo(invertible_net, unit_square, 500, seed=9)
    assert np.array_equal(a.points, b.points) and np.array_equal(a.images, b.images)


def test_monte_carlo_violations_read_every_output(unit_square):
    net = make_net(seed=5, dims=(2, 6, 3))
    r = rb.monte_carlo(net, unit_square, 500, seed=3)
    for k in range(3):  # a safe box that only output k can leave, on either side
        lo, hi = np.full(3, -99.0), np.full(3, 99.0)
        lo[k], hi[k] = np.quantile(r.images[:, k], [0.2, 0.7])
        safe = rb.Box.from_arrays(lo, hi)
        bad = np.any((r.images < lo) | (r.images > hi), axis=1)
        assert 0 < bad.sum() < 500
        violations = rb.monte_carlo(net, unit_square, 500, seed=3, safe=safe).violations
        assert violations.tobytes() == r.points[bad].tobytes()


def test_monte_carlo_refuses_a_safe_box_of_the_wrong_dimension(unit_square, invertible_net):
    # a 1-d safe box would broadcast over both outputs and report made-up violations
    for safe in ([(0, 1)], [(0, 1)] * 3):
        with pytest.raises(ValueError, match="safe box dimension"):
            rb.monte_carlo(invertible_net, unit_square, 10, seed=0, safe=rb.Box.from_bounds(safe))


def test_monte_carlo_refuses_a_region_of_the_wrong_dimension(invertible_net, monkeypatch):
    # refused before a point is drawn, by a message that names both dimensions
    monkeypatch.setattr(np.random, "Philox", None)
    for dim in (1, 6):
        with pytest.raises(ValueError, match=f"region dimension {dim} != input dim 2"):
            rb.monte_carlo(invertible_net, rb.Box.from_bounds([(0, 1)] * dim), 10, seed=0)


def test_partition_and_sampling_refuse_an_overflowing_width(invertible_net):
    box = rb.Box.from_bounds([(-1, 1), (-1e308, 1e308)])  # hi - lo is inf
    with pytest.raises(ValueError, match="dimension 1 .* too wide"):
        rb.CellGrid(box, (4, 4))
    with pytest.raises(ValueError, match="dimension 1 .* too wide"):
        rb.monte_carlo(invertible_net, box, 10, seed=0)


def test_monte_carlo_point_region(invertible_net):
    region = rb.Box([0.25, 0.75], [0.25, 0.75])
    r = rb.monte_carlo(invertible_net, region, 1, seed=0)
    assert np.array_equal(r.points[0], [0.25, 0.75])
    assert np.array_equal(r.image_hull.lo, r.image_hull.hi)


def test_monte_carlo_hull_inside_box_propagation(invertible_net, unit_square):
    r = rb.monte_carlo(invertible_net, unit_square, 100_000, seed=4)
    out = rb.Box.from_arrays(*box_propagate_arrays(invertible_net, unit_square.lo, unit_square.hi))
    assert out.contains_box(r.image_hull)


def test_monte_carlo_respects_degenerate_dims(invertible_net):
    face = rb.Box.from_bounds([(0, 0), (0, 1)])
    r = rb.monte_carlo(invertible_net, face, 100, seed=2)
    assert np.all(r.points[:, 0] == 0.0)


def test_falsification_promotion(unit_square):
    p = problem(
        identity_net(), unit_square, rb.Box.from_bounds([(0.2, 0.8), (0.2, 0.8)]),
        mode="full", grid=(4, 4), falsify_samples=256,
    )
    v = rb.verify(p)
    assert v.status == rb.FALSIFIED
    assert v.counterexample is not None
    assert not p.safe_box.contains_point(rb.forward_point(p.net, v.counterexample))


def test_no_falsification_by_default(unit_square):
    p = problem(
        identity_net(), unit_square, rb.Box.from_bounds([(0.2, 0.8), (0.2, 0.8)]),
        mode="full", grid=(4, 4),
    )
    assert rb.verify(p).status == rb.UNKNOWN


def _counted_monte_carlo(monkeypatch):
    """Route `verify`'s falsifier through a counter; returns the list of calls."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return rb.monte_carlo(*args, **kwargs)

    monkeypatch.setattr(verifier, "monte_carlo", counting)
    return calls


@pytest.mark.parametrize("safe, samples, status, level, draws", [
    ("sampled", 256, rb.UNKNOWN, 2, 1),  # Unknown at every level: one sample, at level 0
    ("wide", 256, rb.SAFE, 0, 0),  # Safe at level 0: nothing to falsify
    ("sampled", 0, rb.UNKNOWN, 2, 0),
], ids=["unknown", "safe", "no-samples"])
def test_the_falsifier_runs_at_most_once(monkeypatch, safe, samples, status, level, draws):
    net, box = make_net(**MIXED), rb.Box.from_bounds([(-1, 1), (-1, 1)])
    # "sampled" holds the 256 points the falsifier draws, so it finds no violation
    safe_box = {"sampled": mc_safe(net, box, 1.01, n=256, seed=0),
                "wide": rb.Box.from_bounds([(-99, 99)] * 2)}[safe]
    calls = _counted_monte_carlo(monkeypatch)
    v = rb.verify(problem(net, box, safe_box, mode="full", grid=(4, 4), max_refinements=2,
                          falsify_samples=samples))
    assert v.status == status and v.stats["refinement_level"] == level
    assert len(calls) == draws and (v.stats["falsify_ms"] > 0) == (draws == 1)


def test_a_verdict_safe_after_refining_draws_one_sample_and_keeps_its_hull(monkeypatch):
    net, box = make_net(**MIXED), rb.Box.from_bounds([(-1, 1), (-1, 1)])
    wide = rb.Box.from_bounds([(-99, 99)] * 2)
    coarse, fine = (rb.verify(problem(net, box, wide, mode="full", grid=(4 * 2**k,))).output_hull
                    for k in (0, 1))
    # a safe box between the two levels' hulls: Unknown at level 0, Safe at level 1
    between = rb.Box.from_arrays((coarse.lo + fine.lo) / 2, (coarse.hi + fine.hi) / 2)
    plain = problem(net, box, between, mode="full", grid=(4,), max_refinements=1)
    expected = rb.verify(plain)
    assert expected.status == rb.SAFE and expected.stats["refinement_level"] == 1
    calls = _counted_monte_carlo(monkeypatch)
    v = rb.verify(dataclasses.replace(plain, falsify_samples=256))
    assert len(calls) == 1
    assert v.status == rb.SAFE and v.stats["refinement_level"] == 1
    assert v.output_hull.lo.tobytes() == expected.output_hull.lo.tobytes()
    assert v.output_hull.hi.tobytes() == expected.output_hull.hi.tobytes()


def test_a_sampled_violation_needs_the_point_recheck(monkeypatch):
    # every sampled image leaves this box, but the one-point re-check says it
    # stays inside: nothing is promoted, and the grid refines as without samples
    net, box = make_net(**MIXED), rb.Box.from_bounds([(-1, 1), (-1, 1)])
    tiny = rb.Box.from_bounds([(0, 1e-3)] * 2)
    monkeypatch.setattr(verifier, "forward_point", lambda net, x: tiny.midpoint())
    calls = _counted_monte_carlo(monkeypatch)
    v = rb.verify(problem(net, box, tiny, mode="full", grid=(4,), max_refinements=2,
                          falsify_samples=64))
    assert len(calls) == 1 and len(rb.monte_carlo(*calls[0], safe=tiny).violations) == 64
    assert v.status == rb.UNKNOWN and v.counterexample is None
    assert v.stats["refinement_level"] == 2


def test_sample_counts_past_the_cell_budget_are_refused(monkeypatch, unit_square, invertible_net):
    monkeypatch.setattr(topology, "CELL_BUDGET", 100)
    assert len(rb.monte_carlo(invertible_net, unit_square, 100, seed=0).points) == 100
    assert problem(invertible_net, unit_square, unit_square, falsify_samples=100)

    def no_draw(*args, **kwargs):
        raise AssertionError("a sample was drawn")

    monkeypatch.setattr(verifier.np.random, "Philox", no_draw)
    with pytest.raises(ValueError, match="sample count 101 is more than the budget of 100"):
        rb.monte_carlo(invertible_net, unit_square, 101, seed=0)
    with pytest.raises(ValueError, match="sample count 101 is more than the budget of 100"):
        problem(invertible_net, unit_square, unit_square, falsify_samples=101)


# ---------------------------------------------------------------------------
# refinement monotonicity


@pytest.mark.parametrize("domain", ["box", "zono"])
def test_refinement_never_grows_hull(domain, invertible_net, unit_square):
    safe = rb.Box.from_bounds([(-9, 9), (-9, 9)])
    hulls = []
    for k in (5, 10, 20):
        v = rb.verify(
            problem(invertible_net, unit_square, safe, domain=domain, mode="full", grid=(k, k))
        )
        hulls.append(v.output_hull)
    for coarse, fine in zip(hulls, hulls[1:]):
        assert np.all(fine.lo >= coarse.lo - 1e-9)
        assert np.all(fine.hi <= coarse.hi + 1e-9)


def test_verdict_dispatch_by_mode(unit_square, invertible_net):
    safe = mc_safe(invertible_net, unit_square, 2.0)
    for mode in ("boundary", "subset", "full", "auto"):
        v = rb.verify(problem(invertible_net, unit_square, safe, mode=mode, grid=(6, 6)))
        assert v.status in (rb.SAFE, rb.UNKNOWN)
        assert "wall_ms" in v.stats


def test_problem_validation(unit_square, invertible_net):
    with pytest.raises(ValueError):
        problem(invertible_net, rb.Box.from_bounds([(0, 1)] * 3), unit_square)
    with pytest.raises(ValueError):
        problem(invertible_net, unit_square, unit_square, mode="guided")
    with pytest.raises(ValueError):
        problem(invertible_net, unit_square, unit_square, grid=(0, 4))
    with pytest.raises(ValueError):
        problem(invertible_net, unit_square, unit_square, max_refinements=-1)
    with pytest.raises(ValueError):
        problem(invertible_net, unit_square, unit_square, falsify_samples=-5)
    with pytest.raises(ValueError, match="seed must be nonnegative, got -1"):
        problem(invertible_net, unit_square, unit_square, seed=-1)


@pytest.mark.parametrize("value", [1.5, "1", True])
@pytest.mark.parametrize("field", ["max_refinements", "falsify_samples", "seed"])
def test_problem_refuses_a_count_that_is_not_an_integer(unit_square, invertible_net, field,
                                                         value):
    # refused at construction, before `verify` builds a grid or draws a sample
    with pytest.raises(ValueError, match=f"{field} must be an integer, got {value!r}"):
        problem(invertible_net, unit_square, unit_square, **{field: value})


@pytest.mark.parametrize("value", [1.5, "1", True])
def test_monte_carlo_refuses_a_count_that_is_not_an_integer(unit_square, invertible_net, value):
    with pytest.raises(ValueError, match="sample count must be an integer"):
        rb.monte_carlo(invertible_net, unit_square, value, seed=0)
    with pytest.raises(ValueError, match="seed must be an integer"):
        rb.monte_carlo(invertible_net, unit_square, 10, seed=value)


# each path's builder, called on a unit box of the counts' dimension
_BUILDERS = {
    "full": topology.grid_cell_batch,
    "subset": lambda box, counts: topology.extract_subset(identity_net(len(counts)), box, counts),
    "boundary": topology.boundary_cell_batch,
}


class _GridBuilt(Exception):
    pass


@pytest.mark.parametrize(
    "path, at_budget, past_budget",
    [
        # grid cells: 2^22 = 2^11 x 2^11, and 2^22 + 1 = 5 x 838 861
        ("full", (2**11, 2**11), (5, 838_861)),
        ("subset", (2**22,), (2**22 + 1,)),
        # face cells: 2 (c1 + c0) in 2-d is even, so 2 past is the next count
        ("boundary", (2**20, 2**20), (2**20, 2**20 + 1)),
    ],
)
def test_level_size_checked_against_the_budget(monkeypatch, path, at_budget, past_budget):
    def grid(box, counts):  # reached only past the budget check; builds nothing
        raise _GridBuilt(counts)

    monkeypatch.setattr(topology, "CellGrid", grid)
    build = _BUILDERS[path]
    with pytest.raises(_GridBuilt):
        build(rb.Box.from_bounds([(0, 1)] * len(at_budget)), at_budget)
    past = topology.CELL_BUDGET + (2 if path == "boundary" else 1)
    with pytest.raises(ValueError, match=f"needs {past} .*budget of {topology.CELL_BUDGET}.*allocate"):
        build(rb.Box.from_bounds([(0, 1)] * len(past_budget)), past_budget)


def test_face_cell_count_matches_the_built_batch(monkeypatch):
    # a 3-d box, a 1-d box (its two end points; a count past the budget is refused on
    # its own), a count of 1, and a 6-d box
    for counts, faces in [((3, 4, 5), 2 * (20 + 15 + 12)), ((2,), 2), ((1, 6), 2 * (6 + 1)),
                          ((5, 1, 3), 2 * (3 + 15 + 5)),
                          ((2, 3, 1, 2, 3, 2), 2 * (36 + 24 + 72 + 36 + 24 + 36))]:
        box = rb.Box.from_bounds([(-1, 2)] * len(counts))
        monkeypatch.setattr(topology, "CELL_BUDGET", faces)
        batch = topology.boundary_cell_batch(box, counts)
        assert batch.count == faces
        assert np.all(np.sum(batch.lo == batch.hi, axis=1) == 1)
        monkeypatch.setattr(topology, "CELL_BUDGET", faces - 1)
        with pytest.raises(ValueError, match=f"needs {faces} face cells"):
            topology.boundary_cell_batch(box, counts)
    box = rb.Box.from_bounds([(0, 1)] * 3)
    monkeypatch.setattr(topology, "CELL_BUDGET", 60)
    assert topology.grid_cell_batch(box, (3, 4, 5)).count == 60
    monkeypatch.setattr(topology, "CELL_BUDGET", 59)
    with pytest.raises(ValueError, match="needs 60 grid cells"):
        topology.grid_cell_batch(box, (3, 4, 5))


def test_verify_refuses_an_oversized_refinement_level_before_building_it(monkeypatch):
    monkeypatch.setattr(topology, "CELL_BUDGET", 100)
    problem = rb.VerificationProblem(
        make_net(**MIXED), rb.Box.from_bounds([(-1, 1), (-1, 1)]),
        rb.Box.from_bounds([(-1e-3, 1e-3)] * 2), mode="auto", grid=(4,),
        max_refinements=2,
    )
    reached, built = [], []

    def recording_extract_subset(net, box, counts):
        reached.append(counts)
        return extract_subset(net, box, counts)

    def recording_grid(box, counts):
        built.append(tuple(counts))
        return rb.CellGrid(box, counts)

    monkeypatch.setattr(verifier, "extract_subset", recording_extract_subset)
    monkeypatch.setattr(topology, "CellGrid", recording_grid)
    verdict = rb.verify(problem)
    assert reached == [(4, 4), (8, 8), (16, 16)]
    assert built == [(4, 4), (8, 8)]  # 16 and 64 cells; 256 is refused unbuilt
    # refining stops there: level 1's verdict, hull and cells stand
    level_one = rb.verify(dataclasses.replace(problem, max_refinements=1))
    assert verdict.status == level_one.status == rb.UNKNOWN
    assert verdict.stats["refinement_level"] == 1
    assert verdict.output_hull.lo.tobytes() == level_one.output_hull.lo.tobytes()
    assert verdict.output_hull.hi.tobytes() == level_one.output_hull.hi.tobytes()
    assert verdict.cell_batch.index.tobytes() == level_one.cell_batch.index.tobytes()
    problem = dataclasses.replace(problem, max_refinements=0, grid=(32,))
    with pytest.raises(topology.CellBudgetError, match="allocate"):
        rb.verify(problem)  # a level-0 grid past the budget still ends verify


@pytest.mark.parametrize("mode", ["boundary", "auto", "subset"])
def test_one_input_faces_stop_refining_at_the_budget(monkeypatch, mode):
    # a 1-d box's faces are its two end points at every count, so no level is refined,
    # though the budget would let the count grow to 256
    monkeypatch.setattr(topology, "CELL_BUDGET", 256)
    builds = []

    def recording(box, counts):
        builds.append(counts)
        return topology.boundary_cell_batch(box, counts)

    monkeypatch.setattr(verifier, "boundary_cell_batch", recording)
    net, box = rb.generate_network(0, (1, 4, 1)), rb.Box.from_bounds([(-1, 1)])
    assert box_passes_row_test(net, box)  # auto and subset take the faces too
    verdict = rb.verify(problem(net, box, rb.Box.from_bounds([(-1e-6, 1e-6)]), mode=mode,
                                grid=(4,), max_refinements=8))
    assert verdict.status == rb.UNKNOWN and verdict.stats.get("path", mode) == "boundary"
    assert verdict.stats["refinement_level"] == 0
    assert verdict.cell_batch.grid.counts == (4,) and verdict.cell_batch.count == 2
    assert builds == [(4,)]
