import dataclasses
import importlib
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reachbound as rb
from reachbound.domains import box_propagate_arrays, normalize_domain, zono_propagate
from reachbound.intervals import (
    _interval_matvec_arrays, _operands, _PAD_ACT, _PAD_DERIV, _TINY, _U,
)
from reachbound.verifier import boundary_cell_batch, grid_cell_batch, propagate_cells
from conftest import (
    PLANNED_NETS,
    WORKLOAD_NETS,
    bias_rows,
    deep_nets,
    identity_net,
    linear_hidden_net,
    make_net,
    plain_add_bias,
    sample_box,
)
from test_intervals import (
    HARD_POINTS,
    MAX,
    dec_sigmoid,
    dec_tanh,
    ref_down,
    ref_up,
    same_bits,
)


def mc_images(net, box, n, seed):
    return rb.forward_batch(net, sample_box(box, n, seed))


def zonotope(center, generators, slack=None):
    """The `Zonotope` record of centers (..., d), generator-major generators (g, ..., d) and slack."""
    center = np.asarray(center, dtype=float)
    rows = np.concatenate([center[None], np.asarray(generators, dtype=float)])
    return rb.Zonotope(rows, np.zeros_like(center) if slack is None else np.asarray(slack, float))


# ---------------------------------------------------------------------------
# box propagation


def test_box_propagate_identity(unit_square):
    out = rb.Box.from_arrays(*box_propagate_arrays(identity_net(), unit_square.lo, unit_square.hi))
    assert out.contains_box(unit_square)
    assert np.all(np.abs(out.lo - unit_square.lo) < 1e-12)
    assert np.all(np.abs(out.hi - unit_square.hi) < 1e-12)


def test_box_propagate_point_through_tanh():
    net = rb.Network((rb.Layer(np.eye(2), np.zeros(2), "tanh"),))
    point = rb.Box([0.0, 0.0], [0.0, 0.0])
    out = rb.Box.from_arrays(*box_propagate_arrays(net, point.lo, point.hi))
    assert out.contains_point([0.0, 0.0])
    # the product's 8-subnormal-step term vanishes in tanh's one absolute step per end
    assert np.all(out.widths() == 2 * _PAD_ACT * 2.0**-53)


def test_box_propagate_contains_monte_carlo_hull(unit_square, invertible_net):
    lo, hi = box_propagate_arrays(invertible_net, unit_square.lo, unit_square.hi)
    images = mc_images(invertible_net, unit_square, 100_000, seed=5)
    assert np.all(images >= lo) and np.all(images <= hi)


def test_box_propagate_dimension_mismatch(invertible_net):
    with pytest.raises(ValueError):
        box_propagate_arrays(invertible_net, np.zeros(3), np.ones(3))


@given(
    lo0=st.floats(-1, 0.9),
    w0=st.floats(0.01, 1),
    t=st.floats(0, 0.9),
    s=st.floats(0.05, 1),
)
@settings(max_examples=40, deadline=None)
def test_box_propagate_cell_monotone(lo0, w0, t, s):
    net = make_net(seed=2)
    outer = rb.Box.from_bounds([(lo0, lo0 + w0), (0, 0.5)])
    inner_lo = lo0 + t * w0 * (1 - s)
    inner = rb.Box.from_bounds([(inner_lo, inner_lo + s * w0 * (1 - t)), (0.1, 0.4)])
    assert outer.contains_box(inner)
    outer_lo, outer_hi = box_propagate_arrays(net, outer.lo, outer.hi)
    inner_lo, inner_hi = box_propagate_arrays(net, inner.lo, inner.hi)
    assert np.all(outer_lo <= inner_lo) and np.all(inner_hi <= outer_hi)


@given(deep_nets())
@settings(max_examples=30, deadline=None)
def test_box_hulls_hold_point_images_of_deep_nets(case):
    net, seed = case
    rng = np.random.default_rng(seed)
    n, cells, per_cell = net.input_dim, 12, 20
    # random cells, some with zero-width dimensions and one a single point
    lo = rng.uniform(-1, 1, (cells, n))
    hi = lo + rng.uniform(0, 1, (cells, n)) * (rng.random((cells, n)) < 0.7)
    hi[0] = lo[0]
    out_lo, out_hi = box_propagate_arrays(net, lo, hi)
    t = rng.random((cells, per_cell, n))
    pts = np.minimum(lo[:, None] + t * (hi - lo)[:, None], hi[:, None])
    pts = np.concatenate([lo[:, None], hi[:, None], pts], axis=1)  # corners too
    images = rb.forward_batch(net, pts.reshape(-1, n)).reshape(cells, per_cell + 2, -1)
    assert np.all(images >= out_lo[:, None]) and np.all(images <= out_hi[:, None])


# ---------------------------------------------------------------------------
# zonotope construction and primitives


def test_zono_from_box_axis_generators():
    z = rb.zono_from_box(rb.Box.from_bounds([(0, 2), (1, 1)]))
    assert np.array_equal(z.rows[0], [1.0, 1.0])
    # the zero-width dimension gets a zero column and no slack
    assert np.array_equal(z.rows[1:], [[1.0, 0.0], [0.0, 0.0]])
    assert z.slack[1] == 0.0


def test_zono_from_point_box():
    z = rb.zono_from_box(rb.Box([0.3, -0.2, 5.0], [0.3, -0.2, 5.0]))
    assert np.array_equal(z.rows[1:], np.zeros((3, 3)))
    lo, hi = z.hull_arrays()
    assert np.array_equal(lo, [0.3, -0.2, 5.0]) and np.array_equal(hi, lo)
    # a row of zeros takes only its slack, rounded outward by one step
    c, s = np.array([0.0, 2.0**-30, -0.0]), np.array([1e-3, 2.0**-40, 0.25])
    lo, hi = zonotope(c, np.zeros((2, 3)), s).hull_arrays()
    assert same_bits((lo, hi), (ref_down(c - s), ref_up(c + s)))


def test_box_rows_enclose_their_box_in_exact_arithmetic():
    # The rounded midpoint c and half-width can each fall half an ulp short of
    # [lo, hi]; the slack makes up for it, so c ± (half + slack) encloses the
    # box exactly.  The three fixed boxes, of mixed signs and far-apart
    # exponents, escape a slack of `_TINY` alone; the sweep's ends are signed,
    # 1e-18 to 1e18 (exponents -60..60), a quarter subnormal, some zero.
    # The center is formed from halves, so ends near the largest float do not
    # overflow it, and subnormal halves round; both sweeps below hold such ends.
    fixed = np.array([[-244077461.09371138, 3.488864608158717e-14],
                      [-7.801965875733519e-11, 9.50665409756695e-18],
                      [-10270311839.841127, 196097421739.98822],
                      [1e308, 1.7e308], [-MAX, MAX], [-MAX, -MAX], [0.5 * MAX, MAX],
                      [5e-324, 5e-324], [-5e-324, 5e-324], [3 * 5e-324, 2.0**-1022],
                      [-(2.0**-1022), 7 * 5e-324]])
    rng = np.random.default_rng(43)
    ends = spread(rng, (3000, 2, 2), 0.05, (-18, 18))
    tiny = rng.integers(1, 2**52, ends.shape) * np.copysign(2.0**-1074, ends)
    ends = np.sort(np.where(rng.random(ends.shape) < 0.25, tiny, ends), axis=1)
    # ends within a factor 2^8 of the largest float, and odd multiples of the subnormal step
    huge = np.sort(MAX * rng.uniform(2.0**-8, 1.0, (500, 2, 2)) * rng.choice((-1.0, 1.0),
                                                                          (500, 2, 2)), axis=1)
    odd = np.sort((2 * rng.integers(0, 2**20, (500, 2, 2)) + 1) * 5e-324
                  * rng.choice((-1.0, 1.0), (500, 2, 2)), axis=1)
    for lo, hi in [(fixed[:, :1], fixed[:, 1:]), (ends[:, 0], ends[:, 1]), (huge[:, 0], huge[:, 1]),
                   (odd[:, 0], odd[:, 1])]:
        rows, slack = rb.domains._box_rows(lo, hi)
        half = np.einsum("iji->ji", rows[1:])
        assert np.count_nonzero(rows[1:]) == np.count_nonzero(half)  # off the diagonal: 0
        assert np.isfinite(rows).all() and np.isfinite(slack).all()
        for idx in np.ndindex(lo.shape):
            c, rad = Fraction(rows[0][idx]), Fraction(half[idx]) + Fraction(slack[idx])
            assert c - rad <= Fraction(lo[idx]) and Fraction(hi[idx]) <= c + rad, idx


def test_zono_from_symmetric_cube():
    z = rb.zono_from_box(rb.Box.from_bounds([(-1, 1)] * 3))
    assert z.rows[1:].shape[0] == 3
    assert np.array_equal(z.rows[1:], np.eye(3))


def test_zono_affine_identity_unchanged():
    z = rb.zono_from_box(rb.Box.from_bounds([(0, 1), (-1, 2)]))
    out = rb.zono_affine(z, np.eye(2), np.zeros(2))
    assert np.array_equal(out.rows[0], z.rows[0])
    assert np.array_equal(out.rows[1:], z.rows[1:])
    assert np.all(out.slack < 1e-13)


def test_zono_affine_scales_generators():
    z = rb.zono_from_box(rb.Box.from_bounds([(0, 1), (-1, 2)]))
    out = rb.zono_affine(z, 2 * np.eye(2), np.zeros(2))
    assert np.array_equal(out.rows[1:], 2 * z.rows[1:])


def test_zono_affine_dimension_mismatch():
    z = rb.zono_from_box(rb.Box.from_bounds([(0, 1), (0, 1)]))
    with pytest.raises(ValueError):
        rb.zono_affine(z, np.eye(3), np.zeros(3))


def test_zono_affine_hull_inside_interval_matvec():
    rng = np.random.default_rng(9)
    cell = rb.Box.from_bounds([(-0.5, 0.25), (0.1, 0.7), (-1, -0.2)])
    z = rb.zono_from_box(cell)
    for _ in range(20):
        w = rng.uniform(-2, 2, (3, 3))
        b = rng.uniform(-1, 1, 3)
        hull_lo, hull_hi = rb.zono_affine(z, w, b).hull_arrays()
        lo, hi = _interval_matvec_arrays(_operands(w, b), cell.lo, cell.hi)
        assert np.all(hull_lo >= lo - 1e-12) and np.all(hull_hi <= hi + 1e-12)


def spread(rng, shape, zeros=0.1, exponents=(-8, 8)):
    """Signed floats with magnitudes spread over 10**exponents (1e-8 to 1e8), some exact zeros."""
    mag = 10.0 ** rng.uniform(*exponents, shape)
    return np.where(rng.random(shape) < zeros, 0.0, mag * rng.choice((-1.0, 1.0), shape))


def exact_hull_holds(z):
    """hull_arrays encloses c ± (sum_j |G_j| + s) in exact arithmetic, per dimension."""
    lo, hi = z.hull_arrays()
    assert lo.shape == hi.shape == z.slack.shape
    for idx in np.ndindex(z.slack.shape):
        rad = sum(abs(Fraction(v)) for v in z.rows[(slice(1, None),) + idx]) + Fraction(
            z.slack[idx])
        c = Fraction(z.rows[0][idx])
        assert Fraction(lo[idx]) <= c - rad and c + rad <= Fraction(hi[idx])
    return 2 * z.slack.size


@pytest.mark.parametrize("seed, exponents", [(0, (-8, 8)), (1, (-8, 8)), (2, (-8, 8)),
                                             (3, (-8, 8)), (4, (-162, -160))])
def test_zonotope_rounding_terms_hold_in_exact_arithmetic(seed, exponents):
    # The image of (c, G, s) under w x + b is (w c + b, w G, |w| s) exactly;
    # zono_affine's slack must absorb every float error of its center and
    # generators on top of |w| s, whatever order BLAS sums in.  At 1e-162 to
    # 1e-160 every product underflows into or below the subnormals.
    rng = np.random.default_rng(seed)
    checks = 0
    for _ in range(25):
        k, m, g = rng.integers(1, 17), rng.integers(1, 17), rng.integers(0, 21)
        batch = [(), (1,), (3,)][rng.integers(3)]
        slack = np.abs(spread(rng, batch + (k,), 0.5, exponents))
        z = zonotope(spread(rng, batch + (k,), 0.1, exponents),
                     spread(rng, (g,) + batch + (k,), 0.1, exponents), slack)
        w, b = spread(rng, (m, k), 0.1, exponents), spread(rng, m, 0.1, exponents)
        out = rb.zono_affine(z, w, b)
        wf = [[Fraction(v) for v in row] for row in w.tolist()]
        for idx in np.ndindex(batch):
            c = [Fraction(v) for v in z.rows[0][idx]]
            gens = [[Fraction(v) for v in z.rows[(1 + j,) + idx]] for j in range(g)]
            s = [Fraction(v) for v in z.slack[idx]]
            for i in range(m):
                err = abs(sum(a * x for a, x in zip(wf[i], c)) + Fraction(b[i])
                          - Fraction(out.rows[0][idx][i]))
                err += sum(abs(sum(a * x for a, x in zip(wf[i], gen))
                               - Fraction(out.rows[(1 + j,) + idx][i]))
                           for j, gen in enumerate(gens))
                err += sum(abs(a) * x for a, x in zip(wf[i], s))
                assert err <= Fraction(out.slack[idx][i])
                checks += 1
        checks += exact_hull_holds(z) + exact_hull_holds(out)
    assert checks > 1000


def test_zono_activation_unit_tanh():
    # symmetric 1-dim case: lam = tanh'(1), mu1 = 0, mu2 = tanh(1) - lam
    z = zonotope(np.zeros(1), np.ones((1, 1)))
    out = rb.zono_activation(z, "tanh")
    lam = out.rows[1, 0]
    mu1 = out.rows[0, 0]
    mu2 = out.rows[2, 0]  # the fresh generator: generator-major (1 + g, d)
    assert abs(lam - 0.4199743416140261) < 1e-12
    assert abs(mu1) < 1e-14
    assert abs(mu2 - 0.3416198143417388) < 1e-12
    lo, hi = out.hull_arrays()
    assert abs(hi[0] - 0.7615941559557649) < 1e-9
    assert abs(lo[0] + 0.7615941559557649) < 1e-9


def test_zono_activation_degenerate_dim_maps_to_point():
    z = zonotope(np.array([0.7, -0.3]), np.array([[0.2, 0.0]]))
    out = rb.zono_activation(z, "tanh")
    # second dim is a point: its fresh generator (generator 1 + 1) collapses to zero
    assert out.rows[3, 1] == 0.0 and out.rows[2, 0] > 0.0
    assert abs(out.rows[0, 1] - np.tanh(-0.3)) < 1e-14
    assert out.slack[1] < 1e-13


def test_zono_activation_sample_containment():
    rng = np.random.default_rng(21)
    z = zonotope(np.array([0.2, -0.4]), rng.uniform(-0.5, 0.5, (2, 4)).T)
    for name in ("tanh", "sigmoid"):
        out = rb.zono_activation(z, name)
        f = rb.intervals._lookup(name).f
        g = z.rows.shape[0] - 1
        eps = rng.uniform(-1, 1, (10_000, g))
        points = z.rows[0] + eps @ z.rows[1:]
        target = f(points)
        form = out.rows[0] + eps @ out.rows[1:1 + g]
        fresh = np.diag(out.rows[1 + g:])
        assert np.all(np.abs(target - form) <= fresh + out.slack + 1e-300)


@pytest.mark.parametrize("activation, ref", [("tanh", dec_tanh), ("sigmoid", dec_sigmoid)])
def test_zono_activation_hulls_enclose_the_decimal_reference(activation, ref):
    # one-input layers on point boxes: the hull of f(x) rests on libm's f(l), f(u) and the
    # drift slack alone, so it must still hold the 50-digit value at each hard point
    net = rb.Network((rb.Layer(np.array([[1.0]]), np.array([0.0]), activation),))
    x = HARD_POINTS[np.abs(HARD_POINTS) <= 40.0]
    lo, hi = zono_propagate(net, x[:, None], x[:, None])
    with localcontext() as ctx:
        ctx.prec = 50
        missed = [xi for xi, l, h in zip(x.tolist(), lo[:, 0].tolist(), hi[:, 0].tolist())
                  if not Decimal(l) <= ref(Decimal(xi)) <= Decimal(h)]
    assert missed == []


def test_one_zonotope_activation_layer_evaluates_f_and_its_derivative_once(monkeypatch):
    # both hull ends go through f and f' in one call each, on the stacked (2, ..., d) ends
    calls = []
    for name in ("tanh", "sigmoid"):
        act = rb.intervals._lookup(name)

        def count(fn, tag):
            def counted(x):
                calls.append((tag, np.shape(x)))
                return fn(x)
            return counted

        monkeypatch.setitem(rb.intervals._ACTIVATIONS, name, dataclasses.replace(
            act, f=count(act.f, "f"), deriv=count(act.deriv, "deriv")))
    for dims, activation in [((2, 8, 8, 2), "tanh"), ((2, 8, 2), "sigmoid")]:
        net = make_net(seed=0, dims=dims, activation=activation)
        lo = np.random.default_rng(0).uniform(-1.0, 1.0, (80, 2))
        calls.clear()
        zono_propagate(net, lo, lo + 0.05)
        hidden = len(dims) - 2
        assert calls == [("f", (2, 80, 8)), ("deriv", (2, 80, 8))] * hidden
        calls.clear()
        rb.zono_activation(rb.zono_from_box(rb.Box(lo[0], lo[0] + 0.05)), activation)
        assert calls == [("f", (2, 2)), ("deriv", (2, 2))]


def plain_activation_rows(out, slack, activation):
    """`_activation_rows` as plain expressions, a new array for every intermediate."""
    act = rb.intervals._lookup(activation)
    g = out.shape[0] - 1 - out.shape[-1]
    head = out[:1 + g]
    center, gens = head[0], head[1:]
    rad_raw = np.abs(gens).sum(axis=0)
    err = (g + 2) * _U * (rad_raw + slack)
    rad = np.where(rad_raw == 0.0, 0.0, rad_raw + err) + slack
    l = np.where(rad == 0.0, center, ref_down(center - rad))
    u = np.where(rad == 0.0, center, ref_up(center + rad))
    fl, fu = act.f(l), act.f(u)
    lam = np.maximum(ref_down(np.minimum(act.deriv(l), act.deriv(u)), _PAD_DERIV), 0.0)
    mu1 = 0.5 * ((fu + fl) - lam * (u + l))
    mu2 = np.maximum(0.5 * ((fu - fl) - lam * (u - l)), 0.0)
    head *= lam
    head[0] += mu1
    fresh = out[1 + g:]
    fresh[...] = 0.0
    for i in range(fresh.shape[0]):
        fresh[i, ..., i] = mu2[..., i]
    scale = np.abs(fl) + np.abs(fu) + np.abs(mu1) + np.abs(lam) * (np.abs(l) + np.abs(u)) + 1.0
    return lam * slack + 64.0 * _U * scale + 4.0 * _TINY


@pytest.mark.parametrize("activation", ["tanh", "sigmoid"])
def test_zono_activation_bits_match_the_plain_expressions(activation):
    # the in-place kernel, with its sums formed from halves, against the plain
    # forms on cells of the benchmark's scale, a zero generator and point cells
    rng = np.random.default_rng(7)
    for shape, g in [((8,), 3), ((50, 8), 2), ((4096, 2), 5), ((3, 4, 6), 1)]:
        rows = rng.uniform(-2.0, 2.0, (1 + g + shape[-1],) + shape)
        rows[1:1 + g] *= rng.random((g,) + shape) < 0.8
        rows[1:1 + g, ..., 0] = 0.0
        slack = np.abs(spread(rng, shape, 0.3, (-17, -12)))
        got, ref = rows.copy(), rows.copy()
        new = rb.domains._activation_rows(got, slack, activation)
        want = plain_activation_rows(ref, slack, activation)
        assert same_bits((got, new), (ref, want))


def test_zono_activation_unknown():
    z = zonotope(np.zeros(1), np.ones((1, 1)))
    with pytest.raises(ValueError):
        rb.zono_activation(z, "softmax")


def test_zono_activation_refuses_an_activation_without_a_transformer(monkeypatch):
    # the slope-and-offset transformer holds only for sigmoid-shaped activations
    relu = rb.intervals._Activation(
        lambda x: np.maximum(x, 0.0), lambda x: (x > 0).astype(float), 1.0, 0.0, np.inf
    )
    monkeypatch.setitem(rb.intervals._ACTIVATIONS, "relu", relu)
    z = zonotope(np.zeros(1), np.ones((1, 1)))
    with pytest.raises(ValueError, match="no zonotope transformer"):
        rb.zono_activation(z, "relu")


# ---------------------------------------------------------------------------
# single-cell entry points


def test_box_propagate_one_cell_is_a_one_row_batch(unit_square, invertible_net):
    # the kernels flatten leading axes, so (n,) bounds make the (1, n) calls
    lo, hi = box_propagate_arrays(invertible_net, unit_square.lo, unit_square.hi)
    for shape in ((1, 2), (1, 1, 2)):
        blo, bhi = box_propagate_arrays(
            invertible_net, unit_square.lo.reshape(shape), unit_square.hi.reshape(shape)
        )
        assert blo.shape == shape[:-1] + (2,)
        assert np.array_equal(blo.reshape(2), lo) and np.array_equal(bhi.reshape(2), hi)


def test_propagate_zono_identity_hull(unit_square):
    hull = rb.Box.from_arrays(*zono_propagate(identity_net(), unit_square.lo, unit_square.hi))
    assert np.all(np.abs(hull.lo - unit_square.lo) < 1e-12)
    assert np.all(np.abs(hull.hi - unit_square.hi) < 1e-12)
    assert hull.contains_box(unit_square)


def test_propagate_accepts_zono_alias():
    assert normalize_domain("zono") == "zono"
    assert normalize_domain("box") == "box"
    for tag in ("polytope", "zonotope"):
        with pytest.raises(ValueError):
            normalize_domain(tag)


@pytest.mark.parametrize("seed", [1, 3, 25])
def test_zonotope_dominates_box(seed):
    net = make_net(seed=seed)
    for cell in (
        rb.Box.from_bounds([(0, 1), (0, 1)]),
        rb.Box.from_bounds([(-0.3, 0.1), (0.2, 0.6)]),
    ):
        bh = rb.Box.from_arrays(*box_propagate_arrays(net, cell.lo, cell.hi))
        zh = rb.Box.from_arrays(*zono_propagate(net, cell.lo, cell.hi))
        assert np.all(zh.lo >= bh.lo - 1e-9) and np.all(zh.hi <= bh.hi + 1e-9)


@pytest.mark.parametrize("domain", ["box", "zonotope"])
@pytest.mark.parametrize("seed", [0, 25])
def test_propagation_soundness_by_sampling(domain, seed):
    net = make_net(seed=seed)
    for cell in (
        rb.Box.from_bounds([(0, 1), (0, 1)]),
        rb.Box.from_bounds([(-1, -0.5), (0.5, 1.5)]),
    ):
        propagate = box_propagate_arrays if domain == "box" else zono_propagate
        hull = rb.Box.from_arrays(*propagate(net, cell.lo, cell.hi))
        images = mc_images(net, cell, 100_000, seed=seed + 11)
        assert np.all(images >= hull.lo) and np.all(images <= hull.hi)


def test_box_pass_across_block_boundaries(monkeypatch):
    net = make_net(seed=6, dims=(3, 8, 5, 2))
    block = 100
    rows = 2 * block + 1
    rng = np.random.default_rng(6)
    lo = rng.uniform(-1, 1, (rows, 3))
    hi = lo + rng.uniform(0, 0.5, (rows, 3)) * (rng.random((rows, 3)) < 0.8)
    calls = []
    matvec = rb.domains._interval_matvec_arrays

    def recording_matvec(op, xlo, xhi):
        calls.append(np.shape(xlo))
        return matvec(op, xlo, xhi)

    monkeypatch.setattr(rb.domains, "_interval_matvec_arrays", recording_matvec)
    monkeypatch.setattr(rb.domains, "_BLOCK", rows)
    whole_lo, whole_hi = box_propagate_arrays(net, lo, hi)
    assert [r for r, _ in calls] == [rows] * len(net.layers)
    calls.clear()
    monkeypatch.setattr(rb.domains, "_BLOCK", block)
    # leading axes (a, b, n) are batch axes, flattened into rows across blocks
    out_lo, out_hi = box_propagate_arrays(net, lo.reshape(3, 67, 3), hi.reshape(3, 67, 3))
    # near-equal blocks of at most `_BLOCK` rows: three of 67, never a one-row block
    assert [r for r, _ in calls] == [rows // 3] * len(net.layers) * 3
    assert out_lo.shape == out_hi.shape == (3, 67, 2)
    assert np.array_equal(out_lo.reshape(rows, 2), whole_lo)
    assert np.array_equal(out_hi.reshape(rows, 2), whole_hi)
    calls.clear()
    empty_lo, empty_hi = box_propagate_arrays(net, np.empty((0, 3)), np.empty((0, 3)))
    assert empty_lo.shape == empty_hi.shape == (0, 2) and not calls


BIT_NETS = WORKLOAD_NETS + PLANNED_NETS


@pytest.mark.parametrize("dims, activation", BIT_NETS,
                         ids=["-".join(map(str, dims)) for dims, _ in BIT_NETS])
def test_box_pass_bits_do_not_depend_on_the_block_size(monkeypatch, dims, activation):
    # A cell's hull must not move with the blocks its batch is cut into, or
    # verdicts and hulls would depend on the batch around a cell.  BLAS does
    # not promise this for every layer shape; this pins it for these ones.
    net = rb.generate_network(3, dims, activation)
    rng = np.random.default_rng(len(dims))
    lo = rng.uniform(-1, 1, (301, dims[0]))
    hi = lo + rng.uniform(0, 0.5, lo.shape) * (rng.random(lo.shape) < 0.9)
    monkeypatch.setattr(rb.domains, "_BLOCK", 4096)
    whole = box_propagate_arrays(net, lo, hi)
    monkeypatch.setattr(rb.domains, "_BLOCK", 100)
    blocked = box_propagate_arrays(net, lo, hi)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(whole, blocked))


def test_batched_box_propagation_matches_single(invertible_net):
    cells_lo = np.array([[0.0, 0.0], [0.5, 0.25], [-1.0, 0.125]])
    cells_hi = cells_lo + 0.25
    lo, hi = box_propagate_arrays(invertible_net, cells_lo, cells_hi)
    for i in range(3):
        single_lo, single_hi = box_propagate_arrays(invertible_net, cells_lo[i], cells_hi[i])
        # batched BLAS reductions may reorder sums; agreement is only to rounding
        assert np.allclose(single_lo, lo[i], rtol=0, atol=1e-12)
        assert np.allclose(single_hi, hi[i], rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# batched zonotopes


def per_cell_zono_hulls(net, lo, hi):
    """The one-cell chain zono_from_box -> (zono_affine, zono_activation)* -> hull_arrays."""
    hulls = []
    for a, b in zip(lo, hi):
        z = rb.zono_from_box(rb.Box.from_arrays(a, b))
        for layer in net.layers:
            z = rb.zono_activation(rb.zono_affine(z, layer.weights, layer.bias), layer.activation)
        hulls.append(z.hull_arrays())
    return np.array([h[0] for h in hulls]), np.array([h[1] for h in hulls])


@given(deep_nets())
@example(case=(linear_hidden_net(), 3))
@settings(max_examples=30, deadline=None)
def test_batched_zonotopes_match_per_cell_chain(case):
    net, seed = case
    rng = np.random.default_rng(seed)
    n = net.input_dim
    box = rb.Box.from_bounds([(-1, 1)] * n)
    grid = grid_cell_batch(box, (2,) * n)
    faces = boundary_cell_batch(box, (2,) * n)
    pick_grid = rng.choice(grid.count, 8)
    pick_faces = rng.choice(faces.count, 12)
    # random cells, some with zero-width dimensions inside the box
    lo = rng.uniform(-1, 0.6, (8, n))
    hi = lo + rng.uniform(0, 0.4, (8, n)) * (rng.random((8, n)) < 0.7)
    lo = np.concatenate([grid.lo[pick_grid], faces.lo[pick_faces], lo])
    hi = np.concatenate([grid.hi[pick_grid], faces.hi[pick_faces], hi])
    order = rng.permutation(lo.shape[0])  # interleave the live-dimension groups
    lo, hi = lo[order], hi[order]
    out_lo, out_hi = zono_propagate(net, lo, hi)  # what `propagate_cells` runs for "zono"
    want_lo, want_hi = per_cell_zono_hulls(net, lo, hi)
    assert np.array_equal(out_lo, want_lo) and np.array_equal(out_hi, want_hi)
    t = rng.random((lo.shape[0], 20, n))
    pts = lo[:, None] + t * (hi - lo)[:, None]
    pts = np.minimum(pts, hi[:, None])
    images = rb.forward_batch(net, pts.reshape(-1, n)).reshape(lo.shape[0], 20, -1)
    assert np.all(images >= out_lo[:, None]) and np.all(images <= out_hi[:, None])


def test_batched_zonotopes_across_a_block_boundary(invertible_net, unit_square, monkeypatch):
    monkeypatch.setattr(rb.domains, "_BLOCK", 100)
    batch = grid_cell_batch(unit_square, (33, 33))
    assert batch.count > rb.domains._BLOCK
    propagate_cells(invertible_net, batch, "zono")
    want_lo, want_hi = per_cell_zono_hulls(invertible_net, batch.lo, batch.hi)
    assert np.array_equal(batch.out_lo, want_lo) and np.array_equal(batch.out_hi, want_hi)
    # leading axes are batch axes
    lo, hi = zono_propagate(
        invertible_net, batch.lo.reshape(33, 33, 2), batch.hi.reshape(33, 33, 2)
    )
    assert np.array_equal(lo.reshape(-1, 2), want_lo) and np.array_equal(hi.reshape(-1, 2), want_hi)


def test_zono_propagate_runs_one_pass_per_layer_over_mixed_cells(monkeypatch):
    # faces of every side of a 3-d box, points and grid cells in one block
    net = make_net(seed=4, dims=(3, 6, 3))
    box = rb.Box.from_bounds([(-1, 1), (-0.5, 0.5), (0, 2)])
    faces = boundary_cell_batch(box, (3, 3, 3))
    grid = grid_cell_batch(box, (3, 3, 3))
    points = np.random.default_rng(4).uniform(-0.5, 0.5, (5, 3))
    lo = np.concatenate([faces.lo, grid.lo, points])
    hi = np.concatenate([faces.hi, grid.hi, points])
    assert lo.shape[0] <= rb.domains._BLOCK
    assert len(np.unique(hi > lo, axis=0)) == 5  # 3 face patterns, points, grid cells
    calls = []
    affine = rb.domains._affine_rows
    monkeypatch.setattr(rb.domains, "_affine_rows", lambda *a: calls.append(1) or affine(*a))
    out_lo, out_hi = zono_propagate(net, lo, hi)
    assert len(calls) == len(net.layers)
    want_lo, want_hi = per_cell_zono_hulls(net, lo, hi)
    assert np.array_equal(out_lo, want_lo) and np.array_equal(out_hi, want_hi)


@pytest.mark.parametrize("dims, activation", BIT_NETS,
                         ids=["-".join(map(str, dims)) for dims, _ in BIT_NETS])
def test_zonotope_bits_do_not_depend_on_the_block_size(monkeypatch, dims, activation):
    # Each zonotope product is one matrix-matrix call over the block's rows,
    # so as with the box pass a cell's bits hold only where BLAS gives a row
    # the same bits at every row count; this pins it for these shapes, in
    # blocks and in the one-cell chain alike.
    net = rb.generate_network(3, dims, activation)
    rng = np.random.default_rng(len(dims))
    lo = rng.uniform(-1, 1, (301, dims[0]))
    hi = lo + rng.uniform(0, 0.5, lo.shape) * (rng.random(lo.shape) < 0.9)
    monkeypatch.setattr(rb.domains, "_BLOCK", 4096)
    whole = zono_propagate(net, lo, hi)
    monkeypatch.setattr(rb.domains, "_BLOCK", 100)
    blocked = zono_propagate(net, lo, hi)
    single = per_cell_zono_hulls(net, lo, hi)
    assert all(a.tobytes() == b.tobytes() == c.tobytes()
               for a, b, c in zip(whole, blocked, single))


def test_benchmark_width_pass_runs_the_one_cell_chain(monkeypatch):
    # A traced benchmark run measures per-layer zonotope widths with the
    # one-cell calls and checks their last layer against each verdict's
    # cells; no other test runs that pass on a zonotope workload.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    run, workloads = (importlib.import_module(name) for name in ("run", "workloads"))
    wl = workloads.planar(0, "zono", (4,), nets=workloads.planar_nets(0)[:2])
    wl.name = "selftest-zono"
    result, report = run.run(rb, wl, seconds=0, trace=1, min_calls=8, probes=1)
    assert result["correct"]
    assert not [line for line in report
                if "width pass differs" in line or "trace hook missing" in line]
    assert result["metrics"]["domains.zono.L0.width_mean"]["value"] > 0


@pytest.mark.parametrize(
    "call",
    [
        lambda net: zono_propagate(net, np.zeros((4, 3)), np.ones((4, 3))),
    ],
    ids=["zono_propagate-cell-dim"],
)
def test_domain_input_checks(call, invertible_net):
    with pytest.raises(ValueError):
        call(invertible_net)


def test_a_non_finite_value_never_hides_in_a_zonotope_hull():
    # A NaN or infinity in the center, a generator or the slack must reach
    # both hull ends of its dimension, so Box refuses it where verify builds
    # the hull.  Dimension 1 stays finite.
    center = np.array([0.5, -0.25])
    gens = np.array([[0.25, 0.5], [-0.125, 0.0]])  # generator-major (g, d)
    cases = [("center", v) for v in (np.nan, np.inf, -np.inf)]
    cases += [("generators", v) for v in (np.nan, np.inf, -np.inf)]
    cases += [("slack", v) for v in (np.nan, np.inf)]
    for part, value in cases:
        data = {"center": center.copy(), "generators": gens.copy(), "slack": np.zeros(2)}
        np.put(data[part], 0, value)  # entry 0: dimension 0 of the center, generator 0, slack
        with np.errstate(all="ignore"):
            lo, hi = zonotope(**data).hull_arrays()
        assert not np.isfinite(lo[0]) and not np.isfinite(hi[0]), (part, value)
        assert np.isfinite(lo[1]) and np.isfinite(hi[1]), (part, value)


@pytest.mark.parametrize("k, m", [(2, 1), (2, 8), (8, 2), (16, 6)], ids=lambda v: str(v))
def test_affine_rows_bias_bits_match_the_broadcast(monkeypatch, k, m):
    """`_affine_rows` with `_add_bias` and with the plain broadcast, on the same products."""
    rng = np.random.default_rng(20 * k + m)
    w = rng.uniform(-2.0, 2.0, (m, k))
    ops = [_operands(w, rng.uniform(-1.0, 1.0, m)), _operands(w, 0.0)]
    # (k,) is one zonotope, as `zono_affine` sends it
    for shape in [(k,)] + [(rows, k) for rows in bias_rows(m)]:
        lo = rng.uniform(-3.0, 3.0, shape)
        hi = lo + rng.uniform(0.0, 1.0, shape)
        box_rows, slack = rb.domains._box_rows(lo, hi)
        for op in ops:
            got = rb.domains._affine_rows(box_rows.copy(), slack, op, m)
            with monkeypatch.context() as patch:
                patch.setattr(rb.domains, "_add_bias", plain_add_bias)
                ref = rb.domains._affine_rows(box_rows.copy(), slack, op, m)
            assert got[0].shape == (1 + k + m,) + lo.shape[:-1] + (m,)
            # the fresh rows are left unwritten, for the activation transformer
            assert got[0][:1 + k].tobytes() == ref[0][:1 + k].tobytes()
            assert got[1].tobytes() == ref[1].tobytes()
