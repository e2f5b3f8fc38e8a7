import math
from fractions import Fraction
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import reachbound as rb
from reachbound.intervals import (
    Box,
    Interval,
    _act_deriv_arrays,
    _act_range_arrays,
    _down,
    _idet_arrays,
    _imul_arrays,
    _point_imatmul_arrays,
    _sum_enclose,
    _up,
)

def tight(value: float, target: float, ulps: int = 4) -> bool:
    """Within a few float steps of the ideal endpoint."""
    return abs(value - target) <= ulps * math.ulp(max(abs(target), 1.0))


def exact_det(rows) -> Fraction:
    """Leibniz determinant over exact rationals."""
    n = len(rows)
    total = Fraction(0)
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = Fraction(1)
        for i in range(n):
            term *= Fraction(rows[i][perm[i]])
        total += sign * term
    return total


def ends(iv: Interval):
    """The 0-d endpoint arrays the kernels take for one interval."""
    return np.array(iv.lo, dtype=float), np.array(iv.hi, dtype=float)


def as_interval(pair) -> Interval:
    lo, hi = pair
    return Interval(float(lo), float(hi))


finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@st.composite
def intervals(draw, bound=finite):
    a, b = draw(bound), draw(bound)
    return Interval(min(a, b), max(a, b))


# ---------------------------------------------------------------------------
# elementwise kernels


def test_mul_corner_products():
    r = as_interval(_imul_arrays(*ends(Interval(-1, 2)), *ends(Interval(3, 4))))
    assert r.lo <= -4.0 and r.hi >= 8.0
    assert tight(r.lo, -4.0) and tight(r.hi, 8.0)


def test_mul_annihilation():
    r = as_interval(_imul_arrays(*ends(Interval(0, 0)), *ends(Interval(-5, 7))))
    assert r.contains(0.0)
    assert r.width < 1e-320


def test_invalid_endpoints_rejected():
    with pytest.raises(ValueError):
        Interval(2, 1)
    with pytest.raises(ValueError):
        Interval(0, math.inf)
    with pytest.raises(ValueError):
        Interval(math.nan, 0)


def pick(iv, t):
    # clamp: the affine form can round just past an endpoint
    return min(max(iv.lo + t * (iv.hi - iv.lo), iv.lo), iv.hi)


@given(intervals(), intervals(), st.floats(0, 1), st.floats(0, 1))
def test_mul_contains_samples(a, b, ta, tb):
    x, y = pick(a, ta), pick(b, tb)
    assert as_interval(_imul_arrays(*ends(a), *ends(b))).contains(x * y)


@given(intervals(), intervals(), st.floats(0, 1), st.floats(0, 1))
def test_add_sub_contain_samples(a, b, ta, tb):
    # the kernels subtract by adding the exactly negated interval
    x, y = pick(a, ta), pick(b, tb)
    total = as_interval(_sum_enclose(np.array([a.lo, b.lo]), np.array([a.hi, b.hi]), axis=0))
    diff = as_interval(_sum_enclose(np.array([a.lo, -b.hi]), np.array([a.hi, -b.lo]), axis=0))
    assert total.contains(x + y)
    assert diff.contains(x - y)


# ---------------------------------------------------------------------------
# matrices


def test_matmul_identity():
    mlo, mhi = np.array([[1.0, -2.0], [0.5, 3.0]]), np.array([[1.5, -1.0], [0.5, 4.0]])
    rlo, rhi = _point_imatmul_arrays(np.eye(2), mlo, mhi)
    assert np.all(rlo <= mlo) and np.all(rhi >= mhi)
    assert np.all(np.abs(rlo - mlo) < 1e-12) and np.all(np.abs(rhi - mhi) < 1e-12)


def test_matmul_scalar_case():
    rlo, rhi = _point_imatmul_arrays(np.array([[2.0]]), np.array([[0.0]]), np.array([[1.0]]))
    assert rlo[0, 0] <= 0.0 and rhi[0, 0] >= 2.0
    assert abs(rlo[0, 0]) < 1e-12 and abs(rhi[0, 0] - 2.0) < 1e-12


def test_matmul_point_matrices_vs_exact():
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = rng.uniform(-2, 2, (3, 3))
        b = rng.uniform(-2, 2, (3, 3))
        rlo, rhi = _point_imatmul_arrays(a, b, b)
        exact = [
            [sum(Fraction(a[i, k]) * Fraction(b[k, j]) for k in range(3)) for j in range(3)]
            for i in range(3)
        ]
        for i in range(3):
            for j in range(3):
                e = exact[i][j]
                iv = Interval(float(rlo[i, j]), float(rhi[i, j]))
                assert Fraction(iv.lo) <= e <= Fraction(iv.hi)
                assert iv.width < 1e-12


def test_det_identity_point():
    d = as_interval(_idet_arrays(np.eye(2), np.eye(2)))
    assert d.contains(1.0) and d.width < 1e-13


def test_det_triangular():
    d = as_interval(
        _idet_arrays(np.array([[0.0, 0.0], [0.0, 1.0]]), np.array([[2.0, 0.0], [0.0, 1.0]]))
    )
    assert d.lo <= 0.0 <= 2.0 <= d.hi
    assert d.lo > -1e-300 and d.hi - 2.0 < 1e-12


def test_det_contains_vertex_hull():
    rng = np.random.default_rng(11)
    for _ in range(5):
        lo = rng.uniform(-1, 1, (3, 3))
        hi = lo + rng.uniform(0, 0.5, (3, 3))
        d = as_interval(_idet_arrays(lo, hi))
        dets = []
        for choice in product((0, 1), repeat=9):
            m = [
                [(hi if choice[3 * i + j] else lo)[i, j] for j in range(3)]
                for i in range(3)
            ]
            dets.append(exact_det(m))
        assert Fraction(d.lo) <= min(dets) and max(dets) <= Fraction(d.hi)


def test_det_point_matrices_exact_to_tolerance():
    # relative agreement with the exact determinant for n <= 4
    rng = np.random.default_rng(5)
    for n in (2, 3, 4):
        for _ in range(10):
            a = rng.uniform(-1, 1, (n, n)) + np.eye(n)  # keep well away from singular
            d = as_interval(_idet_arrays(a, a))
            e = exact_det(a.tolist())
            assert Fraction(d.lo) <= e <= Fraction(d.hi)
            assert d.width <= 1e-12 * max(1.0, abs(float(e)))


@given(intervals(st.floats(-3, 3)), intervals(st.floats(-3, 3)))
def test_det_inclusion_monotone_in_entries(a, wide):
    # shrink one entry: the determinant interval can only shrink
    inner = Interval(max(a.lo, wide.lo), min(a.hi, wide.hi)) if a.intersects(wide) else a
    base = np.array([[0.5, -0.25], [1.5, 2.0]])
    dw = as_interval(_idet_arrays(
        np.array([[wide.lo if a.intersects(wide) else a.lo, base[0, 1]], base[1]]),
        np.array([[wide.hi if a.intersects(wide) else a.hi, base[0, 1]], base[1]]),
    ))
    di = as_interval(_idet_arrays(
        np.array([[inner.lo, base[0, 1]], base[1]]),
        np.array([[inner.hi, base[0, 1]], base[1]]),
    ))
    assert dw.lo <= di.lo + 1e-12 and di.hi <= dw.hi + 1e-12


# ---------------------------------------------------------------------------
# activation enclosures


def test_act_range_tanh_origin():
    r = as_interval(_act_range_arrays("tanh", *ends(Interval(0, 0))))
    assert r.contains(0.0) and r.width < 1e-320


def test_act_range_sigmoid_origin():
    r = as_interval(_act_range_arrays("sigmoid", *ends(Interval(0, 0))))
    assert r.contains(0.5) and r.width < 1e-14


def test_act_range_tanh_unit():
    # endpoints are exact under monotonicity: tanh(1) = 0.76159415595576488...
    r = as_interval(_act_range_arrays("tanh", *ends(Interval(-1, 1))))
    assert r.lo <= -0.7615941559557649 and r.hi >= 0.7615941559557649
    assert abs(r.hi - 0.7615941559557649) < 1e-14
    assert abs(r.lo + 0.7615941559557649) < 1e-14


def test_act_range_stays_in_codomain():
    r = as_interval(_act_range_arrays("tanh", *ends(Interval(-50, 60))))
    assert r.lo >= -1.0 and r.hi <= 1.0
    s = as_interval(_act_range_arrays("sigmoid", *ends(Interval(-800, 900))))
    assert s.lo >= 0.0 and s.hi <= 1.0


def test_act_deriv_tanh_origin():
    r = as_interval(_act_deriv_arrays("tanh", *ends(Interval(0, 0))))
    assert r.hi == 1.0 and r.contains(1.0) and r.width < 1e-14


def test_act_deriv_sigmoid_origin():
    r = as_interval(_act_deriv_arrays("sigmoid", *ends(Interval(0, 0))))
    assert r.hi == 0.25 and r.contains(0.25) and r.width < 1e-14


def test_act_deriv_tanh_unit():
    # min at the endpoints: tanh'(1) = 0.41997434161402606...
    r = as_interval(_act_deriv_arrays("tanh", *ends(Interval(-1, 1))))
    assert r.hi == 1.0
    assert r.lo <= 0.4199743416140261 and abs(r.lo - 0.4199743416140261) < 1e-13


def test_act_unknown_tag():
    with pytest.raises(ValueError):
        _act_range_arrays("relu", *ends(Interval(0, 1)))
    with pytest.raises(ValueError):
        _act_deriv_arrays("relu", *ends(Interval(0, 1)))


def test_act_linear_passthrough():
    assert as_interval(_act_range_arrays("linear", *ends(Interval(-2, 3)))) == Interval(-2, 3)
    assert as_interval(_act_deriv_arrays("linear", *ends(Interval(-2, 3)))) == Interval(1, 1)


@pytest.mark.parametrize("name", ["tanh", "sigmoid"])
@pytest.mark.parametrize(
    "iv",
    [Interval(-1, 1), Interval(0.3, 2.5), Interval(-4.0, -0.2), Interval(-0.01, 30.0)],
)
def test_act_soundness_by_sampling(name, iv):
    rng = np.random.default_rng(77)
    ts = iv.lo + rng.random(10_000) * (iv.hi - iv.lo)
    f = rb.intervals.activation_function(name)
    d = rb.intervals.activation_derivative(name)
    r = as_interval(_act_range_arrays(name, *ends(iv)))
    rd = as_interval(_act_deriv_arrays(name, *ends(iv)))
    vals = f(ts)
    ders = d(ts)
    assert np.all((r.lo <= vals) & (vals <= r.hi))
    assert np.all((rd.lo <= ders) & (ders <= rd.hi))


@pytest.mark.parametrize("name", ["tanh", "sigmoid"])
@given(outer=intervals(st.floats(-20, 20)), t0=st.floats(0, 1), t1=st.floats(0, 1))
# s(x) * s(-x) rounded is not monotone near 0: the inner sigmoid' enclosure fell below the outer
@example(outer=Interval(-5.051993014029483e-11, 0.0), t0=0.0, t1=0.31640625)
def test_act_inclusion_monotone(name, outer, t0, t1):
    a = pick(outer, t0)
    b = pick(outer, t1)
    inner = Interval(min(a, b), max(a, b))
    for kernel in (_act_range_arrays, _act_deriv_arrays):
        outer_r = as_interval(kernel(name, *ends(outer)))
        assert outer_r.encloses(as_interval(kernel(name, *ends(inner))))


edge_floats = st.one_of(st.floats(-60, 60), st.sampled_from([0.0, -0.0, 20.5, -20.5, 700.0]))


@pytest.mark.parametrize("name", ["tanh", "sigmoid"])
@given(a=edge_floats, b=edge_floats)
@example(a=-0.0, b=0.0)
@example(a=-25.0, b=0.5)
@example(a=21.0, b=40.0)
def test_act_deriv_lower_end_is_min_of_endpoint_lower_ends(name, a, b):
    # zono_activation takes its slope from one (l, u) call instead of (l, l) and (u, u)
    l, u = np.array(min(a, b)), np.array(max(a, b))
    lam, _ = _act_deriv_arrays(name, l, u)
    dl, _ = _act_deriv_arrays(name, l, l)
    du, _ = _act_deriv_arrays(name, u, u)
    assert lam.tobytes() == np.minimum(dl, du).tobytes()


# ---------------------------------------------------------------------------
# boxes


def test_box_contains():
    outer = Box.from_bounds([(0, 1), (0, 1)])
    assert outer.contains_box(Box.from_bounds([(0.2, 0.3), (0.2, 0.3)]))
    assert not outer.contains_box(Box.from_bounds([(0.2, 1.2), (0.2, 0.3)]))


def test_box_hull():
    h = Box.from_bounds([(0, 1), (0, 0)]).hull(Box.from_bounds([(2, 3), (1, 1)]))
    assert h == Box.from_bounds([(0, 3), (0, 1)])


def test_box_intersects_shared_corner():
    a = Box.from_bounds([(0, 1), (0, 1)])
    b = Box.from_bounds([(1, 2), (1, 2)])
    assert a.intersects(b)
    assert not a.intersects(Box.from_bounds([(1.1, 2), (1, 2)]))


def test_box_dimension_mismatch():
    with pytest.raises(ValueError):
        Box.from_bounds([(0, 1)]).hull(Box.from_bounds([(0, 1), (0, 1)]))


def recursive_idet(lo, hi):
    """The plain recursive cofactor expansion, as the reference for minor sharing."""
    n = lo.shape[-1]
    if n == 1:
        return lo[..., 0, 0], hi[..., 0, 0]
    acc_lo = None
    acc_hi = None
    for j in range(n):
        mlo = np.delete(lo[..., 1:, :], j, axis=-1)
        mhi = np.delete(hi[..., 1:, :], j, axis=-1)
        dlo, dhi = recursive_idet(mlo, mhi)
        plo, phi = _imul_arrays(lo[..., 0, j], hi[..., 0, j], dlo, dhi)
        if j % 2 == 1:
            plo, phi = -phi, -plo
        if acc_lo is None:
            acc_lo, acc_hi = plo, phi
        else:
            acc_lo = _down(acc_lo + plo)
            acc_hi = _up(acc_hi + phi)
    return acc_lo, acc_hi


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_det_shared_minors_bit_identical_to_recursion(n):
    rng = np.random.default_rng(40 + n)
    lo = rng.uniform(-2, 2, (50, n, n))
    hi = lo + rng.uniform(0, 1, (50, n, n)) * (rng.random((50, n, n)) < 0.7)
    assert np.any((lo < 0) & (hi > 0))  # sign-straddling entries
    got_lo, got_hi = _idet_arrays(lo, hi)
    ref_lo, ref_hi = recursive_idet(lo, hi)
    assert np.array_equal(got_lo, ref_lo) and np.array_equal(got_hi, ref_hi)
