import math
from fractions import Fraction
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reachbound as rb
from reachbound.intervals import Box, Interval, IntervalMatrix

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


finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@st.composite
def intervals(draw, bound=finite):
    a, b = draw(bound), draw(bound)
    return Interval(min(a, b), max(a, b))


# ---------------------------------------------------------------------------
# scalar arithmetic


def test_add_endpoints():
    r = Interval(1, 2).add(Interval(3, 4))
    assert r.lo <= 4.0 <= 6.0 <= r.hi
    assert tight(r.lo, 4.0) and tight(r.hi, 6.0)


def test_mul_corner_products():
    r = Interval(-1, 2).mul(Interval(3, 4))
    assert r.lo <= -4.0 and r.hi >= 8.0
    assert tight(r.lo, -4.0) and tight(r.hi, 8.0)


def test_mul_annihilation():
    r = Interval(0, 0).mul(Interval(-5, 7))
    assert r.contains(0.0)
    assert r.width < 1e-320


def test_combine_dispatch():
    a, b = Interval(1, 2), Interval(0, 1)
    assert a.neg() == -a == Interval(-2, -1)
    assert a.sub(b) == a - b and a.sub(b).contains(1.0)
    scaled = a.scale(-3.0)
    assert scaled.lo <= -6.0 and scaled.hi >= -3.0
    with pytest.raises(ValueError):
        a.scale(math.inf)


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
    assert a.mul(b).contains(x * y)


@given(intervals(), intervals(), st.floats(0, 1), st.floats(0, 1))
def test_add_sub_contain_samples(a, b, ta, tb):
    x, y = pick(a, ta), pick(b, tb)
    assert a.add(b).contains(x + y)
    assert a.sub(b).contains(x - y)


# ---------------------------------------------------------------------------
# matrices


def test_matmul_identity():
    m = IntervalMatrix(np.array([[1.0, -2.0], [0.5, 3.0]]), np.array([[1.5, -1.0], [0.5, 4.0]]))
    r = IntervalMatrix.identity(2).matmul(m)
    assert np.all(r.lo <= m.lo) and np.all(r.hi >= m.hi)
    assert np.all(np.abs(r.lo - m.lo) < 1e-12) and np.all(np.abs(r.hi - m.hi) < 1e-12)


def test_matmul_scalar_case():
    a = IntervalMatrix(np.array([[0.0]]), np.array([[1.0]]))
    b = IntervalMatrix.from_point(np.array([[2.0]]))
    r = a.matmul(b)
    assert r.entry(0, 0).lo <= 0.0 and r.entry(0, 0).hi >= 2.0
    assert abs(r.entry(0, 0).lo) < 1e-12 and abs(r.entry(0, 0).hi - 2.0) < 1e-12


def test_matmul_dimension_mismatch():
    with pytest.raises(ValueError):
        IntervalMatrix.identity(2).matmul(IntervalMatrix.identity(3))


def test_matmul_point_matrices_vs_exact():
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = rng.uniform(-2, 2, (3, 3))
        b = rng.uniform(-2, 2, (3, 3))
        r = IntervalMatrix.from_point(a).matmul(IntervalMatrix.from_point(b))
        exact = [
            [sum(Fraction(a[i, k]) * Fraction(b[k, j]) for k in range(3)) for j in range(3)]
            for i in range(3)
        ]
        for i in range(3):
            for j in range(3):
                e = exact[i][j]
                iv = r.entry(i, j)
                assert Fraction(iv.lo) <= e <= Fraction(iv.hi)
                assert iv.width < 1e-12


def test_det_identity_point():
    d = IntervalMatrix.identity(2).det()
    assert d.contains(1.0) and d.width < 1e-13


def test_det_triangular():
    m = IntervalMatrix(np.array([[0.0, 0.0], [0.0, 1.0]]), np.array([[2.0, 0.0], [0.0, 1.0]]))
    d = m.det()
    assert d.lo <= 0.0 <= 2.0 <= d.hi
    assert d.lo > -1e-300 and d.hi - 2.0 < 1e-12


def test_det_rejects_bad_shapes():
    with pytest.raises(ValueError):
        IntervalMatrix.from_point(np.ones((2, 3))).det()
    with pytest.raises(ValueError):
        IntervalMatrix.identity(7).det()


def test_det_contains_vertex_hull():
    rng = np.random.default_rng(11)
    for _ in range(5):
        lo = rng.uniform(-1, 1, (3, 3))
        hi = lo + rng.uniform(0, 0.5, (3, 3))
        d = IntervalMatrix(lo, hi).det()
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
            d = IntervalMatrix.from_point(a).det()
            e = exact_det(a.tolist())
            assert Fraction(d.lo) <= e <= Fraction(d.hi)
            assert d.width <= 1e-12 * max(1.0, abs(float(e)))


@given(intervals(st.floats(-3, 3)), intervals(st.floats(-3, 3)))
def test_det_inclusion_monotone_in_entries(a, wide):
    # shrink one entry: the determinant interval can only shrink
    inner = Interval(max(a.lo, wide.lo), min(a.hi, wide.hi)) if a.intersects(wide) else a
    base = np.array([[0.5, -0.25], [1.5, 2.0]])
    m_wide = IntervalMatrix(
        np.array([[wide.lo if a.intersects(wide) else a.lo, base[0, 1]], base[1]]),
        np.array([[wide.hi if a.intersects(wide) else a.hi, base[0, 1]], base[1]]),
    )
    m_inner = IntervalMatrix(
        np.array([[inner.lo, base[0, 1]], base[1]]),
        np.array([[inner.hi, base[0, 1]], base[1]]),
    )
    dw, di = m_wide.det(), m_inner.det()
    assert dw.lo <= di.lo + 1e-12 and di.hi <= dw.hi + 1e-12


# ---------------------------------------------------------------------------
# activation enclosures


def test_act_range_tanh_origin():
    r = rb.act_range("tanh", Interval(0, 0))
    assert r.contains(0.0) and r.width < 1e-320


def test_act_range_sigmoid_origin():
    r = rb.act_range("sigmoid", Interval(0, 0))
    assert r.contains(0.5) and r.width < 1e-14


def test_act_range_tanh_unit():
    # endpoints are exact under monotonicity: tanh(1) = 0.76159415595576488...
    r = rb.act_range("tanh", Interval(-1, 1))
    assert r.lo <= -0.7615941559557649 and r.hi >= 0.7615941559557649
    assert abs(r.hi - 0.7615941559557649) < 1e-14
    assert abs(r.lo + 0.7615941559557649) < 1e-14


def test_act_range_stays_in_codomain():
    r = rb.act_range("tanh", Interval(-50, 60))
    assert r.lo >= -1.0 and r.hi <= 1.0
    s = rb.act_range("sigmoid", Interval(-800, 900))
    assert s.lo >= 0.0 and s.hi <= 1.0


def test_act_deriv_tanh_origin():
    r = rb.act_deriv_range("tanh", Interval(0, 0))
    assert r.hi == 1.0 and r.contains(1.0) and r.width < 1e-14


def test_act_deriv_sigmoid_origin():
    r = rb.act_deriv_range("sigmoid", Interval(0, 0))
    assert r.hi == 0.25 and r.contains(0.25) and r.width < 1e-14


def test_act_deriv_tanh_unit():
    # min at the endpoints: tanh'(1) = 0.41997434161402606...
    r = rb.act_deriv_range("tanh", Interval(-1, 1))
    assert r.hi == 1.0
    assert r.lo <= 0.4199743416140261 and abs(r.lo - 0.4199743416140261) < 1e-13


def test_act_unknown_tag():
    with pytest.raises(ValueError):
        rb.act_range("relu", Interval(0, 1))
    with pytest.raises(ValueError):
        rb.act_deriv_range("relu", Interval(0, 1))


def test_act_linear_passthrough():
    assert rb.act_range("linear", Interval(-2, 3)) == Interval(-2, 3)
    assert rb.act_deriv_range("linear", Interval(-2, 3)) == Interval(1, 1)


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
    r = rb.act_range(name, iv)
    rd = rb.act_deriv_range(name, iv)
    vals = f(ts)
    ders = d(ts)
    assert np.all((r.lo <= vals) & (vals <= r.hi))
    assert np.all((rd.lo <= ders) & (ders <= rd.hi))


@pytest.mark.parametrize("name", ["tanh", "sigmoid"])
@given(outer=intervals(st.floats(-20, 20)), t0=st.floats(0, 1), t1=st.floats(0, 1))
def test_act_inclusion_monotone(name, outer, t0, t1):
    a = pick(outer, t0)
    b = pick(outer, t1)
    inner = Interval(min(a, b), max(a, b))
    assert rb.act_range(name, outer).encloses(rb.act_range(name, inner))
    assert rb.act_deriv_range(name, outer).encloses(rb.act_deriv_range(name, inner))


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


def test_box_split_widest():
    left, right = Box.from_bounds([(0, 4), (0, 1)]).split()
    assert left.dims[0].hi == right.dims[0].lo == 2.0
    assert left.dims[1] == right.dims[1] == Interval(0, 1)


def test_box_dimension_mismatch():
    with pytest.raises(ValueError):
        Box.from_bounds([(0, 1)]).hull(Box.from_bounds([(0, 1), (0, 1)]))
