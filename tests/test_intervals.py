import math
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import reachbound as rb
from reachbound.domains import box_propagate_arrays
from reachbound.intervals import (
    Box,
    _act_deriv_arrays,
    _act_range_arrays,
    _act_slope_arrays,
    _add_bias,
    _down,
    _idet_arrays,
    _imul_arrays,
    _interval_matvec_arrays,
    _lookup,
    _nonneg_imul_arrays,
    _operands,
    _PAD_ACT,
    _PAD_DERIV,
    _sigmoid,
    _sigmoid_deriv,
    _tanh_deriv,
    _TILE,
    _TINY,
    _U,
    _up,
)

from conftest import WORKLOAD_NETS, bias_rows, plain_add_bias


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


def ends(lo, hi):
    """The 0-d endpoint arrays the kernels take for one interval [lo, hi]."""
    return np.array(lo, dtype=float), np.array(hi, dtype=float)


def as_pair(pair) -> tuple[float, float]:
    lo, hi = pair
    return float(lo), float(hi)


finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@st.composite
def intervals(draw, bound=finite):
    a, b = draw(bound), draw(bound)
    return min(a, b), max(a, b)


# ---------------------------------------------------------------------------
# elementwise kernels


def test_mul_corner_products():
    lo, hi = as_pair(_imul_arrays(*ends(-1, 2), *ends(3, 4)))
    assert lo <= -4.0 and hi >= 8.0
    assert tight(lo, -4.0) and tight(hi, 8.0)


def test_mul_annihilation():
    lo, hi = as_pair(_imul_arrays(*ends(0, 0), *ends(-5, 7)))
    assert lo <= 0.0 <= hi
    assert hi - lo < 1e-320


def test_invalid_endpoints_rejected():
    with pytest.raises(ValueError):
        Box.from_bounds([(2, 1)])
    with pytest.raises(ValueError):
        Box.from_bounds([(0, math.inf)])
    with pytest.raises(ValueError):
        Box.from_bounds([(math.nan, 0)])


def pick(iv, t):
    # clamp: the affine form can round just past an endpoint
    lo, hi = iv
    return min(max(lo + t * (hi - lo), lo), hi)


@given(intervals(), intervals(), st.floats(0, 1), st.floats(0, 1))
def test_mul_contains_samples(a, b, ta, tb):
    x, y = pick(a, ta), pick(b, tb)
    lo, hi = as_pair(_imul_arrays(*ends(*a), *ends(*b)))
    assert lo <= x * y <= hi


# ---------------------------------------------------------------------------
# matrices


def matvec(w, b, xlo, xhi, bias=True):
    """`_interval_matvec_arrays` on a raw ``(w, b)``, through the operands a `Layer` prepares."""
    return _interval_matvec_arrays(_operands(w, b), xlo, xhi, bias)


def test_matmul_identity():
    mlo, mhi = np.array([[1.0, -2.0], [0.5, 3.0]]), np.array([[1.5, -1.0], [0.5, 4.0]])
    rlo, rhi = matvec(np.eye(2), 0.0, mlo, mhi)
    assert np.all(rlo <= mlo) and np.all(rhi >= mhi)
    assert np.all(np.abs(rlo - mlo) < 1e-12) and np.all(np.abs(rhi - mhi) < 1e-12)


def test_matmul_scalar_case():
    rlo, rhi = matvec(np.array([[2.0]]), 0.0, np.array([[0.0]]), np.array([[1.0]]))
    assert rlo[0, 0] <= 0.0 and rhi[0, 0] >= 2.0
    assert abs(rlo[0, 0]) < 1e-12 and abs(rhi[0, 0] - 2.0) < 1e-12


def test_matmul_point_matrices_vs_exact():
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = rng.uniform(-2, 2, (3, 3))
        b = rng.uniform(-2, 2, (3, 3))
        # the rows of b.T are the columns of b, so the result is (a @ b).T
        rlo, rhi = matvec(a, 0.0, b.T, b.T)
        rlo, rhi = rlo.T, rhi.T
        exact = [
            [sum(Fraction(a[i, k]) * Fraction(b[k, j]) for k in range(3)) for j in range(3)]
            for i in range(3)
        ]
        for i in range(3):
            for j in range(3):
                lo, hi = float(rlo[i, j]), float(rhi[i, j])
                assert Fraction(lo) <= exact[i][j] <= Fraction(hi)
                assert hi - lo < 1e-12


def exact_matvec(w, b, xlo, xhi):
    """Endpoints of w @ x + b over the box [xlo, xhi], by the sign split in rationals."""
    lo, hi = [], []
    for i, row in enumerate(w.tolist()):
        terms = [(Fraction(c) * Fraction(a), Fraction(c) * Fraction(z))
                 for c, a, z in zip(row, xlo.tolist(), xhi.tolist())]
        lo.append(sum(min(t) for t in terms) + Fraction(b[i]))
        hi.append(sum(max(t) for t in terms) + Fraction(b[i]))
    return lo, hi


@pytest.mark.parametrize("k", [1, 3, 7])
def test_matvec_encloses_exact_sign_split(k):
    rng = np.random.default_rng(k)
    w = rng.uniform(-3, 3, (4, k))
    w[0, 0] = 0.0
    b = rng.uniform(-2, 2, 4)
    # a (2, 3) batch of interval vectors: straddling 0, one-signed and points
    xlo = rng.uniform(-2, 1, (2, 3, k))
    xhi = xlo + rng.uniform(0, 2, (2, 3, k))
    xhi[0, 1] = xlo[0, 1]
    xlo[1, 2, 0], xhi[1, 2, 0] = -1e-3, 1e-3
    rlo, rhi = matvec(w, b, xlo, xhi)
    assert rlo.shape == rhi.shape == (2, 3, 4)
    # no looser than twice the a-priori rounding term
    slack = 2 * (2 * k + 6) * 2.0**-53 * (np.maximum(np.abs(xlo), np.abs(xhi)) @ np.abs(w).T + np.abs(b))
    for idx in np.ndindex(2, 3):
        lo, hi = exact_matvec(w, b, xlo[idx], xhi[idx])
        for i in range(4):
            assert Fraction(float(rlo[idx][i])) <= lo[i] <= hi[i] <= Fraction(float(rhi[idx][i]))
            assert lo[i] - Fraction(float(rlo[idx][i])) <= slack[idx][i]
            assert Fraction(float(rhi[idx][i])) - hi[i] <= slack[idx][i]


def matvec_worst_cases(k):
    """``{name: (w, b, xlo, xhi)}`` with 3 outputs that push the unpadded product's rounding.

    Every case but the cancelling one has 24 rows, point and interval, and
    the batch case is ``(2, 33, k)``.
    """
    rng = np.random.default_rng(4100 + k)
    cases = {}
    # no cancellation: positive products summing to just above 2^4, where a
    # float's ulp is largest against its value, so the sum and the term's
    # subtraction round by the most they can
    w = rng.uniform(1.0, 2.0, (3, k))
    x = 16.0 / k / w[0] * (1.0 + rng.uniform(0.0, 2.0**-40, (24, k)))
    xhi = x * (1.0 + (rng.random((24, k)) < 0.5) * 2.0**-45)
    cases["above-a-power-of-two"] = (w, 2.0**-30, x, xhi)
    # the same sums negated, with upper ends at 0: the magnitude is |x_lo|
    cases["lower-ends-dominate"] = (w, 0.0, -xhi, np.zeros_like(x))
    # |b| far above M, and the inputs' low bits below its ulp
    w = rng.uniform(-1.0, 1.0, (3, k))
    xlo = rng.uniform(-1.0, 1.0, (24, k))
    xhi = xlo + rng.uniform(0.0, 1.0, (24, k)) * (rng.random((24, k)) < 0.5)
    cases["bias-far-above-M"] = (w, rng.uniform(1e6, 1e8, 3) * [1, -1, 1], xlo, xhi)
    # products below the normal range, and a bias of a few subnormal steps
    w = rng.uniform(-1.0, 1.0, (3, k)) * 1e-160
    xlo = rng.uniform(-1.0, 1.0, (24, k)) * 1e-160
    cases["subnormal-products"] = (w, np.array([0.0, 3 * _TINY, -7 * _TINY]), xlo, xlo + 1e-161)
    # magnitudes from 1e-300 to 1e300 across the inputs of one row
    w = rng.uniform(-2.0, 2.0, (3, k))
    xlo = rng.uniform(-1.0, 1.0, (24, k)) * 10.0 ** rng.integers(-300, 300, (24, 1))
    cases["scaled-1e-300-to-1e300"] = (w, rng.uniform(-1.0, 1.0, 3), xlo, xlo + np.abs(xlo) * 1e-3)
    # a (2, 33, k) batch, as the Jacobian's (rows, n, k) products send it
    xlo = rng.uniform(-3.0, 3.0, (2, 33, k))
    cases["batch"] = (w, rng.uniform(-1.0, 1.0, 3), xlo, xlo + rng.uniform(0.0, 1.0, (2, 33, k)))
    return cases


def assert_matvec_encloses_exactly(w, b, xlo, xhi, bias=True):
    """Each end of `_interval_matvec_arrays` against the exact sign-split end, in rationals."""
    lo, hi = matvec(w, b, xlo, xhi, bias)
    # inside what the padded kernel returned: ``_down(lo)`` and ``_up(hi)``
    assert np.all(_down(lo) <= lo) and np.all(hi <= _up(hi))
    b_exact = np.broadcast_to(b if bias else 0.0, w.shape[:1])
    for idx in np.ndindex(np.shape(xlo)[:-1]):
        exact_lo, exact_hi = exact_matvec(w, b_exact, xlo[idx], xhi[idx])
        for i in range(w.shape[0]):
            assert Fraction(float(lo[idx][i])) <= exact_lo[i], (idx, i)
            assert exact_hi[i] <= Fraction(float(hi[idx][i])), (idx, i)


@pytest.mark.parametrize("k", [1, 2, 8, 16, 40])
def test_unpadded_matvec_encloses_the_exact_worst_cases(k):
    """The error term covers the sums and its own subtraction, with no pad after it."""
    for w, b, xlo, xhi in matvec_worst_cases(k).values():
        for bias in (True, False):
            assert_matvec_encloses_exactly(w, b, xlo, xhi, bias)
    # cancellation to near 0: each row's bias is minus its float sum
    rng = np.random.default_rng(4200 + k)
    w = rng.uniform(-2.0, 2.0, (3, k))
    for x in rng.uniform(-3.0, 3.0, (12, k)):
        x = x[None]
        assert_matvec_encloses_exactly(w, -(x @ w.T)[0], x, x)


def test_matvec_overflow_gives_nan_or_an_infinity_on_the_exact_side():
    """A sum past the float range has no pad to turn it into NaN: the rule in `_down`."""
    big = 0.75 * MAX
    w = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, -1.0]])
    x = np.array([big, big])
    with np.errstate(over="ignore", invalid="ignore"):
        lo, hi = matvec(w, 0.0, x, x)
        # exact 1.5 MAX, 0 and -1.5 MAX: the term overflows with the sums
        assert np.array_equal(lo, [math.nan, -math.inf, -math.inf], equal_nan=True)
        assert np.array_equal(hi, [math.inf, math.inf, math.nan], equal_nan=True)
        # a finite term subtracted past the float range gives an outward infinity
        ends_ = np.array([[-MAX], [MAX]])
        lo, hi = matvec(np.array([[1.0]]), 0.0, ends_, ends_)
        assert lo[0, 0] == -math.inf and -MAX <= hi[0, 0] < math.inf
        assert -math.inf < lo[1, 0] <= MAX and hi[1, 0] == math.inf
        # the box pass hands such ends on, `Box` refuses them, and verify ends in an error
        net = rb.Network((rb.Layer(w, np.zeros(3), "linear"),))
        out_lo, out_hi = box_propagate_arrays(net, x[None], x[None])
        with pytest.raises(ValueError, match="must be finite"):
            Box(out_lo[0], out_hi[0])
        problem = rb.VerificationProblem(net, Box.from_bounds([(0.5 * MAX, big)] * 2),
                                         Box.from_bounds([(-1, 1)] * 3), mode="full", grid=(2,))
        with pytest.raises(ValueError, match="must be finite"):
            rb.verify(problem)


def test_det_identity_point():
    lo, hi = as_pair(_idet_arrays(np.eye(2), np.eye(2)))
    assert lo <= 1.0 <= hi and hi - lo < 1e-13


def test_det_triangular():
    lo, hi = as_pair(
        _idet_arrays(np.array([[0.0, 0.0], [0.0, 1.0]]), np.array([[2.0, 0.0], [0.0, 1.0]]))
    )
    assert lo <= 0.0 <= 2.0 <= hi
    assert lo > -1e-300 and hi - 2.0 < 1e-12


def test_det_contains_vertex_hull():
    rng = np.random.default_rng(11)
    for _ in range(5):
        lo = rng.uniform(-1, 1, (3, 3))
        hi = lo + rng.uniform(0, 0.5, (3, 3))
        dlo, dhi = as_pair(_idet_arrays(lo, hi))
        dets = []
        for choice in product((0, 1), repeat=9):
            m = [
                [(hi if choice[3 * i + j] else lo)[i, j] for j in range(3)]
                for i in range(3)
            ]
            dets.append(exact_det(m))
        assert Fraction(dlo) <= min(dets) and max(dets) <= Fraction(dhi)


def test_det_point_matrices_exact_to_tolerance():
    # relative agreement with the exact determinant for n <= 4
    rng = np.random.default_rng(5)
    for n in (2, 3, 4):
        for _ in range(10):
            a = rng.uniform(-1, 1, (n, n)) + np.eye(n)  # keep well away from singular
            lo, hi = as_pair(_idet_arrays(a, a))
            e = exact_det(a.tolist())
            assert Fraction(lo) <= e <= Fraction(hi)
            assert hi - lo <= 1e-12 * max(1.0, abs(float(e)))


@given(intervals(st.floats(-3, 3)), intervals(st.floats(-3, 3)))
def test_det_inclusion_monotone_in_entries(a, wide):
    # shrink one entry: the determinant interval can only shrink
    if a[0] <= wide[1] and wide[0] <= a[1]:
        inner = max(a[0], wide[0]), min(a[1], wide[1])
    else:
        wide = inner = a
    base = np.array([[0.5, -0.25], [1.5, 2.0]])
    dw = as_pair(_idet_arrays(
        np.array([[wide[0], base[0, 1]], base[1]]),
        np.array([[wide[1], base[0, 1]], base[1]]),
    ))
    di = as_pair(_idet_arrays(
        np.array([[inner[0], base[0, 1]], base[1]]),
        np.array([[inner[1], base[0, 1]], base[1]]),
    ))
    assert dw[0] <= di[0] + 1e-12 and di[1] <= dw[1] + 1e-12


# ---------------------------------------------------------------------------
# activation enclosures


def test_act_range_tanh_origin():
    lo, hi = as_pair(_act_range_arrays("tanh", *ends(0, 0)))
    assert lo <= 0.0 <= hi and hi - lo < 1e-320


def test_act_range_sigmoid_origin():
    lo, hi = as_pair(_act_range_arrays("sigmoid", *ends(0, 0)))
    assert lo <= 0.5 <= hi and hi - lo < 1e-14


def test_act_range_tanh_unit():
    # endpoints are exact under monotonicity: tanh(1) = 0.76159415595576488...
    lo, hi = as_pair(_act_range_arrays("tanh", *ends(-1, 1)))
    assert lo <= -0.7615941559557649 and hi >= 0.7615941559557649
    assert abs(hi - 0.7615941559557649) < 1e-14
    assert abs(lo + 0.7615941559557649) < 1e-14


def test_act_range_stays_in_codomain():
    lo, hi = as_pair(_act_range_arrays("tanh", *ends(-50, 60)))
    assert -1.0 <= lo <= hi <= 1.0
    lo, hi = as_pair(_act_range_arrays("sigmoid", *ends(-800, 900)))
    assert 0.0 <= lo <= hi <= 1.0


def test_act_deriv_tanh_origin():
    lo, hi = as_pair(_act_deriv_arrays("tanh", *ends(0, 0)))
    assert hi == 1.0 and lo <= 1.0 and hi - lo < 1e-14


def test_act_deriv_sigmoid_origin():
    lo, hi = as_pair(_act_deriv_arrays("sigmoid", *ends(0, 0)))
    assert hi == 0.25 and lo <= 0.25 and hi - lo < 1e-14


def test_act_deriv_tanh_unit():
    # min at the endpoints: tanh'(1) = 0.41997434161402606...
    lo, hi = as_pair(_act_deriv_arrays("tanh", *ends(-1, 1)))
    assert hi == 1.0
    assert lo <= 0.4199743416140261 and abs(lo - 0.4199743416140261) < 1e-13


def dec_expm1(x: Decimal) -> Decimal:
    """``e^x - 1``, by its series below 1/2, where ``exp(x) - 1`` would cancel."""
    if abs(x) >= Decimal("0.5"):
        return x.exp() - 1
    term = total = x
    n = 1
    while abs(term) > abs(total) * Decimal("1e-60"):
        n += 1
        term = term * x / n
        total += term
    return total


def dec_tanh(x: Decimal) -> Decimal:
    e = dec_expm1(-2 * abs(x))  # in (-1, 0]: no overflow, and the series near 0
    return (-e / (e + 2)).copy_sign(x)


def dec_sigmoid(x: Decimal) -> Decimal:
    return 1 / (1 + (-x).exp())


def dec_tanh_deriv(x: Decimal) -> Decimal:
    e = x.exp()
    return 4 / (e + 1 / e) ** 2  # sech^2 = (2 / (e^x + e^-x))^2


def dec_sigmoid_deriv(x: Decimal) -> Decimal:
    return dec_tanh_deriv(x / 2) / 4


# near 0, around the saturation knees (tanh near 19, sigmoid near 37 and
# near -745 where e^x leaves the float range, sech^2 near 372) and at large |x|
HARD_POINTS = np.unique(np.concatenate([
    [0.0, 5e-324, 1e-310, 2.0**-1022, 1e-300, 1e-200, 1e-100, 2.0**-30, 1e-8, 1e-4,
     0.1, 0.25, 0.5, 1.0, 2.0, 100.0, 300.0, 354.0, 372.0, 400.0, 700.0, 709.78,
     710.5, 744.0, 745.1, 746.0, 800.0],
    np.logspace(-12, 0, 97),
    np.linspace(0.0, 1.0, 1001),  # the derivatives err most just below their peak
    np.linspace(0.0, 40.0, 801),
    np.linspace(360.0, 380.0, 41),
    np.linspace(700.0, 760.0, 61),
]))
HARD_POINTS = np.concatenate([-HARD_POINTS[::-1], HARD_POINTS])


@pytest.mark.parametrize("f, ref, pad", [
    (np.tanh, dec_tanh, _PAD_ACT),
    (_sigmoid, dec_sigmoid, _PAD_ACT),
    (_tanh_deriv, dec_tanh_deriv, _PAD_DERIV),
    (_sigmoid_deriv, dec_sigmoid_deriv, _PAD_DERIV),
], ids=["tanh", "sigmoid", "tanh_deriv", "sigmoid_deriv"])
def test_activation_error_stays_below_its_pad(f, ref, pad):
    """This platform's libm against a 50-digit reference, in ulps of the float result.

    `_down`/`_up` with ``steps`` pad by at least ``steps`` ulps of the value
    they widen, so an error below ``pad`` ulps leaves every range and
    derivative end on its side of the exact value.
    """
    with np.errstate(over="ignore"):
        got = f(HARD_POINTS)
    with localcontext() as ctx:
        ctx.prec = 50
        errors = [abs(Decimal(y) - ref(Decimal(x))) / Decimal(math.ulp(y))
                  for x, y in zip(HARD_POINTS.tolist(), got.tolist())]
    worst = int(np.argmax(errors))
    assert errors[worst] < pad, (HARD_POINTS[worst], float(errors[worst]))


def test_act_unknown_tag():
    with pytest.raises(ValueError):
        _act_range_arrays("relu", *ends(0, 1))
    with pytest.raises(ValueError):
        _act_deriv_arrays("relu", *ends(0, 1))
    # a name the table cannot hash is unknown too, not a TypeError
    with pytest.raises(ValueError, match="unknown activation"):
        _act_range_arrays(["tanh"], *ends(0, 1))


def test_act_linear_passthrough():
    assert as_pair(_act_range_arrays("linear", *ends(-2, 3))) == (-2.0, 3.0)
    assert as_pair(_act_deriv_arrays("linear", *ends(-2, 3))) == (1.0, 1.0)


@pytest.mark.parametrize("name", ["tanh", "sigmoid"])
@pytest.mark.parametrize(
    "iv",
    [(-1, 1), (0.3, 2.5), (-4.0, -0.2), (-0.01, 30.0)],
)
def test_act_soundness_by_sampling(name, iv):
    rng = np.random.default_rng(77)
    ts = iv[0] + rng.random(10_000) * (iv[1] - iv[0])
    f = _lookup(name).f
    d = _lookup(name).deriv
    lo, hi = as_pair(_act_range_arrays(name, *ends(*iv)))
    dlo, dhi = as_pair(_act_deriv_arrays(name, *ends(*iv)))
    vals = f(ts)
    ders = d(ts)
    assert np.all((lo <= vals) & (vals <= hi))
    assert np.all((dlo <= ders) & (ders <= dhi))


@pytest.mark.parametrize("name", ["tanh", "sigmoid"])
@given(outer=intervals(st.floats(-20, 20)), t0=st.floats(0, 1), t1=st.floats(0, 1))
# s(x) * s(-x) rounded is not monotone near 0: the inner sigmoid' enclosure fell below the outer
@example(outer=(-5.051993014029483e-11, 0.0), t0=0.0, t1=0.31640625)
def test_act_inclusion_monotone(name, outer, t0, t1):
    a = pick(outer, t0)
    b = pick(outer, t1)
    for kernel in (_act_range_arrays, _act_deriv_arrays):
        olo, ohi = as_pair(kernel(name, *ends(*outer)))
        ilo, ihi = as_pair(kernel(name, *ends(min(a, b), max(a, b))))
        assert olo <= ilo and ihi <= ohi


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


def test_box_dimension_mismatch():
    with pytest.raises(ValueError):
        Box.from_bounds([(0, 1)]).contains_box(Box.from_bounds([(0, 1), (0, 1)]))


MAX = float(np.finfo(float).max)
box_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1.7e308, -1.7e308]),
)
box_bounds = st.lists(
    st.tuples(box_floats, box_floats).map(lambda p: p if p[0] <= p[1] else p[::-1]),
    min_size=1,
    max_size=5,
)


@given(bounds=box_bounds)
@example(bounds=[(-0.0, 0.0), (-5e-324, 1.7e308), (-1.7e308, 0.30000000000000004)])
def test_box_holds_read_only_copies_bit_for_bit(bounds):
    lo = np.array([a for a, _ in bounds])
    hi = np.array([b for _, b in bounds])
    lo_bytes, hi_bytes = lo.tobytes(), hi.tobytes()
    boxes = (Box.from_arrays(lo, hi), Box.from_bounds(bounds))
    lo[:] = hi[:] = np.nan  # the boxes must not see writes to the source arrays
    for box in boxes:
        assert box.lo.tobytes() == lo_bytes and box.hi.tobytes() == hi_bytes
        assert repr(box) == " x ".join(f"[{a!r}, {b!r}]" for a, b in bounds)
        with pytest.raises(ValueError):
            box.lo[0] = 0.0


@given(bounds=box_bounds, k=st.integers(0, 4), on_hi=st.booleans(),
       bad=st.sampled_from([math.nan, math.inf, -math.inf, "lo > hi"]))
@example(bounds=[(0.0, MAX)], k=0, on_hi=False, bad="lo > hi")
def test_box_rejects_one_bad_dimension(bounds, k, on_hi, bad):
    lo = np.array([a for a, _ in bounds])
    hi = np.array([b for _, b in bounds])
    k %= len(bounds)
    if bad == "lo > hi":
        if hi[k] == MAX:  # the float above it is inf, a different bad value
            hi[k] = np.nextafter(MAX, 0.0)
        lo[k] = np.nextafter(hi[k], np.inf)
    else:
        (hi if on_hi else lo)[k] = bad
    with pytest.raises(ValueError):
        Box.from_arrays(lo, hi)
    with pytest.raises(ValueError):
        Box.from_bounds(zip(lo.tolist(), hi.tolist()))


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
    # one matrix, and a batch with two leading axes, give the same bits
    assert _idet_arrays(lo[0], hi[0]) == (ref_lo[0], ref_hi[0])
    two_lo, two_hi = _idet_arrays(lo[:6].reshape(2, 3, n, n), hi[:6].reshape(2, 3, n, n))
    assert np.array_equal(two_lo, ref_lo[:6].reshape(2, 3))
    assert np.array_equal(two_hi, ref_hi[:6].reshape(2, 3))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_det_expands_each_minor_once(n, monkeypatch):
    # equal bits cannot tell a lost cache: the plain recursion makes 1 236 products at n = 6
    calls = []

    def counted(*args):
        calls.append(1)
        return _imul_arrays(*args)

    monkeypatch.setattr("reachbound.intervals._imul_arrays", counted)
    a = np.eye(n)
    _idet_arrays(a, a)
    assert len(calls) == n * 2 ** (n - 1) - n  # 0, 2, 9, 28, 75, 186


# ---------------------------------------------------------------------------
# outward rounding


def nextafter_steps(x, steps, toward):
    """The reference pad: ``steps`` passes of `nextafter` toward ``toward``."""
    for _ in range(steps):
        x = np.nextafter(x, toward)
    return x


POWERS = np.ldexp(1.0, np.arange(-1074, 1024))  # every power of two, 5e-324 up
EDGE_FLOATS = np.concatenate(
    [[0.0, MAX], POWERS, np.nextafter(POWERS, 0.0), np.nextafter(POWERS, np.inf)]
)


def x_examples(*values):
    """One hypothesis ``example(x=v)`` per value."""

    def apply(test):
        for v in values:
            test = example(x=v)(test)
        return test

    return apply


@pytest.mark.parametrize("steps", [1, 4, 8])
@given(st.floats(allow_nan=False, allow_infinity=False))
@x_examples(0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, -(2.0**-1022), 1.0, -1.0,
            math.nextafter(1.0, 0.0), -math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0),
            2.0**1023, math.nextafter(2.0**1023, 0.0), MAX, -MAX)
def test_pad_covers_nextafter_passes(steps, x):
    x = np.float64(x)
    with np.errstate(over="ignore"):
        assert _down(x, steps) <= nextafter_steps(x, steps, -np.inf)
        assert _up(x, steps) >= nextafter_steps(x, steps, np.inf)


def test_pad_covers_nextafter_passes_on_every_binade_edge():
    bits = np.random.default_rng(9).integers(0, 2**64, 200_000, dtype=np.uint64).view(float)
    x = np.concatenate([EDGE_FLOATS, -EDGE_FLOATS, bits[np.isfinite(bits)]])
    for steps in range(1, 9):
        with np.errstate(over="ignore"):
            assert np.all(_down(x, steps) <= nextafter_steps(x, steps, -np.inf))
            assert np.all(_up(x, steps) >= nextafter_steps(x, steps, np.inf))


def test_pad_infinities():
    with np.errstate(invalid="ignore"):
        down, up = _down(np.array([-np.inf, np.inf])), _up(np.array([-np.inf, np.inf]))
    assert down[0] == -np.inf and np.isnan(down[1])
    assert np.isnan(up[0]) and up[1] == np.inf


def test_nonneg_product_is_the_corner_product_bit_for_bit():
    d_ends = [0.0, -0.0, 5e-324, 0.25, 1.0, 3.5]
    b_ends = [-3.0, -1.5, -5e-324, -0.0, 0.0, 5e-324, 2.0, 7.5]
    d_pairs = [(lo, hi) for lo, hi in product(d_ends, repeat=2) if lo <= hi]
    # B: point, straddling, one-signed and signed-zero intervals
    b_pairs = [(lo, hi) for lo, hi in product(b_ends, repeat=2) if lo <= hi]
    rng = np.random.default_rng(3)
    d0, b0 = rng.uniform(0.0, 2.0, 500), rng.uniform(-2.0, 2.0, 500)
    rows = [dd + bb for dd, bb in product(d_pairs, b_pairs)]
    rows += zip(d0, d0 + rng.uniform(0, 1, 500), b0, b0 + rng.uniform(0, 1, 500))
    dlo, dhi, blo, bhi = np.array(rows).T
    got = _nonneg_imul_arrays(dlo, dhi, blo, bhi)
    ref = _imul_arrays(dlo, dhi, blo, bhi)
    assert got[0].tobytes() == ref[0].tobytes() and got[1].tobytes() == ref[1].tobytes()


@pytest.mark.parametrize(
    "lo, hi",
    [([], []), ([0.0, 0.0], [1.0]), ([[0.0, 0.0]], [1.0, 1.0, 1.0])],
    ids=["no-dimension", "shorter-hi", "longer-hi"],
)
def test_box_input_checks(lo, hi):
    with pytest.raises(ValueError):
        Box(lo, hi)


# ---------------------------------------------------------------------------
# bits: the kernels against their plain allocating expressions
#
# Each reference below is the kernel written as one expression per result,
# with a new array for every intermediate.  The kernels build their results
# in place, with the same float operations in the same order, so they must
# give the same bits.  Inputs are read-only: an in-place write to a caller's
# array raises.


def ref_down(x, steps=1):
    return x - (np.abs(x) * (steps * 2 * _U) + steps * _TINY)


def ref_up(x, steps=1):
    return x + (np.abs(x) * (steps * 2 * _U) + steps * _TINY)


def ref_sigmoid(x):
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def ref_tanh_deriv(x):
    with np.errstate(over="ignore"):
        s = 1.0 / np.cosh(np.asarray(x, dtype=float))
    return s * s


REF_F = {"tanh": (np.tanh, ref_tanh_deriv),
         "sigmoid": (ref_sigmoid, lambda x: 0.25 * ref_tanh_deriv(0.5 * np.asarray(x, dtype=float)))}


def ref_act_range(name, lo, hi):
    act, (f, _) = _lookup(name), REF_F[name]
    out_lo = np.maximum(ref_down(f(lo), _PAD_ACT), act.clip_lo)
    out_hi = np.minimum(ref_up(f(hi), _PAD_ACT), act.clip_hi)
    return np.minimum(out_lo, out_hi), out_hi


def ref_act_deriv(name, lo, hi):
    act, (_, deriv) = _lookup(name), REF_F[name]
    dlo, dhi = deriv(lo), deriv(hi)
    out_lo = np.maximum(ref_down(np.minimum(dlo, dhi), _PAD_DERIV), 0.0)
    capped = np.minimum(ref_up(np.maximum(dlo, dhi), _PAD_DERIV), act.deriv_max)
    out_hi = np.where((lo <= 0.0) & (0.0 <= hi), act.deriv_max, capped)
    return out_lo, np.maximum(out_hi, out_lo)


def ref_nonneg_imul(dlo, dhi, blo, bhi):
    lo = np.where(blo >= 0.0, dlo, dhi) * blo
    hi = np.where(bhi >= 0.0, dhi, dlo) * bhi
    return ref_down(lo), ref_up(hi)


def ref_matvec(w, b, xlo, xhi):
    m, k = w.shape
    shape = np.shape(xlo)[:-1] + (m,)
    xlo = np.reshape(xlo, (-1, k))
    xhi = np.reshape(xhi, (-1, k))
    wp = np.maximum(w, 0.0)
    wn = np.minimum(w, 0.0)
    lo = xlo @ wp.T + xhi @ wn.T
    hi = xhi @ wp.T + xlo @ wn.T
    mag = np.maximum(np.abs(xlo), np.abs(xhi)) @ np.abs(w).T
    err = (2 * k + 6) * _U * (mag + np.abs(b)) + (2 * k + 4) * _TINY
    return (lo + b - err).reshape(shape), (hi + b + err).reshape(shape)


def read_only(*arrays):
    out = []
    for a in arrays:
        a = np.array(a, dtype=float)
        a.setflags(write=False)
        out.append(a)
    return out


def same_bits(got, ref):
    """Equal float64 bytes, results taken pairwise; a scalar counts as its 0-d array."""
    return all(np.asarray(g, dtype=float).tobytes() == np.asarray(r, dtype=float).tobytes()
               and np.shape(g) == np.shape(r) for g, r in zip(got, ref))


PAD_SCALARS = [0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, -(2.0**-1022), 1.0, -1.0,
               math.nextafter(1.0, 0.0), 2.0**1023, MAX, -MAX, math.inf, -math.inf]


@pytest.mark.parametrize("steps", range(1, 9))
def test_pad_bits_match_the_plain_expression(steps):
    bits = np.random.default_rng(steps).integers(0, 2**64, 20_000, dtype=np.uint64).view(float)
    vector = np.concatenate([EDGE_FLOATS, -EDGE_FLOATS, [math.inf, -math.inf],
                             bits[np.isfinite(bits)]])
    vector = vector[: vector.size - vector.size % 4]
    inputs = PAD_SCALARS + read_only(*PAD_SCALARS) + read_only(vector, vector.reshape(4, -1))
    with np.errstate(over="ignore", invalid="ignore"):
        for x in inputs:
            assert same_bits((_down(x, steps), _up(x, steps)), (ref_down(x, steps), ref_up(x, steps)))


ACT_POINTS = np.concatenate([np.linspace(-800.0, 800.0, 64_001),
                             [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 20.5, -20.5, 709.5, -745.5]])


@pytest.mark.parametrize("name", ["tanh", "sigmoid"])
def test_activation_bits_match_the_plain_expressions(name):
    x, = read_only(ACT_POINTS)
    y = x[np.random.default_rng(0).permutation(x.size)]
    lo, hi = read_only(np.minimum(x, y), np.maximum(x, y))
    f, deriv = REF_F[name]
    act = _lookup(name)
    with np.errstate(over="ignore"):
        assert same_bits((act.f(x), act.deriv(x)), (f(x), deriv(x)))
        assert same_bits(_act_range_arrays(name, lo, hi), ref_act_range(name, lo, hi))
        assert same_bits(_act_deriv_arrays(name, lo, hi), ref_act_deriv(name, lo, hi))
        # 0-d endpoints, and a (rows, width) batch as the passes send
        for a, b in [(-3.0, 2.0), (-0.0, 0.0), (5e-324, 700.0)]:
            ends0 = read_only(a, b)
            assert same_bits(_act_range_arrays(name, *ends0), ref_act_range(name, *ends0))
            assert same_bits(_act_deriv_arrays(name, *ends0), ref_act_deriv(name, *ends0))
        rows = read_only(lo[:64_000].reshape(-1, 8), hi[:64_000].reshape(-1, 8))
        assert same_bits(_act_range_arrays(name, *rows), ref_act_range(name, *rows))
        assert same_bits(_act_deriv_arrays(name, *rows), ref_act_deriv(name, *rows))
    assert same_bits((_sigmoid(x), _tanh_deriv(x)), (ref_sigmoid(x), ref_tanh_deriv(x)))


@pytest.mark.parametrize("name", ["tanh", "sigmoid"])
def test_slope_bits_match_the_derivative_lower_end(name):
    x, = read_only(ACT_POINTS)
    y = x[np.random.default_rng(1).permutation(x.size)]
    lo, hi = read_only(np.minimum(x, y), np.maximum(x, y))
    with np.errstate(over="ignore"):
        for ends_ in [(lo, hi), read_only(-3.0, 2.0), read_only(-0.0, 0.0),
                      (lo[:64_000].reshape(-1, 8), hi[:64_000].reshape(-1, 8))]:
            assert same_bits((_act_slope_arrays(name, *ends_),),
                             (_act_deriv_arrays(name, *ends_)[0],))


def test_nonneg_product_bits_match_the_plain_expression():
    rng = np.random.default_rng(8)
    dlo = rng.uniform(0.0, 1.0, (50, 1, 8))
    dlo[0, 0, :2] = 0.0, -0.0
    dhi = dlo + rng.uniform(0.0, 1.0, (50, 1, 8))
    blo = rng.uniform(-2.0, 2.0, (50, 6, 8))
    blo[1, 0, :3] = 0.0, -0.0, -5e-324
    bhi = blo + rng.uniform(0.0, 1.0, (50, 6, 8)) * (rng.random((50, 6, 8)) < 0.8)
    args = read_only(dlo, dhi, blo, bhi)
    assert same_bits(_nonneg_imul_arrays(*args), ref_nonneg_imul(*args))


# ordered (lo, hi) ends that the magnitude must read as max(|lo|, |hi|) does
SPECIAL_ENDS = [(-0.0, 0.0), (0.0, 0.0), (-0.0, -0.0), (0.0, -0.0), (1.5, 1.5), (-2.5, -2.5),
                (-math.inf, 1.0), (-1.0, math.inf), (-math.inf, math.inf), (math.inf, math.inf),
                (-math.inf, -math.inf), (math.nan, math.nan), (math.nan, 1.0), (-1.0, math.nan)]

# (inputs, outputs) of every layer of the benchmark's nets
WORKLOAD_LAYERS = sorted({(dims[i], dims[i + 1]) for dims, _ in WORKLOAD_NETS
                          for i in range(len(dims) - 1)})


@pytest.mark.parametrize("k, m", WORKLOAD_LAYERS, ids=[f"{k}-{m}" for k, m in WORKLOAD_LAYERS])
def test_matvec_bits_match_the_plain_expression(k, m):
    rng = np.random.default_rng(100 * k + m)
    w = rng.uniform(-2.0, 2.0, (m, k))
    w[0, 0] = 0.0
    for rows in (2, 3, 67, 4096):
        xlo = rng.uniform(-3.0, 3.0, (rows, k))
        xhi = xlo + rng.uniform(0.0, 1.0, (rows, k)) * (rng.random((rows, k)) < 0.8)
        for b in (rng.uniform(-1.0, 1.0, m), 0.0):
            args = read_only(w, b, xlo, xhi)
            assert same_bits(matvec(*args), ref_matvec(*args))
            # the zero-bias path (the Jacobian's W J) skips the bias, not a bit
            args[1] = 0.0
            assert same_bits(matvec(*args, bias=False), ref_matvec(*args))
    # leading batch axes, as the Jacobian's (n, rows, k) products send them
    args = read_only(w, 0.0, xlo[:66].reshape(2, 33, k), xhi[:66].reshape(2, 33, k))
    assert same_bits(matvec(*args), ref_matvec(*args))
    assert same_bits(matvec(*args, bias=False), ref_matvec(*args))
    # the magnitude max(-lo, hi) is max(|lo|, |hi|) bit for bit on signed zeros,
    # equal ends, infinities and NaN: each pair in each column of a random row
    lo_rows, hi_rows = (np.repeat(x[:1], len(SPECIAL_ENDS) * k, axis=0) for x in (xlo, xhi))
    for i, (a, z) in enumerate(SPECIAL_ENDS):
        lo_rows[i * k:(i + 1) * k][np.diag_indices(k)] = a
        hi_rows[i * k:(i + 1) * k][np.diag_indices(k)] = z
    for b in (rng.uniform(-1.0, 1.0, m), 0.0):
        args = read_only(w, b, lo_rows, hi_rows)
        with np.errstate(invalid="ignore"):
            assert same_bits(matvec(*args), ref_matvec(*args))
            args[1] = 0.0
            assert same_bits(matvec(*args, bias=False), ref_matvec(*args))
    # One row is a matrix-vector product, and the contiguous (k, m) operand
    # takes the other BLAS kernel, whose sums may round differently from the
    # reference; both enclose the exact sign-split endpoints.
    for got in (matvec(w, b, xlo[0], xhi[0]), ref_matvec(w, b, xlo[0], xhi[0])):
        lo, hi = exact_matvec(w, np.broadcast_to(b, m), xlo[0], xhi[0])
        for i in range(m):
            assert Fraction(float(got[0][i])) <= lo[i] <= hi[i] <= Fraction(float(got[1][i]))


# ---------------------------------------------------------------------------
# the bias tile


@pytest.mark.parametrize("m", [1, 2, 8, 16])
def test_bias_add_bits_match_the_broadcast(m):
    rng = np.random.default_rng(m)
    b = rng.uniform(-1.0, 1.0, m)
    b[1:2] = -0.0
    op = _operands(np.ones((m, 3)), b)
    assert op.bias_tile.shape == (_TILE // m, m) and op.bias_tile.flags.c_contiguous
    assert not op.bias_tile.flags.writeable and not op.bias_mag_tile.flags.writeable
    # one row, a tile less one, a tile and a tile and one: a batch of at most one
    # tile takes the tile's head, a longer one whole tiles and then the head
    for rows in bias_rows(m):
        x = rng.uniform(-2.0, 2.0, (rows, m))
        x[0] = -0.0  # -0 + -0 stays -0 and -0 + |-0| is +0, in a tile or a leftover row
        for tile, ref in ((op.bias_tile, x + b), (op.bias_mag_tile, x + np.abs(b))):
            got = x.copy()
            _add_bias(got, tile)
            assert same_bits((got,), (ref,))
    # (m,) rows, one zonotope's center, are all leftover
    got = b.copy()
    _add_bias(got, op.bias_tile)
    assert same_bits((got,), (b + b,))


def test_bias_add_refuses_rows_that_only_a_copy_can_reshape():
    op = _operands(np.ones((2, 3)), np.array([1.0, 2.0]))
    # (2, N, m) rows that are a transposed view: flattening them to (2N, m) needs a copy
    rows = np.zeros((_TILE, 2, 2)).transpose(1, 0, 2)
    with pytest.raises(ValueError):
        _add_bias(rows, op.bias_tile)
    assert not rows.any()
    # splitting the row axis never needs a copy, so strided rows take the add in place
    strided = np.zeros((2 * _TILE + 1, 4))[:, ::2]
    _add_bias(strided, op.bias_tile)
    assert np.all(strided == [1.0, 2.0])


def test_zero_bias_operands_are_tiled():
    op = _operands(np.ones((3, 2)), 0.0)
    # at least _TILE elements: ceil(_TILE / 3) rows
    assert op.bias_tile.shape == op.bias_mag_tile.shape == (_TILE // 3 + 1, 3)
    assert not op.bias_tile.any() and not op.bias_mag_tile.any()


@pytest.mark.parametrize("k, m", [(2, 1), (1, 1), (2, 8), (8, 2), (16, 6)],
                         ids=lambda v: str(v))
def test_matvec_bias_bits_match_the_broadcast(monkeypatch, k, m):
    """The kernel with `_add_bias` and with the plain broadcast, on the same BLAS products."""
    rng = np.random.default_rng(10 * k + m)
    w = rng.uniform(-2.0, 2.0, (m, k))
    ops = [_operands(w, rng.uniform(-1.0, 1.0, m)), _operands(w, 0.0)]
    for rows in bias_rows(m):
        xlo = rng.uniform(-3.0, 3.0, (rows, k))
        xhi = xlo + rng.uniform(0.0, 1.0, (rows, k))
        xlo, xhi = read_only(xlo, xhi)
        for op in ops:
            for bias in (True, False):
                got = _interval_matvec_arrays(op, xlo, xhi, bias)
                with monkeypatch.context() as patch:
                    patch.setattr("reachbound.intervals._add_bias", plain_add_bias)
                    ref = _interval_matvec_arrays(op, xlo, xhi, bias)
                assert same_bits(got, ref)
