"""Validated interval arithmetic as batched ndarray kernels, plus the `Box` value.

The kernels (``_imul_arrays``, ``_nonneg_imul_arrays``,
``_interval_matvec_arrays``, ``_idet_arrays``, ``_act_range_arrays`` and
``_act_deriv_arrays``) are the only interval arithmetic: they take
``(lo, hi)`` endpoint arrays with leading batch axes and return an enclosure
of the true real-arithmetic result set; the box pass and the Jacobian
enclosure share ``_interval_matvec_arrays``.  IEEE-exact operations (+, -, *)
are widened outward by at least one ulp per endpoint, with one arithmetic pad
per array (`_down`/`_up`), built in one buffer that then holds the result;
libm-backed evaluations (tanh, sigmoid and their derivatives) are only
faithfully rounded, so their endpoints get a wider fixed pad.  Reductions
(dot products, sums) are bounded with a standard a-priori rounding-error term
instead of per-term nudging, which keeps them vectorizable.  The kernels
accumulate and clip in arrays they created, never in their inputs, with the
float operations of the plain one-expression forms in the same order, so
working in place changes no bit (``tests/test_intervals.py`` pins them).

`Box` is the one interval value, not an algebra: a validated, read-only
``(lo, hi)`` pair of endpoint vectors.  Every other interval quantity (a
Jacobian or determinant enclosure, a batch of cells) stays a plain pair of
endpoint arrays.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = ["Box"]

_U = 2.0 ** -53  # unit roundoff, float64
_TINY = 5e-324  # one subnormal step, absolute slack per reduction term
_PAD_ACT = 4  # ulps of outward pad for direct libm evaluations
_PAD_DERIV = 8  # ulps of outward pad for composed derivative evaluations


def _down(x, steps: int = 1):
    """A float at or below the ``steps``-th float below x, for steps <= 8.

    The pad ``steps * (|x| 2^-52 + tiny)`` is one array expression, and it is
    at least as wide as ``steps`` passes of ``nextafter`` toward -inf:

    - ``|x| 2^-52 >= ulp(x)`` for normal x, and ``tiny`` is the ulp of zero
      and of every subnormal.  ``ulp(x)`` is itself a float no larger than
      the exact per-step pad, and rounding is monotone, so the rounded
      ``|x| 2^-52 + tiny`` is still at least ``ulp(x)``.
    - For steps <= 8, ``steps * ulp(x)`` is a float too, so rounding
      ``steps * (...)`` cannot drop below it.
    - Moving outward across a power of two at most doubles the ulp, and only
      for the steps past it.  Just below ``2^e``, with ``j < steps`` floats
      left below it and ``v = 2^(e-53)`` their ulp, ``|x| 2^-52 = 2v - j v
      2^-52`` is already about 2 ulp, and ``steps (2v - j v 2^-52)`` is at
      least ``(2 steps - j) v``, the distance to the float ``steps`` places
      outward.  That distance is a float, so rounding keeps the pad at least
      as wide.  Moving inward the ulp only shrinks.
    - The subtraction rounds to nearest and rounding is monotone, and the
      ``steps``-th float outward is a float that the exact difference does
      not pass, so the result is at or beyond it.

    Infinities: ``_down(-inf)`` and ``_up(+inf)`` stay infinite, while
    ``_down(+inf)`` and ``_up(-inf)`` give NaN where ``nextafter`` gave the
    largest finite float.  Only an overflow reaches them: a lower end is
    +inf only when the exact value exceeds the largest float.
    `_interval_matvec_arrays` turns such a sum into NaN (``inf - inf``)
    before its pad in any case; `_imul_arrays`, `_nonneg_imul_arrays` and
    the sums of `_idet_arrays` pass it to the pad, and that interval's upper
    end is then +inf or NaN too.  A NaN end fails every comparison, so it
    certifies nothing and passes no safe-box test, and `Box` rejects it:
    such a verdict ends in an error, not a wrong answer.

    The pad is built in one new float64 array of x's shape, and the
    difference is written into it, so x is never written.  Its operations
    and their order are those of ``x - steps * (|x| 2^-52 + tiny)``; one step
    skips the multiplication by 1, which is exact.  So the bits are the
    plain expression's, and a scalar or 0-d x gives a 0-d array.
    """
    pad = _pad(x, steps)
    return np.subtract(x, pad, out=pad)


def _up(x, steps: int = 1):
    """A float at or above the ``steps``-th float above x; see `_down`."""
    pad = _pad(x, steps)
    return np.add(x, pad, out=pad)


def _pad(x, steps: int):
    """``steps * (|x| 2^-52 + tiny)`` in one new float64 array of x's shape."""
    pad = np.abs(x, out=np.empty(np.shape(x)))
    pad *= 2 * _U
    pad += _TINY
    if steps != 1:
        pad *= steps
    return pad


# ---------------------------------------------------------------------------
# boxes


@dataclass(frozen=True, eq=False)
class Box:
    """Axis-aligned box [lo, hi] with finite endpoints; degenerate faces are allowed.

    ``lo`` and ``hi`` are read-only float64 copies of the inputs, validated
    once here, so a box never aliases or is changed through a caller's array.
    """

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.array(self.lo, dtype=float).ravel()
        hi = np.array(self.hi, dtype=float).ravel()
        if lo.size == 0:
            raise ValueError("box must have at least one dimension")
        if lo.shape != hi.shape:
            raise ValueError("bound arrays must have matching shapes")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ValueError(f"box endpoints must be finite, got {lo} and {hi}")
        if np.any(lo > hi):
            raise ValueError(f"box lower bound exceeds upper: {lo} and {hi}")
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @staticmethod
    def from_bounds(bounds: Iterable[Sequence[float]]) -> "Box":
        pairs = np.array([(float(lo), float(hi)) for lo, hi in bounds]).reshape(-1, 2)
        return Box(pairs[:, 0], pairs[:, 1])

    @staticmethod
    def from_arrays(lo: np.ndarray, hi: np.ndarray) -> "Box":
        return Box(lo, hi)

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    def bounds(self) -> list[list[float]]:
        """``[[lo, hi], ...]`` per dimension, as Python floats."""
        return [[a, b] for a, b in zip(self.lo.tolist(), self.hi.tolist())]

    def widths(self) -> np.ndarray:
        return self.hi - self.lo

    def finite_widths(self) -> np.ndarray:
        """`widths`, refusing a box to partition or sample where ``hi - lo`` overflows."""
        with np.errstate(over="ignore"):
            widths = self.widths()
        wide = np.flatnonzero(~np.isfinite(widths))
        if wide.size:
            k = int(wide[0])
            raise ValueError(f"dimension {k} of the box is too wide: hi - lo overflows "
                             f"for [{float(self.lo[k])!r}, {float(self.hi[k])!r}]")
        return widths

    def midpoint(self) -> np.ndarray:
        return 0.5 * (self.lo + self.hi)

    def degenerate_dims(self) -> tuple[int, ...]:
        return tuple(np.flatnonzero(self.lo == self.hi).tolist())

    def contains_point(self, x) -> bool:
        x = np.asarray(x, dtype=float)
        self._check_dim(x.shape[-1])
        return bool(np.all(self.lo <= x) and np.all(x <= self.hi))

    def contains_box(self, other: "Box") -> bool:
        self._check_dim(other.dim)
        return bool(np.all(self.lo <= other.lo) and np.all(other.hi <= self.hi))

    def _check_dim(self, d: int) -> None:
        if d != self.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {d}")

    def __repr__(self) -> str:
        return " x ".join(f"[{a!r}, {b!r}]" for a, b in self.bounds())


# ---------------------------------------------------------------------------
# vectorized enclosure helpers (lo/hi ndarray pairs, leading batch dims)


def _imul_arrays(alo, ahi, blo, bhi):
    """Elementwise interval product of broadcastable arrays."""
    c1 = alo * blo
    c2 = alo * bhi
    c3 = ahi * blo
    c4 = ahi * bhi
    lo = np.minimum(np.minimum(c1, c2), np.minimum(c3, c4))
    hi = np.maximum(np.maximum(c1, c2), np.maximum(c3, c4))
    return _down(lo), _up(hi)


def _nonneg_imul_arrays(dlo, dhi, blo, bhi):
    """`_imul_arrays` for a factor ``[dlo, dhi]`` with ``dlo >= 0``: two products.

    With ``D >= 0`` the lower end is ``dlo blo`` where ``blo >= 0`` and
    ``dhi blo`` otherwise, and the upper end ``dhi bhi`` where ``bhi >= 0``
    and ``dlo bhi`` otherwise.  The selected corner is the extreme real
    product, rounding is monotone, and both ends get the same one-ulp pad,
    which maps ``+0`` and ``-0`` alike, so for finite ``B`` the bounds are
    those of `_imul_arrays` bit for bit.
    """
    lo = np.where(blo >= 0.0, dlo, dhi)
    lo *= blo
    hi = np.where(bhi >= 0.0, dhi, dlo)
    hi *= bhi
    return _down(lo), _up(hi)


def _interval_matvec_arrays(w, b, xlo, xhi):
    """Enclose w @ x + b for a point matrix w (m, k) over interval vectors x (..., k).

    The leading axes of x are flattened into one BLAS product, so ``(k,)``
    bounds make the same call as a ``(1, k)`` batch.  The sign split
    ``W+ x_lo + W- x_hi`` and ``W+ x_hi + W- x_lo`` gives the exact real
    endpoints, since each product w_ij * x_j is monotone in x_j with the sign
    of w_ij.  Rounding: each endpoint is a sum of 2k products, of which at
    most k are nonzero, so the sum of their magnitudes is at most
    ``mag = |w| @ max(|x_lo|, |x_hi|)``.  Two BLAS products of k terms (any
    summation order, with or without FMA), the addition that joins them and
    the addition of b err by at most
    ``(gamma_k + 2u(1 + u)(1 + gamma_k)) * mag + u |b|`` with
    ``gamma_k = k u / (1 - k u)``, plus half a subnormal step for each product
    that underflows.  ``(2k + 6) u (mag + |b|) + (2k + 4) tiny`` covers that
    with room for the rounding of ``mag`` and of the bound itself, and the
    final one-ulp pad covers the subtraction of the term.  The bound holds
    for any summation order, so a row's enclosure is sound whatever kernel
    BLAS picks for the call's row count, even where that choice moves its
    bits by an ulp.

    The weights enter as C-contiguous ``(k, m)`` copies of ``max(w, 0).T``,
    ``min(w, 0).T`` and ``|w|.T``, which OpenBLAS multiplies two to three
    times as fast as the transposed views.  The sums, the bias and the error
    term accumulate in place in the product arrays, in the order of
    ``(W+ x_lo + W- x_hi) + b - err``.
    """
    m, k = w.shape
    shape = np.shape(xlo)[:-1] + (m,)
    xlo = np.reshape(xlo, (-1, k))
    xhi = np.reshape(xhi, (-1, k))
    wp = np.ascontiguousarray(np.maximum(w, 0.0).T)
    wn = np.ascontiguousarray(np.minimum(w, 0.0).T)
    lo = xlo @ wp
    hi = xhi @ wp
    part = xhi @ wn
    lo += part
    np.matmul(xlo, wn, out=part)
    hi += part
    lo += b
    hi += b
    mag = np.abs(xlo)
    np.maximum(mag, np.abs(xhi), out=mag)
    err = mag @ np.ascontiguousarray(np.abs(w).T)
    err += np.abs(b)
    err *= (2 * k + 6) * _U
    err += (2 * k + 4) * _TINY
    lo -= err
    hi += err
    return _down(lo).reshape(shape), _up(hi).reshape(shape)


def _idet_arrays(lo, hi):
    """Interval determinant by first-row cofactor expansion; (..., n, n).

    Every minor the expansion reaches is fixed by its bottom rows and an
    ascending tuple of columns.  Minors are therefore built once each, from
    size 1 up: 2^n - 1 minors, where the plain recursion recomputes a minor
    on every path of deleted columns that leads to it.  All minors of one
    size are one array, ``(..., C(n, size))`` in `itertools.combinations`
    order, so each term of the expansion is one array operation over every
    minor of that size.  Each minor is the same expansion along its own
    first row, with the same operations in the same order, so the bits
    equal the recursion's.
    """
    n = lo.shape[-1]
    prev = [(c,) for c in range(n)]
    mlo, mhi = lo[..., n - 1, :], hi[..., n - 1, :]
    for size in range(2, n + 1):
        row = n - size
        combos = list(itertools.combinations(range(n), size))
        rank = {cols: i for i, cols in enumerate(prev)}
        acc_lo = acc_hi = None
        for j in range(size):
            col = [cols[j] for cols in combos]
            minor = [rank[cols[:j] + cols[j + 1 :]] for cols in combos]
            plo, phi = _imul_arrays(lo[..., row, col], hi[..., row, col],
                                    mlo[..., minor], mhi[..., minor])
            if j % 2 == 1:
                plo, phi = -phi, -plo
            if acc_lo is None:
                acc_lo, acc_hi = plo, phi
            else:
                acc_lo = _down(acc_lo + plo)
                acc_hi = _up(acc_hi + phi)
        prev, mlo, mhi = combos, acc_lo, acc_hi
    return mlo[..., 0], mhi[..., 0]


# ---------------------------------------------------------------------------
# activations and their enclosures


def _sigmoid(x):
    # 1/(1 + e^-x) for x >= 0 and e^x/(1 + e^x) below: exp(-|x|) is each form's
    # exponential, and it never overflows
    x = np.asarray(x, dtype=float)
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    e /= d
    return np.where(x >= 0, 1.0 / d, e)


def _tanh_deriv(x):
    # sech^2 keeps relative accuracy where 1 - tanh^2 cancels to zero
    with np.errstate(over="ignore"):
        s = 1.0 / np.cosh(np.asarray(x, dtype=float))
    s *= s
    return s


def _sigmoid_deriv(x):
    # s(x) s(-x) = sech^2(x/2) / 4 exactly.  The product form, once rounded,
    # is not monotone in |x| near 0, so a nested interval could get an
    # enclosure that is not nested; every step of cosh -> 1/c -> c^2 -> /4 is
    # monotone.  Halving and quartering are exact (up to underflow, which
    # loses under one subnormal step), cosh errs by at most an ulp and 1/c
    # and the square by half an ulp each, so the result is within about 4 ulp:
    # inside the 8-ulp `_PAD_DERIV` pad of `_act_deriv_arrays`.
    d = _tanh_deriv(0.5 * np.asarray(x, dtype=float))
    d *= 0.25
    return d


def _identity(x):
    return np.asarray(x, dtype=float).copy()


def _ones_like(x):
    return np.ones_like(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class _Activation:
    f: Callable
    deriv: Callable
    deriv_max: float
    clip_lo: float
    clip_hi: float
    linear: bool = False


_ACTIVATIONS = {
    "tanh": _Activation(np.tanh, _tanh_deriv, 1.0, -1.0, 1.0),
    "sigmoid": _Activation(_sigmoid, _sigmoid_deriv, 0.25, 0.0, 1.0),
    "linear": _Activation(_identity, _ones_like, 1.0, -math.inf, math.inf, linear=True),
}


def _lookup(name: str) -> _Activation:
    """The activation table's entry for ``name``; any other name, hashable or not, is unknown."""
    try:
        return _ACTIVATIONS[name]
    except (KeyError, TypeError):
        raise ValueError(f"unknown activation {name!r}") from None


def _act_range_arrays(name: str, lo, hi):
    """Range enclosure of a monotone activation over [lo, hi] arrays."""
    act = _lookup(name)
    if act.linear:
        return np.asarray(lo, dtype=float).copy(), np.asarray(hi, dtype=float).copy()
    out_lo = _down(act.f(lo), _PAD_ACT)
    out_hi = _up(act.f(hi), _PAD_ACT)
    np.maximum(out_lo, act.clip_lo, out=out_lo)
    np.minimum(out_hi, act.clip_hi, out=out_hi)
    np.minimum(out_lo, out_hi, out=out_lo)
    return out_lo, out_hi


def _act_deriv_arrays(name: str, lo, hi):
    """Enclosure of the activation derivative over [lo, hi] arrays.

    tanh' and sigmoid' are even and unimodal with their maximum at zero, so
    the supremum is the exact peak value when the interval straddles zero and
    an endpoint value otherwise; the infimum is always at an endpoint.
    """
    act = _lookup(name)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if act.linear:
        return np.ones_like(lo), np.ones_like(hi)
    dlo = act.deriv(lo)
    dhi = act.deriv(hi)
    out_lo = _down(np.minimum(dlo, dhi), _PAD_DERIV)
    out_hi = _up(np.maximum(dlo, dhi), _PAD_DERIV)
    np.maximum(out_lo, 0.0, out=out_lo)
    np.minimum(out_hi, act.deriv_max, out=out_hi)
    np.copyto(out_hi, act.deriv_max, where=(lo <= 0.0) & (0.0 <= hi))
    np.maximum(out_hi, out_lo, out=out_hi)
    return out_lo, out_hi
