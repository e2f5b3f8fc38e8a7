"""Validated interval arithmetic as batched ndarray kernels, plus the value types.

The kernels (``_imul_arrays``, ``_sum_enclose``, ``_point_imatmul_arrays``,
``_interval_matvec_arrays``, ``_idet_arrays``, ``_act_range_arrays`` and
``_act_deriv_arrays``) are the only interval arithmetic: they take ``(lo, hi)``
endpoint arrays with leading batch axes and return an enclosure of the true
real-arithmetic result set.  IEEE-exact operations (+, -, *) are widened by one
`nextafter` step per endpoint; libm-backed evaluations (tanh, sigmoid and their
derivatives) are only faithfully rounded, so their endpoints get a wider fixed
pad.  Reductions (dot products, sums) are bounded with a standard a-priori
rounding-error term instead of per-term nudging, which keeps them vectorizable.

`Interval`, `Box` and `IntervalMatrix` are validated values, not an algebra:
a box is a product of intervals, and an interval matrix is the ``(lo, hi)``
pair that encloses a Jacobian.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "Interval",
    "Box",
    "IntervalMatrix",
    "activation_names",
    "activation_function",
    "activation_derivative",
]

_U = 2.0 ** -53  # unit roundoff, float64
_TINY = 5e-324  # one subnormal step, absolute slack per reduction term
_PAD_ACT = 4  # nextafter steps for direct libm evaluations
_PAD_DERIV = 8  # nextafter steps for composed derivative evaluations


def _down(x, steps: int = 1):
    for _ in range(steps):
        x = np.nextafter(x, -np.inf)
    return x


def _up(x, steps: int = 1):
    for _ in range(steps):
        x = np.nextafter(x, np.inf)
    return x


# ---------------------------------------------------------------------------
# value types


@dataclass(frozen=True)
class Interval:
    """Closed real interval [lo, hi] with finite endpoints."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError(f"interval endpoints must be finite, got [{self.lo}, {self.hi}]")
        if self.lo > self.hi:
            raise ValueError(f"interval lower bound exceeds upper: [{self.lo}, {self.hi}]")

    @staticmethod
    def point(v: float) -> "Interval":
        return Interval(float(v), float(v))

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def contains(self, value: float) -> bool:
        return self.lo <= value <= self.hi

    def encloses(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def intersects(self, other: "Interval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def hull(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def __repr__(self) -> str:
        return f"[{self.lo!r}, {self.hi!r}]"


# ---------------------------------------------------------------------------
# boxes


@dataclass(frozen=True)
class Box:
    """Axis-aligned product of intervals; degenerate faces are allowed."""

    dims: tuple[Interval, ...]

    def __post_init__(self):
        if not self.dims:
            raise ValueError("box must have at least one dimension")

    @staticmethod
    def from_bounds(bounds: Iterable[Sequence[float]]) -> "Box":
        return Box(tuple(Interval(float(lo), float(hi)) for lo, hi in bounds))

    @staticmethod
    def from_arrays(lo: np.ndarray, hi: np.ndarray) -> "Box":
        lo = np.asarray(lo, dtype=float).ravel()
        hi = np.asarray(hi, dtype=float).ravel()
        if lo.shape != hi.shape:
            raise ValueError("bound arrays must have matching shapes")
        return Box(tuple(Interval(float(a), float(b)) for a, b in zip(lo, hi)))

    @staticmethod
    def point(vec: Iterable[float]) -> "Box":
        return Box(tuple(Interval.point(v) for v in vec))

    @property
    def dim(self) -> int:
        return len(self.dims)

    @property
    def lo(self) -> np.ndarray:
        return np.array([d.lo for d in self.dims])

    @property
    def hi(self) -> np.ndarray:
        return np.array([d.hi for d in self.dims])

    def widths(self) -> np.ndarray:
        return self.hi - self.lo

    def midpoint(self) -> np.ndarray:
        return 0.5 * (self.lo + self.hi)

    def is_degenerate(self, k: int) -> bool:
        return self.dims[k].lo == self.dims[k].hi

    def degenerate_dims(self) -> tuple[int, ...]:
        return tuple(k for k in range(self.dim) if self.is_degenerate(k))

    def contains_point(self, x) -> bool:
        x = np.asarray(x, dtype=float)
        self._check_dim(x.shape[-1])
        return bool(np.all(self.lo <= x) and np.all(x <= self.hi))

    def contains_box(self, other: "Box") -> bool:
        self._check_dim(other.dim)
        return all(a.encloses(b) for a, b in zip(self.dims, other.dims))

    def intersects(self, other: "Box") -> bool:
        # closed convention: shared faces and corners count
        self._check_dim(other.dim)
        return all(a.intersects(b) for a, b in zip(self.dims, other.dims))

    def hull(self, other: "Box") -> "Box":
        self._check_dim(other.dim)
        return Box(tuple(a.hull(b) for a, b in zip(self.dims, other.dims)))

    def _check_dim(self, d: int) -> None:
        if d != self.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {d}")

    def __iter__(self) -> Iterator[Interval]:
        return iter(self.dims)

    def __repr__(self) -> str:
        return " x ".join(repr(d) for d in self.dims)


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


def _sum_enclose(lo, hi, axis):
    """Interval sum along `axis` with an a-priori rounding-error bound."""
    k = lo.shape[axis]
    slo = lo.sum(axis=axis)
    shi = hi.sum(axis=axis)
    mag = np.maximum(np.abs(lo), np.abs(hi)).sum(axis=axis)
    err = (k + 2) * _U * mag + (k + 1) * _TINY
    return _down(slo - err), _up(shi + err)


def _point_imatmul_arrays(w, blo, bhi):
    """Enclose w @ B for a point matrix w (m, k) and interval matrices B (..., k, n).

    The sign split ``W+ @ Blo + W- @ Bhi`` and ``W+ @ Bhi + W- @ Blo`` gives
    the exact real endpoints, since each product w_ik * b_kj is monotone in
    b_kj with the sign of w_ik.  Rounding: each endpoint is a sum of 2k
    products, of which at most k are nonzero, so the sum of their magnitudes
    is at most ``mag = |w| @ max(|Blo|, |Bhi|)``.  Two BLAS products of k
    terms (any summation order, with or without FMA) and the addition that
    joins them err by at most ``(gamma_k + u(1 + gamma_k)) * mag`` with
    ``gamma_k = k u / (1 - k u)``, plus half a subnormal step for each product
    that underflows.  ``(2k + 4) u * mag + (2k + 2) * tiny`` covers that
    with room for the rounding of ``mag`` itself, and the final `nextafter`
    step covers the subtraction of the term.
    """
    wp = np.maximum(w, 0.0)
    wn = np.minimum(w, 0.0)
    lo = wp @ blo + wn @ bhi
    hi = wp @ bhi + wn @ blo
    mag = np.abs(w) @ np.maximum(np.abs(blo), np.abs(bhi))
    k = w.shape[1]
    err = (2 * k + 4) * _U * mag + (2 * k + 2) * _TINY
    return _down(lo - err), _up(hi + err)


def _interval_matvec_arrays(w, b, xlo, xhi):
    """Enclose w @ x + b over per-row interval vectors x; x batched (..., k)."""
    wp = np.maximum(w, 0.0)
    wn = np.minimum(w, 0.0)
    lo = xlo @ wp.T + xhi @ wn.T
    hi = xhi @ wp.T + xlo @ wn.T
    mag = np.maximum(np.abs(xlo), np.abs(xhi)) @ np.abs(w).T
    k = w.shape[1]
    err = (2 * k + 6) * _U * (mag + np.abs(b)) + (2 * k + 4) * _TINY
    return _down(lo + b - err), _up(hi + b + err)


def _idet_arrays(lo, hi):
    """Interval determinant by first-row cofactor expansion; (..., n, n).

    Every minor the expansion reaches is fixed by its bottom rows and an
    ascending tuple of columns.  Minors are therefore built once each, from
    size 1 up, and stored by column tuple: 2^n - 1 minors, where the plain
    recursion recomputes a minor on every path of deleted columns that leads
    to it.  Each minor is the same expansion along its own first row, with
    the same operations in the same order, so the bits equal the recursion's.
    """
    n = lo.shape[-1]
    minors = {(c,): (lo[..., n - 1, c], hi[..., n - 1, c]) for c in range(n)}
    for size in range(2, n + 1):
        row = n - size
        larger = {}
        for cols in itertools.combinations(range(n), size):
            acc_lo = None
            acc_hi = None
            for j, c in enumerate(cols):
                dlo, dhi = minors[cols[:j] + cols[j + 1 :]]
                plo, phi = _imul_arrays(lo[..., row, c], hi[..., row, c], dlo, dhi)
                if j % 2 == 1:
                    plo, phi = -phi, -plo
                if acc_lo is None:
                    acc_lo, acc_hi = plo, phi
                else:
                    acc_lo = _down(acc_lo + plo)
                    acc_hi = _up(acc_hi + phi)
            larger[cols] = acc_lo, acc_hi
        minors = larger
    return minors[tuple(range(n))]


# ---------------------------------------------------------------------------
# interval matrices


@dataclass(frozen=True)
class IntervalMatrix:
    """Rectangular matrix of intervals, stored as validated endpoint arrays."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        if lo.ndim != 2 or lo.shape != hi.shape:
            raise ValueError("interval matrix requires two 2-d endpoint arrays of equal shape")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ValueError("interval matrix entries must be finite")
        if np.any(lo > hi):
            raise ValueError("interval matrix has an entry with lo > hi")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)


# ---------------------------------------------------------------------------
# activations and their enclosures


def _sigmoid(x):
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _tanh_deriv(x):
    # sech^2 keeps relative accuracy where 1 - tanh^2 cancels to zero
    with np.errstate(over="ignore"):
        s = 1.0 / np.cosh(np.asarray(x, dtype=float))
    return s * s


def _sigmoid_deriv(x):
    # s(x) s(-x) = sech^2(x/2) / 4 exactly.  The product form, once rounded,
    # is not monotone in |x| near 0, so a nested interval could get an
    # enclosure that is not nested; every step of cosh -> 1/c -> c^2 -> /4 is
    # monotone.  Halving and quartering are exact (up to underflow, which
    # loses under one subnormal step), cosh errs by at most an ulp and 1/c
    # and the square by half an ulp each, so the result is within about 4 ulp:
    # inside the `_PAD_DERIV` pad of `_act_deriv_arrays`.
    return 0.25 * _tanh_deriv(0.5 * np.asarray(x, dtype=float))


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


def activation_names() -> tuple[str, ...]:
    return tuple(_ACTIVATIONS)


def _lookup(name: str) -> _Activation:
    try:
        return _ACTIVATIONS[name]
    except KeyError:
        raise ValueError(f"unknown activation {name!r}") from None


def activation_function(name: str) -> Callable:
    return _lookup(name).f


def activation_derivative(name: str) -> Callable:
    return _lookup(name).deriv


def _act_range_arrays(name: str, lo, hi):
    """Range enclosure of a monotone activation over [lo, hi] arrays."""
    act = _lookup(name)
    if act.linear:
        return np.asarray(lo, dtype=float).copy(), np.asarray(hi, dtype=float).copy()
    flo = act.f(lo)
    fhi = act.f(hi)
    out_lo = np.maximum(_down(flo, _PAD_ACT), act.clip_lo)
    out_hi = np.minimum(_up(fhi, _PAD_ACT), act.clip_hi)
    return np.minimum(out_lo, out_hi), out_hi


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
    out_lo = np.maximum(_down(np.minimum(dlo, dhi), _PAD_DERIV), 0.0)
    capped = np.minimum(_up(np.maximum(dlo, dhi), _PAD_DERIV), act.deriv_max)
    straddle = (lo <= 0.0) & (0.0 <= hi)
    out_hi = np.where(straddle, act.deriv_max, capped)
    return out_lo, np.maximum(out_hi, out_lo)
