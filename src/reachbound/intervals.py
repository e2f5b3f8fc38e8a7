"""Validated interval arithmetic as batched ndarray kernels, plus the `Box` value.

The kernels (``_imul_arrays``, ``_nonneg_imul_arrays``,
``_interval_matvec_arrays``, ``_idet_arrays``, ``_act_range_arrays``,
``_act_deriv_arrays`` and ``_deriv_lower``, the zonotope slope) are the
only interval arithmetic: they take ``(lo, hi)`` endpoint arrays with
leading batch axes, and each has one rounding contract.  The box pass and
the Jacobian enclosure share ``_interval_matvec_arrays`` and
``_act_range_arrays``, so the Jacobian's forward pass is the box pass's.
The product's weight operands are an `_Operands` record that each `Layer`
prepares once (`_operands`), and the zonotope pass reads the same record.
Every batched pass adds its bias through `_add_bias`, in same-shape adds of
tiles of `_TILE` elements.  Products and the sums of `_idet_arrays` are
widened outward by at least one ulp per endpoint, with one arithmetic pad
per array (`_down`/`_up`: one product and one sum), built in one buffer
that then holds the result.  The matrix-vector reduction is bounded by one standard
a-priori rounding-error term instead of per-term nudging, which keeps it
vectorizable, and that term also covers its own subtraction, so its
endpoints take no pad.  Libm-backed evaluations (tanh, sigmoid and their
derivatives) are only faithfully rounded.  Tanh and sigmoid are bounded by
1, so their ranges take one absolute step per end, ``_PAD_ACT 2^-53``, in
place; the zonotope slope takes a `_PAD_DERIV` pad.  Only the Jacobian
reads `_act_deriv_arrays` and `_nonneg_imul_arrays`, which take no pad:
their ends lie within a stated relative error of an enclosure's, which the
next product's term charges (``x_ulps``), or after the last layer one
closing step (`topology.jacobian_interval_arrays`).  The kernels accumulate
and clip in arrays they created, never in their inputs, with the float
operations of the plain one-expression forms in the same order, so working
in place changes no bit (``tests/test_intervals.py`` pins them); a linear
activation hands its input arrays back unwritten.  Only
``_act_range_arrays(..., out=)`` writes where its caller says: the box pass
and the Jacobian's hidden layers put each range in the product arrays it
came from.

`Box` is the one interval value, not an algebra: a validated, read-only
``(lo, hi)`` pair of endpoint vectors.  Every other interval quantity (a
Jacobian or determinant enclosure, a batch of cells) stays a plain pair of
endpoint arrays.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

__all__ = ["Box"]

_U = 2.0 ** -53  # unit roundoff, float64
_TINY = 5e-324  # one subnormal step, absolute slack per reduction term
_PAD_ACT = 4  # ulps of outward pad for direct libm evaluations
_ACT_STEP = _PAD_ACT * _U  # P: a padded activation range end's one absolute outward step
_PAD_DERIV = 8  # ulps of outward pad for composed derivative evaluations
_TILE = 8192  # elements of a bias tile in `_Operands`: np.getbufsize(), NumPy's ufunc buffer
_NORMAL = 2.0 ** -1022  # the smallest normal float: ulp(v) <= 2^-52 max(|v|, _NORMAL)
_J_ULPS = _PAD_DERIV + 1  # ulps of an unpadded ``D B`` end: D's, and the product's rounding


def _down(x, steps: int = 1):
    """A float at or below the ``steps``-th float below x, for steps <= 10.

    The pad ``|x| (steps 2^-52) + steps tiny`` is one array expression, and
    it is at least as wide as ``steps`` passes of ``nextafter`` toward -inf:

    - ``steps 2^-52`` and ``steps tiny`` are floats, so the pad takes one
      rounded product and one rounded sum.  ``|x| 2^-52 >= ulp(x)`` for
      normal x, ``steps ulp(x)`` is a float, and rounding is monotone, so
      the rounded product is at least ``steps ulp(x)``, and adding ``steps
      tiny >= 0`` keeps it so.
    - ``tiny`` is the ulp of zero and of every subnormal, so there the sum
      alone gives at least ``steps tiny``.  For ``|x| > 2^-968`` the product
      is normal and ``steps tiny`` is under half its ulp, so the sum rounds
      back to the product; at and below ``2^-968`` the sum can round up by
      one ulp of the product, never down.
    - Moving outward across a power of two at most doubles the ulp, and only
      for the steps past it.  Just below ``2^e``, with ``j < steps`` floats
      left below it and ``v = 2^(e-53)`` their ulp, the exact product
      ``steps (2v - j v 2^-52)`` is at least ``(2 steps - j) v``, the
      distance to the float ``steps`` places outward.  That distance is a
      float, so rounding keeps the pad at least as wide.  Moving inward the
      ulp only shrinks.
    - The subtraction rounds to nearest and rounding is monotone, and the
      ``steps``-th float outward is a float that the exact difference does
      not pass, so the result is at or beyond it.

    The Jacobian's closing step (``s = _J_ULPS + 1 = 10``, in
    `topology.jacobian_interval_arrays`) reads a relative bound instead of
    a float count.  With ``u = 2^-53`` and ``m = max(|x|, 2^-1022)``, the
    result lies at least ``(2s (1 - u)^3 - 1) u m`` below a normal x: the
    rounded product and sum keep at least ``2 s u |x| (1 - u)^2``, and the
    subtraction loses at most ``u |x - pad| <= u (|x| + pad)``.  Below
    ``2^-1022`` the product can fall short by half a subnormal step, ``u
    2^-1022``, so the pad is at least ``(2s - 1) u m (1 - u)`` and the
    result lies at least ``((2s - 1)(1 - u)^2 - 1) u m`` below x.  `_up`
    is symmetric.

    Infinities: ``_down(-inf)`` and ``_up(+inf)`` stay infinite, while
    ``_down(+inf)`` and ``_up(-inf)`` give NaN where ``nextafter`` gave the
    largest finite float.  Only an overflow reaches them: a lower end is
    +inf only when the exact value exceeds the largest float.
    `_imul_arrays`, the sums of `_idet_arrays`, the zonotope slope
    (`_deriv_lower`) and the Jacobian's closing step pass it to the pad, and
    that interval's upper end is then +inf or NaN too.  The activation
    ranges take an absolute step and a clip instead (`_act_range_arrays`):
    their ends stay within the activation's bounds, and a NaN stays NaN.
    `_interval_matvec_arrays`, `_act_deriv_arrays` and `_nonneg_imul_arrays`
    have no pad.  A matrix-vector sum that overflows becomes NaN (``inf -
    inf``) when its rounding term overflows too, and stays infinite when
    the term is finite.  That infinity lies on the exact value's side:
    every partial sum is bounded by the magnitude sum ``M``, and a finite
    term bounds ``M`` by ``MAX / (1 - gamma_k)``, so a sum that overflows
    to +inf has a positive exact value.  A finite sum that the term pushes
    past the float range gives an outward infinity.  A NaN end fails every
    comparison, so it certifies nothing and passes no safe-box test, an
    infinite end passes only a sign test that holds of the exact value, and
    `Box` rejects both: such a verdict ends in an error, not a wrong answer.

    The pad is built in one new float64 array of x's shape, and the
    difference is written into it, so x is never written.  Its operations
    and their order are those of ``x - (|x| (steps 2^-52) + steps tiny)``,
    so the bits are the plain expression's, and a scalar or 0-d x gives a
    0-d array.
    """
    pad = _pad(x, steps)
    return np.subtract(x, pad, out=pad)


def _up(x, steps: int = 1):
    """A float at or above the ``steps``-th float above x; see `_down`."""
    pad = _pad(x, steps)
    return np.add(x, pad, out=pad)


def _pad(x, steps: int):
    """``|x| (steps 2^-52) + steps tiny`` in one new float64 array of x's shape: three passes."""
    pad = np.abs(x, out=np.empty(np.shape(x)))
    pad *= steps * 2 * _U
    pad += steps * _TINY
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
    """The rounded corner products of ``[dlo, dhi] [blo, bhi]`` for ``dlo >= 0``: two products.

    With ``D >= 0`` the lower end is ``dlo blo`` where ``blo >= 0`` and
    ``dhi blo`` otherwise, and the upper end ``dhi bhi`` where ``bhi >= 0``
    and ``dlo bhi`` otherwise, where `_imul_arrays` takes four corners.
    The selected corner is the extreme real product and rounding is
    monotone, so for finite ``B``, `_down` and `_up` of these ends, which
    map ``+0`` and ``-0`` alike, are `_imul_arrays`' bounds bit for bit.

    The ends take no pad.  When the exact D lies in ``[dlo (1 - r), dhi
    (1 + r)]`` (`_act_deriv_arrays`, ``r = _PAD_DERIV 2^-52``), the exact
    lower end is at least ``P - r|P|`` for the selected corner ``P = d
    blo``, and ``|P - fl(P)| <= u max(|fl(P)|, _NORMAL)`` (half an ulp, or
    half a subnormal step).  So each end lies within ``c max(|end|,
    _NORMAL)`` of an enclosure's, ``c = u + r (1 + u)``: under `_J_ULPS`
    ulps in the sense of ``x_ulps`` of `_interval_matvec_arrays`, which the
    Jacobian's next product charges, and within what its closing step
    covers after the last layer (see `_down`).  The upper end is symmetric.
    """
    lo = np.where(blo >= 0.0, dlo, dhi)
    lo *= blo
    hi = np.where(bhi >= 0.0, dhi, dlo)
    hi *= bhi
    return lo, hi


class _Operands(NamedTuple):
    """``x -> w x + b`` for a point matrix w (m, k), as the kernels read it.

    Read-only C-contiguous ``(k, m)`` copies of ``w.T``, ``max(w, 0).T``,
    ``min(w, 0).T`` and ``|w|.T``, which OpenBLAS multiplies two to three
    times as fast as the transposed views, then ``b`` and ``|b|`` as
    ``(ceil(_TILE / m), m)`` tiles of equal rows for `_add_bias`: at least
    `_TILE` elements, whatever the width.  A `Layer` builds its own once,
    so no pass rebuilds them per call.
    """

    t: np.ndarray
    pos: np.ndarray
    neg: np.ndarray
    mag: np.ndarray
    bias_tile: np.ndarray
    bias_mag_tile: np.ndarray


def _operands(w, b) -> _Operands:
    """The `_Operands` of ``x -> w x + b``, as copies: the caller's arrays stay writable.

    A 0-d ``b`` (a zero bias) is broadcast to ``(m,)`` before it is tiled.
    """
    t = np.array(np.asarray(w, dtype=float).T, order="C")
    m = t.shape[1]
    tile = np.tile(np.broadcast_to(np.asarray(b, dtype=float), (m,)), (-(-_TILE // m), 1))
    parts = (t, np.maximum(t, 0.0), np.minimum(t, 0.0), np.abs(t), tile, np.abs(tile))
    for p in parts:
        p.setflags(write=False)
    return _Operands(*parts)


def _add_bias(rows, tile):
    """``rows += tile[0]`` for C-contiguous rows (..., m) and a `_Operands` bias tile (T, m).

    NumPy runs that ``(N, m) += (m,)`` broadcast row by row, up to three
    times as slow on narrow rows, so every add here has operands of one
    shape.  A batch of at most one tile takes the tile's head, ``rows +=
    tile[:N]``.  A longer one is viewed as ``(N, m)``: its first ``N - N %
    T`` rows as ``(N // T, T, m)`` blocks that take the whole tile, and the
    rest the tile's head.  With tiles of `_TILE` elements, one ufunc
    buffer, a ``(4096, 8)`` add costs about what a same-shape add does.
    Each element gets the same one IEEE addition as in the broadcast.
    ``copy=False`` refuses rows that only a copy can flatten to ``(N, m)``:
    the add would be lost in the copy.
    """
    t, m = tile.shape
    n = rows.size // m
    if n <= t:
        rows += tile[:n].reshape(rows.shape)
        return
    rows = rows.reshape(-1, m, copy=False)
    body = n - n % t
    blocks = rows[:body].reshape(body // t, t, m)
    blocks += tile
    if body < n:
        rows[body:] += tile[:n - body]


def _interval_matvec_arrays(op: _Operands, xlo, xhi, bias: bool = True, x_ulps: int = 0):
    """Enclose w @ x + b for `_Operands` of a point matrix w (m, k) over interval vectors x (..., k).

    The leading axes of x are flattened into one BLAS product, so ``(k,)``
    bounds make the same call as a ``(1, k)`` batch.  The sign split
    ``W+ x_lo + W- x_hi`` and ``W+ x_hi + W- x_lo`` gives the exact real
    endpoints, since each product w_ij * x_j is monotone in x_j with the sign
    of w_ij.  Rounding: each endpoint is a sum of 2k products, of which at
    most k are nonzero, so the sum of their magnitudes is at most
    ``mag = |w| @ max(|x_lo|, |x_hi|)``.  Every caller passes ordered
    enclosures, ``x_lo <= x_hi``, and there ``max(-x_lo, x_hi)`` is that
    maximum bit for bit (up to the sign of a zero, which the ``+ tiny`` term
    erases), in two array passes where the absolute values take three.  Two
    BLAS products of k terms (any summation order, with or without FMA), the
    addition that joins them and the addition of b err by at most
    ``(gamma_k + 2u(1 + u)(1 + gamma_k)) * mag + u |b|`` with
    ``gamma_k = k u / (1 - k u)``, plus half a subnormal step for each product
    that underflows.  ``(2k + 6) u (mag + |b|) + (2k + 4) tiny`` covers that
    with room for the rounding of ``mag``, of the bound itself and of its
    subtraction, so ``lo - err`` and ``hi + err`` are returned as they are:

    - Take one output's lower end ``L*``, its entry ``M`` of ``mag`` and
      its computed sum ``S``.  By the above, ``|S - L*| <= e1 =
      (gamma_k + 2u(1 + u)(1 + gamma_k)) M + u|b| + k tiny``.
    - The computed term ``E`` is at least ``(1 - u)^(k + 4)`` times
      ``(2k + 6) u (M + |b|) + (2k + 4) tiny``, less under one tiny for the
      term's own underflow: the k roundings of ``mag``, the ``+ |b|``, the
      scaling and the ``+ tiny`` each lose at most a factor ``1 - u``.
    - ``S - E`` rounds to nearest, so ``fl(S - E) <= S - E + u|S - E|``,
      and a subnormal difference is exact.  With ``|S| <= M + |b| + e1``,
      ``fl(S - E) <= L*`` holds once ``E(1 - u) >= e1(1 + u) + u(M + |b|)``.
      To first order that asks ``(k + 3) u (M + |b|)``; the term charges
      ``(2k + 6) u``, twice as much.  The tiny parts likewise:
      ``(2k + 4) tiny`` leaves more than ``k tiny + tiny / 2``.
    - The upper end is symmetric.

    The bound holds for any summation order, so a row's enclosure is sound
    whatever kernel BLAS picks for the call's row count, even where that
    choice moves its bits by an ulp.  An overflowed sum gives NaN or an
    infinite end on the exact value's side; see `_down`.

    ``x_ulps = s > 0`` (the Jacobian's hidden layers only) encloses w x + b
    over a box wider than ``[xlo, xhi]``: each end may lie inside an
    enclosure by up to ``s 2^-52 max(|end|, _NORMAL)``, s ulps of the end
    (a subnormal's ulp is ``tiny = 2^-52 _NORMAL``).  The term charges them:

    - Widening ``x_j`` by ``e_j`` moves each exact end by at most
      ``|w_ij| e_j``, so by at most ``s 2^-52 M'`` in all, with ``M' =
      |w| @ max(mag, _NORMAL)``.  The magnitude takes that floor, one more
      pass, and its coefficient ``(2k + 6 + 2s) u`` is a float.
    - The argument above holds with ``M'`` for ``M``, since ``M' >= M``.
      The term is ``(2k + 6) u (M' + |b|) + (2k + 4) tiny`` as before, plus
      ``s 2^-52 (M' + |b|)``, computed at most a factor ``(1 - u)^(k + 5)``
      short.  That falls short of ``s 2^-52 M'`` by at most ``s 2^-52 (k + 5)
      u M'``, and the first-order spare ``(k + 3) u M'`` above covers it for
      any ``s 2^-52 <= 1/2``, with room for the spare's own second-order terms.

    The sums, the bias and the error term accumulate in place in the
    product arrays, in the order of ``(W+ x_lo + W- x_hi) + b - err``,
    the same with the bias added through `_add_bias`'s tiles.  The results
    are those product arrays, new on every call.
    ``bias=False`` encloses ``w @ x`` (the Jacobian's ``W J``) and skips the
    three bias additions: adding ``+0`` only turns ``-0`` into ``+0``, and
    the positive ``err`` subtracted or added next maps both to the same
    float, so the bits are those of ``b = 0``.
    """
    k, m = op.t.shape
    shape = np.shape(xlo)[:-1] + (m,)
    xlo = np.reshape(xlo, (-1, k))
    xhi = np.reshape(xhi, (-1, k))
    lo = xlo @ op.pos
    hi = xhi @ op.pos
    part = xhi @ op.neg
    lo += part
    np.matmul(xlo, op.neg, out=part)
    hi += part
    if bias:
        _add_bias(lo, op.bias_tile)
        _add_bias(hi, op.bias_tile)
    mag = np.negative(xlo)
    np.maximum(mag, xhi, out=mag)
    if x_ulps:
        np.maximum(mag, _NORMAL, out=mag)
    err = mag @ op.mag
    if bias:
        _add_bias(err, op.bias_mag_tile)
    err *= (2 * k + 6 + 2 * x_ulps) * _U
    err += (2 * k + 4) * _TINY
    lo -= err
    hi += err
    return lo.reshape(shape), hi.reshape(shape)


def _idet_arrays(lo, hi):
    """Interval determinant by first-row cofactor expansion; (..., n, n).

    ``minor(cols)``, on the bottom rows and the ascending columns ``cols``,
    expands along its own first row.  Its cache, one per call, expands each
    of the 2^n - 1 minors once, in n 2^(n-1) - n interval products (186 at
    n = 6, where the plain recursion makes 1 236), with the recursion's
    operations in its order, so the bits are the recursion's.
    """
    n = lo.shape[-1]

    @functools.cache
    def minor(cols):
        row = n - len(cols)
        if len(cols) == 1:
            return lo[..., row, cols[0]], hi[..., row, cols[0]]
        for j, c in enumerate(cols):
            sub_lo, sub_hi = minor(cols[:j] + cols[j + 1:])
            plo, phi = _imul_arrays(lo[..., row, c], hi[..., row, c], sub_lo, sub_hi)
            if j % 2 == 1:
                plo, phi = -phi, -plo
            acc = (plo, phi) if j == 0 else (_down(acc[0] + plo), _up(acc[1] + phi))
        return acc

    return minor(tuple(range(n)))


# ---------------------------------------------------------------------------
# activations and their enclosures


def _sigmoid(x, out=None):
    # 1/(1 + e^-x) for x >= 0 and e^x/(1 + e^x) below: exp(-|x|) is each form's
    # exponential, and it never overflows.  One division serves both forms:
    # where(x >= 0, 1, e) / (1 + e), the numerator built in e and the divisor
    # in ``out`` (a new array, or the caller's, which may be x itself).
    x = np.asarray(x, dtype=float)
    pos = x >= 0
    e = np.abs(x, out=np.empty(x.shape))
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.add(e, 1.0, out=np.empty(x.shape) if out is None else out)
    np.copyto(e, 1.0, where=pos)
    return np.divide(e, out, out=out)


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
    # inside the 8-ulp `_PAD_DERIV` that `_act_deriv_arrays` states and `_deriv_lower` pads.
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


def _act_range_arrays(name: str, lo, hi, out=None):
    """Range enclosure of a monotone activation over [lo, hi] arrays.

    The range is built in two new arrays, or in ``out``, a pair of float64
    arrays of the inputs' shape, which may be ``(lo, hi)`` themselves: the
    box pass and the Jacobian's hidden layers hand over the product arrays
    they have just made.  Either way the float operations and their order
    are the same, and so are the bits, so both passes read one range.
    A linear layer's ``lo`` and ``hi`` are returned as they are, unwritten
    and not copied, whatever ``out``: callers pass fresh
    `_interval_matvec_arrays` results and only read what comes back.

    Tanh and sigmoid are bounded: their exact values lie in ``[clip_lo,
    clip_hi]``, ``[-1, 1]`` or ``[0, 1]``, and so do libm's (`_sigmoid`
    divides 1 or e by a rounded ``1 + e``, which is at least both; the
    decimal test named below checks ``np.tanh``).  So the range moves each
    end of libm's values ``y = f(lo)`` and ``f(hi)`` outward by one
    absolute step, ``P = _PAD_ACT 2^-53`` (`_ACT_STEP`), in place, and then
    clips: four array passes after the two libm calls, and no new array.
    Floats in ``[-1, 1]`` lie at most ``2^-53`` apart, so P spans at least
    `_PAD_ACT` of them.  With ``t`` the exact value and ``y_k`` the k-th
    float below y, ``k = _PAD_ACT``:

    - libm's value lies within k floats of the exact one (checked at the
      hard points by ``test_padded_ranges_enclose_the_decimal_values``),
      so ``t >= y_k``, and ``t >= clip_lo`` as the range's own bound.
    - If ``y_k >= -1``, the k steps from y down to ``y_k`` each span at most
      ``2^-53``, so the exact ``y - P`` is at or below ``y_k``.  Rounding is
      monotone and ``y_k`` is a float, so the rounded difference is at or
      below it too, in whatever binade it lands: where ``y - P`` crosses a
      power of two and the spacing changes, the float ``y_k`` still caps
      the rounding, as in `_down`.
    - If ``y_k < -1``, y lies fewer than k floats above -1, so ``y + 1 <
      P``, the difference rounds to -1 or below (-1 is a float), and the
      clip sets the end to -1.
    - So the clipped end is at or below ``max(y_k, clip_lo) <= t``.  The
      clips are exact: each moves an end only to a bound of the exact
      range.  The upper end is symmetric, with ``y + P`` and ``clip_hi``.
    - The ends cannot cross.  For ``lo <= hi`` each end holds the exact
      value at its own point, and exact tanh and sigmoid are monotone, so
      ``out_lo <= f(lo) <= f(hi) <= out_hi`` with no ``min(out_lo,
      out_hi)`` guard, although libm need not be monotone.  A NaN input
      gives NaN ends.

    Against `_down`/`_up`'s relative pad of ``k 2^-52 |y| + k tiny``: for
    ``|y| >= 1/2`` that pad is at least P, so the new ends are never wider
    there; near 0 they are, and a point range at tanh's origin is exactly
    ``2P`` (about 8.9e-16) wide, where `_down`/`_up` give 8 subnormal
    steps.
    """
    act = _lookup(name)
    if act.linear:
        return lo, hi
    if out is None:  # np.tanh: 0-d in, scalar out
        out_lo, out_hi = np.asarray(act.f(lo)), np.asarray(act.f(hi))
    else:
        out_lo, out_hi = act.f(lo, out=out[0]), act.f(hi, out=out[1])
    out_lo -= _ACT_STEP
    out_hi += _ACT_STEP
    np.maximum(out_lo, act.clip_lo, out=out_lo)
    np.minimum(out_hi, act.clip_hi, out=out_hi)
    return out_lo, out_hi


def _act_deriv_arrays(name: str, lo, hi):
    """Enclosure of the activation derivative over [lo, hi] arrays, within a relative error.

    tanh' and sigmoid' are even and unimodal with their maximum at zero, so
    the supremum is the exact peak value when the interval straddles zero and
    an endpoint value otherwise; the infimum is always at an endpoint.

    The ends take no pad: the exact derivative lies in ``[lo' (1 - r), hi'
    (1 + r)]`` with ``r = _PAD_DERIV 2^-52``, a relative error alone, as
    `_nonneg_imul_arrays` needs it.  Libm's value lies within `_PAD_DERIV`
    ulps, ``r max(d, _NORMAL)``, so the upper end is floored at `_NORMAL`,
    and a lower end below `_NORMAL` becomes 0, which the nonnegative
    derivative never passes.  Scalar and 0-d ends give 0-d arrays.
    """
    act = _lookup(name)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if act.linear:
        return np.ones_like(lo), np.ones_like(hi)
    dlo = np.asarray(act.deriv(lo))  # np.cosh: 0-d in, scalar out
    dhi = np.asarray(act.deriv(hi))
    out_lo = np.minimum(dlo, dhi, out=np.empty(dlo.shape))
    np.copyto(out_lo, 0.0, where=out_lo < _NORMAL)
    out_hi = np.maximum(dlo, dhi, out=dhi)
    np.maximum(out_hi, _NORMAL, out=out_hi)
    np.minimum(out_hi, act.deriv_max, out=out_hi)
    np.copyto(out_hi, act.deriv_max, where=(lo <= 0.0) & (0.0 <= hi))
    np.maximum(out_hi, out_lo, out=out_hi)
    return out_lo, out_hi


def _deriv_lower(dlo, dhi):
    """The zonotope slope ``max(down(min(dlo, dhi), _PAD_DERIV), 0)``: a derivative's lower bound.

    Derivatives are nonnegative, and the infimum is at an end.
    """
    out = _down(np.minimum(dlo, dhi), _PAD_DERIV)
    np.maximum(out, 0.0, out=out)
    return out
