"""Sound set propagation through a network: interval boxes and zonotopes.

A zonotope holds ``{c + G eps : eps in [-1,1]^g}`` plus a per-dimension
``slack`` box that absorbs floating-point drift from affine images and
activation transformers, so every concretization (and every float evaluation
of a contained point) stays inside the reported set.  Its generators are
generator-major, ``(g, ..., d)``: a batch's generators are the rows of one
matrix, so each affine image is one matrix product and each sum over the
generators runs over the outermost axis.  Every rounding term is an a-priori
bound that holds in any summation order.  Both domains take batched cells:
`box_propagate_arrays` and `zono_propagate` map ``(..., n)`` cell bounds to
``(..., m)`` output hulls in array passes over blocks of ``_BLOCK`` cells
(`_map_row_blocks`).  A box gives a zonotope one generator per dimension,
zero where its width is zero, so faces, points and grid cells share one
generator count in a batch.  Neither domain checks values mid-pass: a NaN or
infinity propagates to the output hull, and `Box` refuses it (see `_down`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np

from .intervals import (
    Box,
    _act_deriv_arrays,
    _act_range_arrays,
    _down,
    _interval_matvec_arrays,
    _lookup,
    _TINY,
    _U,
    _up,
)
from .network import Network

__all__ = [
    "Zonotope",
    "normalize_domain",
    "box_propagate_arrays",
    "zono_from_box",
    "zono_affine",
    "zono_activation",
    "zono_propagate",
]

DOMAINS = ("box", "zono")


def normalize_domain(tag: str) -> str:
    if tag not in DOMAINS:
        raise ValueError(f"unknown abstract domain {tag!r}")
    return tag


# ---------------------------------------------------------------------------
# row blocks

_BLOCK = 4096  # rows per array pass: bounds every per-layer array of a batched pass


def _map_row_blocks(net: Network, fn, lo, hi, tails, dtype=float):
    """``fn(lo, hi)`` over blocks of at most ``_BLOCK`` rows of (..., input_dim) bounds.

    ``fn`` maps (rows, n) bounds to one array per entry of ``tails``, shaped
    ``(rows,) + tail``, which fills those rows of a preallocated output; the
    outputs come back shaped ``lo.shape[:-1] + tail``.  No rows make no call.
    The blocks are near-equal, so a batch of two or more rows never runs a
    one-row block: NumPy computes a one-row matrix product as a
    matrix-vector product, whose sums can round differently.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if lo.shape[-1] != net.input_dim:
        raise ValueError(f"cell dimension {lo.shape[-1]} != input dim {net.input_dim}")
    rows_lo = lo.reshape(-1, net.input_dim)
    rows_hi = hi.reshape(rows_lo.shape)
    rows = rows_lo.shape[0]
    outs = [np.empty((rows,) + tail, dtype=dtype) for tail in tails]
    count = -(-rows // _BLOCK)
    for j in range(count):
        block = slice(j * rows // count, (j + 1) * rows // count)
        for out, part in zip(outs, fn(rows_lo[block], rows_hi[block])):
            out[block] = part
    return tuple(out.reshape(lo.shape[:-1] + tail) for out, tail in zip(outs, tails))


# ---------------------------------------------------------------------------
# interval-box propagation


def box_propagate_arrays(net: Network, lo: np.ndarray, hi: np.ndarray):
    """Propagate batched boxes (..., input_dim) through every layer, in row blocks."""

    def layers(lo, hi):
        for layer in net.layers:
            zlo, zhi = _interval_matvec_arrays(layer.weights, layer.bias, lo, hi)
            lo, hi = _act_range_arrays(layer.activation, zlo, zhi)
        return lo, hi

    return _map_row_blocks(net, layers, lo, hi, ((net.output_dim,),) * 2)


# ---------------------------------------------------------------------------
# zonotopes


@dataclass(frozen=True)
class Zonotope:
    """Affine sets c + G eps with eps in [-1,1]^g, plus a rounding slack box.

    ``center`` and ``slack`` are ``(..., d)``.  ``generators`` is
    generator-major, ``(g, ..., d)``: ``generators[j]`` is generator j of
    every zonotope in the batch, so the leading axes after the first index a
    batch that shares one generator count, a sum over the generators runs
    over the outermost, contiguous axis, and the generators of a batch are
    the rows of one 2-D matrix.  Construction checks shapes and the slack's
    sign, not finiteness: a non-finite value gives non-finite hull ends.
    """

    center: np.ndarray
    generators: np.ndarray
    slack: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        c = np.asarray(self.center, dtype=float)
        g = np.asarray(self.generators, dtype=float)
        if c.ndim < 1:
            raise ValueError("zonotope center must be a vector")
        if g.shape[1:] != c.shape:
            raise ValueError("generators must be a (count, ..., dim) array matching the center")
        s = self.slack
        s = np.zeros_like(c) if s is None else np.asarray(s, dtype=float)
        if s.shape != c.shape or np.any(s < 0):
            raise ValueError("slack must be a nonnegative vector matching the center")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "generators", g)
        object.__setattr__(self, "slack", s)

    @property
    def dim(self) -> int:
        return self.center.shape[-1]

    def hull_arrays(self):
        """Outward-rounded interval hulls, ``(lo, hi)`` of shape (..., d).

        Dimension i lies within ``r_i + slack_i`` of ``c_i``, ``r_i = sum_j |G_ij|``.
        The float sum of g nonnegative terms, in any order, undershoots
        ``r_i`` by less than ``(g - 1) u r_i``; adding the error term and the
        slack rounds by at most ``u`` of each sum.  ``(g + 2) u (r_i +
        slack_i)`` covers all three and ``(g + 1) tiny`` the underflow of its
        own product; `_down`/`_up` round the endpoints outward.  The sum runs
        over the generator axis, one contiguous ``(..., d)`` slice at a time.
        Only an exact zero skips the rounding: a row of zeros takes only its slack
        (a point box hulls to itself), and a NaN or infinite radius never hulls to the center.
        """
        g = self.generators.shape[0]
        rad_raw = np.abs(self.generators).sum(axis=0)
        err = (g + 2) * _U * (rad_raw + self.slack) + (g + 1) * _TINY
        rad = np.where(rad_raw == 0.0, 0.0, rad_raw + err) + self.slack
        lo = np.where(rad == 0.0, self.center, _down(self.center - rad))
        hi = np.where(rad == 0.0, self.center, _up(self.center + rad))
        return lo, hi


def _diagonal_generators(count: int, diag: np.ndarray) -> np.ndarray:
    """``(count + d, ..., d)`` generators, zero but for ``[count + i, ..., i] = diag[..., i]``.

    The first ``count`` generators are left for the caller to fill.
    """
    d = diag.shape[-1]
    gens = np.zeros((count + d, diag.size // d, d))
    i = np.arange(d)
    gens[count + i, :, i] = diag.reshape(-1, d).T
    return gens.reshape((count + d,) + diag.shape)


def _zono_from_bounds(lo, hi) -> Zonotope:
    """Axis-aligned zonotopes covering (..., n) boxes: one generator per dimension."""
    c = 0.5 * (lo + hi)
    half = np.maximum(hi - c, c - lo)
    # midpoint rounding can undershoot by half an ulp per side; a zero width is exact
    slack = np.where(half > 0.0, 2.0 * _U * np.maximum(np.abs(lo), np.abs(hi)) + _TINY, 0.0)
    return Zonotope(c, _diagonal_generators(0, half), slack)


def zono_from_box(cell: Box) -> Zonotope:
    """Axis-aligned zonotope covering a box; a zero-width dimension gets a zero generator."""
    return _zono_from_bounds(cell.lo, cell.hi)


def zono_affine(z: Zonotope, w: np.ndarray, b: np.ndarray) -> Zonotope:
    """Image of zonotopes under x -> w x + b (exact up to absorbed rounding).

    The center and the generators are the ``(g + 1) N`` rows of one product
    with a C-contiguous copy of ``w.T``, and ``reach`` and the old slack the
    ``2 N`` rows of one product with ``|w|.T``, so even one zonotope makes
    matrix-matrix calls of two or more rows.

    Rounding: the exact image is ``(w c + b, w G, |w| s)``.  A product of k
    terms errs by at most ``gamma_k = k u / (1 - k u)`` times the same
    product of magnitudes, in any summation order, with or without FMA, plus
    half a subnormal step for each term that underflows; adding b errs by at
    most ``u |w c + b|``.  So the new center and generators together leave
    the exact ones by at most ``gamma_k |w| (|c| + sum_j |G_j|) + u (|w| |c|
    + |b|)(1 + gamma_k)``, and the float ``|w| s`` undershoots the exact one
    by at most ``gamma_k |w| s``: ``(k + 1) u bound`` to first order, with
    ``bound = |w| reach + |b|`` and ``reach = |c| + sum_j |G_j| + s``.  Both
    are computed in float, as sums of nonnegative terms, so whatever their
    order they undershoot the exact ones by less than a factor ``1 -
    gamma_{g+k+2}``; this includes the rounding of ``reach``.  ``(k + 4) u
    bound`` covers the first-order term with room for that undershoot and
    for the additions that form the new slack, and ``(g + 2) k tiny`` covers
    the underflow of the ``(g + 2) k`` products.  Every term is an a-priori
    bound that holds for any summation order, so the image is sound whatever
    kernel BLAS picks for the call's row count.
    """
    w = np.asarray(w, dtype=float)
    b = np.asarray(b, dtype=float)
    m, k = w.shape
    if k != z.dim:
        raise ValueError(f"affine map expects dimension {k}, zonotope has {z.dim}")
    batch = z.center.shape[:-1]
    g = z.generators.shape[0]
    rows = np.empty((g + 1,) + z.center.shape)
    rows[0] = z.center
    rows[1:] = z.generators
    image = (rows.reshape(-1, k) @ np.ascontiguousarray(w.T)).reshape((g + 1,) + batch + (m,))
    c = image[0]
    c += b
    mags = np.empty((2,) + z.center.shape)
    np.abs(rows, out=rows).sum(axis=0, out=mags[0])  # the product has read the rows
    mags[0] += z.slack
    mags[1] = z.slack
    mags = (mags.reshape(-1, k) @ np.ascontiguousarray(np.abs(w).T)).reshape((2,) + batch + (m,))
    bound = mags[0]
    bound += np.abs(b)
    slack = mags[1]
    slack += (k + 4) * _U * bound + (g + 2) * k * _TINY
    return Zonotope(c, image[1:], slack)


def zono_activation(z: Zonotope, activation: str) -> Zonotope:
    """Per-dimension slope-and-offset transformer for sigmoid-shaped activations.

    With pre-activation hull [l, u], slope lam = min(f'(l), f'(u)) and offsets
    mu1 = (f(u)+f(l) - lam(u+l))/2, mu2 = (f(u)-f(l) - lam(u-l))/2, the image
    of every point lies within mu2 of the line lam*x + mu1, so each dimension
    contributes one fresh generator of magnitude mu2.  The scaled generators
    and the d fresh ones are written into one new array.
    """
    act = _lookup(activation)
    if act.linear:
        return z
    if activation not in ("tanh", "sigmoid"):
        raise ValueError(f"no zonotope transformer for activation {activation!r}")
    l, u = z.hull_arrays()
    fl = act.f(l)
    fu = act.f(u)
    lam, _ = _act_deriv_arrays(activation, l, u)
    mu1 = 0.5 * ((fu + fl) - lam * (u + l))
    mu2 = np.maximum(0.5 * ((fu - fl) - lam * (u - l)), 0.0)
    c = lam * z.center + mu1
    g = z.generators.shape[0]
    gens = _diagonal_generators(g, mu2)
    np.multiply(lam, z.generators, out=gens[:g])
    # absorb libm and form-evaluation drift; scaled by lam <= 1 the old slack shrinks
    scale = np.abs(fl) + np.abs(fu) + np.abs(mu1) + np.abs(lam) * (np.abs(l) + np.abs(u)) + 1.0
    slack = lam * z.slack + 64.0 * _U * scale + 4.0 * _TINY
    return Zonotope(c, gens, slack)


def zono_propagate(net: Network, lo: np.ndarray, hi: np.ndarray):
    """Zonotope hulls of batched boxes (..., input_dim) through every layer.

    Returns ``(out_lo, out_hi)`` of shape (..., output_dim), as
    `box_propagate_arrays` does, in blocks of ``_BLOCK`` cells to bound memory.
    It composes the public kernels, one call of each per layer and block.
    `zono_from_box` pads a zero-width dimension with a zero generator too, so
    a cell has the same generator count and error terms in a block as alone.
    Each product is one matrix-matrix call over all rows of the block, so the
    hull equals the one-cell chain `zono_from_box`, `zono_affine`,
    `zono_activation`, `hull_arrays` wherever BLAS gives a row the same bits
    at every row count: on the layer shapes where the box pass keeps its bits
    across block splits.  Elsewhere it can move by an ulp and stays sound.
    """

    def layers(lo, hi):
        z = _zono_from_bounds(lo, hi)
        for layer in net.layers:
            z = zono_activation(zono_affine(z, layer.weights, layer.bias), layer.activation)
        return z.hull_arrays()

    return _map_row_blocks(net, layers, lo, hi, ((net.output_dim,),) * 2)
