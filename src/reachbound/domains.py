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
``(..., m)`` output hulls in array passes over row blocks sized by the
network's widest layer, so a block's per-layer arrays stay in the cache
(`_block_rows`, `_map_row_blocks`).  A box gives a zonotope one generator
per dimension, zero where its width is zero, so faces, points and grid
cells share one generator count in a batch.  Both passes read each layer's
weight operands as the `Layer` prepared them once (`intervals._Operands`).
Zonotopes have one layout, the `Zonotope` record ``(rows, slack)``: the
centers and generators in one ``[c; G]`` array of shape ``(1 + g, ..., d)``
and the slack apart.  The pass keeps one such pair per layer for a block of
cells, and the one-cell functions `zono_from_box`, `zono_affine`,
`zono_activation` and `Zonotope.hull_arrays` call its kernels
(`_box_rows`, `_affine_rows`, `_activation_rows`, `_hull`) on one record.
`_hull` writes both ends into one ``(2, ..., d)`` array, so the activation
evaluates f and f' once each on it.  Centers and sums of ends are formed from halves, so ends near
the largest float overflow neither.  Neither domain checks values
mid-pass: a NaN or infinity propagates to the output hull, and `Box`
refuses it (see `_down`).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .intervals import (
    Box,
    _act_range_arrays,
    _add_bias,
    _deriv_lower,
    _interval_matvec_arrays,
    _lookup,
    _operands,
    _pad,
    _TINY,
    _U,
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

_BLOCK_ELEMENTS = 2**15  # float64 elements of the widest layer per block: 256 KiB an array


def _block_rows(net: Network) -> int:
    """Rows per block of ``net``'s passes: `_BLOCK_ELEMENTS` over the widest layer.

    The widest layer counts the inputs.  The quotient is rounded down to a
    power of two: 4096 rows at a width of 8 or less, 2048 at 9 to 16, 1024
    at 17 to 32.  A block's per-layer box-pass arrays (the two product
    ends, the magnitude and the error term) are then 256 KiB each at most,
    so a layer's temporaries stay within a 2 MiB L2 cache.  The box,
    zonotope and Jacobian passes take the same rule.  Past a width of 2^13
    the rows are held at 4, because `_map_row_blocks`' near-equal cut can
    halve a block, and a one-row block is a matrix-vector product.  With
    2048-row blocks for every net the benchmark's cube-refine verdicts ran
    5.8% faster than with 4096 and its planar-box verdicts 2.9% slower
    (ROADMAP item 13), hence 4096 rows at a width of 8 or less.
    """
    return 1 << max(2, (_BLOCK_ELEMENTS // max(net.dims())).bit_length() - 1)


def _map_row_blocks(net: Network, fn, lo, hi, tails, dtype=float):
    """``fn(lo, hi)`` over blocks of at most `_block_rows` rows of (..., input_dim) bounds.

    ``fn`` maps (rows, n) bounds to one array per entry of ``tails``, shaped
    ``(rows,) + tail``, which fills those rows of a preallocated output; the
    outputs come back shaped ``lo.shape[:-1] + tail``.  No rows make no call.
    The blocks are near-equal, at least half of `_block_rows` rows each
    when there are two or more, and `_block_rows` is at least 4, so a batch
    of two or more rows never runs a one-row block: NumPy computes a
    one-row matrix product as a matrix-vector product, whose sums can round
    differently.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if lo.shape[-1] != net.input_dim:
        raise ValueError(f"cell dimension {lo.shape[-1]} != input dim {net.input_dim}")
    rows_lo = lo.reshape(-1, net.input_dim)
    rows_hi = hi.reshape(rows_lo.shape)
    rows = rows_lo.shape[0]
    outs = [np.empty((rows,) + tail, dtype=dtype) for tail in tails]
    count = -(-rows // _block_rows(net))
    for j in range(count):
        block = slice(j * rows // count, (j + 1) * rows // count)
        for out, part in zip(outs, fn(rows_lo[block], rows_hi[block])):
            out[block] = part
    return tuple(out.reshape(lo.shape[:-1] + tail) for out, tail in zip(outs, tails))


# ---------------------------------------------------------------------------
# interval-box propagation


def box_propagate_arrays(net: Network, lo: np.ndarray, hi: np.ndarray):
    """Propagate batched boxes (..., input_dim) through every layer, in row blocks.

    Each layer ends in an enclosure of its own: the product's a-priori term,
    then for tanh and sigmoid one absolute outward step per range end
    (`_act_range_arrays`), so chaining one-layer passes gives the same bits.
    The activation range is written into the two product arrays the layer
    has just made (``out=``), so a layer allocates no array past its
    product's; the float operations are those of a range on fresh arrays.
    """

    def layers(lo, hi):
        for layer in net.layers:
            zlo, zhi = _interval_matvec_arrays(layer._ops, lo, hi)
            lo, hi = _act_range_arrays(layer.activation, zlo, zhi, out=(zlo, zhi))
        return lo, hi

    return _map_row_blocks(net, layers, lo, hi, ((net.output_dim,),) * 2)


# ---------------------------------------------------------------------------
# zonotopes


class Zonotope(NamedTuple):
    """Zonotopes ``{c + G eps : eps in [-1,1]^g}`` plus a rounding slack box, as the pass holds them.

    ``rows`` is ``[c; G]``, shape ``(1 + g, ..., d)``: ``rows[0]`` holds the
    centers and ``rows[1:]`` the generators, generator-major, so the axes
    after the first index a batch that shares one generator count, a sum
    over the generators runs over the outermost, contiguous axis, and the
    centers and generators of a batch are the rows of one 2-D matrix.
    ``slack`` is a nonnegative ``(..., d)`` array.
    """

    rows: np.ndarray
    slack: np.ndarray

    def hull_arrays(self):
        """Outward-rounded interval hulls, ``lo`` and ``hi`` (..., d) stacked; see `_hull`."""
        return _hull(self.rows, self.slack)


def _hull(rows, slack):
    """Outward-rounded interval hulls of zonotopes ``(rows, slack)``, ``(2, ..., d)``: lo, then hi.

    Dimension i lies within ``r_i + slack_i`` of ``c_i``, ``r_i = sum_j |G_ij|``.
    The float sum of g nonnegative terms, in any order, undershoots
    ``r_i`` by less than ``(g - 1) u r_i``; adding the error term and the
    slack rounds by at most ``u`` of each sum.  ``(g + 2) u (r_i +
    slack_i)`` covers all three, and `_down`/`_up` round the endpoints
    outward, by one step past the rounded ``c -+ rad``, so the ends hold
    ``c -+ rad`` for the computed ``rad``.  No absolute term is needed.  A
    float addition never underflows: a sum below ``2^-1021`` is exact.  So
    when ``T = r_i + slack_i`` is below ``2^-1021``, the radius sums are
    exact, and rounding is monotone, so ``rad >= T`` without the term.
    Above it, the term's first-order spare ``u T >= tiny`` outweighs the
    half subnormal step that its own product can lose.  The sum runs over
    the generator axis, one contiguous ``(..., d)`` slice at a time.  Only
    an exact zero skips the rounding: a row of zeros takes only its slack
    (a point box hulls to itself), and a NaN or infinite radius never hulls
    to the center.  Both ends are built in one array, in place, with the
    float operations of ``np.where(rad == 0, c, _down(c - rad))`` and its
    upper twin.
    """
    center, gens = rows[0], rows[1:]
    g = gens.shape[0]
    rad = np.abs(gens).sum(axis=0)
    zero = rad == 0.0
    err = rad + slack
    err *= (g + 2) * _U
    rad += err
    np.copyto(rad, 0.0, where=zero)
    rad += slack
    ends = np.empty((2,) + rad.shape)
    np.subtract(center, rad, out=ends[0])
    np.add(center, rad, out=ends[1])
    pad = _pad(ends, 1)
    ends[0] -= pad[0]
    ends[1] += pad[1]
    np.copyto(ends, center, where=rad == 0.0)
    return ends


def _set_diagonal(block, diag):
    """Zero the ``(d, ..., d)`` block and write ``diag`` (..., d) to ``block[i, ..., i]``."""
    d = diag.shape[-1]
    block.fill(0.0)
    # a writable view of the diagonal, not fancy indexing
    np.einsum("iji->ij", block.reshape(d, diag.size // d, d))[...] = diag.reshape(-1, d).T


def _box_rows(lo, hi):
    """Axis-aligned zonotopes ``(rows, slack)`` covering (..., n) boxes, one generator per dimension.

    The center is ``0.5 lo + 0.5 hi``, which cannot overflow where ``lo +
    hi`` can; halving is exact for normal floats, so elsewhere the bits are
    those of ``(lo + hi) 0.5``.  A zero width gets a zero generator and no
    slack, except at an odd multiple of the subnormal step, whose halves
    round: there the center moves one step, and the generator and the
    slack are one step each.
    """
    rows = np.empty((1 + lo.shape[-1],) + lo.shape)
    c = np.multiply(lo, 0.5, out=rows[0])
    half = np.multiply(hi, 0.5)
    c += half
    np.subtract(hi, c, out=half)
    np.maximum(half, c - lo, out=half)
    # midpoint rounding can undershoot by half an ulp per side
    slack = np.where(half > 0.0, 2.0 * _U * np.maximum(np.abs(lo), np.abs(hi)) + _TINY, 0.0)
    _set_diagonal(rows[1:], half)
    return rows, slack


def _affine_rows(rows, slack, op, fresh: int = 0):
    """Image ``(out, slack)`` of zonotopes ``(rows, slack)`` under x -> w x + b, given as `_Operands`.

    ``out`` is ``(1 + g + fresh, ..., m)``: the center and the generators are
    the ``(g + 1) N`` rows of one product with ``w.T``, written into its head,
    and the ``fresh`` rows after them are left for `_activation_rows`.
    ``reach`` and the old slack are the ``2 N`` rows of one product with
    ``|w|.T``, so even one zonotope makes matrix-matrix calls of two or more
    rows.  ``rows`` is overwritten with ``|rows|``.  The center takes ``b``
    and the bound ``|b|`` through `_add_bias`, one addition per element.

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
    k, m = op.t.shape
    g = rows.shape[0] - 1
    batch = rows.shape[1:-1]
    out = np.empty((1 + g + fresh,) + batch + (m,))
    np.matmul(rows.reshape(-1, k), op.t, out=out[:1 + g].reshape(-1, m))
    _add_bias(out[0], op.bias_tile)
    mags = np.empty((2,) + batch + (k,))
    np.abs(rows, out=rows).sum(axis=0, out=mags[0])  # the product has read the rows
    mags[0] += slack
    mags[1] = slack
    mags = (mags.reshape(-1, k) @ op.mag).reshape((2,) + batch + (m,))
    bound = mags[0]
    _add_bias(bound, op.bias_mag_tile)
    bound *= (k + 4) * _U
    bound += (g + 2) * k * _TINY
    slack = mags[1]
    slack += bound
    return out, slack


def _activation_rows(out, slack, activation: str):
    """Slope-and-offset transformer, in place on ``out`` from `_affine_rows`; returns the new slack.

    ``out`` is ``(1 + g + d, ..., d)``: the image's center and g generators,
    then d free rows.  With pre-activation hull [l, u], slope lam =
    min(f'(l), f'(u)) and offsets mu1 = (f(u)+f(l) - lam(u+l))/2, mu2 =
    (f(u)-f(l) - lam(u-l))/2, the image of every point lies within mu2 of the
    line lam*x + mu1, so each dimension's free row becomes one fresh generator
    of magnitude mu2.  The center and the generators are scaled in place.

    ``f`` and ``f'`` run once each, on `_hull`'s stacked ``(2, ..., d)``
    ends, and lam is the lower end of `_act_deriv_arrays` (`_deriv_lower`).
    The sums of the ends are formed from their halves, ``0.5 u + 0.5 l``,
    so they cannot overflow where ``u + l`` would.  Halving is exact for
    normal floats, so elsewhere the bits are those of the plain
    expressions, built in place in the same order.
    """
    act = _lookup(activation)
    if activation not in ("tanh", "sigmoid"):
        raise ValueError(f"no zonotope transformer for activation {activation!r}")
    g = out.shape[0] - 1 - out.shape[-1]
    head = out[:1 + g]
    ends = _hull(head, slack)
    f = act.f(ends)
    lam = _deriv_lower(*act.deriv(ends))
    ends *= 0.5
    (l, u), (fl, fu) = ends, f
    mu1 = fu + fl
    mu1 *= 0.5
    part = u + l
    part *= lam
    mu1 -= part
    mu2 = fu - fl
    mu2 *= 0.5
    np.subtract(u, l, out=part)
    part *= lam
    mu2 -= part
    np.maximum(mu2, 0.0, out=mu2)
    head *= lam
    head[0] += mu1
    _set_diagonal(out[1 + g:], mu2)
    # absorb libm and form-evaluation drift; scaled by lam <= 1 the old slack shrinks.
    # scale = |f(l)| + |f(u)| + |mu1| + lam (|l| + |u|) + 1, the product doubled from
    # the halves: lam |x| <= max x f'(x) < 1/2, so the doubling cannot overflow
    np.abs(f, out=f)
    scale = fl
    scale += fu
    scale += np.abs(mu1, out=mu1)
    np.abs(ends, out=ends)
    np.add(l, u, out=part)
    part *= lam
    part *= 2.0
    scale += part
    scale += 1.0
    scale *= 64.0 * _U
    new = np.multiply(lam, slack, out=part)
    new += scale
    new += 4.0 * _TINY
    return new


def zono_from_box(cell: Box) -> Zonotope:
    """Axis-aligned zonotope covering a box; a zero-width dimension gets a zero generator.

    Except at an odd multiple of the subnormal step; see `_box_rows`.
    """
    return Zonotope(*_box_rows(cell.lo, cell.hi))


def zono_affine(z: Zonotope, w: np.ndarray, b: np.ndarray) -> Zonotope:
    """Image of zonotopes under x -> w x + b (exact up to absorbed rounding); see `_affine_rows`."""
    w = np.asarray(w, dtype=float)
    d = z.rows.shape[-1]
    if w.shape[1] != d:
        raise ValueError(f"affine map expects dimension {w.shape[1]}, zonotope has {d}")
    # `_affine_rows` overwrites its rows with their magnitudes
    return Zonotope(*_affine_rows(z.rows.copy(), z.slack, _operands(w, b)))


def zono_activation(z: Zonotope, activation: str) -> Zonotope:
    """Per-dimension slope-and-offset transformer for sigmoid-shaped activations.

    The identity for a linear activation; see `_activation_rows`.
    """
    if _lookup(activation).linear:
        return z
    rows = z.rows
    out = np.concatenate([rows, np.empty((rows.shape[-1],) + rows.shape[1:])])
    return Zonotope(out, _activation_rows(out, z.slack, activation))


def zono_propagate(net: Network, lo: np.ndarray, hi: np.ndarray):
    """Zonotope hulls of batched boxes (..., input_dim) through every layer.

    Returns ``(out_lo, out_hi)`` of shape (..., output_dim), as
    `box_propagate_arrays` does, in blocks of `_block_rows` cells, which
    bound its per-layer arrays by the network's widest layer, not the batch.
    Each layer maps one ``[center; generators]`` array to a new one with room
    for its fresh generators: `_affine_rows` writes the affine image into its
    head with the layer's prepared operands, and `_activation_rows` scales it
    in place and writes the fresh generators.  The arrays and the slack are a
    `Zonotope` record's ``(rows, slack)``, held without building one.  The
    one-cell functions `zono_from_box`, `zono_affine`, `zono_activation` and
    `hull_arrays` call the same kernels on one record, and `_box_rows` pads
    a zero-width dimension with a zero generator too, so a cell has the same
    generator count and error terms in a block as alone.  Each product is one
    matrix-matrix call over all rows of the block, so the hull equals the
    one-cell chain wherever BLAS gives a row the same bits at every row
    count: on the layer shapes where the box pass keeps its bits across
    block splits.  Elsewhere it can move by an ulp and stays sound.
    """

    def layers(lo, hi):
        rows, slack = _box_rows(lo, hi)
        for layer in net.layers:
            fresh = 0 if _lookup(layer.activation).linear else layer.out_dim
            rows, slack = _affine_rows(rows, slack, layer._ops, fresh)
            if fresh:
                slack = _activation_rows(rows, slack, layer.activation)
        return _hull(rows, slack)

    return _map_row_blocks(net, layers, lo, hi, ((net.output_dim,),) * 2)
