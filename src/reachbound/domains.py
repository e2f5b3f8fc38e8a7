"""Sound set propagation through a network: interval boxes and zonotopes.

A zonotope holds ``{c + G eps : eps in [-1,1]^g}`` plus a per-dimension
``slack`` box that absorbs floating-point drift from affine images and
activation transformers, so every concretization (and every float evaluation
of a contained point) stays inside the reported set.  Both domains take
batched cells: `box_propagate_arrays` and `zono_propagate` map ``(..., n)``
cell bounds to ``(..., m)`` output hulls in whole array passes.
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
    "box_propagate",
    "box_propagate_arrays",
    "zono_from_box",
    "zono_affine",
    "zono_activation",
    "zono_propagate",
]

_DOMAIN_ALIASES = {"box": "box", "zono": "zonotope", "zonotope": "zonotope"}


def normalize_domain(tag: str) -> str:
    try:
        return _DOMAIN_ALIASES[tag]
    except KeyError:
        raise ValueError(f"unknown abstract domain {tag!r}") from None


# ---------------------------------------------------------------------------
# interval-box propagation


def box_propagate_arrays(net: Network, lo: np.ndarray, hi: np.ndarray):
    """Propagate batched boxes (..., input_dim) through every layer."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if lo.shape[-1] != net.input_dim:
        raise ValueError(f"cell dimension {lo.shape[-1]} != input dim {net.input_dim}")
    for layer in net.layers:
        zlo, zhi = _interval_matvec_arrays(layer.weights, layer.bias, lo, hi)
        lo, hi = _act_range_arrays(layer.activation, zlo, zhi)
    return lo, hi


def box_propagate(net: Network, cell: Box) -> Box:
    lo, hi = box_propagate_arrays(net, cell.lo, cell.hi)
    return Box.from_arrays(lo, hi)


# ---------------------------------------------------------------------------
# zonotopes

_BLOCK = 1024  # cells per array pass: bounds the (block, d, g) generator arrays


@dataclass(frozen=True)
class Zonotope:
    """Affine sets c + G eps with eps in [-1,1]^g, plus a rounding slack box.

    ``center`` and ``slack`` are ``(..., d)`` and ``generators`` is
    ``(..., d, g)``: the leading axes index a batch of zonotopes that share
    one generator count.
    """

    center: np.ndarray
    generators: np.ndarray
    slack: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        c = np.asarray(self.center, dtype=float)
        g = np.asarray(self.generators, dtype=float)
        if c.ndim < 1:
            raise ValueError("zonotope center must be a vector")
        if g.shape[:-1] != c.shape:
            raise ValueError("generators must be a (..., dim, count) array matching the center")
        s = self.slack
        s = np.zeros_like(c) if s is None else np.asarray(s, dtype=float)
        if s.shape != c.shape or np.any(s < 0):
            raise ValueError("slack must be a nonnegative vector matching the center")
        if not (np.isfinite(c).all() and np.isfinite(g).all() and np.isfinite(s).all()):
            raise ValueError("zonotope data must be finite")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "generators", g)
        object.__setattr__(self, "slack", s)

    @property
    def dim(self) -> int:
        return self.center.shape[-1]

    @property
    def order(self) -> int:
        return self.generators.shape[-1]

    def hull_arrays(self):
        """Outward-rounded interval hulls, ``(lo, hi)`` of shape (..., d)."""
        g = self.generators
        if g.shape[-1]:
            rad_raw = np.abs(g).sum(axis=-1)
            err = (g.shape[-1] + 2) * _U * rad_raw + (g.shape[-1] + 1) * _TINY
            rad = rad_raw + err + self.slack
        else:
            rad = self.slack.copy()
        lo = np.where(rad > 0.0, _down(self.center - rad), self.center)
        hi = np.where(rad > 0.0, _up(self.center + rad), self.center)
        return lo, hi

    def interval_hull(self) -> Box:
        if self.center.ndim != 1:
            raise ValueError("interval_hull needs a single zonotope, not a batch")
        lo, hi = self.hull_arrays()
        return Box.from_arrays(lo, hi)


def _live_dims(lo, hi):
    """The dimensions of (..., n) bounds that get a generator: nonzero half-width."""
    c = 0.5 * (lo + hi)
    return np.maximum(hi - c, c - lo) > 0.0


def _zono_from_bounds(lo, hi, live) -> Zonotope:
    """Axis-aligned zonotopes covering (..., n) boxes whose live dimensions are ``live``."""
    c = 0.5 * (lo + hi)
    half = np.maximum(hi - c, c - lo)
    gens = (half[..., :, None] * np.eye(lo.shape[-1]))[..., live]
    # midpoint rounding can undershoot by half an ulp per side
    slack = np.where(live, 2.0 * _U * np.maximum(np.abs(lo), np.abs(hi)) + _TINY, 0.0)
    return Zonotope(c, gens, slack)


def zono_from_box(cell: Box) -> Zonotope:
    """Axis-aligned zonotope covering a box; degenerate dims get no generator."""
    lo, hi = cell.lo, cell.hi
    return _zono_from_bounds(lo, hi, _live_dims(lo, hi))


def zono_affine(z: Zonotope, w: np.ndarray, b: np.ndarray) -> Zonotope:
    """Image of zonotopes under x -> w x + b (exact up to absorbed rounding).

    Every product is a stacked matmul, so each zonotope of a batch gets the
    same BLAS call, and the same bits, as it would alone.
    """
    w = np.asarray(w, dtype=float)
    b = np.asarray(b, dtype=float)
    if w.shape[1] != z.dim:
        raise ValueError(f"affine map expects dimension {w.shape[1]}, zonotope has {z.dim}")
    aw = np.abs(w)
    c = (w @ z.center[..., None])[..., 0] + b
    gens = w @ z.generators
    k = w.shape[1]
    reach = np.abs(z.center) + np.abs(z.generators).sum(axis=-1) + z.slack
    bound = (aw @ reach[..., None])[..., 0] + np.abs(b)
    slack = (aw @ z.slack[..., None])[..., 0] + (k + 4) * _U * bound + (k + 2) * _TINY
    return Zonotope(c, gens, slack)


def zono_activation(z: Zonotope, activation: str) -> Zonotope:
    """Per-dimension slope-and-offset transformer for sigmoid-shaped activations.

    With pre-activation hull [l, u], slope lam = min(f'(l), f'(u)) and offsets
    mu1 = (f(u)+f(l) - lam(u+l))/2, mu2 = (f(u)-f(l) - lam(u-l))/2, the image
    of every point lies within mu2 of the line lam*x + mu1, so each dimension
    contributes one fresh generator of magnitude mu2.
    """
    act = _lookup(activation)
    if act.linear:
        return z
    if activation not in ("tanh", "sigmoid"):
        raise ValueError(f"no zonotope transformer for activation {activation!r}")
    l, u = z.hull_arrays()
    fl = act.f(l)
    fu = act.f(u)
    dl, _ = _act_deriv_arrays(activation, l, l)
    du, _ = _act_deriv_arrays(activation, u, u)
    lam = np.minimum(dl, du)
    mu1 = 0.5 * ((fu + fl) - lam * (u + l))
    mu2 = np.maximum(0.5 * ((fu - fl) - lam * (u - l)), 0.0)
    c = lam * z.center + mu1
    gens = lam[..., :, None] * z.generators
    # absorb libm and form-evaluation drift; scaled by lam <= 1 the old slack shrinks
    scale = np.abs(fl) + np.abs(fu) + np.abs(mu1) + np.abs(lam) * (np.abs(l) + np.abs(u)) + 1.0
    slack = lam * z.slack + 64.0 * _U * scale + 4.0 * _TINY
    fresh = mu2[..., :, None] * np.eye(z.dim)
    return Zonotope(c, np.concatenate([gens, fresh], axis=-1), slack)


def zono_propagate(net: Network, lo: np.ndarray, hi: np.ndarray):
    """Zonotope hulls of batched boxes (..., input_dim) through every layer.

    Returns ``(out_lo, out_hi)`` of shape (..., output_dim), as
    `box_propagate_arrays` does.  A degenerate dimension gets no generator,
    so the cells are grouped by their live dimensions rather than padded
    with zero generators: padding would change the error count of
    `Zonotope.hull_arrays` and the order of its sums.  Each group runs in
    blocks of ``_BLOCK`` cells, which bounds memory; every cell makes the
    same BLAS calls in a block as alone, so its hull is the one that
    `zono_from_box`, `zono_affine`, `zono_activation` and `hull_arrays`
    give for that cell.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if lo.shape[-1] != net.input_dim:
        raise ValueError(f"cell dimension {lo.shape[-1]} != input dim {net.input_dim}")
    rows_lo = lo.reshape(-1, net.input_dim)
    rows_hi = hi.reshape(-1, net.input_dim)
    out_lo = np.empty((rows_lo.shape[0], net.output_dim))
    out_hi = np.empty_like(out_lo)
    patterns, group = np.unique(_live_dims(rows_lo, rows_hi), axis=0, return_inverse=True)
    group = group.reshape(-1)  # numpy 2.0.0 returns it as (N, 1)
    for p, live in enumerate(patterns):
        rows = np.flatnonzero(group == p)
        for start in range(0, rows.size, _BLOCK):
            block = rows[start : start + _BLOCK]
            z = _zono_from_bounds(rows_lo[block], rows_hi[block], live)
            for layer in net.layers:
                z = zono_activation(zono_affine(z, layer.weights, layer.bias), layer.activation)
            out_lo[block], out_hi[block] = z.hull_arrays()
    shape = lo.shape[:-1] + (net.output_dim,)
    return out_lo.reshape(shape), out_hi.reshape(shape)
