"""Sound set propagation through a network: interval boxes and zonotopes.

A zonotope holds ``{c + G eps : eps in [-1,1]^g}`` plus a per-dimension
``slack`` box that absorbs floating-point drift from affine images and
activation transformers, so every concretization (and every float evaluation
of a contained point) stays inside the reported set.
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


@dataclass(frozen=True)
class Zonotope:
    """Affine set c + G eps with eps in [-1,1]^g, plus a rounding slack box."""

    center: np.ndarray
    generators: np.ndarray
    slack: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        c = np.asarray(self.center, dtype=float)
        g = np.asarray(self.generators, dtype=float)
        if c.ndim != 1:
            raise ValueError("zonotope center must be a vector")
        if g.ndim != 2 or g.shape[0] != c.shape[0]:
            raise ValueError("generators must be a (dim, count) matrix")
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
        return self.center.shape[0]

    @property
    def order(self) -> int:
        return self.generators.shape[1]

    def hull_arrays(self):
        g = self.generators
        if g.shape[1]:
            rad_raw = np.abs(g).sum(axis=1)
            err = (g.shape[1] + 2) * _U * rad_raw + (g.shape[1] + 1) * _TINY
            rad = rad_raw + err + self.slack
        else:
            rad = self.slack.copy()
        lo = np.where(rad > 0.0, _down(self.center - rad), self.center)
        hi = np.where(rad > 0.0, _up(self.center + rad), self.center)
        return lo, hi

    def interval_hull(self) -> Box:
        lo, hi = self.hull_arrays()
        return Box.from_arrays(lo, hi)


def zono_from_box(cell: Box) -> Zonotope:
    """Axis-aligned zonotope covering a box; degenerate dims get no generator."""
    lo = cell.lo
    hi = cell.hi
    c = 0.5 * (lo + hi)
    half = np.maximum(hi - c, c - lo)
    live = half > 0.0
    gens = np.diag(half)[:, live]
    # midpoint rounding can undershoot by half an ulp per side
    slack = np.where(live, 2.0 * _U * np.maximum(np.abs(lo), np.abs(hi)) + _TINY, 0.0)
    return Zonotope(c, gens, slack)


def zono_affine(z: Zonotope, w: np.ndarray, b: np.ndarray) -> Zonotope:
    """Image of a zonotope under x -> w x + b (exact up to absorbed rounding)."""
    w = np.asarray(w, dtype=float)
    b = np.asarray(b, dtype=float)
    if w.shape[1] != z.dim:
        raise ValueError(f"affine map expects dimension {w.shape[1]}, zonotope has {z.dim}")
    c = w @ z.center + b
    gens = w @ z.generators
    k = w.shape[1]
    reach = np.abs(z.center) + np.abs(z.generators).sum(axis=1) + z.slack
    bound = np.abs(w) @ reach + np.abs(b)
    slack = np.abs(w) @ z.slack + (k + 4) * _U * bound + (k + 2) * _TINY
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
    gens = lam[:, None] * z.generators
    # absorb libm and form-evaluation drift; scaled by lam <= 1 the old slack shrinks
    scale = np.abs(fl) + np.abs(fu) + np.abs(mu1) + np.abs(lam) * (np.abs(l) + np.abs(u)) + 1.0
    slack = lam * z.slack + 64.0 * _U * scale + 4.0 * _TINY
    fresh = np.diag(mu2)
    return Zonotope(c, np.hstack([gens, fresh]), slack)


def zono_propagate(net: Network, cell: Box) -> Zonotope:
    if cell.dim != net.input_dim:
        raise ValueError(f"cell dimension {cell.dim} != input dim {net.input_dim}")
    z = zono_from_box(cell)
    for layer in net.layers:
        z = zono_affine(z, layer.weights, layer.bias)
        z = zono_activation(z, layer.activation)
    return z
