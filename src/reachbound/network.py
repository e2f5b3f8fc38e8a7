"""Dense feedforward network model: JSON loading, evaluation, Jacobians.

The model document format is
``{"layers": [{"weights": [[...], ...], "bias": [...], "activation": "tanh"}]}``
with decimal floats that round-trip exactly through ``repr``/``json``.

A `Layer` is validated once and read-only; it also keeps the weight operands
of the interval and zonotope kernels (`intervals._Operands`), built once when
the layer is.  `Layer` and `Network` compare and hash by identity, as `Box`
does: their fields hold arrays.
"""

from __future__ import annotations

import json
import numbers
import operator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .intervals import _add_bias, _lookup, _operands

__all__ = [
    "Layer",
    "Network",
    "load_network",
    "network_to_document",
    "read_model",
    "write_model",
    "forward_point",
    "forward_batch",
    "jacobian_batch",
    "generate_network",
]


def _index(name: str, value, low: int = 0) -> int:
    """``value`` as an int of at least ``low``, read through `operator.index`.

    The one integer rule for counts, sizes and seeds, type and floor alike:
    a bool, a float or a string is refused (``True`` is an int to
    `operator.index`, but a flag passed where a count belongs is an error),
    and so is a value below the floor its caller passes.
    """
    if not isinstance(value, bool):
        try:
            v = operator.index(value)
        except TypeError:
            pass
        else:
            if v >= low:
                return v
            floor = "nonnegative" if low == 0 else f"at least {low}"
            raise ValueError(f"{name} must be {floor}, got {v}")
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _frozen_array(values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Layer:
    """One dense layer: y = f(W x + b).

    ``_ops`` holds the `intervals._Operands` of ``W x + b``, prepared here
    once for every pass that reads them.
    """

    weights: np.ndarray
    bias: np.ndarray
    activation: str

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        b = np.asarray(self.bias, dtype=float)
        if w.ndim != 2 or w.size == 0:
            raise ValueError("layer weights must form a nonempty 2-d matrix")
        if b.ndim != 1 or b.shape[0] != w.shape[0]:
            raise ValueError(
                f"bias length {b.shape} does not match weight rows {w.shape[0]}"
            )
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise ValueError("layer parameters must be finite")
        _lookup(self.activation)  # raises ValueError on an unknown name
        object.__setattr__(self, "weights", _frozen_array(w))
        object.__setattr__(self, "bias", _frozen_array(b))
        object.__setattr__(self, "_ops", _operands(self.weights, self.bias))

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]


@dataclass(frozen=True, eq=False)
class Network:
    """Immutable stack of dense layers with chained dimensions."""

    layers: tuple[Layer, ...]

    def __post_init__(self):
        if not self.layers:
            raise ValueError("network must have at least one layer")
        for k in range(len(self.layers) - 1):
            a, b = self.layers[k], self.layers[k + 1]
            if a.out_dim != b.in_dim:
                raise ValueError(
                    f"layer {k} outputs {a.out_dim} values but layer {k + 1} expects {b.in_dim}"
                )

    @property
    def input_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def output_dim(self) -> int:
        return self.layers[-1].out_dim

    @property
    def is_square(self) -> bool:
        return self.input_dim == self.output_dim

    def dims(self) -> tuple[int, ...]:
        return (self.input_dim,) + tuple(l.out_dim for l in self.layers)


def load_network(document) -> Network:
    """Validate a parsed model document and build a Network."""
    if not isinstance(document, dict):
        raise ValueError("model document must be a JSON object")
    layers_doc = document.get("layers")
    if not isinstance(layers_doc, list) or not layers_doc:
        raise ValueError("model document needs a nonempty 'layers' list")
    layers = []
    for k, entry in enumerate(layers_doc):
        if not isinstance(entry, dict):
            raise ValueError(f"layer {k} must be an object")
        missing = {"weights", "bias", "activation"} - set(entry)
        if missing:
            raise ValueError(f"layer {k} missing fields: {sorted(missing)}")
        weights, bias = entry["weights"], entry["bias"]
        if not isinstance(weights, list) or not weights or not all(
            isinstance(row, list) and len(row) == len(weights[0]) and row for row in weights
        ):
            raise ValueError(f"layer {k} weights must be a rectangular nonempty matrix")
        # exact types: a JSON true loads as a bool, which subclasses int
        if not isinstance(bias, list) or any(
            type(v) not in (int, float) for row in (bias, *weights) for v in row
        ):
            raise ValueError(f"layer {k} weights and bias must be lists of JSON numbers")
        try:
            layers.append(Layer(weights, bias, entry["activation"]))
        except (ValueError, TypeError, OverflowError) as exc:  # ints past 1e308 overflow
            raise ValueError(f"layer {k}: {exc}") from None
    return Network(tuple(layers))


def network_to_document(net: Network) -> dict:
    return {
        "layers": [
            {
                "weights": [[float(v) for v in row] for row in layer.weights],
                "bias": [float(v) for v in layer.bias],
                "activation": layer.activation,
            }
            for layer in net.layers
        ]
    }


def read_model(path) -> Network:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            document = json.load(fh)
        except RecursionError:
            raise ValueError(f"model document {path} is nested too deeply") from None
    return load_network(document)


def write_model(net: Network, path) -> None:
    Path(path).write_text(json.dumps(network_to_document(net), indent=1), encoding="utf-8")


def forward_batch(net: Network, xs: np.ndarray) -> np.ndarray:
    """Evaluate the network on a batch of points, shape (n, input_dim).

    Each layer is ``f(x @ W.T + b)`` with the bias added through
    `intervals._add_bias`, the same one addition per element.  The product
    reads the transposed view ``W.T``, not the contiguous copy in ``_ops``:
    BLAS rounds the two differently on some rows, and a moved image would
    move a counterexample.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != net.input_dim:
        raise ValueError(f"expected batch of shape (n, {net.input_dim})")
    out = xs
    for layer in net.layers:
        z = out @ layer.weights.T
        _add_bias(z, layer._ops.bias_tile)
        out = _lookup(layer.activation).f(z)
    return out


def forward_point(net: Network, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (net.input_dim,):
        raise ValueError(f"expected input of shape ({net.input_dim},)")
    return forward_batch(net, x[None, :])[0]


def jacobian_batch(net: Network, xs: np.ndarray) -> np.ndarray:
    """Chain-rule Jacobians at a batch of points, shape (n, out_dim, in_dim)."""
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != net.input_dim:
        raise ValueError(f"expected batch of shape (n, {net.input_dim})")
    n = xs.shape[0]
    jac = np.broadcast_to(np.eye(net.input_dim), (n, net.input_dim, net.input_dim)).copy()
    out = xs
    for layer in net.layers:
        z = out @ layer.weights.T + layer.bias
        act = _lookup(layer.activation)
        jac = act.deriv(z)[:, :, None] * np.einsum("oi,nij->noj", layer.weights, jac)
        out = act.f(z)
    return jac


def generate_network(seed: int, dims, activation: str = "tanh", scale: float = 1.0) -> Network:
    """Deterministic seeded network with uniform weights in [-scale, scale].

    Hidden layers use `activation`; the output layer is linear.  The
    counter-based Philox generator makes equal seeds give bit-identical
    networks.
    """
    dims = [_index("layer size", d, 1) for d in dims]
    if len(dims) < 2:
        raise ValueError("dims must list input and output sizes")
    seed = _index("seed", seed)
    if not (isinstance(scale, numbers.Real) and 0 < scale < np.inf):
        raise ValueError(f"scale must be a positive, finite number, got {scale!r}")
    rng = np.random.Generator(np.random.Philox(seed))
    layers = []
    last = len(dims) - 2
    for k in range(len(dims) - 1):
        w = rng.uniform(-scale, scale, size=(dims[k + 1], dims[k]))
        b = rng.uniform(-scale, scale, size=dims[k + 1])
        layers.append(Layer(w, b, "linear" if k == last else activation))
    return Network(tuple(layers))
