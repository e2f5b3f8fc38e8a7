import json
import math
import re

import numpy as np
import pytest

import reachbound as rb
from reachbound.intervals import _TILE
from reachbound.reports import render_svg
from conftest import bias_rows, identity_net, linear_net, make_net, sample_box


def doc_252():
    """A 2 -> 5 -> 2 model document with one tanh hidden layer."""
    return rb.network_to_document(make_net())


def test_load_two_layer_document():
    net = rb.load_network(doc_252())
    assert len(net.layers) == 2
    assert net.input_dim == 2 and net.output_dim == 2
    assert net.layers[0].activation == "tanh" and net.layers[1].activation == "linear"


def test_load_rejects_empty_layers():
    with pytest.raises(ValueError):
        rb.load_network({"layers": []})


def test_load_rejects_bias_mismatch():
    doc = {"layers": [{"weights": [[1.0, 0.0], [0.0, 1.0]], "bias": [0.0], "activation": "tanh"}]}
    with pytest.raises(ValueError):
        rb.load_network(doc)


def test_load_rejects_ragged_weights():
    doc = {"layers": [{"weights": [[1.0, 0.0], [0.0]], "bias": [0.0, 0.0], "activation": "tanh"}]}
    with pytest.raises(ValueError):
        rb.load_network(doc)


def test_load_rejects_unknown_activation():
    doc = {"layers": [{"weights": [[1.0]], "bias": [0.0], "activation": "relu"}]}
    with pytest.raises(ValueError):
        rb.load_network(doc)


@pytest.mark.parametrize("activation", [["tanh"], {"a": 1}], ids=["list", "dict"])
def test_layer_rejects_an_unhashable_activation(activation):
    with pytest.raises(ValueError, match="unknown activation"):
        rb.Layer(np.eye(2), np.zeros(2), activation)


def test_load_rejects_nonfinite():
    doc = {"layers": [{"weights": [[math.inf]], "bias": [0.0], "activation": "tanh"}]}
    with pytest.raises(ValueError):
        rb.load_network(doc)


def test_load_rejects_broken_chain():
    doc = doc_252()
    doc["layers"][1]["weights"] = [[1.0, 0.0, 0.0]]
    doc["layers"][1]["bias"] = [0.0]
    with pytest.raises(ValueError):
        rb.load_network(doc)


def test_roundtrip_is_bit_identical(tmp_path):
    net = make_net()
    path = tmp_path / "model.json"
    rb.write_model(net, path)
    loaded = rb.read_model(path)
    for x in sample_box(rb.Box.from_bounds([(-1, 1), (-1, 1)]), 20, seed=1):
        assert np.array_equal(rb.forward_point(net, x), rb.forward_point(loaded, x))


def test_forward_identity():
    net = identity_net()
    assert np.array_equal(rb.forward_point(net, [0.3, -0.7]), [0.3, -0.7])


def test_forward_tanh_at_origin():
    net = rb.Network((rb.Layer(np.eye(2), np.zeros(2), "tanh"),))
    assert np.array_equal(rb.forward_point(net, [0.0, 0.0]), [0.0, 0.0])


def test_forward_matches_straightforward_reimplementation():
    net = make_net()

    def slow_forward(x):
        vec = list(x)
        for layer in net.layers:
            pre = [
                sum(layer.weights[i, j] * vec[j] for j in range(len(vec))) + layer.bias[i]
                for i in range(layer.out_dim)
            ]
            if layer.activation == "tanh":
                vec = [math.tanh(v) for v in pre]
            elif layer.activation == "sigmoid":
                vec = [1.0 / (1.0 + math.exp(-v)) for v in pre]
            else:
                vec = pre
        return np.array(vec)

    grid = [(a, b) for a in (0.0, 0.5, 1.0) for b in (0.0, 0.5, 1.0)]
    for x in grid:
        fast = rb.forward_point(net, np.array(x))
        slow = slow_forward(x)
        assert np.allclose(fast, slow, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("dims, activation", [((2, 8, 8, 2), "tanh"), ((2, 8, 2), "sigmoid"),
                                               ((16, 3), "tanh"), ((20, 10, 2), "tanh"),
                                               ((3, 5, 1), "tanh")],
                         ids=["2-8-8-2", "2-8-2", "16-3", "20-10-2", "3-5-1"])
def test_forward_bits_match_the_plain_expression(dims, activation):
    # f(x @ W.T + b) per layer, the bias as the (N, m) + (m,) broadcast
    net = rb.generate_network(5, dims, activation, 2.0)
    rng = np.random.default_rng(len(dims))
    for rows in bias_rows(*dims[1:]):
        xs = rng.uniform(-2.0, 2.0, (rows, dims[0]))
        want = xs
        for layer in net.layers:
            want = rb.intervals._lookup(layer.activation).f(want @ layer.weights.T + layer.bias)
        assert rb.forward_batch(net, xs).tobytes() == want.tobytes()


def test_forward_dimension_mismatch():
    with pytest.raises(ValueError):
        rb.forward_point(make_net(), [1.0, 2.0, 3.0])


def test_jacobian_of_scaled_identity():
    net = linear_net(2 * np.eye(2), b=[5.0, -3.0])
    for x in ([0.0, 0.0], [1.0, 2.0]):
        assert np.array_equal(rb.jacobian_batch(net, np.array([x]))[0], 2 * np.eye(2))


def test_jacobian_tanh_at_origin():
    net = rb.Network((rb.Layer(np.eye(2), np.zeros(2), "tanh"),))
    assert np.array_equal(rb.jacobian_batch(net, np.zeros((1, 2)))[0], np.eye(2))


def finite_difference_jacobian(net, x, h=1e-5):
    n = len(x)
    cols = []
    for j in range(n):
        e = np.zeros(n)
        e[j] = h
        cols.append((rb.forward_point(net, x + e) - rb.forward_point(net, x - e)) / (2 * h))
    return np.stack(cols, axis=1)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_jacobian_matches_finite_differences(seed):
    net = make_net(seed=seed)
    for x in sample_box(rb.Box.from_bounds([(-1, 1), (-1, 1)]), 5, seed=seed + 100):
        jac = rb.jacobian_batch(net, x[None])[0]
        fd = finite_difference_jacobian(net, x)
        assert np.max(np.abs(jac - fd)) / max(np.max(np.abs(jac)), 1e-12) < 1e-6


def test_generate_is_deterministic():
    a = rb.generate_network(7, [2, 5, 2])
    b = rb.generate_network(7, [2, 5, 2])
    for la, lb in zip(a.layers, b.layers):
        assert np.array_equal(la.weights, lb.weights)
        assert np.array_equal(la.bias, lb.bias)


def test_generate_seeds_differ():
    a = rb.generate_network(7, [2, 5, 2])
    b = rb.generate_network(8, [2, 5, 2])
    assert not np.array_equal(a.layers[0].weights, b.layers[0].weights)


def test_generate_deep_sigmoid_smoke():
    net = rb.generate_network(42, [2] + [100] * 10 + [2], activation="sigmoid")
    assert net.dims() == (2,) + (100,) * 10 + (2,)
    y = rb.forward_point(net, [0.05, -0.05])
    assert np.isfinite(y).all()
    doc = rb.network_to_document(net)
    assert rb.load_network(json.loads(json.dumps(doc))).input_dim == 2


def test_generate_rejects_bad_args():
    with pytest.raises(ValueError):
        rb.generate_network(0, [2])
    with pytest.raises(ValueError):
        rb.generate_network(0, [2, 3], scale=0.0)


@pytest.mark.parametrize("kwargs, name", [
    ({"seed": True}, "seed"), ({"seed": 1.5}, "seed"), ({"seed": "3"}, "seed"),
    ({"seed": -1}, "seed"), ({"scale": np.inf}, "scale"), ({"scale": np.nan}, "scale"),
    ({"dims": (2, 0, 2)}, "layer size must be at least 1, got 0"),
], ids=["bool-seed", "float-seed", "string-seed", "negative-seed", "inf-scale", "nan-scale",
        "zero-layer-size"])
def test_generate_refuses_a_bad_seed_or_scale(kwargs, name):
    with pytest.raises(ValueError, match=name):
        rb.generate_network(**{"seed": 0, "dims": (2, 3, 2), **kwargs})
    assert rb.generate_network(np.int64(1), (2, 3, 2), scale=np.float32(2)).dims() == (2, 3, 2)


@pytest.mark.parametrize("dims", [(2.5, 4, 2), (2, "4", 2), (2, True, 2), (2, 4, 2.0)],
                         ids=["float", "string", "bool", "integral-float"])
def test_generate_refuses_a_layer_size_that_is_not_an_integer(dims):
    with pytest.raises(ValueError, match="layer size must be an integer, got "):
        rb.generate_network(0, dims)
    assert rb.generate_network(0, (2, np.int64(4), 2)).dims() == (2, 4, 2)


_SQUARE = rb.Box.from_bounds([(0, 1), (0, 1)])


def _problem(**kwargs):
    return rb.VerificationProblem(identity_net(), _SQUARE, _SQUARE, **kwargs)


# entry point -> (floor, the refusal one below it, a call with the value v)
_FLOORS = {
    "problem-max_refinements": (0, "max_refinements must be nonnegative, got -1",
                                lambda v: _problem(max_refinements=v)),
    "problem-seed": (0, "seed must be nonnegative, got -1", lambda v: _problem(seed=v)),
    "problem-falsify_samples": (0, "falsify_samples must be nonnegative, got -1",
                                lambda v: _problem(falsify_samples=v)),
    "problem-grid": (1, "grid needs a sequence of positive integer counts, got (0,)",
                     lambda v: _problem(grid=(v,))),
    "monte_carlo-count": (1, "sample count must be at least 1, got 0",
                          lambda v: rb.monte_carlo(identity_net(), _SQUARE, v, 0)),
    "monte_carlo-seed": (0, "seed must be nonnegative, got -1",
                         lambda v: rb.monte_carlo(identity_net(), _SQUARE, 1, v)),
    "generate-layer-size": (1, "layer size must be at least 1, got 0",
                            lambda v: rb.generate_network(0, (2, v, 2))),
    "generate-seed": (0, "seed must be nonnegative, got -1",
                      lambda v: rb.generate_network(v, (2, 2))),
    "CellGrid": (1, "subdivision count must be at least 1, got 0",
                 lambda v: rb.CellGrid(_SQUARE, (3, v))),
    "render_svg-proj": (0, "proj must be nonnegative, got -1",
                        lambda v: render_svg([], np.zeros((1, 2)), proj=(1, v))),
}


@pytest.mark.parametrize("entry", list(_FLOORS))
def test_each_integer_floor_is_accepted_and_one_below_refused(entry):
    # `network._index` holds every floor; `grid_counts` words its own refusal
    low, message, call = _FLOORS[entry]
    call(low)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(low - 1)


@pytest.mark.parametrize(
    "call",
    [
        lambda: rb.forward_batch(make_net(), np.zeros(2)),
        lambda: rb.forward_batch(make_net(), np.zeros((4, 3))),
        lambda: rb.jacobian_batch(make_net(), np.zeros(2)),
        lambda: rb.jacobian_batch(make_net(), np.zeros((4, 3))),
        lambda: rb.generate_network(0, [2, 0, 2]),
        lambda: rb.Network(()),
        lambda: rb.Layer(np.zeros((2, 0)), np.zeros(2), "linear"),
    ],
    ids=["forward-1d", "forward-dim", "jacobian-1d", "jacobian-dim", "generate-zero-size",
         "empty-network", "empty-weights"],
)
def test_network_input_checks(call):
    with pytest.raises(ValueError):
        call()


def twin_nets():
    return rb.generate_network(0, (2, 3, 2)), rb.generate_network(0, (2, 3, 2))


# Networks and layers hold arrays, so they compare and hash by identity, as `Box` does;
# field-wise comparison raised on the arrays' ambiguous truth value.
@pytest.mark.parametrize("check", [
    lambda a, b: a != b and a == a and a.layers[0] != b.layers[0],
    lambda a, b: (rb.VerificationProblem(a, rb.Box([0, 0], [1, 1]), rb.Box([0, 0], [1, 1]))
                  != rb.VerificationProblem(b, rb.Box([0, 0], [1, 1]), rb.Box([0, 0], [1, 1]))),
    lambda a, b: hash(a) == hash(a) and hash(a.layers[0]) == hash(a.layers[0]),
    lambda a, b: {a: 1, b: 2}[a] == 1 and {a.layers[0]: 1}.get(b.layers[0]) is None,
], ids=["eq", "problem-eq", "hash", "dict-key"])
def test_networks_and_layers_compare_and_hash_by_identity(check):
    assert check(*twin_nets())


def test_layer_operands_are_prepared_read_only_copies():
    w = np.array([[1.0, -2.0, 0.0], [-0.5, 3.0, 4.0]])
    b = np.array([0.25, -1.0])
    layer = rb.Layer(w, b, "tanh")
    # two outputs: bias tiles of _TILE / 2 rows
    want = (w.T, np.maximum(w, 0).T, np.minimum(w, 0).T, np.abs(w).T,
            np.tile(b, (_TILE // 2, 1)), np.tile(np.abs(b), (_TILE // 2, 1)))
    assert len(layer._ops) == len(want)
    for got, ref in zip(layer._ops, want):
        assert np.array_equal(got, ref) and got.flags.c_contiguous and not got.flags.writeable
    assert w.flags.writeable and b.flags.writeable
