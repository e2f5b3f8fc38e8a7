import json
import math

import numpy as np
import pytest

import reachbound as rb
from conftest import identity_net, linear_net, make_net, sample_box


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
