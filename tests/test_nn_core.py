import copy
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gannet import nn_core
from gannet.config import FitConfig
from gannet.data import Dataset
from gannet.exceptions import DataValidationError, NumericInstabilityError
from gannet.model import fit, load_model, save_model
from gannet.nn_core import (
    AdamState,
    DenseLayer,
    SubNetwork,
    build_network,
    forward,
    glorot_normal_init,
    gradients,
    train_one_epoch,
)
from gannet.nn_core import RELU, _batch_loss_and_grads, _is_spline, _piece_table


def single_layer_net(w: float, b: float) -> SubNetwork:
    layer = DenseLayer(np.array([[w]]), np.array([b]), "linear")
    return SubNetwork([layer])


def weighted_mse(net, x, t, w, l2=0.0):
    yhat = forward(net, x)
    loss = float(np.sum(w * (yhat - t) ** 2) / np.sum(w))
    if l2:
        loss += l2 * sum(float(np.sum(layer.weights**2)) for layer in net.layers)
    return loss


def finite_difference_grads(net, x, t, w, l2=0.0, h=1e-6):
    """Central differences of the batch loss wrt every parameter."""
    out = []
    for layer in net.layers:
        pieces = []
        for arr in (layer.weights, layer.biases):
            g = np.zeros_like(arr)
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + h
                up = weighted_mse(net, x, t, w, l2)
                arr[idx] = orig - h
                down = weighted_mse(net, x, t, w, l2)
                arr[idx] = orig
                g[idx] = (up - down) / (2 * h)
            pieces.append(g)
        out.append(tuple(pieces))
    return out


def max_relative_error(analytic, numeric):
    worst = 0.0
    for (aw, ab), (nw, nb) in zip(analytic, numeric):
        for a, n in ((aw, nw), (ab, nb)):
            denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(n)))
            worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


class PerLayerAdam(AdamState):
    """The per-layer Adam loop the fused step replaced: the fused step's oracle."""

    def apply(self, net, grads, label=None):
        if self.first_moment is None:
            self.first_moment = [(np.zeros_like(l.weights), np.zeros_like(l.biases))
                                 for l in net.layers]
            self.second_moment = [(np.zeros_like(l.weights), np.zeros_like(l.biases))
                                  for l in net.layers]
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1**t
        bc2 = 1.0 - self.beta2**t
        for k, layer in enumerate(net.layers):
            for which, param, grad in (
                (0, layer.weights, grads[k][0]),
                (1, layer.biases, grads[k][1]),
            ):
                m = self.first_moment[k][which]
                v = self.second_moment[k][which]
                m *= self.beta1
                m += (1.0 - self.beta1) * grad
                v *= self.beta2
                v += (1.0 - self.beta2) * grad * grad
                param -= self.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + self.epsilon)


def _forward_cached(net: SubNetwork, x: np.ndarray):
    """Forward pass keeping pre-activations for backprop."""
    a = x.reshape(-1, 1)
    activations = [a]
    pre = []
    for layer in net.layers:
        z = a @ layer.weights.T + layer.biases
        pre.append(z)
        a = np.maximum(z, 0.0) if layer.activation == RELU else z
        activations.append(a)
    return activations, pre


def _dense_grads(net, activations, pre, delta):
    """Backpropagate the output gradient delta through the cached dense pass."""
    delta = delta.reshape(-1, 1)
    grad = np.empty_like(net.params)
    views = net.layer_views(grad)
    for k in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[k]
        np.matmul(delta.T, activations[k], out=views[k][0])
        delta.sum(axis=0, out=views[k][1])
        if k > 0:
            delta = delta @ layer.weights
            if net.layers[k - 1].activation == RELU:
                delta = delta * (pre[k - 1] > 0.0)
    return grad


def dense_forward(net, x):
    """The dense pass, matrix by matrix: the oracle of `forward`."""
    return _forward_cached(net, np.asarray(x, dtype=np.float64))[0][-1][:, 0]


def dense_loss_and_grads(net, x, target, weights, l2_penalty):
    """`_batch_loss_and_grads` through the dense pass: the training step's oracle."""
    wsum = float(weights.sum())
    activations, pre = _forward_cached(net, x)
    resid = activations[-1][:, 0] - target
    wsse = float((weights * resid * resid).sum())
    if wsum > 0.0:
        delta = 2.0 * weights * resid / wsum
    else:
        delta = np.zeros(x.shape[0])
    grad = _dense_grads(net, activations, pre, delta)
    if l2_penalty:
        for (g_w, _), layer in zip(net.layer_views(grad), net.layers):
            g_w += 2.0 * l2_penalty * layer.weights
    return wsse, wsum, grad


def without_spline(fn, *args, **kwargs):
    """Call fn with the spline kernel and the knot table switched off: batch
    gradients then come from the dense step, and `forward` from the general
    piece table, the knot table's oracle."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nn_core, "_is_spline", lambda net: False)
        return fn(*args, **kwargs)


def spline_net(a, b, v, c=0.3, w1=1.25, b1=-0.2) -> SubNetwork:
    """dense(1->1) -> dense(1->H, relu) -> dense(H->1) with the given parameters."""
    return SubNetwork([
        DenseLayer(np.array([[w1]]), np.array([b1]), "linear"),
        DenseLayer(np.array(a, dtype=float)[:, None], np.array(b, dtype=float), "relu"),
        DenseLayer(np.array(v, dtype=float)[None, :], np.array([c]), "linear"),
    ])


def random_spline_case(seed, units=8, rows=40, **net_kwargs):
    rng = np.random.default_rng(seed)
    net = spline_net(rng.normal(0, 1, units), rng.normal(0, 0.5, units),
                     rng.normal(0, 1, units), **net_kwargs)
    return net, rng.uniform(-2, 2, rows), rng.uniform(0.1, 2.0, rows)


# (net, x, weights) per case; each puts one rule of the kernel in play
SPLINE_CASES = {
    "mixed_slopes": random_spline_case(1),
    "wide": random_spline_case(2, units=256, rows=300),
    "zero_slope_units": (
        spline_net([0.0, 0.0, 1.0, -0.5], [0.7, -0.4, 0.2, 0.1], [1.5, 3.0, 0.5, -1.0]),
        np.linspace(-2, 2, 8), np.ones(8),
    ),
    # a = b = 0: pre-activation exactly 0 on every row, a kink in (a, b)
    "zero_slope_zero_bias": (
        spline_net([0.0, 1.0], [0.0, 0.2], [-2.0, 0.5]), np.linspace(-2, 2, 8), np.ones(8),
    ),
    "negative_w1": random_spline_case(3, w1=-0.8),
    "zero_w1": random_spline_case(4, w1=0.0),
    # u = 0.5 is the knot of units 0 and 1 (pre-activation exactly 0)
    "row_on_knot": (
        spline_net([2.0, -4.0, 1.0], [-1.0, 2.0, 0.25], [1.0, 2.0, -1.5], w1=1.0, b1=0.0),
        np.array([0.5, -1.0, 0.5, 1.5, 0.25]), np.ones(5),
    ),
    "repeated_u": (
        random_spline_case(5)[0],
        np.array([0.3] * 5 + [-1.1] * 3 + [1.7] * 4), np.linspace(0.5, 1.5, 12),
    ),
    "single_row": random_spline_case(6, rows=1),
    "zero_weight_batch": (random_spline_case(7)[0], np.linspace(-2, 2, 6), np.zeros(6)),
}
# the cases where the loss is differentiable: no pre-activation exactly 0
# and a positive weight sum
SMOOTH_CASES = ["mixed_slopes", "zero_slope_units", "negative_w1", "zero_w1",
                "repeated_u", "single_row"]


class TestGlorotInit:
    def test_symmetric_fans_have_unit_std(self):
        rng = np.random.default_rng(0)
        draws = np.concatenate(
            [glorot_normal_init(1, 1, rng).ravel() for _ in range(20000)]
        )
        assert abs(draws.std() - 1.0) < 0.02

    def test_wide_layer_std(self):
        rng = np.random.default_rng(1)
        draws = np.concatenate(
            [glorot_normal_init(1, 1024, rng).ravel() for _ in range(100)]
        )
        target = math.sqrt(2.0 / 1025.0)
        assert abs(draws.std() - target) / target < 0.02

    def test_same_seed_identical(self):
        a = glorot_normal_init(3, 5, np.random.default_rng(42))
        b = glorot_normal_init(3, 5, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)

class TestBuildNetwork:
    def test_layer_plan(self):
        net = build_network((256, 128), "relu", np.random.default_rng(0))
        fans = [(l.fan_in, l.fan_out) for l in net.layers]
        assert fans == [(1, 1), (1, 256), (256, 128), (128, 1)]
        # input projection and output unit are linear; hidden layers use relu
        assert [l.activation for l in net.layers] == ["linear", "relu", "relu", "linear"]
        assert net.parameter_count() == 33539

    def test_biases_start_at_zero(self):
        net = build_network((16,), "relu", np.random.default_rng(0))
        for layer in net.layers:
            np.testing.assert_array_equal(layer.biases, 0.0)


def assert_views_of_own_params(nets):
    """Every layer array is a view of its own net's params and of no other net's."""
    for net in nets:
        assert net.params.dtype == np.float64 and net.params.flags.c_contiguous
        assert net.params.size == sum(l.weights.size + l.biases.size for l in net.layers)
        for layer in net.layers:
            for arr in (layer.weights, layer.biases):
                for other in nets:
                    assert np.shares_memory(arr, other.params) == (other is net)


class TestParameterVector:
    def test_layers_are_views_after_build(self):
        rng = np.random.default_rng(0)
        assert_views_of_own_params([build_network((8, 8), "relu", rng),
                                    build_network((16,), "relu", rng)])

    def test_layout_is_weights_then_biases_in_layer_order(self):
        net = spline_net([1.0, 2.0], [3.0, 4.0], [5.0, 6.0], c=7.0, w1=8.0, b1=9.0)
        np.testing.assert_array_equal(net.params, [8, 9, 1, 2, 3, 4, 5, 6, 7])
        assert net.parameter_count() == 9

    def test_layers_are_views_after_deepcopy(self):
        net = build_network((8, 8), "relu", np.random.default_rng(0))
        clone = copy.deepcopy(net)
        assert_views_of_own_params([net, clone])
        np.testing.assert_array_equal(clone.params, net.params)

    def test_layers_are_views_after_load_model(self, tmp_path):
        rng = np.random.default_rng(0)
        data = Dataset({"x1": rng.uniform(-1, 1, 60), "x2": rng.uniform(-1, 1, 60),
                        "y": rng.normal(size=60)})
        config = FitConfig(num_units=(4, 3), max_iter_backfitting=1, seed=0, verbose=0)
        save_model(fit(data, "y ~ s(x1) + s(x2)", config), tmp_path / "m.json")
        model = load_model(tmp_path / "m.json")
        assert_views_of_own_params([est.net for est in model.estimators])

    def test_training_a_deep_copy_leaves_the_original(self):
        net = build_network((8,), "relu", np.random.default_rng(0))
        original = net.params.copy()
        clone = copy.deepcopy(net)
        x = np.linspace(-1, 1, 20)
        train_one_epoch(clone, x, x**2, np.ones(20), AdamState(0.01), 5, np.random.default_rng(1))
        assert not np.array_equal(clone.params, original)
        np.testing.assert_array_equal(net.params, original)

    @pytest.mark.parametrize("num_units", [(8,), (8, 8)])
    def test_freeze_makes_every_parameter_read_only(self, num_units):
        net = build_network(num_units, "relu", np.random.default_rng(0))
        net.freeze()
        for arr in (net.params, *(a for l in net.layers for a in (l.weights, l.biases))):
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0.0
        assert_views_of_own_params([net])

    @pytest.mark.parametrize("num_units", [(8,), (8, 8)])
    def test_freeze_stores_the_table_of_every_net(self, num_units):
        net = build_network(num_units, "relu", np.random.default_rng(0))
        x = np.random.default_rng(1).uniform(-3, 3, 500)
        before = forward(net, x)
        net.freeze()
        for stored, fresh in zip(net.table, _piece_table(net), strict=True):
            np.testing.assert_array_equal(stored, fresh)
        np.testing.assert_array_equal(forward(net, x), before)

    def test_deep_copy_of_a_frozen_net_is_writable_and_trains(self):
        net = build_network((8, 8), "relu", np.random.default_rng(0))
        net.freeze()
        original = net.params.copy()
        clone = copy.deepcopy(net)
        assert clone.table is None and clone.params.flags.writeable
        assert_views_of_own_params([net, clone])
        x = np.linspace(-1, 1, 20)
        train_one_epoch(clone, x, x**2, np.ones(20), AdamState(0.01), 5, np.random.default_rng(1))
        assert not np.array_equal(clone.params, original)
        np.testing.assert_array_equal(net.params, original)

    def test_in_place_layer_write_shows_in_params(self):
        net = build_network((4,), "relu", np.random.default_rng(0))
        net.layers[1].weights[2, 0] = 42.0
        net.layers[2].biases[0] = -7.0
        assert net.params[2 + 2] == 42.0  # after the input layer's weight and bias
        assert net.params[-1] == -7.0


class TestForward:
    def test_zero_network_outputs_zero(self):
        net = build_network((8,), "relu", np.random.default_rng(0))
        for layer in net.layers:
            layer.weights[:] = 0.0
            layer.biases[:] = 0.0
        np.testing.assert_array_equal(forward(net, np.array([-3.0, 0.0, 11.0])), 0.0)

    def test_affine_identity_case(self):
        net = single_layer_net(2.0, 1.0)
        np.testing.assert_array_equal(forward(net, np.array([3.0])), [7.0])

    def test_two_layer_relu_by_hand(self):
        # hidden: relu([1, -2] * x + [0.5, 0.25]); out: [3, -1] . h + 0.125
        hidden = DenseLayer(np.array([[1.0], [-2.0]]), np.array([0.5, 0.25]), "relu")
        out = DenseLayer(np.array([[3.0, -1.0]]), np.array([0.125]), "linear")
        net = SubNetwork([hidden, out])
        x = -1.0
        h1 = max(0.0, 1.0 * x + 0.5)      # 0.0
        h2 = max(0.0, -2.0 * x + 0.25)    # 2.25
        expected = 3.0 * h1 - 1.0 * h2 + 0.125
        np.testing.assert_allclose(forward(net, np.array([x])), [expected], rtol=1e-15)

    @pytest.mark.parametrize("num_units, activation",
                             [((16,), "relu"), ((8, 8), "relu"), ((8,), "linear")])
    def test_zero_rows_give_an_empty_vector(self, num_units, activation):
        net = build_network(num_units, activation, np.random.default_rng(0))
        out = forward(net, np.empty(0))
        assert out.shape == (0,) and out.dtype == np.float64

    def test_rejects_non_finite_input(self):
        net = build_network((4,), "relu", np.random.default_rng(0))
        with pytest.raises(DataValidationError):
            forward(net, np.array([1.0, np.nan]))


class TestGradients:
    def test_per_layer_views_of_one_vector_in_params_layout(self):
        net = build_network((4, 3), "relu", np.random.default_rng(0))
        grads = gradients(net, np.linspace(-1, 1, 5), np.ones(5))
        _, _, flat = _batch_loss_and_grads(net, np.linspace(-1, 1, 5), np.ones(5), np.ones(5), 0.0)
        assert flat.shape == net.params.shape
        base = grads[0][0].base
        for (g_w, g_b), layer in zip(grads, net.layers):
            assert g_w.shape == layer.weights.shape and g_b.shape == layer.biases.shape
            assert g_w.base is base and g_b.base is base
        np.testing.assert_array_equal(base, flat)

    def test_1_4_1_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        net = build_network((4,), "relu", rng)
        x = rng.uniform(-2, 2, 5)
        t = rng.normal(0, 1, 5)
        w = np.ones(5)
        analytic = gradients(net, x, t, w)
        numeric = finite_difference_grads(net, x, t, w)
        assert max_relative_error(analytic, numeric) < 1e-5

    @staticmethod
    def check_random_nets(seed, activation, depths):
        """20 nets of widths 1-8 and a depth drawn from range(*depths)."""
        rng = np.random.default_rng(seed)
        for _ in range(20):
            widths = tuple(rng.integers(1, 9, size=rng.integers(*depths)))
            net = build_network(widths, activation, rng)
            # move biases off zero so relu kinks are in play
            for layer in net.layers:
                layer.biases[:] = rng.normal(0, 0.3, layer.biases.shape)
            n = int(rng.integers(2, 17))
            x = rng.uniform(-2, 2, n)
            t = rng.normal(0, 1, n)
            w = rng.uniform(0.1, 2.0, n)
            analytic = gradients(net, x, t, w)
            numeric = finite_difference_grads(net, x, t, w)
            assert max_relative_error(analytic, numeric) < 1e-5

    def test_random_small_nets(self):
        self.check_random_nets(123, "relu", (1, 3))

    def test_random_linear_nets(self):
        self.check_random_nets(124, "linear", (1, 4))

    def test_random_three_layer_nets(self):
        self.check_random_nets(125, "relu", (3, 4))

    def test_l2_penalty_gradient(self):
        rng = np.random.default_rng(9)
        net = build_network((6,), "relu", rng)
        x = rng.uniform(-1, 1, 8)
        t = rng.normal(0, 1, 8)
        w = np.ones(8)
        analytic = gradients(net, x, t, w, l2_penalty=0.05)
        numeric = finite_difference_grads(net, x, t, w, l2=0.05)
        assert max_relative_error(analytic, numeric) < 1e-5


# (num_units, activation): width-one layers at each place, depth 1-3, relu and linear
DENSE_NETS = [((1,), "relu"), ((64, 1), "relu"), ((1, 64), "relu"), ((3, 5, 2), "relu"),
              ((8, 8, 8), "relu"), ((64, 64), "relu"), ((16, 16), "linear"),
              ((1, 1, 1), "linear")]


class TestDenseStep:
    """The training step of every network but the spline against the dense pass."""

    @staticmethod
    def assert_matches_oracle(net, x, t, w, l2):
        wsse, wsum, grad = without_spline(_batch_loss_and_grads, net, x, t, w, l2)
        o_wsse, o_wsum, o_grad = dense_loss_and_grads(net, x, t, w, l2)
        assert wsum == o_wsum
        assert abs(wsse - o_wsse) <= 1e-12 * max(1.0, abs(o_wsse))
        assert grad.shape == o_grad.shape == net.params.shape
        assert max_relative_error(net.layer_views(grad), net.layer_views(o_grad)) <= 1e-12

    @pytest.mark.parametrize("zeros", [None, "params", "sample_weights"])
    @pytest.mark.parametrize("l2", [0.0, 0.05])
    @pytest.mark.parametrize("rows", [1, 128])
    @pytest.mark.parametrize("num_units, activation", DENSE_NETS)
    def test_matches_the_dense_oracle(self, num_units, activation, rows, l2, zeros):
        rng = np.random.default_rng([rows, *num_units])
        for _ in range(20):
            net = build_network(num_units, activation, rng)
            if zeros == "params":
                net.params[:] = 0.0
            else:
                for layer in net.layers:
                    layer.biases[:] = rng.normal(0, 0.3, layer.biases.shape)
            x = rng.uniform(-2, 2, rows)
            t = rng.normal(0, 1, rows)
            w = np.zeros(rows) if zeros == "sample_weights" else rng.uniform(0.1, 2.0, rows)
            self.assert_matches_oracle(net, x, t, w, l2)

    @pytest.mark.parametrize("activation", ["relu", "linear"])
    def test_nets_without_the_input_projection(self, activation):
        rng = np.random.default_rng(7)
        x, t, w = rng.uniform(-2, 2, 50), rng.normal(0, 1, 50), rng.uniform(0.1, 2.0, 50)
        nets = [
            single_layer_net(1.5, -0.25),
            SubNetwork([DenseLayer(rng.normal(0, 1, (1, 1)), rng.normal(0, 1, 1), activation),
                        DenseLayer(rng.normal(0, 1, (1, 1)), rng.normal(0, 1, 1), "linear")]),
            SubNetwork([DenseLayer(rng.normal(0, 1, (6, 1)), rng.normal(0, 1, 6), activation),
                        DenseLayer(rng.normal(0, 1, (1, 6)), rng.normal(0, 1, 1), "linear")]),
        ]
        for net in nets:
            self.assert_matches_oracle(net, x, t, w, 0.05)


class TestSplineKernel:
    def test_applies_to_one_relu_hidden_layer_only(self):
        rng = np.random.default_rng(0)
        assert _is_spline(build_network((16,), "relu", rng))
        assert not _is_spline(build_network((16,), "linear", rng))
        assert not _is_spline(build_network((8, 8), "relu", rng))
        assert not _is_spline(single_layer_net(1.0, 0.0))

    @pytest.mark.parametrize("case", SPLINE_CASES)
    def test_forward_matches_dense(self, case):
        net, x, _ = SPLINE_CASES[case]
        oracle = dense_forward(net, x)
        np.testing.assert_allclose(forward(net, x), oracle, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(without_spline(forward, net, x), oracle, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("l2", [0.0, 0.05])
    @pytest.mark.parametrize("case", SPLINE_CASES)
    def test_loss_and_gradients_match_dense(self, case, l2):
        net, x, w = SPLINE_CASES[case]
        t = np.cos(3.0 * x)
        wsse, wsum, grads = _batch_loss_and_grads(net, x, t, w, l2)
        d_wsse, d_wsum, d_grads = dense_loss_and_grads(net, x, t, w, l2)
        assert wsum == d_wsum
        assert abs(wsse - d_wsse) <= 1e-12 * max(1.0, abs(d_wsse))
        assert grads.shape == d_grads.shape == net.params.shape
        assert max_relative_error(net.layer_views(grads), net.layer_views(d_grads)) <= 1e-12

    @pytest.mark.parametrize("l2", [0.0, 0.05])
    @pytest.mark.parametrize("case", SMOOTH_CASES)
    def test_gradients_match_finite_differences(self, case, l2):
        net, x, w = SPLINE_CASES[case]
        t = np.cos(3.0 * x)
        analytic = gradients(net, x, t, w, l2_penalty=l2)
        numeric = finite_difference_grads(net, x, t, w, l2=l2)
        assert max_relative_error(analytic, numeric) < 1e-5

    def test_row_on_knot_is_inactive(self):
        net, _, _ = SPLINE_CASES["row_on_knot"]
        # units 0 and 1 sit exactly at 0 on u = 0.5; only unit 2 adds to f
        expected = 0.3 - 1.5 * (0.5 + 0.25)
        assert forward(net, np.array([0.5]))[0] == expected

    def test_training_step_sorts_tied_rows_stably(self, monkeypatch):
        # the batch sums of delta follow the order of tied rows, so the
        # training step must not take the unstable sort of `forward`
        made = []

        class Recorded(nn_core._Spline):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(nn_core, "_Spline", Recorded)
        net = kinked_spline_net(-0.8)
        x = np.round(np.random.default_rng(3).uniform(-2, 2, 512), 1)  # ties in u
        _batch_loss_and_grads(net, x, np.sin(x), np.ones(512), 0.0)
        u = x * net.layers[0].weights[0, 0] + net.layers[0].biases[0]
        np.testing.assert_array_equal(made[0].order, u.argsort(kind="stable"))

    def test_same_seed_training_is_bit_identical(self):
        def run():
            net = build_network((32,), "relu", np.random.default_rng(3))
            x = np.round(np.random.default_rng(4).uniform(-2, 2, 300), 1)  # ties in u
            adam, shuffle = AdamState(learning_rate=0.01), np.random.default_rng(5)
            for _ in range(3):
                train_one_epoch(net, x, np.sin(2 * x), np.ones(300), adam, 32, shuffle)
            return net, forward(net, x)

        (net_a, f_a), (net_b, f_b) = run(), run()
        assert _is_spline(net_a)
        np.testing.assert_array_equal(f_a, f_b)
        for la, lb in zip(net_a.layers, net_b.layers):
            np.testing.assert_array_equal(la.weights, lb.weights)
            np.testing.assert_array_equal(la.biases, lb.biases)


def unsorted_knot_positions(u, a, b):
    """(lo, hi) of every unit by two searches over its knots in unit order:
    the oracle for the kernel, which searches them in ascending order."""
    with np.errstate(divide="ignore", invalid="ignore"):
        knots = np.where(a == 0.0, np.where(b > 0.0, -np.inf, np.inf), -b / a)
    return np.searchsorted(u, knots, side="right"), np.searchsorted(u, knots, side="left")


# zero slopes of both signs, biases above, at and below 0, and no slope so
# small that its knot overflows
SLOPES = st.one_of(st.sampled_from([0.0, -0.0, 0.5, -0.5, 2.0]),
                   st.floats(1e-3, 4.0), st.floats(-4.0, -1e-3))
BIASES = st.one_of(st.sampled_from([0.0, -0.0, 0.7, -0.7]), st.floats(-2.0, 2.0))


@st.composite
def placement_cases(draw):
    """(a, b, x) with rows on knots and repeated rows, one row or more."""
    units = draw(st.integers(1, 12))
    a = np.array(draw(st.lists(SLOPES, min_size=units, max_size=units)))
    b = np.array(draw(st.lists(BIASES, min_size=units, max_size=units)))
    with np.errstate(divide="ignore", invalid="ignore"):
        on_knots = [float(k) for k in -b / a if np.isfinite(k)]
    row = st.one_of(st.floats(-3.0, 3.0), st.sampled_from(on_knots + [0.0, 1.0]))
    rows = draw(st.lists(row, min_size=1, max_size=16))
    repeats = draw(st.integers(0, len(rows)))
    return a, b, np.array(rows + rows[:repeats])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=placement_cases())
def test_knot_placement_matches_unsorted_searches(case):
    a, b, x = case
    net = spline_net(a, b, np.linspace(-1.0, 1.0, a.size), w1=1.0, b1=0.0)  # u = x
    spline = nn_core._Spline(net, x)
    lo, hi = unsorted_knot_positions(spline.u, a, b)
    np.testing.assert_array_equal(spline.lo, lo)
    np.testing.assert_array_equal(spline.hi, hi)
    np.testing.assert_allclose(forward(net, x), dense_forward(net, x), rtol=1e-12, atol=1e-12)


@st.composite
def piece_table_cases(draw):
    """(net, x): 1-3 hidden layers of relu or linear units, some weights 0
    (zero slopes), an input weight of either sign or 0, and rows on the
    table's edges, repeated, single or all equal."""
    widths = draw(st.lists(st.integers(1, 8), min_size=1, max_size=3))
    activation = draw(st.sampled_from(["relu", "linear"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    zeros = draw(st.sampled_from([0.0, 0.3]))
    layers = [
        DenseLayer(rng.normal(0.0, 1.0, (o, i)) * (rng.random((o, i)) >= zeros),
                   rng.normal(0.0, 1.0, o), act)
        for i, o, act in nn_core.layer_plan(tuple(widths), activation)
    ]
    layers[0].weights[0, 0] = draw(st.sampled_from([-1.5, -0.0, 0.0, 0.8]))
    net = SubNetwork(layers)
    rows = draw(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=12))
    shape = draw(st.sampled_from(["plain", "on_edges", "all_equal"]))
    if shape == "all_equal":
        rows = rows[:1] * draw(st.integers(1, 5))
    elif shape == "on_edges":
        # the table's inner edges within the rows' range
        edges = _piece_table(net)[0][1:-1]
        rows += [float(e) for e in edges if min(rows) <= e <= max(rows)]
    repeats = draw(st.integers(0, len(rows)))
    return net, np.array(rows + rows[:repeats])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=piece_table_cases())
def test_piece_table_matches_dense_pass(case):
    net, x = case
    # the table covers the whole line: rows far outside any data range too;
    # a one-relu-layer net reads its knot table, or switched off, the general one
    for rows in (x, np.array([-1e6, 1e6])):
        oracle = dense_forward(net, rows)
        for table in (forward(net, rows), without_spline(forward, net, rows)):
            assert np.max(np.abs(table - oracle)) <= 1e-12 * max(1.0, np.max(np.abs(oracle)))
    edges, slope, _ = _piece_table(net)
    assert (edges[0], edges[-1]) == (-np.inf, np.inf)
    # each relu layer of width H splits a piece at most H times
    bound = math.prod(l.fan_out + 1 for l in net.layers if l.activation == "relu")
    assert slope.size <= bound


def kinked_deep_net(w1: float = 1.0) -> SubNetwork:
    """A (64, 64) relu network with its 64 first-layer kinks spread over
    x in (-1.9, 1.9): its table on (-2, 2) has more than 64 pieces."""
    net = build_network((64, 64), "relu", np.random.default_rng(0))
    inp, hidden = net.layers[:2]
    inp.weights[:], inp.biases[:] = w1, 0.0
    hidden.biases[:] = -hidden.weights[:, 0] * w1 * np.linspace(-1.9, 1.9, 64)
    net.layers[2].biases[:] = np.random.default_rng(1).normal(0.0, 0.3, 64)
    return net


def kinked_spline_net(w1: float = 1.0) -> SubNetwork:
    """A (1024,) relu network with N(0, 1) hidden biases: knots spread over u."""
    net = build_network((1024,), "relu", np.random.default_rng(0))
    net.layers[0].weights[:] = w1
    net.layers[1].biases[:] = np.random.default_rng(1).normal(0.0, 1.0, 1024)
    return net


_UNIFORM = np.random.default_rng(2).uniform(-2.0, 2.0, 3000)
# inputs on which a sort has ties to break, or is already done (forwards or
# backwards); 3000 rows span several blocks when the block is made small
ROW_ORDER_INPUTS = {
    "one_decimal": np.round(_UNIFORM, 1),
    "constant": np.full(3000, 0.7),
    "sorted": np.sort(_UNIFORM),
    "reversed": np.sort(_UNIFORM)[::-1].copy(),
}


class TestForwardRowOrder:
    """`forward` sorts rows with an unstable sort: no output may depend on
    the order of the rows or on how ties among them are broken."""

    @pytest.mark.parametrize("w1", [1.0, -0.8])
    @pytest.mark.parametrize("inputs", ROW_ORDER_INPUTS)
    @pytest.mark.parametrize("make_net", [kinked_spline_net, kinked_deep_net])
    def test_bit_identical_under_row_permutation(self, make_net, inputs, w1, monkeypatch):
        net, x = make_net(w1), ROW_ORDER_INPUTS[inputs]
        monkeypatch.setattr(nn_core, "FORWARD_BLOCK_FLOATS", 1000)
        out = forward(net, x)
        for seed in range(3):
            perm = np.random.default_rng(seed).permutation(x.size)
            np.testing.assert_array_equal(forward(net, x[perm]), out[perm])
        np.testing.assert_array_equal(forward(net, x[::-1].copy()), out[::-1])
        np.testing.assert_allclose(out, dense_forward(net, x), rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("inputs", ROW_ORDER_INPUTS)
    def test_ascending_order_sorts_and_skips_the_sort_of_monotone_rows(self, inputs):
        x = ROW_ORDER_INPUTS[inputs]
        for v in (x, x[::-1].copy(), x[:1]):
            order = nn_core._ascending_order(v)
            np.testing.assert_array_equal(v[order], np.sort(v))
            assert isinstance(order, slice) == (inputs != "one_decimal" or v.size == 1)


def forward_peak_bytes(net, n):
    """Peak bytes tracemalloc sees allocated by one forward over n rows."""
    x = np.random.default_rng(1).uniform(-2, 2, n)
    tracemalloc.start()
    try:
        forward(net, x)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestForwardMemory:
    @pytest.mark.parametrize("num_units", [(1024,), (64, 64)])
    def test_peak_allocation_is_linear_in_rows(self, num_units):
        net = build_network(num_units, "relu", np.random.default_rng(0))
        # a few float64/int64 vectors per row, never a row x width block
        # (which for these widths is 512-8192 bytes per row)
        rows = 200_000 - 10_000
        assert forward_peak_bytes(net, 200_000) - forward_peak_bytes(net, 10_000) <= 16 * 8 * rows

    @pytest.mark.parametrize("make_net", [kinked_spline_net, kinked_deep_net])
    def test_piece_table_peak_bytes_per_row(self, make_net):
        # the output and one block of piece indices and gathered coefficients;
        # the score workload's peak RSS rides on it
        net = make_net()
        assert _piece_table(net)[1].size > 64
        assert forward_peak_bytes(net, 100_000) <= 24 * 100_000


class TestAdam:
    def test_single_bias_corrected_step(self):
        net = single_layer_net(0.0, 0.0)
        adam = AdamState(learning_rate=0.001)
        adam.apply(net, np.array([1.0, 0.0]))
        expected = -0.001 * 1.0 / (1.0 + 1e-7)
        assert net.layers[0].weights[0, 0] == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(-0.0009999, abs=1e-7)
        assert adam.step_count == 1

    def test_step_size_bound_for_unit_gradients(self):
        net = single_layer_net(0.0, 0.0)
        adam = AdamState(learning_rate=0.001)
        prev = 0.0
        for _ in range(50):
            adam.apply(net, np.array([1.0, 0.0]))
            step = abs(net.layers[0].weights[0, 0] - prev)
            prev = net.layers[0].weights[0, 0]
            assert step <= 0.001 * (1.0 + 1e-6)

    def test_moments_zero_initialized(self):
        net = build_network((4,), "relu", np.random.default_rng(0))
        adam = AdamState()
        assert adam.first_moment is None and adam.second_moment is None
        adam.apply(net, np.zeros_like(net.params))
        for moment in (adam.first_moment, adam.second_moment):
            assert moment.shape == net.params.shape
            np.testing.assert_array_equal(moment, 0.0)

    @pytest.mark.parametrize("num_units", [(8, 8), (16,)])
    def test_fused_step_matches_per_layer_loop(self, num_units):
        net = build_network(num_units, "relu", np.random.default_rng(1))
        oracle_net = copy.deepcopy(net)
        adam, oracle = AdamState(learning_rate=0.01), PerLayerAdam(learning_rate=0.01)
        rng = np.random.default_rng(2)
        for _ in range(25):
            grad = rng.normal(size=net.params.size)
            adam.apply(net, grad)
            oracle.apply(oracle_net, net.layer_views(grad))
        for la, lb in zip(net.layers, oracle_net.layers):
            np.testing.assert_array_equal(la.weights, lb.weights)
            np.testing.assert_array_equal(la.biases, lb.biases)
        assert adam.step_count == oracle.step_count == 25

    @pytest.mark.parametrize("steps_before", [0, 3])
    def test_non_finite_gradient_changes_nothing(self, steps_before):
        net = build_network((8,), "relu", np.random.default_rng(0))
        adam = AdamState(learning_rate=0.01)
        ones = np.ones_like(net.params)
        for _ in range(steps_before):
            adam.apply(net, ones)
        before = (net.params.copy(), copy.deepcopy(adam.first_moment),
                  copy.deepcopy(adam.second_moment), adam.step_count)
        bad = ones.copy()
        net.layer_views(bad)[1][0][3, 0] = np.nan
        with pytest.raises(NumericInstabilityError, match="non-finite gradient for term 'x2'"):
            adam.apply(net, bad, label="x2")
        after = (net.params, adam.first_moment, adam.second_moment, adam.step_count)
        for old, new in zip(before, after):
            np.testing.assert_array_equal(old, new)

    def test_one_isfinite_scan_of_gradient_and_of_params(self, monkeypatch):
        net = build_network((8, 8), "relu", np.random.default_rng(0))
        _, _, grad = _batch_loss_and_grads(net, np.linspace(-1, 1, 5), np.ones(5), np.ones(5), 0.0)
        scanned = []
        isfinite = np.isfinite
        monkeypatch.setattr(np, "isfinite", lambda a: scanned.append(np.size(a)) or isfinite(a))
        AdamState().apply(net, grad)
        assert scanned == [net.params.size, net.params.size]

    def test_validation(self):
        # the step size is the only setting; FitConfig checks its range
        assert (AdamState.beta1, AdamState.beta2, AdamState.epsilon) == (0.9, 0.999, 1e-7)
        for kwargs in ({"beta1": 0.9}, {"epsilon": 1e-7}, {"step_count": 3}):
            with pytest.raises(TypeError):
                AdamState(**kwargs)


class TestTrainOneEpoch:
    def test_constant_target_loss_shrinks(self):
        rng = np.random.default_rng(2)
        net = build_network((8,), "relu", rng)
        adam = AdamState(learning_rate=0.01)
        x = rng.uniform(-1, 1, 64)
        t = np.full(64, 3.0)
        w = np.ones(64)
        shuffle = np.random.default_rng(0)
        first = train_one_epoch(net, x, t, w, adam, 16, shuffle)
        last = first
        for _ in range(300):
            last = train_one_epoch(net, x, t, w, adam, 16, shuffle)
        assert last < 0.01 * first

    def test_full_batch_loss_is_pre_update(self):
        rng = np.random.default_rng(4)
        net = build_network((4,), "relu", rng)
        adam = AdamState()
        x = rng.uniform(-1, 1, 10)
        t = rng.normal(0, 1, 10)
        w = rng.uniform(0.5, 2.0, 10)
        before = weighted_mse(net, x, t, w)
        reported = train_one_epoch(net, x, t, w, adam, batch_size=10,
                                   rng=np.random.default_rng(0))
        assert reported == pytest.approx(before, rel=1e-12)

    def test_running_loss_accumulates_per_batch(self):
        # with two batches the second contribution is evaluated after the
        # first update; replicate by stepping a cloned network manually
        rng = np.random.default_rng(11)
        net = build_network((4,), "relu", rng)
        clone = copy.deepcopy(net)
        x = rng.uniform(-1, 1, 8)
        t = rng.normal(0, 1, 8)
        w = rng.uniform(0.5, 1.5, 8)

        reported = train_one_epoch(
            net, x, t, w, AdamState(), batch_size=4, rng=np.random.default_rng(7)
        )

        order = np.random.default_rng(7).permutation(8)
        adam = AdamState()
        total = 0.0
        for chunk in (order[:4], order[4:]):
            xb, tb, wb = x[chunk], t[chunk], w[chunk]
            yhat = forward(clone, xb)
            total += float(np.sum(wb * (yhat - tb) ** 2))
            adam.apply(clone, _batch_loss_and_grads(clone, xb, tb, wb, 0.0)[2])
        assert reported == pytest.approx(total / w.sum(), rel=1e-12)

    def test_doubling_weights_changes_nothing(self):
        rng = np.random.default_rng(6)
        net_a = build_network((8,), "relu", rng)
        net_b = copy.deepcopy(net_a)
        x = np.random.default_rng(1).uniform(-2, 2, 40)
        t = np.random.default_rng(2).normal(0, 1, 40)
        w = np.random.default_rng(3).uniform(0.1, 1.0, 40)
        for _ in range(3):
            train_one_epoch(net_a, x, t, w, AdamState(), 8, np.random.default_rng(9))
        for _ in range(3):
            train_one_epoch(net_b, x, t, 2.0 * w, AdamState(), 8, np.random.default_rng(9))
        for la, lb in zip(net_a.layers, net_b.layers):
            np.testing.assert_array_equal(la.weights, lb.weights)
            np.testing.assert_array_equal(la.biases, lb.biases)

    def test_deterministic_given_seeds(self):
        def run():
            net = build_network((8,), "relu", np.random.default_rng(21))
            adam = AdamState()
            shuffle = np.random.default_rng(22)
            x = np.random.default_rng(23).uniform(-2, 2, 50)
            t = x**2
            w = np.ones(50)
            for _ in range(5):
                train_one_epoch(net, x, t, w, adam, 16, shuffle)
            return net

        a, b = run(), run()
        for la, lb in zip(a.layers, b.layers):
            np.testing.assert_array_equal(la.weights, lb.weights)
            np.testing.assert_array_equal(la.biases, lb.biases)

    def test_non_finite_gradient_names_term(self):
        net = build_network((4,), "relu", np.random.default_rng(0))
        net.layers[1].weights[0, 0] = np.inf
        x = np.array([1.0, 2.0])
        with np.errstate(invalid="ignore"):
            with pytest.raises(NumericInstabilityError, match="x7"):
                train_one_epoch(
                    net, x, np.zeros(2), np.ones(2), AdamState(), 2,
                    np.random.default_rng(0), label="x7",
                )

    def test_rejects_bad_weights(self):
        net = build_network((4,), "relu", np.random.default_rng(0))
        x = np.array([1.0, 2.0])
        with pytest.raises(DataValidationError):
            train_one_epoch(net, x, x, np.array([-1.0, 1.0]), AdamState(), 2,
                            np.random.default_rng(0))
        with pytest.raises(DataValidationError):
            train_one_epoch(net, x, x, np.zeros(2), AdamState(), 2,
                            np.random.default_rng(0))
