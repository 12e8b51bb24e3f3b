import copy
import math

import numpy as np
import pytest

from gannet.exceptions import DataValidationError, NumericInstabilityError
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


def single_layer_net(w: float, b: float) -> SubNetwork:
    layer = DenseLayer(np.array([[w]]), np.array([b]), "linear")
    return SubNetwork([layer], num_units=(), activation="linear")


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
        net = SubNetwork([hidden, out], num_units=(2,), activation="relu")
        x = -1.0
        h1 = max(0.0, 1.0 * x + 0.5)      # 0.0
        h2 = max(0.0, -2.0 * x + 0.25)    # 2.25
        expected = 3.0 * h1 - 1.0 * h2 + 0.125
        np.testing.assert_allclose(forward(net, np.array([x])), [expected], rtol=1e-15)

    def test_rejects_non_finite_input(self):
        net = build_network((4,), "relu", np.random.default_rng(0))
        with pytest.raises(DataValidationError):
            forward(net, np.array([1.0, np.nan]))


class TestGradients:
    def test_1_4_1_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        net = build_network((4,), "relu", rng)
        x = rng.uniform(-2, 2, 5)
        t = rng.normal(0, 1, 5)
        w = np.ones(5)
        analytic = gradients(net, x, t, w)
        numeric = finite_difference_grads(net, x, t, w)
        assert max_relative_error(analytic, numeric) < 1e-5

    def test_random_small_nets(self):
        rng = np.random.default_rng(123)
        for _ in range(20):
            widths = tuple(rng.integers(1, 9, size=rng.integers(1, 3)))
            net = build_network(widths, "relu", rng)
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

    def test_l2_penalty_gradient(self):
        rng = np.random.default_rng(9)
        net = build_network((6,), "relu", rng)
        x = rng.uniform(-1, 1, 8)
        t = rng.normal(0, 1, 8)
        w = np.ones(8)
        analytic = gradients(net, x, t, w, l2_penalty=0.05)
        numeric = finite_difference_grads(net, x, t, w, l2=0.05)
        assert max_relative_error(analytic, numeric) < 1e-5


class TestAdam:
    def test_single_bias_corrected_step(self):
        net = single_layer_net(0.0, 0.0)
        adam = AdamState(learning_rate=0.001)
        adam.apply(net, [(np.array([[1.0]]), np.array([0.0]))])
        expected = -0.001 * 1.0 / (1.0 + 1e-7)
        assert net.layers[0].weights[0, 0] == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(-0.0009999, abs=1e-7)
        assert adam.step_count == 1

    def test_step_size_bound_for_unit_gradients(self):
        net = single_layer_net(0.0, 0.0)
        adam = AdamState(learning_rate=0.001)
        prev = 0.0
        for _ in range(50):
            adam.apply(net, [(np.array([[1.0]]), np.array([0.0]))])
            step = abs(net.layers[0].weights[0, 0] - prev)
            prev = net.layers[0].weights[0, 0]
            assert step <= 0.001 * (1.0 + 1e-6)

    def test_moments_zero_initialized(self):
        net = single_layer_net(1.0, 0.0)
        adam = AdamState()
        adam._ensure_moments(net)
        assert all(np.all(m == 0) and np.all(v == 0)
                   for (m, _), (v, _) in zip(adam.first_moment, adam.second_moment))

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
            adam.apply(clone, gradients(clone, xb, tb, wb))
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
