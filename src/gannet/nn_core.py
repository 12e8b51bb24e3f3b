"""Minimal dense feed-forward engine for one-input/one-output subnetworks.

Every smooth term is estimated by a small MLP that maps a single covariate
to a single output. The architecture mirrors the width-1 input projection
used throughout: dense(1->1, linear), then one dense layer per configured
hidden width with the chosen activation, then dense(->1, linear). All
arithmetic is float64; training is deterministic given the rng streams
passed in.

The input projection stays linear regardless of the configured activation:
a relu there would clamp the network to a constant on half of its input
domain before any hidden unit sees the data.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import ConfigError, DataValidationError, NumericInstabilityError

RELU = "relu"
IDENTITY = "linear"

ACTIVATIONS = (RELU, IDENTITY)


@dataclass
class DenseLayer:
    """Affine map plus elementwise activation.

    weights has shape (fan_out, fan_in); biases has shape (fan_out,).
    """

    weights: np.ndarray
    biases: np.ndarray
    activation: str

    @property
    def fan_in(self) -> int:
        return self.weights.shape[1]

    @property
    def fan_out(self) -> int:
        return self.weights.shape[0]

    @property
    def n_params(self) -> int:
        return self.weights.size + self.biases.size

    def apply_activation(self, z: np.ndarray) -> np.ndarray:
        if self.activation == RELU:
            return np.maximum(z, 0.0)
        return z


@dataclass
class SubNetwork:
    """Dense MLP with input width 1 and a single linear output unit."""

    layers: list[DenseLayer]
    num_units: tuple[int, ...]
    activation: str

    def parameter_count(self) -> int:
        return sum(layer.n_params for layer in self.layers)


def glorot_normal_init(fan_in: int, fan_out: int, rng: np.random.Generator) -> np.ndarray:
    """Draw a (fan_out, fan_in) weight matrix ~ N(0, 2 / (fan_in + fan_out))."""
    if fan_in < 1 or fan_out < 1:
        raise ConfigError("layer fan-in and fan-out must be >= 1")
    std = np.sqrt(2.0 / (fan_in + fan_out))
    return rng.normal(0.0, std, size=(fan_out, fan_in))


def layer_plan(num_units: tuple[int, ...], activation: str) -> list[tuple[int, int, str]]:
    """(fan_in, fan_out, activation) of each layer: 1 -> 1 -> num_units... -> 1.

    The input projection and the output unit stay linear; every hidden
    layer uses `activation`.
    """
    dims = [1, 1, *num_units, 1]
    last = len(dims) - 2
    return [
        (dims[k], dims[k + 1], activation if 0 < k < last else IDENTITY)
        for k in range(len(dims) - 1)
    ]


def build_network(
    num_units: tuple[int, ...], activation: str, rng: np.random.Generator
) -> SubNetwork:
    """Construct a subnetwork with glorot-normal weights and zero biases.

    With num_units=(1024,) the layer fans are (1,1), (1,1024), (1024,1),
    giving parameter counts 2, 2048 and 1025.
    """
    if activation not in ACTIVATIONS:
        raise ConfigError(f"unsupported activation {activation!r}; supported: {ACTIVATIONS}")
    num_units = tuple(int(u) for u in num_units)
    if not num_units or any(u < 1 for u in num_units):
        raise ConfigError("num_units must be a non-empty list of positive integers")
    layers = [
        DenseLayer(
            weights=glorot_normal_init(fan_in, fan_out, rng),
            biases=np.zeros(fan_out),
            activation=act,
        )
        for fan_in, fan_out, act in layer_plan(num_units, activation)
    ]
    return SubNetwork(layers=layers, num_units=num_units, activation=activation)


def forward(net: SubNetwork, x: np.ndarray) -> np.ndarray:
    """Evaluate the network on a vector of inputs."""
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise DataValidationError("network input contains non-finite values")
    a = x.reshape(-1, 1)
    for layer in net.layers:
        a = layer.apply_activation(a @ layer.weights.T + layer.biases)
    return a[:, 0]


def _forward_cached(net: SubNetwork, x: np.ndarray):
    """Forward pass keeping pre-activations for backprop."""
    a = x.reshape(-1, 1)
    activations = [a]
    pre = []
    for layer in net.layers:
        z = a @ layer.weights.T + layer.biases
        pre.append(z)
        a = layer.apply_activation(z)
        activations.append(a)
    return activations, pre


def _batch_loss_and_grads(net, x, target, weights, l2_penalty):
    """Weighted-MSE loss pieces and parameter gradients for one batch.

    Returns (weighted_sse, weight_sum, grads) where grads is a list of
    (grad_weights, grad_biases) per layer. The loss being differentiated is
    sum(w * (t - yhat)^2) / sum(w) + l2_penalty * sum(||W_l||^2); the
    returned sse excludes the penalty term.
    """
    activations, pre = _forward_cached(net, x)
    yhat = activations[-1][:, 0]
    resid = yhat - target
    wsum = float(np.sum(weights))
    wsse = float(np.sum(weights * resid * resid))

    grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(net.layers)
    if wsum > 0.0:
        delta = (2.0 * weights * resid / wsum).reshape(-1, 1)
    else:
        delta = np.zeros((x.shape[0], 1))
    for k in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[k]
        g_w = delta.T @ activations[k]
        if l2_penalty:
            g_w = g_w + 2.0 * l2_penalty * layer.weights
        g_b = delta.sum(axis=0)
        grads[k] = (g_w, g_b)
        if k > 0:
            delta = delta @ layer.weights
            if net.layers[k - 1].activation == RELU:
                delta = delta * (pre[k - 1] > 0.0)
    return wsse, wsum, grads


def gradients(net: SubNetwork, x, target, weights=None, l2_penalty: float = 0.0):
    """Analytic gradients of the weighted MSE (plus optional L2 penalty).

    Exposed so gradient-checking code can compare against finite
    differences of :func:`forward`.
    """
    x = np.asarray(x, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if weights is None:
        weights = np.ones_like(target)
    weights = np.asarray(weights, dtype=np.float64)
    _, _, grads = _batch_loss_and_grads(net, x, target, weights, l2_penalty)
    return grads


@dataclass
class AdamState:
    """Adam optimizer state for one subnetwork (bias-corrected updates).

    Moments are zero-initialized and have the same shapes as the network
    parameters; step_count increments by exactly one per apply().
    """

    learning_rate: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-7
    step_count: int = 0
    first_moment: list = field(default_factory=list)
    second_moment: list = field(default_factory=list)

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if not (0.0 < self.beta1 < 1.0 and 0.0 < self.beta2 < 1.0):
            raise ConfigError("Adam betas must lie in (0, 1)")
        if self.epsilon <= 0:
            raise ConfigError("Adam epsilon must be positive")

    def _ensure_moments(self, net: SubNetwork) -> None:
        if self.first_moment:
            return
        for layer in net.layers:
            self.first_moment.append(
                (np.zeros_like(layer.weights), np.zeros_like(layer.biases))
            )
            self.second_moment.append(
                (np.zeros_like(layer.weights), np.zeros_like(layer.biases))
            )

    def apply(self, net: SubNetwork, grads, label: str | None = None) -> None:
        """One Adam update of every parameter from per-layer gradients."""
        self._ensure_moments(net)
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
        for layer in net.layers:
            if not (np.all(np.isfinite(layer.weights)) and np.all(np.isfinite(layer.biases))):
                where = f" for term {label!r}" if label else ""
                raise NumericInstabilityError(
                    f"non-finite network parameters after Adam update{where}"
                )


def train_one_epoch(
    net: SubNetwork,
    x: np.ndarray,
    target: np.ndarray,
    weights: np.ndarray,
    adam: AdamState,
    batch_size: int,
    rng: np.random.Generator,
    l2_penalty: float = 0.0,
    label: str | None = None,
) -> float:
    """Train on every sample exactly once, in seeded shuffled mini-batches.

    One Adam update per batch using the gradient of the weighted MSE over
    that batch. Returns the running weighted MSE over all samples, each
    batch evaluated before its own update.
    """
    x = np.asarray(x, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    n = x.shape[0]
    if n < 1 or target.shape[0] != n or weights.shape[0] != n:
        raise DataValidationError("x, target and weights must share a positive length")
    if np.any(weights < 0) or not np.sum(weights) > 0:
        raise DataValidationError("weights must be nonnegative with a positive sum")
    if batch_size < 1:
        raise ConfigError("batch_size must be >= 1")

    order = rng.permutation(n)
    total_sse = 0.0
    total_w = float(np.sum(weights))
    for start in range(0, n, batch_size):
        idx = order[start : start + batch_size]
        wsse, wsum, grads = _batch_loss_and_grads(
            net, x[idx], target[idx], weights[idx], l2_penalty
        )
        total_sse += wsse
        if wsum == 0.0:
            continue
        for g_w, g_b in grads:
            if not (np.all(np.isfinite(g_w)) and np.all(np.isfinite(g_b))):
                where = f" for term {label!r}" if label else ""
                raise NumericInstabilityError(f"non-finite gradient{where}")
        adam.apply(net, grads, label=label)
    return total_sse / total_w
