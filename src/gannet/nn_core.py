"""Minimal feed-forward engine for one-input/one-output subnetworks.

Every smooth term is estimated by a small MLP that maps a single covariate
to a single output. The architecture mirrors the width-1 input projection
used throughout: dense(1->1, linear), then one dense layer per configured
hidden width with the chosen activation, then dense(->1, linear). All
arithmetic is float64; training is deterministic given the rng streams
passed in.

The input projection stays linear regardless of the configured activation:
a relu there would clamp the network to a constant on half of its input
domain before any hidden unit sees the data.

Each SubNetwork keeps its parameters in one float64 vector, `params`, that its
layers view. A batch gradient is one vector in the same layout, written in
place by the backward pass (`gradients` returns per-layer views of it), and
an Adam step (Kingma & Ba 2015) is one fused update of `params` from it.

Spline kernel. A network of exactly one relu hidden layer (the default
configuration) is a linear spline of u = w1*x + b1: with hidden weights
a, biases b, output weights v and output bias c,
f(u) = c + A(u)*u + C(u), where A and C sum v_k*a_k and v_k*b_k over the
units active at u. Unit k is active when a_k*u + b_k > 0 (strictly, as
relu'(0) = 0 in the dense code): above its knot t_k = -b_k/a_k when
a_k > 0, below it when a_k < 0, and everywhere or nowhere when a_k = 0,
by the sign of b_k. `forward` and `_batch_loss_and_grads` sort u, place
every knot among the sorted rows and take prefix/suffix sums, which costs
O((n + H) log n) time and O(n + H) memory instead of O(nH). The knots are
placed in ascending order (argsort, then two searchsorted calls): the
same positions as searching them in unit order, at under half the cost on
fresh inputs, as numpy starts each search of an ascending key from where
the previous one ended. The sums of v_k*a_k and v_k*b_k over the active
units of each row come from one bincount and one in-place cumulative
sum. The batch gradients follow from the sums S0_k and S1_k of delta and
delta*u over each unit's active rows, read from one table of their prefix
and suffix sums: dv_k = a_k*S1_k + b_k*S0_k, da_k = v_k*S1_k,
db_k = v_k*S0_k, and the input layer sees delta*A(u).
Which code runs is read off the layer list; every other network (deeper,
or linear hidden units) takes the dense code, whose `forward` runs over
blocks of rows (FORWARD_BLOCK_FLOATS) so that no call holds an n x H
temporary. The dense code is also the tests' oracle for the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .exceptions import DataValidationError, NumericInstabilityError

RELU = "relu"
IDENTITY = "linear"

ACTIVATIONS = (RELU, IDENTITY)

# floats per temporary of the dense forward pass, which runs over blocks of
# this many floats divided by the widest layer's width in rows. Memory then
# stays linear in n, and the allocator reuses 256 KB blocks from call to
# call, where blocks of 1 MB and more went back to the system and were
# page-faulted in again on the next call.
FORWARD_BLOCK_FLOATS = 1 << 15


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


@dataclass
class SubNetwork:
    """Dense MLP with input width 1 and a single linear output unit.

    `params` is the one float64 vector holding every parameter: each
    layer's weights then biases, in layer order. The layers' `weights` and
    `biases` are reshaped views of it, so writing either updates the other.
    """

    layers: list[DenseLayer]
    params: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.params = np.concatenate(
            [a.ravel() for layer in self.layers for a in (layer.weights, layer.biases)],
            dtype=np.float64,
        )
        for layer, (weights, biases) in zip(self.layers, self.layer_views(self.params)):
            layer.weights, layer.biases = weights, biases

    def __deepcopy__(self, memo) -> SubNetwork:
        # a deep-copied view would own its memory; rebuild the views instead
        return SubNetwork([replace(layer) for layer in self.layers])

    def parameter_count(self) -> int:
        return self.params.size

    def layer_views(self, flat: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per-layer (weights, biases) views of a vector laid out like `params`."""
        views, offset = [], 0
        for layer in self.layers:
            pair = []
            for arr in (layer.weights, layer.biases):
                pair.append(flat[offset:offset + arr.size].reshape(arr.shape))
                offset += arr.size
            views.append(tuple(pair))
        return views


def glorot_normal_init(fan_in: int, fan_out: int, rng: np.random.Generator) -> np.ndarray:
    """Draw a (fan_out, fan_in) weight matrix ~ N(0, 2 / (fan_in + fan_out))."""
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
    layers = [
        DenseLayer(
            weights=glorot_normal_init(fan_in, fan_out, rng),
            biases=np.zeros(fan_out),
            activation=act,
        )
        for fan_in, fan_out, act in layer_plan(num_units, activation)
    ]
    return SubNetwork(layers)


def forward(net: SubNetwork, x: np.ndarray) -> np.ndarray:
    """Evaluate the network on a vector of inputs (see the module docstring)."""
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    if not np.all(np.isfinite(x)):
        raise DataValidationError("network input contains non-finite values")
    out = np.empty_like(x)
    if _is_spline(net):
        spline = _Spline(net, x)
        out[spline.order] = spline.f
        return out
    rows = max(1, FORWARD_BLOCK_FLOATS // max(layer.fan_out for layer in net.layers))
    for start in range(0, x.size, rows):
        block = slice(start, start + rows)
        a = x[block].reshape(-1, 1)
        for layer in net.layers:
            a = a @ layer.weights.T  # the layer's one temporary; the rest is in place
            a += layer.biases
            if layer.activation == RELU:
                np.maximum(a, 0.0, out=a)
        out[block] = a[:, 0]
    return out


def _is_spline(net: SubNetwork) -> bool:
    """True for dense(1->1, linear) -> dense(1->H, relu) -> dense(H->1, linear)."""
    acts = [layer.activation for layer in net.layers]
    return acts == [IDENTITY, RELU, IDENTITY] and net.layers[0].weights.shape == (1, 1)


class _Spline:
    """A one-hidden-layer relu network evaluated as a linear spline of u.

    Rows are held in ascending order of u = w1*x + b1 (`order` maps sorted
    to original rows). Hidden unit k is active on the sorted rows
    [lo_k, n) when a_k >= 0, else on [0, hi_k); `pos` holds the one of the
    two that applies. `slope` is A(u) and `f` the network output, both per
    sorted row.
    """

    def __init__(self, net: SubNetwork, x: np.ndarray):
        inp, hidden, out = net.layers
        self.a, self.b, self.v = hidden.weights[:, 0], hidden.biases, out.weights[0]
        a, b, units = self.a, self.b, self.a.size
        u = x * inp.weights[0, 0] + inp.biases[0]
        self.order = u.argsort(kind="stable")
        self.x, self.u = x, u[self.order]
        u, n = self.u, self.u.size
        if a.all():
            knots = -b / a
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                knots = np.where(a == 0.0, np.where(b > 0.0, -np.inf, np.inf), -b / a)
        # searchsorted is about twice as fast on ascending keys; equal knots
        # get equal positions, so the order among ties does not matter
        by_knot = knots.argsort()
        sorted_knots = knots[by_knot]
        self.lo, self.hi = np.empty((2, units), dtype=np.intp)
        self.lo[by_knot] = u.searchsorted(sorted_knots, side="right")
        self.hi[by_knot] = u.searchsorted(sorted_knots, side="left")
        # one index space of 2(n + 1) for both kinds of unit: a rising unit
        # at lo_k, a falling one at 2n + 1 - hi_k in a second block that
        # runs backwards, so that one forward cumulative sum serves both
        self.pos = np.where(a >= 0.0, self.lo, 2 * n + 1 - self.hi)
        # hidden weights and biases are adjacent in params: rows v*a and
        # v*b, each binned in its own copy of the index space
        ab = net.params[2:2 + 2 * units].reshape(2, units)
        totals = np.bincount((self.pos + [[0], [2 * n + 2]]).ravel(), (ab * self.v).ravel(),
                             4 * n + 4).reshape(2, 2, n + 1)
        np.cumsum(totals, axis=2, out=totals)  # in place: 4 floats a row at most
        # per sorted row, the sums of v*a and of v*b over the active units
        active = totals[:, 0, :n]
        active += totals[:, 1, :n][:, ::-1]
        self.slope, offset = active
        self.f = self.slope * u
        self.f += offset
        self.f += out.biases[0]

    def grads(self, delta: np.ndarray) -> np.ndarray:
        """The gradient in `params` layout for output gradient delta per sorted row."""
        n, units = self.u.size, self.a.size
        # prefix sums of delta and of delta*u at [0, n], suffix sums at
        # [n + 1, 2n + 1] running backwards; the sum over unit k's active
        # rows then sits at 2n + 1 - pos_k
        sums = np.empty((2, 2, n + 1))
        sums[:, :, 0] = 0.0
        sums[0, 0, 1:] = delta
        np.multiply(delta, self.u, out=sums[1, 0, 1:])
        sums[:, 1, 1:] = sums[:, 0, :0:-1]
        np.cumsum(sums[:, :, 1:], axis=2, out=sums[:, :, 1:])
        s = sums.reshape(2, -1).take(2 * n + 1 - self.pos, axis=1)
        d_in = delta * self.slope
        grad = np.empty(3 * units + 3)
        grad[0] = np.dot(d_in, self.x[self.order])
        grad[1] = d_in.sum()
        # d/da = v*S1 and d/db = v*S0, then d/dv = a*S1 + b*S0
        np.multiply(self.v, s[::-1], out=grad[2:2 + 2 * units].reshape(2, units))
        np.add(self.a * s[1], self.b * s[0], out=grad[2 + 2 * units:-1])
        grad[-1] = delta.sum()
        return grad


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


def _batch_loss_and_grads(net, x, target, weights, l2_penalty):
    """Weighted-MSE loss pieces and parameter gradients for one batch.

    Returns (weighted_sse, weight_sum, grad) where grad is one vector in
    the layout of `net.params`. The loss being differentiated is
    sum(w * (t - yhat)^2) / sum(w) + l2_penalty * sum(||W_l||^2); the
    returned sse excludes the penalty term.
    """
    wsum = float(weights.sum())
    if _is_spline(net):
        # the kernel holds the batch in ascending order of u
        spline = _Spline(net, x)
        weights, target = weights[spline.order], target[spline.order]
        yhat, backprop = spline.f, spline.grads
    else:
        activations, pre = _forward_cached(net, x)
        yhat = activations[-1][:, 0]

        def backprop(delta):
            return _dense_grads(net, activations, pre, delta)

    resid = yhat - target
    wsse = float((weights * resid * resid).sum())
    if wsum > 0.0:
        delta = 2.0 * weights * resid / wsum
    else:
        delta = np.zeros(x.shape[0])
    grad = backprop(delta)
    if l2_penalty:
        for (g_w, _), layer in zip(net.layer_views(grad), net.layers):
            g_w += 2.0 * l2_penalty * layer.weights
    return wsse, wsum, grad


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


def gradients(net: SubNetwork, x, target, weights=None, l2_penalty: float = 0.0):
    """Analytic gradients of the weighted MSE (plus optional L2 penalty).

    Returns per-layer (weights, biases) pairs, views of one vector in the
    layout of `net.params`. Exposed so gradient-checking code can compare
    against finite differences of :func:`forward`.
    """
    x = np.asarray(x, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if weights is None:
        weights = np.ones_like(target)
    weights = np.asarray(weights, dtype=np.float64)
    _, _, grad = _batch_loss_and_grads(net, x, target, weights, l2_penalty)
    return net.layer_views(grad)


@dataclass
class AdamState:
    """Adam optimizer state for one subnetwork (bias-corrected updates).

    Only the step size is a setting; the decays and the offset are constants.
    The moments are flat vectors like the network's `params`, None until the
    first apply() zero-fills them. Each apply() adds one to step_count and
    makes one isfinite scan of the gradient and one of the updated `params`.
    """

    beta1, beta2, epsilon = 0.9, 0.999, 1e-7  # the Keras defaults
    learning_rate: float = 0.001
    step_count: int = field(default=0, init=False)
    first_moment: np.ndarray | None = field(default=None, init=False)
    second_moment: np.ndarray | None = field(default=None, init=False)

    def apply(self, net: SubNetwork, grad: np.ndarray, label: str | None = None) -> None:
        """One fused Adam update of net.params from its gradient in `params` layout.

        A non-finite gradient raises before anything changes.
        """
        where = f" for term {label!r}" if label else ""
        if not np.all(np.isfinite(grad)):
            raise NumericInstabilityError(f"non-finite gradient{where}")
        if self.first_moment is None:
            self.first_moment, self.second_moment = np.zeros((2, net.params.size))
        self.step_count += 1
        bc1, bc2 = 1.0 - self.beta1**self.step_count, 1.0 - self.beta2**self.step_count
        m, v = self.first_moment, self.second_moment
        m *= self.beta1
        m += (1.0 - self.beta1) * grad
        v *= self.beta2
        v += (1.0 - self.beta2) * grad * grad
        net.params -= self.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + self.epsilon)
        if not np.all(np.isfinite(net.params)):
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

    order = rng.permutation(n)
    total_sse = 0.0
    total_w = float(np.sum(weights))
    for start in range(0, n, batch_size):
        idx = order[start : start + batch_size]
        wsse, wsum, grad = _batch_loss_and_grads(
            net, x[idx], target[idx], weights[idx], l2_penalty
        )
        total_sse += wsse
        if wsum != 0.0:
            adam.apply(net, grad, label=label)
    return total_sse / total_w
