"""Minimal feed-forward engine for one-input/one-output subnetworks.

Every smooth term is estimated by a small MLP that maps a single covariate
to a single output. The architecture mirrors the width-1 input projection
used throughout: dense(1->1, linear), then one dense layer per configured
hidden width with the chosen activation, then dense(->1, linear). All
arithmetic is float64; training is deterministic given the rng streams
passed in. `forward`, `gradients` and `train_one_epoch` take 1-D float64
vectors, as `Dataset` columns and the arrays computed from them are, and
do not convert their arguments.

The input projection stays linear regardless of the configured activation:
a relu there would clamp the network to a constant on half of its input
domain before any hidden unit sees the data.

Each SubNetwork keeps its parameters in one float64 vector, `params`, that its
layers view. A batch gradient is one vector in the same layout, written in
place by the backward pass (`gradients` returns per-layer views of it), and
an Adam step (Kingma & Ba 2015) is one fused update of `params` from it.

Training kernel. A network of exactly one relu hidden layer (the default
configuration) is a linear spline of u = w1*x + b1: with hidden weights
a, biases b, output weights v and output bias c,
f(u) = c + A(u)*u + C(u), where A and C sum v_k*a_k and v_k*b_k over the
units active at u. Unit k is active when a_k*u + b_k > 0 (strictly, as
relu'(0) = 0 in the dense code): above its knot t_k = -b_k/a_k when
a_k > 0, below it when a_k < 0, and everywhere or nowhere when a_k = 0,
by the sign of b_k (`_knots`). The training step (`_batch_loss_and_grads`
through `_Spline`) sorts a batch's u stably, places every knot among the
sorted rows and takes prefix/suffix sums, which costs O((n + H) log n)
time and O(n + H) memory instead of O(nH). The sort is stable because the
step's sums of delta over the rows depend on the order of tied rows.
The knots are placed in ascending order (argsort, then two searchsorted
calls): the same positions as searching them in unit order, at under half
the cost on fresh inputs, as numpy starts each search of an ascending key
from where the previous one ended. The sums of v_k*a_k and v_k*b_k over the active
units of each row come from one bincount and one in-place cumulative
sum. The batch gradients follow from the sums S0_k and S1_k of delta and
delta*u over each unit's active rows, read from one table of their prefix
and suffix sums: dv_k = a_k*S1_k + b_k*S0_k, da_k = v_k*S1_k,
db_k = v_k*S0_k, and the input layer sees delta*A(u).

Piece table. Every network is a continuous piecewise-linear function of
x, with a number of pieces that depends on its units and not on n, and
`forward` evaluates it through a table of those pieces over the whole real
line. A one-relu-layer network's table comes from its sorted knots
(`_knot_table`). Any other goes through the general builder: starting
from the one piece (-inf, inf) and walking the layers, it keeps each
piece's pre-activations as S*x + O, splits the pieces at a relu layer's
zero crossings -O/S inside them, masks each unit by the side of its
crossing the piece lies on, and multiplies by the next layer. A frozen
network (`SubNetwork.freeze`, which every fitted or loaded model calls)
keeps its table in `table`; a network in training builds one per call.
Each row then costs one searchsorted into the edges and one multiply-add,
over blocks of FORWARD_BLOCK_FLOATS rows, so the output is the only
row-sized array. A block is searched in ascending order, which into a
table of 32 inner edges or more costs less than searching the rows as they
come. It is sorted with numpy's
default argsort, 4-6 times as fast as the stable one on random rows on a
CPU with AVX-512, and not at all when already ascending or descending
(`_ascending_order`), as that sort is slow on descending input. A row's
piece, and so its output, does not depend on the order of the search or
on which rows come with it.

Dense step. Every other network trains through `_Dense`, which keeps each
layer's output for the backward pass. An output of width one stays a
vector: the input layer is x*w + b, a hidden layer fed by it the outer
product u[:, None]*w[:, 0], and the output layer a vector product, so
their gradients are dot products rather than matrix products with an
inner dimension of one. Relu is applied in place on the pre-activation;
the backward pass reads its mask from the layer's output (h > 0 exactly
where z > 0) and multiplies it into delta in place, and writes each
layer's gradient into the `params`-layout vector at running offsets. The
products and sums are those of the matrix-by-matrix dense pass, which the
tests keep as the oracle of this step, of the kernel and of the tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .exceptions import DataValidationError, NumericInstabilityError

RELU = "relu"
IDENTITY = "linear"

ACTIVATIONS = (RELU, IDENTITY)

# rows per block of the piece table's forward pass: its temporaries are
# 256 KB, which the allocator reuses from call to call, where blocks of 1 MB
# and more went back to the system and were page-faulted in again on the
# next call. Each block is sorted on its own: on 1M rows, sorting 2**15-row
# blocks took 30 ms and one sort of all rows 58 ms.
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
    `table` is the piece table `forward` reads, set by `freeze`, else None.
    """

    layers: list[DenseLayer]
    params: np.ndarray = field(init=False, repr=False)
    table: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.params = np.concatenate(
            [a.ravel() for layer in self.layers for a in (layer.weights, layer.biases)],
            dtype=np.float64,
        )
        self._bind_views()

    def __deepcopy__(self, memo) -> SubNetwork:
        # a deep-copied view would own its memory; rebuild the views instead
        return SubNetwork([replace(layer) for layer in self.layers])

    def _bind_views(self) -> None:
        for layer, (weights, biases) in zip(self.layers, self.layer_views(self.params)):
            layer.weights, layer.biases = weights, biases

    def freeze(self) -> None:
        """Make `params` and every layer view read-only, and store the piece table.

        Views made before would stay writable, so the layers get new ones.
        A deep copy is a writable network again, without a table.
        """
        self.params.flags.writeable = False
        self._bind_views()
        self.table = _piece_table(self)

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
    if not np.all(np.isfinite(x)):
        raise DataValidationError("network input contains non-finite values")
    edges, slope, offset = net.table or _piece_table(net)
    inner = edges[1:-1]
    out = np.empty_like(x)
    for start in range(0, x.size, FORWARD_BLOCK_FLOATS):
        block = slice(start, start + FORWARD_BLOCK_FLOATS)
        order = _ascending_order(x[block])
        piece = np.empty(x[block].size, dtype=np.intp)
        piece[order] = inner.searchsorted(x[block][order], side="right")
        np.multiply(slope[piece], x[block], out=out[block])
        out[block] += offset[piece]
    return out


def _ascending_order(v: np.ndarray) -> slice | np.ndarray:
    """What sorts a non-empty v ascending: a slice or indices, ties in no set order.

    A slice when v is already ascending or descending, which one pass finds
    (the ends of v say which to check for); else numpy's default argsort,
    which is slow on descending input: 1.3 ms on 100,000 floats, against
    1.6 ms on random ones and 0.13 ms for the stable sort.
    """
    if v[-1] >= v[0]:
        if (v[1:] >= v[:-1]).all():
            return slice(None)
    elif (v[1:] <= v[:-1]).all():
        return slice(None, None, -1)
    return v.argsort()


def _piece_table(net: SubNetwork):
    """The network over the whole real line as a table of linear pieces.

    Returns (edges, slope, offset): piece p spans [edges[p], edges[p + 1]],
    from edges[0] = -inf to edges[-1] = inf, and the network is
    slope[p]*x + offset[p] on it. Each relu layer of width H splits every
    piece at most H times, so there are at most prod(H_l + 1) pieces over
    the relu layers. One table serves every set of rows, so a training
    refresh and a prediction on the same rows give the same values.
    """
    if _is_spline(net):
        return _knot_table(net)
    edges = np.array([-np.inf, np.inf])
    # pre-activations S*x + O of the current layer, one row per piece
    slope, offset = np.ones((1, 1)), np.zeros((1, 1))
    for layer in net.layers:
        slope = slope @ layer.weights.T
        offset = offset @ layer.weights.T + layer.biases
        if layer.activation != RELU:
            continue
        # split each piece at the zero crossings strictly inside it
        with np.errstate(divide="ignore", invalid="ignore"):
            cross = -offset / slope
        inside = (cross > edges[:-1, None]) & (cross < edges[1:, None])
        # a crossing inside one piece lies in no other, so only units that
        # cross at one point repeat
        cuts = np.sort(np.concatenate([edges, np.unique(cross[inside])]))
        parent = edges[1:-1].searchsorted(cuts[:-1], side="right")
        edges, slope, offset, cross = cuts, slope[parent], offset[parent], cross[parent]
        # a unit is active on a whole piece, or nowhere on it but at one end
        active = np.where(slope > 0.0, edges[:-1, None] >= cross,
                          np.where(slope < 0.0, edges[1:, None] <= cross, offset > 0.0))
        slope, offset = slope * active, offset * active
    return edges, slope[:, 0], offset[:, 0]


def _knot_table(net: SubNetwork):
    """`_piece_table` of a one-relu-layer network, whose unit k is
    relu(s_k*x + o_k): its inner edges are the sorted knots, and each piece
    sums v_k*s_k and v_k*o_k over the rising units (s_k >= 0) left of it and
    the falling units right of it. A row on a knot gets the piece right of
    it, where that knot's unit adds s_k*x + o_k = 0 up to rounding."""
    inp, hidden, out = net.layers
    a, v = hidden.weights[:, 0], out.weights[0]
    s, o = a * inp.weights[0, 0], a * inp.biases[0] + hidden.biases
    knots = _knots(s, o)
    by_knot = knots.argsort()
    rising = s[by_knot] >= 0.0
    terms = np.stack([v * s, v * o])[:, by_knot]
    sums = np.zeros((2, a.size + 1))
    np.cumsum(np.where(rising, terms, 0.0), axis=1, out=sums[:, 1:])
    sums[:, :-1] += np.cumsum(np.where(rising, 0.0, terms)[:, ::-1], axis=1)[:, ::-1]
    sums[1] += out.biases[0]
    return np.concatenate([[-np.inf], knots[by_knot], [np.inf]]), *sums


def _knots(s: np.ndarray, o: np.ndarray) -> np.ndarray:
    """Knots of the units relu(s*x + o): -o/s, or for s = 0, -inf if o > 0 else inf."""
    if s.all():
        return -o / s
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(s == 0.0, np.where(o > 0.0, -np.inf, np.inf), -o / s)


def _is_spline(net: SubNetwork) -> bool:
    """True for dense(1->1, linear) -> dense(1->H, relu) -> dense(H->1, linear)."""
    acts = [layer.activation for layer in net.layers]
    return acts == [IDENTITY, RELU, IDENTITY] and net.layers[0].weights.shape == (1, 1)


class _Spline:
    """A training batch of a one-hidden-layer relu network, as a linear spline of u.

    Rows are held in ascending order of u = w1*x + b1 (`order` maps sorted
    to original rows); tied rows keep their input order.
    Hidden unit k is active on the sorted rows [lo_k, n) when a_k >= 0,
    else on [0, hi_k); `pos` holds the one of the two that applies. `slope`
    is A(u) and `f` the network output, both per sorted row.
    """

    def __init__(self, net: SubNetwork, x: np.ndarray):
        inp, hidden, out = net.layers
        self.a, self.b, self.v = hidden.weights[:, 0], hidden.biases, out.weights[0]
        a, b, units = self.a, self.b, self.a.size
        u = x * inp.weights[0, 0] + inp.biases[0]
        self.order = u.argsort(kind="stable")
        self.x, self.u = x, u[self.order]
        u, n = self.u, self.u.size
        knots = _knots(a, b)
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


class _Dense:
    """A training batch of any other network, kept layer by layer.

    `h[k]` is the input of layer k, from `h[0]` = x, and `f` the network
    output. An output of width one stays a vector, and relu is applied in
    place on the pre-activation: h > 0 exactly where z > 0.
    """

    def __init__(self, net: SubNetwork, x: np.ndarray):
        self.layers, self.size, self.h = net.layers, net.params.size, [x]
        for layer in net.layers:
            w, h = layer.weights, self.h[-1]
            if h.ndim == 2:
                z = h @ (w.T if w.shape[0] > 1 else w[0])
            else:
                z = h[:, None] * w[:, 0] if w.shape[0] > 1 else h * w[0, 0]
            z += layer.biases
            if layer.activation == RELU:
                np.maximum(z, 0.0, out=z)
            self.h.append(z)
        self.f = self.h[-1]

    def grads(self, delta: np.ndarray) -> np.ndarray:
        """The gradient in `params` layout for output gradient delta per row."""
        grad = np.empty(self.size)
        end = self.size
        for k in range(len(self.layers) - 1, -1, -1):
            w, h = self.layers[k].weights, self.h[k]
            start, mid = end - w.size - w.shape[0], end - w.shape[0]
            # dW = delta^T h, db = the column sums of delta
            if delta.ndim == h.ndim == 2:
                np.matmul(delta.T, h, out=grad[start:mid].reshape(w.shape))
            else:
                grad[start:mid] = np.dot(h, delta) if delta.ndim == 2 else np.dot(delta, h)
            grad[mid:end] = delta.sum(axis=0)
            end = start
            if k == 0:
                return grad
            if delta.ndim == 2:
                delta = delta @ (w if h.ndim == 2 else w[:, 0])
            else:
                delta = delta[:, None] * w[0] if h.ndim == 2 else delta * w[0, 0]
            if self.layers[k - 1].activation == RELU:
                delta *= h > 0.0


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
        batch = _Spline(net, x)
        weights, target = weights[batch.order], target[batch.order]
    else:
        batch = _Dense(net, x)
    resid = batch.f - target
    wsse = float((weights * resid * resid).sum())
    if wsum > 0.0:
        delta = 2.0 * weights * resid / wsum
    else:
        delta = np.zeros(x.shape[0])
    grad = batch.grads(delta)
    if l2_penalty:
        for (g_w, _), layer in zip(net.layer_views(grad), net.layers):
            g_w += 2.0 * l2_penalty * layer.weights
    return wsse, wsum, grad


def gradients(net: SubNetwork, x, target, weights=None, l2_penalty: float = 0.0):
    """Analytic gradients of the weighted MSE (plus optional L2 penalty).

    Returns per-layer (weights, biases) pairs, views of one vector in the
    layout of `net.params`. Exposed so gradient-checking code can compare
    against finite differences of :func:`forward`.
    """
    if weights is None:
        weights = np.ones_like(target)
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
