"""Backfitting: cyclically refit each term to the partial residuals of the rest.

Within a sweep the terms are visited in formula order and each sees the
residuals left by the terms already updated this sweep (Gauss-Seidel).
After every term fit the estimate is mean-centered over the training rows
so the intercept stays identifiable. Sweeping stops when the summed
squared change of all term functions, relative to their previous summed
squares, drops below the configured threshold, or when the sweep cap is
reached. Networks and their optimizer state persist across sweeps and
across local-scoring iterations, so each one-epoch fit warm-starts from
the last.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass, field

import numpy as np

from . import formula as _formula
from . import nn_core
from .config import FitConfig
from .exceptions import DegenerateDataError

# rng stream tags: {seed, tag, term index} seeds each per-term generator
INIT_STREAM = 101
SHUFFLE_STREAM = 202


class SmoothTermEstimator:
    """One covariate's subnetwork, its optimizer state, and centering offset."""

    kind = _formula.SMOOTH

    def __init__(self, name: str, config: FitConfig, index: int, n_rows: int):
        seed = config.seed
        init_rng = _rng_for(seed, INIT_STREAM, index)
        self.name = name
        self.net = nn_core.build_network(config.num_units, config.activation, init_rng)
        self.adam = nn_core.AdamState(
            learning_rate=config.learning_rate,
            beta1=config.beta1,
            beta2=config.beta2,
            epsilon=config.epsilon,
        )
        self.shuffle_rng = _rng_for(seed, SHUFFLE_STREAM, index)
        self.fitted_values = np.zeros(n_rows)
        self.offset = 0.0

    @classmethod
    def from_parts(cls, name: str, net) -> "SmoothTermEstimator":
        """Rebuild from stored parameters; prediction only (no optimizer)."""
        est = cls.__new__(cls)
        est.name = name
        est.net = net
        est.adam = None
        est.shuffle_rng = None
        est.fitted_values = np.zeros(0)
        est.offset = 0.0
        return est

    def fit(self, x, residuals, weights, config: FitConfig) -> float:
        """Train for the configured epochs; refresh raw fitted values."""
        if self.adam is None:
            raise RuntimeError("estimator was loaded from file and cannot be retrained")
        loss = np.nan
        for _ in range(config.epochs_per_sweep):
            loss = nn_core.train_one_epoch(
                self.net,
                x,
                residuals,
                weights,
                self.adam,
                config.batch_size,
                self.shuffle_rng,
                l2_penalty=config.l2_penalty,
                label=self.name,
            )
        self.fitted_values = nn_core.forward(self.net, x)
        self.offset = 0.0
        return float(loss)

    def predict(self, x) -> np.ndarray:
        return nn_core.forward(self.net, x) - self.offset


class LinearTermEstimator:
    """Closed-form weighted least squares slope for a linear term."""

    kind = _formula.LINEAR

    def __init__(self, name: str, config: FitConfig, index: int, n_rows: int):
        self.name = name
        self.slope = 0.0
        self.x_center = 0.0
        self.fitted_values = np.zeros(n_rows)
        self.offset = 0.0

    @classmethod
    def from_parts(cls, name: str, slope: float, x_center: float) -> "LinearTermEstimator":
        est = cls.__new__(cls)
        est.name = name
        est.slope = float(slope)
        est.x_center = float(x_center)
        est.fitted_values = np.zeros(0)
        est.offset = 0.0
        return est

    def fit(self, x, residuals, weights, config: FitConfig) -> float:
        """Exact WLS slope with the intercept absorbed by centering."""
        wsum = float(np.sum(weights))
        xbar = float(np.sum(weights * x)) / wsum
        rbar = float(np.sum(weights * residuals)) / wsum
        dx = x - xbar
        sxx = float(np.sum(weights * dx * dx))
        if sxx <= 0.0:
            raise DegenerateDataError(
                f"covariate {self.name!r} has zero weighted variance; "
                "cannot fit a linear term"
            )
        self.slope = float(np.sum(weights * dx * (residuals - rbar))) / sxx
        self.x_center = xbar
        self.fitted_values = self.slope * (x - xbar)
        self.offset = 0.0
        resid = residuals - self.fitted_values
        return float(np.sum(weights * resid * resid) / wsum)

    def predict(self, x) -> np.ndarray:
        return self.slope * (np.asarray(x, dtype=np.float64) - self.x_center) - self.offset


TermEstimator = SmoothTermEstimator | LinearTermEstimator


def _rng_for(seed, stream: int, index: int) -> np.random.Generator:
    if seed is None:
        return np.random.default_rng()
    return np.random.default_rng([int(seed), stream, index])


def make_estimator(term: _formula.Term, config: FitConfig, index: int, n_rows: int):
    if term.kind == _formula.SMOOTH:
        return SmoothTermEstimator(term.name, config, index, n_rows)
    return LinearTermEstimator(term.name, config, index, n_rows)


def partial_residuals(z, alpha: float, estimators, skip_index: int) -> np.ndarray:
    """Residuals of z against the intercept and every other term's fit.

    Estimators before skip_index contribute the values they got this
    sweep, later ones the previous sweep's — the Gauss-Seidel update.
    """
    r = np.asarray(z, dtype=np.float64) - alpha
    for k, est in enumerate(estimators):
        if k != skip_index:
            r = r - est.fitted_values
    return r


def center_term(est) -> float:
    """Shift the fitted values to unweighted mean zero; fold the shift into
    the estimator's prediction offset. Returns the subtracted constant."""
    shift = float(np.mean(est.fitted_values)) if len(est.fitted_values) else 0.0
    est.fitted_values = est.fitted_values - shift
    est.offset += shift
    return shift


def fitted_change_ratio(prev: list[np.ndarray], curr: list[np.ndarray]) -> float | None:
    """Sum of squared term changes over the previous sum of squares.

    None when the denominator is zero and something changed (the
    initial all-zero state); 0.0 when nothing changed at all.
    """
    num = sum(float(np.sum((c - p) ** 2)) for p, c in zip(prev, curr))
    den = sum(float(np.sum(p**2)) for p in prev)
    if den == 0.0:
        return 0.0 if num == 0.0 else None
    return num / den


@dataclass
class BackfitState:
    """Mutable state threaded through backfitting sweeps.

    One instance persists across local-scoring iterations so the
    subnetworks warm-start. Per-call records (losses, ratios, snapshots)
    are overwritten by each backfit() call.
    """

    alpha: float
    estimators: list
    sweep_count: int = 0
    converged: bool = False
    ratio_history: list = field(default_factory=list)
    sweep_losses: list = field(default_factory=list)  # per sweep: {term: loss}
    sweep_timestamps: list = field(default_factory=list)
    prev_snapshot: list | None = None  # term fits before the last sweep

    def fitted_sum(self) -> np.ndarray:
        total = np.zeros_like(self.estimators[0].fitted_values)
        for est in self.estimators:
            total = total + est.fitted_values
        return total


def backfit(
    state: BackfitState,
    z: np.ndarray,
    w: np.ndarray,
    covariates: dict[str, np.ndarray],
    config: FitConfig,
) -> BackfitState:
    """Run backfitting sweeps until the change ratio converges or the cap hits.

    The intercept state.alpha is held fixed throughout; the caller sets it
    per local-scoring iteration. The first sweep from the all-zero state
    has a zero denominator, so its criterion is skipped and at least one
    full fitting pass always happens.
    """
    state.sweep_count = 0
    state.converged = False
    state.ratio_history = []
    state.sweep_losses = []
    state.sweep_timestamps = []
    state.prev_snapshot = None

    for _ in range(config.max_iter_backfitting):
        prev = [est.fitted_values.copy() for est in state.estimators]
        losses: dict[str, float] = {}
        for j, est in enumerate(state.estimators):
            r = partial_residuals(z, state.alpha, state.estimators, j)
            losses[est.name] = est.fit(covariates[est.name], r, w, config)
            center_term(est)
        state.sweep_count += 1
        state.prev_snapshot = prev
        state.sweep_losses.append(losses)
        state.sweep_timestamps.append(_dt.datetime.now())
        ratio = fitted_change_ratio(prev, [e.fitted_values for e in state.estimators])
        state.ratio_history.append(ratio)
        if ratio is not None and ratio < config.bf_threshold:
            state.converged = True
            break
    return state
