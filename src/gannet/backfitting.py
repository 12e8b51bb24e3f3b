"""Backfitting: cyclically refit each term to the partial residuals of the rest.

Within a sweep the terms are visited in formula order and each sees the
residuals left by the terms already updated this sweep (Gauss-Seidel).
After every term fit the estimate is mean-centered over the training rows
so the intercept stays identifiable, and after every sweep the intercept
is refitted by the constant smoother: the weighted mean of what the terms
leave of the working response. Sweeping stops when the summed
squared change of all term functions, relative to their previous summed
squares, drops below the configured threshold, or when the sweep cap is
reached. Networks and their optimizer state persist across sweeps and
across local-scoring iterations, so each one-epoch fit warm-starts from
the last. Each sweep leaves one `Sweep` record: every term's training
loss and centering shift, the change ratio and the time it ended.
"""

from __future__ import annotations

import datetime as _dt
import math
from dataclasses import dataclass, field

import numpy as np

from . import formula as _formula
from . import nn_core
from .config import FitConfig
from .exceptions import DegenerateDataError, NumericInstabilityError

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
        self.adam = nn_core.AdamState(learning_rate=config.learning_rate)
        self.shuffle_rng = _rng_for(seed, SHUFFLE_STREAM, index)
        self.fitted_values = np.zeros(n_rows)
        self.offset = 0.0

    def fit(self, x, residuals, weights, config: FitConfig) -> float:
        """Train for the configured epochs; refresh raw fitted values."""
        if self.adam is None:
            raise RuntimeError(
                "estimator has no optimizer state: a fitted or loaded model "
                "predicts but does not resume training"
            )
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
        return self.slope * (x - self.x_center) - self.offset


TermEstimator = SmoothTermEstimator | LinearTermEstimator


def _rng_for(seed, stream: int, index: int) -> np.random.Generator:
    if seed is None:
        return np.random.default_rng()
    return np.random.default_rng([seed, stream, index])


def make_estimator(term: _formula.Term, config: FitConfig, index: int, n_rows: int):
    if term.kind == _formula.SMOOTH:
        return SmoothTermEstimator(term.name, config, index, n_rows)
    return LinearTermEstimator(term.name, config, index, n_rows)


def partial_residuals(z, alpha: float, estimators, skip_index: int) -> np.ndarray:
    """Residuals of z against the intercept and every other term's fit.

    Estimators before skip_index contribute the values they got this
    sweep, later ones the previous sweep's — the Gauss-Seidel update.
    """
    r = z - alpha
    for k, est in enumerate(estimators):
        if k != skip_index:
            r = r - est.fitted_values
    return r


def center_term(est) -> float:
    """Shift the fitted values to unweighted mean zero; fold the shift into
    the estimator's prediction offset. Returns the subtracted constant."""
    shift = float(np.mean(est.fitted_values))
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
class Sweep:
    """One backfitting sweep: each term's training loss and centering shift,
    keyed by term in formula order, the change ratio (None when undefined)
    and the end time (None in a loaded model)."""

    losses: dict[str, float]
    shifts: dict[str, float]
    ratio: float | None
    timestamp: _dt.datetime | None


@dataclass
class BackfitState:
    """Mutable state threaded through backfitting sweeps.

    One instance persists across local-scoring iterations so the
    subnetworks warm-start. Each backfit() call binds a fresh `sweeps`
    list, never clearing the old one in place: the previous iteration's
    record still holds it.
    """

    alpha: float
    estimators: list
    sweeps: list[Sweep] = field(default_factory=list)

    @property
    def sweep_count(self) -> int:
        """Sweeps of the last backfit() call; perfbench reads it."""
        return len(self.sweeps)

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

    The caller sets the starting intercept state.alpha, the weighted mean
    of z. Each sweep ends by refitting it as the weighted mean of z minus
    the terms' fitted sum: the terms are centered unweighted, so under
    unequal weights the intercept must take up their weighted mean for
    alpha plus the terms to be a fixed point of weighted backfitting.
    The first sweep from the all-zero state has a zero denominator, so its
    criterion is skipped and at least one full fitting pass always
    happens. Each sweep appends its record to state.sweeps. A term whose training loss is not finite, such as a
    squared residual that overflowed, raises NumericInstabilityError.
    """
    state.sweeps = []
    for _ in range(config.max_iter_backfitting):
        # no copies needed: every write to fitted_values rebinds it, none is in place
        prev = [est.fitted_values for est in state.estimators]
        losses, shifts = {}, {}
        for j, est in enumerate(state.estimators):
            r = partial_residuals(z, state.alpha, state.estimators, j)
            loss = est.fit(covariates[est.name], r, w, config)
            if not math.isfinite(loss):
                raise NumericInstabilityError(f"non-finite training loss for term {est.name!r}")
            losses[est.name] = loss
            shifts[est.name] = center_term(est)
        if np.any(w != w[0]):
            # the constant smoother; under equal weights the centered terms have
            # mean zero already, and alpha stays the mean of z set by the caller
            state.alpha = float(np.sum(w * (z - state.fitted_sum())) / np.sum(w))
        ratio = fitted_change_ratio(prev, [e.fitted_values for e in state.estimators])
        state.sweeps.append(Sweep(losses, shifts, ratio, _dt.datetime.now()))
        if ratio is not None and ratio < config.bf_threshold:
            break
    return state
