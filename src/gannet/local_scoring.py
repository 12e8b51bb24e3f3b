"""Local scoring: the outer IRLS loop around backfitting.

The fit starts from the intercept at the weighted mean response. Each
iteration linearizes the likelihood at the current fit, producing a
working response and weights from the family tables, starts the
intercept at the weighted mean of the working response, and delegates the
additive fit to backfitting, which refits the intercept after every sweep
along with the terms. Convergence is judged by the relative drop
in deviance; the identity-link Gaussian case needs no relinearization, so
it runs exactly one iteration. The start, the working weights and the
deviance all weight each row by its sample weight, so the response of a
row of weight 0 has no say in the fit. The predictor, mean and deviance
are evaluated once per state: the one a backfitting call leaves ends one
iteration and starts the next. A record keeps the iteration's deviance
and backfitting's `Sweep` list, not its working vectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .backfitting import BackfitState, Sweep, backfit, make_estimator
from .config import FitConfig
from .exceptions import DataValidationError, DegenerateDataError
from .families import GAUSSIAN, Family
from .formula import Formula


@dataclass
class IterationRecord:
    """One local-scoring iteration (its number is its trace position plus one):
    the deviance backfitting left, its relative drop and the sweep records."""

    deviance: float
    deviance_ratio: float
    sweeps: list[Sweep]

    @property
    def per_term_epoch_losses(self) -> dict[str, list[float]]:
        """{term: one loss a sweep} in formula order, derived from `sweeps`;
        perfbench reads it."""
        names = self.sweeps[0].losses if self.sweeps else ()
        return {name: [sweep.losses[name] for sweep in self.sweeps] for name in names}


@dataclass
class LocalScoringTrace:
    iterations: list[IterationRecord] = field(default_factory=list)

    def history_rows(self) -> list[tuple[str, str, int, float]]:
        """(timestamp text or "", term, epoch, loss) rows, as printed and saved;
        the epoch counter runs across the sweeps of all iterations, one epoch
        a sweep, terms in formula order within it."""
        rows = []
        epoch = 0
        for rec in self.iterations:
            for sweep in rec.sweeps:
                epoch += 1
                stamp = sweep.timestamp.strftime("%Y-%m-%d %H:%M:%S") if sweep.timestamp else ""
                rows += [(stamp, term, epoch, loss) for term, loss in sweep.losses.items()]
        return rows


def deviance_ratio(prev: float, curr: float) -> float:
    """Relative deviance drop (prev - curr) / prev; zero prev counts as
    converged. Negative when the fit worsened, which still stops the loop."""
    if prev == 0.0:
        return 0.0
    return (prev - curr) / prev


def local_scoring(
    data,
    formula: Formula,
    family: Family,
    config: FitConfig,
) -> tuple[BackfitState, LocalScoringTrace]:
    """Fit the additive predictor by IRLS over backfitting rounds.

    Returns the final backfit state (intercept and term estimators) and
    the per-iteration trace.
    """
    y = data.column(formula.response)
    if data.n < 2:
        raise DataValidationError("need at least 2 rows to fit")
    family.validate_response(y)
    if np.all(y == y[0]):
        raise DegenerateDataError(
            f"response {formula.response!r} is constant; nothing to fit"
        )

    covariates = {name: data.covariate(name) for name in formula.term_names}

    if config.w_train is not None:
        w_ext = data.column(config.w_train)
        if np.any(w_ext < 0) or not np.all(np.isfinite(w_ext)) or not np.sum(w_ext) > 0:
            raise DataValidationError(
                f"sample weights {config.w_train!r} must be finite, nonnegative, "
                "and not all zero"
            )
    else:
        w_ext = np.ones_like(y)

    alpha0 = float(family.link(np.array([np.sum(w_ext * y) / np.sum(w_ext)]))[0])
    estimators = [
        make_estimator(term, config, j, data.n) for j, term in enumerate(formula.terms)
    ]
    state = BackfitState(alpha=alpha0, estimators=estimators)
    trace = LocalScoringTrace()

    eta = state.alpha + state.fitted_sum()
    mu = family.inverse_link(eta)
    dev = family.deviance(y, mu, w_ext)
    for l in range(1, config.max_iter_ls + 1):
        z = family.adjusted_dependent(y, eta, mu)
        w = family.irls_weights(mu) * w_ext
        state.alpha = float(np.sum(w * z) / np.sum(w))
        backfit(state, z, w, covariates, config)
        # the state backfit leaves ends this iteration and starts the next
        eta = state.alpha + state.fitted_sum()
        mu = family.inverse_link(eta)
        dev_before, dev = dev, family.deviance(y, mu, w_ext)
        ratio = deviance_ratio(dev_before, dev)
        trace.iterations.append(IterationRecord(dev, ratio, state.sweeps))
        if config.verbose:
            print(
                f"[gannet] local scoring iteration {l}: deviance={dev:.6g} "
                f"ratio={ratio:.6g} sweeps={len(state.sweeps)}"
            )
        if family.kind == GAUSSIAN or ratio < config.ls_threshold:
            break
    return state, trace
