"""Response families for the local scoring loop.

Each family bundles the link function, its inverse, the working response
(adjusted dependent variable), the per-observation IRLS weights, and the
total deviance. Gaussian uses the identity link, so its working response
and weights never change and the whole fit collapses to a single additive
pass; Binomial uses the logit link with the mean clamped to the fixed
range [1e-5, 1 - 1e-5] to keep weights and deviance finite. The deviance
takes prior weights as a GLM's does (McCullagh & Nelder 1989), 1.0 when
none are given. Neither family takes a setting, so make_family builds one
from its name alone.

Every method takes float64 vectors, as `Dataset` columns and the arrays
computed from them are, and does not convert its arguments.
"""

from __future__ import annotations

import numpy as np

from .exceptions import ConfigError, DataValidationError

GAUSSIAN = "gaussian"
BINOMIAL = "binomial"


class Gaussian:
    kind = GAUSSIAN

    def link(self, mu: np.ndarray) -> np.ndarray:
        return mu

    def inverse_link(self, eta: np.ndarray) -> np.ndarray:
        return eta

    def adjusted_dependent(self, y, eta, mu) -> np.ndarray:
        return y

    def irls_weights(self, mu) -> np.ndarray:
        return np.ones_like(mu)

    def deviance(self, y, mu, w=1.0) -> float:
        # w * r * r, not w * r**2: a zero weight keeps a residual whose square
        # overflows out of the sum, where 0 * inf would be nan
        r = y - mu
        return float(np.sum(w * r * r))

    def validate_response(self, y) -> None:
        if not np.all(np.isfinite(y)):
            raise DataValidationError("gaussian response contains non-finite values")


class Binomial:
    """Bernoulli response with logit link (single trial per observation)."""

    kind = BINOMIAL
    mu_clamp = 1e-5

    def clamp(self, mu: np.ndarray) -> np.ndarray:
        return np.clip(mu, self.mu_clamp, 1.0 - self.mu_clamp)

    def link(self, mu: np.ndarray) -> np.ndarray:
        mu = self.clamp(mu)
        return np.log(mu / (1.0 - mu))

    def inverse_link(self, eta: np.ndarray) -> np.ndarray:
        # sigmoid, split by sign to avoid overflow in exp
        mu = np.empty_like(eta)
        pos = eta >= 0
        mu[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
        ex = np.exp(eta[~pos])
        mu[~pos] = ex / (1.0 + ex)
        return self.clamp(mu)

    def adjusted_dependent(self, y, eta, mu) -> np.ndarray:
        return eta + (y - mu) / (mu * (1.0 - mu))

    def irls_weights(self, mu) -> np.ndarray:
        return mu * (1.0 - mu)

    def deviance(self, y, mu, w=1.0) -> float:
        self.validate_response(y)
        mu = self.clamp(mu)
        return float(-2.0 * np.sum(w * (y * np.log(mu) + (1.0 - y) * np.log(1.0 - mu))))

    def validate_response(self, y) -> None:
        if not np.all(np.isin(y, (0.0, 1.0))):
            bad = y[~np.isin(y, (0.0, 1.0))]
            raise DataValidationError(
                f"binomial response must be 0/1; found value {bad.flat[0]!r}"
            )


Family = Gaussian | Binomial

FAMILY_NAMES = (GAUSSIAN, BINOMIAL)


def make_family(name: str) -> Family:
    """Build a family from its config/CLI name ('gaussian' or 'binomial')."""
    if name == GAUSSIAN:
        return Gaussian()
    if name == BINOMIAL:
        return Binomial()
    raise ConfigError(f"unknown family {name!r}; expected one of {FAMILY_NAMES}")
