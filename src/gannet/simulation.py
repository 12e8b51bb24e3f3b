"""Deterministic synthetic data generators for experiments and tests.

The default scenario draws three uniform covariates on [-2.5, 2.5] and
builds the response from a centered parabola, a centered linear ramp and
a centered sine, plus a constant of 2 and unit-variance noise with mean
0.25, split 80/20 into train and test by a Bernoulli mask.

Randomness comes from numpy's PCG64 with explicit stream splitting: the
generator for purpose k under seed s is ``default_rng([s, <tag>, k])``,
so every column has its own named stream and the same seed reproduces
identical datasets on any platform.

ScenarioSpec is a settings dataclass like FitConfig: `gannet simulate`
builds its flags from the fields, and config.check_types checks them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import _knob, check_types
from .data import Dataset
from .exceptions import ConfigError

_COVARIATE_STREAM = 1
_NOISE_STREAM = 2
_SPLIT_STREAM = 3
_RESPONSE_STREAM = 4

TRUE_FUNCTIONS = {
    "square": np.square,
    "double": lambda x: 2.0 * x,
    "sine": np.sin,
}


@dataclass
class ScenarioSpec:
    """Settings of the simulated additive-Gaussian scenario, one true
    function and one covariate per entry of `true_functions`."""

    n: int = _knob(30625, "rows before the train/test split")
    covariate_low: float = _knob(-2.5, "lower end of the uniform covariate range")
    covariate_high: float = _knob(2.5, "upper end of the uniform covariate range")
    true_functions: tuple[str, ...] = _knob(
        ("square", "double", "sine"),
        f"true components, one covariate each: {', '.join(TRUE_FUNCTIONS)}")
    alpha0: float = _knob(2.0, "true intercept")
    noise_mean: float = _knob(0.25, "mean of the Gaussian noise")
    noise_sd: float = _knob(1.0, "standard deviation of the Gaussian noise")
    train_fraction: float = _knob(0.8, "expected share of rows in the training set")
    seed: int = _knob(42, "seed of every random stream")

    def __post_init__(self):
        check_types(self)
        if self.seed < 0:
            raise ConfigError("seed must be a nonnegative integer")
        if self.n < 2:
            raise ConfigError("scenario n must be >= 2")
        # numpy draws uniform values only over a width that is a finite float
        if not 0.0 < self.covariate_high - self.covariate_low < math.inf:
            raise ConfigError("covariate range must be non-empty, its width a finite float")
        if not self.true_functions or not set(self.true_functions) <= TRUE_FUNCTIONS.keys():
            raise ConfigError(f"true_functions must name one or more of "
                              f"{sorted(TRUE_FUNCTIONS)}, got {self.true_functions!r}")
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigError("train_fraction must lie in (0, 1)")
        if self.noise_sd < 0:
            raise ConfigError("noise_sd must be nonnegative")


def _covariate(spec: ScenarioSpec, index: int) -> np.ndarray:
    """Covariate `index` on the full sample: the data's and the centering's one draw."""
    rng = np.random.default_rng([spec.seed, _COVARIATE_STREAM, index])
    return rng.uniform(spec.covariate_low, spec.covariate_high, size=spec.n)


def generate_scenario(spec: ScenarioSpec):
    """Generate (train, test, true_terms_train, true_terms_test).

    Covariates are named x1..xp and the response y. Each true component
    is centered by subtracting its full-sample mean, so the per-term
    sample means are ~0 by construction and the intercept equals
    alpha0 + noise_mean in expectation. The true-term tables carry the
    centered component values for oracle comparisons.

    Raises ConfigError, naming the settings, when a centered component or
    the response overflows: finite settings can still give inf or NaN.
    """
    p = len(spec.true_functions)
    names = [f"x{j + 1}" for j in range(p)]

    covs = {}
    fs = {}
    for j, (name, fname) in enumerate(zip(names, spec.true_functions)):
        covs[name] = _covariate(spec, j)
        with np.errstate(over="ignore", invalid="ignore"):
            f = TRUE_FUNCTIONS[fname](covs[name])
            fs[name] = f - np.mean(f)
        if not np.all(np.isfinite(fs[name])):
            raise ConfigError(
                f"true component {fname!r} of {name} is not finite with "
                f"covariate_low={spec.covariate_low!r} and covariate_high={spec.covariate_high!r}")

    noise_rng = np.random.default_rng([spec.seed, _NOISE_STREAM, 0])
    eps = noise_rng.normal(spec.noise_mean, spec.noise_sd, size=spec.n)
    with np.errstate(over="ignore", invalid="ignore"):
        y = spec.alpha0 + sum(fs.values()) + eps
    if not np.all(np.isfinite(y)):
        raise ConfigError(
            f"response y is not finite with alpha0={spec.alpha0!r}, "
            f"noise_mean={spec.noise_mean!r} and noise_sd={spec.noise_sd!r}")

    split_rng = np.random.default_rng([spec.seed, _SPLIT_STREAM, 0])
    in_train = split_rng.random(spec.n) < spec.train_fraction

    def subset(mask):
        cols = {name: covs[name][mask] for name in names}
        cols["y"] = y[mask]
        return Dataset(cols)

    def true_subset(mask):
        return Dataset({name: fs[name][mask] for name in names})

    return (
        subset(in_train),
        subset(~in_train),
        true_subset(in_train),
        true_subset(~in_train),
    )


def true_centered_component(spec: ScenarioSpec, index: int, grid: np.ndarray) -> np.ndarray:
    """Evaluate true component `index` on a grid, centered the same way the
    generator centered it (by the full-sample mean under the same seed)."""
    fn = TRUE_FUNCTIONS[spec.true_functions[index]]
    return fn(grid) - np.mean(fn(_covariate(spec, index)))


def generate_binomial_fixture(n: int, seed: int) -> Dataset:
    """Synthetic logistic data: x ~ U[-3,3], p = sigmoid(1.5 sin x + 0.5 x),
    y ~ Bernoulli(p). Returns columns x, y and the true probability p."""
    if n < 100:
        raise ConfigError("binomial fixture needs n >= 100")
    x_rng = np.random.default_rng([seed, _COVARIATE_STREAM, 0])
    y_rng = np.random.default_rng([seed, _RESPONSE_STREAM, 0])
    x = x_rng.uniform(-3.0, 3.0, size=n)
    logit_p = 1.5 * np.sin(x) + 0.5 * x
    p = 1.0 / (1.0 + np.exp(-logit_p))
    y = (y_rng.random(n) < p).astype(np.float64)
    return Dataset({"x": x, "y": y, "p": p})
