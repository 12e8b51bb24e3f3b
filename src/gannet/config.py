"""Fit configuration: every user-facing hyperparameter in one place.

The `train` CLI flags are generated from this dataclass (name, type,
default and help), so the two surfaces cannot drift apart.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field

from .exceptions import ConfigError
from .families import FAMILY_NAMES
from .nn_core import ACTIVATIONS


def _knob(default, help: str):
    return field(default=default, metadata={"help": help})


@dataclass
class FitConfig:
    """Hyperparameters for fitting an additive neural model.

    num_units defines each subnetwork's hidden widths: a scalar gives one
    hidden layer, a sequence one layer per entry. Everything else has the
    documented default. Model files store the config as
    dataclasses.asdict(config) and rebuild it as FitConfig(**stored).
    """

    num_units: tuple[int, ...] = _knob(MISSING, "hidden widths per subnetwork: 1024 or 256,128")
    family: str = _knob("gaussian", f"response family: {', '.join(FAMILY_NAMES)}")
    learning_rate: float = _knob(0.001, "Adam step size")
    activation: str = _knob("relu", f"hidden-layer activation: {', '.join(ACTIVATIONS)}")
    l2_penalty: float = _knob(0.0, "L2 penalty on every weight matrix")
    w_train: str | None = _knob(None, "name of an optional sample-weight column")
    bf_threshold: float = _knob(0.001, "backfitting convergence threshold")
    ls_threshold: float = _knob(0.1, "local-scoring convergence threshold")
    max_iter_backfitting: int = _knob(10, "backfitting sweeps per local-scoring iteration")
    max_iter_ls: int = _knob(10, "local-scoring iterations")
    batch_size: int = _knob(128, "rows per Adam step")
    epochs_per_sweep: int = _knob(1, "training epochs per term per sweep")
    seed: int | None = _knob(None, "seed for initialization and shuffling")
    verbose: int = _knob(1, "1 prints one line per local-scoring iteration, 0 nothing")
    mu_clamp: float = _knob(1e-5, "binomial mean clamp to [mu_clamp, 1 - mu_clamp]")
    beta1: float = _knob(0.9, "Adam first-moment decay")
    beta2: float = _knob(0.999, "Adam second-moment decay")
    epsilon: float = _knob(1e-7, "Adam denominator offset")

    def __post_init__(self):
        if isinstance(self.num_units, (int, float)):
            self.num_units = (int(self.num_units),)
        else:
            self.num_units = tuple(int(u) for u in self.num_units)
        if not self.num_units or any(u < 1 for u in self.num_units):
            raise ConfigError("num_units must be positive integer(s)")
        if self.family not in FAMILY_NAMES:
            raise ConfigError(f"family must be one of {FAMILY_NAMES}, got {self.family!r}")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"activation must be one of {ACTIVATIONS}, got {self.activation!r}")
        if self.l2_penalty < 0:
            raise ConfigError("l2_penalty must be nonnegative")
        if self.bf_threshold <= 0 or self.ls_threshold <= 0:
            raise ConfigError("convergence thresholds must be positive")
        if self.max_iter_backfitting < 1 or self.max_iter_ls < 1:
            raise ConfigError("iteration limits must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.epochs_per_sweep < 1:
            raise ConfigError("epochs_per_sweep must be >= 1")
        if self.seed is not None and self.seed < 0:
            raise ConfigError("seed must be a nonnegative integer")
        if self.verbose not in (0, 1):
            raise ConfigError("verbose must be 0 or 1")
        if not 0.0 < self.mu_clamp < 0.5:
            raise ConfigError("mu_clamp must lie in (0, 0.5)")
