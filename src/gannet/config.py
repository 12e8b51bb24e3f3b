"""Settings dataclasses: every user-facing setting, defined and checked in one place.

FitConfig here and ScenarioSpec in simulation.py declare each setting as
a typed `_knob` field with default and help; `check_types` checks every
field against its type hint and the CLI generates flags from the fields.
"""

from __future__ import annotations

import math
import types
import typing
from dataclasses import MISSING, dataclass, field
from numbers import Integral, Real

from .exceptions import ConfigError
from .families import FAMILY_NAMES
from .nn_core import ACTIVATIONS


def _knob(default, help: str):
    return field(default=default, metadata={"help": help})


def unwrap_optional(hint):
    """The X of a field typed `X | None`; any other type hint unchanged."""
    if isinstance(hint, types.UnionType):
        return next(a for a in typing.get_args(hint) if a is not type(None))
    return hint


# what each field type accepts, numpy numbers included, and its name in errors
_ACCEPTS = {int: (Integral, "an integer"), float: (Real, "a finite real number"),
            str: (str, "a string")}


def _fits(value, base) -> bool:
    kind = _ACCEPTS[base][0]
    # bool is an Integral too, but never a meaningful count, width or rate
    return (isinstance(value, kind) and not isinstance(value, bool)
            and (base is not float or math.isfinite(value)))


def _typed(name: str, value, hint):
    """`value` as the plain Python type its field's `hint` names, or ConfigError."""
    base = unwrap_optional(hint)
    if value is None and base is not hint:
        return None
    if typing.get_origin(base) is tuple:  # one item, or a list or tuple of items
        item = typing.get_args(base)[0]
        items = value if isinstance(value, (list, tuple)) else (value,)
        if all(_fits(u, item) for u in items):
            return tuple(item(u) for u in items)
        raise ConfigError(f"{name} must be {_ACCEPTS[item][1]} or a list of them, got {value!r}")
    if _fits(value, base):
        return base(value)
    raise ConfigError(f"{name} must be {_ACCEPTS[base][1]}, got {value!r}")


def check_types(settings) -> None:
    """Replace each field of a settings dataclass by `_typed` of its value."""
    for name, hint in typing.get_type_hints(type(settings)).items():
        setattr(settings, name, _typed(name, getattr(settings, name), hint))


@dataclass
class FitConfig:
    """Settings for fitting an additive neural model.

    num_units defines each subnetwork's hidden widths: an integer gives
    one hidden layer, a sequence one layer per entry. Everything else has
    the documented default. Model files store the config as
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

    def __post_init__(self):
        check_types(self)
        if not self.num_units or min(self.num_units) < 1:
            raise ConfigError("num_units must be positive integer(s)")
        if self.family not in FAMILY_NAMES:
            raise ConfigError(f"family must be one of {FAMILY_NAMES}, got {self.family!r}")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"activation must be one of {ACTIVATIONS}, got {self.activation!r}")
        for name in ("learning_rate", "bf_threshold", "ls_threshold"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        for name in ("max_iter_backfitting", "max_iter_ls", "batch_size", "epochs_per_sweep"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.l2_penalty < 0:
            raise ConfigError("l2_penalty must be nonnegative")
        if self.seed is not None and self.seed < 0:
            raise ConfigError("seed must be a nonnegative integer")
        if self.verbose not in (0, 1):
            raise ConfigError("verbose must be 0 or 1")
