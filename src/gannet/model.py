"""User-facing model object: fitting, prediction, summaries, persistence.

A fitted model is the intercept, one estimator per formula term
(subnetwork or linear slope, each with its centering offset), the
training trace, and per-term training ranges. A model returned by `fit`
also keeps its fitted values and final additive predictor on the
training rows, so `predict()` without data answers for those rows.

Model files are JSON with a content checksum. They hold the model, not
the training rows, and store each quantity once: the subnetwork
architecture is rebuilt from the stored config, the family from the
config's `family` name alone, and each term's kind from the stored
formula. Floats are written with full round-trip precision, so a loaded
model predicts bit-identically to the original on the same data; it
needs that data passed in. Optimizer state is not saved; a loaded model
predicts but does not resume training.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from dataclasses import asdict

import numpy as np

from . import nn_core
from .backfitting import LinearTermEstimator, SmoothTermEstimator
from .config import FitConfig
from .data import Dataset
from .exceptions import ConfigError, DataValidationError, GannetError, ModelFileError
from .families import Family, make_family
from .formula import SMOOTH, Formula, format_formula, parse_formula
from .local_scoring import IterationRecord, LocalScoringTrace, local_scoring

FILE_FORMAT = "gannet-model"
FILE_VERSION = 4

PREDICT_TYPES = ("link", "response", "terms")


class FittedModel:
    """Result of :func:`fit`; immutable once constructed.

    `training_eta` is the additive predictor on the training rows, or
    None for a model loaded from file, which stores no training rows.
    """

    def __init__(
        self,
        formula: Formula,
        family: Family,
        alpha: float,
        estimators: list,
        trace: LocalScoringTrace,
        config: FitConfig,
        n: int,
        training_mse: float,
        training_eta: np.ndarray | None,
        term_ranges: dict[str, tuple[float, float]],
    ):
        self.formula = formula
        self.family = family
        self.alpha = alpha
        self.estimators = estimators
        self.terms = {est.name: est for est in estimators}
        self.trace = trace
        self.config = config
        self.n = n
        self.training_mse = training_mse
        self.training_eta = training_eta
        self.term_ranges = term_ranges

    # ------------------------------------------------------------------
    # prediction
    # ------------------------------------------------------------------

    def predict(self, newdata: Dataset | None = None, type: str = "link",
                terms=None) -> np.ndarray:
        """Predict on `newdata`, or on the training rows when it is None.

        type='terms' returns one column per requested term, in request
        order, including each term's training centering offset;
        type='link' returns the additive predictor (intercept plus all
        term columns); type='response' maps the link through the inverse
        link function. Only a model returned by `fit` knows its training
        rows: on a model loaded from file, omitting `newdata` raises
        DataValidationError.
        """
        if type not in PREDICT_TYPES:
            raise ConfigError(f"predict type must be one of {PREDICT_TYPES}, got {type!r}")
        if type != "terms" and terms is not None:
            raise ConfigError("a terms subset is only valid with type='terms'")
        if newdata is None and self.training_eta is None:
            raise DataValidationError(
                "a model loaded from file stores no training rows; pass the data to predict on"
            )

        cols = []
        for name in self.term_subset(terms):  # not a comprehension: see _term_column
            cols.append(self._term_column(name, newdata))
        if type == "terms":
            rows = self.n if newdata is None else newdata.n
            return np.column_stack(cols) if cols else np.empty((rows, 0))
        eta = self.alpha + np.sum(np.column_stack(cols), axis=1)
        if type == "link":
            return eta
        return self.family.inverse_link(eta)

    def term_subset(self, terms=None) -> list[str]:
        """The requested term names (default: all); unknown or repeated ones raise
        DataValidationError."""
        names = list(self.terms) if terms is None else list(terms)
        unknown = [t for t in names if t not in self.terms]
        if unknown:
            raise DataValidationError(f"unknown term(s): {', '.join(unknown)}")
        repeated = dict.fromkeys(t for t in names if names.count(t) > 1)
        if repeated:
            raise DataValidationError(f"repeated term(s): {', '.join(repeated)}")
        return names

    def _term_column(self, name: str, newdata: Dataset | None) -> np.ndarray:
        est = self.terms[name]
        if newdata is None:
            return est.fitted_values
        x = newdata.column(name)
        if not np.all(np.isfinite(x)):
            raise DataValidationError(f"covariate {name!r} contains non-finite values")
        lo, hi = self.term_ranges[name]
        if x.size and (np.min(x) < lo or np.max(x) > hi):
            # stacklevel 3 names predict's caller; predict calls this from a plain
            # loop, since before Python 3.12 a comprehension is a frame of its own
            warnings.warn(
                f"term {name!r}: values outside the training range "
                f"[{lo:.6g}, {hi:.6g}]; network extrapolation is unreliable",
                stacklevel=3,
            )
        return est.predict(x)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------

    def __str__(self) -> str:
        return "\n".join(
            [
                "Class: GANN",
                "",
                f"Distribution Family:  {self.family.kind}",
                f"Formula:  {format_formula(self.formula)}",
                f"Intercept: {self.alpha:.4f}",
                f"MSE: {self.training_mse:.4f}",
                f"Sample size: {self.n}",
            ]
        )

    def summary(self) -> str:
        return summarize(self)

    def architecture_lines(self) -> list[str]:
        """Per-term layer shapes and parameter counts."""
        lines = []
        for est in self.estimators:
            if est.kind == SMOOTH:
                lines.append(f"{est.name}:")
                for layer in est.net.layers:
                    desc = f"dense ({layer.fan_in} -> {layer.fan_out}, {layer.activation})"
                    lines.append(f"  {desc:<34s} {layer.weights.size + layer.biases.size} params")
                lines.append(f"  Total params: {est.net.parameter_count()}")
            else:
                lines.append(f"{est.name}: linear(slope={est.slope:.4f})")
            lines.append("")
        return lines[:-1] if lines else lines


def summarize(model: FittedModel) -> str:
    """Full text summary: header, training history, per-term architecture."""
    out = [str(model), "", "Training History:", ""]
    rows = model.trace.history_rows()
    table = [("Timestamp", f"{'Model':<10s} {'Epoch':>5s} {'TrainLoss':>12s}")]
    table += [(stamp, f"{term:<10s} {epoch:>5d} {loss:>12.4f}")
              for stamp, term, epoch, loss in rows]
    stamped = any(stamp for stamp, *_ in rows)
    out += [f"  {stamp:<20s} {cells}" if stamped else f"  {cells}" for stamp, cells in table]
    out += ["", "Model architecture:", ""]
    out += model.architecture_lines()
    return "\n".join(out)


def fit(data, formula, config: FitConfig) -> FittedModel:
    """Fit an additive neural model to the dataset.

    `data` may be a Dataset or a mapping of column names to vectors;
    `formula` a Formula or its string form. Deterministic given
    config.seed.
    """
    if not isinstance(data, Dataset):
        data = Dataset(data)
    if isinstance(formula, str):
        formula = parse_formula(formula)

    needed = [formula.response, *formula.term_names]
    if config.w_train is not None:
        needed.append(config.w_train)
    data.require(needed)

    family = make_family(config.family)
    state, trace = local_scoring(data, formula, family, config)

    y = data.column(formula.response)
    term_ranges = {
        name: (float(np.min(data.column(name))), float(np.max(data.column(name))))
        for name in formula.term_names
    }
    cols = [est.fitted_values for est in state.estimators]
    training_eta = state.alpha + np.sum(np.column_stack(cols), axis=1)
    mu = family.inverse_link(training_eta)
    training_mse = float(np.mean((y - mu) ** 2))

    return FittedModel(
        formula=formula,
        family=family,
        alpha=state.alpha,
        estimators=state.estimators,
        trace=trace,
        config=config,
        n=data.n,
        training_mse=training_mse,
        training_eta=training_eta,
        term_ranges=term_ranges,
    )


# ----------------------------------------------------------------------
# persistence
# ----------------------------------------------------------------------


def _floats(arr) -> list:
    return np.asarray(arr, dtype=np.float64).tolist()


def _estimator_payload(est, lo: float, hi: float) -> dict:
    base = {
        "name": est.name,
        "offset": float(est.offset),
        "train_min": lo,
        "train_max": hi,
    }
    if est.kind == SMOOTH:
        base["layers"] = [
            {"weights": _floats(layer.weights), "biases": _floats(layer.biases)}
            for layer in est.net.layers
        ]
    else:
        base["slope"] = float(est.slope)
        base["x_center"] = float(est.x_center)
    return base


def _trace_payload(trace: LocalScoringTrace) -> list:
    # timestamps and working arrays are runtime diagnostics; excluding them
    # keeps model files byte-identical across same-seed runs
    return [
        {
            "iteration": rec.iteration,
            "deviance": rec.deviance,
            "deviance_ratio": rec.deviance_ratio,
            "per_term_epoch_losses": rec.per_term_epoch_losses,
        }
        for rec in trace.iterations
    ]


def _model_payload(model: FittedModel) -> dict:
    return {
        "formula": format_formula(model.formula),
        "alpha": float(model.alpha),
        "n": model.n,
        "training_mse": float(model.training_mse),
        "config": asdict(model.config),
        "terms": [
            _estimator_payload(est, *model.term_ranges[est.name])
            for est in model.estimators
        ],
        "trace": _trace_payload(model.trace),
    }


def _canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def save_model(model: FittedModel, path) -> None:
    """Write the model as checksummed JSON."""
    payload = _model_payload(model)
    digest = hashlib.sha256(_canonical(payload).encode("utf-8")).hexdigest()
    doc = {
        "format": FILE_FORMAT,
        "version": FILE_VERSION,
        "sha256": digest,
        "model": payload,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def load_model(path) -> FittedModel:
    """Read a model file, verifying version, content checksum and payload.

    Any payload that does not describe a model of its stored config and
    formula raises ModelFileError.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ModelFileError(f"{path}: corrupt model file ({exc})") from exc
    if not isinstance(doc, dict) or doc.get("format") != FILE_FORMAT:
        raise ModelFileError(f"{path}: not a {FILE_FORMAT} file")
    if doc.get("version") != FILE_VERSION:
        raise ModelFileError(
            f"{path}: unsupported model file version {doc.get('version')!r}; "
            f"expected {FILE_VERSION}"
        )
    payload = doc.get("model")
    digest = hashlib.sha256(_canonical(payload).encode("utf-8")).hexdigest()
    if digest != doc.get("sha256"):
        raise ModelFileError(f"{path}: checksum mismatch; file is corrupt")
    try:
        return _model_from_payload(payload)
    # what a malformed payload makes decoding raise: missing keys, wrong
    # types (AttributeError for a non-string formula), int(inf) overflow
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError,
            GannetError) as exc:
        raise ModelFileError(
            f"{path}: malformed model file ({type(exc).__name__}: {exc})"
        ) from exc


def _decode(values, shape: tuple, what: str) -> np.ndarray:
    """Stored numbers as a float64 array of exactly `shape`, all finite."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.shape != shape:
        raise ModelFileError(f"{what} has shape {arr.shape}, expected {shape}")
    if not np.all(np.isfinite(arr)):
        raise ModelFileError(f"{what} contains non-finite values")
    return arr


def _decode_estimator(term, tp: dict, config: FitConfig):
    name = term.name
    if term.kind == SMOOTH:
        plan = nn_core.layer_plan(config.num_units, config.activation)
        if len(tp["layers"]) != len(plan):
            raise ModelFileError(f"term {name!r} has {len(tp['layers'])} layers, not {len(plan)}")
        layers = []
        for k, ((fan_in, fan_out, act), lp) in enumerate(zip(plan, tp["layers"])):
            what = f"term {name!r} layer {k}"
            weights = _decode(lp["weights"], (fan_out, fan_in), f"{what} weights")
            biases = _decode(lp["biases"], (fan_out,), f"{what} biases")
            layers.append(nn_core.DenseLayer(weights, biases, act))
        net = nn_core.SubNetwork(layers)
        est = SmoothTermEstimator.from_parts(name, net)
    else:
        est = LinearTermEstimator.from_parts(
            name,
            float(_decode(tp["slope"], (), f"term {name!r} slope")),
            float(_decode(tp["x_center"], (), f"term {name!r} x_center")),
        )
    est.offset = float(_decode(tp["offset"], (), f"term {name!r} offset"))
    return est


def _decode_losses(stored, names: list[str]) -> dict[str, list[float]]:
    """One iteration's {term: one loss a sweep}, in formula order.

    The file holds it with sorted keys; it must name exactly the formula's
    terms, each with the same number of sweeps.
    """
    stored = dict(stored)
    if set(stored) != set(names):
        raise ModelFileError(f"stored losses of terms {sorted(stored)} do not match the "
                             f"formula's terms {names}")
    losses = {name: [float(loss) for loss in stored[name]] for name in names}
    if len({len(sweeps) for sweeps in losses.values()}) > 1:
        raise ModelFileError("stored loss lists differ in length")
    return losses


def _model_from_payload(payload: dict) -> FittedModel:
    config = FitConfig(**payload["config"])
    formula = parse_formula(payload["formula"])
    n = payload["n"]
    # a stored n is checked against nothing else; 2 is the fewest rows fit accepts
    if isinstance(n, bool) or not isinstance(n, int) or n < 2:
        raise ModelFileError(f"n must be an integer >= 2, got {n!r}")
    terms = payload["terms"]
    names = [tp["name"] for tp in terms]
    if names != list(formula.term_names):
        raise ModelFileError(f"stored terms {names} do not match the formula's terms")
    estimators = [
        _decode_estimator(term, tp, config) for term, tp in zip(formula.terms, terms)
    ]
    term_ranges = {
        tp["name"]: tuple(_decode([tp["train_min"], tp["train_max"]], (2,), "range").tolist())
        for tp in terms
    }
    trace = LocalScoringTrace(
        iterations=[
            IterationRecord(
                iteration=int(rp["iteration"]),
                deviance=float(rp["deviance"]),
                deviance_ratio=float(rp["deviance_ratio"]),
                per_term_epoch_losses=_decode_losses(rp["per_term_epoch_losses"], names),
                timestamps=[],
            )
            for rp in payload["trace"]
        ]
    )
    return FittedModel(
        formula=formula,
        family=make_family(config.family),
        alpha=float(_decode(payload["alpha"], (), "alpha")),
        estimators=estimators,
        trace=trace,
        config=config,
        n=n,
        training_mse=float(_decode(payload["training_mse"], (), "training_mse")),
        training_eta=None,
        term_ranges=term_ranges,
    )
