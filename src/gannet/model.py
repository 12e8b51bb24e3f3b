"""User-facing model object: fitting, prediction, summaries, persistence.

A fitted model is the intercept, one estimator per formula term
(subnetwork or linear slope, each with its centering offset), the
training trace, and per-term training ranges. A model returned by `fit`
also keeps its fitted values and final additive predictor on the
training rows, so `predict()` without data answers for those rows.

Model files are JSON with a content checksum. They hold the model, not
the training rows, and store each quantity once. The loader builds each
term the way `fit` does, from the stored formula and config, then copies
in the stored state: a subnetwork's `params` vector (each layer's weights
then biases) or a linear term's slope and center. The family comes from
the config's `family` name alone. The trace holds one record per
backfitting sweep, each term's loss and centering shift as lists in
formula order; a term's offset is its shift in the final sweep, so it is
not stored again. The writer alone defines the format: the loader keeps
a model only if writing it back reproduces the stored payload's
canonical text. Floats are written with full round-trip precision, so
a loaded model predicts bit-identically to the original on the same
data; it needs that data passed in. A model, fitted or loaded, keeps no
optimizer state: it predicts but does not resume training. Its networks
are frozen: their parameters are read-only, and every network keeps the
piece table it predicts through, built once when the model is constructed.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from .backfitting import Sweep, make_estimator
from .config import FitConfig
from .data import Dataset
from .exceptions import (ConfigError, DataValidationError, GannetError, ModelFileError,
                         NumericInstabilityError)
from .families import Family, make_family
from .formula import SMOOTH, Formula, format_formula, parse_formula
from .local_scoring import IterationRecord, LocalScoringTrace, local_scoring

FILE_FORMAT = "gannet-model"
FILE_VERSION = 6

PREDICT_TYPES = ("link", "response", "terms")


@dataclass(eq=False, repr=False)
class FittedModel:
    """Result of :func:`fit`; immutable once constructed.

    `training_eta` is the additive predictor on the training rows, or
    None for a model loaded from file, which stores no training rows.
    `family` is built from `config.family`, and `terms` maps each term name
    to its estimator. A model predicts but never resumes training, so the
    smooth terms' optimizer state is dropped here and their networks are
    frozen (`SubNetwork.freeze`): read-only, every one with its piece table
    built once, from the fitted or the loaded weights.
    """

    formula: Formula
    alpha: float
    estimators: list
    trace: LocalScoringTrace
    config: FitConfig
    n: int
    training_mse: float
    training_eta: np.ndarray | None
    term_ranges: dict[str, tuple[float, float]]
    family: Family = field(init=False)
    terms: dict = field(init=False)

    def __post_init__(self):
        self.family = make_family(self.config.family)
        self.terms = {est.name: est for est in self.estimators}
        for est in self.estimators:
            if est.kind == SMOOTH:
                est.adam = est.shuffle_rng = None
                est.net.freeze()

    # ------------------------------------------------------------------
    # prediction
    # ------------------------------------------------------------------

    def predict(self, newdata=None, type: str = "link", terms=None) -> np.ndarray:
        """Predict on `newdata`, a Dataset or a mapping of column names to
        vectors, or on the training rows when it is None.

        type='terms' returns one column per requested term, in request
        order, including each term's training centering offset;
        type='link' returns the additive predictor (intercept plus all
        term columns); type='response' maps the link through the inverse
        link function. Only a model returned by `fit` knows its training
        rows: on a model loaded from file, omitting `newdata` raises
        DataValidationError. So does a term column or an additive predictor
        that overflows to a non-finite value.
        """
        if type not in PREDICT_TYPES:
            raise ConfigError(f"predict type must be one of {PREDICT_TYPES}, got {type!r}")
        if type != "terms" and terms is not None:
            raise ConfigError("a terms subset is only valid with type='terms'")
        if newdata is None and self.training_eta is None:
            raise DataValidationError(
                "a model loaded from file stores no training rows; pass the data to predict on"
            )
        if newdata is not None and not isinstance(newdata, Dataset):
            newdata = Dataset(newdata)

        cols = []
        for name in self.term_subset(terms):  # not a comprehension: see _term_column
            cols.append(self._term_column(name, newdata))
        if type == "terms":
            rows = self.n if newdata is None else newdata.n
            return np.column_stack(cols) if cols else np.empty((rows, 0))
        eta = self.alpha + np.sum(np.column_stack(cols), axis=1)
        if not np.all(np.isfinite(eta)):
            raise DataValidationError("the additive predictor overflows to a non-finite value")
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
        x = newdata.covariate(name)
        lo, hi = self.term_ranges[name]
        if x.size and (np.min(x) < lo or np.max(x) > hi):
            # stacklevel 3 names predict's caller; predict calls this from a plain
            # loop, since before Python 3.12 a comprehension is a frame of its own
            warnings.warn(
                f"term {name!r}: values outside the training range "
                f"[{lo:.6g}, {hi:.6g}]; network extrapolation is unreliable",
                stacklevel=3,
            )
        col = est.predict(x)
        if not np.all(np.isfinite(col)):
            raise DataValidationError(f"term {name!r}: prediction overflows to a non-finite value")
        return col

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


def fit_columns(formula: Formula, config: FitConfig) -> list[str]:
    """The columns a fit reads: the response, each term's covariate and the
    sample-weight column, if there is one."""
    names = [formula.response, *formula.term_names]
    if config.w_train is not None:
        names.append(config.w_train)
    return names


def fit(data, formula, config: FitConfig) -> FittedModel:
    """Fit an additive neural model to the dataset.

    `data` may be a Dataset or a mapping of column names to vectors;
    `formula` a Formula or its string form. Deterministic given
    config.seed.
    """
    if not isinstance(data, Dataset):
        data = Dataset(data)
    if not isinstance(formula, Formula):
        formula = parse_formula(formula)

    data.require(fit_columns(formula, config))

    family = make_family(config.family)
    state, trace = local_scoring(data, formula, family, config)

    y = data.column(formula.response)
    term_ranges = {
        name: (float(np.min(data.column(name))), float(np.max(data.column(name))))
        for name in formula.term_names
    }
    cols = [est.fitted_values for est in state.estimators]
    training_eta = state.alpha + np.sum(np.column_stack(cols), axis=1)
    r = y - family.inverse_link(training_eta)
    # the weighted mean, each product w * r * r as in the deviance
    w = data.column(config.w_train) if config.w_train is not None else np.ones(data.n)
    training_mse = float(np.sum(w * r * r) / np.sum(w))

    return FittedModel(
        formula=formula,
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


def _estimator_payload(est, lo: float, hi: float) -> dict:
    base = {
        "name": est.name,
        "train_min": lo,
        "train_max": hi,
    }
    if est.kind == SMOOTH:
        base["params"] = est.net.params.tolist()
    else:
        base["slope"] = float(est.slope)
        base["x_center"] = float(est.x_center)
    return base


def _trace_payload(trace: LocalScoringTrace) -> list:
    # timestamps are runtime diagnostics; excluding them keeps model files
    # byte-identical across same-seed runs
    return [
        {
            "deviance": rec.deviance,
            "deviance_ratio": rec.deviance_ratio,
            "sweeps": [
                {"losses": list(sweep.losses.values()),
                 "shifts": list(sweep.shifts.values()), "ratio": sweep.ratio}
                for sweep in rec.sweeps
            ],
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


def _canonical(payload, allow_nan: bool = False) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=allow_nan)


def save_model(model: FittedModel, path) -> None:
    """Write the model as checksummed JSON. A non-finite value, which the
    loader would refuse, raises NumericInstabilityError before the file opens."""
    payload = _model_payload(model)
    try:
        text = _canonical(payload)
    except ValueError as exc:
        raise NumericInstabilityError(f"{path}: not saved, the model holds a non-finite value "
                                      f"({exc})") from exc
    doc = {
        "format": FILE_FORMAT,
        "version": FILE_VERSION,
        "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "model": payload,
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_canonical(doc) + "\n")


def load_model(path) -> FittedModel:
    """Read a model file, verifying format, version and content checksum.

    The payload has one rule, so the writer alone defines the format:
    the model built from it, written back, must give exactly its
    canonical text, every number finite. A payload that breaks the rule,
    a row count that is not an integer of at least 2 and a trace
    iteration without sweeps raise ModelFileError.
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
    text = _canonical(payload, allow_nan=True)  # so a stored NaN reads as malformed below
    # the checksum also catches an edit that reads back cleanly, like a changed digit
    if hashlib.sha256(text.encode("utf-8")).hexdigest() != doc.get("sha256"):
        raise ModelFileError(f"{path}: checksum mismatch; file is corrupt")
    try:
        model = _model_from_payload(payload)
        # text, not objects: in Python True == 1 == 1.0
        if _canonical(_model_payload(model)) != text:
            raise ModelFileError("the payload differs from what its model writes back")
    # what reading a payload the writer did not write can raise: missing keys,
    # wrong types, float(inf) overflow, a non-finite number written back
    except (LookupError, TypeError, ValueError, AttributeError, OverflowError,
            GannetError) as exc:
        raise ModelFileError(
            f"{path}: malformed model file ({type(exc).__name__}: {exc})"
        ) from exc
    return model


def _model_from_payload(payload: dict) -> FittedModel:
    """The model a payload describes, read as `fit` builds it; `load_model`
    checks it by writing it back. Each term's offset is its centering shift
    in the final sweep."""
    config = FitConfig(**payload["config"])
    formula = parse_formula(payload["formula"])
    n = payload["n"]
    # n writes back as stored, so it needs its own check; 2 is the fewest rows fit accepts
    if isinstance(n, bool) or not isinstance(n, int) or n < 2:
        raise ModelFileError(f"n must be an integer >= 2, got {n!r}")
    names = formula.term_names
    iterations = []
    for rp in payload["trace"]:
        # an iteration without sweeps writes back as stored, but leaves no offsets
        if not rp["sweeps"]:
            raise ModelFileError("a trace iteration has no sweeps")
        sweeps = [Sweep(dict(zip(names, map(float, sp["losses"]), strict=True)),
                        dict(zip(names, map(float, sp["shifts"]), strict=True)),
                        None if sp["ratio"] is None else float(sp["ratio"]), None)
                  for sp in rp["sweeps"]]
        iterations.append(IterationRecord(float(rp["deviance"]), float(rp["deviance_ratio"]),
                                          sweeps))
    shifts = iterations[-1].sweeps[-1].shifts
    estimators, term_ranges = [], {}
    for j, (term, tp) in enumerate(zip(formula.terms, payload["terms"], strict=True)):
        est = make_estimator(term, config, j, 0)
        if term.kind == SMOOTH:
            est.net.params[:] = tp["params"]
        else:
            est.slope, est.x_center = float(tp["slope"]), float(tp["x_center"])
        est.offset = shifts[term.name]
        estimators.append(est)
        term_ranges[term.name] = (float(tp["train_min"]), float(tp["train_max"]))
    return FittedModel(
        formula=formula,
        alpha=float(payload["alpha"]),
        estimators=estimators,
        trace=LocalScoringTrace(iterations),
        config=config,
        n=n,
        training_mse=float(payload["training_mse"]),
        training_eta=None,
        term_ranges=term_ranges,
    )
