"""Spans around calls into gannet, recorded from outside the package.

A Tracer rebinds module and class attributes of gannet to wrappers while
it is active and restores the originals on exit, so nothing under src/
changes. Each call through a wrapped attribute becomes one span (name,
start, end, parent, attrs) kept in memory. Span names are
"<layer>.<operation>", where the layer is the gannet module that owns the
function; the metric names derived from them in layer_metrics() do not
depend on how spans are produced, so in-package telemetry can replace
these wrappers later without renaming a metric.

Wrapped attributes are looked up at call time by the package itself
(module globals, class attributes), which is what makes rebinding work:
for example gannet.model.fit calls the module-global local_scoring, and
train_one_epoch calls adam.apply through the AdamState class.
"""

from __future__ import annotations

import functools
import json
import os
import time
from dataclasses import asdict, dataclass, field

import gannet.data
import gannet.local_scoring
import gannet.model
import gannet.nn_core
import gannet.simulation
from gannet.backfitting import LinearTermEstimator, SmoothTermEstimator
from gannet.families import Binomial, Gaussian

FAMILY_METHODS = ("link", "inverse_link", "adjusted_dependent", "irls_weights", "deviance")


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# attrs recorders: (args, kwargs, result) -> dict of counts for the span


def _local_scoring_attrs(args, kwargs, result):
    _, trace = result
    return {"iterations": len(trace.iterations)}


def _backfit_attrs(args, kwargs, result):
    config = _arg(args, kwargs, 4, "config")
    return {
        "sweeps": result.sweep_count,
        "stopped_early": result.sweep_count < config.max_iter_backfitting,
    }


def _forward_attrs(args, kwargs, result):
    net = _arg(args, kwargs, 0, "net")
    rows = len(_arg(args, kwargs, 1, "x"))
    width = max(layer.fan_out for layer in net.layers)
    # the widest (rows, width) float64 activation one call materialises
    return {"rows": rows, "temp_bytes": rows * width * 8}


def _predict_attrs(args, kwargs, result):
    model = args[0]
    newdata = args[1] if len(args) > 1 else kwargs.get("newdata")
    return {"rows": model.n if newdata is None else newdata.n}


def _from_csv_attrs(args, kwargs, result):
    return {"rows": result.n}


def _save_model_attrs(args, kwargs, result):
    return {"file_bytes": os.path.getsize(_arg(args, kwargs, 1, "path"))}


def _targets():
    """(owner, attribute, span name, attrs recorder) for every wrapped call."""
    targets = [
        (gannet.model, "fit", "model.fit", None),
        (gannet.model, "local_scoring", "local_scoring.local_scoring", _local_scoring_attrs),
        (gannet.local_scoring, "backfit", "backfitting.backfit", _backfit_attrs),
        (SmoothTermEstimator, "fit", "backfitting.smooth_fit", None),
        (LinearTermEstimator, "fit", "backfitting.linear_fit", None),
        (gannet.nn_core, "train_one_epoch", "nn_core.train_one_epoch", None),
        (gannet.nn_core.AdamState, "apply", "nn_core.adam_apply", None),
        (gannet.nn_core, "forward", "nn_core.forward", _forward_attrs),
        (gannet.data.Dataset, "from_csv", "data.from_csv", _from_csv_attrs),
        (gannet.data, "write_csv", "data.write_csv", None),
        (gannet.model.FittedModel, "predict", "model.predict", _predict_attrs),
        (gannet.model, "save_model", "model.save_model", _save_model_attrs),
        (gannet.model, "load_model", "model.load_model", None),
        (gannet.simulation, "generate_scenario", "simulation.generate", None),
    ]
    for cls in (Gaussian, Binomial):
        for method in FAMILY_METHODS:
            targets.append((cls, method, f"families.{method}", None))
    return targets


class Tracer:
    """Context manager: while active, every wrapped gannet call is a span.

    Single-threaded by design: the parent of a span is the span open on
    the stack when it starts.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for owner, attr, name, attrs in _targets():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, attrs))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, original, name, attrs):
        if isinstance(original, classmethod):
            return classmethod(self._wrap(original.__func__, name, attrs))

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span_id = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = Span(span_id, name, 0.0, 0.0, parent)
            self.spans.append(span)
            self._stack.append(span_id)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result

        return wrapper

    def write_jsonl(self, path, phase: str) -> None:
        with open(path, "a", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps({"phase": phase, **asdict(span)}) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.duration
    return [span.duration - child_time[span.id] for span in spans]


def layer_metrics(op_spans: list[Span], setup_spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced operation (and one traced set-up).

    Everything comes from op_spans except simulation.generate.s, which
    is set-up work.
    """
    own = self_times(op_spans)
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    for span, s in zip(op_spans, own):
        calls[span.name] = calls.get(span.name, 0) + 1
        total[span.name] = total.get(span.name, 0.0) + span.duration
        self_s[span.name] = self_s.get(span.name, 0.0) + s

    def named(name):
        return [span for span in op_spans if span.name == name]

    def attr_sum(name, key):
        return sum(span.attrs[key] for span in named(name))

    epochs = calls.get("nn_core.train_one_epoch", 0)
    adam_calls = calls.get("nn_core.adam_apply", 0)
    forwards = named("nn_core.forward")
    backfits = named("backfitting.backfit")
    epoch_s = total.get("nn_core.train_one_epoch", 0.0)
    return {
        "train_one_epoch.calls": epochs,
        "train_one_epoch.s": epoch_s,
        "adam_apply.calls": adam_calls,
        "adam_apply.s": total.get("nn_core.adam_apply", 0.0),
        "batch_grad.s": self_s.get("nn_core.train_one_epoch", 0.0),
        "forward.calls": len(forwards),
        "forward.rows": sum(span.attrs["rows"] for span in forwards),
        "forward.s": total.get("nn_core.forward", 0.0),
        "forward.temp_bytes_computed": max((span.attrs["temp_bytes"] for span in forwards), default=0),
        "us_per_adam_step": epoch_s / adam_calls * 1e6 if adam_calls else 0.0,
        "backfit.calls": len(backfits),
        "backfit.s": total.get("backfitting.backfit", 0.0),
        "sweeps": sum(span.attrs["sweeps"] for span in backfits),
        "smooth_fit.s": total.get("backfitting.smooth_fit", 0.0),
        "linear_fit.s": total.get("backfitting.linear_fit", 0.0),
        "backfit.self_s": self_s.get("backfitting.backfit", 0.0),
        "converged_frac": (
            sum(span.attrs["stopped_early"] for span in backfits) / len(backfits) if backfits else 0.0
        ),
        "local_scoring.iterations": attr_sum("local_scoring.local_scoring", "iterations"),
        "local_scoring.self_s": self_s.get("local_scoring.local_scoring", 0.0),
        "families.s": sum(span.duration for span in op_spans if span.name.startswith("families.")),
        "data.from_csv.rows": attr_sum("data.from_csv", "rows"),
        "data.from_csv.s": total.get("data.from_csv", 0.0),
        "data.write_csv.s": total.get("data.write_csv", 0.0),
        "model.save_model.s": total.get("model.save_model", 0.0),
        "model.load_model.s": total.get("model.load_model", 0.0),
        "model.file_bytes": attr_sum("model.save_model", "file_bytes"),
        "model.predict.rows": attr_sum("model.predict", "rows"),
        "model.predict.s": total.get("model.predict", 0.0),
        "simulation.generate.s": sum(
            span.duration for span in setup_spans if span.name == "simulation.generate"
        ),
    }
