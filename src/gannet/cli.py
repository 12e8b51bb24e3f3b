"""Command-line front end: train, predict, summary, partial-effects, simulate.

The `train` fit flags are generated from FitConfig's fields and the
`simulate` flags from ScenarioSpec's (dashes for underscores), taking
type, default and help from the dataclass, so a flag and its setting
cannot disagree; a tuple field takes a comma list. Every error path
prints one `gannet: error: ...` line to stderr and exits 2 for
configuration/input problems or 1 for runtime failures. A warning, such
as predicting outside a term's training range, prints one
`gannet: warning: ...` line and leaves the exit code alone.
"""

from __future__ import annotations

import argparse
import os
import sys
import typing
import warnings
from dataclasses import MISSING, fields

import numpy as np

from .config import FitConfig, unwrap_optional
from .data import Dataset, write_csv
from .exceptions import (
    ConfigError,
    DataValidationError,
    FormulaError,
    GannetError,
    ModelFileError,
)
from .formula import parse_formula
from .model import PREDICT_TYPES, fit, fit_columns, load_model, save_model, summarize
from .simulation import ScenarioSpec, generate_scenario
from .svg import line_chart, spaced


def _parse_name_list(text: str) -> list[str]:
    names = [tok.strip() for tok in text.split(",") if tok.strip()]
    if not names:
        raise ConfigError("expected a comma-separated list of term names")
    return names


def _add_field_flags(p: argparse.ArgumentParser, settings: type) -> None:
    """One flag per field of a settings dataclass, with its type, default and help.

    `X | None` parses as X; a tuple field arrives as text and is split by
    `_from_args`, because a ConfigError raised inside argparse escapes main.
    """
    hints = typing.get_type_hints(settings)
    for f in fields(settings):
        flag, kind = "--" + f.name.replace("_", "-"), unwrap_optional(hints[f.name])
        if f.default is MISSING:
            p.add_argument(flag, required=True, help=f.metadata["help"])
        else:
            p.add_argument(flag, type=kind if kind in (int, float) else str, default=f.default,
                           help=f.metadata["help"])


def _from_args(settings: type, args):
    """The settings dataclass built from its flags; a tuple field takes a comma list."""
    values = {f.name: getattr(args, f.name) for f in fields(settings)}
    for name, hint in typing.get_type_hints(settings).items():
        text = values[name]
        # a tuple field given on the command line is still text; its default is a tuple
        if typing.get_origin(hint) is tuple and isinstance(text, str):
            item = typing.get_args(hint)[0]
            try:
                values[name] = tuple(item(tok.strip()) for tok in text.split(",") if tok.strip())
            except ValueError:
                raise ConfigError(f"{name} expects a comma list of {item.__name__}, got {text!r}")
    return settings(**values)


def cmd_train(args) -> int:
    config = _from_args(FitConfig, args)
    formula = parse_formula(args.formula)
    data = Dataset.from_csv(args.data, columns=fit_columns(formula, config))
    model = fit(data, formula, config)
    save_model(model, args.model_out)
    if args.history_out:
        stamps, terms, epochs, losses = zip(*model.trace.history_rows())
        write_csv(args.history_out, ["timestamp", "model", "epoch", "train_loss"],
                  [stamps, terms, [str(epoch) for epoch in epochs], losses])
    print(model)
    return 0


def cmd_predict(args) -> int:
    model = load_model(args.model)
    terms = _parse_name_list(args.terms) if args.terms else None
    # an unknown term is named before the CSV is read, not reported as a missing column
    needed = model.term_subset(terms if args.type == "terms" else None)
    newdata = Dataset.from_csv(args.data, columns=needed)
    result = model.predict(newdata, type=args.type, terms=terms)
    if args.type == "terms":
        write_csv(args.out, needed, list(result.T))
    else:
        write_csv(args.out, ["prediction"], [result])
    return 0


def cmd_summary(args) -> int:
    model = load_model(args.model)
    print(summarize(model))
    return 0


def cmd_partial_effects(args) -> int:
    model = load_model(args.model)
    names = model.term_subset(_parse_name_list(args.terms) if args.terms else None)
    if args.grid_size < 2:
        raise ConfigError("--grid-size must be >= 2")
    ranges = {}
    if args.data:
        ds = Dataset.from_csv(args.data, columns=names)
        for name in names:
            col = ds.covariate(name)
            if col.size == 0:
                raise DataValidationError(f"{args.data}: no rows for term {name!r}")
            ranges[name] = (float(np.min(col)), float(np.max(col)))
    else:
        ranges = {name: model.term_ranges[name] for name in names}

    term_col: list[str] = []
    x_col: list[float] = []
    f_col: list[float] = []
    for name in names:
        lo, hi = ranges[name]
        grid = spaced(lo, hi, args.grid_size)
        # through predict, so a grid outside the training range warns as there
        fhat = model.predict(Dataset({name: grid}), type="terms", terms=[name])[:, 0]
        term_col += [name] * args.grid_size
        x_col += [float(v) for v in grid]
        f_col += [float(v) for v in fhat]
        if args.svg_dir:
            os.makedirs(args.svg_dir, exist_ok=True)
            chart = line_chart(grid, fhat, title=f"partial effect of {name}", xlabel=name)
            with open(os.path.join(args.svg_dir, f"{name}.svg"), "w", encoding="utf-8") as fh:
                fh.write(chart)
    write_csv(args.out, ["term", "x", "f_hat"], [term_col, x_col, f_col])
    return 0


def cmd_simulate(args) -> int:
    spec = _from_args(ScenarioSpec, args)
    train, test, fs_train, fs_test = generate_scenario(spec)
    os.makedirs(args.out_dir, exist_ok=True)
    train.to_csv(os.path.join(args.out_dir, "train.csv"))
    test.to_csv(os.path.join(args.out_dir, "test.csv"))
    fs_train.to_csv(os.path.join(args.out_dir, "true_terms_train.csv"))
    fs_test.to_csv(os.path.join(args.out_dir, "true_terms_test.csv"))
    print(f"wrote {train.n} train and {test.n} test rows to {args.out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gannet",
        description="fit and inspect interpretable additive neural models",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="fit a model from a CSV file", allow_abbrev=False)
    p.add_argument("--data", required=True, help="training CSV with a header row")
    p.add_argument("--formula", required=True, help='e.g. "y ~ s(x1) + x2"')
    p.add_argument("--model-out", required=True, help="path for the model file")
    p.add_argument("--history-out", default=None, help="optional training-history CSV")
    _add_field_flags(p, FitConfig)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="predict from a saved model", allow_abbrev=False)
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True, help="CSV of new covariate values")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--type", default="link", choices=PREDICT_TYPES)
    p.add_argument("--terms", default=None, help="comma list for type=terms")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("summary", help="print the summary of a saved model", allow_abbrev=False)
    p.add_argument("--model", required=True)
    p.set_defaults(func=cmd_summary)

    p = sub.add_parser("partial-effects", help="export fitted per-term curves",
                       allow_abbrev=False)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True, help="output CSV (term,x,f_hat)")
    p.add_argument("--terms", default=None, help="comma list (default: all terms)")
    p.add_argument("--grid-size", type=int, default=200)
    p.add_argument("--data", default=None,
                   help="optional CSV whose min/max set the grid range")
    p.add_argument("--svg-dir", default=None, help="also write one SVG chart per term")
    p.set_defaults(func=cmd_partial_effects)

    p = sub.add_parser("simulate", help="generate the synthetic benchmark data",
                       allow_abbrev=False)
    p.add_argument("--out-dir", required=True)
    _add_field_flags(p, ScenarioSpec)
    p.set_defaults(func=cmd_simulate)
    return parser


def _print_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"gannet: warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = _print_warning
        try:
            return args.func(args)
        except (ConfigError, FormulaError, DataValidationError, ModelFileError) as exc:
            print(f"gannet: error: {exc}", file=sys.stderr)
            return 2
        except (GannetError, OSError) as exc:
            print(f"gannet: error: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
