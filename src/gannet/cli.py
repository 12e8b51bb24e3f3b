"""Command-line front end: train, predict, summary, partial-effects, simulate.

The `train` fit flags are generated from FitConfig's fields (dashes for
underscores), taking type, default and help from the dataclass, so the
two surfaces cannot disagree. Every error path prints one
`gannet: error: ...` line to stderr and exits 2 for configuration/input
problems or 1 for runtime failures.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import types
import typing
from dataclasses import MISSING, fields

import numpy as np

from .config import FitConfig
from .data import Dataset, write_csv
from .exceptions import (
    ConfigError,
    DataValidationError,
    FormulaError,
    GannetError,
    ModelFileError,
)
from .formula import parse_formula
from .model import fit, load_model, save_model, summarize
from .simulation import ScenarioSpec, generate_scenario
from .svg import line_chart


def _parse_num_units(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise ConfigError(f"--num-units expects integers like '1024' or '256,128', got {text!r}")


def _parse_name_list(text: str) -> list[str]:
    names = [tok.strip() for tok in text.split(",") if tok.strip()]
    if not names:
        raise ConfigError("expected a comma-separated list of term names")
    return names


def _flag_type(hint) -> type:
    # `X | None` parses as X; num_units arrives as text and is parsed after
    # parse_args, because a ConfigError raised inside argparse escapes main
    if isinstance(hint, types.UnionType):
        hint = next(a for a in typing.get_args(hint) if a is not type(None))
    return hint if hint in (int, float) else str


def _add_fit_flags(p: argparse.ArgumentParser) -> None:
    """One flag per FitConfig field, with its type, default and help."""
    hints = typing.get_type_hints(FitConfig)
    for f in fields(FitConfig):
        flag = "--" + f.name.replace("_", "-")
        help_text = f.metadata.get("help")
        if f.default is MISSING:
            p.add_argument(flag, required=True, help=help_text)
        else:
            p.add_argument(flag, type=_flag_type(hints[f.name]), default=f.default,
                           help=help_text)


def _config_from_args(args) -> FitConfig:
    values = {f.name: getattr(args, f.name) for f in fields(FitConfig)}
    values["num_units"] = _parse_num_units(values["num_units"])
    return FitConfig(**values)


def cmd_train(args) -> int:
    config = _config_from_args(args)
    formula = parse_formula(args.formula)
    needed = [formula.response, *formula.term_names]
    if config.w_train is not None:
        needed.append(config.w_train)
    data = Dataset.from_csv(args.data, columns=needed)
    model = fit(data, formula, config)
    save_model(model, args.model_out)
    if args.history_out:
        rows = model.trace.history_rows()
        write_csv(
            args.history_out,
            ["timestamp", "model", "epoch", "train_loss"],
            [
                [ts.strftime("%Y-%m-%d %H:%M:%S") if ts else "" for ts, *_ in rows],
                [term for _, term, *_ in rows],
                [str(epoch) for *_, epoch, _ in rows],
                [loss for *_, loss in rows],
            ],
        )
    print(model)
    return 0


def cmd_predict(args) -> int:
    model = load_model(args.model)
    terms = _parse_name_list(args.terms) if args.terms else None
    if args.type == "terms":
        needed = terms if terms is not None else list(model.terms)
        unknown = [t for t in needed if t not in model.terms]
        if unknown:
            raise DataValidationError(f"unknown term(s) in subset: {', '.join(unknown)}")
    else:
        needed = list(model.formula.term_names)
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
    names = _parse_name_list(args.terms) if args.terms else list(model.terms)
    unknown = [t for t in names if t not in model.terms]
    if unknown:
        raise DataValidationError(f"unknown term(s): {', '.join(unknown)}")
    if args.grid_size < 2:
        raise ConfigError("--grid-size must be >= 2")
    ranges = {}
    if args.data:
        ds = Dataset.from_csv(args.data, columns=names)
        for name in names:
            col = ds.column(name)
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
        grid = np.linspace(lo, hi, args.grid_size)
        fhat = model.terms[name].predict(grid)
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
    spec = ScenarioSpec(
        n=args.n,
        covariate_low=args.low,
        covariate_high=args.high,
        true_functions=tuple(_parse_name_list(args.functions)),
        alpha0=args.alpha,
        noise_mean=args.noise_mean,
        noise_sd=args.noise_sd,
        train_fraction=args.train_fraction,
        seed=args.seed,
    )
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
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="fit a model from a CSV file")
    p.add_argument("--data", required=True, help="training CSV with a header row")
    p.add_argument("--formula", required=True, help='e.g. "y ~ s(x1) + x2"')
    p.add_argument("--model-out", required=True, help="path for the model file")
    p.add_argument("--history-out", default=None, help="optional training-history CSV")
    _add_fit_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="predict from a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True, help="CSV of new covariate values")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--type", default="link", choices=("link", "response", "terms"))
    p.add_argument("--terms", default=None, help="comma list for type=terms")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("summary", help="print the summary of a saved model")
    p.add_argument("--model", required=True)
    p.set_defaults(func=cmd_summary)

    p = sub.add_parser("partial-effects", help="export fitted per-term curves")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True, help="output CSV (term,x,f_hat)")
    p.add_argument("--terms", default=None, help="comma list (default: all terms)")
    p.add_argument("--grid-size", type=int, default=200)
    p.add_argument("--data", default=None,
                   help="optional CSV whose min/max set the grid range")
    p.add_argument("--svg-dir", default=None, help="also write one SVG chart per term")
    p.set_defaults(func=cmd_partial_effects)

    p = sub.add_parser("simulate", help="generate the synthetic benchmark data")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--n", type=int, default=30625)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--train-fraction", type=float, default=0.8)
    p.add_argument("--low", type=float, default=-2.5)
    p.add_argument("--high", type=float, default=2.5)
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument("--noise-mean", type=float, default=0.25)
    p.add_argument("--noise-sd", type=float, default=1.0)
    p.add_argument("--functions", default="square,double,sine")
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(format="%(message)s", level=logging.INFO)
    args = build_parser().parse_args(argv)
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
