"""The three benchmark workloads: inputs, the timed operation, output checks.

Each workload has
  setup(seed, work, samples) -> ctx   builds inputs (timed by the caller),
  run(ctx, samples) -> result          the timed operation,
  check(ctx, result) -> {name: bool}   output checks, run outside any trace,
  counts(ctx, result) -> {name: int}   work counts derivable without tracing,
  fingerprint(result) -> bytes         outputs that must repeat exactly.
`samples` maps an end-to-end metric name to the list of values measured
so far; the worker reports the median of each list.

Why these three (see NOTES.md for the layer-to-metric map):
  gauss-1024  the paper's configuration and the acceptance scenario; nn_core
              does nearly all of the work (batch gradients, full-data
              forward refresh with n x H temporaries).
  binom-deep  two hidden layers, so a one-hidden-layer kernel is bypassed;
              small matmuls make per-step overhead (Adam, finiteness checks)
              a large share; the only workload with IRLS reweighting and
              an exact WLS linear term.
  score       no training in the timed operation: CSV load, model load,
              predict, CSV write and model save through library calls.
"""

from __future__ import annotations

import math
import resource
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import gannet.data
import gannet.model
import gannet.simulation
from gannet import Dataset, FitConfig
from gannet.formula import SMOOTH
from gannet.simulation import ScenarioSpec, true_centered_component

# The acceptance scenario's seed. gauss-1024 always uses it: the acceptance
# bounds it checks hold at this seed only (see NOTES.md for the other seeds
# measured), so the workload seed does not vary this workload's inputs.
SCENARIO_SEED = 4
GAUSS_FORMULA = "y ~ s(x1) + s(x2) + s(x3)"
BINOM_FORMULA = "y ~ s(x1) + s(x2) + x3"
# score draws its held-out rows from a scenario seeded apart from training
HELDOUT_SEED_OFFSET = 1_000_003
# rows on which the loaded and the in-memory model are compared bit for bit
CHECK_ROWS = 4096


@dataclass(frozen=True)
class Timing:
    wall: float
    cpu: float
    sys: float


def timed(fn):
    """Run fn(); return (its result, wall/CPU/system seconds it took)."""
    r0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    out = fn()
    t1 = time.perf_counter()
    r1 = resource.getrusage(resource.RUSAGE_SELF)
    sys_s = r1.ru_stime - r0.ru_stime
    return out, Timing(t1 - t0, r1.ru_utime - r0.ru_utime + sys_s, sys_s)


def fit_work(model) -> tuple[int, int, int, int]:
    """(sweeps, local-scoring iterations, Adam steps, Adam-trained rows) of a fit.

    Every batch has a positive weight sum for both families, so each
    batch of each epoch is one Adam step over its rows.
    """
    sweeps = sum(
        max(len(losses) for losses in rec.per_term_epoch_losses.values())
        for rec in model.trace.iterations
    )
    smooth = sum(est.kind == SMOOTH for est in model.estimators)
    epochs = sweeps * smooth * model.config.epochs_per_sweep
    steps = epochs * math.ceil(model.n / model.config.batch_size)
    return sweeps, len(model.trace.iterations), steps, epochs * model.n


def record_fit(samples, model, timing: Timing) -> None:
    samples["fit_s"].append(timing.wall)
    samples["fit_cpu_s"].append(timing.cpu)
    samples["train_rows_per_s"].append(fit_work(model)[3] / timing.wall)


def record_score(samples, rows: int, seconds: float, loss: float) -> None:
    samples["score_s"].append(seconds)
    samples["score_rows_per_s"].append(rows / seconds)
    samples["heldout_loss"].append(loss)


def fit_counts(model) -> dict[str, int]:
    sweeps, iterations, steps, _ = fit_work(model)
    return {"sweeps": sweeps, "local_scoring.iterations": iterations, "adam_apply.calls": steps}


def mean_binomial_deviance(y: np.ndarray, p: np.ndarray) -> float:
    return float(-2.0 * np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


@dataclass(frozen=True)
class FitResult:
    model: object
    heldout_pred: np.ndarray
    heldout_loss: float
    op_s: float


class FitWorkload:
    """Operation: fit ctx["train"], then score the model on ctx["test"].

    Held-out scoring is short next to the fit, so it is timed
    `score_repeats` times and the median recorded; the count is fixed, not
    timed, so that forward.rows repeats exactly.
    """

    formula: str
    score_repeats: int

    def heldout_loss(self, y: np.ndarray, pred: np.ndarray) -> float:
        raise NotImplementedError

    def run(self, ctx, samples) -> FitResult:
        model, timing = timed(lambda: gannet.model.fit(ctx["train"], self.formula, ctx["config"]))
        record_fit(samples, model, timing)
        test = ctx["test"]
        times = []
        for _ in range(self.score_repeats):
            (pred, loss), t = timed(lambda: self._score(model, test))
            times.append(t.wall)
        record_score(samples, test.n, float(np.median(times)), loss)
        return FitResult(model, pred, loss, timing.wall)

    def _score(self, model, test):
        with warnings.catch_warnings():
            # test rows can sit just outside the training range
            warnings.simplefilter("ignore")
            pred = model.predict(test, type="response")
        return pred, self.heldout_loss(test.column("y"), pred)

    def counts(self, ctx, result: FitResult) -> dict[str, int]:
        return fit_counts(result.model)

    def fingerprint(self, result: FitResult) -> bytes:
        return result.heldout_pred.tobytes()


class GaussWorkload(FitWorkload):
    """Acceptance scenario: y ~ s(x1)+s(x2)+s(x3), 1024 units, 10 sweeps."""

    name = "gauss-1024"
    formula = GAUSS_FORMULA
    score_repeats = 11

    def __init__(self, num_units=(1024,)):
        self.num_units = num_units

    def setup(self, seed, work: Path, samples):
        spec = ScenarioSpec(seed=SCENARIO_SEED)
        train, test, _, _ = gannet.simulation.generate_scenario(spec)
        config = FitConfig(num_units=self.num_units, seed=SCENARIO_SEED, verbose=0)
        return {"spec": spec, "train": train, "test": test, "config": config}

    def heldout_loss(self, y, pred) -> float:
        return float(np.mean((y - pred) ** 2))

    def check(self, ctx, result: FitResult) -> dict[str, bool]:
        model, spec = result.model, ctx["spec"]
        curve_error = 0.0
        for j, name in enumerate(model.formula.term_names):
            lo, hi = model.term_ranges[name]
            grid = np.linspace(lo, hi, 200)
            err = np.abs(model.terms[name].predict(grid) - true_centered_component(spec, j, grid))
            curve_error = max(curve_error, float(np.max(err)))
        return {
            "alpha_in_2.15_2.35": 2.15 <= model.alpha <= 2.35,
            "train_mse_in_0.98_1.15": 0.98 <= model.training_mse <= 1.15,
            "test_mse_in_0.98_1.20": 0.98 <= result.heldout_loss <= 1.20,
            "max_curve_error_below_0.25": curve_error < 0.25,
        }


def binomial_data(seed: int, n: int) -> tuple[Dataset, Dataset]:
    """x1, x2 ~ U[-3,3], x3 ~ N(0,1), logit = 1.5 sin x1 + 0.5 x2^2 - 1.5 + 0.8 x3.

    Split 80/20 into (train, test) by a seeded Bernoulli mask.
    """
    rng = np.random.default_rng([seed, 2505])
    x1 = rng.uniform(-3.0, 3.0, n)
    x2 = rng.uniform(-3.0, 3.0, n)
    x3 = rng.normal(0.0, 1.0, n)
    logit = 1.5 * np.sin(x1) + 0.5 * x2**2 - 1.5 + 0.8 * x3
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-logit))).astype(np.float64)
    in_train = rng.random(n) < 0.8
    data = Dataset({"x1": x1, "x2": x2, "x3": x3, "y": y})
    return data.take(in_train), data.take(~in_train)


class BinomWorkload(FitWorkload):
    """Binomial fit with two hidden layers of 64 units and one linear term.

    Two local-scoring iterations of 10 sweeps each: the sweep stopping rule
    is switched off (threshold 1e-12), because it otherwise stops some seeds'
    second iteration after 3 sweeps and fit_s would then measure a seed's
    convergence rather than the speed of the code.
    """

    name = "binom-deep"
    formula = BINOM_FORMULA
    score_repeats = 51

    def __init__(self, n=30_000, num_units=(64, 64)):
        self.n = n
        self.num_units = num_units

    def setup(self, seed, work: Path, samples):
        train, test = binomial_data(seed, self.n)
        config = FitConfig(
            num_units=self.num_units,
            family="binomial",
            bf_threshold=1e-12,
            max_iter_ls=2,
            seed=seed,
            verbose=0,
        )
        return {"train": train, "test": test, "config": config}

    def heldout_loss(self, y, pred) -> float:
        return mean_binomial_deviance(y, pred)

    def check(self, ctx, result: FitResult) -> dict[str, bool]:
        y_train = ctx["train"].column("y")
        y_test = ctx["test"].column("y")
        null = mean_binomial_deviance(y_test, np.full(y_test.shape, np.mean(y_train)))
        return {
            "predictions_finite": bool(np.all(np.isfinite(result.heldout_pred))),
            "deviance_below_intercept_only": result.heldout_loss < null,
        }


@dataclass(frozen=True)
class ScoreResult:
    data: Dataset
    model: object
    response: np.ndarray
    terms: np.ndarray
    op_s: float


class ScoreWorkload:
    """The `gannet predict` path through library calls, on held-out rows.

    Set-up fits the gauss-1024 model (the acceptance scenario) for one
    sweep and saves it, and writes held-out rows drawn from the workload
    seed as CSV. The model does not depend on the seed: a one-sweep fit's
    quality varies from seed to seed by more than the heldout_loss bound.
    The timed operation reads both back, predicts the response and the
    terms, writes the predictions as CSV and saves the loaded model again.
    """

    name = "score"

    def __init__(self, train_n=30625, heldout_n=100_000, num_units=(1024,)):
        self.train_n = train_n
        self.heldout_n = heldout_n
        self.num_units = num_units

    def setup(self, seed, work: Path, samples):
        spec = ScenarioSpec(n=self.train_n, seed=SCENARIO_SEED)
        train, _, _, _ = gannet.simulation.generate_scenario(spec)
        spec = ScenarioSpec(n=self.heldout_n, seed=seed + HELDOUT_SEED_OFFSET)
        parts = gannet.simulation.generate_scenario(spec)[:2]
        heldout = Dataset({c: np.concatenate([p.column(c) for p in parts]) for c in parts[0].names()})
        config = FitConfig(
            num_units=self.num_units, max_iter_backfitting=1, seed=SCENARIO_SEED, verbose=0
        )
        model, timing = timed(lambda: gannet.model.fit(train, GAUSS_FORMULA, config))
        record_fit(samples, model, timing)
        model_path = work / "score-model.json"
        heldout_path = work / "score-heldout.csv"
        gannet.model.save_model(model, model_path)
        heldout.to_csv(heldout_path)
        return {
            "model": model,
            "heldout": heldout,
            "model_path": model_path,
            "heldout_path": heldout_path,
            "pred_path": work / "score-pred.csv",
            "resaved_path": work / "score-model-resaved.json",
        }

    def run(self, ctx, samples) -> ScoreResult:
        (data, model, response, terms), timing = timed(lambda: self._score(ctx))
        loss = float(np.mean((data.column("y") - response) ** 2))
        record_score(samples, data.n, timing.wall, loss)
        return ScoreResult(data, model, response, terms, timing.wall)

    def _score(self, ctx):
        data = gannet.data.Dataset.from_csv(ctx["heldout_path"])
        model = gannet.model.load_model(ctx["model_path"])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            response = model.predict(data, type="response")
            terms = model.predict(data, type="terms")
        names = list(model.formula.term_names)
        gannet.data.write_csv(ctx["pred_path"], ["response", *names], [response, *terms.T])
        gannet.model.save_model(model, ctx["resaved_path"])
        return data, model, response, terms

    def check(self, ctx, result: ScoreResult) -> dict[str, bool]:
        loaded, original = result.model, ctx["model"]
        sub = result.data.take(np.arange(min(CHECK_ROWS, result.data.n)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            same = all(
                np.array_equal(loaded.predict(sub, type=t), original.predict(sub, type=t))
                for t in ("response", "terms")
            )
        link = loaded.family.link(result.response)
        additive = np.abs(loaded.alpha + result.terms.sum(axis=1) - link)
        heldout = ctx["heldout"]
        return {
            "csv_round_trip_exact": all(
                np.array_equal(result.data.column(c), heldout.column(c)) for c in heldout.names()
            ),
            "loaded_predictions_bit_identical": same,
            "alpha_plus_terms_equals_link_1e-12": bool(
                np.all(additive <= 1e-12 * np.maximum(1.0, np.abs(link)))
            ),
            "resaved_file_byte_identical": (
                ctx["model_path"].read_bytes() == ctx["resaved_path"].read_bytes()
            ),
        }

    def counts(self, ctx, result: ScoreResult) -> dict[str, int]:
        return {"model.file_bytes": ctx["resaved_path"].stat().st_size}

    def fingerprint(self, result: ScoreResult) -> bytes:
        return result.response.tobytes() + result.terms.tobytes()


def make_workloads(smoke: bool = False) -> dict:
    """The workloads by name; smoke=True gives toy sizes for quick tests."""
    if smoke:
        workloads = [
            GaussWorkload(num_units=(32,)),
            BinomWorkload(n=3_000, num_units=(8, 8)),
            ScoreWorkload(train_n=3_000, heldout_n=5_000, num_units=(32,)),
        ]
    else:
        workloads = [GaussWorkload(), BinomWorkload(), ScoreWorkload()]
    return {w.name: w for w in workloads}
