import math
from typing import NamedTuple

import numpy as np
import pytest

import gannet.local_scoring
from gannet.config import FitConfig
from gannet.data import Dataset
from gannet.exceptions import DataValidationError, DegenerateDataError
from gannet.families import Binomial, Gaussian
from gannet.formula import parse_formula
from gannet.local_scoring import deviance_ratio, local_scoring
from gannet.model import fit, save_model
from gannet.simulation import generate_binomial_fixture


def cfg(**kw):
    defaults = dict(num_units=(16,), seed=1, verbose=0, learning_rate=0.01)
    defaults.update(kw)
    return FitConfig(**defaults)


class BackfitCall(NamedTuple):
    alpha: float  # the intercept local scoring set before the call
    z: np.ndarray
    w: np.ndarray
    eta_after: np.ndarray  # alpha + sum of the term fits the call left


@pytest.fixture
def backfit_calls(monkeypatch):
    """Every backfit call local scoring makes, in order: the working response
    and weights it was given, and the predictor it left, which the next
    iteration linearizes at."""
    calls = []
    real_backfit = gannet.local_scoring.backfit

    def spy(state, z, w, covariates, config):
        alpha = state.alpha
        result = real_backfit(state, z, w, covariates, config)
        calls.append(BackfitCall(alpha, z, w, state.alpha + state.fitted_sum()))
        return result

    monkeypatch.setattr(gannet.local_scoring, "backfit", spy)
    return calls


def assert_alpha_is_weighted_mean(call):
    assert call.alpha == pytest.approx(float(np.sum(call.w * call.z) / np.sum(call.w)), rel=1e-12)


def assert_logistic_working_quantities(calls, y, clamp):
    """Each call's z, w and alpha against their closed forms at the predictor
    its iteration started from: logit(mean y) first, then the one the
    previous call left."""
    p = float(np.mean(y))
    eta = np.full(len(y), math.log(p / (1.0 - p)))
    # the clamp keeps mu in [c, 1 - c], so every weight mu (1 - mu) is at
    # least c (1 - c), up to the rounding of 1 - (1 - c)
    w_floor = clamp * (1.0 - clamp) * (1.0 - 1e-9)
    for call in calls:
        mu = np.clip(1.0 / (1.0 + np.exp(-eta)), clamp, 1.0 - clamp)
        z = eta + (y - mu) / (mu * (1.0 - mu))
        w = mu * (1.0 - mu)
        np.testing.assert_allclose(call.z, z, atol=1e-12)
        np.testing.assert_allclose(call.w, w, atol=1e-12)
        assert np.all(call.w >= w_floor)
        assert_alpha_is_weighted_mean(call)
        eta = call.eta_after


class TestDevianceRatio:
    def test_arithmetic(self):
        assert deviance_ratio(10.0, 9.0) == pytest.approx(0.1)

    def test_fixed_point(self):
        assert deviance_ratio(7.0, 7.0) == 0.0

    def test_worsening_fit_is_negative(self):
        assert deviance_ratio(4.0, 5.0) == pytest.approx(-0.25)

    def test_zero_previous_counts_as_converged(self):
        assert deviance_ratio(0.0, 3.0) == 0.0


class TestGaussianRun:
    def make_data(self, n=400, seed=5):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-2, 2, n)
        y = 1.5 + np.sin(x) + rng.normal(0, 0.2, n)
        return Dataset({"x": x, "y": y})

    def test_alpha_initialized_to_mean(self):
        data = self.make_data()
        state, _ = local_scoring(
            data, parse_formula("y ~ s(x)"), Gaussian(), cfg(max_iter_backfitting=1)
        )
        # after the single iteration alpha equals the mean of z = y
        assert state.alpha == pytest.approx(float(np.mean(data.column("y"))), rel=1e-12)

    def test_equal_weights_leave_alpha_at_the_mean_bit_for_bit(self):
        # the centered terms' mean is rounding noise, about 1e-17, which the
        # refit would add to an intercept near 0, whose ulps are finer
        rng = np.random.default_rng(5)
        x = rng.uniform(-2, 2, 400)
        y = np.sin(x) + rng.normal(0, 0.2, 400)
        state, _ = local_scoring(Dataset({"x": x, "y": y}), parse_formula("y ~ s(x)"),
                                 Gaussian(), cfg(max_iter_backfitting=3))
        assert state.alpha == float(np.mean(y))

    def test_exactly_one_iteration_regardless_of_thresholds(self, backfit_calls):
        data = self.make_data()
        for ls_threshold in (1e-12, 0.1, 100.0):
            backfit_calls.clear()
            _, trace = local_scoring(
                data,
                parse_formula("y ~ s(x)"),
                Gaussian(),
                cfg(ls_threshold=ls_threshold, max_iter_ls=10),
            )
            assert len(trace.iterations) == 1
            assert len(backfit_calls) == 1

    def test_working_response_is_identity(self, backfit_calls):
        data = self.make_data()
        local_scoring(data, parse_formula("y ~ s(x)"), Gaussian(), cfg())
        (call,) = backfit_calls
        np.testing.assert_array_equal(call.z, data.column("y"))
        np.testing.assert_array_equal(call.w, np.ones(data.n))
        assert_alpha_is_weighted_mean(call)

    def test_constant_response_rejected(self):
        data = Dataset({"x": np.arange(10.0), "y": np.full(10, 3.0)})
        with pytest.raises(DegenerateDataError):
            local_scoring(data, parse_formula("y ~ s(x)"), Gaussian(), cfg())

    def test_non_finite_covariate_rejected(self):
        data = Dataset({"x": np.array([1.0, np.inf, 2.0]), "y": np.array([1.0, 2.0, 3.0])})
        with pytest.raises(DataValidationError):
            local_scoring(data, parse_formula("y ~ s(x)"), Gaussian(), cfg())

    def test_external_weights_multiply(self, backfit_calls):
        n = 300
        rng = np.random.default_rng(9)
        x = rng.uniform(-2, 2, n)
        y = 2.0 * x + rng.normal(0, 0.1, n)
        w = rng.uniform(0.5, 2.0, n)
        data = Dataset({"x": x, "y": y, "wt": w})
        local_scoring(data, parse_formula("y ~ x"), Gaussian(), cfg(w_train="wt"))
        (call,) = backfit_calls
        np.testing.assert_allclose(call.w, w, rtol=1e-15)
        np.testing.assert_array_equal(call.z, y)
        assert_alpha_is_weighted_mean(call)

    def test_bad_weights_rejected(self):
        data = Dataset(
            {"x": np.arange(5.0), "y": np.arange(5.0) + 0.5, "wt": np.zeros(5)}
        )
        with pytest.raises(DataValidationError):
            local_scoring(data, parse_formula("y ~ x"), Gaussian(), cfg(w_train="wt"))


class TestBinomialRun:
    def test_alpha_initialized_to_logit_of_mean(self, backfit_calls):
        n = 200
        rng = np.random.default_rng(2)
        x = rng.uniform(-1, 1, n)
        y = np.zeros(n)
        y[: n // 2] = 1.0  # mean exactly 0.5 -> logit 0
        data = Dataset({"x": x, "y": y})
        local_scoring(
            data,
            parse_formula("y ~ s(x)"),
            Binomial(),
            cfg(max_iter_ls=1, max_iter_backfitting=1),
        )
        (call,) = backfit_calls
        # iteration 1 worked from eta = logit(mean(y)) = 0: mu = 1/2, w = 1/4
        # and z = 0 + (y - 1/2) / (1/4)
        np.testing.assert_allclose(call.z, (y - 0.5) / 0.25, atol=1e-12)
        np.testing.assert_allclose(call.w, 0.25, atol=1e-12)
        assert_alpha_is_weighted_mean(call)
        assert call.alpha == pytest.approx(0.0, abs=1e-12)

    def test_response_validation(self):
        data = Dataset({"x": np.arange(6.0), "y": np.array([0, 1, 2.0, 0, 1, 0])})
        with pytest.raises(DataValidationError):
            local_scoring(data, parse_formula("y ~ s(x)"), Binomial(), cfg())

    def test_deviance_decreases_until_criterion(self):
        data = generate_binomial_fixture(2000, seed=11)
        fam = Binomial()
        _, trace = local_scoring(
            data, parse_formula("y ~ s(x)"), fam, cfg(num_units=(32,))
        )
        devs = [rec.deviance for rec in trace.iterations]
        assert len(devs) >= 2
        assert all(d1 > d2 for d1, d2 in zip(devs, devs[1:]))
        assert trace.iterations[-1].deviance_ratio < 0.1

    def test_iteration_cap_respected(self):
        data = generate_binomial_fixture(500, seed=3)
        _, trace = local_scoring(
            data,
            parse_formula("y ~ s(x)"),
            Binomial(),
            cfg(num_units=(8,), ls_threshold=1e-12, max_iter_ls=4),
        )
        assert len(trace.iterations) <= 4

    def test_working_quantities_match_independent_reevaluation(self, backfit_calls):
        data = generate_binomial_fixture(800, seed=7)
        fam = Binomial()
        _, trace = local_scoring(
            data, parse_formula("y ~ s(x)"), fam, cfg(num_units=(16,), max_iter_ls=3)
        )
        assert len(backfit_calls) == len(trace.iterations)
        assert_logistic_working_quantities(backfit_calls, data.column("y"), fam.mu_clamp)

    def test_clamp_bounds_the_weights_of_separable_data(self, backfit_calls):
        # y = [x > 0] is separable, so the linear fit's |eta| grows every
        # iteration until the clamp holds some means at 1e-5 and 1 - 1e-5
        x = np.random.default_rng(0).uniform(-1, 1, 200)
        y = (x > 0).astype(np.float64)
        fam = Binomial()
        local_scoring(Dataset({"x": x, "y": y}), parse_formula("y ~ x"), fam,
                      cfg(max_iter_ls=8, ls_threshold=1e-12))
        assert len(backfit_calls) == 8
        assert min(call.w.min() for call in backfit_calls) < fam.mu_clamp
        assert_logistic_working_quantities(backfit_calls, y, fam.mu_clamp)

    def test_trace_history_rows_accumulate_epochs(self):
        data = generate_binomial_fixture(500, seed=13)
        _, trace = local_scoring(
            data,
            parse_formula("y ~ s(x)"),
            Binomial(),
            cfg(num_units=(8,), max_iter_ls=2, max_iter_backfitting=2,
                bf_threshold=1e-12, ls_threshold=1e-12),
        )
        rows = trace.history_rows()
        epochs = [epoch for _, _, epoch, _ in rows]
        assert epochs == sorted(epochs)
        assert epochs[0] == 1
        total_sweeps = sum(
            max(len(v) for v in rec.per_term_epoch_losses.values())
            for rec in trace.iterations
        )
        assert epochs[-1] == total_sweeps
        assert all(math.isfinite(loss) for *_, loss in rows)


def weighted_probe(family, seed):
    """400 rows, weight 0 where x < 0: logit 2x for binomial, sin x plus
    noise for gaussian."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2, 2, 400)
    if family == "binomial":
        y = (rng.random(400) < 1.0 / (1.0 + np.exp(-2.0 * x))).astype(np.float64)
    else:
        y = np.sin(x) + rng.normal(0, 0.1, 400)
    return {"x": x, "y": y, "w": (x >= 0).astype(np.float64)}


class TestSampleWeights:
    @pytest.mark.parametrize("family", ["gaussian", "binomial"])
    def test_deviance_and_mse_count_positive_weight_rows_only(self, family):
        columns = weighted_probe(family, 0)
        model = fit(columns, "y ~ s(x)", cfg(family=family, w_train="w"))
        y, w = columns["y"], columns["w"]
        mu = model.predict(type="response")
        keep = w > 0
        dev = model.family.deviance(y[keep], mu[keep], w[keep])
        assert model.trace.iterations[-1].deviance == pytest.approx(dev, rel=1e-12)
        r = y[keep] - mu[keep]
        assert model.training_mse == pytest.approx(np.average(r * r, weights=w[keep]),
                                                   rel=1e-12)

    @pytest.mark.parametrize("family,seed", [("gaussian", 0), *(("binomial", s) for s in range(4))])
    def test_responses_of_zero_weight_rows_do_not_change_the_fit(self, tmp_path, family, seed):
        columns = weighted_probe(family, seed)
        edited = dict(columns, y=columns["y"].copy())
        zero = columns["w"] == 0
        # a binomial response flips; a gaussian one becomes huge, its square
        # beyond the largest float
        edited["y"][zero] = 1.0 - edited["y"][zero] if family == "binomial" else -1.2e191
        for name, data in (("a", columns), ("b", edited)):
            save_model(fit(data, "y ~ s(x)", cfg(family=family, w_train="w", seed=seed)),
                       tmp_path / f"{name}.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def correlated_linear_data():
    """2,000 rows: x1 ~ N(0, 1), x2 = 0.7 x1 + N(0, 1), weights ~ U[0.2, 2],
    a Gaussian response and a binomial one, each linear in x1 and x2."""
    rng = np.random.default_rng(0)
    n = 2000
    x1 = rng.normal(0.0, 1.0, n)
    x2 = 0.7 * x1 + rng.normal(0.0, 1.0, n)
    w = rng.uniform(0.2, 2.0, n)
    y = 1.0 + 0.5 * x1 - 0.8 * x2 + rng.normal(0.0, 1.0, n)
    p = 1.0 / (1.0 + np.exp(-(0.3 + 0.8 * x1 - 0.5 * x2)))
    flips = (rng.random(n) < p).astype(np.float64)
    return {"x1": x1, "x2": x2, "w": w, "y": y, "flips": flips}


class TestLinearOracles:
    """With linear terms only, a converged fit has a closed form: weighted
    backfitting reaches the normal equations (Buja, Hastie & Tibshirani
    1989) and local scoring the logistic-regression MLE. Both need the
    intercept refitted in the cycle, as the terms are centered unweighted."""

    def test_weighted_gaussian_reaches_normal_equations(self):
        d = correlated_linear_data()
        model = fit(d, "y ~ x1 + x2",
                    cfg(w_train="w", max_iter_backfitting=200, bf_threshold=1e-12))
        X = np.column_stack([np.ones(d["y"].size), d["x1"], d["x2"]])
        beta = np.linalg.solve(X.T @ (d["w"][:, None] * X), X.T @ (d["w"] * d["y"]))
        assert np.max(np.abs(model.predict(type="link") - X @ beta)) <= 1e-5

    def test_binomial_reaches_newton_solve(self):
        d = correlated_linear_data()
        model = fit(d, "flips ~ x1 + x2",
                    cfg(family="binomial", max_iter_backfitting=200, bf_threshold=1e-14,
                        max_iter_ls=100, ls_threshold=1e-12))
        X = np.column_stack([np.ones(d["y"].size), d["x1"], d["x2"]])
        y, beta = d["flips"], np.zeros(3)
        for _ in range(50):
            mu = 1.0 / (1.0 + np.exp(-X @ beta))
            beta += np.linalg.solve(X.T @ ((mu * (1.0 - mu))[:, None] * X), X.T @ (y - mu))
        assert np.max(np.abs(model.predict(type="link") - X @ beta)) <= 1e-5
