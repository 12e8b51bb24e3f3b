from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gannet.backfitting import (
    BackfitState,
    LinearTermEstimator,
    SmoothTermEstimator,
    backfit,
    center_term,
    fitted_change_ratio,
    make_estimator,
    partial_residuals,
)
from gannet.config import FitConfig
from gannet.exceptions import DegenerateDataError
from gannet.formula import Term, parse_formula


def small_config(**kw):
    defaults = dict(num_units=(16,), seed=3, verbose=0, learning_rate=0.01)
    defaults.update(kw)
    return FitConfig(**defaults)


def linear_estimator(name="x"):
    return LinearTermEstimator(name, small_config(), 0, 0)


class TestPartialResiduals:
    def test_zero_estimators_return_z(self):
        z = np.array([1.0, 2.0, 3.0])
        ests = [make_estimator(Term("a", "smooth"), small_config(), 0, 3)]
        np.testing.assert_array_equal(partial_residuals(z, 0.0, ests, 0), z)

    def test_single_term_subtracts_alpha(self):
        z = np.array([5.0, 6.0])
        ests = [make_estimator(Term("a", "linear"), small_config(), 0, 2)]
        np.testing.assert_array_equal(partial_residuals(z, 2.0, ests, 0), z - 2.0)

    def test_two_terms_by_hand(self):
        z = np.array([10.0, 20.0, 30.0])
        e1, e2 = linear_estimator("a"), linear_estimator("b")
        e1.fitted_values = np.array([1.0, 2.0, 3.0])
        e2.fitted_values = np.array([0.5, 0.5, 0.5])
        r = partial_residuals(z, 4.0, [e1, e2], 0)
        np.testing.assert_array_equal(r, z - 4.0 - e2.fitted_values)
        r = partial_residuals(z, 4.0, [e1, e2], 1)
        np.testing.assert_array_equal(r, z - 4.0 - e1.fitted_values)


class TestCenterTerm:
    def test_arithmetic(self):
        est = linear_estimator()
        est.fitted_values = np.array([1.0, 2.0, 3.0])
        shift = center_term(est)
        assert shift == 2.0
        np.testing.assert_array_equal(est.fitted_values, [-1.0, 0.0, 1.0])
        assert est.offset == 2.0

    def test_idempotent(self):
        est = linear_estimator()
        est.fitted_values = np.array([-1.0, 0.0, 1.0])
        est.offset = 5.0
        shift = center_term(est)
        assert shift == 0.0
        assert est.offset == 5.0

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50))
    def test_mean_after_centering_tiny(self, values):
        est = linear_estimator()
        est.fitted_values = np.array(values, dtype=np.float64)
        center_term(est)
        scale = max(1.0, float(np.max(np.abs(values))) if values else 1.0)
        assert abs(est.fitted_values.mean()) < 1e-12 * scale


class TestLinearTerm:
    def test_exact_linear_data(self):
        est = linear_estimator()
        x = np.linspace(-3, 3, 20)
        est.fit(x, 3.0 * x, np.ones(20), small_config())
        assert est.slope == pytest.approx(3.0, rel=1e-12)

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            n = 20
            x = rng.normal(0, 2, n)
            r = rng.normal(0, 1, n)
            w = rng.uniform(0.05, 3.0, n)
            est = linear_estimator()
            est.fit(x, r, w, small_config())
            # independent weighted normal-equations solve for [intercept, slope]
            design = np.column_stack([np.ones(n), x])
            lhs = design.T @ (w[:, None] * design)
            rhs = design.T @ (w * r)
            slope = np.linalg.solve(lhs, rhs)[1]
            assert abs(est.slope - slope) <= 1e-10 * max(1.0, abs(slope))

    def test_orthogonal_residuals_give_zero_slope(self):
        est = linear_estimator()
        x = np.array([-1.0, 1.0, -1.0, 1.0])
        r = np.array([1.0, 1.0, -1.0, -1.0])  # weighted cov with x is 0
        est.fit(x, r, np.ones(4), small_config())
        assert est.slope == pytest.approx(0.0, abs=1e-15)

    def test_constant_covariate_rejected(self):
        est = linear_estimator()
        with pytest.raises(DegenerateDataError, match="x"):
            est.fit(np.ones(10), np.arange(10.0), np.ones(10), small_config())

    def test_prediction_uses_center_and_offset(self):
        est = linear_estimator()
        x = np.array([0.0, 2.0, 4.0])
        est.fit(x, 2.0 * x, np.ones(3), small_config())
        center_term(est)
        # fitted values reproduce exactly on the training inputs
        np.testing.assert_allclose(est.predict(x), est.fitted_values, atol=1e-12)


class TestSmoothTerm:
    def test_null_signal_stays_small(self):
        cfg = small_config()
        est = SmoothTermEstimator("x", cfg, 0, 64)
        x = np.linspace(-2, 2, 64)
        est.fit(x, np.zeros(64), np.ones(64), cfg)
        center_term(est)
        assert np.max(np.abs(est.fitted_values)) < 0.5

    def test_recovers_linear_target(self):
        cfg = small_config(num_units=(32,), learning_rate=0.01, batch_size=64)
        n = 512
        x = np.random.default_rng(0).uniform(-2.5, 2.5, n)
        est = SmoothTermEstimator("x", cfg, 0, n)
        r = 2.0 * x
        for _ in range(120):
            est.fit(x, r, np.ones(n), cfg)
            center_term(est)
        grid = np.linspace(-2.4, 2.4, 50)
        target = 2.0 * grid - np.mean(2.0 * x)
        assert np.max(np.abs(est.predict(grid) - target)) < 0.1

    def test_recovers_parabola(self):
        cfg = small_config(num_units=(32,), learning_rate=0.01, batch_size=64)
        n = 1024
        x = np.random.default_rng(1).uniform(-2.5, 2.5, n)
        est = SmoothTermEstimator("x", cfg, 0, n)
        r = x**2
        for _ in range(200):
            est.fit(x, r, np.ones(n), cfg)
            center_term(est)
        grid = np.linspace(-2.5, 2.5, 50)
        target = grid**2 - np.mean(x**2)
        assert np.max(np.abs(est.predict(grid) - target)) < 0.25


class TestChangeRatio:
    def test_plain_ratio(self):
        prev = [np.array([1.0, 2.0])]
        curr = [np.array([1.5, 2.0])]
        assert fitted_change_ratio(prev, curr) == pytest.approx(0.25 / 5.0)

    def test_zero_denominator_with_change(self):
        assert fitted_change_ratio([np.zeros(3)], [np.ones(3)]) is None

    def test_no_change_at_all(self):
        assert fitted_change_ratio([np.zeros(3)], [np.zeros(3)]) == 0.0


class TestBackfit:
    def run_backfit(self, z, x_cols, formula_src, cfg, w=None):
        formula = parse_formula(formula_src)
        n = len(z)
        ests = [make_estimator(t, cfg, j, n) for j, t in enumerate(formula.terms)]
        state = BackfitState(alpha=float(np.mean(z)), estimators=ests)
        w = np.ones(n) if w is None else w
        return backfit(state, z, w, x_cols, cfg)

    def test_null_model_converges_fast(self):
        cfg = small_config()
        n = 100
        x = np.linspace(-1, 1, n)
        z = np.full(n, 5.0)
        state = self.run_backfit(z, {"x": x}, "z ~ x", cfg)
        assert state.sweeps[-1].ratio < cfg.bf_threshold
        assert len(state.sweeps) <= 2
        assert np.max(np.abs(state.estimators[0].fitted_values)) < 1e-12

    def test_first_sweep_skips_zero_denominator(self):
        cfg = small_config(max_iter_backfitting=1)
        n = 64
        rng = np.random.default_rng(5)
        x = rng.uniform(-1, 1, n)
        z = np.sin(x) + 1.0
        state = self.run_backfit(z, {"x": x}, "z ~ s(x)", cfg)
        assert [sweep.ratio for sweep in state.sweeps] == [None]

    def test_terminates_within_cap(self):
        cfg = small_config(max_iter_backfitting=4, bf_threshold=1e-12)
        n = 128
        rng = np.random.default_rng(6)
        x = rng.uniform(-1, 1, n)
        z = x**2
        state = self.run_backfit(z, {"x": x}, "z ~ s(x)", cfg)
        assert len(state.sweeps) == 4
        assert state.sweeps[-1].ratio >= cfg.bf_threshold

    def test_centering_invariant_after_backfit(self):
        cfg = small_config()
        rng = np.random.default_rng(8)
        n = 200
        cols = {"a": rng.uniform(-2, 2, n), "b": rng.uniform(-2, 2, n)}
        z = 1.0 + cols["a"] ** 2 + 0.5 * cols["b"]
        state = self.run_backfit(z, cols, "z ~ s(a) + b", cfg)
        for est in state.estimators:
            assert abs(est.fitted_values.mean()) < 1e-8

    def test_gauss_seidel_freshness_two_linear_terms(self):
        # correlated covariates make sequential (Gauss-Seidel) updates
        # distinguishable from simultaneous ones; after one sweep the second
        # slope must be the WLS fit to residuals of the *updated* first term
        cfg = small_config(max_iter_backfitting=1)
        rng = np.random.default_rng(10)
        n = 300
        a = rng.normal(0, 1, n)
        b = 0.6 * a + rng.normal(0, 0.8, n)  # correlated with a
        z = 2.0 + 3.0 * a + 5.0 * b + rng.normal(0, 0.1, n)
        state = self.run_backfit(z, {"a": a, "b": b}, "z ~ a + b", cfg)

        def wls_slope(x, r):
            dx = x - x.mean()
            return float(np.sum(dx * (r - r.mean())) / np.sum(dx * dx))

        alpha = float(np.mean(z))
        s1 = wls_slope(a, z - alpha)
        f1 = s1 * (a - a.mean())
        f1 = f1 - f1.mean()
        s2 = wls_slope(b, z - alpha - f1)
        assert state.estimators[0].slope == pytest.approx(s1, rel=1e-10)
        assert state.estimators[1].slope == pytest.approx(s2, rel=1e-10)

    def test_ratio_matches_independent_recomputation(self):
        cfg = small_config(max_iter_backfitting=3, bf_threshold=1e-12)
        rng = np.random.default_rng(12)
        n = 128
        cols = {"a": rng.uniform(-2, 2, n), "b": rng.uniform(-2, 2, n)}
        z = np.sin(cols["a"]) + 0.3 * cols["b"] + rng.normal(0, 0.05, n)
        state = self.run_backfit(z, cols, "z ~ s(a) + s(b)", cfg)
        # one more sweep on the same state, from copies of the term fits before it
        prev = [est.fitted_values.copy() for est in state.estimators]
        backfit(state, z, np.ones(n), cols, replace(cfg, max_iter_backfitting=1))
        curr = [est.fitted_values for est in state.estimators]
        num = sum(float(np.sum((c - p) ** 2)) for p, c in zip(prev, curr))
        den = sum(float(np.sum(p**2)) for p in prev)
        assert [sweep.ratio for sweep in state.sweeps] == [pytest.approx(num / den, rel=1e-12)]
