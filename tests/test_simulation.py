import re
import warnings

import numpy as np
import pytest

from gannet.exceptions import ConfigError
from gannet.simulation import (
    ScenarioSpec,
    generate_binomial_fixture,
    generate_scenario,
    true_centered_component,
)


class TestScenario:
    def test_default_spec_values(self):
        spec = ScenarioSpec()
        assert spec.n == 30625
        assert (spec.covariate_low, spec.covariate_high) == (-2.5, 2.5)
        assert spec.true_functions == ("square", "double", "sine")
        assert spec.alpha0 == 2.0
        assert (spec.noise_mean, spec.noise_sd) == (0.25, 1.0)
        assert spec.train_fraction == 0.8

    def test_response_mean_near_alpha_plus_noise_mean(self):
        train, test, _, _ = generate_scenario(ScenarioSpec(seed=42))
        y = np.concatenate([train.column("y"), test.column("y")])
        # E[y] = alpha0 + noise_mean; centered terms contribute 0
        se = 3.0 * y.std() / np.sqrt(len(y))
        assert abs(y.mean() - 2.25) < se

    def test_true_terms_centered_by_construction(self):
        spec = ScenarioSpec(n=5000, seed=9)
        train, test, fs_train, fs_test = generate_scenario(spec)
        for name in ("x1", "x2", "x3"):
            full = np.concatenate([fs_train.column(name), fs_test.column(name)])
            assert abs(full.mean()) < 1e-10

    def test_split_is_partition(self):
        spec = ScenarioSpec(n=4000, seed=1)
        train, test, fs_train, fs_test = generate_scenario(spec)
        assert train.n + test.n == 4000
        assert fs_train.n == train.n
        assert fs_test.n == test.n
        assert abs(train.n / 4000 - 0.8) < 0.05

    def test_same_seed_reproduces_bytes(self, tmp_path):
        for run in ("a", "b"):
            train, *_ = generate_scenario(ScenarioSpec(n=500, seed=7))
            train.to_csv(tmp_path / f"{run}.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_noise_distribution(self):
        spec = ScenarioSpec(n=20000, seed=3)
        train, test, fs_train, fs_test = generate_scenario(spec)
        eta0 = spec.alpha0 + sum(
            fs_train.column(n) for n in ("x1", "x2", "x3")
        )
        resid = train.column("y") - eta0
        assert abs(resid.mean() - spec.noise_mean) < 3.0 * spec.noise_sd / np.sqrt(train.n)
        assert abs(resid.std() - spec.noise_sd) < 0.05

    def test_true_component_grid_matches_table(self):
        spec = ScenarioSpec(n=2000, seed=5)
        train, _, fs_train, _ = generate_scenario(spec)
        x1 = train.column("x1")
        expected = true_centered_component(spec, 0, x1)
        np.testing.assert_allclose(fs_train.column("x1"), expected, atol=1e-12)

    def test_validation(self):
        with pytest.raises(ConfigError):
            ScenarioSpec(train_fraction=1.5)
        with pytest.raises(ConfigError):
            ScenarioSpec(true_functions=("cube",))
        with pytest.raises(ConfigError):
            ScenarioSpec(covariate_low=2.0, covariate_high=-2.0)

    @pytest.mark.parametrize("field,value", [
        ("covariate_low", -np.inf), ("covariate_high", np.inf), ("covariate_high", np.nan),
        ("alpha0", np.nan), ("noise_mean", np.inf), ("noise_sd", np.nan), ("seed", -1),
    ])
    def test_non_finite_or_negative_seed_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            ScenarioSpec(**{field: value})

    @pytest.mark.parametrize("kwargs,message", [
        # the square overflows, then inf - inf is NaN
        ({"covariate_low": 1e307, "covariate_high": 1.5e307},
         "'square' of x1 is not finite with covariate_low=1e+307 and covariate_high=1.5e+307"),
        # the sum of 2e308 overflows to inf; the mean of 2x overflows
        ({"alpha0": 1e308, "noise_mean": 1e308}, "response y is not finite with alpha0=1e+308"),
        ({"noise_sd": 1e308}, "noise_sd=1e+308"),
        ({"covariate_low": 8e307, "covariate_high": 8.9e307, "true_functions": ("double",)},
         "'double' of x1 is not finite"),
    ], ids=["square", "intercept", "noise", "centering"])
    def test_overflowing_scenario_is_a_config_error(self, kwargs, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy overflow warning either
            with pytest.raises(ConfigError, match=re.escape(message)):
                generate_scenario(ScenarioSpec(n=1000, **kwargs))

    @pytest.mark.parametrize("kwargs,message", [
        ({"n": 2.5}, "n must be an integer"),
        ({"n": True}, "n must be an integer"),
        ({"seed": 1.5}, "seed must be an integer"),
        ({"covariate_low": "a"}, "covariate_low must be a finite real number"),
        ({"train_fraction": "0.5"}, "train_fraction must be a finite real number"),
        ({"true_functions": ("sine", 3)}, "true_functions must be a string"),
        ({"true_functions": ()}, "true_functions must name one or more of"),
    ], ids=repr)
    def test_wrong_type_or_empty_rejected(self, kwargs, message):
        # a ConfigError naming the setting, never a numpy TypeError later on
        with pytest.raises(ConfigError, match=message):
            ScenarioSpec(**kwargs)

    def test_numpy_integers_accepted(self):
        spec = ScenarioSpec(n=np.int64(100), seed=np.int64(3))
        assert (spec.n, spec.seed) == (100, 3)
        assert type(spec.n) is int and type(spec.seed) is int

    def test_single_true_function_name(self):
        spec = ScenarioSpec(n=50, true_functions="sine")
        assert spec.true_functions == ("sine",)
        train, *_ = generate_scenario(spec)
        assert train.names() == ["x1", "y"]


class TestBinomialFixture:
    def test_probability_at_origin(self):
        # p = sigmoid(1.5 sin x + 0.5 x) = 0.5 exactly at x = 0
        assert 1.0 / (1.0 + np.exp(-(1.5 * np.sin(0.0) + 0.5 * 0.0))) == 0.5

    def test_columns_and_probability_formula(self):
        data = generate_binomial_fixture(1000, seed=2)
        assert set(data.names()) == {"x", "y", "p"}
        x, p = data.column("x"), data.column("p")
        np.testing.assert_allclose(
            p, 1.0 / (1.0 + np.exp(-(1.5 * np.sin(x) + 0.5 * x))), atol=1e-12
        )
        assert np.all((x >= -3.0) & (x <= 3.0))
        assert set(np.unique(data.column("y"))) <= {0.0, 1.0}

    def test_response_mean_matches_probabilities(self):
        data = generate_binomial_fixture(20000, seed=4)
        p = data.column("p")
        se = np.sqrt(np.sum(p * (1 - p))) / data.n
        assert abs(data.column("y").mean() - p.mean()) < 3.0 * se

    def test_reproducible(self, tmp_path):
        for run in ("a", "b"):
            generate_binomial_fixture(300, seed=6).to_csv(tmp_path / f"{run}.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_minimum_size(self):
        with pytest.raises(ConfigError):
            generate_binomial_fixture(50, seed=1)
