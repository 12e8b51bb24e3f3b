import math

import numpy as np
import pytest

from gannet.exceptions import ConfigError, DataValidationError
from gannet.families import Binomial, Gaussian, make_family


class TestGaussian:
    fam = Gaussian()

    def test_identity_link(self):
        np.testing.assert_array_equal(self.fam.link(np.array([3.7])), [3.7])
        np.testing.assert_array_equal(self.fam.inverse_link(np.array([-1.79])), [-1.79])

    def test_adjusted_dependent_is_response(self):
        y = np.array([1.0, -2.0, 0.5])
        eta = np.array([9.0, 9.0, 9.0])
        mu = eta.copy()
        np.testing.assert_array_equal(self.fam.adjusted_dependent(y, eta, mu), y)

    def test_unit_weights(self):
        np.testing.assert_array_equal(
            self.fam.irls_weights(np.zeros(5)), np.ones(5)
        )

    def test_deviance_perfect_fit(self):
        y = np.array([0.3, -1.2, 4.0])
        assert self.fam.deviance(y, y) == 0.0

    def test_deviance_sum_of_squares(self):
        assert self.fam.deviance(np.array([1.0, 2.0]), np.array([0.0, 0.0])) == 5.0


class TestBinomial:
    fam = Binomial()

    def test_logit_values(self):
        np.testing.assert_allclose(self.fam.link(np.array([0.5])), [0.0], atol=1e-15)
        np.testing.assert_allclose(
            self.fam.link(np.array([0.8])), [math.log(4.0)], rtol=1e-12
        )

    def test_sigmoid_at_zero(self):
        np.testing.assert_allclose(self.fam.inverse_link(np.array([0.0])), [0.5])

    def test_saturation_clamps(self):
        mu = self.fam.inverse_link(np.array([40.0, -40.0]))
        np.testing.assert_array_equal(mu, [1.0 - self.fam.mu_clamp, self.fam.mu_clamp])

    def test_adjusted_dependent_value(self):
        z = self.fam.adjusted_dependent(
            np.array([1.0]), np.array([0.0]), np.array([0.5])
        )
        np.testing.assert_allclose(z, [2.0], rtol=1e-15)

    def test_adjusted_dependent_zero_residual(self):
        mu = np.array([0.3, 0.7])
        eta = self.fam.link(mu)
        np.testing.assert_allclose(
            self.fam.adjusted_dependent(mu, eta, mu), eta, rtol=1e-12
        )

    def test_weights(self):
        np.testing.assert_allclose(
            self.fam.irls_weights(np.array([0.5, 0.9])), [0.25, 0.09], rtol=1e-15
        )

    def test_deviance_single_obs(self):
        dev = self.fam.deviance(np.array([1.0]), np.array([0.5]))
        assert dev == pytest.approx(-2.0 * math.log(0.5), rel=1e-12)

    def test_deviance_rejects_non_binary(self):
        with pytest.raises(DataValidationError):
            self.fam.deviance(np.array([2.0]), np.array([0.5]))

    def test_validate_response(self):
        self.fam.validate_response(np.array([0.0, 1.0, 1.0]))
        with pytest.raises(DataValidationError):
            self.fam.validate_response(np.array([0.0, 0.5]))

    def test_deviance_minimized_at_clamp_boundary(self):
        grid = np.linspace(self.fam.mu_clamp, 1.0 - self.fam.mu_clamp, 401)
        dev_one = np.array([self.fam.deviance(np.array([1.0]), np.array([m])) for m in grid])
        dev_zero = np.array([self.fam.deviance(np.array([0.0]), np.array([m])) for m in grid])
        assert dev_one.argmin() == len(grid) - 1  # y=1: best mu is the upper clamp
        assert dev_zero.argmin() == 0             # y=0: best mu is the lower clamp

    def test_deviance_finite_after_clamping(self):
        rng = np.random.default_rng(3)
        y = (rng.random(200) < 0.5).astype(float)
        eta = rng.normal(0.0, 50.0, 200)  # saturates the sigmoid
        mu = self.fam.inverse_link(eta)
        assert math.isfinite(self.fam.deviance(y, mu))
        assert np.all(np.isfinite(self.fam.adjusted_dependent(y, eta, mu)))
        assert np.all(self.fam.irls_weights(mu) > 0)


class TestLinkInverse:
    def test_mutual_inverses_gaussian(self):
        fam = Gaussian()
        mu = np.linspace(-100, 100, 501)
        np.testing.assert_allclose(fam.inverse_link(fam.link(mu)), mu, atol=1e-12)

    def test_mutual_inverses_binomial(self):
        fam = Binomial()
        mu = np.linspace(fam.mu_clamp, 1.0 - fam.mu_clamp, 501)
        np.testing.assert_allclose(fam.inverse_link(fam.link(mu)), mu, atol=1e-12)
        eta = np.linspace(-10, 10, 501)
        np.testing.assert_allclose(fam.link(fam.inverse_link(eta)), eta, atol=1e-10)


class TestFactory:
    def test_by_name(self):
        assert make_family("gaussian").kind == "gaussian"
        fam = make_family("binomial")
        assert fam.kind == "binomial"
        assert fam.mu_clamp == 1e-5

    def test_unknown_family(self):
        with pytest.raises(ConfigError):
            make_family("poisson")

    def test_bad_clamp(self):
        # the clamp is a constant, not a setting
        with pytest.raises(TypeError):
            Binomial(mu_clamp=0.7)
        with pytest.raises(TypeError):
            make_family("binomial", 1e-4)
