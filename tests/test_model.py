import json
import re

import numpy as np
import pytest

from gannet.config import FitConfig
from gannet.data import Dataset
from gannet.exceptions import (
    ConfigError,
    DataValidationError,
    DegenerateDataError,
    ModelFileError,
)
from gannet.model import fit, load_model, save_model, summarize


def cfg(**kw):
    defaults = dict(num_units=(16,), seed=4, verbose=0, learning_rate=0.01,
                    max_iter_backfitting=5)
    defaults.update(kw)
    return FitConfig(**defaults)


@pytest.fixture(scope="module")
def mixed_model_and_data():
    rng = np.random.default_rng(20)
    n = 600
    x1 = rng.uniform(-2.5, 2.5, n)
    x2 = rng.uniform(-2.5, 2.5, n)
    f1 = np.sin(x1)
    y = 1.0 + (f1 - f1.mean()) + 2.0 * (x2 - x2.mean()) + rng.normal(0, 0.2, n)
    data = Dataset({"x1": x1, "x2": x2, "y": y})
    model = fit(data, "y ~ s(x1) + x2", cfg())
    return model, data


class TestFit:
    def test_single_linear_term_recovers_slope(self):
        rng = np.random.default_rng(3)
        n = 500
        x = rng.uniform(-3, 3, n)
        y = 2.0 * x + rng.normal(0, 1e-3, n)
        model = fit(Dataset({"x": x, "y": y}), "y ~ x", cfg())
        assert model.terms["x"].slope == pytest.approx(2.0, abs=1e-3)
        assert model.alpha == pytest.approx(float(np.mean(y)), rel=1e-10)
        assert model.training_mse < 1e-4

    def test_constant_response_rejected(self):
        data = Dataset({"x": np.arange(10.0), "y": np.full(10, 2.0)})
        with pytest.raises(DegenerateDataError):
            fit(data, "y ~ s(x)", cfg())

    def test_missing_column_named(self):
        data = Dataset({"x": np.arange(10.0), "y": np.arange(10.0)})
        with pytest.raises(DataValidationError, match="zz"):
            fit(data, "y ~ s(zz)", cfg())

    def test_accepts_plain_mapping(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-1, 1, 100)
        model = fit({"x": x, "y": x + rng.normal(0, 0.1, 100)}, "y ~ x", cfg())
        assert model.n == 100

    def test_stored_eta_is_additive(self, mixed_model_and_data):
        model, _ = mixed_model_and_data
        total = model.alpha + np.sum(
            np.column_stack([e.fitted_values for e in model.estimators]), axis=1
        )
        np.testing.assert_allclose(total, model.training_eta, atol=1e-10)

    def test_term_centering_transfers(self, mixed_model_and_data):
        model, _ = mixed_model_and_data
        for est in model.estimators:
            assert abs(est.fitted_values.mean()) < 1e-8


class TestPredict:
    def test_terms_plus_intercept_equals_link_exactly(self, mixed_model_and_data):
        model, data = mixed_model_and_data
        terms = model.predict(data, type="terms")
        link = model.predict(data, type="link")
        np.testing.assert_array_equal(model.alpha + terms.sum(axis=1), link)

    def test_gaussian_response_equals_link(self, mixed_model_and_data):
        model, data = mixed_model_and_data
        np.testing.assert_array_equal(
            model.predict(data, type="response"), model.predict(data, type="link")
        )

    def test_no_newdata_uses_training_rows(self, mixed_model_and_data):
        model, _ = mixed_model_and_data
        np.testing.assert_array_equal(model.predict(type="link"), model.training_eta)
        terms = model.predict(type="terms")
        np.testing.assert_array_equal(terms[:, 0], model.terms["x1"].fitted_values)

    def test_terms_subset_order(self, mixed_model_and_data):
        model, data = mixed_model_and_data
        out = model.predict(data, type="terms", terms=["x2", "x1"])
        assert out.shape == (data.n, 2)
        full = model.predict(data, type="terms")
        np.testing.assert_array_equal(out[:, 0], full[:, 1])
        np.testing.assert_array_equal(out[:, 1], full[:, 0])

    def test_unknown_term_rejected(self, mixed_model_and_data):
        model, data = mixed_model_and_data
        with pytest.raises(DataValidationError, match="nope"):
            model.predict(data, type="terms", terms=["nope"])

    def test_bad_type_rejected(self, mixed_model_and_data):
        model, data = mixed_model_and_data
        with pytest.raises(ConfigError):
            model.predict(data, type="quantile")

    def test_extrapolation_warns(self, mixed_model_and_data):
        model, _ = mixed_model_and_data
        wide = Dataset({"x1": np.array([0.0, 9.0]), "x2": np.array([0.0, 0.0])})
        with pytest.warns(UserWarning, match="training range"):
            model.predict(wide, type="link")

    def test_training_predictions_match_recomputation(self, mixed_model_and_data):
        # feeding the training covariates back through the networks agrees
        # with the stored additive predictor
        model, data = mixed_model_and_data
        np.testing.assert_allclose(
            model.predict(data, type="link"), model.training_eta, atol=1e-10
        )


class TestSummaries:
    def test_print_block_fields(self, mixed_model_and_data):
        model, _ = mixed_model_and_data
        text = str(model)
        assert "Class: GANN" in text
        assert "Distribution Family:  gaussian" in text
        assert "Formula:  y ~ s(x1) + x2" in text
        assert re.search(r"Intercept: \d+\.\d{4}\b", text)
        assert re.search(r"MSE: \d+\.\d{4}\b", text)
        assert f"Sample size: {model.n}" in text

    def test_param_count_1024(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, 80)
        y = x + rng.normal(0, 0.1, 80)
        model = fit(
            Dataset({"x": x, "y": y}),
            "y ~ s(x)",
            cfg(num_units=(1024,), max_iter_backfitting=1),
        )
        assert "Total params: 3075" in summarize(model)

    def test_param_count_two_hidden_layers(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, 80)
        y = x + rng.normal(0, 0.1, 80)
        model = fit(
            Dataset({"x": x, "y": y}),
            "y ~ s(x)",
            cfg(num_units=(256, 128), max_iter_backfitting=1),
        )
        assert "Total params: 33539" in summarize(model)

    def test_linear_term_rendered_as_slope(self, mixed_model_and_data):
        model, _ = mixed_model_and_data
        assert re.search(r"x2: linear\(slope=-?\d+\.\d{4}\)", summarize(model))

    def test_history_table_present(self, mixed_model_and_data):
        model, _ = mixed_model_and_data
        text = summarize(model)
        assert "Training History:" in text
        assert "Model architecture:" in text
        assert "TrainLoss" in text


class TestSerialization:
    def test_roundtrip_bitwise(self, mixed_model_and_data, tmp_path):
        model, data = mixed_model_and_data
        path = tmp_path / "m.json"
        save_model(model, path)
        loaded = load_model(path)
        np.testing.assert_array_equal(
            model.predict(data, type="link"), loaded.predict(data, type="link")
        )
        np.testing.assert_array_equal(
            model.predict(type="link"), loaded.predict(type="link")
        )
        np.testing.assert_array_equal(
            model.predict(data, type="terms"), loaded.predict(data, type="terms")
        )
        assert loaded.terms["x2"].slope == model.terms["x2"].slope
        assert loaded.alpha == model.alpha

    def test_same_seed_identical_files(self, tmp_path):
        rng = np.random.default_rng(2)
        x = rng.uniform(-1, 1, 120)
        y = np.sin(x) + rng.normal(0, 0.1, 120)
        data = Dataset({"x": x, "y": y})
        for name in ("a.json", "b.json"):
            save_model(fit(data, "y ~ s(x)", cfg(seed=77)), tmp_path / name)
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_truncated_file_rejected(self, mixed_model_and_data, tmp_path):
        model, _ = mixed_model_and_data
        path = tmp_path / "m.json"
        save_model(model, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(ModelFileError, match="corrupt"):
            load_model(path)

    def test_tampered_payload_rejected(self, mixed_model_and_data, tmp_path):
        model, _ = mixed_model_and_data
        path = tmp_path / "m.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        doc["model"]["alpha"] = doc["model"]["alpha"] + 1.0
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFileError, match="checksum"):
            load_model(path)

    def test_version_mismatch_rejected(self, mixed_model_and_data, tmp_path):
        model, _ = mixed_model_and_data
        path = tmp_path / "m.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        doc["version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFileError, match="version"):
            load_model(path)

    def test_loaded_summary_renders_without_timestamps(
        self, mixed_model_and_data, tmp_path
    ):
        model, _ = mixed_model_and_data
        path = tmp_path / "m.json"
        save_model(model, path)
        text = summarize(load_model(path))
        assert "Training History:" in text
        assert "Timestamp" not in text


class TestConfig:
    def test_defaults_match_documentation(self):
        c = FitConfig(num_units=8)
        assert c.num_units == (8,)
        assert c.family == "gaussian"
        assert c.learning_rate == 0.001
        assert c.activation == "relu"
        assert c.l2_penalty == 0.0
        assert c.bf_threshold == 0.001
        assert c.ls_threshold == 0.1
        assert c.max_iter_backfitting == 10
        assert c.max_iter_ls == 10
        assert c.batch_size == 128
        assert c.epochs_per_sweep == 1
        assert c.seed is None
        assert c.verbose == 1
        assert c.mu_clamp == 1e-5
        assert (c.beta1, c.beta2, c.epsilon) == (0.9, 0.999, 1e-7)

    def test_validation(self):
        with pytest.raises(ConfigError):
            FitConfig(num_units=0)
        with pytest.raises(ConfigError):
            FitConfig(num_units=8, family="poisson")
        with pytest.raises(ConfigError):
            FitConfig(num_units=8, bf_threshold=0.0)

    def test_l2_penalty_accepted_and_used(self):
        rng = np.random.default_rng(8)
        x = rng.uniform(-1, 1, 200)
        y = np.sin(x) + rng.normal(0, 0.1, 200)
        data = Dataset({"x": x, "y": y})
        plain = fit(data, "y ~ s(x)", cfg(seed=5))
        shrunk = fit(data, "y ~ s(x)", cfg(seed=5, l2_penalty=0.5))

        def weight_norm(m):
            return sum(
                float(np.sum(l.weights**2)) for l in m.terms["x"].net.layers
            )

        assert weight_norm(shrunk) < weight_norm(plain)
