import json
import re
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest

from gannet import nn_core
from gannet.config import FitConfig
from gannet.data import Dataset
from gannet.exceptions import (
    ConfigError,
    DataValidationError,
    DegenerateDataError,
    FormulaError,
    ModelFileError,
    NumericInstabilityError,
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

    def test_formula_that_is_not_text_rejected(self):
        data = Dataset({"x": np.arange(10.0), "y": np.arange(10.0)})
        with pytest.raises(FormulaError, match="a formula is text, got int 5"):
            fit(data, 5, cfg())

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

    def test_fitted_model_keeps_no_optimizer_state(self, mixed_model_and_data, tmp_path):
        model, data = mixed_model_and_data
        save_model(model, tmp_path / "m.json")
        for source in (model, load_model(tmp_path / "m.json")):
            est = source.terms["x1"]
            assert est.adam is None and est.shuffle_rng is None
            with pytest.raises(RuntimeError, match="a fitted or loaded model predicts"):
                est.fit(data.column("x1"), data.column("y"), np.ones(data.n), source.config)


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

    @pytest.mark.parametrize("with_newdata", [True, False])
    def test_empty_terms_subset_keeps_rows(self, mixed_model_and_data, with_newdata):
        model, data = mixed_model_and_data
        newdata = Dataset({"x1": data.column("x1")[:7], "x2": data.column("x2")[:7]})
        if with_newdata:
            assert model.predict(newdata, type="terms", terms=[]).shape == (7, 0)
        else:
            assert model.predict(type="terms", terms=[]).shape == (model.n, 0)

    def test_zero_rows_of_a_deep_model(self):
        rng = np.random.default_rng(8)
        x = rng.uniform(-2, 2, 200)
        data = Dataset({"x": x, "y": np.sin(x) + rng.normal(0, 0.1, 200)})
        model = fit(data, "y ~ s(x)", cfg(num_units=(8, 8), max_iter_backfitting=2))
        empty = Dataset({"x": np.empty(0)})
        assert model.predict(empty, type="link").shape == (0,)
        assert model.predict(empty, type="response").shape == (0,)
        assert model.predict(empty, type="terms").shape == (0, 1)

    def test_accepts_plain_mapping(self, mixed_model_and_data):
        model, data = mixed_model_and_data
        mapping = {name: data.column(name) for name in ("x1", "x2")}
        for type in ("link", "response", "terms"):
            np.testing.assert_array_equal(model.predict(mapping, type=type),
                                          model.predict(data, type=type))

    def test_unknown_term_rejected(self, mixed_model_and_data):
        model, data = mixed_model_and_data
        with pytest.raises(DataValidationError, match="nope"):
            model.predict(data, type="terms", terms=["nope"])

    def test_bad_type_rejected(self, mixed_model_and_data):
        model, data = mixed_model_and_data
        with pytest.raises(ConfigError):
            model.predict(data, type="quantile")

    def test_terms_subset_needs_type_terms(self, mixed_model_and_data):
        model, data = mixed_model_and_data
        with pytest.raises(ConfigError, match="only valid with type='terms'"):
            model.predict(data, type="link", terms=["x1"])

    def test_extrapolation_warns(self, mixed_model_and_data):
        model, _ = mixed_model_and_data
        wide = Dataset({"x1": np.array([0.0, 9.0]), "x2": np.array([0.0, 0.0])})
        with pytest.warns(UserWarning, match="training range"):
            model.predict(wide, type="link")

    @pytest.mark.parametrize("type", ["link", "terms"])
    def test_extrapolation_warning_names_the_caller(self, mixed_model_and_data, type):
        model, _ = mixed_model_and_data
        wide = Dataset({"x1": np.array([0.0, 9.0]), "x2": np.array([0.0, 0.0])})
        with pytest.warns(UserWarning, match="training range") as record:
            model.predict(wide, type=type)
        assert [w.filename for w in record] == [__file__]

    def test_overflowing_additive_predictor_rejected(self):
        # each term column is finite, their sum is not
        rng = np.random.default_rng(3)
        x1, x2 = rng.uniform(-1, 1, (2, 200))
        model = fit(Dataset({"x1": x1, "x2": x2, "y": 2.0 * x1 - 3.0 * x2}), "y ~ x1 + x2", cfg())
        big = np.finfo(np.float64).max * 0.3
        newdata = {"x1": np.array([big]), "x2": np.array([-big / 1.5])}
        with pytest.warns(UserWarning, match="outside the training range"):
            assert np.all(np.isfinite(model.predict(newdata, type="terms")))
        for type in ("link", "response"):
            with pytest.warns(UserWarning, match="outside the training range"):
                with pytest.raises(DataValidationError, match="additive predictor overflows"):
                    with np.errstate(over="ignore"):
                        model.predict(newdata, type=type)

    def test_training_predictions_match_recomputation(self, mixed_model_and_data):
        # feeding the training covariates back through the networks agrees
        # with the stored additive predictor
        model, data = mixed_model_and_data
        np.testing.assert_allclose(
            model.predict(data, type="link"), model.training_eta, atol=1e-10
        )


class TestFrozenNetworks:
    @pytest.mark.parametrize("num_units", [(16,), (16, 16)])
    def test_piece_table_built_once_per_term(self, num_units, tmp_path, monkeypatch):
        built = []
        real = nn_core._piece_table
        monkeypatch.setattr(nn_core, "_piece_table", lambda net: built.append(net) or real(net))
        rng = np.random.default_rng(6)
        x, z, v = rng.uniform(-2, 2, (3, 300))
        data = Dataset({"x": x, "z": z, "v": v, "y": np.sin(x) + z * z + v})
        model = fit(data, "y ~ s(x) + s(z) + v", cfg(num_units=num_units, max_iter_backfitting=2))
        nets = [model.terms["x"].net, model.terms["z"].net]
        sweeps = sum(len(rec.sweeps) for rec in model.trace.iterations)
        # one per training refresh of a smooth term, then one per smooth term as the model is built
        assert len(built) == 2 * sweeps + 2
        assert all(a is b for a, b in zip(built[-2:], nets, strict=True))
        save_model(model, tmp_path / "m.json")
        built.clear()
        loaded = load_model(tmp_path / "m.json")
        assert all(a is b for a, b in zip(built, [loaded.terms["x"].net, loaded.terms["z"].net],
                                          strict=True))
        built.clear()
        for source, newdata in ((model, None), (model, data), (loaded, data)):
            for type in ("link", "response", "terms"):
                source.predict(newdata, type=type)
        assert built == []

    def test_fitted_and_loaded_weights_are_read_only(self, mixed_model_and_data, tmp_path):
        model, _ = mixed_model_and_data
        save_model(model, tmp_path / "m.json")
        for source in (model, load_model(tmp_path / "m.json")):
            net = source.terms["x1"].net
            for arr in (net.params, net.layers[1].weights, net.layers[1].biases):
                with pytest.raises(ValueError, match="read-only"):
                    arr[...] = 0.0


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
            model.predict(type="link"), loaded.predict(data, type="link")
        )
        np.testing.assert_array_equal(
            model.predict(data, type="terms"), loaded.predict(data, type="terms")
        )
        assert loaded.terms["x2"].slope == model.terms["x2"].slope
        assert loaded.alpha == model.alpha

    @pytest.mark.parametrize("num_units", [(1024,), (16, 16)], ids=["1024", "16x16"])
    def test_roundtrip_bitwise_at_width(self, num_units, tmp_path):
        rng = np.random.default_rng(6)
        x, z = rng.uniform(-2, 2, 300), rng.uniform(-2, 2, 300)
        data = Dataset({"x": x, "z": z, "y": np.sin(x) + z + rng.normal(0, 0.1, 300)})
        model = fit(data, "y ~ s(x) + z", cfg(num_units=num_units, max_iter_backfitting=2))
        save_model(model, tmp_path / "m.json")
        loaded = load_model(tmp_path / "m.json")
        np.testing.assert_array_equal(loaded.terms["x"].net.params, model.terms["x"].net.params)
        for type in ("link", "response", "terms"):
            np.testing.assert_array_equal(loaded.predict(data, type=type),
                                          model.predict(data, type=type))
        # the fitted values come from the table that predicts, so they agree bit for bit
        np.testing.assert_array_equal(model.predict(type="link"), model.predict(data, type="link"))

    def test_same_seed_identical_files(self, tmp_path):
        rng = np.random.default_rng(2)
        x = rng.uniform(-1, 1, 120)
        y = np.sin(x) + rng.normal(0, 0.1, 120)
        data = Dataset({"x": x, "y": y})
        for name in ("a.json", "b.json"):
            save_model(fit(data, "y ~ s(x)", cfg(seed=77)), tmp_path / name)
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_file_size_does_not_grow_with_rows(self, tmp_path):
        sizes = []
        for n in (500, 5000):
            rng = np.random.default_rng(8)
            x, z = rng.uniform(-1, 1, n), rng.uniform(-1, 1, n)
            data = Dataset({"x": x, "z": z, "y": np.sin(2 * x) + z + rng.normal(0, 0.1, n)})
            path = tmp_path / f"n{n}.json"
            save_model(fit(data, "y ~ s(x) + z", cfg(max_iter_backfitting=2)), path)
            sizes.append(path.stat().st_size)
        assert abs(sizes[1] - sizes[0]) <= 100, sizes

    def test_non_finite_model_not_written(self, mixed_model_and_data, tmp_path):
        # the loader refuses a non-finite number, so the writer never writes one
        model, _ = mixed_model_and_data
        path = tmp_path / "m.json"
        with pytest.raises(NumericInstabilityError, match="non-finite"):
            save_model(replace(model, training_mse=float("inf")), path)
        assert not path.exists()

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


class TestHistoryShape:
    """The history of a binomial fit, 2 iterations of 2 sweeps over a smooth
    and a linear term, as rows, as a loaded model reads it and as the CSV
    `gannet train --history-out` writes."""

    FLAGS = dict(family="binomial", num_units=(8,), max_iter_ls=2, max_iter_backfitting=2,
                 bf_threshold=1e-12, ls_threshold=1e-12)
    TERMS = ("x", "b")  # formula order, not alphabetical

    @pytest.fixture(scope="class")
    def csv_path(self, tmp_path_factory):
        from gannet.simulation import generate_binomial_fixture

        fixture = generate_binomial_fixture(400, seed=13)
        b = np.random.default_rng(14).uniform(-1, 1, 400)
        path = tmp_path_factory.mktemp("history") / "d.csv"
        Dataset({"x": fixture.column("x"), "b": b, "y": fixture.column("y")}).to_csv(path)
        return path

    @pytest.fixture(scope="class")
    def model(self, csv_path):
        model = fit(Dataset.from_csv(csv_path), "y ~ s(x) + b", cfg(**self.FLAGS))
        assert [list(map(len, rec.per_term_epoch_losses.values()))
                for rec in model.trace.iterations] == [[2, 2], [2, 2]]
        return model

    def test_epochs_once_per_term_in_formula_order(self, model):
        rows = model.trace.history_rows()
        assert [(term, epoch) for _, term, epoch, _ in rows] == [
            (term, epoch) for epoch in (1, 2, 3, 4) for term in self.TERMS
        ]
        assert all(re.fullmatch(r"\d{4}-\d\d-\d\d \d\d:\d\d:\d\d", stamp)
                   for stamp, *_ in rows)

    def test_losses_read_sweep_by_sweep(self, model):
        expected = [
            rec.per_term_epoch_losses[term][sweep]
            for rec in model.trace.iterations for sweep in (0, 1) for term in self.TERMS
        ]
        assert [loss for *_, loss in model.trace.history_rows()] == expected

    def test_earlier_iteration_record_is_kept(self, model, csv_path):
        # backfitting starts a new record each call; the first iteration's
        # losses are those of a one-iteration fit, not overwritten by the second
        once = fit(Dataset.from_csv(csv_path), "y ~ s(x) + b",
                   cfg(**{**self.FLAGS, "max_iter_ls": 1}))
        assert (model.trace.iterations[0].per_term_epoch_losses
                == once.trace.iterations[0].per_term_epoch_losses)

    def test_loaded_rows_match_without_stamps(self, model, tmp_path):
        path = tmp_path / "m.json"
        save_model(model, path)
        loaded = load_model(path).trace.history_rows()
        assert all(stamp == "" for stamp, *_ in loaded)
        # the file keeps each sweep's losses in formula order, and so does the loaded model
        assert [row[1:] for row in loaded] == [row[1:] for row in model.trace.history_rows()]

    def test_loaded_summary_lists_terms_in_formula_order(self, model, tmp_path):
        save_model(model, tmp_path / "m.json")
        text = summarize(load_model(tmp_path / "m.json"))
        epoch_1 = [line.split()[0] for line in text.splitlines() if line.split()[1:2] == ["1"]]
        assert epoch_1 == list(self.TERMS)

    def test_resaved_file_is_byte_identical(self, model, tmp_path):
        save_model(model, tmp_path / "a.json")
        save_model(load_model(tmp_path / "a.json"), tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_history_csv_rows_equal_the_rows(self, model, csv_path, tmp_path):
        import csv

        from gannet.cli import main

        assert main([
            "train", "--data", str(csv_path), "--formula", "y ~ s(x) + b",
            "--model-out", str(tmp_path / "m.json"), "--history-out", str(tmp_path / "h.csv"),
            # the same settings as cfg(**FLAGS)
            "--family", "binomial", "--num-units", "8", "--max-iter-ls", "2",
            "--max-iter-backfitting", "2", "--bf-threshold", "1e-12", "--ls-threshold", "1e-12",
            "--learning-rate", "0.01", "--seed", "4", "--verbose", "0",
        ]) == 0
        with open(tmp_path / "h.csv", newline="") as fh:
            header, *written = list(csv.reader(fh))
        assert header == ["timestamp", "model", "epoch", "train_loss"]
        assert [row[1:] for row in written] == [
            [term, str(epoch), repr(loss)] for _, term, epoch, loss in model.trace.history_rows()
        ]
        assert all(stamp for stamp, *_ in written)


@pytest.fixture(scope="module", params=["gaussian", "binomial"])
def sweep_model(request, mixed_model_and_data):
    """A gaussian smooth+linear fit, or a 3-iteration binomial one of 2 sweeps each."""
    if request.param == "gaussian":
        return mixed_model_and_data[0]
    from gannet.simulation import generate_binomial_fixture

    fixture = generate_binomial_fixture(400, seed=13)
    b = np.random.default_rng(14).uniform(-1, 1, 400)
    data = Dataset({"x": fixture.column("x"), "b": b, "y": fixture.column("y")})
    model = fit(data, "y ~ s(x) + b", cfg(family="binomial", num_units=(8,), max_iter_ls=3,
                                          max_iter_backfitting=2, bf_threshold=1e-12,
                                          ls_threshold=1e-12))
    assert [len(rec.sweeps) for rec in model.trace.iterations] == [2, 2, 2]
    return model


class TestSweepRecord:
    """Each backfitting sweep's record, as fitted and as a model file keeps it."""

    def test_offset_is_the_final_shift_bit_for_bit(self, sweep_model, tmp_path):
        save_model(sweep_model, tmp_path / "m.json")
        for model in (sweep_model, load_model(tmp_path / "m.json")):
            final = model.trace.iterations[-1].sweeps[-1]
            assert [float.hex(est.offset) for est in model.estimators] == [
                float.hex(final.shifts[est.name]) for est in model.estimators]

    def test_round_trip_keeps_every_sweep(self, sweep_model, tmp_path):
        def facts(model):
            return [(rec.deviance, rec.deviance_ratio, [
                (list(s.losses.items()), list(s.shifts.items()), s.ratio) for s in rec.sweeps
            ]) for rec in model.trace.iterations]

        save_model(sweep_model, tmp_path / "m.json")
        loaded = load_model(tmp_path / "m.json")
        assert facts(loaded) == facts(sweep_model)
        assert sweep_model.trace.iterations[0].sweeps[0].ratio is None
        assert all(s.timestamp is None for rec in loaded.trace.iterations for s in rec.sweeps)


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

    @pytest.mark.parametrize("kwargs,accepted", [
        pytest.param(kwargs, accepted, id=", ".join(f"{k}={v!r}" for k, v in kwargs.items()))
        for kwargs, accepted in [
            ({"num_units": 0}, False),
            ({"num_units": ()}, False),
            ({"num_units": "12"}, False),  # not the widths (1, 2)
            ({"num_units": 2.7}, False),  # not the width 2
            ({"family": "poisson"}, False),
            ({"activation": "tanh"}, False),
            ({"learning_rate": -1}, False),
            ({"learning_rate": float("inf")}, False),
            ({"learning_rate": "0.1"}, False),
            ({"batch_size": 0}, False),
            ({"batch_size": 2.5}, False),
            ({"max_iter_backfitting": 2.5}, False),
            ({"bf_threshold": 0.0}, False),
            ({"bf_threshold": float("nan")}, False),
            ({"verbose": 2}, False),
            ({"num_units": np.int64(8)}, True),
            ({"num_units": [np.int32(4), 2]}, True),
            ({"bf_threshold": 1}, True),
        ]
    ])
    def test_validation(self, kwargs, accepted):
        kwargs = {"num_units": 8, **kwargs}
        if not accepted:
            with pytest.raises(ConfigError):
                FitConfig(**kwargs)
            return
        # accepted values become plain Python numbers, so the config saves as JSON
        c = FitConfig(**kwargs)
        assert all(type(u) is int for u in c.num_units)
        assert type(c.bf_threshold) is float
        json.dumps(asdict(c))

    def test_readme_lists_every_setting(self):
        # the README's settings paragraph is the one hand-kept copy of the config
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        paragraph = next(p for p in readme.split("\n\n") if p.startswith("`FitConfig`"))
        named = set(re.findall(r"`(\w+)`", paragraph))
        assert {f.name for f in fields(FitConfig)} <= named
        assert not named & {"beta1", "beta2", "epsilon", "mu_clamp"}

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
