import json

import numpy as np
import pytest

from gannet.cli import main
from gannet.data import Dataset


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    rc = main(["simulate", "--out-dir", str(out), "--n", "400", "--seed", "3"])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def trained(tmp_path_factory, sim_dir):
    out = tmp_path_factory.mktemp("model")
    model_path = out / "model.json"
    hist_path = out / "history.csv"
    rc = main(
        [
            "train",
            "--data", str(sim_dir / "train.csv"),
            "--formula", "y ~ s(x1) + x2 + s(x3)",
            "--num-units", "8",
            "--learning-rate", "0.01",
            "--max-iter-backfitting", "3",
            "--seed", "11",
            "--verbose", "0",
            "--model-out", str(model_path),
            "--history-out", str(hist_path),
        ]
    )
    assert rc == 0
    return model_path, hist_path


class TestFlagDefaults:
    ARGV = ["train", "--data", "d.csv", "--formula", "y ~ x",
            "--num-units", "8", "--model-out", "m.json"]

    def test_train_flags_match_config_defaults(self):
        from dataclasses import MISSING, fields

        from gannet.cli import build_parser
        from gannet.config import FitConfig

        args = build_parser().parse_args(self.ARGV)
        for f in fields(FitConfig):
            if f.default is not MISSING:
                assert getattr(args, f.name) == f.default, f.name

    def test_default_flags_build_the_default_config(self):
        from gannet.cli import _config_from_args, build_parser
        from gannet.config import FitConfig

        args = build_parser().parse_args(self.ARGV)
        assert _config_from_args(args) == FitConfig(num_units=(8,))

    def test_negative_seed_exit_2(self, capsys):
        # rejected by the config, before the (absent) data file is read
        assert main([*self.ARGV, "--seed", "-1"]) == 2
        assert "seed must be a nonnegative integer" in capsys.readouterr().err


class TestSimulate:
    def test_writes_four_files(self, sim_dir):
        for name in ("train.csv", "test.csv", "true_terms_train.csv", "true_terms_test.csv"):
            assert (sim_dir / name).exists()

    def test_partition(self, sim_dir):
        train = Dataset.from_csv(sim_dir / "train.csv")
        test = Dataset.from_csv(sim_dir / "test.csv")
        assert train.n + test.n == 400

    def test_same_seed_bytewise(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for d in (a, b):
            assert main(["simulate", "--out-dir", str(d), "--n", "200", "--seed", "5"]) == 0
        for name in ("train.csv", "test.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_split_flag(self, tmp_path):
        d = tmp_path / "c"
        assert main([
            "simulate", "--out-dir", str(d), "--n", "100",
            "--train-fraction", "0.5", "--seed", "1",
        ]) == 0
        n = Dataset.from_csv(d / "train.csv").n + Dataset.from_csv(d / "test.csv").n
        assert n == 100


class TestTrain:
    def test_prints_block_and_writes_model(self, trained, capsys):
        model_path, _ = trained
        assert model_path.exists()
        doc = json.loads(model_path.read_text())
        assert doc["format"] == "gannet-model"

    def test_print_block_content(self, sim_dir, tmp_path, capsys):
        rc = main(
            [
                "train",
                "--data", str(sim_dir / "train.csv"),
                "--formula", "y ~ x2",
                "--num-units", "4",
                "--verbose", "0",
                "--seed", "1",
                "--model-out", str(tmp_path / "m.json"),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        for line in ("Class: GANN", "Distribution Family:  gaussian",
                     "Formula:  y ~ x2", "Intercept:", "MSE:", "Sample size:"):
            assert line in out

    def test_history_csv(self, trained):
        _, hist_path = trained
        lines = hist_path.read_text().strip().splitlines()
        assert lines[0] == "timestamp,model,epoch,train_loss"
        assert len(lines) > 1

    def test_missing_response_column_exit_2(self, sim_dir, tmp_path, capsys):
        rc = main(
            [
                "train",
                "--data", str(sim_dir / "train.csv"),
                "--formula", "nope ~ s(x1)",
                "--num-units", "4",
                "--model-out", str(tmp_path / "m.json"),
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("gannet: error:")
        assert "nope" in err

    def test_binomial_with_non_binary_response_exit_2(self, sim_dir, tmp_path, capsys):
        rc = main(
            [
                "train",
                "--data", str(sim_dir / "train.csv"),
                "--formula", "y ~ s(x1)",
                "--family", "binomial",
                "--num-units", "4",
                "--model-out", str(tmp_path / "m.json"),
            ]
        )
        assert rc == 2
        assert "gannet: error:" in capsys.readouterr().err

    def test_bad_formula_exit_2(self, sim_dir, tmp_path, capsys):
        rc = main(
            [
                "train",
                "--data", str(sim_dir / "train.csv"),
                "--formula", "y ~ s(x1",
                "--num-units", "4",
                "--model-out", str(tmp_path / "m.json"),
            ]
        )
        assert rc == 2


class TestPredict:
    def test_link_and_response_identical_for_gaussian(self, trained, sim_dir, tmp_path):
        model_path, _ = trained
        outs = []
        for kind in ("link", "response"):
            out = tmp_path / f"{kind}.csv"
            rc = main(
                [
                    "predict", "--model", str(model_path),
                    "--data", str(sim_dir / "test.csv"),
                    "--out", str(out), "--type", kind,
                ]
            )
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_terms_subset_headers(self, trained, sim_dir, tmp_path):
        model_path, _ = trained
        out = tmp_path / "terms.csv"
        rc = main(
            [
                "predict", "--model", str(model_path),
                "--data", str(sim_dir / "test.csv"),
                "--out", str(out), "--type", "terms", "--terms", "x1,x3",
            ]
        )
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "x1,x3"
        n_test = Dataset.from_csv(sim_dir / "test.csv").n
        assert len(lines) == n_test + 1

    def test_round_trip_reproduces_stored_eta(self, trained, sim_dir, tmp_path):
        model_path, _ = trained
        out = tmp_path / "pred.csv"
        rc = main(
            [
                "predict", "--model", str(model_path),
                "--data", str(sim_dir / "train.csv"),
                "--out", str(out), "--type", "link",
            ]
        )
        assert rc == 0
        pred = Dataset.from_csv(out).column("prediction")
        stored = np.asarray(
            json.loads(model_path.read_text())["model"]["training_eta"]
        )
        np.testing.assert_allclose(pred, stored, atol=1e-10)

    def test_empty_newdata_gives_header_only(self, trained, tmp_path):
        model_path, _ = trained
        empty = tmp_path / "empty.csv"
        empty.write_text("x1,x2,x3\n")
        out = tmp_path / "pred.csv"
        rc = main(
            [
                "predict", "--model", str(model_path),
                "--data", str(empty), "--out", str(out), "--type", "response",
            ]
        )
        assert rc == 0
        assert out.read_text().strip() == "prediction"

    def test_schema_mismatch_exit_2(self, trained, tmp_path, capsys):
        model_path, _ = trained
        bad = tmp_path / "bad.csv"
        bad.write_text("x1,x2\n0.1,0.2\n")  # x3 missing
        rc = main(
            [
                "predict", "--model", str(model_path),
                "--data", str(bad), "--out", str(tmp_path / "p.csv"),
            ]
        )
        assert rc == 2
        assert "x3" in capsys.readouterr().err

    def test_corrupt_model_exit_2(self, trained, sim_dir, tmp_path):
        model_path, _ = trained
        broken = tmp_path / "broken.json"
        broken.write_bytes(model_path.read_bytes()[:100])
        rc = main(
            [
                "predict", "--model", str(broken),
                "--data", str(sim_dir / "test.csv"),
                "--out", str(tmp_path / "p.csv"),
            ]
        )
        assert rc == 2


class TestSummary:
    def test_prints_sections(self, trained, capsys):
        model_path, _ = trained
        assert main(["summary", "--model", str(model_path)]) == 0
        out = capsys.readouterr().out
        for section in ("Class: GANN", "Training History:", "Model architecture:"):
            assert section in out


class TestPartialEffects:
    def test_grid_of_two_hits_endpoints(self, trained, tmp_path):
        model_path, _ = trained
        out = tmp_path / "pe.csv"
        rc = main(
            [
                "partial-effects", "--model", str(model_path),
                "--out", str(out), "--grid-size", "2",
            ]
        )
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "term,x,f_hat"
        assert len(lines) == 1 + 2 * 3  # two rows per term
        doc = json.loads(model_path.read_text())
        x1_rows = [l.split(",") for l in lines[1:] if l.startswith("x1,")]
        got = sorted(float(r[1]) for r in x1_rows)
        lo = next(t for t in doc["model"]["terms"] if t["name"] == "x1")["train_min"]
        hi = next(t for t in doc["model"]["terms"] if t["name"] == "x1")["train_max"]
        assert got == [lo, hi]

    def test_svg_written(self, trained, tmp_path):
        model_path, _ = trained
        svg_dir = tmp_path / "charts"
        rc = main(
            [
                "partial-effects", "--model", str(model_path),
                "--out", str(tmp_path / "pe.csv"),
                "--terms", "x1", "--svg-dir", str(svg_dir),
            ]
        )
        assert rc == 0
        svg = (svg_dir / "x1.svg").read_text()
        assert svg.startswith("<svg")
        assert "polyline" in svg
        assert "x1" in svg

    def test_unknown_term_exit_2(self, trained, tmp_path, capsys):
        model_path, _ = trained
        rc = main(
            [
                "partial-effects", "--model", str(model_path),
                "--out", str(tmp_path / "pe.csv"), "--terms", "bogus",
            ]
        )
        assert rc == 2
        assert "bogus" in capsys.readouterr().err
