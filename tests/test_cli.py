import io
import json
import shutil
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gannet.cli import main
from gannet.config import FitConfig
from gannet.data import Dataset
from gannet.model import fit, load_model
from gannet.svg import spaced

MAX = np.finfo(np.float64).max


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
        from gannet.cli import _from_args, build_parser
        from gannet.config import FitConfig

        args = build_parser().parse_args(self.ARGV)
        assert _from_args(FitConfig, args) == FitConfig(num_units=(8,))

    def test_negative_seed_exit_2(self, capsys):
        # rejected by the config, before the (absent) data file is read
        assert main([*self.ARGV, "--seed", "-1"]) == 2
        assert "seed must be a nonnegative integer" in capsys.readouterr().err

    # "--num" would be a prefix of --num-units if argparse read abbreviations
    @pytest.mark.parametrize("flag", ["--beta1", "--beta2", "--epsilon", "--mu-clamp", "--num"])
    def test_engine_constants_have_no_flag(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*self.ARGV, flag, "0.5"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestSimulateFlagDefaults:
    ARGV = ["simulate", "--out-dir", "d"]

    def test_one_flag_per_scenario_field(self):
        import argparse
        from dataclasses import fields

        from gannet.cli import build_parser
        from gannet.simulation import ScenarioSpec

        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        options = {a.dest: a.option_strings for a in sub.choices["simulate"]._actions}
        names = {f.name for f in fields(ScenarioSpec)}
        assert set(options) == names | {"help", "out_dir"}
        for name in names:
            assert options[name] == ["--" + name.replace("_", "-")]

    def test_simulate_flags_match_scenario_defaults(self):
        from dataclasses import fields

        from gannet.cli import build_parser
        from gannet.simulation import ScenarioSpec

        args = build_parser().parse_args(self.ARGV)
        for f in fields(ScenarioSpec):
            assert getattr(args, f.name) == f.default, f.name

    def test_default_flags_build_the_default_scenario(self):
        from gannet.cli import _from_args, build_parser
        from gannet.simulation import ScenarioSpec

        args = build_parser().parse_args(self.ARGV)
        assert _from_args(ScenarioSpec, args) == ScenarioSpec()

    def test_true_functions_comma_list(self):
        from gannet.cli import _from_args, build_parser
        from gannet.simulation import ScenarioSpec

        args = build_parser().parse_args([*self.ARGV, "--true-functions", "sine, square"])
        assert _from_args(ScenarioSpec, args).true_functions == ("sine", "square")

    # "--alpha" would be a prefix of --alpha0 if argparse read abbreviations
    @pytest.mark.parametrize("flag", ["--low", "--high", "--functions", "--alpha"])
    def test_old_flag_names_rejected(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*self.ARGV, flag, "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_empty_true_functions_exit_2(self, tmp_path, capsys):
        d = tmp_path / "none"
        assert main(["simulate", "--out-dir", str(d), "--true-functions", ""]) == 2
        assert "true_functions" in capsys.readouterr().err
        assert not d.exists()


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

    @pytest.mark.parametrize("flag,value", [
        ("--covariate-high", "inf"), ("--seed", "-1"), ("--noise-sd", "nan"),
        ("--alpha0", "nan"),
    ])
    def test_bad_scenario_exit_2(self, tmp_path, capsys, flag, value):
        d = tmp_path / "bad"
        assert main(["simulate", "--out-dir", str(d), "--n", "100", flag, value]) == 2
        assert capsys.readouterr().err.startswith("gannet: error: ")
        assert not d.exists()

    @pytest.mark.parametrize("flags", [
        ["--covariate-low", "1e307", "--covariate-high", "1.5e307"],
        ["--alpha0", "1e308", "--noise-mean", "1e308"],
    ])
    def test_overflowing_scenario_exit_2(self, tmp_path, capsys, flags):
        # exit 0 with y = nan (then inf) in every row before
        d = tmp_path / "overflow"
        assert main(["simulate", "--out-dir", str(d), "--n", "10", *flags]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("gannet: error: ")
        assert flags[0][2:].replace("-", "_") in err[0]
        assert not d.exists()


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

    def test_overflowing_loss_exit_1_without_model_file(self, tmp_path, capsys):
        # squared residuals of y = 1e160 x overflow; a fit whose loss is not
        # finite is an error, not a model file that the loader refuses
        x = np.random.default_rng(0).uniform(-1, 1, 200)
        rows = "".join(f"{float(v)!r},{float(1e160 * v)!r}\n" for v in x)
        (tmp_path / "huge.csv").write_text("x,y\n" + rows)
        with warnings.catch_warnings():
            # numpy's overflow warnings print as `gannet: warning:` lines
            warnings.simplefilter("default", RuntimeWarning)
            rc = main(
                [
                    "train",
                    "--data", str(tmp_path / "huge.csv"),
                    "--formula", "y ~ s(x)",
                    "--num-units", "8",
                    "--max-iter-backfitting", "2",
                    "--seed", "1",
                    "--model-out", str(tmp_path / "huge.json"),
                ]
            )
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert any(line.startswith("gannet: warning: overflow") for line in err)
        errors = [line for line in err if line.startswith("gannet: error:")]
        assert len(errors) == 1 and "'x'" in errors[0]
        assert not (tmp_path / "huge.json").exists()

    def test_dropped_row_warns_in_one_line(self, sim_dir, tmp_path, capsys):
        lines = (sim_dir / "train.csv").read_text().splitlines()
        header = lines[0].split(",")
        cells = lines[1].split(",")
        cells[header.index("x1")] = ""
        lines[1] = ",".join(cells)
        (tmp_path / "gap.csv").write_text("\n".join(lines) + "\n")
        rc = main(
            [
                "train",
                "--data", str(tmp_path / "gap.csv"),
                "--formula", "y ~ s(x1) + x2",
                "--num-units", "4",
                "--max-iter-backfitting", "1",
                "--seed", "1",
                "--model-out", str(tmp_path / "m.json"),
            ]
        )
        assert rc == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1, err
        assert err[0].startswith("gannet: warning: ")
        assert err[0].endswith("gap.csv: dropped 1 row(s) with missing values")

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


    @pytest.mark.parametrize("body,where", [
        (b"x,y\n1.0,2.0\n\xff\xfe,3.0\n", "bad.csv:3: invalid UTF-8"),
        (b"x,y\n1.0," + b"1" * 131_073 + b"\n", "bad.csv:2: field larger than field limit"),
    ], ids=["invalid_utf8", "long_field"])
    def test_unreadable_csv_exit_2(self, tmp_path, capsys, body, where):
        (tmp_path / "bad.csv").write_bytes(body)
        rc = main(["train", "--data", str(tmp_path / "bad.csv"), "--formula", "y ~ x",
                   "--num-units", "4", "--model-out", str(tmp_path / "m.json")])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("gannet: error: "), err
        assert where in err[0]

    def test_byte_order_mark_is_not_part_of_the_first_column(self, tmp_path, capsys):
        # spreadsheet programs write "CSV UTF-8" with a leading byte-order mark
        rows = "".join(f"{v},{2 * v + v * v}\n" for v in range(-5, 6))
        (tmp_path / "bom.csv").write_bytes(b"\xef\xbb\xbf" + ("x,y\n" + rows).encode())
        rc = main(["train", "--data", str(tmp_path / "bom.csv"), "--formula", "y ~ x",
                   "--num-units", "4", "--model-out", str(tmp_path / "m.json")])
        assert rc == 0
        assert "gannet: error:" not in capsys.readouterr().err

    @pytest.mark.parametrize("formula,columns,message", [
        ("y ~ s(x)", {"x": np.arange(10.0), "y": np.full(10, 3.0)}, "response 'y' is constant"),
        ("y ~ x + s(z)", {"x": np.full(10, 1.0), "z": np.arange(10.0), "y": np.arange(10.0) % 3},
         "covariate 'x' has zero weighted variance"),
        ("y ~ x", {"x": np.arange(10.0), "y": [*range(9), np.inf]},
         "gaussian response contains non-finite values"),
        ("y ~ x", {"x": [1.0], "y": [2.0]}, "need at least 2 rows to fit"),
    ], ids=["constant_response", "constant_linear_covariate", "infinite_response", "one_row"])
    def test_degenerate_data_exit_2(self, tmp_path, capsys, formula, columns, message):
        Dataset(columns).to_csv(tmp_path / "d.csv")
        rc = main(["train", "--data", str(tmp_path / "d.csv"), "--formula", formula,
                   "--num-units", "4", "--model-out", str(tmp_path / "m.json")])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"gannet: error: {message}"), err
        assert not (tmp_path / "m.json").exists()


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
        # the `trained` fixture's fit, in process, keeps its training predictor
        config = FitConfig(num_units=8, learning_rate=0.01, max_iter_backfitting=3,
                           seed=11, verbose=0)
        model = fit(Dataset.from_csv(sim_dir / "train.csv"), "y ~ s(x1) + x2 + s(x3)", config)
        np.testing.assert_allclose(pred, model.training_eta, atol=1e-10)

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

    def test_out_of_range_rows_warn_in_one_line_each(self, trained, tmp_path, capsys):
        model_path, _ = trained
        wide = tmp_path / "wide"
        assert main(["simulate", "--out-dir", str(wide), "--n", "200",
                     "--covariate-low", "-4", "--covariate-high", "4"]) == 0
        capsys.readouterr()
        rc = main(
            [
                "predict", "--model", str(model_path), "--data", str(wide / "test.csv"),
                "--out", str(tmp_path / "p.csv"), "--type", "terms",
            ]
        )
        assert rc == 0
        err = capsys.readouterr().err
        assert "gannet: warning: term 'x1'" in err
        assert "UserWarning" not in err
        assert all(line.startswith("gannet: warning: ") for line in err.splitlines())

    @pytest.mark.parametrize("command", [["predict", "--type", "terms"], ["predict"],
                                         ["partial-effects"]],
                             ids=["terms", "link", "partial-effects"])
    def test_overflowing_prediction_exit_2(self, trained, tmp_path, capsys, command):
        # x2's slope is about 2, so its term overflows at x2 = +-1.7e308
        model_path, _ = trained
        columns = {name: np.full(2, 0.5) for name in ("x1", "x2", "x3")}
        columns["x2"] = np.array([1.7e308, -1.7e308])
        Dataset(columns).to_csv(tmp_path / "huge.csv")
        out = tmp_path / "out.csv"
        capsys.readouterr()
        with warnings.catch_warnings():
            # numpy's overflow warnings print as `gannet: warning:` lines
            warnings.simplefilter("default", RuntimeWarning)
            rc = main([*command, "--model", str(model_path), "--out", str(out),
                       "--data", str(tmp_path / "huge.csv")])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        # numpy's overflow warning stays: it says which operation overflowed
        assert any(line.startswith("gannet: warning: overflow") for line in err)
        errors = [line for line in err if line.startswith("gannet: error:")]
        assert errors == ["gannet: error: term 'x2': prediction overflows to a non-finite value"]
        assert not out.exists()

    def test_spline_term_at_extreme_x_is_its_end_pieces(self, trained, tmp_path, capsys):
        # the table's end pieces are the network out there, though the dense
        # pass's hidden pre-activations overflow at +-1.7e308
        model_path, _ = trained
        x = np.array([1.7e308, -1.7e308])
        columns = {name: np.full(2, 0.5) for name in ("x1", "x2", "x3")}
        columns["x1"] = x
        Dataset(columns).to_csv(tmp_path / "huge.csv")
        out = tmp_path / "out.csv"
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # no numpy overflow
            rc = main(["predict", "--type", "terms", "--terms", "x1", "--model", str(model_path),
                       "--out", str(out), "--data", str(tmp_path / "huge.csv")])
        assert rc == 0
        assert not any("error" in line for line in capsys.readouterr().err.splitlines())
        est = load_model(model_path).terms["x1"]
        _, slope, offset = est.net.table
        expected = np.array([slope[-1] * x[0] + offset[-1], slope[0] * x[1] + offset[0]])
        expected -= est.offset
        assert np.all(np.isfinite(expected))
        np.testing.assert_array_equal(Dataset.from_csv(out).column("x1"), expected)

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

    def test_unknown_term_named_before_csv_is_read(self, trained, sim_dir, tmp_path, capsys):
        model_path, _ = trained
        rc = main(
            [
                "predict", "--model", str(model_path),
                "--data", str(sim_dir / "test.csv"), "--out", str(tmp_path / "p.csv"),
                "--type", "terms", "--terms", "bogus",
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "unknown term(s): bogus" in err
        assert "missing" not in err


    def test_repeated_term_exit_2(self, trained, sim_dir, tmp_path, capsys):
        model_path, _ = trained
        out = tmp_path / "p.csv"
        rc = main(
            [
                "predict", "--model", str(model_path),
                "--data", str(sim_dir / "test.csv"), "--out", str(out),
                "--type", "terms", "--terms", "x1,x1",
            ]
        )
        assert rc == 2
        assert "repeated term(s): x1" in capsys.readouterr().err
        assert not out.exists()


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

    def test_repeated_term_exit_2(self, trained, tmp_path, capsys):
        model_path, _ = trained
        out = tmp_path / "pe.csv"
        rc = main(
            [
                "partial-effects", "--model", str(model_path),
                "--out", str(out), "--terms", "x1,x1",
            ]
        )
        assert rc == 2
        assert "repeated term(s): x1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("term", ["x1", "x2"], ids=["smooth", "linear"])
    def test_non_finite_data_exit_2(self, trained, tmp_path, capsys, term):
        model_path, _ = trained
        columns = {name: np.linspace(-1.0, 1.0, 5) for name in ("x1", "x2", "x3")}
        columns[term][2] = np.inf
        Dataset(columns).to_csv(tmp_path / "inf.csv")
        out = tmp_path / "pe.csv"
        rc = main(["partial-effects", "--model", str(model_path), "--out", str(out),
                   "--terms", term, "--data", str(tmp_path / "inf.csv")])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"gannet: error: covariate {term!r} contains non-finite values"]
        assert not out.exists()

    def test_data_sets_the_grid_endpoints(self, trained, tmp_path, capsys):
        model_path, _ = trained
        columns = {"x1": [0.5, -1.0, 0.25], "x2": [2.0, 1.5, -0.5], "x3": [0.0, 1.0, -2.0]}
        Dataset(columns).to_csv(tmp_path / "d.csv")
        out = tmp_path / "pe.csv"
        rc = main(["partial-effects", "--model", str(model_path), "--out", str(out),
                   "--data", str(tmp_path / "d.csv"), "--grid-size", "2"])
        assert rc == 0
        assert capsys.readouterr().err == ""
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        for name, values in columns.items():
            got = [float(x) for term, x, _ in rows if term == name]
            assert got == [min(values), max(values)]

    def test_data_outside_the_training_range_warns_once_per_term(self, trained, tmp_path,
                                                                 capsys):
        model_path, _ = trained
        wide = tmp_path / "wide"
        assert main(["simulate", "--out-dir", str(wide), "--n", "200",
                     "--covariate-low", "-4", "--covariate-high", "4"]) == 0
        capsys.readouterr()
        rc = main(["partial-effects", "--model", str(model_path), "--out", str(tmp_path / "pe.csv"),
                   "--data", str(wide / "test.csv"), "--grid-size", "5"])
        assert rc == 0
        err = capsys.readouterr().err.splitlines()
        assert [line.split("'")[1] for line in err] == ["x1", "x2", "x3"]
        assert all(line.startswith("gannet: warning: term ") for line in err)

    @pytest.mark.parametrize("value", [0.5, 1e17], ids=["unit", "beyond_unit_resolution"])
    def test_one_row_of_data_draws_a_flat_axis(self, trained, tmp_path, value):
        # a flat range sits mid-axis with one tick; near 1e17 a range padded
        # by 1 each way is still flat, and dividing by its width raised
        model_path, _ = trained
        Dataset({"x1": [value]}).to_csv(tmp_path / "one.csv")
        svg_dir = tmp_path / "charts"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # 1e17 is outside the training range
            rc = main(["partial-effects", "--model", str(model_path), "--out",
                       str(tmp_path / "pe.csv"), "--terms", "x1", "--data",
                       str(tmp_path / "one.csv"), "--svg-dir", str(svg_dir), "--grid-size", "3"])
        assert rc == 0
        svg = (svg_dir / "x1.svg").read_text()
        mid_x, mid_y = 320.0, 240.0  # the middle of the plot area
        assert f'points="{mid_x:.2f},{mid_y:.2f} {mid_x:.2f},{mid_y:.2f} {mid_x:.2f},{mid_y:.2f}"' in svg
        assert svg.count('font-size="11"') == 2  # one tick label on each axis


    @pytest.mark.parametrize("ends", [(-1e308, 1e308), (1.5e-323, 2e-323), (-0.5, 0.75)],
                             ids=["overflowing_width", "subnormal", "in_range"])
    def test_grid_and_chart_of_any_finite_range(self, trained, tmp_path, ends):
        # np.linspace formed hi - lo, which overflowed to inf on (-1e308, 1e308)
        # though every value in the file was finite
        model_path, _ = trained
        Dataset({"x1": list(ends)}).to_csv(tmp_path / "d.csv")
        svg_dir = tmp_path / "charts"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # no numpy overflow
            warnings.simplefilter("ignore", UserWarning)  # outside the training range
            rc = main(["partial-effects", "--model", str(model_path), "--out",
                       str(tmp_path / "pe.csv"), "--terms", "x1", "--data",
                       str(tmp_path / "d.csv"), "--svg-dir", str(svg_dir), "--grid-size", "9"])
        assert rc == 0
        grid = [float(row.split(",")[1]) for row in
                (tmp_path / "pe.csv").read_text().splitlines()[1:]]
        assert (grid[0], grid[-1]) == ends
        assert grid == sorted(grid) and all(ends[0] <= x <= ends[1] for x in grid)
        svg = (svg_dir / "x1.svg").read_text()
        assert "nan" not in svg and "inf" not in svg
        points = svg.split('points="')[1].split('"')[0].split()
        assert (points[0].split(",")[0], points[-1].split(",")[0]) == ("50.00", "590.00")

    @pytest.mark.parametrize("lo, hi", [
        (-2.5, 2.5), (0.1, 0.1), (-MAX, MAX), (MAX, MAX), (np.nextafter(MAX, 0.0), MAX),
    ])
    def test_spaced_points_keep_to_their_range(self, lo, hi):
        with np.errstate(all="raise"):
            grid = spaced(lo, hi, 200)
        assert (grid[0], grid[-1]) == (lo, hi)
        assert np.all((grid >= lo) & (grid <= hi)) and np.all(np.diff(grid) >= 0.0)
        if lo == hi:
            assert np.all(grid == lo)


@pytest.mark.parametrize("argv,message", [
    (["train", "--data", "{sim}/train.csv", "--formula", "y ~ x1", "--num-units", "8,a",
      "--model-out", "{tmp}/out"], "num_units expects a comma list of int, got '8,a'"),
    (["predict", "--model", "{model}", "--data", "{sim}/test.csv", "--out", "{tmp}/out",
      "--type", "terms", "--terms", ","], "expected a comma-separated list of term names"),
    (["partial-effects", "--model", "{model}", "--out", "{tmp}/out", "--grid-size", "1"],
     "--grid-size must be >= 2"),
    (["summary", "--model", "{tmp}/other.json"], "{tmp}/other.json: not a gannet-model file"),
], ids=["num_units_not_int", "no_term_names", "grid_of_one", "foreign_format_tag"])
def test_bad_argument_exit_2(trained, sim_dir, tmp_path, capsys, argv, message):
    model_path, _ = trained
    (tmp_path / "other.json").write_text(json.dumps({"format": "other-model", "version": 6}))
    paths = {"sim": sim_dir, "model": model_path, "tmp": tmp_path}
    rc = main([arg.format(**paths) for arg in argv])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"gannet: error: {message.format(**paths)}"]
    assert not (tmp_path / "out").exists()


# ----------------------------------------------------------------------
# fuzzing main: whatever the input, exit 0, 1 or 2, with one error line
# on a nonzero exit
# ----------------------------------------------------------------------


def assert_main_exits_cleanly(argv):
    """main(argv) returns 0, 1 or 2, printing exactly one `gannet: error:`
    line when it is not 0; argparse's own exit 2 on a bad command line is
    the one exception allowed out of it."""
    err = io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(io.StringIO()), redirect_stderr(err):
        warnings.simplefilter("default")  # warnings print as they do outside the tests
        try:
            rc = main(argv)
        except SystemExit as exc:
            assert exc.code == 2, argv
            return
    errors = [line for line in err.getvalue().splitlines() if line.startswith("gannet: error:")]
    assert rc in (0, 1, 2), argv
    assert len(errors) == (1 if rc else 0), (argv, err.getvalue())


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """A directory with a small valid CSV and a model trained on it."""
    out = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(5)
    x1, x2 = rng.uniform(-1, 1, (2, 40))
    Dataset({"x1": x1, "x2": x2, "y": np.sin(2 * x1) + x2 + rng.normal(0, 0.1, 40),
             "w": rng.uniform(0, 2, 40)}).to_csv(out / "valid.csv")
    assert main(["train", "--data", str(out / "valid.csv"), "--formula", "y ~ s(x1) + x2",
                 "--num-units", "3", "--max-iter-backfitting", "1", "--seed", "1",
                 "--verbose", "0", "--model-out", str(out / "model.json")]) == 0
    return out


ODD_CELLS = ["0", "1", "", "NA", "nan", "null", "inf", "-inf", "1e999", "-1e400", "1e-400",
             "1e308", "-1e308", " 2 ", "0x1p3", "abc", '"3"', '"open', "\x00", "é",
             "1" * 131_073]


@st.composite
def csv_bytes(draw, family):
    """A CSV with header x1,x2,y,w, mostly values a `family` fit takes, now
    and then with odd cells, a ragged row, a byte-order mark, and invalid
    UTF-8, NUL, quote or separator bytes spliced in; lines end in LF, CRLF
    or CR."""
    y = st.sampled_from([0.0, 1.0]) if family == "binomial" else st.floats(-10, 10)
    columns = [st.floats(-10, 10), st.floats(-10, 10), y, st.floats(0, 10)]

    def now_and_then():  # one time in eight, or about that: draws lean to the first item
        return draw(st.sampled_from([False] * 7 + [True]))

    def cell(values):
        return draw(st.sampled_from(ODD_CELLS)) if now_and_then() else repr(draw(values))

    rows = [[cell(values) for values in columns]
            for _ in range(draw(st.sampled_from([4, 6, 2, 3, 5, 1, 0])))]
    if rows and now_and_then():
        ragged = draw(st.sampled_from(rows))
        if draw(st.booleans()):
            ragged.append(cell(y))
        else:
            ragged.pop()
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = newline.join(",".join(row) for row in [["x1", "x2", "y", "w"], *rows]) + newline
    body = ("\ufeff" if draw(st.booleans()) else "").encode() + text.encode()
    for _ in range(draw(st.sampled_from([0] * 6 + [1, 2]))):
        at = draw(st.integers(0, len(body)))
        splice = draw(st.sampled_from([b"\xff", b"\xfe\xff", b"\xc3", b"\x00", b'"', b",", b"\n"]))
        body = body[:at] + splice + body[at:]
    return body


@settings(max_examples=150, deadline=None, derandomize=True)
@given(family=st.sampled_from(["gaussian", "binomial"]), weighted=st.booleans(),
       draws=st.data())
def test_any_csv_exits_cleanly(fuzz_dir, family, weighted, draws):
    csv = fuzz_dir / "fuzz.csv"
    csv.write_bytes(draws.draw(csv_bytes(family)))
    assert_main_exits_cleanly(
        ["train", "--data", str(csv), "--formula", "y ~ s(x1) + x2", "--num-units", "2",
         "--max-iter-backfitting", "2", "--max-iter-ls", "2", "--seed", "1",
         "--family", family, "--model-out", str(fuzz_dir / "fuzz.json"),
         *(["--w-train", "w"] if weighted else [])])
    assert_main_exits_cleanly(["predict", "--model", str(fuzz_dir / "model.json"),
                               "--data", str(csv), "--out", str(fuzz_dir / "pred.csv"),
                               "--type", "terms"])
    assert_main_exits_cleanly(["partial-effects", "--model", str(fuzz_dir / "model.json"),
                               "--data", str(csv), "--out", str(fuzz_dir / "pe.csv"),
                               "--grid-size", "3", "--svg-dir", str(fuzz_dir / "svg")])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_any_single_byte_edit_of_a_model_file_exits_cleanly(fuzz_dir, data):
    body = bytearray((fuzz_dir / "model.json").read_bytes())
    body[data.draw(st.integers(0, len(body) - 1))] = data.draw(st.integers(0, 255))
    model = fuzz_dir / "edited.json"
    model.write_bytes(bytes(body))
    for argv in (["summary", "--model", str(model)],
                 ["predict", "--model", str(model), "--data", str(fuzz_dir / "valid.csv"),
                  "--out", str(fuzz_dir / "pred.csv")],
                 ["partial-effects", "--model", str(model), "--out", str(fuzz_dir / "pe.csv"),
                  "--grid-size", "3"]):
        assert_main_exits_cleanly(argv)


def either(valid, invalid):
    """Text of a flag value: one of `valid` or one of `invalid`."""
    return st.one_of(st.sampled_from(valid), st.sampled_from(invalid))


COUNT = either(["1", "2", "3"], ["-1", "0", "1.5", "x", ""])
SEED = either(["0", "1", "3"], ["-1", "1.5", "x"])
REAL = either(["1e-3", "0.01", "0.5", "2"],
              ["0", "-1", "nan", "inf", "-inf", "1e308", "-1e308", "1e-320", "x"])
TERMS = either(["x1", "x2,x1"], ["x1,x1", ",", "q"])


def flags(draw, options):
    """Up to three of `options` (flag: strategy of its text), as --flag=value."""
    chosen = draw(st.lists(st.sampled_from(sorted(options)), unique=True, max_size=3))
    return [f"{flag}={draw(options[flag])}" for flag in chosen]


@st.composite
def command_lines(draw, fuzz_dir):
    command = draw(st.sampled_from(["train", "predict", "partial-effects", "simulate"]))
    model, out = str(fuzz_dir / "model.json"), str(fuzz_dir / "flags-out")
    if command == "train":
        argv = ["train", "--data", str(fuzz_dir / "valid.csv"), "--model-out", out,
                "--formula", draw(st.sampled_from(["y ~ s(x1) + x2", "y ~ x1", "w ~ s(x2)"])),
                "--num-units", draw(st.sampled_from(["2", "3", "2,2", "0", "2,a"])),
                "--max-iter-backfitting", "2"]
        argv += flags(draw, {
            "--family": either(["gaussian"], ["binomial", "poisson"]),
            "--activation": either(["relu", "linear"], ["tanh"]),
            "--learning-rate": REAL, "--l2-penalty": REAL, "--bf-threshold": REAL,
            "--ls-threshold": REAL, "--batch-size": COUNT, "--max-iter-ls": COUNT,
            "--epochs-per-sweep": COUNT, "--seed": SEED, "--verbose": either(["0", "1"], ["2"]),
            "--w-train": either(["w"], ["x1", "y", "missing"]),
        })
    elif command == "predict":
        argv = ["predict", "--model", model, "--data", str(fuzz_dir / "valid.csv"), "--out", out]
        argv += flags(draw, {"--type": either(["link", "response", "terms"], ["mean"]),
                             "--terms": TERMS})
    elif command == "partial-effects":
        argv = ["partial-effects", "--model", model, "--out", out]
        argv += flags(draw, {"--grid-size": COUNT, "--terms": TERMS})
    else:
        # the covariate range is always given, as its ends can overflow together
        argv = ["simulate", "--out-dir", str(fuzz_dir / "simulated"),
                "--n", draw(st.sampled_from(["2", "5", "20"])),
                "--covariate-low=" + draw(st.sampled_from(["-1", "-1e308", "1e307"])),
                "--covariate-high=" + draw(st.sampled_from(["1", "1e308", "1.5e307", "-1"]))]
        argv += flags(draw, {
            "--alpha0": REAL, "--noise-mean": REAL, "--noise-sd": REAL,
            "--train-fraction": REAL, "--seed": SEED,
            "--true-functions": either(["square", "sine,double"], ["", "cube"]),
        })
    return argv


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_any_small_flag_values_exit_cleanly(fuzz_dir, data):
    simulated = fuzz_dir / "simulated"
    shutil.rmtree(simulated, ignore_errors=True)
    assert_main_exits_cleanly(data.draw(command_lines(fuzz_dir)))
    # what simulate writes, train reads without dropping a row as missing
    for csv in simulated.glob("*.csv"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # a split can leave no rows
            values = np.loadtxt(csv, delimiter=",", skiprows=1, ndmin=2)
        assert np.all(np.isfinite(values)), csv
