"""Malformed model files: every bad payload ends in ModelFileError (exit 2).

Each case edits the payload of a valid file and writes it back with a
fresh checksum, so the loader's payload checks, not the checksum, must
catch it.
"""

import copy
import hashlib
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gannet.cli import main
from gannet.config import FitConfig
from gannet.data import Dataset
from gannet.exceptions import DataValidationError, ModelFileError
from gannet.model import FILE_FORMAT, FILE_VERSION, fit, load_model, save_model


def write_payload(path, payload, version=FILE_VERSION):
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    doc = {
        "format": FILE_FORMAT,
        "version": version,
        "sha256": hashlib.sha256(canonical.encode("utf-8")).hexdigest(),
        "model": payload,
    }
    path.write_text(json.dumps(doc))


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """A small two-term model's payload, plus a directory holding its data."""
    out = tmp_path_factory.mktemp("model_file")
    rng = np.random.default_rng(9)
    n = 60
    x1 = rng.uniform(-1, 1, n)
    x2 = rng.uniform(-1, 1, n)
    data = Dataset({"x1": x1, "x2": x2, "y": np.sin(2 * x1) + x2 + rng.normal(0, 0.1, n)})
    config = FitConfig(num_units=(3,), seed=1, verbose=0, max_iter_backfitting=2)
    save_model(fit(data, "y ~ s(x1) + x2", config), out / "model.json")
    data.to_csv(out / "data.csv")
    payload = json.loads((out / "model.json").read_text())["model"]
    return payload, out


def _set(key, value):
    return lambda node: node.__setitem__(key, value)


# (id, path to the edited node, edit)
MALFORMED = [
    ("truncated_bias", ("terms", 0, "layers", 1), lambda lp: lp["biases"].pop()),
    ("transposed_weights", ("terms", 0, "layers", 1),
     lambda lp: lp.__setitem__("weights", np.asarray(lp["weights"]).T.tolist())),
    ("null_weight", ("terms", 0, "layers", 2, "weights", 0), _set(0, None)),
    ("missing_layer", ("terms", 0, "layers"), lambda layers: layers.pop()),
    ("missing_alpha", (), lambda p: p.pop("alpha")),
    ("terms_as_string", (), _set("terms", "x1")),
    ("unknown_family", ("config",), _set("family", "poisson")),
    ("removed_setting_mu_clamp", ("config",), _set("mu_clamp", 1e-5)),
    ("removed_setting_beta1", ("config",), _set("beta1", 5)),
    ("fractional_batch_size", ("config",), _set("batch_size", 2.5)),
    ("string_num_units", ("config",), _set("num_units", "12")),
    ("tanh_activation", ("config",), _set("activation", "tanh")),
    ("two_hidden_layers", ("config",), _set("num_units", [3, 3])),
    ("renamed_term", ("terms", 1), _set("name", "x3")),
    ("swapped_terms", ("terms",), lambda terms: terms.reverse()),
    ("linear_as_smooth", (), _set("formula", "y ~ s(x1) + s(x2)")),
    ("string_slope", ("terms", 1), _set("slope", "steep")),
    ("string_loss", ("trace", 0, "per_term_epoch_losses"), _set("x1", ["low"])),
    ("losses_as_list", ("trace", 0), _set("per_term_epoch_losses", [1.0])),
    ("extra_loss_term", ("trace", 0, "per_term_epoch_losses"),
     lambda losses: losses.__setitem__("nosuch", list(losses["x1"]))),
    ("missing_loss_term", ("trace", 0, "per_term_epoch_losses"), lambda losses: losses.pop("x1")),
    ("short_loss_list", ("trace", 0, "per_term_epoch_losses", "x2"), lambda losses: losses.pop()),
    ("infinite_n", (), _set("n", float("inf"))),
    ("fractional_n", (), _set("n", 2.5)),
    ("negative_n", (), _set("n", -3)),
    ("zero_n", (), _set("n", 0)),
    ("boolean_n", (), _set("n", True)),
    ("string_n", (), _set("n", "7")),
    ("formula_as_number", (), _set("formula", 5)),
]


def _node(payload, path):
    for key in path:
        payload = payload[key]
    return payload


@pytest.mark.parametrize("path,edit", [c[1:] for c in MALFORMED], ids=[c[0] for c in MALFORMED])
def test_malformed_payload_rejected(saved, tmp_path, capsys, path, edit):
    payload, out = saved
    payload = copy.deepcopy(payload)
    edit(_node(payload, path))
    model = tmp_path / "bad.json"
    write_payload(model, payload)
    with pytest.raises(ModelFileError, match="malformed"):
        load_model(model)
    capsys.readouterr()
    assert main(["summary", "--model", str(model)]) == 2
    assert capsys.readouterr().err.startswith("gannet: error: ")


@pytest.mark.parametrize("version", [1, 2, 3])
def test_old_file_version_rejected(saved, tmp_path, capsys, version):
    payload, _ = saved
    model = tmp_path / f"v{version}.json"
    write_payload(model, payload, version=version)
    with pytest.raises(ModelFileError, match=f"unsupported model file version {version}"):
        load_model(model)
    assert main(["summary", "--model", str(model)]) == 2


@pytest.mark.parametrize("kwargs", [
    {"type": "link"}, {"type": "response"}, {"type": "terms"},
    {"type": "terms", "terms": []}, {"type": "terms", "terms": ["x2"]},
], ids=["link", "response", "terms", "no_terms", "one_term"])
def test_loaded_model_needs_data_to_predict(saved, tmp_path, kwargs):
    payload, out = saved
    write_payload(tmp_path / "m.json", payload)
    model = load_model(tmp_path / "m.json")
    with pytest.raises(DataValidationError, match="pass the data"):
        model.predict(**kwargs)
    assert model.predict(Dataset.from_csv(out / "data.csv"), **kwargs).shape[0] == 60


def test_unedited_payload_loads(saved, tmp_path):
    payload, _ = saved
    write_payload(tmp_path / "m.json", payload)
    assert list(load_model(tmp_path / "m.json").terms) == ["x1", "x2"]


# ----------------------------------------------------------------------
# fuzzing: random edits anywhere in the payload
# ----------------------------------------------------------------------

JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 3), st.floats(), st.text(max_size=4),
    st.just([]), st.just({}), st.just([1.0]), st.just("tanh"),
)


def _paths(node, prefix=()):
    """Every dict entry and list item, without descending into number lists."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list) and not all(isinstance(v, (int, float)) for v in node):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


@st.composite
def mutated(draw, payload):
    payload = copy.deepcopy(payload)
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(payload))
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent, key = _node(payload, path[:-1]), path[-1]
        value = parent[key]
        op = draw(st.sampled_from(["delete", "replace", "shrink", "grow"]))
        if op == "delete":
            del parent[key]
        elif op == "shrink" and isinstance(value, (list, str)):
            parent[key] = value[:-1]
        elif op == "grow" and isinstance(value, list):
            parent[key] = value + value[-1:] or [0.0]
        else:
            parent[key] = draw(JUNK)
    return payload


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_fuzzed_payload_loads_or_raises_model_file_error(saved, data):
    payload, out = saved
    write_payload(out / "fuzz.json", data.draw(mutated(payload)))
    try:
        load_model(out / "fuzz.json")
    except ModelFileError:
        pass


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_fuzzed_payload_exit_codes(saved, data):
    payload, out = saved
    model = out / "fuzz-cli.json"
    write_payload(model, data.draw(mutated(payload)))
    commands = [
        ["predict", "--model", str(model), "--data", str(out / "data.csv"),
         "--out", str(out / "pred.csv"), "--type", "terms"],
        ["summary", "--model", str(model)],
        ["partial-effects", "--model", str(model), "--out", str(out / "pe.csv"),
         "--grid-size", "5"],
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # out-of-range and overflow warnings
        for argv in commands:
            assert main(argv) in (0, 2), argv
