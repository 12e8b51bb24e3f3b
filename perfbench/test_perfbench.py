"""Tests of the benchmark itself, at toy sizes (--smoke).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import worker  # noqa: E402
import workloads  # noqa: E402
from run import WORKLOADS  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

# the metric names the benchmark was specified with, which BENCHMARK.json
# must list; error_rate is reported as failed/attempted on the result line
# and in the run record
END_TO_END = [
    "setup_s", "fit_s", "fit_cpu_s", "train_rows_per_s", "heldout_loss",
    "score_s", "score_rows_per_s", "peak_rss_mb",
]
PER_LAYER = [
    "train_one_epoch.calls", "train_one_epoch.s", "adam_apply.calls", "adam_apply.s",
    "batch_grad.s", "forward.calls", "forward.rows", "forward.s",
    "forward.temp_bytes_computed", "us_per_adam_step",
    "backfit.calls", "backfit.s", "sweeps", "smooth_fit.s", "linear_fit.s",
    "backfit.self_s", "converged_frac",
    "local_scoring.iterations", "local_scoring.self_s", "families.s",
    "data.from_csv.rows", "data.from_csv.s", "data.write_csv.s",
    "model.save_model.s", "model.load_model.s", "model.file_bytes",
    "model.predict.rows", "model.predict.s",
    "simulation.generate.s", "process.sys_s", "trace.overhead_s",
]


def bench(workload, trace, seed=3, script=ROOT / "perfbench" / "run.py", cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_line(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def record(workload, trace, seed=3) -> dict:
    path = ROOT / "perfbench" / "results" / f"{workload}-seed{seed}-trace{trace}-smoke.json"
    return json.loads(path.read_text())


def test_benchmark_json_names_every_specified_metric():
    assert [m["name"] for m in BENCH["end_to_end"]] == END_TO_END
    assert [m["name"] for m in BENCH["per_layer"]] == PER_LAYER
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = bench(workload, trace)
    result = result_line(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    spec = BENCH["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
    for m in spec:
        assert re.search(rf"^{re.escape(m['name'])}\s+\S+ {re.escape(m['unit'])}$", proc.stdout, re.M)
    assert result["attempted"] >= 1
    assert result["correct"] == (result["failed"] == 0)
    rec = record(workload, trace)
    names = {m["name"] for m in spec}
    if trace:
        assert names <= set(rec["worker"]["layers"])
    else:  # run.py adds setup_s and peak_rss_mb to the worker's medians
        assert names - {"setup_s", "peak_rss_mb"} <= set(rec["worker"]["medians"])
    assert rec["error_rate"] == result["failed"] / result["attempted"]
    assert set(rec["machine"]) == {
        "nproc", "cpu_model", "python", "numpy", "blas", "thread_pins", "git_commit", "source_sha256",
    }
    assert rec["machine"]["thread_pins"] == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def test_failed_output_check_raises_error_rate(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(workloads.BinomWorkload, "check", lambda self, ctx, result: {"forced": False})
    code = worker.main([
        "--workload=binom-deep", "--seed=3", "--seconds=0", "--trace=0", "--smoke",
        f"--src={ROOT / 'src'}", f"--work={tmp_path}", f"--results={tmp_path}",
    ])
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert out["attempted"] >= 1 and out["failed"] == out["attempted"]


def test_raising_operation_counts_as_failed(monkeypatch, capsys, tmp_path):
    def boom(self, ctx, samples):
        raise RuntimeError("injected")

    monkeypatch.setattr(workloads.BinomWorkload, "run", boom)
    worker.main([
        "--workload=binom-deep", "--seed=3", "--seconds=0", "--trace=0", "--smoke",
        f"--src={ROOT / 'src'}", f"--work={tmp_path}", f"--results={tmp_path}",
    ])
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["failed"] == out["attempted"] == 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_work_counts_repeat_for_a_seed(workload):
    first = result_line(bench(workload, 1, seed=5))["metrics"]
    second = result_line(bench(workload, 1, seed=5))["metrics"]
    for name in worker.EXACT_COUNTS:
        assert first[name]["value"] == second[name]["value"], name
    checks = record(workload, 1, seed=5)["worker"]["checks"][-1]
    assert all(checks[f"repeats_exactly:{name}"] for name in worker.EXACT_COUNTS)
    assert all(v for k, v in checks.items() if k.startswith("traced_count_matches:"))


def test_seed_makes_the_inputs():
    a_train, a_test = workloads.binomial_data(1, 500)
    b_train, _ = workloads.binomial_data(1, 500)
    c_train, _ = workloads.binomial_data(2, 500)
    assert np.array_equal(a_train.column("x1"), b_train.column("x1"))
    assert not np.array_equal(a_train.column("x1")[:10], c_train.column("x1")[:10])
    assert a_train.n + a_test.n == 500


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench")
    proc = bench("binom-deep", 0, script=tmp_path / "perfbench" / "run.py", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
