"""Fit-and-score benchmark for gannet.

    python3 perfbench/run.py --workload gauss-1024 --seed 1 --seconds 28 --trace 0

Runs one workload in a fresh child process (perfbench/worker.py) with one
closed-loop caller: the next operation starts when the previous one ends.
The child imports gannet from src/ of this checkout with
OPENBLAS_NUM_THREADS=1 and OMP_NUM_THREADS=1, so that BLAS threads do not
contend for the cores. Prints every metric with its unit, then, as the
last line, one JSON object {"correct", "attempted", "failed", "metrics"}:
the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1. The full record of the run, with machine facts and every
check, goes to perfbench/results/. --smoke runs toy sizes for the tests.
See perfbench/NOTES.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("gauss-1024", "binom-deep", "score")
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
# a run must end within this many seconds, child processes included
DEADLINE_S = 175.0
# fresh interpreters timed importing gannet; setup_s adds their median
IMPORT_PROBES = 5
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import gannet; print(time.perf_counter() - t)"
)


class BenchError(Exception):
    """A step of the run failed; the run prints no result."""


def remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("deadline passed")
    return left


def child(label: str, cmd: list[str], env: dict, deadline: float) -> str:
    """Run a child to completion (killed at the deadline); return its stdout."""
    try:
        proc = subprocess.run(
            cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=remaining(deadline)
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{label} ran past the deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"{label} exited with code {proc.returncode}")
    return proc.stdout


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the "end_to_end" or "per_layer" metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout, or 'unknown' when it is not a git work tree."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="toy sizes, for the benchmark's tests")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    src = ROOT / "src"
    work = HERE / "work"
    results = HERE / "results"
    work.mkdir(exist_ok=True)
    results.mkdir(exist_ok=True)
    env = {**os.environ, **THREAD_PINS, "PYTHONPATH": str(src), "TMPDIR": str(work)}

    try:
        imports = [
            float(child("import probe", [sys.executable, "-c", IMPORT_PROBE], env, deadline).split()[-1])
            for _ in range(IMPORT_PROBES)
        ]
        out = child(
            "worker",
            [
                sys.executable,
                str(HERE / "worker.py"),
                f"--workload={args.workload}",
                f"--seed={args.seed}",
                f"--seconds={args.seconds}",
                f"--trace={args.trace}",
                f"--src={src}",
                f"--work={work}",
                f"--results={results}",
                *(["--smoke"] if args.smoke else []),
            ],
            env,
            deadline,
        )
        report = json.loads(out.strip().splitlines()[-1])
    except (BenchError, ValueError, IndexError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted, failed = report["attempted"], report["failed"]
    if args.trace:
        units = metric_units("per_layer")
        values = report["layers"]
    else:
        units = metric_units("end_to_end")
        values = {
            **report["medians"],
            "setup_s": statistics.median(imports) + report["setup_build_s"],
            "peak_rss_mb": report["peak_rss_mb"],
        }
    missing = [name for name in units if name not in values]
    if missing and not failed:
        print(f"perfbench: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    # a metric left without samples by failed operations reads 0; correct is false then
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in units.items()}
    facts = {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": report["numpy"],
        "blas": report["blas"],
        "thread_pins": THREAD_PINS,
        "git_commit": git_commit(),
        "source_sha256": report["source_sha256"],
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "machine": facts,
        "error_rate": failed / attempted,
        "metrics": metrics,
        "import_s": imports,
        "worker": report,
    }
    suffix = "-smoke" if args.smoke else ""
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{suffix}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("machine " + json.dumps(facts))
    for metric, m in metrics.items():
        print(f"{metric:32s} {m['value']:.6g} {m['unit']}")
    print(f"{'error_rate':32s} {failed / attempted:.6g} ratio ({failed}/{attempted} failed)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
