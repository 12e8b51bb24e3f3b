"""Child process of the benchmark: runs one workload and prints its figures.

Started by run.py with the BLAS thread pins in its environment; prints
one JSON object as the last line of its standard output. With --trace 0
the operation runs untraced, again and again while the next one is
expected to end within --seconds (at least once). With --trace 1 it runs
once untraced and once traced; the traced operation gives the per-layer
metrics, and the difference between the two is the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import gannet
import numpy as np

from tracer import Tracer, layer_metrics
from workloads import make_workloads, timed

# set-up repeats per run; setup_s reports their median
SETUP_REPEATS = 5
# work counts that must repeat exactly across runs of the same code and seed
EXACT_COUNTS = (
    "adam_apply.calls",
    "sweeps",
    "local_scoring.iterations",
    "forward.rows",
    "forward.temp_bytes_computed",
    "model.file_bytes",
)


def source_digest(*dirs: Path) -> str:
    """SHA-256 over the .py files under dirs; identifies the code measured."""
    h = hashlib.sha256()
    for d in dirs:
        for path in sorted(d.rglob("*.py")):
            h.update(path.relative_to(d).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def blas_facts() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        return {"name": "unknown", "version": "unknown"}
    return {"name": blas.get("name", "unknown"), "version": blas.get("version", "unknown")}


class Ledger:
    """Exact work counts by (workload, seed, size, source digest), kept on disk.

    A traced run whose key is already present must reproduce every count.
    """

    def __init__(self, path: Path):
        self.path = path

    def check(self, key: str, counts: dict) -> dict[str, bool]:
        entries = json.loads(self.path.read_text()) if self.path.exists() else {}
        previous = entries.setdefault(key, counts)
        self.path.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n")
        return {f"repeats_exactly:{name}": previous.get(name) == value for name, value in counts.items()}


def run_op(workload, ctx, samples, tracer=None):
    """One operation, traced when a tracer is given, then its checks outside
    the trace. Returns (result, timing, checks); an exception is a failed
    operation with result None."""
    try:
        with tracer or contextlib.nullcontext():
            result, timing = timed(lambda: workload.run(ctx, samples))
        checks = workload.check(ctx, result)
    except Exception:
        traceback.print_exc()
        return None, None, {"completed": False}
    return result, timing, {**checks, "completed": True}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--src", type=Path, required=True)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--results", type=Path, required=True)
    args = ap.parse_args(argv)

    package_dir = Path(gannet.__file__).resolve().parent
    if package_dir.parent != args.src.resolve():
        print(f"worker: gannet imported from {package_dir}, not from {args.src}", file=sys.stderr)
        return 2
    gannet_digest = source_digest(package_dir)
    # the work counts depend on the benchmark's own code as well as gannet's
    code_digest = source_digest(package_dir, Path(__file__).resolve().parent)
    workload = make_workloads(args.smoke)[args.workload]
    tracing = bool(args.trace)

    samples = defaultdict(list)
    setup_s = []
    setup_tracer = Tracer()
    for i in range(SETUP_REPEATS):
        traced = tracing and i == SETUP_REPEATS - 1
        with setup_tracer if traced else contextlib.nullcontext():
            ctx, t = timed(lambda: workload.setup(args.seed, args.work, samples))
        setup_s.append(t.wall)

    checks_by_op = []
    fingerprints = []
    op_s = []
    start = time.perf_counter()
    while True:
        result, _, checks = run_op(workload, ctx, samples)
        if result is not None:
            op_s.append(result.op_s)
            fingerprints.append(workload.fingerprint(result))
            checks["repeats_first_output_exactly"] = fingerprints[-1] == fingerprints[0]
        checks_by_op.append(checks)
        # Stop before an operation that would end past the window, judged by
        # the mean so far, so that the run time stays near --seconds whether
        # an operation takes 5 s or 30 s. A traced run needs just one
        # untraced operation to compare against.
        elapsed = time.perf_counter() - start
        if tracing or elapsed + elapsed / len(checks_by_op) > args.seconds:
            break

    layers = {}
    if tracing:
        op_tracer = Tracer()
        result, timing, checks = run_op(workload, ctx, defaultdict(list), op_tracer)
        layers = layer_metrics(op_tracer.spans, setup_tracer.spans)
        layers["process.sys_s"] = timing.sys if timing else 0.0
        layers["trace.overhead_s"] = (
            result.op_s - statistics.median(op_s) if result is not None and op_s else 0.0
        )
        if result is not None:
            checks["repeats_first_output_exactly"] = (
                bool(fingerprints) and workload.fingerprint(result) == fingerprints[0]
            )
            for name, value in workload.counts(ctx, result).items():
                checks[f"traced_count_matches:{name}"] = layers[name] == value
            key = f"{args.workload}|seed={args.seed}|smoke={args.smoke}|code={code_digest}"
            ledger = Ledger(args.results / "counts.json")
            checks.update(ledger.check(key, {name: layers[name] for name in EXACT_COUNTS}))
        checks_by_op.append(checks)
        spans_path = args.results / f"spans-{args.workload}-seed{args.seed}.jsonl"
        spans_path.unlink(missing_ok=True)
        setup_tracer.write_jsonl(spans_path, "setup")
        op_tracer.write_jsonl(spans_path, "op")

    failed = sum(not all(c.values()) for c in checks_by_op)
    out = {
        "attempted": len(checks_by_op),
        "failed": failed,
        "checks": checks_by_op,
        "setup_build_s": statistics.median(setup_s),
        "samples": dict(samples),
        "medians": {k: statistics.median(v) for k, v in samples.items()},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layers": layers,
        "numpy": np.__version__,
        "blas": blas_facts(),
        "source_sha256": gannet_digest,
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
