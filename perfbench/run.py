"""bnsharp benchmark: one workload, timed end to end, outputs checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (or any checkout holding ``src/bnsharp``).
Workloads are listed in workloads.py and explained in README.md.

The run first self-tests the references (refs.py) and computes the ones
the workload needs, outside any timed part.  It then starts the workload in
a fresh process (worker.py) with BNSHARP_WORKERS removed and every BLAS /
OpenMP thread count set to 1, preceded, when untraced, by SETUP_PROBES
processes that only set up.  Each round's outputs are checked against the
references.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (solve_s, setup_s,
peak_rss_mb, lower_bound_disk_a8); with --trace 1 they are the per-layer
ones from tracing.py plus trace.solve_s, the traced round time.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import refs
from speed import KERNEL_REF_S, kernel
from tracing import LAYER_UNITS
from workloads import WORKLOADS, operations

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Processes started only to time set-up; with the worker's own set-up,
#: setup_s is the median of SETUP_PROBES + 1 samples.
SETUP_PROBES = 4
#: A worker that has not finished by then is killed and the run fails.
WORKER_TIMEOUT_S = 150
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Reported for lower_bound_disk_a8 on workloads that do not solve the a = 8
#: disk problem, so that every run prints every end-to-end metric.
NOT_MEASURED = 1.0


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("BNSHARP_WORKERS", None)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    return env


def start_worker(args, out_dir: str, setup_only: bool) -> tuple[float, dict]:
    """Run worker.py to completion; return (its setup time at the reference
    speed, its result).  The speed is sampled just before the start."""
    argv = [sys.executable, str(HERE / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--out", out_dir]
    if setup_only:
        argv.append("--setup-only")
    speed = KERNEL_REF_S / statistics.median(kernel() for _ in range(5))
    started = time.monotonic()
    proc = subprocess.run(argv, env=worker_env(), stdout=sys.stderr,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with code {proc.returncode}")
    with open(os.path.join(out_dir, "result.json")) as fh:
        result = json.load(fh)
    return (result["ready"] - started) * speed, result


def check_round(workload: str, outputs: dict, certificates: dict) -> list:
    if workload == "sup_sup":
        return checks.sup_sup(outputs, certificates)
    if workload == "l1_sup_square":
        return checks.l1_sup_square(outputs)
    return checks.closed_and_continuum(outputs)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "bnsharp" / "__init__.py").is_file():
        print(f"no bnsharp package under {SRC}", file=sys.stderr)
        return 2

    failures = refs.self_test()
    certificates = {}
    if args.workload == "sup_sup":
        certificates = {a: refs.disk_laplacian_certificate(a)
                        for a in (4.0, 8.0)}

    OUT.mkdir(exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        setups = [] if args.trace else [
            start_worker(args, out_dir, setup_only=True)[0]
            for _ in range(SETUP_PROBES)]
        setup_s, result = start_worker(args, out_dir, setup_only=False)
        setups.append(setup_s)
        if args.trace:
            os.replace(os.path.join(out_dir, "spans.jsonl"),
                       OUT / f"spans-{args.workload}.jsonl")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    rounds = result["rounds"]
    n_ops = len(operations(args.workload, args.seed))
    failed = 0
    for r in rounds:
        failed += sum(out["rc"] != 0 for out in r["outputs"].values())
        failures += check_round(args.workload, r["outputs"], certificates)
    solve_s = statistics.median(r["solve_s"] for r in rounds)
    if args.trace:
        metrics = {name: {"value": result["layers"][name], "unit": unit}
                   for name, unit in LAYER_UNITS.items()}
        metrics["trace.solve_s"] = {"value": solve_s, "unit": "s"}
    else:
        bound = NOT_MEASURED
        if args.workload == "sup_sup":
            bound = checks.lower_bound_disk_a8(rounds[0]["outputs"])
            if bound is None:
                failures.append("no a = 8 disk row")
                bound = 0.0
        metrics = {
            "solve_s": {"value": solve_s, "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
            "lower_bound_disk_a8": {"value": bound, "unit": "1"},
        }
    for msg in failures:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']!r} {m['unit']}")
    wall_s = statistics.median(r["wall_s"] for r in rounds)
    print(f"{args.workload} solve wall time = {wall_s!r} s")
    for name in rounds[0]["outputs"]:
        op_s = statistics.median(r["outputs"][name]["seconds"] for r in rounds)
        print(f"{args.workload} operation {name} = {op_s!r} s")
    print(f"{args.workload} rounds = {len(rounds)}, operations attempted = "
          f"{n_ops * len(rounds)}, failed = {failed}")
    print(json.dumps({"correct": not failures,
                      "attempted": n_ops * len(rounds), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
