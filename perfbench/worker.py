"""One workload in one fresh process.

Usage (started by run.py, with ``src`` on PYTHONPATH):

    python3 worker.py --workload NAME --seed N --seconds S --trace 0|1 \
        --out DIR [--setup-only]

The worker imports bnsharp, numpy and scipy and builds the CLI parser; the
moment that is done is its setup end, written as ``ready`` on the
process-wide monotonic clock.  With --setup-only it stops there.  Otherwise
it runs whole rounds of the workload until --seconds have passed (at least
one round) and writes ``result.json`` to --out: per round the wall time,
the same at the reference speed (speed.py) and each operation's outputs;
the process's peak RSS; and with --trace 1 the per-layer metrics and a
span file.
"""

import argparse
import csv
import json
import os
import resource
import time
import traceback

from speed import Sampler, at_reference_speed
from tracing import Tracer
from workloads import operations, run_api


def setup() -> float:
    """Import bnsharp (with numpy and scipy) and build the CLI parser; return
    the monotonic time at which the first operation can run."""
    import bnsharp.cli
    bnsharp.cli.build_parser()
    return time.monotonic()


def run_operation(op, seed: int, out_dir: str, cli) -> dict:
    """Run one operation; an exception counts it as failed (rc 1)."""
    t0 = time.perf_counter()
    try:
        if not op.argv:
            out = {"rc": 0, **run_api(op.name, seed)}
        else:
            path = os.path.join(out_dir, op.name + ".csv")
            out = {"rc": cli.main([*op.argv, "--out", path]), "path": path}
    except Exception:
        traceback.print_exc()
        out = {"rc": 1}
    out["seconds"] = time.perf_counter() - t0
    return out


def read_outputs(result: dict) -> None:
    """Replace a CLI result's path by the rows and manifest results."""
    path = result.pop("path", None)
    if path is None or result["rc"] != 0:
        return
    with open(path, newline="") as fh:
        result["rows"] = list(csv.DictReader(fh))
    with open(path + ".manifest.json") as fh:
        result["manifest"] = json.load(fh).get("results", {})


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    result = {"ready": setup()}
    if not args.setup_only:
        import bnsharp.cli as cli
        tracer = Tracer() if args.trace else None
        if tracer is not None:
            tracer.install()
        ops = operations(args.workload, args.seed)
        rounds = []
        sampler = Sampler()
        sampler.start()
        try:
            start = time.perf_counter()
            while not rounds or time.perf_counter() - start < args.seconds:
                t0 = time.perf_counter()
                outputs = [run_operation(op, args.seed, args.out, cli)
                           for op in ops]
                t1 = time.perf_counter()
                for out in outputs:
                    read_outputs(out)
                rounds.append({
                    "wall_s": t1 - t0,
                    "solve_s": at_reference_speed(t1 - t0,
                                                  sampler.between(t0, t1)),
                    "outputs": dict(zip((op.name for op in ops), outputs))})
        finally:
            sampler.stop()
        result["rounds"] = rounds
        result["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            result["layers"] = tracer.layer_metrics(len(rounds))
            tracer.dump(os.path.join(args.out, "spans.jsonl"))
    with open(os.path.join(args.out, "result.json"), "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
