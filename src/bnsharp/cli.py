"""Experiment runner: spec parsing, sweeps, CSV/JSON persistence.

Subcommands
-----------
constant       closed forms and bounds for one parameter set
optimize       certified lower bound from the optimizer (and at p = q = inf
               for small problems an LP dual upper bound, in the manifest)
converge       periodic constant along a scale sweep (limit experiments)
levitan-check  periodization property checks, one CSV row per property
candidates     continuum lower-bound candidates vs closed forms

Results go to a CSV written atomically (temp file + rename) with a JSON
run manifest alongside recording the config hash, seed, and versions.
Re-running a manifest reproduces the CSV byte for byte except for the
trailing runtime_ms column, under the same BLAS thread setting: the
manifest records the thread variables the run saw, since OpenBLAS may round
small matrix products differently at another thread count and the
optimizer's iterates can follow that.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import tempfile
import time
from collections import Counter
from dataclasses import MISSING, asdict, dataclass, fields

import numpy as np
import scipy

from . import __version__
from .bandlimited import akhiezer_family, cs_extremal, separable_sum, \
    sinc_sq_half_kernel
from .body import BodySpecError, ConvexBody, parse_body
from .constants import OptimizerConfig, SharpConstantEstimate, \
    candidate_lower_bound_E, closed_form, crude_upper, limit_study, \
    optimize_full
from .levitan import check_norm_contraction, levitan_coefficients
from .trigpoly import DifferentialOperator

CSV_HEADER = "p,q,operator,body,a,kind,value,tolerance,seed,runtime_ms"
LEVITAN_HEADER = "a,property,bound,observed,slack"


class OperatorSpecError(ValueError):
    """Malformed operator specification string."""


def operator_parse(spec: str, m: int) -> DifferentialOperator:
    """Parse an operator specification.

    Grammar: terms joined by " + ", each term "<alpha>:<re>,<im>" with alpha
    a comma-separated multi-index of length m (e.g. "1,1:1,0" for the mixed
    second derivative with coefficient 1).  "laplacian:<m>" expands to the
    sum of pure second derivatives.  All terms must share one total order.
    """
    spec = spec.strip()
    if spec.lower().startswith("laplacian"):
        parts = spec.split(":")
        if len(parts) != 2 or not parts[1].isdigit():
            raise OperatorSpecError(f"expected laplacian:<m>, got {spec!r}")
        dim = int(parts[1])
        if dim != m:
            raise OperatorSpecError(
                f"laplacian dimension {dim} disagrees with --m {m}")
        return DifferentialOperator.laplacian(dim)
    if spec.lower() in ("identity", "id", "d0"):
        return DifferentialOperator.identity(m)
    terms = {}
    for pos, chunk in enumerate(spec.split(" + ")):
        bits = chunk.strip().split(":")
        if len(bits) != 2:
            raise OperatorSpecError(
                f"term {pos} ({chunk.strip()!r}): expected <alpha>:<re>,<im>")
        try:
            alpha = tuple(int(t) for t in bits[0].split(","))
        except ValueError:
            raise OperatorSpecError(
                f"term {pos}: bad multi-index {bits[0]!r}") from None
        if len(alpha) != m:
            raise OperatorSpecError(
                f"term {pos}: multi-index length {len(alpha)} != m={m}")
        try:
            nums = [float(t) for t in bits[1].split(",")]
        except ValueError:
            raise OperatorSpecError(
                f"term {pos}: bad coefficient {bits[1]!r}") from None
        if len(nums) != 2:
            raise OperatorSpecError(
                f"term {pos}: coefficient needs exactly re,im")
        terms[alpha] = terms.get(alpha, 0j) + complex(nums[0], nums[1])
    orders = {sum(a) for a in terms}
    if len(orders) != 1:
        raise OperatorSpecError(
            f"mixed total orders {sorted(orders)}: operator must be "
            "homogeneous")
    try:
        return DifferentialOperator(m, orders.pop(), terms)
    except ValueError as exc:
        raise OperatorSpecError(str(exc)) from exc


def parse_exponent(text: str) -> float:
    if text.strip().lower() in ("inf", "infty", "infinity"):
        return math.inf
    value = float(text)
    if value <= 0:
        raise ValueError(f"exponent must be positive, got {text!r}")
    return value


def parse_sweep(text: str) -> list[float]:
    """Either a comma list "4,8,16" or "start:stop:count:spacing".

    Every scale must be finite (ValueError otherwise).
    """
    text = text.strip()

    def finite(t: str) -> float:
        value = float(t)
        if not math.isfinite(value):
            raise ValueError(f"sweep {text!r}: scale {t!r} is not finite")
        return value

    if ":" in text:
        bits = text.split(":")
        if len(bits) != 4:
            raise ValueError(
                f"sweep {text!r}: expected start:stop:count:lin|geom")
        start, stop = finite(bits[0]), finite(bits[1])
        count = int(bits[2])
        spacing = bits[3].lower()
        if count < 1:
            raise ValueError("empty sweep")
        if spacing in ("geom", "geometric"):
            vals = np.geomspace(start, stop, count)
        elif spacing in ("lin", "linear"):
            vals = np.linspace(start, stop, count)
        else:
            raise ValueError(f"unknown spacing {spacing!r}")
        return [float(v) for v in vals]
    vals = [finite(t) for t in text.split(",") if t.strip()]
    if not vals:
        raise ValueError("empty sweep")
    return vals


# ---------------------------------------------------------------------------
# experiment configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment, fully determined; a run's manifest stores it, and
    ``--config`` replays it."""

    kind: str
    body: str = "cube:1"
    m: int = 1
    operator: str = "identity"
    p: str = "2"
    q: str = "inf"
    a: str = "1"
    restarts: int = OptimizerConfig.restarts
    iterations: int = OptimizerConfig.iterations
    seed: int = OptimizerConfig.seed
    p_list: str = "0.5,1,2,inf"
    eps: float = 1e-8
    out: str = "results.csv"

    def digest(self) -> str:
        return hashlib.sha256(
            json.dumps(asdict(self), sort_keys=True).encode()).hexdigest()


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--body",
                    help="body spec: pi:1,2 | cube:1 | ball:1 | lp:1,2:3")
    sp.add_argument("--m", type=int, help="ambient dimension")
    sp.add_argument("--operator",
                    help='operator spec, e.g. "1,1:1,0" or laplacian:2')
    sp.add_argument("--p")
    sp.add_argument("--q")
    sp.add_argument("--a", help="scale or sweep: 4 | 4,8,16 | 1:100:25:geom")
    sp.add_argument("--restarts", type=int)
    sp.add_argument("--iterations", type=int)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--p-list", help="exponent list for levitan-check")
    sp.add_argument("--eps", type=float,
                    help="periodization truncation tolerance")
    sp.add_argument("--out")
    sp.add_argument("--config",
                    help="JSON file of flag values, or a run manifest "
                         "(flags still win)")
    # the defaults live in ExperimentConfig alone
    sp.set_defaults(**{f.name: f.default for f in fields(ExperimentConfig)
                       if f.default is not MISSING})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bnsharp",
        description="Sharp constants of Bernstein-Nikolskii inequalities")
    sub = parser.add_subparsers(dest="kind", required=True)
    for name, doc in [
            ("constant", "closed forms and bounds for one parameter set"),
            ("optimize", "multistart lower-bound optimizer"),
            ("converge", "periodic constant along a scale sweep"),
            ("levitan-check", "periodization property checks"),
            ("candidates", "continuum lower-bound candidates")]:
        sp = sub.add_parser(name, help=doc)
        _add_common(sp)
    return parser


def config_from_args(argv: list[str]) -> ExperimentConfig:
    parser = build_parser()
    # first pass just to find --config; defaults from the file, flags win
    pre, _ = parser.parse_known_args(argv)
    if pre.config:
        with open(pre.config) as fh:
            stored = json.load(fh)
        if not isinstance(stored, dict):
            raise ValueError(f"{pre.config}: expected a JSON object")
        # a run manifest keeps its flag values in its config block
        if isinstance(stored.get("config"), dict):
            stored = stored["config"]
        stored = {k.replace("-", "_"): v for k, v in stored.items()}
        kind = stored.pop("kind", pre.kind)
        if kind != pre.kind:
            raise ValueError(f"{pre.config}: kind {kind!r} is not the "
                             f"subcommand {pre.kind!r}")
        unknown = sorted(set(stored) -
                         {f.name for f in fields(ExperimentConfig)})
        if unknown:
            raise ValueError(f"{pre.config}: unknown keys {unknown}")
        for sp in parser._subparsers._group_actions[0].choices.values():
            sp.set_defaults(**stored)
    ns = parser.parse_args(argv)
    return ExperimentConfig(**{f.name: getattr(ns, f.name)
                               for f in fields(ExperimentConfig)})


# ---------------------------------------------------------------------------
# row formatting and atomic persistence
# ---------------------------------------------------------------------------

def _fmt_float(x: float) -> str:
    if math.isinf(x):
        return "inf"
    return repr(float(x))


def estimate_row(est: SharpConstantEstimate, seed: int,
                 runtime_ms: float) -> str:
    return ",".join([
        _fmt_float(est.p), _fmt_float(est.q),
        f'"{est.operator}"', f'"{est.body}"',
        "limit" if est.a is None else _fmt_float(est.a),
        est.kind, repr(float(est.value)), repr(float(est.tolerance)),
        str(seed), f"{runtime_ms:.0f}"])


def write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_manifest(path: str, config: ExperimentConfig,
                   extra: dict | None = None) -> None:
    manifest = {
        "config": asdict(config),
        "config_sha256": config.digest(),
        "seed": config.seed,
        "versions": {
            "bnsharp": __version__,
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        # as the run saw them; None where unset
        "blas_threads": {var: os.environ.get(var) for var in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    if extra:
        manifest["results"] = extra
    write_atomic(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# the experiments
# ---------------------------------------------------------------------------

def _opt_config(cfg: ExperimentConfig) -> OptimizerConfig:
    return OptimizerConfig(restarts=cfg.restarts, seed=cfg.seed,
                           iterations=cfg.iterations)


def _problem(cfg: ExperimentConfig) -> tuple:
    """The body, operator and exponents p, q that ``cfg`` names."""
    return (parse_body(cfg.body, cfg.m), operator_parse(cfg.operator, cfg.m),
            parse_exponent(cfg.p), parse_exponent(cfg.q))


def run_constant(cfg: ExperimentConfig) -> tuple[list[str], dict]:
    body, op, p, q = _problem(cfg)
    rows = []
    for i, a in enumerate(parse_sweep(cfg.a)):
        t0 = time.perf_counter()
        ests = [closed_form(p, q, body, op, a)]
        if i == 0:
            # continuum rows do not depend on the sweep point
            ests.append(closed_form(p, q, body, op))
            ests.append(crude_upper(p, q, op, body))
        ms = (time.perf_counter() - t0) * 1000.0
        rows.extend(estimate_row(e, cfg.seed, ms) for e in ests
                    if e is not None)
    return rows, {}


def run_optimize(cfg: ExperimentConfig) -> tuple[list[str], dict]:
    body, op, p, q = _problem(cfg)
    rows = []
    extra = {}
    for a in parse_sweep(cfg.a):
        t0 = time.perf_counter()
        out = optimize_full(p, q, op, a, body, _opt_config(cfg))
        ms = (time.perf_counter() - t0) * 1000.0
        rows.append(estimate_row(out.estimate, cfg.seed, ms))
        extra[f"restart_values_a={a:g}"] = list(out.restart_values)
        extra[f"unknowns_a={a:g}"] = list(out.unknowns)
        if out.upper is None:
            extra[f"ascent_stops_a={a:g}"] = dict(
                Counter(s.reason for s in out.ascent_stops))
            extra[f"best_rung_a={a:g}"] = list(out.best_rungs)
        else:
            lps, active, residual, iterations = out.lp
            extra[f"upper_bound_a={a:g}"] = out.upper.value
            extra[f"lp_a={a:g}"] = {"lps": lps, "active_nodes": active,
                                    "residual": residual,
                                    "simplex_iterations": iterations}
    return rows, extra


def run_converge(cfg: ExperimentConfig) -> tuple[list[str], dict]:
    body, op, p, q = _problem(cfg)
    # each point starts afresh, so a row equals the optimize row at that a
    study = limit_study(p, q, op, body, parse_sweep(cfg.a), _opt_config(cfg))
    rows = [estimate_row(est, cfg.seed, ms)
            for est, ms in zip(study.rows, study.runtime_ms)]
    extra = {}
    if study.reference is not None:
        extra["reference_E"] = study.reference.value
    return rows, extra


def run_levitan_check(cfg: ExperimentConfig) -> tuple[list[str], dict]:
    _opt_config(cfg)        # the seed bound (and the rest), before any work
    body = parse_body(cfg.body, cfg.m)
    if body.label != ConvexBody.cube(1.0, cfg.m).label:
        raise ValueError("levitan-check currently runs on the unit-cube "
                         "window family (use --body cube:1)")
    f = sinc_sq_half_kernel(cfg.m)
    ps = [parse_exponent(t) for t in cfg.p_list.split(",")]
    rows = []
    for a in parse_sweep(cfg.a):
        res = levitan_coefficients(f, a, eps=cfg.eps)
        rows.append(f"{a:g},spectrum,{cfg.eps!r},"
                    f"{float(res.out_of_spectrum)!r},"
                    f"{float(cfg.eps - res.out_of_spectrum)!r}")
        for p in ps:
            rep = check_norm_contraction(f, a, p, eps=cfg.eps)
            rows.append(
                f"{a:g},contraction-p={_fmt_float(p)},"
                f"{float(rep.certificate)!r},{float(rep.lhs)!r},"
                f"{float(rep.slack)!r}")
        rng = np.random.default_rng(cfg.seed)
        xs = rng.uniform(-a / 2.0, a / 2.0, size=(64, cfg.m))
        svals = res.evaluate(xs)
        fvals = f.evaluate(xs)
        errs = np.abs(fvals - svals)
        bound = (np.linalg.norm(xs, axis=1) / a) ** 2 / 6.0
        worst = float((errs - bound).max())
        rows.append(f"{a:g},pointwise-bound,{float(bound.max())!r},"
                    f"{float(errs.max())!r},{-worst!r}")
    return rows, {}


def run_candidates(cfg: ExperimentConfig) -> tuple[list[str], dict]:
    body, op, p, q = _problem(cfg)
    rows = []
    t0 = time.perf_counter()
    f = cs_extremal(body, op)
    cand = candidate_lower_bound_E(f, p, q, op)
    rows.append(estimate_row(cand, cfg.seed,
                             (time.perf_counter() - t0) * 1000.0))
    if math.isinf(q):
        # the (2, inf) continuum form; (2, 2) is listed by `constant`
        ref = closed_form(p, q, body, op)
        if ref is not None:
            rows.append(estimate_row(ref, cfg.seed, 0.0))
    if (p == q and not math.isinf(p) and math.isinf(body.mu)
            and list(op.terms.values()) == [1.0]):
        t0 = time.perf_counter()
        factors = [akhiezer_family(s, p, 0.05 * s) for s in body.sigma]
        fa = separable_sum([(1.0, factors)], body)
        cand2 = candidate_lower_bound_E(fa, p, q, op)
        rows.append(estimate_row(cand2, cfg.seed,
                                 (time.perf_counter() - t0) * 1000.0))
    rows.append(estimate_row(crude_upper(p, q, op, body), cfg.seed, 0.0))
    return rows, {}


RUNNERS = {
    "constant": run_constant,
    "optimize": run_optimize,
    "converge": run_converge,
    "levitan-check": run_levitan_check,
    "candidates": run_candidates,
}


def run(config: ExperimentConfig) -> int:
    """Execute one experiment, write CSV + manifest, return exit status."""
    header = LEVITAN_HEADER if config.kind == "levitan-check" else CSV_HEADER
    try:
        rows, extra = RUNNERS[config.kind](config)
    except (BodySpecError, OperatorSpecError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, RuntimeError) as exc:
        record = {"error": type(exc).__name__, "message": str(exc),
                  "config_sha256": config.digest()}
        print(json.dumps(record), file=sys.stderr)
        return 1
    write_atomic(config.out, "\n".join([header, *rows]) + "\n")
    write_manifest(config.out + ".manifest.json", config, extra)
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        config = config_from_args(argv)
    except (BodySpecError, OperatorSpecError, ValueError, OSError) as exc:
        # OSError: the --config file cannot be read
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
