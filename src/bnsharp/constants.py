"""Sharp-constant computation: closed forms, bounds, and the optimizer.

Two families of constants are computed.  The periodic constant P compares
``||D T||_{L_q(Q_pi)}`` against ``||T||_{L_p(Q_pi)}`` over polynomials with
spectrum in a*V (normalized by a^{-N-m/p+m/q}); the continuum constant E
does the same over band-limited functions on R^m.  Closed forms exist for
(p, q) = (2, inf) and (2, 2); everything else is bracketed by upper bounds
and certified lower bounds from a multistart L-BFGS ascent on the sphere.
"""

from __future__ import annotations

import math
import os
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import minimize_scalar, minimize

from .bandlimited import BandLimitedFunction, DecayModel, \
    norm_lp_truncated, tensor_product, _scaled
from .body import ConvexBody, LatticeSet, exact_floor
from .trigpoly import DifferentialOperator

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class SharpConstantEstimate:
    """A sharp-constant value tagged with its epistemic status.

    ``kind`` is one of "exact-closed-form", "lower-bound-optimizer",
    "lower-bound-candidate", "upper-bound".  ``a`` is None for continuum
    (limit) constants.  ``tolerance`` is a relative uncertainty of the
    reported value; exact closed forms carry rounding-level tolerances.
    """

    value: float
    kind: str
    p: float
    q: float
    operator: str
    body: str
    a: float | None
    tolerance: float
    notes: str = ""
    seed: int | None = None


def check_order_consistency(estimates: Sequence[SharpConstantEstimate],
                            slack: float = 0.0) -> None:
    """Assert every lower-bound kind <= every upper-bound kind.

    Estimates must share (p, q, operator, body); exact values count on both
    sides.  Raises AssertionError with the offending pair.
    """
    lowers = [e for e in estimates if e.kind.startswith("lower") or
              e.kind == "exact-closed-form"]
    uppers = [e for e in estimates if e.kind == "upper-bound" or
              e.kind == "exact-closed-form"]
    for lo in lowers:
        for up in uppers:
            budget = (abs(lo.value) * lo.tolerance +
                      abs(up.value) * up.tolerance + slack)
            if lo.value > up.value + budget:
                raise AssertionError(
                    f"lower bound {lo.value} ({lo.kind}) exceeds upper bound "
                    f"{up.value} ({up.kind}) beyond tolerance {budget}")


# ---------------------------------------------------------------------------
# exact monomial moments over the body (the engine behind the closed forms)
# ---------------------------------------------------------------------------

def monomial_integral(body: ConvexBody, gamma: Sequence[int]) -> float:
    """Exact integral of x^gamma over the body (0 when any power is odd).

    Boxes integrate coordinate-wise; lp-ellipsoids use the Dirichlet
    integral formula, which reduces to Gamma functions.
    """
    gamma = [int(g) for g in gamma]
    if len(gamma) != body.m:
        raise ValueError("multi-index length mismatch")
    if any(g % 2 for g in gamma):
        return 0.0
    if math.isinf(body.mu):
        out = 1.0
        for s, g in zip(body.sigma, gamma):
            out *= 2.0 * s ** (g + 1) / (g + 1)
        return out
    mu = body.mu
    ae = [(g + 1.0) / mu for g in gamma]
    log_val = (body.m * math.log(2.0) - body.m * math.log(mu)
               + sum(math.lgamma(x) for x in ae) - math.lgamma(1.0 + sum(ae)))
    scale = math.prod(s ** (g + 1) for s, g in zip(body.sigma, gamma))
    return scale * math.exp(log_val)


def symbol_sq_integral(body: ConvexBody, op: DifferentialOperator) -> float:
    """Exact integral of |symbol(ix)|^2 over the body."""
    total = 0.0
    terms = list(op.terms.items())
    for a1, b1 in terms:
        for a2, b2 in terms:
            coeff = (b1 * np.conj(b2)).real
            if coeff != 0.0:
                gamma = tuple(x + y for x, y in zip(a1, a2))
                total += coeff * monomial_integral(body, gamma)
    return total


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def closed_p2_inf(body: ConvexBody, op: DifferentialOperator,
                  a: float) -> SharpConstantEstimate:
    """Exact periodic constant at (p, q) = (2, inf): a normalized lattice sum
    of squared symbol values."""
    if a <= 0:
        raise ValueError("a must be positive")
    pts = body.lattice_points(a).as_array().astype(float)
    s2 = float((np.abs(op.symbol_at_ik(pts)) ** 2).sum())
    value = (TWO_PI ** (-body.m / 2.0) *
             a ** (-(op.order + body.m / 2.0)) * math.sqrt(s2))
    return SharpConstantEstimate(value, "exact-closed-form", 2.0, math.inf,
                                 op.label, body.label, a, 1e-14)


def closed_e2_inf(body: ConvexBody,
                  op: DifferentialOperator) -> SharpConstantEstimate:
    """Exact continuum constant at (2, inf) via closed-form moments."""
    val = TWO_PI ** (-body.m / 2.0) * math.sqrt(symbol_sq_integral(body, op))
    return SharpConstantEstimate(val, "exact-closed-form", 2.0, math.inf,
                                 op.label, body.label, None, 1e-13)


def closed_p22(body: ConvexBody, op: DifferentialOperator,
               a: float) -> SharpConstantEstimate:
    """Exact periodic constant at (2, 2): normalized lattice maximum of the
    symbol modulus (ties collapse; no extremal uniqueness is implied)."""
    pts = body.lattice_points(a).as_array().astype(float)
    value = a ** (-op.order) * float(np.abs(op.symbol_at_ik(pts)).max())
    return SharpConstantEstimate(value, "exact-closed-form", 2.0, 2.0,
                                 op.label, body.label, a, 1e-14)


def closed_e22(body: ConvexBody, op: DifferentialOperator,
               refine_tol: float = 1e-8) -> SharpConstantEstimate:
    """Continuum constant at (2, 2): the symbol maximum over the body.

    Homogeneity puts the maximum on the boundary; a direction grid plus
    local refinement finds it for m <= 3 (m = 1 is the exact endpoint).
    """
    m = body.m
    if op.order == 0:
        return SharpConstantEstimate(1.0, "exact-closed-form", 2.0, 2.0,
                                     op.label, body.label, None, 0.0)

    def neg_mod_sq(angles) -> float:
        u = _unit_from_angles(angles, m)
        x = u / body.gauge(u)
        return -abs(op.symbol(x)) ** 2

    if m == 1:
        value = abs(op.symbol(np.array([body.sigma[0]])))
        return SharpConstantEstimate(value, "exact-closed-form", 2.0, 2.0,
                                     op.label, body.label, None, 1e-15)
    if m == 2:
        thetas = np.linspace(0.0, math.pi, 721)
        vals = [neg_mod_sq([t]) for t in thetas]
        t0 = thetas[int(np.argmin(vals))]
        try:
            res = minimize_scalar(lambda t: neg_mod_sq([t]),
                                  bracket=(t0 - 0.01, t0, t0 + 0.01),
                                  options={"xtol": refine_tol})
        except ValueError:
            # a maximum along a flat edge (boxes) leaves no strict bracket
            res = minimize_scalar(lambda t: neg_mod_sq([t]),
                                  bounds=(t0 - 0.01, t0 + 0.01),
                                  method="bounded",
                                  options={"xatol": refine_tol})
        best = -res.fun
    elif m == 3:
        grid = [(t, ph) for t in np.linspace(0.0, math.pi, 61)
                for ph in np.linspace(0.0, math.pi, 61)]
        vals = [neg_mod_sq(g) for g in grid]
        g0 = grid[int(np.argmin(vals))]
        res = minimize(neg_mod_sq, x0=np.asarray(g0), method="Nelder-Mead",
                       options={"xatol": refine_tol, "fatol": refine_tol ** 2})
        if not res.success and res.fun > min(vals):
            raise RuntimeError("boundary ascent failed to converge")
        best = -min(res.fun, min(vals))
    else:
        raise ValueError("supported up to dimension 3")
    return SharpConstantEstimate(math.sqrt(best), "exact-closed-form",
                                 2.0, 2.0, op.label, body.label, None,
                                 refine_tol)


def _unit_from_angles(angles, m: int) -> np.ndarray:
    if m == 2:
        (t,) = angles
        return np.array([math.cos(t), math.sin(t)])
    t, ph = angles
    return np.array([math.sin(t) * math.cos(ph),
                     math.sin(t) * math.sin(ph),
                     math.cos(t)])


def closed_form(p: float, q: float, body: ConvexBody,
                op: DifferentialOperator,
                a: float | None = None) -> SharpConstantEstimate | None:
    """The closed form at (p, q) = (2, inf) or (2, 2), else None.

    Gives the periodic constant at scale ``a``, or the continuum constant
    when ``a`` is None.
    """
    if (p, q) == (2.0, math.inf):
        return closed_e2_inf(body, op) if a is None else \
            closed_p2_inf(body, op, a)
    if p == q == 2.0:
        return closed_e22(body, op) if a is None else closed_p22(body, op, a)
    return None


# ---------------------------------------------------------------------------
# same-exponent brackets and generic upper bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BernsteinBracket:
    """Same-exponent constants for a monomial operator on a box."""

    continuum: SharpConstantEstimate          # exact: sigma^alpha
    periodic_lower: SharpConstantEstimate     # floor product
    periodic_upper: SharpConstantEstimate     # ceiling product

    @property
    def width(self) -> float:
        return self.periodic_upper.value - self.periodic_lower.value


def bernstein_pq(body: ConvexBody, alpha: Sequence[int], a: float,
                 q: float = 2.0) -> BernsteinBracket:
    """Same-exponent (p = q) constants for D^alpha on a box body.

    The continuum value is exactly sigma^alpha for every q; the periodic
    constant is bracketed between the floor and ceiling frequency products.
    """
    if not math.isinf(body.mu):
        raise ValueError("same-exponent brackets require a box body")
    alpha = tuple(int(v) for v in alpha)
    op = DifferentialOperator.monomial(alpha)
    N = sum(alpha)
    floors = [exact_floor(a, s) for s in body.sigma]
    ceils = [-exact_floor(-a, s) for s in body.sigma]
    if any(f < 1 for f, al in zip(floors, alpha) if al > 0):
        raise ValueError(f"a={a} too small: floor(a*sigma)={floors}")
    e_val = math.prod(s ** al for s, al in zip(body.sigma, alpha))
    lo = a ** (-N) * math.prod(float(f) ** al
                               for f, al in zip(floors, alpha))
    hi = a ** (-N) * math.prod(float(c) ** al
                               for c, al in zip(ceils, alpha))

    def mk(v, kind, av, note):
        return SharpConstantEstimate(v, kind, q, q, op.label, body.label,
                                     av, 0.0, note)

    return BernsteinBracket(
        mk(e_val, "exact-closed-form", None, "exact for every q"),
        mk(lo, "lower-bound-candidate", a,
           "attained by the cosine product at floor frequencies"),
        mk(hi, "upper-bound", a, "ceiling-frequency upper bound"))


def nikolskii_upper(p: float, q: float,
                    body: ConvexBody) -> SharpConstantEstimate:
    """Different-metric upper bound for the identity operator.

    [(ceil(p/2)/(2 pi))^m |V|]^{1/p - 1/q}; exact bound for the continuum
    constant, asymptotic for the periodic one.
    """
    if not (0 < p <= q):
        raise ValueError("need 0 < p <= q")
    inv = (0.0 if math.isinf(p) else 1.0 / p) - \
          (0.0 if math.isinf(q) else 1.0 / q)
    if inv == 0.0:
        value = 1.0
    else:
        base = (math.ceil(p / 2.0) / TWO_PI) ** body.m * body.volume()
        value = base ** inv
    return SharpConstantEstimate(value, "upper-bound", p, q,
                                 DifferentialOperator.identity(body.m).label,
                                 body.label, None, 0.0,
                                 "metric-change bound; asymptotic for the "
                                 "periodic constant")


def crude_upper(p: float, q: float, op: DifferentialOperator,
                body: ConvexBody) -> SharpConstantEstimate:
    """Composition bound: enclosing-cube derivative bound times the
    metric-change factor.  Upper bound for E; asymptotic upper for P."""
    qt = 1.0 if math.isinf(q) else min(1.0, q)
    coeff = (sum(abs(b) ** qt for b in op.terms.values())) ** (1.0 / qt)
    value = ((body.diameter() / 2.0) ** op.order * coeff *
             nikolskii_upper(p, q, body).value)
    return SharpConstantEstimate(value, "upper-bound", p, q, op.label,
                                 body.label, None, 0.0,
                                 "enclosing-cube composition bound")


# ---------------------------------------------------------------------------
# the optimizer
# ---------------------------------------------------------------------------

_TEMP_LADDER = tuple(10.0 * 10.0 ** (0.5 * i) for i in range(11))  # 10 .. 1e6


@dataclass(frozen=True)
class OptimizerConfig:
    restarts: int = 8
    seed: int = 0
    iterations: int = 400
    oversample: int = 4
    lse_temperatures: tuple[float, ...] = _TEMP_LADDER
    sup_certificate: float = 1e-3     # target relative gap of the final sup
    gtol: float = 1e-13
    step0: float = 0.3                # first step of a rung or after a reset
    real_coefficients: bool = False
    warm_starts: tuple = ()           # coefficient maps used as extra starts

    def workers(self) -> int:
        return max(1, int(os.environ.get("BNSHARP_WORKERS", "1")))


class _Problem:
    """Synthesis/analysis machinery for one (spectrum, grid) pair.

    The transforms are separable and pruned: on axis j the spectrum
    occupies only the residues ``rows[j]``, so ``synth`` skips the grid
    lines that are all zero and ``analyze`` skips those it never reads.
    """

    def __init__(self, spectrum: LatticeSet, shape: tuple[int, ...]):
        self.m = spectrum.m
        self.keys = spectrum.as_array()
        self.n = len(spectrum)
        self.shape = shape
        self.size = int(np.prod(shape))
        self.idx = tuple(self.keys[:, j] % shape[j] for j in range(self.m))
        self.phase = (-1.0) ** (self.keys.sum(axis=1) % 2)
        self.weight = float(np.prod([TWO_PI / L for L in shape]))
        # rows[j]: sorted distinct residues on axis j; cidx: positions in rows
        found = [np.unique(r, return_inverse=True) for r in self.idx]
        self.rows = tuple(rows for rows, _ in found)
        self.cidx = tuple(pos for _, pos in found)

    # numpy's ifftn/fftn run 1-D transforms from the last axis to the first
    # and normalise per axis.  Both methods keep that order, so every line
    # they transform sees the same input and gives the same bits; they only
    # leave out lines that are exactly zero or never read.

    def synth(self, c: np.ndarray) -> np.ndarray:
        m = self.m
        B = np.zeros(tuple(len(r) for r in self.rows[:-1]) + self.shape[-1:],
                     dtype=complex)
        B[self.cidx[:-1] + self.idx[-1:]] = c * self.phase
        u = np.fft.ifft(B, axis=m - 1)
        for j in range(m - 2, -1, -1):
            full = np.zeros(u.shape[:j] + (self.shape[j],) + u.shape[j + 1:],
                            dtype=complex)
            full[(slice(None),) * j + (self.rows[j],)] = u
            u = np.fft.ifft(full, axis=j)
        u *= self.size
        return u

    def analyze(self, u: np.ndarray) -> np.ndarray:
        for j in range(self.m - 1, 0, -1):
            u = np.fft.fft(u, axis=j)[(slice(None),) * j + (self.rows[j],)]
        return self.phase * np.fft.fft(u, axis=0)[self.idx[:1] +
                                                  self.cidx[1:]]


def _shape_for(spectrum: LatticeSet, oversample: int) -> tuple[int, ...]:
    keys = spectrum.as_array()
    degs = np.abs(keys).max(axis=0) if len(keys) else np.zeros(spectrum.m, int)
    return tuple(int(oversample * (2 * d + 1)) for d in degs)


def _norm_p(prob: _Problem, v: np.ndarray, p: float) -> float:
    return float((prob.weight * (np.abs(v) ** p).sum()) ** (1.0 / p))


def _grad_norm_p(prob: _Problem, v: np.ndarray, p: float, norm: float,
                 mult: np.ndarray | None) -> np.ndarray:
    av = np.abs(v)
    tiny = 1e-300 + 1e-14 * av.max()
    g = prob.analyze((np.maximum(av, tiny) ** (p - 2.0)) * v)
    g = norm ** (1.0 - p) * prob.weight * g
    return g if mult is None else np.conj(mult) * g


def _lse(prob: _Problem, v: np.ndarray, t: float):
    av = np.abs(v)
    M = av.max()
    e = np.subtract(av, M)
    e *= t
    np.exp(e, out=e)
    total = e.sum()
    val = M + math.log(total / e.size) / t

    def grad():
        np.divide(e, total, out=e)      # the soft-max weights
        tiny = 1e-300 + 1e-14 * M
        # (e * v) / max(|v|, tiny) in this order: a reciprocal multiply
        # rounds differently
        w = e * v
        w /= np.maximum(av, tiny, out=av)
        return prob.analyze(w)
    return val, grad


@dataclass(frozen=True)
class _Objective:
    """Ratio value and the gradient of its logarithm at coefficients c.

    ``at(c)`` returns the value and a callable for the gradient, so a line
    search pays for the gradient only at the points it accepts.  Call the
    gradient at most once: it reuses the value's buffers.  The log-ratio
    gradient is scale free, which keeps the line search well conditioned
    across very different magnitudes of numerator and denominator.
    """

    at: Callable[[np.ndarray], tuple[float, Callable[[], np.ndarray]]]

    def value(self, c: np.ndarray) -> float:
        return self.at(c)[0]

    def value_grad(self, c: np.ndarray) -> tuple[float, np.ndarray]:
        F, grad = self.at(c)
        return F, grad()


def _make_objective(prob: _Problem, d: np.ndarray, p: float, q: float,
                    temperature: float | None) -> _Objective:
    """The ratio ||D T||_q / ||T||_p in coefficient space.

    q = inf uses the translation reduction |D T(0)| (linear in c); p = inf
    uses a soft maximum at the given temperature during ascent, and has no
    gradient without one.
    """
    def at(c):
        if math.isinf(q):
            z = complex(np.dot(d, c))
            num = abs(z)
            gz = lambda: np.conj(d) * (z / num)
        else:
            vD = prob.synth(d * c)
            num = _norm_p(prob, vD, q)
            gz = lambda: _grad_norm_p(prob, vD, q, num, d)
        v = prob.synth(c)
        if math.isinf(p):
            if temperature is None:
                den, gd = float(np.abs(v).max()), None
            else:
                den, gd = _lse(prob, v, temperature)
        else:
            den = _norm_p(prob, v, p)
            gd = lambda: _grad_norm_p(prob, v, p, den, None)
        if den == 0 or num == 0 or gd is None:
            return (num / den if den > 0 else 0.0), lambda: np.zeros_like(c)
        return num / den, lambda: gz() / num - gd() / den

    return _Objective(at)


def _project_real(c: np.ndarray, neg: np.ndarray) -> np.ndarray:
    return 0.5 * (c + np.conj(c[neg]))


@dataclass(frozen=True)
class AscentStop:
    """Why one ascent stopped: ``reason`` is "gtol" (tangent gradient below
    tolerance), "no-ascent" (the line search found no better point) or
    "cap" (iteration cap); ``evaluations`` counts objective values.
    ``value`` is the final smoothed objective and ``grad_norm`` the norm of
    its tangent log-gradient there."""

    restart: int
    temperature: float | None      # soft-max rung; None for finite p
    reason: str
    steps: int
    evaluations: int
    value: float
    grad_norm: float


_LBFGS_MEMORY = 6       # (s, y) pairs kept by the ascent direction


def _rdot(u: np.ndarray, v: np.ndarray) -> float:
    """Re<u, v> as a real dot product of the float64 views."""
    return float(np.dot(u.view(np.float64), v.view(np.float64)))


def _two_loop(g: np.ndarray, pairs) -> np.ndarray:
    """The L-BFGS product H g over the stored pairs (s, y, <s, y>), oldest
    first, with initial scaling <s, y> / <y, y> from the newest pair."""
    q = g.copy()
    alphas = []
    for s, y, sy in reversed(pairs):
        alphas.append(_rdot(s, q) / sy)
        q -= alphas[-1] * y
    _, y, sy = pairs[-1]
    r = (sy / _rdot(y, y)) * q
    for (s, y, sy), alpha in zip(pairs, reversed(alphas)):
        r += (alpha - _rdot(y, r) / sy) * s
    return r


def _ascend(obj: _Objective, c0: np.ndarray, cfg: OptimizerConfig,
            neg: np.ndarray | None) -> tuple[tuple, tuple]:
    """L-BFGS ascent on the unit sphere with a backtracking line search.

    The direction is the two-loop recursion over the last ``_LBFGS_MEMORY``
    pairs s = c_{k+1} - c_k, y = g_k - g_{k+1} of tangent gradients g (a pair
    is kept only when <s, y> > 0), projected onto the tangent space at c.
    Each step tries t = 1 and halves t on rejection.  With an empty memory,
    at the start and after a reset, the step is ``cfg.step0 * g / |g|``.
    The memory is cleared when the direction is not an ascent direction or
    its line search fails; only a failed steepest step stops the ascent.
    Acceptance is by relative improvement of the ratio; the gradient is
    computed only at accepted points.  Returns (point, value, tangent
    gradient norm) and (reason, steps, evaluations).
    """
    def retract(c):
        if neg is not None:
            c = _project_real(c, neg)
        n = np.linalg.norm(c)
        return c / n if n > 0 else c

    def tangent(v, c):
        if neg is not None:
            v = _project_real(v, neg)
        return v - _rdot(c, v) * c

    def search(c, F, d):
        nonlocal evals
        t = 1.0
        while t > 1e-15:
            cn = retract(c + t * d)
            Fn, grad = obj.at(cn)
            evals += 1
            if Fn > F * (1.0 + 1e-12):
                return cn, Fn, grad
            t *= 0.5
        return None

    c = retract(c0)
    F, grad = obj.at(c)
    g = tangent(grad(), c)
    pairs = deque(maxlen=_LBFGS_MEMORY)
    steps, evals = 0, 1
    while True:
        gn = float(np.linalg.norm(g))
        if gn < cfg.gtol * (1.0 + abs(F)):
            reason = "gtol"
            break
        if steps == cfg.iterations:
            reason = "cap"
            break
        found = None
        if pairs:
            d = tangent(_two_loop(g, pairs), c)
            if _rdot(d, g) > 0:
                found = search(c, F, d)
            if found is None:
                pairs.clear()
        if found is None:
            found = search(c, F, (cfg.step0 / gn) * g)
        if found is None:
            reason = "no-ascent"
            break
        cn, F, grad = found
        g_new = tangent(grad(), cn)
        s, y = cn - c, g - g_new
        sy = _rdot(s, y)
        if sy > 0:
            pairs.append((s, y, sy))
        c, g = cn, g_new
        steps += 1
    return (c, float(F), gn), (reason, steps, evals)


@dataclass(frozen=True)
class OptimizerOutcome:
    """Full optimizer result: the estimate plus per-restart diagnostics."""

    estimate: SharpConstantEstimate
    restart_values: tuple[float, ...]      # final normalized value per restart
    best_coefficients: dict                # frequency -> complex
    ascent_stops: tuple[AscentStop, ...] = ()   # per restart and rung


def _final_value(prob, spectrum, d, c_best, p, q, pref, config, m):
    """Unsmoothed evaluation of the final iterate (reported value)."""
    if math.isinf(q):
        num = abs(complex(np.dot(d, c_best)))
        if math.isinf(p):
            degsum = int(np.abs(spectrum.as_array()).max(axis=0).sum())
            L = max(int(math.ceil(math.pi * max(degsum, 1) /
                                  math.sqrt(2.0 * config.sup_certificate))) + 1,
                    max(prob.shape))
            fine = _Problem(spectrum, (L,) * m)
            den = float(np.abs(fine.synth(c_best)).max())
            cert = 0.5 * (math.pi * degsum / L) ** 2
            rel = cert / (1.0 - cert)
            return pref * num / (den * (1.0 + rel)), rel
        den = _norm_p(prob, prob.synth(c_best), p)
        return pref * num / den, 1e-9
    vD = prob.synth(d * c_best)
    v = prob.synth(c_best)
    return pref * _norm_p(prob, vD, q) / _norm_p(prob, v, p), 1e-9


def optimize_full(p: float, q: float, op: DifferentialOperator,
                  a: float, body: ConvexBody,
                  config: OptimizerConfig = OptimizerConfig(),
                  ) -> OptimizerOutcome:
    """Multistart L-BFGS ascent on the sphere for the normalized ratio.

    Maximizes over complex coefficients on the unit sphere (the ratio is
    scale invariant).  q = inf becomes |D T(0)| / ||T||_p by translation
    invariance; p = inf runs a log-sum-exp temperature schedule and
    re-evaluates the final iterate unsmoothed on a fine grid whose
    sup-certificate keeps the reported value a genuine lower bound.
    p = q = 2 is the exact lattice maximum (no iteration).
    """
    if not (0 < p <= q):
        raise ValueError("need 0 < p <= q")
    spectrum = body.lattice_points(a)
    if len(spectrum) == 0:
        raise ValueError("empty spectrum")
    m = body.m
    pref = a ** (-(op.order + (0.0 if math.isinf(p) else m / p)
                   - (0.0 if math.isinf(q) else m / q)))

    if p == 2.0 and q == 2.0:
        est = closed_p22(body, op, a)
        keys = spectrum.as_array().astype(float)
        mods = np.abs(op.symbol_at_ik(keys))
        kbest = tuple(int(c) for c in spectrum.as_array()[int(np.argmax(mods))])
        est = replace(est, seed=config.seed,
                      notes="ratio maximized exactly over the lattice "
                            "(Parseval); no iteration needed")
        return OptimizerOutcome(est, (est.value,), {kbest: 1.0 + 0j})

    # soft-max landscapes need a denser grid than integral norms
    oversample = max(config.oversample, 8) if math.isinf(p) \
        else config.oversample
    prob = _Problem(spectrum, _shape_for(spectrum, oversample))
    d = op.symbol_at_ik(spectrum.as_array().astype(float))
    neg = None
    if config.real_coefficients:
        index = {tuple(k): i for i, k in enumerate(spectrum.as_array())}
        neg = np.array([index[tuple(-k)] for k in spectrum.as_array()])

    def run_restart(idx: int) -> tuple[np.ndarray, list[AscentStop]]:
        if idx < len(config.warm_starts):
            c0 = np.array([complex(config.warm_starts[idx].get(tuple(k), 0.0))
                           for k in spectrum.as_array()])
            if not np.any(c0):
                c0 = np.ones(prob.n, dtype=complex)
        else:
            rng = np.random.default_rng([config.seed, idx])
            z = rng.standard_normal((prob.n, 2))
            c0 = (z[:, 0] + 1j * z[:, 1]) / math.sqrt(2.0)
        c, stops = c0, []
        for t in config.lse_temperatures if math.isinf(p) else (None,):
            obj = _make_objective(prob, d, p, q, temperature=t)
            (c, value, grad_norm), stop = _ascend(obj, c, config, neg)
            stops.append(AscentStop(idx, t, *stop, value, grad_norm))
        return c, stops

    n_runs = max(config.restarts, len(config.warm_starts))
    if config.workers() > 1:
        with ThreadPoolExecutor(max_workers=config.workers()) as ex:
            results = list(ex.map(run_restart, range(n_runs)))
    else:
        results = [run_restart(i) for i in range(n_runs)]

    finals = [_final_value(prob, spectrum, d, c, p, q, pref, config, m)
              for c, _ in results]
    best_idx = max(range(n_runs), key=lambda i: (finals[i][0], -i))
    c_best = results[best_idx][0]
    value, tol = finals[best_idx]

    notes = f"multistart ascent, {n_runs} restarts"
    if value == 0.0 and any(abs(x) != 0 for x in d):
        notes += "; all restarts diverged"
    if config.real_coefficients:
        notes += "; real-coefficient (conjugate-symmetric) restriction"
    est = SharpConstantEstimate(value, "lower-bound-optimizer", p, q,
                                op.label, body.label, a, tol, notes,
                                seed=config.seed)
    coeffs = {tuple(int(c) for c in k): complex(v)
              for k, v in zip(spectrum.as_array(), c_best)}
    return OptimizerOutcome(est, tuple(f for f, _ in finals), coeffs,
                            tuple(s for _, stops in results for s in stops))


# ---------------------------------------------------------------------------
# continuum candidates
# ---------------------------------------------------------------------------

def derived_function(f: BandLimitedFunction,
                     op: DifferentialOperator) -> BandLimitedFunction:
    """D_N f as a band-limited function with a measured decay envelope.

    Uses analytic partials (all candidate families carry them).  The decay
    order is inherited from f; the constant is measured on sampled rays and
    re-audited by the standard spot check.
    """
    evals = [(b, f.derivative(alpha)) for alpha, b in op.terms.items()]

    def evaluate(x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        out = np.zeros(x.shape[0], dtype=complex)
        for b, e in evals:
            out += b * np.asarray(e(x)).reshape(-1)
        return out

    radii = np.geomspace(0.25, 64.0, 24)
    if f.decay.kind == "radial":
        d = f.decay.radial[1]
        C = 0.0
        dirs = [np.eye(f.m)[j] for j in range(f.m)]
        dirs.append(np.ones(f.m) / math.sqrt(f.m))
        for u in dirs:
            pts = radii[:, None] * u[None, :]
            C = max(C, float(np.max(np.abs(evaluate(pts)) *
                                    (1.0 + radii) ** d)))
        decay = DecayModel.make_radial(1.25 * C, d)
    else:
        axes = []
        for j, (Cj, dj) in enumerate(f.decay.axes):
            pts = np.zeros((len(radii), f.m))
            pts[:, j] = radii
            Cm = float(np.max(np.abs(evaluate(pts)) * (1.0 + radii) ** dj))
            on_axis = math.prod(Ci for i, (Ci, _) in enumerate(f.decay.axes)
                                if i != j)
            axes.append((1.25 * max(Cm / max(on_axis, 1e-300), 1e-300), dj))
        # redistribute so the product at the origin covers the measured peak
        peak = float(np.max(np.abs(evaluate(np.zeros((1, f.m))))))
        prod0 = math.prod(C for C, _ in axes)
        if peak > prod0:
            axes[0] = (axes[0][0] * (1.25 * peak / prod0), axes[0][1])
        # and along the diagonal ray, which verify_decay also samples
        pts = radii[:, None] * (np.ones(f.m) / math.sqrt(f.m))[None, :]
        ratio = float(np.max(np.abs(evaluate(pts)) /
                             DecayModel.make_product(axes).envelope(pts)))
        if ratio > 1.0:
            axes[0] = (axes[0][0] * (1.25 * ratio), axes[0][1])
        decay = DecayModel.make_product(axes)

    grid = np.linspace(-16.0, 16.0, 257)
    pts = np.stack(np.meshgrid(*([grid] * f.m), indexing="ij"),
                   axis=-1).reshape(-1, f.m)
    sup = 1.05 * float(np.abs(evaluate(pts)).max())

    g = BandLimitedFunction(
        m=f.m, evaluate=evaluate, spectral_body=f.spectral_body,
        sup_bound=sup, decay=decay, label=f"D[{op.label}] {f.label}",
        partials=None,
        factors=None)
    g.verify_decay()
    return g


def candidate_lower_bound_E(f: BandLimitedFunction, p: float, q: float,
                            op: DifferentialOperator,
                            R: float | None = None,
                            R_num: float | None = None,
                            ) -> SharpConstantEstimate:
    """Lower-bound candidate ||D_N f||_q / ||f||_p for the continuum constant.

    Numerator and denominator are truncated real-domain norms with their
    certificates folded into the tolerance.  For q = inf the numerator grid
    maximum is itself a valid lower estimate.
    """
    if R is None:
        R = 64.0 * f.spectral_body.diameter()
    if R_num is None:
        R_num = R if not math.isinf(q) else min(R, 64.0)
    if op.order == 0 and len(op.terms) == 1:
        df = f
    else:
        if len(op.terms) == 1 and f.factors is not None:
            (alpha, b), = op.terms.items()
            parts = [_axis_derived(f.factors[j], alpha[j])
                     for j in range(f.m)]
            df = _scaled(tensor_product(parts, label=f"D^{alpha} {f.label}"),
                         complex(b))
        else:
            df = derived_function(f, op)
    num = norm_lp_truncated(df, q, R_num)
    den = norm_lp_truncated(f, p, R)
    if den.value == 0:
        raise ValueError("zero candidate")
    value = num.value / den.value
    # uncertainty: numerator and denominator tails plus quadrature drift
    tol = num.quad_error + den.quad_error
    if not math.isinf(q) and math.isfinite(num.tail_bound):
        tol += num.tail_bound / max(num.value ** q, 1e-300) / q
    if math.isfinite(den.tail_bound) and not math.isinf(p):
        tol += den.tail_bound / max(den.value ** p, 1e-300) / p
    return SharpConstantEstimate(value, "lower-bound-candidate", p, q,
                                 op.label, f.spectral_body.label, None,
                                 tol, f"candidate {f.label}")


def _axis_derived(g: BandLimitedFunction, order: int) -> BandLimitedFunction:
    if order == 0:
        return g
    ev = g.derivative((order,))
    C, dd = g.decay.axes[0] if g.decay.kind == "product" else g.decay.radial
    radii = np.geomspace(0.25, 64.0, 32)
    Cm = float(np.max(np.abs(ev(radii[:, None])) * (1.0 + radii) ** dd))
    grid = np.linspace(-16.0, 16.0, 513)[:, None]
    sup = 1.05 * float(np.abs(ev(grid)).max())
    out = BandLimitedFunction(
        m=1, evaluate=ev, spectral_body=g.spectral_body, sup_bound=sup,
        decay=DecayModel.make_product([(1.25 * max(Cm, 1e-300), dd)]),
        label=f"d^{order} {g.label}", partials=None)
    out.verify_decay()
    return out


# ---------------------------------------------------------------------------
# limit studies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LimitStudy:
    rows: tuple[SharpConstantEstimate, ...]
    reference: SharpConstantEstimate | None
    extrapolated: float | None
    runtime_ms: tuple[float, ...]          # wall time of each row


def limit_study(p: float, q: float, op: DifferentialOperator,
                body: ConvexBody, a_list: Sequence[float],
                config: OptimizerConfig = OptimizerConfig(),
                chain_warm_start: bool = True) -> LimitStudy:
    """Periodic constants along an increasing scale sweep, with the continuum
    reference where a closed form exists and an Aitken-extrapolated limit."""
    a_list = [float(a) for a in a_list]
    if any(b <= a for a, b in zip(a_list, a_list[1:])):
        raise ValueError("scale sweep must be strictly increasing")
    rows, runtime_ms = [], []
    warm: tuple = ()
    for a in a_list:
        t0 = time.perf_counter()
        est = closed_form(p, q, body, op, a)
        if est is None:
            cfg = replace(config, warm_starts=warm)
            out = optimize_full(p, q, op, a, body, cfg)
            est = out.estimate
            if chain_warm_start:
                # lattices are nested along an increasing sweep, so the best
                # coefficient pattern seeds one restart at the next scale
                warm = (out.best_coefficients,)
        rows.append(est)
        runtime_ms.append((time.perf_counter() - t0) * 1000.0)
    reference = closed_form(p, q, body, op)
    if (reference is None and p == q and len(op.terms) == 1
            and math.isinf(body.mu)):
        (alpha, b), = op.terms.items()
        if abs(b - 1.0) < 1e-15:
            try:
                reference = bernstein_pq(body, alpha, a_list[-1], q).continuum
            except ValueError:
                pass    # a * sigma_j < 1 on a differentiated axis
    extrapolated = None
    if len(rows) >= 3:
        x0, x1, x2 = (r.value for r in rows[-3:])
        denom = (x2 - x1) - (x1 - x0)
        if abs(denom) > 1e-15 * max(1.0, abs(x2)):
            extrapolated = x2 - (x2 - x1) ** 2 / denom
        else:
            extrapolated = x2
    return LimitStudy(tuple(rows), reference, extrapolated,
                      tuple(runtime_ms))
