"""Sharp-constant computation: closed forms, bounds, and the optimizer.

Two families of constants are computed.  The periodic constant P compares
``||D T||_{L_q(Q_pi)}`` against ``||T||_{L_p(Q_pi)}`` over polynomials with
spectrum in a*V (normalized by a^{-N-m/p+m/q}); the continuum constant E
does the same over band-limited functions on R^m.  Closed forms exist for
(p, q) = (2, inf) and (2, 2), and for P and E of a monomial on a box at
p = q; everything else is bracketed by upper bounds
and certified lower bounds from a multistart L-BFGS ascent on the sphere,
which samples on ``trigpoly.SamplingGrid`` as ``norm_lp`` does or, where
that loses nothing, runs on one real unknown per symmetry orbit and
samples on ``trigpoly.CosineGrid``.  For p = inf the ascent climbs a
ladder of soft-max temperatures; each rung's iterate is certified, and a
restart's ladder stops at the first rung whose certified value falls below
an earlier rung's.  At p = q = inf a problem with few orbit unknowns is
instead bracketed by an exchange LP: a certified lower bound from its
solution and an upper bound from its duals.
"""

from __future__ import annotations

import itertools
import math
import time
from collections import deque
from dataclasses import dataclass, replace
from functools import reduce
from typing import Callable, Sequence

import numpy as np

from .bandlimited import BandLimitedFunction, derived_function, \
    norm_lp_truncated
from .body import ConvexBody, exact_floor, lattice_orbits
from .trigpoly import CosineGrid, DifferentialOperator, SamplingGrid, \
    default_grid

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class SharpConstantEstimate:
    """A sharp-constant value tagged with its epistemic status.

    ``kind`` is one of "exact-closed-form", "lower-bound-optimizer",
    "lower-bound-candidate", "upper-bound", "upper-bound-dual" (an LP dual
    certificate, rigorous whatever the solver's accuracy).  Every
    "upper-bound*" kind is an upper bound.  ``a`` is None for continuum
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


def check_order_consistency(
        estimates: Sequence[SharpConstantEstimate]) -> None:
    """Assert every lower-bound kind <= every upper-bound kind at the same a.

    Estimates must share (p, q, operator, body), else ValueError.  A row at
    scale a is ordered only against rows at the same a (the continuum rows,
    a = None, against each other): P(a) is not ordered against P(b) or E.
    Exact values count on both sides.  Raises AssertionError with the
    offending pair.
    """
    problems = {(e.p, e.q, e.operator, e.body) for e in estimates}
    if len(problems) > 1:
        raise ValueError(f"rows of {len(problems)} problems (p, q, operator, "
                         f"body): {sorted(problems, key=str)}")
    lowers = [e for e in estimates if e.kind.startswith("lower") or
              e.kind == "exact-closed-form"]
    uppers = [e for e in estimates if e.kind.startswith("upper-bound") or
              e.kind == "exact-closed-form"]
    for lo in lowers:
        for up in uppers:
            if lo.a != up.a:
                continue
            budget = (abs(lo.value) * lo.tolerance +
                      abs(up.value) * up.tolerance)
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


def _symbol_sq_sum(op: DifferentialOperator,
                   moment: Callable[[tuple[int, ...]], float]) -> float:
    """sum_{alpha,beta} Re(b_alpha conj b_beta) moment(alpha + beta): the
    integral or lattice sum of |symbol|^2 = |sum_a b_a x^a|^2 whose x^gamma
    moments ``moment`` gives."""
    total = 0.0
    terms = list(op.terms.items())
    for a1, b1 in terms:
        for a2, b2 in terms:
            coeff = (b1 * np.conj(b2)).real
            if coeff != 0.0:
                gamma = tuple(x + y for x, y in zip(a1, a2))
                total += coeff * moment(gamma)
    return total


def symbol_sq_integral(body: ConvexBody, op: DifferentialOperator) -> float:
    """Exact integral of |symbol(ix)|^2 over the body."""
    return _symbol_sq_sum(op, lambda gamma: monomial_integral(body, gamma))


def _power_sums(h: np.ndarray, g: int) -> np.ndarray:
    """S_g(h) = sum_{|j| <= h} j^g for each half-length h >= -1, as float64.

    Odd g gives 0.  Otherwise S_g(h) = 2 T(h) - 0^g, where T holds the
    cumulative sums of j^g for j = 0..max h, in int64 where
    (max h + 1)^(g+1) rules out overflow and in Python integers elsewhere,
    so each value is exact until it is rounded once to float64.
    """
    if g % 2:
        return np.zeros(len(h))
    top = int(h.max())
    j = np.arange(top + 1, dtype=np.int64 if (top + 1) ** (g + 1) < 2 ** 62
                  else object)
    table = 2 * np.cumsum(j ** g) - 0 ** g
    return np.where(h >= 0, table[np.maximum(h, 0)], 0).astype(float)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def closed_p2_inf(body: ConvexBody, op: DifferentialOperator,
                  a: float) -> SharpConstantEstimate:
    """Exact periodic constant at (p, q) = (2, inf): the normalized lattice
    sum a^{-N-m/2} (2 pi)^{-m/2} (sum_k |symbol(k)|^2)^{1/2}, k in aV n Z^m.

    The sum comes from lattice moments M_gamma = sum_k k^gamma, without
    building the lattice.  The lattice is symmetric in every coordinate,
    so M_gamma = 0 when a power is odd.  Otherwise M_gamma sums
    head^gamma' S_{gamma_m}(h) over the fibers of ``lattice_fibers``,
    gamma' the head powers and S the power sums.  Each product is formed
    from integer-valued float64 factors and the products are added by
    ``math.fsum``, so a moment that is an integer below 2^53 is exact.
    """
    if a <= 0:
        raise ValueError("a must be positive")
    head, h = body.lattice_fibers(a)
    head = head.astype(float)

    def moment(gamma: tuple[int, ...]) -> float:
        if any(g % 2 for g in gamma):
            return 0.0
        prods = _power_sums(h, gamma[-1])
        for j, g in enumerate(gamma[:-1]):
            if g:
                prods = prods * head[:, j] ** g
        return math.fsum(prods.tolist())

    s2 = _symbol_sq_sum(op, moment)
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
    # converted here, the int64 lattice is freed before symbol_at_ik runs;
    # passed as is, it would stay alive beside symbol_at_ik's float copy
    pts = body.lattice_points(a).astype(float)
    value = a ** (-op.order) * float(np.abs(op.symbol_at_ik(pts)).max())
    return SharpConstantEstimate(value, "exact-closed-form", 2.0, 2.0,
                                 op.label, body.label, a, 1e-14)


#: Unit directions from rows of m - 1 angles (given transposed), per m.
_DIRECTIONS = {
    1: lambda t: [np.ones(t.shape[1])],
    2: lambda t: [np.cos(t[0]), np.sin(t[0])],
    3: lambda t: [np.sin(t[0]) * np.cos(t[1]), np.sin(t[0]) * np.sin(t[1]),
                  np.cos(t[0])],
}


def closed_e22(body: ConvexBody,
               op: DifferentialOperator) -> SharpConstantEstimate:
    """Continuum constant at (2, 2): the symbol maximum over the body.

    Homogeneity puts the maximum on the boundary, at u / gauge(u) for a
    unit direction u, and makes the modulus even, so u is given by angles
    in [0, pi]^(m-1) (none in m = 1: the endpoint).  A grid of 721 (m = 2)
    or 61^2 (m = 3) angles is scored at once; then 25 rounds rescan the
    9^(m-1) angles around the best point so far at a quarter of the last
    spacing.  The value is the best modulus seen.  Nothing certifies that
    it is the maximum, hence the tolerance of 1e-8.
    """
    m = body.m
    if op.order == 0:
        return SharpConstantEstimate(1.0, "exact-closed-form", 2.0, 2.0,
                                     op.label, body.label, None, 0.0)
    if m not in _DIRECTIONS:
        raise ValueError("supported up to dimension 3")

    def modulus(angles: np.ndarray) -> np.ndarray:
        u = np.stack(_DIRECTIONS[m](angles.T), axis=-1)
        return np.abs(op.symbol_at_ik(u / body.gauge(u)[:, None]))

    n = 721 if m == 2 else 61
    grid = np.array(list(itertools.product(np.linspace(0.0, math.pi, n),
                                           repeat=m - 1)))
    offsets = np.array(list(itertools.product(range(-4, 5), repeat=m - 1)))
    vals = modulus(grid)
    i = vals.argmax()
    best, value = grid[i], vals[i]
    for r in range(1, 26):          # the spacing ends below 1e-16 rad
        pts = best + math.pi / (n - 1) / 4.0 ** r * offsets
        vals = modulus(pts)
        i = vals.argmax()
        if vals[i] > value:
            best, value = pts[i], vals[i]
    return SharpConstantEstimate(float(value), "exact-closed-form", 2.0, 2.0,
                                 op.label, body.label, None, 1e-8)


def closed_form(p: float, q: float, body: ConvexBody,
                op: DifferentialOperator,
                a: float | None = None) -> SharpConstantEstimate | None:
    """The closed form at (p, q) = (2, inf) or (2, 2), or at p = q for a
    monomial b D^alpha on a box; else None.

    Gives the periodic constant at scale ``a``, or the continuum constant
    when ``a`` is None.  On a box monomial both are Bernstein's inequality,
    exact for every q: the continuum value is |b| sigma^alpha (entire
    functions of exponential type), and, per axis and by Fubini, P(a) is
    ``closed_p22``'s lattice maximum |b| a^{-N} prod_j floor(a
    sigma_j)^{alpha_j} (Zygmund, Trigonometric Series, ch. X, for q >= 1;
    Arestov 1981 for q < 1), attained by one exponential at that corner.
    """
    if (p, q) == (2.0, math.inf):
        return closed_e2_inf(body, op) if a is None else \
            closed_p2_inf(body, op, a)
    if p != q:
        return None
    box_monomial = math.isinf(body.mu) and len(op.terms) == 1
    if a is not None and (q == 2.0 or box_monomial):
        return replace(closed_p22(body, op, a), p=float(q), q=float(q))
    if box_monomial:
        (alpha, b), = op.terms.items()
        return SharpConstantEstimate(
            abs(b) * math.prod(s ** al for s, al in zip(body.sigma, alpha)),
            "exact-closed-form", q, q, op.label, body.label, None, 0.0,
            "exact for every q")
    return closed_e22(body, op) if q == 2.0 else None


# ---------------------------------------------------------------------------
# same-exponent brackets and generic upper bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BernsteinBracket:
    """Same-exponent constants for a monomial operator on a box."""

    continuum: SharpConstantEstimate          # closed_form: sigma^alpha
    periodic_lower: SharpConstantEstimate     # closed_form: floor product
    periodic_upper: SharpConstantEstimate     # ceiling product

    @property
    def width(self) -> float:
        return self.periodic_upper.value - self.periodic_lower.value


def bernstein_pq(body: ConvexBody, alpha: Sequence[int],
                 a: float) -> BernsteinBracket:
    """Same-exponent (p = q) constants for D^alpha on a box body.

    Both ``closed_form`` values hold for every q: the continuum sigma^alpha
    and the periodic floor-frequency product.  The ceiling-frequency
    product bounds the latter from above.  The rows are labelled q = 2.
    """
    if not math.isinf(body.mu):
        raise ValueError("same-exponent brackets require a box body")
    alpha = tuple(int(v) for v in alpha)
    op = DifferentialOperator.monomial(alpha)
    floors = [exact_floor(a, s) for s in body.sigma]
    ceils = [-exact_floor(-a, s) for s in body.sigma]
    if any(f < 1 for f, al in zip(floors, alpha) if al > 0):
        raise ValueError(f"a={a} too small: floor(a*sigma)={floors}")
    hi = a ** (-sum(alpha)) * math.prod(float(c) ** al
                                        for c, al in zip(ceils, alpha))
    return BernsteinBracket(
        closed_form(2.0, 2.0, body, op), closed_form(2.0, 2.0, body, op, a),
        SharpConstantEstimate(hi, "upper-bound", 2.0, 2.0, op.label,
                              body.label, a, 0.0,
                              "ceiling-frequency upper bound"))


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
    metric-change factor, which it equals at order 0.  Upper bound for E;
    asymptotic upper for P."""
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
_SUP_GAP = 1e-3         # target relative gap of the final sup certificate
_STEP0 = 0.3            # first step of a rung or after a reset
_GTOL = 1e-13           # stop once |tangent gradient| < _GTOL * (1 + |F|)


@dataclass(frozen=True)
class OptimizerConfig:
    restarts: int = 8
    seed: int = 0
    iterations: int = 400

    def __post_init__(self):
        for name, least in (("restarts", 1), ("iterations", 0),
                            ("seed", 0)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be at least {least}, got "
                                 f"{getattr(self, name)}")


def _grad_norm_p(prob: SamplingGrid, v: np.ndarray, p: float, norm: float,
                 mult: np.ndarray | None) -> np.ndarray:
    av = np.abs(v)
    tiny = 1e-300 + 1e-14 * av.max()
    np.maximum(av, tiny, out=av)
    av **= p - 2.0      # in place: the same bits as av ** (p - 2)
    if np.iscomplexobj(v):
        av = av * v
    else:
        av *= v
    g = prob.analyze(av)
    g = norm ** (1.0 - p) * prob.weight * g
    return g if mult is None else np.conj(mult) * g


def _lse(prob: SamplingGrid, v: np.ndarray, t: float):
    """The soft maximum M + log(mean_x e^{t(|T(x)| - M)}) / t over the full
    grid, each sampled value counted as the grid nodes it stands for
    (``weigh``), and a callable for its gradient (``analyze`` applies the
    same node weights)."""
    av = np.abs(v)
    M = av.max()
    e = np.subtract(av, M)
    e *= t
    np.exp(e, out=e)
    total = prob.weigh(e.copy()).sum()
    val = M + math.log(total / prob.size) / t

    def grad():
        np.divide(e, total, out=e)      # the soft-max weights
        tiny = 1e-300 + 1e-14 * M
        # (e * v) / max(|v|, tiny) in this order: a reciprocal multiply
        # rounds differently
        w = e * v
        w /= np.maximum(av, tiny, out=av)
        return prob.analyze(w)
    return val, grad


def _make_objective(prob: SamplingGrid, d: np.ndarray, p: float, q: float,
                    temperature: float | None) -> Callable:
    """The ratio ||D T||_q / ||T||_p in coefficient space.

    The result ``at(c)`` returns the ratio at coefficients c and a callable
    for the gradient of its logarithm, so a line search pays for the
    gradient only at the points it accepts.  Call the gradient at most
    once, and before the next value: it reuses the value's buffers, and
    on a ``CosineGrid`` every value is written to the objective's one
    buffer, not to a fresh array per call.  The log-ratio gradient is scale
    free, which keeps the line search well conditioned across very
    different magnitudes of numerator and denominator.

    q = inf uses the translation reduction |D T(0)| (linear in c); p = inf
    uses a soft maximum at the given temperature (``_final_value`` scores
    the unsmoothed ratio).
    """
    out = np.empty(prob.kept_shape) if isinstance(prob, CosineGrid) else None

    def at(c):
        if math.isinf(q):
            z = np.dot(d, c).item()     # a float for real d and c
            num = abs(z)
            gz = lambda: np.conj(d) * (z / num)
        else:
            vD = prob.synth(d * c)
            num = prob.norm(vD, q)
            gz = lambda: _grad_norm_p(prob, vD, q, num, d)
        v = prob.synth(c) if out is None else prob.synth(c, out)
        if math.isinf(p):
            den, gd = _lse(prob, v, temperature)
        else:
            den = prob.norm(v, p)
            gd = lambda: _grad_norm_p(prob, v, p, den, None)
        if den == 0 or num == 0:
            return (num / den if den > 0 else 0.0), lambda: np.zeros_like(c)
        return num / den, lambda: gz() / num - gd() / den

    return at


@dataclass(frozen=True)
class AscentStop:
    """Why one ascent stopped: ``reason`` is "gtol" (tangent gradient below
    tolerance), "no-ascent" (the line search found no better point) or
    "cap" (iteration cap); ``evaluations`` counts objective values.
    ``value`` is the final smoothed objective and ``grad_norm`` the norm of
    its tangent log-gradient there.  ``certified`` is the rung's iterate
    scored by ``_final_value`` (normalized, unsmoothed); a restart's ladder
    stops at the first rung whose ``certified`` falls below an earlier
    rung's."""

    restart: int
    temperature: float | None      # soft-max rung; None for finite p
    reason: str
    steps: int
    evaluations: int
    value: float
    grad_norm: float
    certified: float


_LBFGS_MEMORY = 6       # (s, y) pairs kept by the ascent direction


def _f64(u: np.ndarray) -> np.ndarray:
    """u, or its float64 view when complex: <_f64(u), _f64(v)> = Re<u, v>."""
    return u.view(np.float64) if u.dtype.kind == "c" else u


def _norm(u: np.ndarray) -> float:
    """np.linalg.norm(u), which for real u evaluates sqrt(<u, u>)."""
    return math.sqrt(u.dot(u)) if u.dtype.kind == "f" else \
        float(np.linalg.norm(u))


def _two_loop(g: np.ndarray, pairs) -> np.ndarray:
    """The L-BFGS product H g over the stored pairs (s, y, _f64(s), _f64(y),
    <s, y>), oldest first, with initial scaling <s, y> / <y, y> from the
    newest pair."""
    q = g.copy()
    q64, alphas = _f64(q), []
    for s, y, s64, y64, sy in reversed(pairs):
        alphas.append(float(s64.dot(q64)) / sy)
        q -= alphas[-1] * y
    _, _, _, y64, sy = pairs[-1]
    r = (sy / float(y64.dot(y64))) * q
    r64 = _f64(r)
    for (s, y, s64, y64, sy), alpha in zip(pairs, reversed(alphas)):
        r += (alpha - float(y64.dot(r64)) / sy) * s
    return r


def _ascend(at: Callable, c0: np.ndarray,
            cfg: OptimizerConfig) -> tuple[tuple, tuple]:
    """L-BFGS ascent on the unit sphere with a backtracking line search.

    The coefficients may be complex or real; the ascent keeps their type.

    The direction is the two-loop recursion over the last ``_LBFGS_MEMORY``
    pairs s = c_{k+1} - c_k, y = g_k - g_{k+1} of tangent gradients g (a pair
    is kept only when <s, y> > 0), projected onto the tangent space at c.
    Each step tries t = 1 and halves t on rejection.  With an empty memory,
    at the start and after a reset, the step is ``_STEP0 * g / |g|``.
    The memory is cleared when the direction is not an ascent direction or
    its line search fails; only a failed steepest step stops the ascent.
    Acceptance is by relative improvement of the ratio; the gradient is
    computed only at accepted points.  Returns (point, value, tangent
    gradient norm) and (reason, steps, evaluations).
    """
    def retract(c):
        n = _norm(c)
        return c / n if n > 0 else c

    def tangent(v, c):
        return v - float(_f64(c).dot(_f64(v))) * c

    def search(c, F, d):
        nonlocal evals
        t = 1.0
        while t > 1e-15:
            cn = retract(c + t * d)
            Fn, grad = at(cn)
            evals += 1
            if Fn > F * (1.0 + 1e-12):
                return cn, Fn, grad
            t *= 0.5
        return None

    c = retract(c0)
    F, grad = at(c)
    g = tangent(grad(), c)
    pairs = deque(maxlen=_LBFGS_MEMORY)
    steps, evals = 0, 1
    while True:
        gn = _norm(g)
        if gn < _GTOL * (1.0 + abs(F)):
            reason = "gtol"
            break
        if steps == cfg.iterations:
            reason = "cap"
            break
        found = None
        if pairs:
            d = tangent(_two_loop(g, pairs), c)
            if _f64(d).dot(_f64(g)) > 0:
                found = search(c, F, d)
            if found is None:
                pairs.clear()
        if found is None:
            found = search(c, F, (_STEP0 / gn) * g)
        if found is None:
            reason = "no-ascent"
            break
        cn, F, grad = found
        g_new = tangent(grad(), cn)
        s, y = cn - c, g - g_new
        s64, y64 = _f64(s), _f64(y)
        sy = float(s64.dot(y64))
        if sy > 0:
            pairs.append((s, y, s64, y64, sy))
        c, g = cn, g_new
        steps += 1
    return (c, float(F), gn), (reason, steps, evals)


@dataclass(frozen=True)
class OptimizerOutcome:
    """Full optimizer result: the estimate plus per-restart diagnostics."""

    estimate: SharpConstantEstimate
    restart_values: tuple[float, ...]      # best certified value per restart
    best_coefficients: dict                # frequency -> complex
    ascent_stops: tuple[AscentStop, ...] = ()   # per restart and rung
    # per restart, the soft-max temperature of the iterate it reports
    # (None for finite p, which has no ladder)
    best_rungs: tuple[float | None, ...] = ()
    # (unknowns of the ascent, lattice size, order of the symmetry group);
    # the group is trivial, order 1, unless the ascent ran on cosine orbits
    unknowns: tuple[int, int, int] = ()
    # the exchange LP's "upper-bound-dual" estimate, and (LPs solved, active
    # nodes of the last LP, its dual residual term, HiGHS simplex iterations
    # over all LPs); set only on that path
    upper: SharpConstantEstimate | None = None
    lp: tuple[int, int, float, int] = ()


def _certificate_grid(prob: SamplingGrid) -> SamplingGrid:
    """The square grid on prob's spectrum whose Bernstein sup gap is at
    most about ``_SUP_GAP``, of prob's kind; p = q = inf values are
    certified on it.  A ``CosineGrid`` samples a quarter of it, whose
    maximum is the full grid's for the polynomials it carries, |T| being
    even in every coordinate."""
    L = max(int(math.ceil(math.pi * max(sum(prob.degrees), 1) /
                          math.sqrt(2.0 * _SUP_GAP))) + 1,
            max(prob.shape))
    return prob.resized((L,) * prob.m)


def _final_value(grid: SamplingGrid, d, c, p, q, pref, v=None):
    """Unsmoothed normalized ratio of coefficients c on ``grid`` and its
    tolerance.  For p = q = inf, ``grid`` is the fine grid and its Bernstein
    sup gap keeps the value a certified lower bound.  v is c's values on
    ``grid``, or their moduli at p = q = inf; they are synthesized when it
    is None."""
    if v is None:
        v = grid.synth(c)
    if math.isinf(q):
        num = abs(complex(np.dot(d, c)))
        if math.isinf(p):
            rel = grid.sup_gap()
            return pref * num / (grid.norm(v, p) * (1.0 + rel)), rel
        return pref * num / grid.norm(v, p), 1e-9
    return pref * grid.norm(grid.synth(d * c), q) / grid.norm(v, p), 1e-9


def _cosine_orbits(p: float, q: float, op: DifferentialOperator,
                   keys: np.ndarray):
    """(orbit index per key, orbit sizes, |G|, odd axes, d) when the
    problem may run on one real unknown per orbit of G (``CosineGrid``)
    without loss; else None.

    That needs 1 <= p <= inf, q = inf, and a symbol i^N s(k) with s real
    and of one parity in each coordinate: every term has a real
    coefficient, and on each axis j its exponents are all even or all odd
    (``odd[j]``).  G is the signed permutations that map the spectrum
    ``keys`` onto itself, keep s(|k|) (|k| taken coordinatewise) and map
    odd axes to odd axes; it holds every coordinate reflection.  A key with
    a zero coordinate on an odd axis carries no unknown and gets index -1;
    when every key has one, D T(0) = 0 for every T and the result is None.
    d_o = s_o sqrt(|o|), s_o = s(|k|) on o, gives |D T(0)| =
    |sum_o d_o u_o|.  The reduction is proved in ``optimize_full``; both
    ``exchange_lp`` and ``optimize_ascent`` run on it.
    """
    if not (p >= 1.0 and math.isinf(q)):
        return None
    parities = {tuple(c % 2 for c in alpha) for alpha in op.terms}
    if len(parities) > 1 or any(b.imag != 0 for b in op.terms.values()):
        return None
    odd = tuple(bool(c) for c in parities.pop())
    # s(|k|) on each key, where the symbol is i^N s
    values = (op.symbol_at_ik(np.abs(keys).astype(float)) *
              (-1j) ** op.order).real
    if not any(odd):
        index, sizes, group = lattice_orbits(keys, values)
    else:
        live = (keys[:, list(odd)] != 0).all(axis=1)
        if not live.any():
            return None     # D T(0) = 0 for every T: no unknown to run on
        # a second coordinate tells the odd axes from the even ones
        tag = (keys[:, list(odd)] ** 2).sum(axis=1)
        index, _, group = lattice_orbits(
            keys, values + 1j * max(np.abs(values).max(), 1.0) * tag)
        _, renumbered = np.unique(index[live], return_inverse=True)
        index = np.full(len(keys), -1)
        index[live] = renumbered
        sizes = np.bincount(renumbered)
    kept = np.flatnonzero(index >= 0)
    first = kept[np.unique(index[kept], return_index=True)[1]]
    return index, sizes, group, odd, values[first] * np.sqrt(sizes)


# The largest orbit count that goes to the exchange LP: on the disk
# Laplacian the LP costs less than the ladder's 8 restarts up to 331 orbits
# (a = 28) and more from 354 (a = 29).
_LP_MAX_UNKNOWNS = 340
_LP_SLACK = 1e-6        # the exchange stops once max |T| <= 1 + _LP_SLACK
_LP_MAX_ROUNDS = 200    # a bound on the LPs of one problem


def optimize_full(p: float, q: float, op: DifferentialOperator,
                  a: float, body: ConvexBody,
                  config: OptimizerConfig = OptimizerConfig(),
                  ) -> OptimizerOutcome:
    """The normalized ratio's supremum: the exact value where
    ``closed_form`` has one at p = q, else a certified lower bound, and at
    p = q = inf for small problems an upper bound too.

    At p = q, ``closed_form`` answers p = q = 2 on any body (Parseval) and
    every q on a box with a monomial symbol (Bernstein).  Either value is
    a^{-N} max_k |symbol(k)| over the lattice, and the exponential at the
    argmax attains it for every q; no iteration runs.  Otherwise a box with
    a monomial symbol b D^alpha, m >= 2, q = inf and 1 <= p < inf goes to
    ``_product_rule``: one 1-D solve per distinct axis (sigma_j, alpha_j).
    At p = q = inf a problem whose orbit unknowns (``_cosine_orbits``)
    number at most ``_LP_MAX_UNKNOWNS`` goes to ``exchange_lp``; every
    other problem goes to ``optimize_ascent``.  Both run on the orbit
    unknowns wherever ``_cosine_orbits`` applies.

    Product rule.  Let V = prod_j [-sigma_j, sigma_j], D = b D^alpha,
    q = inf and 1 <= p < inf, and let P_j be the 1-D constant of
    [-sigma_j, sigma_j] and d^{alpha_j}/dx^{alpha_j} at the same a.  Then
    P(a) = |b| prod_j P_j.  Everything factorizes along the axes:
    aV ∩ Z^m = prod_j ([-a sigma_j, a sigma_j] ∩ Z), (ik)^alpha =
    prod_j (ik_j)^{alpha_j}, and pref = a^{-N-m/p} = prod_j
    a^{-alpha_j-1/p}.

    - Lower half: the tensor T = T_1 x ... x T_m of 1-D polynomials has
      its spectrum in aV, D^alpha T(0) = prod_j T_j^{(alpha_j)}(0) and
      ||T||_p = prod_j ||T_j||_p (Fubini).  So the tensor of the 1-D
      winners attains |b| times the product of their ratios.  The
      rectangle rule on a product grid factorizes the same way, so the
      grid ratio does too.  A continuum tensor's norms factorize as well,
      so a certified 1-D lower bound (a bound on the continuum L_p norm,
      where one exists) certifies the m-D one factor by factor.
    - Upper half: by Hahn-Banach and Riesz, T_j -> T_j^{(alpha_j)}(0) on
      the 1-D polynomials normed in L_p(Q_pi) is T_j -> int T_j g_j with
      ||g_j||_{p'} = P_j / pref_j.  g = g_1 x ... x g_m gives
      D^alpha T(0) = int T g on each e^{ik.x} with k in aV, hence on every
      T with spectrum in aV, and ||g||_{p'} = prod_j ||g_j||_{p'}.
      Hoelder gives |D T(0)| <= |b| prod_j (P_j / pref_j) ||T||_p, so
      P(a) <= |b| prod_j P_j.

    Equal (sigma_j, alpha_j) give equal P_j, so each is solved once.  p < 1
    has no such duality, finite q no translation to x = 0, and other
    symbols no product; they keep the m-D path.

    Orbit reduction.  Let 1 <= p <= inf, q = inf, and let the symbol be
    i^N s(k) with s real and of parity eps_j = +-1 in each coordinate
    k_j; n axes are odd.  Let G be the group of ``_cosine_orbits``, and
    chi(g) the product of eps_j over the axes that g reflects.  chi is a
    character of G, because G maps odd axes to odd axes, and
    s(g k) = chi(g) s(k): the permutation part of g keeps s and each
    reflection of axis j multiplies it by eps_j.  The problem then runs on
    one real u_o per G-orbit o, with c_k = i^{-n} sgn(k) u_o / sqrt(|o|)
    (``trigpoly.CosineGrid``), so ||c|| = ||u||.  This loses nothing, for
    the grid ratio as for the true one:

    - g acts on polynomials by (gT)(x) = T(g^T x), which maps c_k to
      c_{g^{-1} k}.  D(gT)(0) = sum_k i^N s(k) c_{g^{-1} k} = chi(g) D T(0),
      and ||gT||_p = ||T||_p because g^T permutes the uniform grid (its
      per-axis sizes agree on axes that G swaps, since S has equal degrees
      there).  So A = |G|^{-1} sum_g chi(g) gT keeps D T(0), and
      ||A||_p <= ||T||_p since ||.||_p is a norm for p >= 1 (Minkowski, or
      for p = inf the triangle inequality of the grid maximum).
    - A's coefficients satisfy a_{gk} = chi(g) a_k.  A reflection of an
      odd axis fixes every k with k_j = 0 and has chi = -1, so a_k = 0
      there; elsewhere sgn(g k) = chi(g) sgn(k), so a_k = i^{-n} sgn(k) z_o
      with one complex z_o per orbit.  That is sum_o z_o phi_o with the
      real basis functions phi_o above.  Scale A by a unimodular constant
      so that sum_o s_o sqrt(|o|) z_o = r > 0, where s_o = s(|k|) on o
      (D A(0) = i^{N-n} times that sum, since s(k) sgn(k) = s(|k|)), and
      take B = Re A = sum_o Re(z_o) phi_o.  Then D B(0) = i^{N-n} r,
      and |B| <= |A| pointwise gives ||B||_p <= ||A||_p.

    The ratio of B is therefore at least that of T.  p < 1 breaks
    Minkowski and finite q breaks the translation to x = 0, so those keep
    the full complex coefficients, as do symbols of neither parity in some
    coordinate.
    """
    exact = closed_form(p, q, body, op, a) if p == q > 0 else None
    if exact is not None:
        keys = body.lattice_points(a)
        k = keys[int(np.argmax(np.abs(op.symbol_at_ik(keys.astype(float)))))]
        est = replace(exact, notes="ratio maximized exactly over the lattice "
                                   "(Parseval at q = 2, Bernstein on a box "
                                   "monomial); no iteration needed")
        return OptimizerOutcome(est, (est.value,),
                                {tuple(int(c) for c in k): 1.0 + 0j},
                                best_rungs=(None,),
                                unknowns=(0, len(keys), 1))
    out = _product_rule(p, q, op, a, body, config)
    if out is not None:
        return out
    if math.isinf(p) and math.isinf(q):
        out = exchange_lp(op, a, body)
        if out is not None:
            return out
    return optimize_ascent(p, q, op, a, body, config)


def _product_rule(p: float, q: float, op: DifferentialOperator, a: float,
                  body: ConvexBody, config: OptimizerConfig
                  ) -> OptimizerOutcome | None:
    """``optimize_full``'s product rule; None unless the body is a box,
    m >= 2, the symbol one term b D^alpha, q = inf and 1 <= p < inf.

    Each distinct (sigma_j, alpha_j) is one 1-D ``optimize_full`` run with
    ``config``.  The value is |b| times the product of the axes' values,
    its tolerance the product of their (1 + tolerance) less 1, and the
    coefficients the tensor of their winners.  ``restart_values``,
    ``ascent_stops`` and ``best_rungs`` run over the distinct solves in
    axis order, each stop renumbered to its restart's place in
    ``restart_values``; ``unknowns`` is (the distinct solves' unknowns,
    the m-D lattice size, the product of every axis's |G|).
    """
    if not (math.isinf(body.mu) and body.m >= 2 and len(op.terms) == 1
            and math.isinf(q) and 1.0 <= p < q):
        return None
    (alpha, b), = op.terms.items()
    axes = list(zip(body.sigma, alpha))
    solved = {}
    for s, al in axes:
        if (s, al) not in solved:
            solved[s, al] = optimize_full(
                p, q, DifferentialOperator.monomial((al,)), a,
                ConvexBody.parallelepiped([s]), config)
    outs = [solved[axis] for axis in axes]
    distinct = list(solved.values())

    notes = "product rule: tensor of 1-D winners; " + "; ".join(
        f"sigma = {s:g}, alpha = {al}: {o.estimate.notes}"
        for (s, al), o in solved.items())
    est = SharpConstantEstimate(
        abs(b) * math.prod(o.estimate.value for o in outs),
        "lower-bound-optimizer", p, q, op.label, body.label, a,
        math.prod(1.0 + o.estimate.tolerance for o in outs) - 1.0, notes)
    stops, values = [], []
    for o in distinct:
        stops += [replace(st, restart=st.restart + len(values))
                  for st in o.ascent_stops]
        values += o.restart_values
    values_1d = [np.array(list(o.best_coefficients.values())) for o in outs]
    coeffs = dict(zip(
        itertools.product(*[[k for (k,) in o.best_coefficients]
                            for o in outs]),
        reduce(np.multiply.outer, values_1d).ravel().tolist()))
    return OptimizerOutcome(
        est, tuple(values), coeffs, tuple(stops),
        tuple(r for o in distinct for r in o.best_rungs),
        (sum(o.unknowns[0] for o in distinct),
         math.prod(o.unknowns[1] for o in outs),
         math.prod(o.unknowns[2] for o in outs)))


def _spectrum(p: float, q: float, op: DifferentialOperator, a: float,
              body: ConvexBody):
    """The lattice points aV ∩ Z^m and the normalization a^{-N-m/p+m/q}."""
    if not (0 < p <= q):
        raise ValueError("need 0 < p <= q")
    keys = body.lattice_points(a)
    if len(keys) == 0:
        raise ValueError("empty spectrum")
    pref = a ** (-(op.order + (0.0 if math.isinf(p) else body.m / p)
                   - (0.0 if math.isinf(q) else body.m / q)))
    return keys, pref


def exchange_lp(op: DifferentialOperator, a: float,
                body: ConvexBody) -> OptimizerOutcome | None:
    """Bracket P(a) at p = q = inf by an exchange LP on the orbit unknowns;
    None when the symbol has no parity on some axis, P(a) is 0, or the
    orbits number more than ``_LP_MAX_UNKNOWNS``.

    P(a)/pref is the maximum of d.u subject to |T(x)| <= 1 on Q_pi, over
    the orbit basis of ``optimize_full``, which loses nothing.  The LP
    imposes the constraint on an active set of nodes of the certificate
    grid (a quarter grid, since |T| is even in every coordinate).  It
    starts as the nodes of the factor-2 quarter grid, moved to the nearest
    certificate nodes.  Each round solves the LP, synthesizes |T| of its
    solution on the certificate grid (into one array, which every round
    refills), adds the local maxima of |T| above 1 + ``_LP_SLACK`` and
    drops the rows whose dual is zero; it stops once no node is above.  This is the exchange (cutting-plane) method for
    semi-infinite LPs.  One HiGHS model carries the rounds: the first LP
    runs primal simplex from scratch, and each later round deletes and adds
    rows and re-solves by dual simplex from the last basis.

    - The lower bound is ``_final_value`` of the last solution, on the
      last round's |T|: the certified sup ratio, as for the ascent.
    - The upper bound comes from the duals y of each LP's rows R: for every
      T, d.u = y.(R u) + (d - R^T y).u <= (sum |y_l| + ||R^T y - d||_2)
      ||T||_inf, because |T(x_l)| <= ||T||_inf and ||u||_2 = ||c||_2 <=
      ||T||_inf (Parseval).  So it holds whatever the solver's accuracy;
      the least over the rounds is reported.
    """
    # scipy's HiGHS binding is loaded here, on first use, not with bnsharp
    from scipy.optimize._highspy._core import (HighsModelStatus, _Highs,
                                               kHighsInf)

    keys, pref = _spectrum(math.inf, math.inf, op, a, body)
    orbits = _cosine_orbits(math.inf, math.inf, op, keys)
    if orbits is None:
        return None
    index, sizes, group, odd, d = orbits
    if len(sizes) > _LP_MAX_UNKNOWNS:
        return None
    if not np.any(d):
        return None
    cert = _certificate_grid(CosineGrid(
        keys, index, default_grid(np.abs(keys).max(axis=0), 8), odd))
    coarse = default_grid(cert.degrees, 2)
    axes = [np.minimum(np.rint(np.arange(L // 2 + 1) * (Lc / L)), Lc // 2)
            for L, Lc in zip(coarse, cert.shape)]
    active = np.unique(np.stack([g.ravel() for g in np.meshgrid(
        *axes, indexing="ij")], axis=-1).astype(np.int64), axis=0)
    # one model, columns u with cost -d and a ranged row -1 <= R_l u <= 1
    # per active node; each round re-solves it from the last basis
    model = _Highs()
    model.setOptionValue("output_flag", False)
    model.setOptionValue("simplex_strategy", 4)     # primal, for the first LP
    n = len(d)
    model.addVars(n, np.full(n, -kHighsInf), np.full(n, kHighsInf))
    model.changeColsCost(n, np.arange(n, dtype=np.int32), -d)
    R, y, new, av = np.empty((0, n)), np.empty(0), cert.rows(active), None
    upper, iterations = (math.inf, 0.0), 0
    for lps in range(1, _LP_MAX_ROUNDS + 1):
        # drop the last LP's rows whose dual is zero, add the new peaks
        drop = np.flatnonzero(y == 0).astype(np.int32)
        model.deleteRows(len(drop), drop)
        _add_rows(model, new)
        R = np.vstack([R[y != 0], new])
        model.run()
        model.setOptionValue("simplex_strategy", 1)     # dual, warm
        status = model.getModelStatus()
        if status != HighsModelStatus.kOptimal:
            raise RuntimeError(f"exchange LP at a = {a:g}: "
                               f"{model.modelStatusToString(status)}")
        iterations += model.getInfo().simplex_iteration_count
        # min -d.u has row duals -y with R^T y = d
        solution = model.getSolution()
        u, y = np.array(solution.col_value), -np.array(solution.row_dual)
        residual = float(np.linalg.norm(R.T @ y - d))
        upper = min(upper, (float(np.abs(y).sum()) + residual, residual))
        # |T| on the certificate grid, in the array of the first round
        av = cert.synth(u, av)
        np.abs(av, out=av)
        peaks = _peaks_above(av, 1.0 + _LP_SLACK)
        if len(peaks) == 0:
            break
        new = cert.rows(peaks)
    value, tol = _final_value(cert, d, u, math.inf, math.inf, pref, av)
    notes = (f"exchange LP: {lps} LPs, {len(R)} active nodes; orbit "
             f"reduction: {len(sizes)} real unknowns for {len(keys)} "
             f"frequencies, |G| = {group}")
    est = SharpConstantEstimate(value, "lower-bound-optimizer", math.inf,
                                math.inf, op.label, body.label, a, tol, notes)
    bound = SharpConstantEstimate(pref * upper[0], "upper-bound-dual",
                                  math.inf, math.inf, op.label, body.label,
                                  a, 0.0, notes)
    coeffs = {tuple(int(v) for v in k): complex(v)
              for k, v in zip(keys, cert.coefficients(u))}
    return OptimizerOutcome(est, (value,), coeffs,
                            unknowns=(len(sizes), len(keys), group),
                            upper=bound,
                            lp=(lps, len(R), pref * upper[1], iterations))


def _add_rows(model, rows: np.ndarray) -> None:
    """Append the ranged rows -1 <= rows @ u <= 1 to model."""
    r, col = np.nonzero(rows)
    starts = np.searchsorted(r, np.arange(len(rows))).astype(np.int32)
    model.addRows(len(rows), np.full(len(rows), -1.0), np.ones(len(rows)),
                  len(col), starts, col.astype(np.int32), rows[r, col])


def _peaks_above(av: np.ndarray, level: float) -> np.ndarray:
    """The (r, m) quarter-grid nodes, in C order, where av > level and av
    is at least each neighbour's value.  |T| is even about node 0 and node
    L//2 of each axis, so a neighbour past the kept nodes 0..L//2 mirrors
    one inside that is compared anyway; clipping the offsets to the kept
    nodes (av's shape less one) loses no comparison.

    The level and the two neighbours on the last axis are boolean masks
    over the flat grid; the other 3^m - 3 neighbours are read by flat index
    at the nodes that pass them only, so that cost follows the nodes above
    the level."""
    values, n = av.ravel(), av.shape[-1]
    keep = (av > level).ravel()
    # flat pairs (j, j + 1) with j + 1 a multiple of n span two rows: there
    # the clipped neighbour is the node itself
    ahead = np.greater_equal(values[1:], values[:-1])
    ahead[n - 1::n] = True
    keep[1:] &= ahead
    np.greater_equal(values[:-1], values[1:], out=ahead)
    ahead[n - 1::n] = True
    keep[:-1] &= ahead
    flat = np.flatnonzero(keep)
    nodes = np.unravel_index(flat, av.shape)
    top = values[flat]
    peak = np.ones(len(flat), dtype=bool)
    for offset in itertools.product((-1, 0, 1), repeat=av.ndim):
        if any(offset[:-1]):
            near = np.ravel_multi_index([i + o for i, o in zip(nodes, offset)],
                                        av.shape, mode="clip")
            peak &= top >= values[near]
    return np.stack(nodes, axis=-1)[peak].astype(np.int64, copy=False)


def optimize_ascent(p: float, q: float, op: DifferentialOperator,
                    a: float, body: ConvexBody,
                    config: OptimizerConfig = OptimizerConfig(),
                    ) -> OptimizerOutcome:
    """Multistart L-BFGS ascent on the sphere for the normalized ratio.

    Maximizes over coefficients on the unit sphere (the ratio is scale
    invariant).  q = inf becomes |D T(0)| / ||T||_p by translation
    invariance; p = inf runs a log-sum-exp temperature ladder.  Each rung's
    iterate is re-evaluated unsmoothed (for q = inf on a fine grid, built
    once per call, whose sup-certificate keeps the value a genuine lower
    bound).  A restart's ladder stops at the first rung whose certified value
    is strictly below its best so far: hotter rungs only sharpen peaks
    between the coarse grid's nodes.  Each restart reports its
    best-certified iterate, the first of equal ones.  ``optimize_full``
    answers the p = q problems that ``closed_form`` holds before any
    ascent runs.

    Where ``_cosine_orbits`` applies, the ascent runs on its real unknowns,
    one per orbit (the reduction of ``optimize_full``), even or odd axes
    alike; each restart starts at the projection of its random complex
    coefficients onto them.

    For p = inf the reduction covers the certified sup ratio, not each rung
    of the ladder.  The soft maximum at a fixed temperature is not
    homogeneous in T, and the ascent runs on the unit sphere, so the
    reduced and the full ladders reach different iterates; a rung's value,
    and the reported value, may lie on either side of the full path's.
    """
    keys, pref = _spectrum(p, q, op, a, body)

    # soft-max landscapes need a denser grid than integral norms
    shape = default_grid(np.abs(keys).max(axis=0), 8 if math.isinf(p) else 4)
    d = op.symbol_at_ik(keys.astype(float))
    orbits = _cosine_orbits(p, q, op, keys)
    if orbits is None:
        prob = SamplingGrid(keys, shape)
        unknowns = (prob.n, prob.n, 1)
    else:
        # |D T(0)| = |sum_o s_o sqrt(|o|) u_o|
        index, _, group, odd, d = orbits
        prob = CosineGrid(keys, index, shape, odd)
        unknowns = (prob.n, len(keys), group)
    # every rung's iterate is scored on this grid; at p = q = inf it is the
    # run's largest, so it is built once
    cert = _certificate_grid(prob) if math.isinf(p) and math.isinf(q) \
        else prob

    def run_restart(idx: int) -> tuple[tuple, list[AscentStop]]:
        rng = np.random.default_rng([config.seed, idx])
        z = rng.standard_normal((len(keys), 2))
        c0 = prob.project((z[:, 0] + 1j * z[:, 1]) / math.sqrt(2.0))
        c, stops = c0, []
        best = (-math.inf, 0.0), c0, None      # (value, tol), iterate, rung
        for t in _TEMP_LADDER if math.isinf(p) else (None,):
            at = _make_objective(prob, d, p, q, temperature=t)
            (c, value, grad_norm), stop = _ascend(at, c, config)
            final = _final_value(cert, d, c, p, q, pref)
            stops.append(AscentStop(idx, t, *stop, value, grad_norm,
                                    final[0]))
            if final[0] < best[0][0]:
                break   # hotter rungs grow peaks between the coarse nodes
            if final[0] > best[0][0]:
                best = final, c, t
        return best, stops

    results = [run_restart(i) for i in range(config.restarts)]

    finals = [final for (final, _, _), _ in results]
    best_idx = max(range(config.restarts), key=lambda i: (finals[i][0], -i))
    c_best = results[best_idx][0][1]
    value, tol = finals[best_idx]

    notes = f"multistart ascent, {config.restarts} restarts"
    if value == 0.0 and any(abs(x) != 0 for x in d):
        notes += "; all restarts diverged"
    if orbits is not None:
        notes += (f"; cosine-orbit reduction: {unknowns[0]} real unknowns "
                  f"for {unknowns[1]} frequencies, |G| = {unknowns[2]}")
    est = SharpConstantEstimate(value, "lower-bound-optimizer", p, q,
                                op.label, body.label, a, tol, notes)
    coeffs = {tuple(int(c) for c in k): complex(v)
              for k, v in zip(keys, prob.coefficients(c_best))}
    return OptimizerOutcome(est, tuple(f for f, _ in finals), coeffs,
                            tuple(s for _, stops in results for s in stops),
                            tuple(t for (_, _, t), _ in results), unknowns)


# ---------------------------------------------------------------------------
# continuum candidates
# ---------------------------------------------------------------------------

def candidate_lower_bound_E(f: BandLimitedFunction, p: float, q: float,
                            op: DifferentialOperator,
                            R: float | None = None,
                            ) -> SharpConstantEstimate:
    """Lower-bound candidate ||D_N f||_q / ||f||_p for the continuum constant.

    Numerator and denominator are truncated real-domain norms with their
    certificates folded into the tolerance.  For q = inf the numerator's
    sup estimate (a grid maximum, or |D f(0)| where the origin bracket
    holds, as for ``cs_extremal``'s weight transforms) is itself a valid
    lower estimate, taken over Q_R for R at most 64.
    """
    if R is None:
        R = 64.0 * f.spectral_body.diameter()
    num = norm_lp_truncated(derived_function(f, op), q,
                            min(R, 64.0) if math.isinf(q) else R)
    den = norm_lp_truncated(f, p, R)
    if den.value == 0:
        raise ValueError("zero candidate")
    value = num.value / den.value
    # uncertainty: numerator and denominator tails plus quadrature drift
    tol = num.error_bound + den.error_bound
    if not math.isinf(q) and math.isfinite(num.tail_bound):
        tol += num.tail_bound / max(num.value ** q, 1e-300) / q
    if math.isfinite(den.tail_bound) and not math.isinf(p):
        tol += den.tail_bound / max(den.value ** p, 1e-300) / p
    return SharpConstantEstimate(value, "lower-bound-candidate", p, q,
                                 op.label, f.spectral_body.label, None,
                                 tol, f"candidate {f.label}")


# ---------------------------------------------------------------------------
# limit studies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LimitStudy:
    rows: tuple[SharpConstantEstimate, ...]
    reference: SharpConstantEstimate | None
    runtime_ms: tuple[float, ...]          # wall time of each row


def limit_study(p: float, q: float, op: DifferentialOperator,
                body: ConvexBody, a_list: Sequence[float],
                config: OptimizerConfig = OptimizerConfig()) -> LimitStudy:
    """Periodic constants along an increasing scale sweep, with the continuum
    reference where a closed form exists.

    The paper proves E <= liminf P, with equality at q = inf.  That is the
    reason for the sweep; the rows and the reference are all it reports.
    """
    a_list = [float(a) for a in a_list]
    if any(b <= a for a, b in zip(a_list, a_list[1:])):
        raise ValueError("scale sweep must be strictly increasing")
    rows, runtime_ms = [], []
    for a in a_list:
        t0 = time.perf_counter()
        est = closed_form(p, q, body, op, a)
        if est is None:
            est = optimize_full(p, q, op, a, body, config).estimate
        rows.append(est)
        runtime_ms.append((time.perf_counter() - t0) * 1000.0)
    return LimitStudy(tuple(rows), closed_form(p, q, body, op),
                      tuple(runtime_ms))
