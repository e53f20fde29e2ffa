"""Periodization of band-limited functions into trigonometric polynomials.

For f with spectrum in V the periodized function

    S_a(f, x) = sum_k f(x + 2*k*pi*a) * h^2(x/(2a) + k*pi),

with h the separable sinc kernel, is (after rescaling x -> a*x) a
trigonometric polynomial whose spectrum sits in the slightly enlarged body
(a + c)V, c the l1-over-dual constant of V.  The lattice sum is truncated
with a certified bound combining the window's quadratic tail with the decay
envelope of f, so every downstream check carries an explicit certificate.

Both kinds of multivariate function sum the shifts of the box |l|_inf <= K
axis by axis, since the window is separable.  A separable sum periodizes
each univariate atom on its own axis and combines the atoms term by term.
A weight transform f(x) = sum_n W_n exp(i x . xi_n) has a kernel that
factorizes too, so its sum is sum_n W_n prod_j A_j(x_j, xi_{n,j}) with

    A_j(x, xi) = e^{i x xi} sum_{|l|<=K} e^{2 pi i a l xi} sinc^2(x/(2a pi) + l),

one matrix product of the window matrix with the shift phases per axis,
contracted with W as the transform itself is.  ``levitan_coefficients``
samples the sum on a tensor grid and reads the coefficients out through
the spectrum's ``SamplingGrid``; ``levitan_evaluate`` sums pointwise at
arbitrary points and backs ``LevitanResult.evaluate``, the independent
check on the extracted polynomial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bandlimited import BandLimitedFunction, NonIntegrableTailError, \
    derived_function, fold_terms, norm_lp_truncated, transform_at_points, \
    transform_on_axes, union_tail, window_terms
from .body import ConvexBody
from .trigpoly import DifferentialOperator, NormEstimate, SamplingGrid, \
    TrigPolynomial, apply_operator, default_grid, norm_lp

K_CAP_1D = 10**7
#: Cap on the entries (2K + 1) * G_j of a weight transform's shift-phase
#: matrix on one axis with G_j nodes, which sets its largest K.
PHASE_CAP = 2**24


class TruncationFailure(RuntimeError):
    """Out-of-spectrum energy above the requested tolerance."""


# ---------------------------------------------------------------------------
# truncation planning
# ---------------------------------------------------------------------------

def _axis_tail(C: float, d: float, sup: float, a: float, K: int,
               t: float) -> float:
    """Certified bound on one axis' discarded sum for shifts |l| > K."""
    if K <= t + 1:
        return math.inf
    win = sup * (2.0 / math.pi ** 2) / (K - t)
    env = (2.0 * C * (2.0 * math.pi * a) ** (-d) / math.pi ** 2 *
           (K - t) ** (-(d + 1.0)) / (d + 1.0))
    return min(win, env)


def _box_tail(f: BandLimitedFunction, a: float, K: int, t: float) -> float:
    """Certified bound on a weight transform's discarded shifts
    |l|_inf > K, from its radial decay envelope."""
    m = f.m
    if K <= 2 * t + 2:
        return math.inf
    win = f.sup_bound * m * (2.0 / math.pi ** 2) / (K - t)
    C, d = f.decay.radial
    if d + 2.0 <= m:
        return win
    env = (2.0 * m * 3.0 ** (m - 1) * 2.0 ** (m - 1) * C *
           (2.0 * math.pi * a) ** (-d) / math.pi ** 2 *
           (K - t) ** (m - 2.0 - d) / (d + 2.0 - m))
    return min(win, env)


def plan_truncation(f: BandLimitedFunction, a: float, eps: float,
                    x_inf: float | None = None) -> tuple[int, float]:
    """Smallest doubling K with certified truncation bound <= eps."""
    if not 0 < eps < math.inf:
        raise ValueError(f"tolerance must be positive and finite, not {eps}")
    if not math.isfinite(f.sup_bound):
        raise ValueError("unbounded function cannot be periodized")
    if x_inf is None:
        x_inf = a * math.pi
    t = x_inf / (2.0 * math.pi * a)
    cap = (K_CAP_1D if _terms(f) is not None else
           (PHASE_CAP // max(len(n) for n in f.nodes) - 1) // 2)
    K = int(math.ceil(2 * t + 3))
    while K <= cap:
        bound = _tail_for(f, a, K, t)
        if bound <= eps:
            return K, bound
        K *= 2
    raise ValueError(
        f"cannot certify truncation at tolerance {eps} within K <= {cap}")


def _terms(f: BandLimitedFunction):
    """f's separable terms, a bare univariate f being the one-term sum
    ((1, (f,)),); None for a weight transform."""
    if f.weights is not None:
        return None
    return f.terms if f.terms is not None else ((1.0, (f,)),)


def _tail_for(f: BandLimitedFunction, a: float, K: int, t: float) -> float:
    terms = _terms(f)
    if terms is None:
        return _box_tail(f, a, K, t)
    # the periodization is linear: each term's per-axis union bound,
    # weighted by |c_r|
    total = 0.0
    for c, atoms in terms:
        tails = [_axis_tail(*g.decay.univariate(), g.sup_bound, a, K, t)
                 for g in atoms]
        total += abs(c) * union_tail(tails, [g.sup_bound for g in atoms])
    return total


# ---------------------------------------------------------------------------
# the periodization sum
# ---------------------------------------------------------------------------

def _axis_sum(g: BandLimitedFunction, a: float, x: np.ndarray,
              K: int) -> np.ndarray:
    """sum_{|l|<=K} g(x + 2*l*pi*a) * (sin(x/(2a))/(x/(2a)+l*pi))^2, 1-D."""
    ls = np.arange(-K, K + 1)
    args = x[:, None] + 2.0 * math.pi * a * ls[None, :]
    vals = g.evaluate(args.reshape(-1, 1)).reshape(args.shape)
    return (vals * window_terms(x / (2.0 * a), K)).sum(axis=1)


def _periodized_phases(f: BandLimitedFunction, a: float,
                       K: int) -> Callable:
    """The per-axis matrices A_j(x, xi) of the periodized weight transform f,
    as ``transform_at_points`` and ``transform_on_axes`` take them."""
    shifts = 2.0 * math.pi * a * np.arange(-K, K + 1)
    phases = [np.exp(1j * np.multiply.outer(shifts, n)) for n in f.nodes]

    def axis_matrix(j: int, x: np.ndarray) -> np.ndarray:
        return (np.exp(1j * np.multiply.outer(x, f.nodes[j])) *
                (window_terms(x / (2.0 * a), K) @ phases[j]))
    return axis_matrix


def levitan_evaluate(f: BandLimitedFunction, a: float, x,
                     eps: float = 1e-9) -> np.ndarray:
    """Pointwise periodization S_a(f, x), truncated with certified tail <= eps.

    ``x`` may be a single vector or an array of shape (n, m).
    """
    if a < 1:
        raise ValueError("scale a must be >= 1")
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[-1] != f.m:
        raise ValueError("point dimension mismatch")
    bad = x[~np.isfinite(x).all(axis=1)]
    if bad.size:
        raise ValueError(f"periodization at non-finite points "
                         f"{bad[:4].tolist()}")
    x_inf = float(np.abs(x).max()) if x.size else 0.0
    K, _ = plan_truncation(f, a, eps, x_inf=max(x_inf, a * math.pi))

    terms = _terms(f)
    if terms is not None:
        return fold_terms(terms, lambda g, j: _axis_sum(g, a, x[:, j], K))
    # one point gives a 0-d transform value; keep the (n,) shape
    return transform_at_points(f.weights, _periodized_phases(f, a, K),
                               x).reshape(x.shape[0])


def _grid_sum(f: BandLimitedFunction, a: float, axes: list[np.ndarray],
              K: int) -> np.ndarray:
    """S_a(f, x) on the tensor grid of the per-axis coordinates ``axes``,
    summed as ``levitan_evaluate`` sums point by point."""
    m = len(axes)
    terms = _terms(f)
    if terms is not None:
        return fold_terms(terms, lambda g, j: _axis_sum(
            g, a, axes[j], K).reshape((-1,) + (1,) * (m - 1 - j)))
    return transform_on_axes(f.weights, _periodized_phases(f, a, K), axes)


# ---------------------------------------------------------------------------
# coefficient extraction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LevitanResult:
    """Periodization of one function at one scale.

    ``polynomial`` is x -> S_a(f, a*x), a trigonometric polynomial on Q_pi
    with spectrum inside (a + c)V; ``evaluate`` is the direct lattice sum
    (an independent code path from the polynomial synthesis).
    """

    label: str
    a: float
    enlarged_body: ConvexBody
    truncation_K: int
    truncation_bound: float
    polynomial: TrigPolynomial
    evaluate: Callable[[np.ndarray], np.ndarray]
    out_of_spectrum: float


def levitan_coefficients(f: BandLimitedFunction, a: float,
                         eps: float = 1e-9,
                         oversample: int = 2) -> LevitanResult:
    """Extract the rescaled periodization as a trigonometric polynomial.

    Samples S_a(f, a*x) on an alias-free grid over Q_pi and reads the
    coefficients off a discrete Fourier analysis through the spectrum's
    ``SamplingGrid``.  The samples are formed axis by axis from the grid's
    per-axis coordinates (``_grid_sum``), not point by point;
    ``LevitanResult.evaluate`` remains the independent pointwise lattice
    sum (``levitan_evaluate``).  Energy found outside the admissible
    spectrum (a + c)V must stay below eps, else the truncation failed and
    TruncationFailure is raised.  Scales a < 1 raise ValueError.

    The extraction runs once per (a, eps, oversample) and is kept on f;
    each call wraps it in a new result, whose ``evaluate`` is the only part
    that refers to f.  Results of one key share their (frozen) polynomial.
    A raised error is not kept, so every call raises it again.
    """
    if a < 1:
        raise ValueError("scale a must be >= 1")
    key = ("levitan_coefficients", float(a), eps, oversample)
    if key not in f._memo:
        f._memo[key] = _extract(f, a, eps, oversample)
    enlarged, K, bound, poly, out_max = f._memo[key]
    return LevitanResult(
        label=f.label, a=a, enlarged_body=enlarged, truncation_K=K,
        truncation_bound=bound, polynomial=poly,
        evaluate=lambda x: levitan_evaluate(f, a, x, eps=eps),
        out_of_spectrum=out_max)


def _extract(f: BandLimitedFunction, a: float, eps: float, oversample: int
             ) -> tuple[ConvexBody, int, float, TrigPolynomial, float]:
    """``levitan_coefficients``' parts that do not refer to f: the enlarged
    body, K, the truncation bound, the polynomial and the out-of-spectrum
    maximum."""
    c = f.spectral_body.ell1_over_dual()
    enlarged = f.spectral_body.scaled(a + c)
    spectrum = enlarged.lattice_points(1.0)
    shape = default_grid(np.abs(spectrum).max(axis=0), oversample)
    # the coefficients come out in the C order of their FFT grid indices
    spectrum = spectrum[np.lexsort((spectrum % shape).T[::-1])]
    grid = SamplingGrid(spectrum, shape)

    axes = [(-math.pi + 2.0 * math.pi * np.arange(L) / L) for L in shape]
    # the grid's largest |a*x| is a*pi, the plan's default
    K, bound = plan_truncation(f, a, eps)
    samples = _grid_sum(f, a, [a * x for x in axes], K)

    spec = np.fft.fftn(samples) / grid.size
    coeffs = dict(zip(map(tuple, spectrum.tolist()),
                      (grid.phase * spec[grid.idx]).tolist()))
    spec[grid.idx] = 0
    # hypot rounds as the scalar abs(complex) does; np.abs on an array
    # may not
    out_max = float(np.hypot(spec.real, spec.imag).max(initial=0.0))
    if out_max > 1.05 * eps + 1e-12:
        raise TruncationFailure(
            f"out-of-spectrum coefficient {out_max:.3e} exceeds eps={eps:.3e}")
    poly = TrigPolynomial(f.m, coeffs, budget=(enlarged, 1.0))
    return enlarged, K, bound, poly, out_max


# ---------------------------------------------------------------------------
# property checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ContractionReport:
    """Comparison of ||S_a||_{L_p(Q_{a pi})} against ||f||_{L_p(R^m)}."""

    p: float
    a: float
    lhs: float
    rhs: NormEstimate
    slack: float
    certificate: float

    @property
    def passed(self) -> bool:
        return self.slack >= -self.certificate


def check_norm_contraction(f: BandLimitedFunction, a: float, p: float,
                           eps: float = 1e-8) -> ContractionReport:
    """Report the slack in the periodization norm contraction.

    The right-hand side uses the truncated real-domain norm over Q_R, R =
    max(64 diam, 4 a pi), with its tail certificate; a non-integrable tail
    makes the inequality vacuously true and is reported as infinite slack.
    Both sides are kept on f (``levitan_coefficients``,
    ``norm_lp_truncated``), so a sweep over a and p on one function
    periodizes once per a and integrates once per (p, R).
    """
    res = levitan_coefficients(f, a, eps=eps)
    est = norm_lp(res.polynomial, p)
    if math.isinf(p):
        lhs = est.value
        lhs_unc = est.value * est.error_bound + eps
    else:
        lhs = a ** (f.m / p) * est.value
        lhs_unc = (lhs * est.error_bound +
                   eps * (2.0 * math.pi * a) ** (f.m / p))

    R = max(64.0 * f.spectral_body.diameter(), 4.0 * a * math.pi)
    try:
        rhs = norm_lp_truncated(f, p, R)
    except NonIntegrableTailError:
        rhs = NormEstimate(math.inf, p, 0.0, math.inf)
        return ContractionReport(p, a, lhs, rhs, math.inf, math.inf)
    slack = rhs.upper() - lhs
    return ContractionReport(p, a, lhs, rhs, slack, lhs_unc)


@dataclass(frozen=True)
class OperatorErrorReport:
    """Fit of |D f - D S_a| to the shape A*|x|^2/a^2 + B/a."""

    a: float
    A: float
    B: float
    max_error: float
    errors: np.ndarray
    xs: np.ndarray


def check_operator_error(f: BandLimitedFunction, a: float,
                         op: DifferentialOperator, xs,
                         eps: float = 1e-9) -> OperatorErrorReport:
    """Measure |D_N f - D_N S_a| on sample points and fit its a-dependence.

    Both sides are exact up to rounding: the extracted polynomial is
    differentiated spectrally, and f through its analytic partials
    (``derived_function``; KeyError when f has none).
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    res = levitan_coefficients(f, a, eps=eps)
    DP = apply_operator(op, res.polynomial)
    # S_a(x) = P(x/a) so D_N S_a(x) = a^-N (D_N P)(x/a)
    ds = a ** (-op.order) * DP.evaluate_points(xs / a)
    df = derived_function(f, op).evaluate(xs)
    errs = np.abs(df - ds)
    design = np.stack([(xs ** 2).sum(axis=1) / a ** 2,
                       np.full(xs.shape[0], 1.0 / a)], axis=1)
    coef, *_ = np.linalg.lstsq(design, errs, rcond=None)
    return OperatorErrorReport(a=a, A=float(coef[0]), B=float(coef[1]),
                               max_error=float(errs.max()), errors=errs,
                               xs=xs)
