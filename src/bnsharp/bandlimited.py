"""Concrete band-limited functions used as extremal candidates.

A ``BandLimitedFunction`` packages a vectorized evaluator on R^m together
with its declared spectral body, a sup-norm bound, and a polynomial decay
envelope.  The envelope is what makes truncated L_p norms certifiable: every
norm computed over a cube Q_R carries an analytic bound on the mass outside.

Tensor-product structure is tracked explicitly (``factors``).  Cubature over
R^m factorizes exactly for such functions, which is the difference between
milliseconds and hours for the multivariate test cases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from itertools import product as iter_product
from typing import Callable, Sequence

import numpy as np

from .body import ConvexBody, exact_floor
from .trigpoly import DifferentialOperator, TrigPolynomial

MultiIndex = tuple[int, ...]


class NonIntegrableTailError(ValueError):
    """The decay envelope cannot certify a finite tail at this exponent."""


# ---------------------------------------------------------------------------
# decay envelopes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecayModel:
    """Polynomial decay envelope for |f|.

    kind "radial":  |f(x)| <= C / (1 + |x|)^d
    kind "product": |f(x)| <= prod_j C_j / (1 + |x_j|)^{d_j}
    """

    kind: str
    radial: tuple[float, float] | None = None
    axes: tuple[tuple[float, float], ...] | None = None

    @staticmethod
    def make_radial(C: float, d: float) -> "DecayModel":
        return DecayModel("radial", radial=(float(C), float(d)))

    @staticmethod
    def make_product(axes: Sequence[tuple[float, float]]) -> "DecayModel":
        return DecayModel("product",
                          axes=tuple((float(C), float(d)) for C, d in axes))

    def envelope(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind == "radial":
            C, d = self.radial
            r = np.sqrt((x ** 2).sum(axis=-1))
            return C / (1.0 + r) ** d
        out = np.ones(x.shape[:-1])
        for j, (C, d) in enumerate(self.axes):
            out = out * (C / (1.0 + np.abs(x[..., j])) ** d)
        return out

    def sup_outside(self, R: float) -> float:
        """Upper bound on sup |f| over the complement of Q_R."""
        if self.kind == "radial":
            C, d = self.radial
            return C / (1.0 + R) ** d
        best = 0.0
        for j, (Cj, dj) in enumerate(self.axes):
            other = math.prod(C for i, (C, _) in enumerate(self.axes) if i != j)
            best = max(best, other * Cj / (1.0 + R) ** dj)
        return best

    def integral_outside(self, p: float, R: float, m: int) -> float:
        """Upper bound on the integral of |f|^p outside Q_R.

        Raises NonIntegrableTailError when the envelope decays too slowly
        for the exponent (radial: d*p <= m; product: some d_j*p <= 1).
        """
        if self.kind == "radial":
            C, d = self.radial
            if d * p <= m:
                raise NonIntegrableTailError(
                    f"radial decay order {d} cannot certify an L_{p} tail in "
                    f"dimension {m} (need d*p > m)")
            surf = 2.0 * math.pi ** (m / 2.0) / math.gamma(m / 2.0)
            return C ** p * surf * R ** (m - d * p) / (d * p - m)
        fulls, outs = [], []
        for Cj, dj in self.axes:
            if dj * p <= 1.0:
                raise NonIntegrableTailError(
                    f"axis decay order {dj} cannot certify an L_{p} tail "
                    "(need d*p > 1 per axis)")
            fulls.append(2.0 * Cj ** p / (dj * p - 1.0))
            outs.append(2.0 * Cj ** p * (1.0 + R) ** (1.0 - dj * p) / (dj * p - 1.0))
        total = 0.0
        for j in range(len(self.axes)):
            total += outs[j] * math.prod(fulls[i] for i in range(len(self.axes))
                                         if i != j)
        return total


# ---------------------------------------------------------------------------
# the function objects
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BandLimitedFunction:
    """An entire function of exponential type, restricted to R^m.

    ``evaluate`` accepts arrays of shape (..., m) and returns complex values
    of shape (...).  ``partials``, when present, maps a multi-index to an
    analytic derivative evaluator of the same signature; there is no
    finite-difference fallback, so ``derivative`` raises KeyError for a
    function without them.  ``eval_axes`` evaluates on a tensor grid given
    per-axis 1-D node arrays (exploited by cubature).
    """

    m: int
    evaluate: Callable[[np.ndarray], np.ndarray]
    spectral_body: ConvexBody
    sup_bound: float
    decay: DecayModel
    label: str
    partials: Callable[[MultiIndex], Callable] | None = None
    factors: tuple["BandLimitedFunction", ...] | None = None
    tensor_eval: Callable[[Sequence[np.ndarray]], np.ndarray] | None = None

    def __call__(self, x) -> np.ndarray:
        return self.evaluate(np.asarray(x, dtype=float))

    def derivative(self, alpha: MultiIndex) -> Callable[[np.ndarray], np.ndarray]:
        """Analytic partial-derivative evaluator; KeyError if not available."""
        alpha = tuple(int(a) for a in alpha)
        if all(a == 0 for a in alpha):
            return self.evaluate
        if self.partials is None:
            raise KeyError(f"{self.label}: no analytic derivative for {alpha}")
        return self.partials(alpha)

    def eval_axes(self, axes: Sequence[np.ndarray]) -> np.ndarray:
        """Values on the tensor grid spanned by per-axis nodes."""
        if len(axes) != self.m:
            raise ValueError("need one node array per axis")
        if self.tensor_eval is not None:
            return self.tensor_eval(axes)
        if self.factors is not None:
            out = np.ones((1,) * self.m, dtype=complex)
            for j, f in enumerate(self.factors):
                vals = f.evaluate(axes[j][:, None])
                shape = [1] * self.m
                shape[j] = len(axes[j])
                out = out * vals.reshape(shape)
            return out
        grids = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=-1)
        out = np.empty(pts.shape[0], dtype=complex)
        chunk = max(1, 2 ** 22 // max(1, self.m))
        for i in range(0, pts.shape[0], chunk):
            out[i:i + chunk] = self.evaluate(pts[i:i + chunk])
        return out.reshape([len(ax) for ax in axes])

    def verify_decay(self, radii=None, tolerance: float = 0.10) -> None:
        """Spot-check |f| <= (1 + tolerance) * envelope on sampled rays."""
        if radii is None:
            radii = np.geomspace(0.5, 64.0, 12)
        dirs = [np.eye(self.m)[j] for j in range(self.m)]
        dirs.append(np.ones(self.m) / math.sqrt(self.m))
        for u in dirs:
            pts = np.asarray(radii)[:, None] * u[None, :]
            vals = np.abs(self.evaluate(pts))
            env = self.decay.envelope(pts)
            if np.any(vals > (1.0 + tolerance) * env):
                worst = float(np.max(vals / env))
                raise ValueError(
                    f"{self.label}: decay envelope violated on a sampled ray "
                    f"(ratio {worst:.3f})")


def tensor_product(factors: Sequence[BandLimitedFunction],
                   label: str | None = None) -> BandLimitedFunction:
    """Tensor product of univariate band-limited functions.

    The spectral body is the box with the factors' semi-axes; sup bounds and
    per-axis decay envelopes multiply.
    """
    factors = tuple(factors)
    if any(f.m != 1 for f in factors):
        raise ValueError("tensor factors must be univariate")
    m = len(factors)
    sigma = [f.spectral_body.sigma[0] for f in factors]
    body = ConvexBody.parallelepiped(sigma)
    axes_decay = []
    for f in factors:
        if f.decay.kind == "radial":
            axes_decay.append(f.decay.radial)
        else:
            axes_decay.append(f.decay.axes[0])
    decay = DecayModel.make_product(axes_decay)
    if label is None:
        label = " (x) ".join(f.label for f in factors)

    def partials(alpha):
        evals = [f.derivative((a,)) for f, a in zip(factors, alpha)]

        def d_eval(x):
            x = np.asarray(x, dtype=float)
            out = np.ones(x.shape[:-1], dtype=complex)
            for j, e in enumerate(evals):
                out = out * e(x[..., j:j + 1])
            return out
        return d_eval

    has_partials = all(f.partials is not None for f in factors)
    return BandLimitedFunction(
        m=m, evaluate=partials((0,) * m), spectral_body=body,
        sup_bound=math.prod(f.sup_bound for f in factors),
        decay=decay, label=label,
        partials=partials if has_partials else None,
        factors=factors)


def _scaled(f: BandLimitedFunction, c: complex) -> BandLimitedFunction:
    """c * f with the metadata transformed accordingly."""
    acz = abs(c)
    if f.decay.kind == "radial":
        decay = DecayModel.make_radial(f.decay.radial[0] * acz, f.decay.radial[1])
    else:
        axes = list(f.decay.axes)
        axes[0] = (axes[0][0] * acz, axes[0][1])
        decay = DecayModel.make_product(axes)

    def partials(alpha):
        base = f.derivative(alpha)
        return lambda x: c * base(x)

    return BandLimitedFunction(
        m=f.m, evaluate=lambda x: c * f.evaluate(x),
        spectral_body=f.spectral_body, sup_bound=acz * f.sup_bound,
        decay=decay, label=f.label,
        partials=partials if f.partials is not None else None,
        factors=None if f.factors is None else
        (_scaled(f.factors[0], c),) + f.factors[1:])


def derived_function(f: BandLimitedFunction,
                     op: DifferentialOperator) -> BandLimitedFunction:
    """D_N f as a band-limited function with a measured decay envelope.

    The identity returns f.  A one-term operator on a tensor product
    differentiates each factor, so D_N f stays a tensor product.  Otherwise
    the terms' analytic partials are summed (KeyError where f has none); the
    decay order is inherited from f, the constant is measured on sampled
    rays and re-audited by the standard spot check.
    """
    if op.order == 0:
        return f
    if len(op.terms) == 1 and f.factors is not None:
        (alpha, b), = op.terms.items()
        parts = [derived_function(g, DifferentialOperator.monomial((a,)))
                 for g, a in zip(f.factors, alpha)]
        return _scaled(tensor_product(parts, label=f"D^{alpha} {f.label}"), b)
    evals = [(b, f.derivative(alpha)) for alpha, b in op.terms.items()]

    def evaluate(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1], dtype=complex)
        for b, e in evals:
            out += b * e(x)
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
        sup_bound=sup, decay=decay, label=f"D[{op.label}] {f.label}")
    g.verify_decay()
    return g


# ---------------------------------------------------------------------------
# sinc kernels and the periodization identity
# ---------------------------------------------------------------------------

def _sinc_derivative(r: int, y: np.ndarray) -> np.ndarray:
    """The r-th derivative of sin(y)/y = 1/2 int_{-1}^{1} e^{iyx} dx."""
    return 0.5 * ((1j ** r) * _moment_1d(r, 1.0, y)).real


def sinc_kernel(m: int) -> BandLimitedFunction:
    """h(y) = prod_j sin(y_j)/y_j, the separable Dirichlet kernel on R^m."""
    def eval1(x):
        return np.sinc(x[..., 0] / math.pi).astype(complex)

    def partials(alpha):
        (r,) = alpha
        return lambda x: _sinc_derivative(
            r, np.asarray(x, dtype=float)[..., 0]).astype(complex)

    one = BandLimitedFunction(
        m=1, evaluate=eval1, spectral_body=ConvexBody.cube(1.0, 1),
        sup_bound=1.0, decay=DecayModel.make_product([(2.0, 1.0)]),
        label="sinc", partials=partials)
    if m == 1:
        return one
    return tensor_product([one] * m, label=f"sinc^({m})")


def sinc_sq_half_kernel(m: int) -> BandLimitedFunction:
    """The window h^2(./2) = prod_j (sin(x_j/2)/(x_j/2))^2.

    Band limit is the unit cube; this is the building block of the
    periodization operator and sums to one over the shifted lattice.
    """
    def eval1(x):
        return (np.sinc(x[..., 0] / (2.0 * math.pi)) ** 2).astype(complex)

    def partials(alpha):
        (r,) = alpha

        def d_eval(x):
            # Leibniz rule on h(x/2) * h(x/2)
            y = 0.5 * np.asarray(x, dtype=float)[..., 0]
            h = [_sinc_derivative(l, y) for l in range(r + 1)]
            out = sum(math.comb(r, l) * h[l] * h[r - l] for l in range(r + 1))
            return (out / 2.0 ** r).astype(complex)
        return d_eval

    one = BandLimitedFunction(
        m=1, evaluate=eval1, spectral_body=ConvexBody.cube(1.0, 1),
        sup_bound=1.0, decay=DecayModel.make_product([(16.0, 2.0)]),
        label="sinc_sq_half", partials=partials)
    if m == 1:
        return one
    return tensor_product([one] * m, label=f"sinc_sq_half^({m})")


def window_axis_sum(theta: np.ndarray, K: int) -> tuple[np.ndarray, np.ndarray]:
    """Truncated 1-D window sum sum_{|l|<=K} (sin t/(t+l*pi))^2 with tail bound.

    Returns (value, certified bound on the discarded positive tail).  The
    full sum equals 1 for every t.
    """
    theta = np.asarray(theta, dtype=float)
    t0 = np.abs(theta) / math.pi
    if K <= np.max(t0) + 1:
        raise ValueError("truncation K too small for these arguments")
    ls = np.arange(-K, K + 1)
    # sin(t+l*pi)^2 == sin(t)^2, so one sin per point serves every term
    total = theta[..., None] + math.pi * ls
    total *= total
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(np.sin(theta)[..., None] ** 2, total, out=total)
    # the term nearest t + l*pi = 0 goes through np.sinc: it holds the
    # removable singularity, and there the rounding of l*pi would spoil
    # sin(t)^2 / (t+l*pi)^2
    l0 = np.rint(-theta / math.pi).astype(np.int64)
    np.put_along_axis(total, (l0 + K)[..., None],
                      (np.sinc(theta / math.pi + l0) ** 2)[..., None], axis=-1)
    value = total.sum(axis=-1)
    bound = np.sin(theta) ** 2 * (2.0 / math.pi ** 2) / (K - t0)
    return value, bound


def poisson_window_sum(x, K: int) -> tuple[np.ndarray, np.ndarray]:
    """Box-truncated sum_{|k|_inf<=K} h^2(x/2 + k*pi) and its tail bound.

    Tensorizes exactly: the box sum is the product of per-axis sums, and the
    deviation from 1 is bounded by the product-tail estimate.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[None, :]
    m = x.shape[-1]
    vals = []
    tails = []
    for j in range(m):
        v, t = window_axis_sum(x[..., j] / 2.0, K)
        vals.append(v)
        tails.append(t)
    value = np.prod(np.stack(vals), axis=0)
    bound = np.zeros_like(value)
    for j in range(m):
        others = np.ones_like(value)
        for i in range(m):
            if i != j:
                others = others * (vals[i] + tails[i])
        bound = bound + tails[j] * others
    return value, bound


# ---------------------------------------------------------------------------
# Akhiezer family: near-extremal functions for same-exponent derivative ratios
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-node Gauss-Legendre rule on [-1, 1], computed once per n.

    The arrays are shared between callers, so they are read-only.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _flat_bump_poly(d: int) -> np.polynomial.Polynomial:
    """(t(1-t))^{d+1}: d+1-fold flat at both endpoints of [0, 1]."""
    base = np.polynomial.Polynomial([0.0, 1.0, -1.0])
    return base ** (d + 1)


def _abs_integral_01(poly: np.polynomial.Polynomial) -> float:
    """Exact integral of |poly| over [0, 1] (split at interior real roots)."""
    roots = [r.real for r in poly.roots()
             if abs(r.imag) < 1e-12 and 1e-12 < r.real < 1 - 1e-12]
    cuts = [0.0] + sorted(set(round(r, 14) for r in roots)) + [1.0]
    anti = poly.integ()
    total = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        total += abs(anti(b) - anti(a))
    return float(total)


def akhiezer_family(M: float, q: float, h_param: float, s: int = 1,
                    quad_nodes: int = 192) -> BandLimitedFunction:
    """One member of the spectral-edge family concentrating at frequency M.

    f_h(t) = e^{iMt} * int_0^1 e^{-i h t tau} phi(tau) dtau with a
    boundary-flat bump phi = (tau(1-tau))^{d+1}, d = floor(1/q) + 1.  As
    h -> 0+ the ratio ||f^(s)||_q / ||f||_q climbs to M^s.  Analytic
    derivatives up to any order are attached (``s`` records the order the
    member is meant to witness).

    Univariate; tensorize with :func:`tensor_product` for boxes.
    """
    if not (0 < h_param < M):
        raise ValueError("window width h_param must lie in (0, M)")
    if s < 1:
        raise ValueError("derivative order s must be positive")
    d = (0 if math.isinf(q) else math.floor(1.0 / q)) + 1
    phi = _flat_bump_poly(d)
    nodes, weights = _leggauss(quad_nodes)
    tau = 0.5 * (nodes + 1.0)
    w = 0.5 * weights * phi(tau)

    def psi(r: int, t: np.ndarray) -> np.ndarray:
        # int_0^1 e^{-i t tau} tau^r phi(tau) dtau on the fixed rule
        return np.exp(-1j * np.multiply.outer(t, tau)) @ (w * tau ** r)

    def evaluate(x):
        t = np.asarray(x, dtype=float)[..., 0]
        return np.exp(1j * M * t) * psi(0, h_param * t)

    def partials(alpha):
        (r,) = alpha

        def d_eval(x):
            t = np.asarray(x, dtype=float)[..., 0]
            acc = np.zeros(t.shape, dtype=complex)
            for l in range(r + 1):
                acc += (math.comb(r, l) * (-1.0) ** (r - l) * M ** l *
                        h_param ** (r - l) * psi(r - l, h_param * t))
            return (1j ** r) * np.exp(1j * M * t) * acc
        return d_eval

    A = float(math.gamma(d + 2) ** 2 / math.gamma(2 * d + 4))  # int phi
    B = _abs_integral_01(phi.deriv(d))
    # |f| <= min(A, B/(h|t|)^d) <= C/(1+|t|)^d
    T0 = (B / A) ** (1.0 / d) / h_param
    C = A * (1.0 + T0) ** d
    f = BandLimitedFunction(
        m=1, evaluate=evaluate, spectral_body=ConvexBody.cube(M, 1),
        sup_bound=A, decay=DecayModel.make_product([(C, float(d))]),
        label=f"akhiezer(M={M},q={q},h={h_param},s={s})",
        partials=partials)
    f.verify_decay()
    return f


# ---------------------------------------------------------------------------
# extremal cosine products (periodic same-exponent problem)
# ---------------------------------------------------------------------------

def cos_product(a: float, sigma: Sequence[float]) -> TrigPolynomial:
    """T(x) = prod_j cos(floor(a*sigma_j) x_j) as a sparse polynomial.

    The 2^m spectrum points (+-floor(a*sigma_j))_j sit inside a*Pi_sigma;
    each carries coefficient 2^{-m}.
    """
    sigma = [float(s) for s in sigma]
    n = [exact_floor(a, s) for s in sigma]
    if any(v < 1 for v in n):
        raise ValueError(f"a={a} too small: floor(a*sigma_j)={n} needs all >= 1")
    m = len(sigma)
    coeffs = {}
    for signs in iter_product((1, -1), repeat=m):
        key = tuple(e * v for e, v in zip(signs, n))
        coeffs[key] = coeffs.get(key, 0j) + 2.0 ** (-m)
    body = ConvexBody.parallelepiped(sigma)
    return TrigPolynomial(m, coeffs, budget=(body, float(a)))


# ---------------------------------------------------------------------------
# conjugate-symbol Fourier integrals (equality case of the L2 -> sup bound)
# ---------------------------------------------------------------------------

def _leggauss_scaled(n: int, lo: float, hi: float):
    x, w = _leggauss(n)
    return 0.5 * (hi - lo) * x + 0.5 * (hi + lo), 0.5 * (hi - lo) * w


def _moment_1d(n: int, sigma: float, u: np.ndarray) -> np.ndarray:
    """int_{-sigma}^{sigma} x^n e^{iux} dx, semi-analytically.

    Small |u*sigma| uses the Taylor series of the exponential (all moment
    integrals of x^{n+t} are explicit); large |u*sigma| uses the
    integration-by-parts recurrence, which is stable there.  The switch sits
    at |u*sigma| = 4: further out the series' terms (u*sigma)^t/t! grow to
    9e5 at 16 before they cancel, while the recurrence holds to rounding
    from 4 on.
    """
    u = np.asarray(u, dtype=float)
    out = np.zeros(u.shape, dtype=complex)
    z = u * sigma
    small = np.abs(z) <= 4.0

    if np.any(small):
        us = u[small]
        acc = np.zeros(us.shape, dtype=complex)
        term = np.ones(us.shape, dtype=complex)  # (iu)^t / t!
        for t in range(0, 72):
            k = n + t
            if k % 2 == 0:
                acc = acc + term * (2.0 * sigma ** (k + 1) / (k + 1))
            term = term * (1j * us) / (t + 1)
        out[small] = acc

    big = ~small
    if np.any(big):
        ub = u[big]
        cur = 2.0 * np.sin(sigma * ub) / ub  # I_0
        eplus = np.exp(1j * sigma * ub)
        for r in range(1, n + 1):
            boundary = sigma ** r * (eplus - (-1.0) ** r / eplus)
            cur = (boundary - r * cur) / (1j * ub)
        out[big] = cur
    return out


def _moment_axis_factor(order: int, sigma: float) -> BandLimitedFunction:
    """The 1-D factor u -> int_{-s}^{s} x^order e^{iux} dx with derivatives."""
    def evaluate(x):
        return _moment_1d(order, sigma, np.asarray(x, dtype=float)[..., 0])

    def partials(alpha):
        (r,) = alpha

        def d_eval(x):
            u = np.asarray(x, dtype=float)[..., 0]
            return (1j ** r) * _moment_1d(order + r, sigma, u)
        return d_eval

    A = 2.0 * sigma ** (order + 1) / (order + 1)
    # |I_n(u)| <= K/|u|: boundary term 2 sigma^n plus n * int|x^{n-1}|
    K = (2.0 if order == 0 else 4.0) * sigma ** order
    T0 = K / A
    C = A * (1.0 + T0)
    return BandLimitedFunction(
        m=1, evaluate=evaluate, spectral_body=ConvexBody.cube(sigma, 1),
        sup_bound=A, decay=DecayModel.make_product([(C, 1.0)]),
        label=f"moment(n={order},s={sigma})", partials=partials)


def cs_extremal(body: ConvexBody, op: DifferentialOperator,
                freq_budget: float = 512.0,
                nodes_per_axis: int | None = None) -> BandLimitedFunction:
    """f(u) = int_V conj(symbol(ix)) e^{iu.x} dx.

    This attains equality in the Cauchy-Schwarz step of the L2 -> sup sharp
    constant: |D f(0)| / ||f||_2 equals the closed form for (p, q) = (2, inf).

    Box bodies (and every 1-D body, which is an interval) evaluate through
    exact semi-analytic moment integrals; a single-term operator then yields
    a genuine tensor product.  Other bodies in m >= 2 fall back to tensor
    Gauss-Legendre cubature with a membership indicator, accurate for
    frequencies up to ``freq_budget``.
    """
    if body.m != op.m:
        raise ValueError("body and operator dimensions differ")
    if body.m > 3:
        raise ValueError("supported up to dimension 3")
    m = body.m

    if math.isinf(body.mu) or m == 1:
        pref = {a: ((-1j) ** op.order) * np.conj(b) for a, b in op.terms.items()}
        if len(op.terms) == 1:
            (alpha, _), = op.terms.items()
            factors = [_moment_axis_factor(alpha[j], body.sigma[j])
                       for j in range(m)]
            f = tensor_product(factors, label=f"cs({body.label},{op.label})")
            c = complex(next(iter(pref.values())))
            out = _scaled(f, c)
            return replace(out, spectral_body=body)
        return _box_multiterm(body, op, pref)

    return _indicator_transform(body, op, freq_budget, nodes_per_axis)


def _box_multiterm(body: ConvexBody, op: DifferentialOperator,
                   pref: dict) -> BandLimitedFunction:
    """Sum-of-tensor-products evaluation for boxes with several terms."""
    m = body.m
    sigma = body.sigma

    def evaluate(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1], dtype=complex)
        for a, c in pref.items():
            term = np.ones(x.shape[:-1], dtype=complex) * c
            for j in range(m):
                term = term * _moment_1d(a[j], sigma[j], x[..., j])
            out += term
        return out

    def partials(beta):
        def d_eval(x):
            x = np.asarray(x, dtype=float)
            out = np.zeros(x.shape[:-1], dtype=complex)
            for a, c in pref.items():
                term = np.ones(x.shape[:-1], dtype=complex) * c
                for j in range(m):
                    term = term * _moment_1d(a[j] + beta[j], sigma[j], x[..., j])
                out += term
            return (1j ** sum(beta)) * out
        return d_eval

    # every term decays like 1/|u_j| on each axis; fold constants into axis 0
    c1 = 0.0
    for a, c in pref.items():
        prod = abs(c)
        for j in range(m):
            A = 2.0 * sigma[j] ** (a[j] + 1) / (a[j] + 1)
            K = 4.0 * sigma[j] ** a[j]
            prod *= A * (1.0 + K / A)
        c1 += prod
    axes = [(c1, 1.0)] + [(1.0, 1.0)] * (m - 1)
    sup = sum(abs(c) * math.prod(2.0 * sigma[j] ** (a[j] + 1) / (a[j] + 1)
                                 for j in range(m))
              for a, c in pref.items())
    return BandLimitedFunction(
        m=m, evaluate=evaluate, spectral_body=body, sup_bound=sup,
        decay=DecayModel.make_product(axes),
        label=f"cs({body.label},{op.label})", partials=partials)


def _grid_transform(weights: np.ndarray, nodes: Sequence[np.ndarray],
                    x) -> np.ndarray:
    """sum_n weights[n] exp(i x . node_n) over the tensor grid of ``nodes``.

    Contracts the last grid axis by one matrix product and the others
    pointwise, over chunks of the rows of x; one point gives a 0-d result.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    lead = weights.reshape(-1, weights.shape[-1])
    out = np.empty(x.shape[0], dtype=complex)
    chunk = max(1, 2 ** 22 // lead.shape[0])
    for i in range(0, x.shape[0], chunk):
        E = [np.exp(1j * np.multiply.outer(xj, nj))
             for xj, nj in zip(x[i:i + chunk].T, nodes)]
        acc = (lead @ E[-1].T).reshape(*weights.shape[:-1], -1)
        for Ej in reversed(E[:-1]):
            acc = np.einsum("...an,na->...n", acc, Ej)
        out[i:i + chunk] = acc
    return out if out.shape[0] > 1 else out.reshape(())


def _indicator_transform(body: ConvexBody, op: DifferentialOperator,
                         freq_budget: float,
                         nodes_per_axis: int | None) -> BandLimitedFunction:
    m = body.m
    sigma = np.asarray(body.sigma)
    if nodes_per_axis is None:
        G = [int(math.ceil(0.8 * s * freq_budget)) + 64 for s in sigma]
    else:
        G = [int(nodes_per_axis)] * m
    if math.prod(G) > 2 * 10**7:
        raise ValueError("quadrature budget exceeded; lower freq_budget")
    axes_nodes, axes_w = zip(*[_leggauss_scaled(G[j], -sigma[j], sigma[j])
                               for j in range(m)])
    grids = np.meshgrid(*axes_nodes, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    inside = body.contains(pts)
    wts = np.prod(np.meshgrid(*axes_w, indexing="ij"), axis=0).ravel()
    # conj(symbol(ix)): symbol_at_ik evaluates symbol(i*(real vector))
    W = wts * inside * np.conj(op.symbol_at_ik(pts))
    W_grid = W.reshape(G)
    evaluate = partial(_grid_transform, W_grid, axes_nodes)

    def tensor_eval(axes):
        # contract the leading node axis each round and append the target
        # axis at the back; after m rounds the layout is (u_1, ..., u_m)
        acc = W_grid.astype(complex)
        for j in range(m):
            E = np.exp(1j * np.multiply.outer(np.asarray(axes[j]),
                                              np.asarray(axes_nodes[j])))
            acc = np.tensordot(acc, E, axes=([0], [1]))
        return acc

    def partials(beta):
        mono = np.prod([pts[:, j] ** beta[j] for j in range(m)], axis=0)
        Wb = (W * mono * (1j ** sum(beta))).reshape(G)
        return partial(_grid_transform, Wb, axes_nodes)

    sup = float(np.abs(W).sum())
    d = 1.0 if body.mu < 2.0 else (m + 1) / 2.0
    # measure the constant on rays, then let the standard spot check audit it
    radii = np.geomspace(1.0, 64.0, 24)
    dirs = [np.eye(m)[j] for j in range(m)] + [np.ones(m) / math.sqrt(m)]
    C = sup
    for u in dirs:
        p = radii[:, None] * u[None, :]
        C = max(C, float(np.max(np.abs(evaluate(p)) * (1.0 + radii) ** d)))
    f = BandLimitedFunction(
        m=m, evaluate=evaluate, spectral_body=body, sup_bound=sup,
        decay=DecayModel.make_radial(1.25 * C, d),
        label=f"cs({body.label},{op.label})", partials=partials,
        tensor_eval=tensor_eval)
    f.verify_decay()
    return f


# ---------------------------------------------------------------------------
# truncated norms over R^m
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RealDomainNormEstimate:
    """L_p norm over the cube Q_R plus a certified bound on what is missing.

    For p < inf, ``tail_bound`` bounds the integral of |f|^p outside Q_R,
    so the true norm lies in [value, (value^p + tail_bound)^(1/p)] up to the
    quadrature error estimate ``quad_error`` (relative).  For p = inf,
    ``value`` is a grid maximum (lower estimate), ``quad_error`` the
    certified relative gap, and ``tail_bound`` bounds sup |f| outside Q_R.
    """

    value: float
    p: float
    R: float
    tail_bound: float
    quad_error: float

    def upper(self) -> float:
        if math.isinf(self.p):
            inner = self.value * (1.0 + self.quad_error)
            return max(inner, self.tail_bound)
        if math.isinf(self.tail_bound):
            return math.inf
        return ((self.value ** self.p + self.tail_bound) ** (1.0 / self.p)
                * (1.0 + self.quad_error))


def _axis_panels(R: float, sigma: float, nodes: int = 8):
    """Composite Gauss-Legendre nodes on [-R, R], panels ~ half an
    oscillation of a function with band limit sigma."""
    panel = min(math.pi / (2.0 * max(sigma, 1e-9)), R)
    n_panels = max(2, int(math.ceil(2.0 * R / panel)))
    edges = np.linspace(-R, R, n_panels + 1)
    xg, wg = _leggauss(nodes)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    x = (mid[:, None] + half * xg[None, :]).ravel()
    w = np.broadcast_to(half * wg[None, :], (n_panels, nodes)).ravel()
    return x, w


def _norm_1d(f: BandLimitedFunction, p: float, R: float, nodes: int):
    sigma = f.spectral_body.sigma[0]
    x, w = _axis_panels(R, sigma, nodes)
    vals = np.abs(f.evaluate(x[:, None]))
    return float((w * vals ** p).sum())


def norm_lp_truncated(f: BandLimitedFunction, p: float, R: float,
                      nodes_per_axis: int | None = None,
                      ) -> RealDomainNormEstimate:
    """L_p(R^m) norm of f, computed over Q_R with an analytic tail bound.

    Tensor-product functions factorize exactly (per-axis 1-D quadratures);
    everything else uses tensor cubature on Q_R.  Raises
    NonIntegrableTailError when the decay envelope cannot certify the tail
    at this exponent.
    """
    if not (p > 0):
        raise ValueError("exponent p must be positive")
    if R <= 0:
        raise ValueError("truncation radius must be positive")

    if math.isinf(p):
        return _sup_truncated(f, R, nodes_per_axis)

    tail = f.decay.integral_outside(p, R, f.m)

    if f.factors is not None:
        coarse, fine = 1.0, 1.0
        for g in f.factors:
            coarse *= _norm_1d(g, p, R, 8)
            fine *= _norm_1d(g, p, R, 12)
        value = fine ** (1.0 / p)
        err = abs(fine - coarse) / fine if fine > 0 else 0.0
        return RealDomainNormEstimate(value, p, R, tail, err / p)

    def cubature(nodes: int) -> float:
        axes, weights = [], []
        for j in range(f.m):
            x, w = _axis_panels(R, f.spectral_body.sigma[j], nodes)
            axes.append(x)
            weights.append(w)
        vals = np.abs(f.eval_axes(axes)) ** p
        for j, w in enumerate(weights):
            shape = [1] * f.m
            shape[j] = len(w)
            vals = vals * w.reshape(shape)
        return float(vals.sum())

    coarse = cubature(nodes_per_axis or 8)
    fine = cubature((nodes_per_axis or 8) + 4)
    value = fine ** (1.0 / p) if fine > 0 else 0.0
    err = abs(fine - coarse) / fine if fine > 0 else 0.0
    return RealDomainNormEstimate(value, p, R, tail, err / p)


def _odd(n: int) -> int:
    return n if n % 2 == 1 else n + 1


def _sup_truncated(f: BandLimitedFunction, R: float,
                   nodes_per_axis: int | None) -> RealDomainNormEstimate:
    # odd node counts keep the origin on the grid, where the candidate
    # families peak
    sigma = np.asarray(f.spectral_body.sigma)
    if f.factors is not None:
        total = 1.0
        rel = 0.0
        for j, g in enumerate(f.factors):
            n = _odd(nodes_per_axis or max(513, int(32 * sigma[j] * R)))
            x = np.linspace(-R, R, n)
            mx = float(np.abs(g.evaluate(x[:, None])).max())
            delta = 2.0 * R / (n - 1)
            c = 0.5 * (sigma[j] * delta / 2.0) ** 2
            total *= mx
            rel += c / (1.0 - c)
        return RealDomainNormEstimate(total, math.inf, R,
                                      f.decay.sup_outside(R), rel)
    n = nodes_per_axis or max(129, int(16 * float(sigma.max()) * R))
    n = _odd(min(n, int((4 * 10**6) ** (1.0 / f.m)) + 1))
    axes = [np.linspace(-R, R, n) for _ in range(f.m)]
    mx = float(np.abs(f.eval_axes(axes)).max())
    delta = 2.0 * R / (n - 1)
    c = 0.5 * (float(sigma.sum()) * delta / 2.0) ** 2
    rel = c / (1.0 - c) if c < 1 else math.inf
    return RealDomainNormEstimate(mx, math.inf, R, f.decay.sup_outside(R), rel)
