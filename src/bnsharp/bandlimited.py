"""Concrete band-limited functions used as extremal candidates.

A ``BandLimitedFunction`` packages a vectorized evaluator on R^m together
with its declared spectral body, a sup-norm bound, and a polynomial decay
envelope.  The envelope is what makes truncated L_p norms certifiable: every
norm computed over a cube Q_R carries an analytic bound on the mass outside.

A multivariate function is one of two kinds, and carries the data of its
kind rather than closures:

- a separable sum sum_r c_r prod_j g_{r,j}(x_j) of univariate atoms
  (``terms``, built by ``separable_sum``; ``tensor_product`` is its
  one-term case);
- a weight transform sum_n W_n exp(i x . xi_n) over a tensor grid of
  Gauss-Legendre nodes xi_n (``weights`` and ``nodes``, built by
  ``weight_transform``).

Both evaluate on tensor grids axis by axis, which is the difference between
milliseconds and hours for cubature over R^m, and both differentiate
algebraically (``derived_function``).  Only a univariate function may be
built from a bare evaluator.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import product as iter_product
from typing import Callable, Sequence

import numpy as np

from .body import ConvexBody, exact_floor
from .trigpoly import DifferentialOperator, NormEstimate, TrigPolynomial, \
    bernstein_gap

MultiIndex = tuple[int, ...]
Terms = tuple[tuple[complex, tuple["BandLimitedFunction", ...]], ...]


class NonIntegrableTailError(ArithmeticError):
    """The decay envelope cannot certify a finite tail at this exponent.

    An arithmetic failure, not a malformed request: the CLI reports it with
    exit code 1 and a JSON error record, not as a usage error."""


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

    def univariate(self) -> tuple[float, float]:
        """(C, d) of a univariate envelope C / (1 + |x|)^d, of either kind."""
        return self.radial if self.kind == "radial" else self.axes[0]

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
        return union_tail(outs, fulls)


def union_tail(tails, totals):
    """sum_j tails[j] * prod_{i != j} totals[i], on floats or arrays: what a
    product of per-axis sums, each at most totals[j], loses outside a box
    whose axis j drops tails[j] (a point outside is outside on some axis)."""
    return sum(t * math.prod(T for i, T in enumerate(totals) if i != j)
               for j, t in enumerate(tails))


# ---------------------------------------------------------------------------
# the function objects
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class BandLimitedFunction:
    """An entire function of exponential type, restricted to R^m.

    ``evaluate`` accepts arrays of shape (..., m) and returns complex values
    of shape (...).  ``eval_axes`` evaluates on a tensor grid given
    per-axis 1-D node arrays (exploited by cubature).

    A separable sum sets ``terms``, a tuple of (c_r, (g_{r,1}, ..., g_{r,m}))
    with univariate atoms g; a weight transform sets ``weights`` (W on the
    node grid) and ``nodes`` (one 1-D node array per axis).  A function
    built from a bare evaluator sets neither, and must be univariate
    (ValueError otherwise).  ``partials``, on a univariate function only
    (ValueError otherwise), maps a 1-index to an analytic derivative
    evaluator; there is no finite-difference fallback, so ``derivative``
    raises KeyError without them.  ``derived_function`` is the one
    builder of D f.

    ``_memo`` holds results computed once per function: its truncated
    norms by (p, R) (``norm_lp_truncated``) and its periodizations
    (``levitan_coefficients``).  Nothing in it refers back to f, and
    ``dataclasses.replace`` gives the new function an empty one.
    """

    m: int
    evaluate: Callable[[np.ndarray], np.ndarray]
    spectral_body: ConvexBody
    sup_bound: float
    decay: DecayModel
    label: str
    partials: Callable[[MultiIndex], Callable] | None = None
    terms: Terms | None = None
    weights: np.ndarray | None = None
    nodes: tuple[np.ndarray, ...] | None = None
    _memo: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    def __post_init__(self):
        if self.m >= 2 and self.terms is None and self.weights is None:
            raise ValueError(f"{self.label}: a multivariate function must be "
                             "a separable sum or a weight transform")
        if self.m >= 2 and self.partials is not None:
            raise ValueError(f"{self.label}: derived_function, not "
                             "partials, differentiates a multivariate "
                             "function")

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
        if self.terms is not None:
            return fold_terms(self.terms, lambda g, j: g.evaluate(
                axes[j][:, None]).reshape((-1,) + (1,) * (self.m - 1 - j)))
        if self.weights is not None:
            return transform_on_axes(self.weights,
                                     partial(_phases, self.nodes), axes)
        return self.evaluate(np.asarray(axes[0])[:, None])

    def verify_decay(self, tolerance: float = 0.10) -> None:
        """Spot-check |f| <= (1 + tolerance) * envelope on sampled rays."""
        radii = np.geomspace(0.5, 64.0, 12)
        dirs = [np.eye(self.m)[j] for j in range(self.m)]
        dirs.append(np.ones(self.m) / math.sqrt(self.m))
        for u in dirs:
            pts = radii[:, None] * u[None, :]
            vals = np.abs(self.evaluate(pts))
            env = self.decay.envelope(pts)
            if np.any(vals > (1.0 + tolerance) * env):
                worst = float(np.max(vals / env))
                raise ValueError(
                    f"{self.label}: decay envelope violated on a sampled ray "
                    f"(ratio {worst:.3f})")


def fold_terms(terms: Terms, values: Callable) -> np.ndarray:
    """sum_r c_r prod_j values(g_{r,j}, j) over the terms of a separable sum.

    ``values(g, j)`` gives atom g's values on axis j, shaped to broadcast.
    c_r multiplies the first axis' values and the other axes follow in
    order, so a one-term sum rounds as its factor-by-factor product does.
    """
    out = 0.0
    for c, atoms in terms:
        term = c
        for j, g in enumerate(atoms):
            term = term * values(g, j)
        out = out + term
    return out


def _sum_values(terms: Terms, x) -> np.ndarray:
    """A separable sum at the points x, atom by atom."""
    x = np.asarray(x, dtype=float)
    return fold_terms(terms, lambda g, j: g.evaluate(x[..., j:j + 1]))


def separable_sum(terms, body: ConvexBody | None = None,
                  label: str | None = None) -> BandLimitedFunction:
    """sum_r c_r prod_j g_{r,j}(x_j) for univariate atoms g_{r,j}.

    ``terms`` lists the pairs (c_r, (g_{r,1}, ..., g_{r,m})).  The spectral
    body defaults to the box of the atoms' largest semi-axes; the sup bound
    is sum_r |c_r| prod_j sup|g_{r,j}|.  One term keeps its atoms' decay
    envelopes with |c| on axis 0.  Several terms fold theirs into
    sum_r |c_r| prod_j C_{r,j} on axis 0, each axis j decaying with order
    min_r d_{r,j}.
    """
    terms = tuple((c, tuple(atoms)) for c, atoms in terms)
    m = len(terms[0][1])
    if any(len(atoms) != m or any(g.m != 1 for g in atoms)
           for _, atoms in terms):
        raise ValueError("each term needs one univariate atom per axis")
    if body is None:
        body = ConvexBody.parallelepiped(
            [max(atoms[j].spectral_body.sigma[0] for _, atoms in terms)
             for j in range(m)])
    if label is None:
        label = " + ".join(" (x) ".join(g.label for g in atoms)
                           for _, atoms in terms)
    decays = [[g.decay.univariate() for g in atoms] for _, atoms in terms]
    if len(terms) == 1:
        axes = decays[0]
        axes[0] = (axes[0][0] * abs(terms[0][0]), axes[0][1])
    else:
        C = sum(abs(c) * math.prod(Cj for Cj, _ in ds)
                for (c, _), ds in zip(terms, decays))
        axes = [(C if j == 0 else 1.0, min(ds[j][1] for ds in decays))
                for j in range(m)]
    return BandLimitedFunction(
        m=m, evaluate=partial(_sum_values, terms),
        spectral_body=body,
        sup_bound=sum(abs(c) * math.prod(g.sup_bound for g in atoms)
                      for c, atoms in terms),
        decay=DecayModel.make_product(axes), label=label, terms=terms)


def tensor_product(factors: Sequence[BandLimitedFunction],
                   label: str | None = None) -> BandLimitedFunction:
    """Tensor product of univariate band-limited functions.

    The one-term separable sum: the spectral body is the box with the
    factors' semi-axes; sup bounds and per-axis decay envelopes multiply.
    """
    return separable_sum([(1.0, factors)], label=label)


def _symbol_weights(weights: np.ndarray, nodes: Sequence[np.ndarray],
                    op: DifferentialOperator) -> np.ndarray:
    """W_n * symbol(i xi_n): the weights of D f for f = sum_n W_n e^{i x.xi_n}."""
    grids = np.meshgrid(*nodes, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    return weights * op.symbol_at_ik(pts).reshape(weights.shape)


def weight_transform(weights: np.ndarray, nodes: Sequence[np.ndarray],
                     body: ConvexBody, label: str) -> BandLimitedFunction:
    """f(x) = sum_n W_n exp(i x . xi_n) over the tensor grid of ``nodes``.

    ``weights`` has one axis per node array.  The sup bound is sum |W|.  The
    envelope is radial with the decay order of an indicator's transform on
    the body: 1 below mu = 2, (m + 1)/2 from there on.  Its constant is
    measured on rays and audited by ``verify_decay``.
    """
    m = body.m
    nodes = tuple(nodes)
    evaluate = partial(transform_at_points, weights, partial(_phases, nodes))
    sup = float(np.abs(weights).sum())
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
        decay=DecayModel.make_radial(1.25 * C, d), label=label,
        weights=weights, nodes=nodes)
    f.verify_decay()
    return f


def derived_function(f: BandLimitedFunction,
                     op: DifferentialOperator) -> BandLimitedFunction:
    """D_N f as a band-limited function of f's kind.

    The identity returns f.  A separable sum expands every pair of a term
    c_r prod_j g_{r,j} and an operator term b_alpha D^alpha into the term
    c_r b_alpha prod_j g_{r,j}^{(alpha_j)}, so D_N f is again a separable
    sum.  A weight transform multiplies its weights by the symbol.  A
    univariate function sums the terms' analytic partials (KeyError where
    f has none) under an envelope of f's decay order, whose constant is
    measured on a ray and re-audited by the standard spot check; its sup
    bound is that envelope's value at the origin.
    """
    if op.m != f.m:
        raise ValueError("function and operator dimensions differ")
    if op.order == 0:
        return f
    label = f"D[{op.label}] {f.label}"
    if f.terms is not None:
        terms = [(c * b, tuple(
                  derived_function(g, DifferentialOperator.monomial((a,)))
                  for g, a in zip(atoms, alpha)))
                 for c, atoms in f.terms for alpha, b in op.terms.items()]
        return separable_sum(terms, f.spectral_body, label)
    if f.weights is not None:
        return weight_transform(_symbol_weights(f.weights, f.nodes, op),
                                f.nodes, f.spectral_body, label)
    evals = [(b, f.derivative(alpha)) for alpha, b in op.terms.items()]

    def evaluate(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1], dtype=complex)
        for b, e in evals:
            out += b * e(x)
        return out

    # the origin leads the sampled ray, so the envelope covers the peak
    radii = np.r_[0.0, np.geomspace(0.25, 64.0, 24)]
    d = f.decay.univariate()[1]
    C = 1.25 * max(float(np.max(np.abs(evaluate(radii[:, None])) *
                                (1.0 + radii) ** d)), 1e-300)
    g = BandLimitedFunction(
        m=1, evaluate=evaluate, spectral_body=f.spectral_body,
        sup_bound=C, decay=DecayModel.make_product([(C, d)]), label=label)
    g.verify_decay()
    return g


# ---------------------------------------------------------------------------
# the moment engine: exact transforms of polynomials on an interval
# ---------------------------------------------------------------------------

def _moments(n: int, sigma: float, u: np.ndarray) -> np.ndarray:
    """Rows I_k(u) = int_{-sigma}^{sigma} x^k e^{iux} dx for k = 0..n.

    The result has shape (n + 1,) + u.shape.  Small |u*sigma| uses the
    Taylor series of the exponential (all moment integrals of x^{k+t} are
    explicit), its terms (iu)^t/t! shared by every row; large |u*sigma|
    uses the integration-by-parts recurrence, whose steps are the rows.  The
    switch sits at |u*sigma| = 4: further out the series' terms
    (u*sigma)^t/t! grow to 9e5 at 16 before they cancel, while the
    recurrence holds to rounding from 4 on.  Each row rounds as a one-order
    evaluation would: the same series order over t, the same steps.

    The series runs in float64.  (iu)^t/t! is real for even t and imaginary
    for odd t, and row k takes the terms with k + t even, so even rows are
    real and odd rows imaginary.  The series carries u^t/t! (stepped by
    ``*= u`` and ``*= 1/(t+1)``: the bits complex multiplication by iu and
    division by t+1 leave on the nonzero part) and puts i^t's sign on the
    coefficient; the zero parts stay +0, as in complex arithmetic.
    """
    u = np.asarray(u, dtype=float)
    out = np.zeros((n + 1,) + u.shape, dtype=complex)
    small = np.abs(u * sigma) <= 4.0

    if np.any(small):
        us = u[small]
        acc = np.zeros((n + 1,) + us.shape)
        term = np.ones(us.shape)  # u^t / t!, the modulus of (iu)^t / t!
        # c[k] = int_{-sigma}^{sigma} x^k dx for even k
        c = np.array([2.0 * sigma ** (k + 1) / (k + 1) for k in range(n + 72)])
        for t in range(0, 72):
            rows = slice(t % 2, n + 1, 2)         # the rows with k + t even
            sign = (1.0, 1.0, -1.0, -1.0)[t % 4]  # i^t = sign * i^(t mod 2)
            acc[rows] += term * (sign * c[t:t + n + 1][rows, None])
            term *= us
            term *= 1.0 / (t + 1)
        out.real[0::2, small] = acc[0::2]
        out.imag[1::2, small] = acc[1::2]

    big = ~small
    if np.any(big):
        ub = u[big]
        cur = 2.0 * np.sin(sigma * ub) / ub  # I_0
        out[0, big] = cur
        eplus = np.exp(1j * sigma * ub)
        for r in range(1, n + 1):
            boundary = sigma ** r * (eplus - (-1.0) ** r / eplus)
            cur = (boundary - r * cur) / (1j * ub)
            out[r, big] = cur
    return out


# ---------------------------------------------------------------------------
# sinc kernels and the periodization identity
# ---------------------------------------------------------------------------

def _sinc_derivatives(r: int, y: np.ndarray) -> list[np.ndarray]:
    """The derivatives of orders 0..r of sin(y)/y = 1/2 int_{-1}^{1} e^{iyx} dx,
    from the rows of one moment-engine call."""
    I = _moments(r, 1.0, y)
    return [0.5 * ((1j ** l) * I[l]).real for l in range(r + 1)]


def sinc_kernel(m: int) -> BandLimitedFunction:
    """h(y) = prod_j sin(y_j)/y_j, the separable Dirichlet kernel on R^m."""
    def eval1(x):
        return np.sinc(x[..., 0] / math.pi).astype(complex)

    def partials(alpha):
        (r,) = alpha
        return lambda x: _sinc_derivatives(
            r, np.asarray(x, dtype=float)[..., 0])[r].astype(complex)

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
            h = _sinc_derivatives(r, y)
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


def _nearest_terms(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray,
                                                np.ndarray]:
    """The window term of each point t of ``theta`` at its shift l0 nearest
    t + l*pi = 0, through np.sinc: it holds the removable singularity, and
    there the rounding of l*pi would spoil sin(t)^2 / (t+l*pi)^2.

    Returns (flat point index, l0, term), sorted by l0.  Raises ValueError
    at a non-finite point, whose l0 has no integer value."""
    bad = theta[~np.isfinite(theta)]
    if bad.size:
        raise ValueError(f"window sum at non-finite points {bad[:4].tolist()}")
    l0 = np.rint(-theta / math.pi).astype(np.int64).ravel()
    sq = np.sinc(theta.ravel() / math.pi + l0) ** 2
    rows = np.argsort(l0, kind="stable")
    return rows, l0[rows], sq[rows]


def window_terms(theta: np.ndarray, K: int, shifts: range | None = None,
                 out: np.ndarray | None = None, pi_l: np.ndarray | None = None,
                 nearest: tuple | None = None) -> np.ndarray:
    """The window terms (sin t/(t+l*pi))^2, one column per shift l, for the
    points t of ``theta``: every |l| <= K, or only the l of ``shifts``.
    ``out``, a C-contiguous array of shape theta.shape + (columns,), takes
    the terms in place of a new array.  A caller that builds many ranges for
    the same points passes ``pi_l``, the row pi*l over the shifts (bitwise
    ``math.pi * np.arange(shifts.start, shifts.stop)``), and ``nearest``,
    the part of ``_nearest_terms(theta)`` that holds every point whose l0
    lies in the range, so that neither is rebuilt per range.

    A column's bits do not depend on the range it is built in, so the
    columns of consecutive ranges are the full array's, block by block."""
    theta = np.asarray(theta, dtype=float)
    if shifts is None:
        shifts = range(-K, K + 1)
    if pi_l is None:
        pi_l = math.pi * np.arange(shifts.start, shifts.stop)
    rows, l0, sq = _nearest_terms(theta) if nearest is None else nearest
    # sin(t+l*pi)^2 == sin(t)^2, so one sin per point serves every term
    total = np.add(theta[..., None], pi_l, out=out)
    total *= total
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(np.sin(theta)[..., None] ** 2, total, out=total)
    if len(rows):
        col = l0 - shifts.start
        keep = (col >= 0) & (col < len(shifts))
        total.reshape(-1, len(shifts))[rows[keep], col[keep]] = sq[keep]
    return total


#: Terms per block of a streamed sum: at most a block is ever held.
_PAIRWISE_LEAF = 1 << 15


def _pairwise_sum(block_sum: Callable[[int, int], np.ndarray],
                  n: int, start: int = 0) -> np.ndarray:
    """The sum of terms start..start+n-1 in numpy's own pairwise order, from
    ``block_sum(lo, hi)``, the ``.sum(axis=-1)`` of terms lo..hi-1.

    numpy sums a contiguous axis of length n > 128 as the sum of its two
    halves, split at floor(n/2) rounded down to a multiple of 8, and so on
    down.  Splitting the same way until a block has at most _PAIRWISE_LEAF
    terms, and letting numpy sum the block, reproduces the materialized
    ``.sum(axis=-1)`` bit for bit.
    """
    if n <= _PAIRWISE_LEAF:
        return block_sum(start, start + n)
    half = n // 2
    half -= half % 8
    return (_pairwise_sum(block_sum, half, start) +
            _pairwise_sum(block_sum, n - half, start + half))


def window_axis_sum(theta: np.ndarray, K: int) -> tuple[np.ndarray, np.ndarray]:
    """Truncated 1-D window sum sum_{|l|<=K} (sin t/(t+l*pi))^2 with tail bound,
    at every entry t of ``theta`` at once.

    Returns (value, certified bound on the discarded positive tail).  The
    full sum equals 1 for every t.  The 2K + 1 terms are streamed block by
    block in numpy's pairwise order (``_pairwise_sum``), so the value is
    bitwise that of ``window_terms(theta, K).sum(axis=-1)`` without that
    array ever being built.
    """
    theta = np.asarray(theta, dtype=float)
    rows, l0, sq = _nearest_terms(theta)
    t0 = np.abs(theta) / math.pi
    if K <= np.max(t0) + 1:
        raise ValueError("truncation K too small for these arguments")
    # one workspace and one pi*l row serve every block, and each np.sinc
    # term is computed once and written only in the block that holds it:
    # new arrays and that fix-up in every block took a quarter of the time
    leaf = min(2 * K + 1, _PAIRWISE_LEAF)
    work = np.empty(theta.size * leaf)
    base, pi_l = np.arange(leaf, dtype=float), np.empty(leaf)
    l0_list = l0.tolist()

    def block_sum(lo: int, hi: int) -> np.ndarray:
        shifts = range(lo - K, hi - K)
        # base + start is exact for |l| < 2^53 and the product rounds as
        # math.pi * l does: the row is bitwise math.pi * np.arange(...)
        row = np.add(base[:hi - lo], float(shifts.start), out=pi_l[:hi - lo])
        row *= math.pi
        i = bisect_left(l0_list, shifts.start)
        j = bisect_left(l0_list, shifts.stop)
        out = work[:theta.size * (hi - lo)].reshape(theta.shape + (hi - lo,))
        return window_terms(theta, K, shifts, out, row,
                            (rows[i:j], l0[i:j], sq[i:j])).sum(axis=-1)

    value = _pairwise_sum(block_sum, 2 * K + 1)
    bound = np.sin(theta) ** 2 * (2.0 / math.pi ** 2) / (K - t0)
    return value, bound


def poisson_window_sum(x, K: int) -> tuple[np.ndarray, np.ndarray]:
    """Box-truncated sum_{|k|_inf<=K} h^2(x/2 + k*pi) and its tail bound.

    Tensorizes exactly: the box sum is the product of per-axis sums, and the
    deviation from 1 is bounded by the product-tail estimate.  One streamed
    ``window_axis_sum`` serves every axis of every point.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[None, :]
    vals, tails = window_axis_sum(x / 2.0, K)
    return np.prod(vals, axis=-1), union_tail(
        np.moveaxis(tails, -1, 0), np.moveaxis(vals + tails, -1, 0))


# ---------------------------------------------------------------------------
# Akhiezer family: near-extremal functions for same-exponent derivative ratios
# ---------------------------------------------------------------------------

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


def akhiezer_family(M: float, q: float, h_param: float) -> BandLimitedFunction:
    """One member of the spectral-edge family concentrating at frequency M.

    f_h(t) = e^{iMt} * int_0^1 e^{-i h t tau} phi(tau) dtau with a
    boundary-flat bump phi = (tau(1-tau))^{d+1}, d = floor(1/q) + 1.  As
    h -> 0+ the ratio ||f^(s)||_q / ||f||_q climbs to M^s for every order
    s.  Analytic derivatives up to any order are attached.

    The transforms are exact: with tau = (1+x)/2, tau^l phi(tau) is the
    polynomial ((1+x)/2)^l ((1-x^2)/4)^{d+1} = sum_k p_{l,k} x^k, so
    psi_l(s) = int_0^1 e^{-is tau} tau^l phi(tau) dtau
             = 1/2 e^{-is/2} sum_k p_{l,k} I_k(-s/2)
    with I_k the moments on [-1, 1].  One moment-engine call serves
    psi_0..psi_r.

    Univariate; tensorize with :func:`tensor_product` for boxes.
    """
    if not (0 < h_param < M):
        raise ValueError("window width h_param must lie in (0, M)")
    d = (0 if math.isinf(q) else math.floor(1.0 / q)) + 1
    phi = _flat_bump_poly(d)
    bump = np.polynomial.Polynomial([0.25, 0.0, -0.25]) ** (d + 1)
    half = np.polynomial.Polynomial([0.5, 0.5])

    def coef_rows(r: int) -> list[np.ndarray]:
        # the coefficients p_{l,k} of psi_0..psi_r, built once per order
        return [(bump * half ** l).coef for l in range(r + 1)]

    def psi(p: list[np.ndarray], t: np.ndarray) -> list[np.ndarray]:
        # [psi_0(t), ..., psi_r(t)] from the moment rows 0..r + 2d + 2,
        # r = len(p) - 1
        moments = _moments(len(p) + 2 * d + 1, 1.0, -0.5 * t)
        phase = 0.5 * np.exp(-0.5j * t)
        return [phase * sum(c * moments[k] for k, c in enumerate(p_l)
                            if c != 0.0) for p_l in p]

    row0 = coef_rows(0)

    def evaluate(x):
        t = np.asarray(x, dtype=float)[..., 0]
        return np.exp(1j * M * t) * psi(row0, h_param * t)[0]

    def partials(alpha):
        (r,) = alpha
        p = coef_rows(r)

        def d_eval(x):
            t = np.asarray(x, dtype=float)[..., 0]
            psis = psi(p, h_param * t)
            acc = np.zeros(t.shape, dtype=complex)
            for l in range(r + 1):
                acc += (math.comb(r, l) * (-1.0) ** (r - l) * M ** l *
                        h_param ** (r - l) * psis[r - l])
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
        label=f"akhiezer(M={M},q={q},h={h_param})",
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

@lru_cache(maxsize=64)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-node Gauss-Legendre rule on [-1, 1], computed once per n.

    The arrays are shared between callers, so they are read-only.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _leggauss_scaled(n: int, lo: float, hi: float):
    x, w = _leggauss(n)
    return 0.5 * (hi - lo) * x + 0.5 * (hi + lo), 0.5 * (hi - lo) * w


def _moment_axis_factor(order: int, sigma: float) -> BandLimitedFunction:
    """The 1-D factor u -> int_{-s}^{s} x^order e^{iux} dx with derivatives."""
    def evaluate(x):
        return _moments(order, sigma, np.asarray(x, dtype=float)[..., 0])[order]

    def partials(alpha):
        (r,) = alpha

        def d_eval(x):
            u = np.asarray(x, dtype=float)[..., 0]
            return (1j ** r) * _moments(order + r, sigma, u)[order + r]
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

    Box bodies (every 1-D body is one) give a separable
    sum with one term per operator term, whose atoms are exact
    semi-analytic moment integrals.  Other bodies give a weight
    transform on a tensor Gauss-Legendre grid with a membership indicator,
    accurate for frequencies up to ``freq_budget``.
    """
    if body.m != op.m:
        raise ValueError("body and operator dimensions differ")
    if body.m > 3:
        raise ValueError("supported up to dimension 3")
    m = body.m

    if math.isinf(body.mu):
        terms = [(complex(((-1j) ** op.order) * np.conj(b)),
                  [_moment_axis_factor(a[j], body.sigma[j]) for j in range(m)])
                 for a, b in op.terms.items()]
        return separable_sum(terms, body, f"cs({body.label},{op.label})")

    return _indicator_transform(body, op, freq_budget, nodes_per_axis)


def _phases(nodes: Sequence[np.ndarray], j: int, x) -> np.ndarray:
    """exp(i x_a nodes[j]_n): a weight transform's matrix on axis j."""
    return np.exp(1j * np.multiply.outer(np.asarray(x), nodes[j]))


def transform_at_points(weights: np.ndarray, axis_matrix: Callable,
                        x) -> np.ndarray:
    """sum_n weights[n] prod_j E_j[i, n_j] at each row x_i of the points x.

    ``axis_matrix(j, x_j)`` gives E_j, one row per coordinate of x_j and one
    column per node of axis j; the kernel exp(i x . xi_n) of a weight
    transform has E_j = exp(i x_j xi_{n_j}) (``_phases``).  Contracts the
    last grid axis by one matrix product and the others pointwise, over
    chunks of the rows of x; one point gives a 0-d result.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    lead = weights.reshape(-1, weights.shape[-1])
    out = np.empty(x.shape[0], dtype=complex)
    chunk = max(1, 2 ** 22 // lead.shape[0])
    for i in range(0, x.shape[0], chunk):
        E = [axis_matrix(j, xj) for j, xj in enumerate(x[i:i + chunk].T)]
        acc = (lead @ E[-1].T).reshape(*weights.shape[:-1], -1)
        for Ej in reversed(E[:-1]):
            acc = np.einsum("...an,na->...n", acc, Ej)
        out[i:i + chunk] = acc
    return out if out.shape[0] > 1 else out.reshape(())


def transform_on_axes(weights: np.ndarray, axis_matrix: Callable,
                      axes: Sequence[np.ndarray]) -> np.ndarray:
    """sum_n weights[n] prod_j E_j[i_j, n_j] on the tensor grid of ``axes``.

    ``axis_matrix`` is as for ``transform_at_points``.  Contracts the
    leading node axis each round and appends the target axis at the back;
    after m rounds the layout is (x_1, ..., x_m).
    """
    acc = weights.astype(complex)
    for j, x in enumerate(axes):
        acc = np.tensordot(acc, axis_matrix(j, x), axes=([0], [1]))
    return acc


def _indicator_transform(body: ConvexBody, op: DifferentialOperator,
                         freq_budget: float,
                         nodes_per_axis: int | None) -> BandLimitedFunction:
    """cs_extremal's weight transform: the body's cubature weights times
    conj(symbol(ix)) on a tensor Gauss-Legendre grid."""
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
    return weight_transform(W.reshape(G), axes_nodes, body,
                            f"cs({body.label},{op.label})")


# ---------------------------------------------------------------------------
# truncated norms over R^m
# ---------------------------------------------------------------------------

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


def _terms_integral(terms: Terms, p: float, R: float,
                    sigma: Sequence[float], nodes: int) -> float:
    """int_{Q_R} |f|^p of a separable sum on per-axis composite panels.

    One term factorizes for every p.  Several terms need p = 2, where
    int |sum_r c_r prod_j g_{r,j}|^2 = sum_{r,s} c_r conj(c_s) prod_j
    int_{-R}^{R} g_{r,j} conj(g_{s,j}).
    """
    if len(terms) == 1:
        (c, atoms), = terms
        total = 1.0
        for j, g in enumerate(atoms):
            x, w = _axis_panels(R, g.spectral_body.sigma[0], nodes)
            vals = np.abs((c if j == 0 else 1.0) * g.evaluate(x[:, None]))
            total *= float((w * vals ** p).sum())
        return total
    coef = np.array([c for c, _ in terms], dtype=complex)
    gram = np.outer(coef, coef.conj())
    for j in range(len(sigma)):
        x, w = _axis_panels(R, sigma[j], nodes)
        vals = np.stack([atoms[j].evaluate(x[:, None]) for _, atoms in terms])
        gram *= (vals * w) @ vals.conj().T
    return float(gram.sum().real)


def _transform_l2(f: BandLimitedFunction, R: float) -> tuple[float, float]:
    """int_{Q_R} |f|^2 of a weight transform, exactly, and an estimate of
    its relative rounding error.

    For f = sum_n W_n e^{i x.xi_n} the integral is the Gram form
    <W, (K_1 (x) ... (x) K_m) W> with K_j[a, b] = int_{-R}^{R}
    e^{ix(xi_a - xi_b)} dx = 2 sin(R(xi_a - xi_b))/(xi_a - xi_b), 2R on
    the diagonal.  The rounding estimate is machine epsilon times the
    condition number of the sum, the Gram form of |W| and |K_j| over the
    Gram form itself.  Real weights contract in float64.
    """
    W = f.weights if np.imag(f.weights).any() else np.real(f.weights)
    KW, absKW = W, np.abs(W)
    for n in f.nodes:
        # contract the leading axis each round and append the result axis
        # at the back; K_j is symmetric
        K = 2.0 * R * np.sinc((R / math.pi) * np.subtract.outer(n, n))
        KW = np.tensordot(KW, K, axes=([0], [0]))
        absKW = np.tensordot(absKW, np.abs(K), axes=([0], [0]))
    gram = float(np.vdot(W, KW).real)
    bound = float(np.vdot(np.abs(W), absKW))
    return gram, np.finfo(float).eps * bound / gram if gram > 0 else 0.0


def norm_lp_truncated(f: BandLimitedFunction, p: float,
                      R: float) -> NormEstimate:
    """L_p(R^m) norm of f, computed over Q_R with an analytic tail bound.

    A one-term separable sum factorizes exactly (per-axis 1-D
    quadratures), and so does a sum of several terms at p = 2 (per-axis
    Gram matrices of the atoms).  A weight transform at p = 2 is the exact
    Gram form of its weights.  Everything else uses tensor cubature on
    Q_R, evaluated through ``eval_axes``.  p = inf is ``_sup_truncated``.
    Raises NonIntegrableTailError when the decay envelope cannot certify
    the tail at this exponent.

    The estimate is computed once per (p, R) and kept on f; a raised error
    is not kept, so every call raises it again.
    """
    if not (p > 0):
        raise ValueError("exponent p must be positive")
    if R <= 0:
        raise ValueError("truncation radius must be positive")
    key = ("norm_lp_truncated", p, R)
    if key not in f._memo:
        f._memo[key] = _norm_lp_truncated(f, p, R)
    return f._memo[key]


def _norm_lp_truncated(f: BandLimitedFunction, p: float,
                       R: float) -> NormEstimate:
    if math.isinf(p):
        return _sup_truncated(f, R)

    tail = f.decay.integral_outside(p, R, f.m)

    if p == 2.0 and f.weights is not None:
        gram, err = _transform_l2(f, R)
        return NormEstimate(math.sqrt(max(gram, 0.0)), p, err / p, tail)

    if f.terms is not None and (len(f.terms) == 1 or p == 2.0):
        integral = partial(_terms_integral, f.terms, p, R,
                           f.spectral_body.sigma)
    else:
        def integral(nodes: int) -> float:
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

    coarse = integral(8)
    fine = integral(12)
    value = fine ** (1.0 / p) if fine > 0 else 0.0
    err = abs(fine - coarse) / fine if fine > 0 else 0.0
    return NormEstimate(value, p, err / p, tail)


def _odd(n: int) -> int:
    return n if n % 2 == 1 else n + 1


def _sup_truncated(f: BandLimitedFunction, R: float) -> NormEstimate:
    """sup |f| over Q_R as a lower estimate and a certified relative gap.

    A one-term separable sum takes per-axis grid maxima.  Anything else
    takes the maximum on one uniform tensor grid, whose gap is the
    Bernstein gap of its spacing, unless it is a weight transform whose
    origin bracket is tighter: f(0) = sum W and |f| <= sum |W| on all of
    R^m, so sup |f| lies in [|sum W|, sum |W|].  The bracket is taken,
    and no grid built, when sum |W| <= (1 + gap) |sum W|, as for weights
    of one phase (the numerator of a q = inf candidate).  Odd node counts
    keep the origin on the grid, where the candidate families peak.
    """
    sigma = np.asarray(f.spectral_body.sigma)
    if f.terms is not None and len(f.terms) == 1:
        # sup |f| <= prod_j mx_j (1 + r_j) for per-axis grid maxima mx_j
        # with relative gaps r_j; the gap prod_j (1 + r_j) - 1 accumulates
        # as rel + r_j (1 + rel), free of cancellation
        (c, atoms), = f.terms
        total, rel = 1.0, 0.0
        for j, g in enumerate(atoms):
            n = _odd(max(513, int(32 * sigma[j] * R)))
            x = np.linspace(-R, R, n)
            s = c if j == 0 else 1.0
            mx = float(np.abs(s * g.evaluate(x[:, None])).max())
            delta = 2.0 * R / (n - 1)
            total *= mx
            rel += bernstein_gap(sigma[j] * delta / 2.0) * (1.0 + rel)
        return NormEstimate(total, math.inf, rel, f.decay.sup_outside(R))
    n = _odd(min(max(129, int(16 * float(sigma.max()) * R)),
                 int((4 * 10**6) ** (1.0 / f.m)) + 1))
    delta = 2.0 * R / (n - 1)
    rel = bernstein_gap(float(sigma.sum()) * delta / 2.0)
    if f.weights is not None:
        at_origin = abs(complex(f(np.zeros(f.m))))
        total = float(np.abs(f.weights).sum())
        if 0.0 < at_origin and total <= (1.0 + rel) * at_origin:
            # the rounding of the two sums, sum W (f(0)) and sum |W|:
            # machine epsilon times their condition number each
            rounding = 2.0 * np.finfo(float).eps * total / at_origin
            return NormEstimate(
                at_origin, math.inf,
                max(total / at_origin - 1.0, 0.0) + rounding,
                f.decay.sup_outside(R))
    axes = [np.linspace(-R, R, n) for _ in range(f.m)]
    mx = float(np.abs(f.eval_axes(axes)).max())
    return NormEstimate(mx, math.inf, rel, f.decay.sup_outside(R))
