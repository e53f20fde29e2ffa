"""Trigonometric polynomials with constrained spectra and their L_p norms.

Polynomials are stored sparsely as a map from integer frequency vectors to
complex coefficients.  ``evaluate_grid``, ``norm_lp`` and the optimizer all
sample through ``SamplingGrid``: its zero-padded inverse FFT gives values at
the uniform nodes of Q_pi exact up to rounding, its rectangle rule is exact
for even integer exponents on alias-free grids, and its sup gap certifies
the grid maximum by the Bernstein derivative bound.  ``CosineGrid`` is its
form for real cosine sums with one coefficient per symmetry orbit, sampled
on a quarter of the grid through one dense cosine matrix per axis.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .body import ConvexBody, LatticeSet

MultiIndex = tuple[int, ...]
FreqVector = tuple[int, ...]


class AliasingError(ValueError):
    """Grid too coarse for the polynomial's spectrum."""


@dataclass(frozen=True)
class DifferentialOperator:
    """Homogeneous constant-coefficient operator sum_a b_a D^a, |a| = N.

    ``terms`` maps each multi-index a (all of the same total order N) to its
    complex coefficient.  Order zero is the identity with the single forced
    coefficient 1.
    """

    m: int
    order: int
    terms: Mapping[MultiIndex, complex]
    label: str = ""

    def __post_init__(self):
        terms = {tuple(int(c) for c in a): complex(b)
                 for a, b in self.terms.items() if b != 0}
        if not terms:
            raise ValueError("operator needs at least one nonzero coefficient")
        orders = {sum(a) for a in terms}
        if orders != {self.order}:
            raise ValueError(
                f"mixed or wrong total orders {sorted(orders)}; expected {self.order}")
        if any(len(a) != self.m or any(c < 0 for c in a) for a in terms):
            raise ValueError("multi-indices must be nonnegative of length m")
        if self.order == 0 and terms != {(0,) * self.m: (1 + 0j)}:
            raise ValueError("order zero must be the identity (coefficient 1)")
        object.__setattr__(self, "terms", terms)
        if not self.label:
            object.__setattr__(self, "label", _operator_label(terms))

    @staticmethod
    def identity(m: int) -> "DifferentialOperator":
        return DifferentialOperator(m, 0, {(0,) * m: 1.0})

    @staticmethod
    def monomial(alpha: Sequence[int], coeff: complex = 1.0) -> "DifferentialOperator":
        alpha = tuple(int(c) for c in alpha)
        return DifferentialOperator(len(alpha), sum(alpha), {alpha: coeff})

    @staticmethod
    def partial(m: int, axis: int, order: int = 1) -> "DifferentialOperator":
        alpha = tuple(order if j == axis else 0 for j in range(m))
        return DifferentialOperator(m, order, {alpha: 1.0})

    @staticmethod
    def laplacian(m: int) -> "DifferentialOperator":
        terms = {}
        for j in range(m):
            terms[tuple(2 if i == j else 0 for i in range(m))] = 1.0
        return DifferentialOperator(m, 2, terms, label=f"laplacian:{m}")

    def symbol_at_ik(self, k) -> np.ndarray:
        """Frequency multiplier(s) sum_a b_a (ik)^a.

        Homogeneity of degree N lets the i factor out: the multiplier is
        i^N sum_a b_a k^a.  Accepts a single vector or an (n, m) array.
        """
        k = np.atleast_2d(np.asarray(k, dtype=float))
        acc = np.zeros(k.shape[0], dtype=complex)
        for a, b in self.terms.items():
            mono = np.ones(k.shape[0])
            for j in range(self.m):
                if a[j]:
                    mono = mono * k[:, j] ** a[j]
            acc += b * mono
        return (1j ** self.order) * acc


def _operator_label(terms: Mapping[MultiIndex, complex]) -> str:
    parts = []
    for a in sorted(terms):
        b = complex(terms[a])
        parts.append(",".join(str(c) for c in a) + f":{_num(b.real)},{_num(b.imag)}")
    return " + ".join(parts)


def _num(x: float) -> str:
    return str(int(x)) if x == int(x) else repr(x)


@dataclass(frozen=True)
class NormEstimate:
    """An L_p quadrature value with its resolution and error certificate.

    ``error_bound`` is relative.  For p = inf the value is a grid maximum,
    hence a lower estimate: the true sup lies in
    [value, value * (1 + error_bound)].  For even integer p on an
    alias-free grid the quadrature is exact.  For other finite p,
    ``error_bound`` is only an estimate from one grid refinement, so
    ``upper()`` is not a certified upper bound there.
    """

    value: float
    p: float
    domain: str
    grid: tuple[int, ...]
    error_bound: float

    def upper(self) -> float:
        if math.isinf(self.error_bound):
            return math.inf
        return self.value * (1.0 + self.error_bound)


@dataclass(frozen=True)
class TrigPolynomial:
    """Sparse multivariate trigonometric polynomial sum_k c_k e^{ik.x}."""

    m: int
    coefficients: Mapping[FreqVector, complex]
    budget: tuple[ConvexBody, float] | None = None

    def __post_init__(self):
        coeffs = {tuple(int(c) for c in k): complex(v)
                  for k, v in self.coefficients.items()}
        if any(len(k) != self.m for k in coeffs):
            raise ValueError("frequency vector of wrong dimension")
        object.__setattr__(self, "coefficients", coeffs)
        if self.budget is not None:
            body, a = self.budget
            for k in coeffs:
                if not body.contains(np.asarray(k, dtype=float) / a):
                    raise ValueError(
                        f"frequency {k} outside the declared spectrum "
                        f"a*{body.label} (a={a})")

    # ----- basic algebra --------------------------------------------------

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.coefficients.values())

    def degrees(self) -> tuple[int, ...]:
        """Per-axis maximum absolute frequency."""
        if not self.coefficients:
            return (0,) * self.m
        return tuple(max(abs(k[j]) for k in self.coefficients)
                     for j in range(self.m))

    def __add__(self, other: "TrigPolynomial") -> "TrigPolynomial":
        if other.m != self.m:
            raise ValueError("dimension mismatch")
        out = dict(self.coefficients)
        for k, v in other.coefficients.items():
            out[k] = out.get(k, 0j) + v
        return TrigPolynomial(self.m, out)

    def scale(self, c: complex) -> "TrigPolynomial":
        return TrigPolynomial(
            self.m, {k: c * v for k, v in self.coefficients.items()}, self.budget)

    def translated(self, tau) -> "TrigPolynomial":
        """The shifted polynomial x -> T(x - tau)."""
        tau = np.asarray(tau, dtype=float)
        out = {k: v * np.exp(-1j * float(np.dot(k, tau)))
               for k, v in self.coefficients.items()}
        return TrigPolynomial(self.m, out, self.budget)

    def evaluate_points(self, y) -> np.ndarray:
        """T at each row of the (n, m) array y."""
        y = np.asarray(y, dtype=float)
        if not self.coefficients:
            return np.zeros(y.shape[0], dtype=complex)
        ks = sorted(self.coefficients)
        vals = np.array([self.coefficients[k] for k in ks])
        return np.exp(1j * y @ np.array(ks, dtype=float).T) @ vals

    # ----- serialization ----------------------------------------------------

    def to_json(self) -> str:
        rows = [[*k, self.coefficients[k].real, self.coefficients[k].imag]
                for k in sorted(self.coefficients)]
        return json.dumps({"m": self.m, "coefficients": rows})

    @staticmethod
    def from_json(text: str) -> "TrigPolynomial":
        obj = json.loads(text)
        m = int(obj["m"])
        coeffs = {}
        for i, row in enumerate(obj["coefficients"]):
            if len(row) != m + 2:
                raise ValueError(f"row {i}: expected k_1 .. k_m, re, im "
                                 f"({m + 2} fields), got {len(row)}")
            coeffs[tuple(int(c) for c in row[:m])] = complex(row[m], row[m + 1])
        return TrigPolynomial(m, coeffs)


def apply_operator(op: DifferentialOperator, T: TrigPolynomial) -> TrigPolynomial:
    """Apply the operator spectrally: c_k -> multiplier(ik) * c_k."""
    if op.m != T.m:
        raise ValueError("dimension mismatch")
    if not T.coefficients:
        return T
    keys = sorted(T.coefficients)
    mult = op.symbol_at_ik(np.array(keys, dtype=float))
    out = {k: T.coefficients[k] * mult[i] for i, k in enumerate(keys)}
    return TrigPolynomial(T.m, out, T.budget)


def bernstein_gap(s: float) -> float:
    """Certified relative gap c/(1-c), c = s^2/2, between a grid maximum
    and the sup, for s = sum_j (spectral half-width * half node spacing)_j:
    Bernstein's inequality bounds the fall from the sup to the nearest node."""
    c = 0.5 * s ** 2
    return c / (1.0 - c) if c < 1.0 else math.inf


class SamplingGrid:
    """One spectrum sampled on one uniform grid over Q_pi.

    ``keys`` is an (n, m) integer array of distinct frequencies and
    ``shape`` an alias-free grid for them.  ``synth`` maps coefficients, in
    key order, to the values at x_l = -pi + 2*pi*l/L (per axis) by one
    zero-padded inverse FFT; ``analyze`` is its adjoint.  Both go through
    the keys' FFT indices ``idx`` and signs ``phase``, and so does
    ``levitan_coefficients``' read-out.
    """

    def __init__(self, keys: np.ndarray, shape: tuple[int, ...]):
        self.m = len(shape)
        self.keys = np.asarray(keys, dtype=np.int64).reshape(-1, self.m)
        self.n = len(self.keys)
        self.shape = tuple(shape)
        self.size = int(np.prod(shape))
        self.degrees = tuple(np.abs(self.keys).max(axis=0, initial=0).tolist())
        self.idx = tuple(self.keys[:, j] % shape[j] for j in range(self.m))
        self.phase = (-1.0) ** (self.keys.sum(axis=1) % 2)
        self.weight = float(np.prod([2.0 * math.pi / L for L in shape]))

    def synth(self, c: np.ndarray) -> np.ndarray:
        B = np.zeros(self.shape, dtype=complex)
        B[self.idx] = c * self.phase
        return np.fft.ifftn(B) * self.size

    def analyze(self, u: np.ndarray) -> np.ndarray:
        return self.phase * np.fft.fftn(u)[self.idx]

    #: how many grid nodes each sampled value stands for
    node_weight = 1.0

    def coefficients(self, u: np.ndarray) -> np.ndarray:
        """The coefficient vector, in key order, of unknowns u: u here."""
        return u

    project = coefficients      # its adjoint and left inverse

    def resized(self, shape: tuple[int, ...]) -> "SamplingGrid":
        """The same spectrum sampled on a grid of another shape."""
        return SamplingGrid(self.keys, shape)

    def norm(self, v: np.ndarray, p: float) -> float:
        """Rectangle-rule L_p(Q_pi) quasi-norm of values v; max for p = inf,
        taken without a new array when v is real."""
        if math.isinf(p) and not np.iscomplexobj(v):
            return float(max(v.max(), -v.min()))
        av = np.abs(v)
        if math.isinf(p):
            return float(av.max())
        av **= p        # in place: the same bits as av ** p, no new array
        av *= self.node_weight
        return float((self.weight * av.sum()) ** (1.0 / p))

    def sup_gap(self) -> float:
        """``bernstein_gap`` of s = sum_j pi*deg_j/L_j, between the grid
        maximum and the sup over Q_pi."""
        return bernstein_gap(sum(math.pi * K / L
                                 for K, L in zip(self.degrees, self.shape)))


class CosineGrid(SamplingGrid):
    """Real cosine polynomials, or sine-cosine products, with one
    coefficient per orbit, sampled on a quarter of a uniform grid.

    ``orbit`` gives each key's orbit under a group of signed permutations
    that contains every coordinate reflection, and -1 on the keys that
    carry no coefficient.  ``odd`` marks the axes of odd parity (none by
    default).  Write sgn(k) for the product of sign(k_j) over the odd axes,
    0 when one of them is 0, and n for the number of odd axes.  The
    unknowns are one real u_o per orbit o, and the polynomial is

        T(x) = sum_o u_o |o|^{-1/2} sum_{k in o} i^{-n} sgn(k) e^{ik.x},

    so the full coefficient vector has the norm of u.  T is real, even in
    each coordinate of an even axis and odd in each coordinate of an odd
    one; the keys with sgn(k) = 0 must carry orbit -1.  So |T| is even in
    every coordinate, and its values at the nodes l_j = 0..L_j//2 of each
    axis, weighted 1 (l_j = 0 or 2 l_j = L_j, the nodes that are their own
    mirror images) or 2 per axis, give the full grid's L_p sums.  ``synth``
    applies one dense real matrix per axis, built once: entry (l, k) is
    w_k cos(2 pi l k / L_j) on an even axis and 2 sin(2 pi l k / L_j) on
    an odd one, for the kept nodes l <= L_j // 2 and the degrees k <= K_j,
    with w_0 = 1 and w_k = 2 otherwise.  ``analyze`` is its adjoint with the
    node weights folded into the transposed matrices (the w_k sit in
    ``fold``).  The matrices compute only the nodes kept, and on these
    small spectra a matrix product costs less than an FFT call.
    """

    def __init__(self, keys: np.ndarray, orbit: np.ndarray,
                 shape: tuple[int, ...], odd: tuple[bool, ...] | None = None):
        super().__init__(keys, shape)
        self.orbit = np.asarray(orbit)
        self.odd = (False,) * self.m if odd is None else tuple(odd)
        self.live = self.orbit >= 0
        # i^-n sgn(k) on each live key
        self.basis = np.prod(np.sign(self.keys[self.live][:, list(
            self.odd)]), axis=1) * (1j) ** -sum(self.odd)
        self.root = np.sqrt(np.bincount(self.orbit[self.live]))
        self.n = len(self.root)
        # each key with no negative coordinate stands for its 2^(nonzero
        # coordinates) mirror images; (-1)^(k_1+..+k_m) puts node 0 at -pi
        nonneg = (self.keys >= 0).all(axis=1) & self.live
        half = self.keys[nonneg]
        self.pos = tuple(half.T)
        self.half_orbit = self.orbit[nonneg]
        self.scale = ((-1.0) ** (half.sum(axis=1) % 2) /
                      self.root[self.half_orbit])
        self.fold = self.scale * 2.0 ** (half != 0).sum(axis=1)
        self.half_shape = tuple(K + 1 for K in self.degrees)
        nodes = tuple(L // 2 + 1 for L in shape)
        per_axis = [np.where((2 * np.arange(H) % L) == 0, 1.0, 2.0)
                    for H, L in zip(nodes, shape)]
        self.node_weight = math.prod(np.ix_(*per_axis))
        self.synth_mats, self.analyze_mats = [], []
        for K, H, L, w, odd_j in zip(self.degrees, nodes, shape, per_axis,
                                     self.odd):
            angle = 2.0 * np.pi * (np.outer(np.arange(H),
                                            np.arange(K + 1)) % L) / L
            if odd_j:
                wave = np.sin(angle)
                self.synth_mats.append(2.0 * wave)
            else:
                wave = np.cos(angle)
                self.synth_mats.append(np.where(np.arange(K + 1) == 0, 1.0,
                                                2.0) * wave)
            self.analyze_mats.append((w[:, None] * wave).T)

    def resized(self, shape: tuple[int, ...]) -> "CosineGrid":
        return CosineGrid(self.keys, self.orbit, shape, self.odd)

    def synth(self, u: np.ndarray, out: np.ndarray | None = None
              ) -> np.ndarray:
        """The values on the kept nodes, written to ``out`` (a C-contiguous
        float array of the quarter grid's shape) when it is given."""
        A = np.zeros(self.half_shape)
        A[self.pos] = u[self.half_orbit] * self.scale
        for j in range(self.m - 1, 0, -1):
            A = np.moveaxis(np.tensordot(self.synth_mats[j], A, axes=(1, j)),
                            0, j)
        # axis 0 last, as tensordot would: the same operands, so the same
        # BLAS call and bits, but into out
        mat = self.synth_mats[0]
        if out is None:
            out = np.empty((len(mat),) + A.shape[1:])
        np.dot(mat, A.reshape(A.shape[0], -1),
               out=out.reshape(len(mat), -1))
        return out

    def analyze(self, v: np.ndarray) -> np.ndarray:
        for j in range(self.m):
            v = np.moveaxis(np.tensordot(self.analyze_mats[j], v,
                                         axes=(1, j)), 0, j)
        return np.bincount(self.half_orbit, weights=v[self.pos] * self.fold,
                           minlength=self.n)

    def coefficients(self, u: np.ndarray) -> np.ndarray:
        """The full coefficient vector of the polynomial, in key order."""
        c = np.zeros(len(self.keys), dtype=complex)
        c[self.live] = (u / self.root)[self.orbit[self.live]] * self.basis
        return c

    def project(self, c: np.ndarray) -> np.ndarray:
        """u_o = |o|^{-1/2} sum_{k in o} Re(i^n sgn(k) c_k): the adjoint of
        ``coefficients`` and its left inverse."""
        w = (np.conj(self.basis) * c[self.live]).real
        return np.bincount(self.orbit[self.live], weights=w,
                           minlength=self.n) / self.root

    def rows(self, nodes: np.ndarray) -> np.ndarray:
        """The matrix R with R @ u = synth(u)[tuple(nodes.T)], for an (r, m)
        array of kept node indices, built from the per-axis matrices
        without sampling the grid."""
        prod = self.scale
        for j in range(self.m):
            prod = prod * self.synth_mats[j][np.ix_(nodes[:, j],
                                                    self.pos[j])]
        member = np.zeros((len(self.half_orbit), self.n))
        member[np.arange(len(self.half_orbit)), self.half_orbit] = 1.0
        return prod @ member


def _sampled(T: TrigPolynomial, L) -> tuple[SamplingGrid, np.ndarray]:
    """T's sampling grid of shape L and T's values on it."""
    shape = (int(L),) * T.m if np.isscalar(L) else tuple(int(v) for v in L)
    if len(shape) != T.m:
        raise ValueError("per-axis grid must have length m")
    grid = SamplingGrid(np.array(list(T.coefficients), dtype=np.int64), shape)
    for Lj, Kj in zip(shape, grid.degrees):
        if Lj < 2 * Kj + 1:
            raise AliasingError(
                f"grid {Lj} below alias-free bound {2 * Kj + 1}")
    return grid, grid.synth(np.array(list(T.coefficients.values()),
                                     dtype=complex))


def evaluate_grid(T: TrigPolynomial, L) -> np.ndarray:
    """Values of T on the uniform grid x_l = -pi + 2*pi*l/L (per axis).

    Zero-padded discrete Fourier synthesis; requires L_j >= 2*deg_j + 1.
    """
    return _sampled(T, L)[1]


def default_grid(degrees, oversample: int = 4) -> tuple[int, ...]:
    """Alias-free grid for per-axis degrees, scaled by the oversampling."""
    return tuple(int(oversample * (2 * K + 1)) for K in degrees)


def norm_lp(T: TrigPolynomial, p: float, L=None,
            refine: bool = True) -> NormEstimate:
    """L_p(Q_pi) quasi-norm of T by rectangle-rule quadrature.

    p = inf returns the grid maximum together with the certified relative
    error bound ``SamplingGrid.sup_gap``.  Even integer p on an alias-free
    grid for |T|^p is exact.  Other finite exponents get an error estimate,
    not a bound, from one grid refinement (disable with refine=False): the
    difference between the two grids' values, so ``upper()`` is not
    certified there.
    """
    if not (p > 0):
        raise ValueError("exponent p must be positive (use math.inf for sup)")
    grid, values = _sampled(T, L if L is not None
                            else default_grid(T.degrees()))
    val, shape = grid.norm(values, p), grid.shape
    if math.isinf(p):
        return NormEstimate(val, p, "Q_pi", shape, grid.sup_gap())
    if p == int(p) and int(p) % 2 == 0 and all(
            Lj > p * K for K, Lj in zip(grid.degrees, shape)):
        return NormEstimate(val, p, "Q_pi", shape, 1e-14)
    if refine:
        fine, vals2 = _sampled(T, tuple(2 * Lj for Lj in shape))
        val2 = fine.norm(vals2, p)
        err = abs(val2 - val) / val2 if val2 > 0 else 0.0
        return NormEstimate(val2, p, "Q_pi", fine.shape, err)
    return NormEstimate(val, p, "Q_pi", shape, math.nan)


def random_polynomial(spectrum: LatticeSet, seed: int,
                      budget: tuple[ConvexBody, float] | None = None,
                      ) -> TrigPolynomial:
    """Standard complex Gaussian coefficients on the given spectrum.

    Deterministic per (spectrum, seed): the PCG64 generator is seeded and
    frequencies are filled in the lattice set's sorted order.
    """
    if len(spectrum) == 0:
        raise ValueError("empty spectrum")
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((len(spectrum), 2)) / math.sqrt(2.0)
    coeffs = {k: complex(z[i, 0], z[i, 1]) for i, k in enumerate(spectrum)}
    return TrigPolynomial(spectrum.m, coeffs, budget)
