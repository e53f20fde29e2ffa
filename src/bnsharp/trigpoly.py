"""Trigonometric polynomials with constrained spectra and their L_p norms.

Polynomials are stored sparsely as a map from integer frequency vectors to
complex coefficients.  Evaluation embeds the coefficients into a zero-padded
array and runs an inverse FFT, so values at the uniform nodes of Q_pi are
exact up to rounding.  Norms are rectangle-rule quadratures on that grid; the
rule is exact for even integer exponents on alias-free grids, and the sup
norm carries a certified relative error bound derived from the Bernstein
derivative bound.
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

    def symbol(self, y) -> complex:
        """Total symbol sum_a b_a y^a at a real point y."""
        y = np.asarray(y, dtype=float)
        if y.shape != (self.m,):
            raise ValueError(f"expected a vector of length {self.m}")
        out = 0j
        for a, b in self.terms.items():
            out += b * np.prod([y[j] ** a[j] for j in range(self.m)])
        return complex(out)

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

    def to_text(self) -> str:
        lines = []
        for k in sorted(self.coefficients):
            v = self.coefficients[k]
            lines.append(" ".join(str(c) for c in k) + f" {v.real!r} {v.imag!r}")
        return "\n".join(lines) + ("\n" if lines else "")

    @staticmethod
    def from_text(text: str) -> "TrigPolynomial":
        coeffs = {}
        m = None
        for ln, raw in enumerate(text.splitlines()):
            if not raw.strip():
                continue
            toks = raw.split()
            if len(toks) < 3:
                raise ValueError(f"line {ln}: expected 'k_1 .. k_m re im'")
            if m is None:
                m = len(toks) - 2
            if len(toks) != m + 2:
                raise ValueError(f"line {ln}: inconsistent dimension")
            k = tuple(int(t) for t in toks[:m])
            coeffs[k] = complex(float(toks[m]), float(toks[m + 1]))
        if m is None:
            raise ValueError("empty polynomial file")
        return TrigPolynomial(m, coeffs)

    def to_json(self) -> str:
        rows = [[*k, self.coefficients[k].real, self.coefficients[k].imag]
                for k in sorted(self.coefficients)]
        return json.dumps({"m": self.m, "coefficients": rows})

    @staticmethod
    def from_json(text: str) -> "TrigPolynomial":
        obj = json.loads(text)
        m = int(obj["m"])
        coeffs = {}
        for row in obj["coefficients"]:
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


def _grid_shape(T: TrigPolynomial, L) -> tuple[int, ...]:
    if np.isscalar(L):
        shape = (int(L),) * T.m
    else:
        shape = tuple(int(v) for v in L)
        if len(shape) != T.m:
            raise ValueError("per-axis grid must have length m")
    degs = T.degrees()
    for Lj, Kj in zip(shape, degs):
        if Lj < 2 * Kj + 1:
            raise AliasingError(
                f"grid {Lj} below alias-free bound {2 * Kj + 1}")
    return shape


def evaluate_grid(T: TrigPolynomial, L) -> np.ndarray:
    """Values of T on the uniform grid x_l = -pi + 2*pi*l/L (per axis).

    Zero-padded discrete Fourier synthesis; requires L_j >= 2*deg_j + 1.
    """
    shape = _grid_shape(T, L)
    B = np.zeros(shape, dtype=complex)
    for k, v in T.coefficients.items():
        idx = tuple(kj % Lj for kj, Lj in zip(k, shape))
        B[idx] += v * (-1.0) ** (sum(k) % 2)
    return np.fft.ifftn(B) * np.prod(shape)


def default_grid(T: TrigPolynomial, oversample: int = 4) -> tuple[int, ...]:
    """Alias-free grid scaled by the oversampling factor."""
    return tuple(oversample * (2 * K + 1) for K in T.degrees())


def norm_lp(T: TrigPolynomial, p: float, L=None, oversample: int = 4,
            refine: bool = True) -> NormEstimate:
    """L_p(Q_pi) quasi-norm of T by rectangle-rule quadrature.

    p = inf returns the grid maximum together with a certified relative
    error bound c/(1-c), c = 0.5*(sum_j pi*deg_j/L_j)^2, valid because the
    gradient of T is Bernstein-bounded by its degree.  Even integer p on an
    alias-free grid for |T|^p is exact.  Other finite exponents get an
    error estimate, not a bound, from one grid refinement (disable with
    refine=False): the difference between the two grids' values, so
    ``upper()`` is not certified there.
    """
    if not (p > 0):
        raise ValueError("exponent p must be positive (use math.inf for sup)")
    shape = _grid_shape(T, L if L is not None else default_grid(T, oversample))
    values = np.abs(evaluate_grid(T, shape))
    degs = T.degrees()

    if math.isinf(p):
        c = 0.5 * sum(math.pi * K / Lj for K, Lj in zip(degs, shape)) ** 2
        bound = c / (1.0 - c) if c < 1.0 else math.inf
        return NormEstimate(float(values.max()), p, "Q_pi", shape, bound)

    w = np.prod([2.0 * math.pi / Lj for Lj in shape])
    val = float((w * (values ** p).sum()) ** (1.0 / p))
    if p == int(p) and int(p) % 2 == 0 and all(
            Lj > p * K for K, Lj in zip(degs, shape)):
        return NormEstimate(val, p, "Q_pi", shape, 1e-14)
    if refine:
        fine = tuple(2 * Lj for Lj in shape)
        vals2 = np.abs(evaluate_grid(T, fine))
        w2 = np.prod([2.0 * math.pi / Lj for Lj in fine])
        val2 = float((w2 * (vals2 ** p).sum()) ** (1.0 / p))
        err = abs(val2 - val) / val2 if val2 > 0 else 0.0
        return NormEstimate(val2, p, "Q_pi", fine, err)
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
