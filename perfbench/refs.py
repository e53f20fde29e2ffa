"""References the benchmark checks bnsharp's outputs against.

Nothing here imports bnsharp.  Lattice sets are enumerated exactly: a float
scale a is the rational n/d, so k lies in the scaled body exactly when an
integer inequality holds, and each column of the lattice is summed with
closed-form power sums.  The sup/sup upper bound is an LP dual certificate
of the benchmark's own.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog

TWO_PI = 2.0 * math.pi

#: sqrt(pi/3)/(2 pi): the (2, inf) continuum constant of the Laplacian on
#: the unit disk, (2 pi)^{-1} (int_{|x|<=1} |x|^4 dx)^{1/2}.
E_DISK = math.sqrt(math.pi / 3.0) / TWO_PI
#: (2 pi)^{-3/2} sqrt(4 pi/7): the same for the unit 3-ball.
E_BALL3 = TWO_PI ** -1.5 * math.sqrt(4.0 * math.pi / 7.0)
#: sqrt(pi)/(2 pi): the (2, inf) continuum constant of the identity on the
#: unit disk, (2 pi)^{-1} area^{1/2}.
E_DISK_IDENTITY = math.sqrt(math.pi) / TWO_PI


def _ratio(a: float) -> tuple[int, int]:
    f = Fraction(a)
    return f.numerator, f.denominator


def _p2(t: int) -> int:
    """sum_{j=1}^t j^2"""
    return t * (t + 1) * (2 * t + 1) // 6


def _p4(t: int) -> int:
    """sum_{j=1}^t j^4"""
    return t * (t + 1) * (2 * t + 1) * (3 * t * t + 3 * t - 1) // 30


def _column(s: int, t: int) -> int:
    """sum_{|j|<=t} (s + j^2)^2, exactly."""
    return (2 * t + 1) * s * s + 4 * s * _p2(t) + 2 * _p4(t)


def _ball_columns(a: float, m: int):
    """Yield (s, t): the ball |k| <= a in Z^m, as columns over the last axis.

    s is the squared norm of the first m-1 coordinates and the column holds
    the last coordinate j with |j| <= t.
    """
    n, d = _ratio(a)
    n2, d2 = n * n, d * d
    r = n // d
    if m == 1:
        yield 0, r
        return
    for head in np.ndindex(*([2 * r + 1] * (m - 1))):
        s = sum((h - r) ** 2 for h in head)
        if s * d2 <= n2:
            yield s, math.isqrt((n2 - s * d2) // d2)


def ball_count(a: float, m: int) -> int:
    """#{k in Z^m : |k| <= a}"""
    return sum(2 * t + 1 for _, t in _ball_columns(a, m))


def ball_points(a: float, m: int) -> np.ndarray:
    """The points of {k in Z^m : |k| <= a} as an (n, m) integer array."""
    n, d = _ratio(a)
    r = n // d
    rng = np.arange(-r, r + 1)
    k = np.stack(np.meshgrid(*[rng] * m, indexing="ij"), -1).reshape(-1, m)
    inside = [sum(int(c) ** 2 for c in row) * d * d <= n * n for row in k]
    return k[np.array(inside)]


def laplacian_p2_inf(a: float, m: int) -> float:
    """P_{2,inf} of the Laplacian on the unit m-ball at scale a.

    (2 pi)^{-m/2} a^{-(2 + m/2)} (sum_{|k|<=a} |k|^4)^{1/2}, with the sum
    an exact integer.
    """
    total = sum(_column(s, t) for s, t in _ball_columns(a, m))
    return TWO_PI ** (-m / 2.0) * a ** (-(2.0 + m / 2.0)) * math.sqrt(total)


def _icbrt(x: int) -> int:
    """floor(x^{1/3}) for x >= 0."""
    r = int(round(x ** (1.0 / 3.0)))
    while r ** 3 > x:
        r -= 1
    while (r + 1) ** 3 <= x:
        r += 1
    return r


def mixed_p22_l3(a: float) -> float:
    """P_{2,2} of d^2/dx1 dx2 on the l^3 body with semi-axes (1, 2).

    k lies in a*V exactly when 8|k1|^3 + |k2|^3 <= 8 a^3; the value is
    a^{-2} max |k1 k2| over those k, and for each k1 the largest |k2|
    wins.
    """
    n, d = _ratio(a)
    n3, d3 = n ** 3, d ** 3
    best = 0
    for k1 in range(n // d + 1):
        rest = 8 * n3 - 8 * k1 ** 3 * d3
        if rest >= 0:
            best = max(best, k1 * _icbrt(rest // d3))
    return best / a ** 2


def dirichlet_l1_sup(a: float, m: int) -> float:
    """Upper bound ((2 floor(a) + 1)/(2 pi a))^m on P_{1,inf} of the identity
    on the cube: |T(0)| <= ||D_a||_inf ||T||_1 / (2 pi)^m with D_a the
    square Dirichlet kernel."""
    return ((2 * math.floor(a) + 1) / (TWO_PI * a)) ** m


def lp_dual_certificate(points: np.ndarray, multiplier: np.ndarray,
                        order: int, a: float, nodes: int = 64) -> float:
    """Certified upper bound on the sup/sup periodic constant at scale a.

    A real measure mu on the uniform grid of ``nodes`` points per axis in
    Q_pi whose Fourier coefficients equal the multiplier on the spectrum
    gives D T = mu * T, so ||D T||_inf <= ||mu||_TV ||T||_inf.  The LP
    minimizes ||mu||_TV; adding the residual sum_k |mu^(k) - multiplier(k)|
    keeps the bound valid whatever the solver's accuracy, because
    |c_k| <= ||T||_inf.  The result is normalized by a^{-order}.
    """
    m = points.shape[1]
    # mu is real: the constraint at -k is the conjugate of the one at k
    half = points[[tuple(k) >= tuple(-k) for k in points]]
    target = multiplier[[tuple(k) >= tuple(-k) for k in points]]
    axis = -math.pi + TWO_PI * np.arange(nodes) / nodes
    y = np.stack(np.meshgrid(*[axis] * m, indexing="ij"), -1).reshape(-1, m)
    phase = half @ y.T
    rows = np.vstack([np.cos(phase), -np.sin(phase)])
    width = y.shape[0]
    res = linprog(np.ones(2 * width), A_eq=np.hstack([rows, -rows]),
                  b_eq=np.concatenate([target.real, target.imag]),
                  bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"LP certificate failed: {res.message}")
    mu = res.x[:width] - res.x[width:]
    residual = np.exp(-1j * (points @ y.T)) @ mu - multiplier
    return float(a ** -order * (np.abs(mu).sum() + np.abs(residual).sum()))


def disk_laplacian_certificate(a: float) -> float:
    """LP dual certificate for sup/sup of the Laplacian on the unit disk."""
    k = ball_points(a, 2)
    return lp_dual_certificate(k, -(k ** 2).sum(axis=1).astype(complex), 2, a)


def segment_derivative_certificate(a: float) -> float:
    """LP dual certificate for sup/sup of d/dx on [-1, 1] (Bernstein: the
    constant is floor(a)/a)."""
    k = ball_points(a, 1)
    return lp_dual_certificate(k, 1j * k[:, 0].astype(complex), 1, a)


def self_test() -> list[str]:
    """Check the references on cases with known answers; return failures."""
    failures = []
    for a in (8.0, 16.0):
        got = segment_derivative_certificate(a)
        if abs(got - math.floor(a) / a) > 1e-9:
            failures.append(f"1-D d/dx certificate at a={a:g}: {got!r}, "
                            f"Bernstein gives {math.floor(a) / a!r}")
    for radius, count in ((10.0, 317), (400.0, 502625)):
        got = ball_count(radius, 2)
        if got != count:
            failures.append(f"disk count at radius {radius:g}: {got}, "
                            f"expected {count}")
    if len(ball_points(10.0, 2)) != 317:
        failures.append("disk point list at radius 10 does not hold 317")
    return failures
