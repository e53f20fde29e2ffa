"""Centrally symmetric convex bodies: dual norms, geometry, lattice enumeration.

Every supported shape (parallelepiped, cube, Euclidean ball, lp-ellipsoid) is
stored in one canonical form: semi-axes ``sigma`` plus an exponent ``mu`` in
[1, inf].  A point x belongs to the body iff

    ( sum_j |x_j / sigma_j|^mu )^(1/mu)  <=  1      (max over j when mu = inf)

so boxes are mu = inf, balls are mu = 2.  All derived quantities (dual norm,
volume, diameter, lattice sets) are computed from the canonical form, which
makes the aliased constructions (cube vs linf-ellipsoid, ball vs l2-ellipsoid)
agree by construction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

#: Hard cap on the number of points in the bounding box prod_j [-r_j, r_j]
#: of aV.  It bounds the box, not the work: a body other than a box is
#: enumerated by fibers, which test only the (m-1)-dimensional head box.
LATTICE_CAP = 10**7

#: Desk-scale dimension limit.
MAX_DIM = 4

#: Relative guard band for floating-point membership on the defining inequality.
MEMBERSHIP_GUARD = 1e-12


class BodySpecError(ValueError):
    """Malformed body specification string."""


def lattice_orbits(points: np.ndarray, values=None
                   ) -> tuple[np.ndarray, np.ndarray, int]:
    """Orbits of a lattice set under its signed-permutation symmetries.

    ``points`` is a lexicographically sorted (n, m) integer array, as
    ``ConvexBody.lattice_points`` returns.  A signed permutation
    k -> (s_j k_{pi(j)})_j is a symmetry when it maps the set onto itself
    and, if ``values`` (one per point) is given, leaves every value
    unchanged up to 1e-12 of the largest, which absorbs the rounding of
    values summed in another order.  The symmetries form a group G.
    Returns each point's orbit index (orbits numbered by their first
    point), each orbit's size, and |G|.
    """
    n, m = points.shape
    vals = None if values is None else np.asarray(values)
    tol = 0.0 if vals is None else 1e-12 * float(np.abs(vals).max(initial=0))
    # images[g, i]: the position of g(k_i); the set is sorted, so g maps
    # it onto itself exactly when its sorted image equals it
    images = []
    for perm in itertools.permutations(range(m)):
        for signs in itertools.product((1, -1), repeat=m):
            img = points[:, perm] * np.array(signs)
            order = np.lexsort(img.T[::-1])
            if not np.array_equal(img[order], points):
                continue
            where = np.empty(n, dtype=np.int64)
            where[order] = np.arange(n)
            if vals is None or np.abs(vals[where] - vals).max(
                    initial=0.0) <= tol:
                images.append(where)
    first = np.min(images, axis=0)
    _, index = np.unique(first, return_inverse=True)
    index = index.reshape(n)
    return index, np.bincount(index), len(images)


@dataclass(frozen=True)
class ConvexBody:
    """Centrally symmetric closed convex body in R^m (canonical lp form).

    Attributes:
        m: dimension, 1 <= m <= 4.
        sigma: per-axis semi-axes, all positive.
        mu: lp exponent in [1, inf] (math.inf for boxes and in m = 1).
        label: display name preserving the constructor used.
    """

    m: int
    sigma: tuple[float, ...]
    mu: float
    label: str

    def __post_init__(self):
        if not (1 <= self.m <= MAX_DIM):
            raise ValueError(f"dimension m={self.m} outside [1, {MAX_DIM}]")
        if len(self.sigma) != self.m:
            raise ValueError("sigma length must equal m")
        if any(s <= 0 for s in self.sigma):
            raise ValueError("semi-axes must be positive")
        if not (self.mu >= 1):
            raise ValueError("exponent mu must lie in [1, inf]")
        if self.m == 1:         # every 1-D body is the segment [-sigma, sigma]
            object.__setattr__(self, "mu", math.inf)

    # ----- constructors -------------------------------------------------

    @staticmethod
    def parallelepiped(sigma: Sequence[float]) -> "ConvexBody":
        sigma = tuple(float(s) for s in sigma)
        return ConvexBody(len(sigma), sigma, math.inf,
                          "pi:" + ",".join(_fmt(s) for s in sigma))

    @staticmethod
    def cube(M: float, m: int) -> "ConvexBody":
        return ConvexBody(m, (float(M),) * m, math.inf, f"cube:{_fmt(M)}")

    @staticmethod
    def ball(M: float, m: int) -> "ConvexBody":
        return ConvexBody(m, (float(M),) * m, 2.0, f"ball:{_fmt(M)}")

    @staticmethod
    def lp_ellipsoid(sigma: Sequence[float], mu: float) -> "ConvexBody":
        sigma = tuple(float(s) for s in sigma)
        return ConvexBody(len(sigma), sigma, float(mu),
                          "lp:" + ",".join(_fmt(s) for s in sigma) + f":{_fmt(mu)}")

    def scaled(self, gamma: float) -> "ConvexBody":
        """The dilated body gamma*V (same shape, scaled semi-axes)."""
        if gamma <= 0:
            raise ValueError("scale factor must be positive")
        return ConvexBody(self.m, tuple(gamma * s for s in self.sigma),
                          self.mu, f"{self.label}*{_fmt(gamma)}")

    # ----- pointwise geometry -------------------------------------------

    def gauge(self, x) -> np.ndarray:
        """Minkowski gauge of x: <= 1 exactly on the body.

        Accepts an array of shape (..., m); returns shape (...).
        """
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.m:
            raise ValueError(f"expected vectors of length {self.m}")
        t = np.abs(x) / np.asarray(self.sigma)
        if math.isinf(self.mu):
            return t.max(axis=-1)
        return (t ** self.mu).sum(axis=-1) ** (1.0 / self.mu)

    def contains(self, x) -> np.ndarray:
        """Closed membership with a relative floating-point guard band."""
        return self.gauge(x) <= 1.0 + MEMBERSHIP_GUARD

    def dual_norm(self, y) -> float:
        """Support-function norm sup_{x in V} |x . y|.

        For exponent mu this is the weighted l^lambda norm of y with
        1/mu + 1/lambda = 1; boxes give sum_j sigma_j |y_j|, balls give
        M |y|.
        """
        y = np.asarray(y, dtype=float)
        if y.shape != (self.m,):
            raise ValueError(f"expected a vector of length {self.m}")
        w = np.abs(np.asarray(self.sigma) * y)
        if math.isinf(self.mu):
            return float(w.sum())
        if self.mu == 1.0:
            return float(w.max())
        lam = self.mu / (self.mu - 1.0)
        return float((w ** lam).sum() ** (1.0 / lam))

    # ----- exact scalar geometry ----------------------------------------

    def volume(self) -> float:
        """m-dimensional volume, by closed formula."""
        if math.isinf(self.mu):
            return float(np.prod([2.0 * s for s in self.sigma]))
        # unit l^mu ball volume times the product of semi-axes
        g1 = math.gamma(1.0 / self.mu + 1.0)
        gm = math.gamma(self.m / self.mu + 1.0)
        return float(np.prod(self.sigma) * (2.0 * g1) ** self.m / gm)

    def diameter(self) -> float:
        """sup_{x,y in V} |x - y| = 2 max_{x in V} |x|, by closed formula.

        For mu <= 2 the Euclidean maximum sits on a coordinate axis; for
        mu > 2 it sits at the balanced corner given by the Lagrange
        condition; mu = inf degenerates to the box corner.
        """
        s = np.asarray(self.sigma)
        if math.isinf(self.mu):
            return 2.0 * float(np.sqrt((s ** 2).sum()))
        if self.mu <= 2.0:
            return 2.0 * float(s.max())
        e = 2.0 * self.mu / (self.mu - 2.0)
        return 2.0 * float((s ** e).sum() ** (1.0 / e))

    def ell1_over_dual(self) -> float:
        """sup_y (sum_j |y_j|) / dual_norm(y), by closed formula.

        This is the norm of the identity from the dual norm into l^1; it
        controls how much a sinc-squared window enlarges a spectrum.
        """
        s = np.asarray(self.sigma)
        if math.isinf(self.mu):
            return 1.0 / float(s.min())
        return float(((1.0 / s) ** self.mu).sum() ** (1.0 / self.mu))

    # ----- lattice enumeration ------------------------------------------

    def lattice_fibers(self, a: float) -> tuple[np.ndarray, np.ndarray]:
        """The lattice points of aV as fibers along the last axis.

        Returns the (m-1)-dimensional head box as a read-only,
        lexicographically sorted (n, m-1) int64 array, and per head the
        half-length h of its fiber, read-only int64: the points over that
        head are (head, j) for |j| <= h, none when h = -1.

        Membership is decided as in ``lattice_points``.  For a box h is the
        constant last radius, an exact floor.  For any other body h starts
        from the float estimate floor(a sigma_m (1 - s)^(1/mu)), s the
        head's partial gauge sum, and is settled by testing h and h + 1
        with the membership rule until it stops moving.  The rule is
        monotone in |k_m| (float division, power and addition are monotone,
        and so is exact membership), so each fiber's kept set is exactly
        |k_m| <= h and the fibers hold the scan of the whole bounding box.
        """
        if a <= 0:
            raise ValueError("scale a must be positive")
        if math.isinf(self.mu):
            # the bounding box IS the body; radii must be exact floors
            radii = [exact_floor(a, s) for s in self.sigma]
        else:
            radii = [int(math.floor(a * s * (1.0 + 1e-9))) for s in self.sigma]
        box = math.prod(2 * r + 1 for r in radii)
        if box > LATTICE_CAP:
            raise OverflowError(
                f"bounding box of {self.label} at a={a} holds {box} points "
                f"(cap {LATTICE_CAP})")
        head, r = _box(radii[:-1]), radii[-1]
        if math.isinf(self.mu):
            h = np.full(len(head), r, dtype=np.int64)
            h.flags.writeable = False
            return head, h

        sigma = np.asarray(self.sigma)
        s = (np.abs(head / (a * sigma[:-1])) ** self.mu).sum(axis=-1)
        est = a * sigma[-1] * np.maximum(1.0 - s, 0.0) ** (1.0 / self.mu)
        h = np.where(s <= 1.0, np.minimum(np.floor(est), r), -1).astype(
            np.int64)
        fiber = np.empty((len(head), self.m), dtype=np.int64)
        fiber[:, :-1] = head
        while True:
            fiber[:, -1] = h + 1
            up = (h < r) & self._kept(fiber, a)
            fiber[:, -1] = h
            down = (h >= 0) & ~self._kept(fiber, a)
            if not (up.any() or down.any()):
                break
            h += up
            h -= down
        h.flags.writeable = False
        return head, h

    def lattice_points(self, a: float) -> np.ndarray:
        """All k in Z^m with k/a in V, as a read-only (n, m) int64 array
        sorted lexicographically: the fibers of ``lattice_fibers``, expanded.

        Boundary points are included (the body is closed).  Membership is
        decided exactly with rational arithmetic when the exponent is an
        integer or infinity; otherwise points within 1e-9 of the boundary
        fall back to the guarded floating-point test.
        """
        head, h = self.lattice_fibers(a)
        counts = np.maximum(2 * h + 1, 0)
        k = np.empty((int(counts.sum()), self.m), dtype=np.int64)
        for j in range(self.m - 1):
            k[:, j] = np.repeat(head[:, j], counts)
        # row i of a fiber that starts at row `start` has k_m = i - start - h
        k[:, -1] = np.arange(len(k)) - np.repeat(
            np.cumsum(counts) - counts + h, counts)
        k.flags.writeable = False
        return k

    def _kept(self, k: np.ndarray, a: float) -> np.ndarray:
        """The membership rule, row by row, for an (n, m) int64 array: the
        float gauge sum against 1 -+ 1e-9, exact membership inside that band."""
        val = (np.abs(k / (a * np.asarray(self.sigma))) ** self.mu).sum(axis=-1)
        keep = val < 1.0 - 1e-9
        for i in np.flatnonzero(np.abs(val - 1.0) <= 1e-9):
            keep[i] = self._exact_member(tuple(k[i].tolist()), a)
        return keep

    def _exact_member(self, k: tuple[int, ...], a: float) -> bool:
        mu_round = round(self.mu)
        if abs(self.mu - mu_round) < 1e-12 and mu_round <= 64:
            lhs = Fraction(0)
            for kj, sj in zip(k, self.sigma):
                lhs += Fraction(abs(kj)) ** mu_round / Fraction(sj) ** mu_round
            return lhs <= Fraction(a) ** mu_round
        val = (np.abs(np.asarray(k, dtype=float) /
                      (a * np.asarray(self.sigma))) ** self.mu).sum()
        return bool(val <= 1.0 + MEMBERSHIP_GUARD)


def _box(radii: Sequence[int]) -> np.ndarray:
    """Z^d in the box prod_j [-r_j, r_j], as a read-only, lexicographically
    sorted (n, d) int64 array; d = 0 gives the one empty point."""
    axes = [np.arange(-r, r + 1) for r in radii]
    out = np.empty((math.prod(map(len, axes)), len(axes)), dtype=np.int64)
    grid = out.reshape(*map(len, axes), len(axes))
    # sparse ij grids broadcast over the box in lexicographic order
    for j, g in enumerate(np.meshgrid(*axes, indexing="ij", sparse=True)):
        grid[..., j] = g
    out.flags.writeable = False
    return out


def exact_floor(a: float, s: float) -> int:
    """floor(a*s) computed exactly for float inputs (both are rationals).

    The ceiling is ``-exact_floor(-a, s)``.
    """
    f = Fraction(a) * Fraction(s)
    return f.numerator // f.denominator


def _fmt(x: float) -> str:
    if math.isinf(x):
        return "inf"
    if float(x) == int(x):
        return str(int(x))
    return repr(float(x))


def parse_body(spec: str, m: int | None = None) -> ConvexBody:
    """Parse a body specification string.

    Grammar: ``pi:1,2`` (parallelepiped), ``cube:1``, ``ball:1``,
    ``lp:1,2:3`` (semi-axes 1,2 with exponent 3).  ``cube`` and ``ball``
    need the ambient dimension ``m``; the others infer it from the axis
    list.
    """
    parts = spec.strip().split(":")
    kind = parts[0].lower()
    try:
        if kind == "pi":
            if len(parts) != 2:
                raise BodySpecError(f"expected pi:<s1,..,sm> in {spec!r}")
            return ConvexBody.parallelepiped(_floats(parts[1], spec))
        if kind in ("cube", "ball"):
            if len(parts) != 2:
                raise BodySpecError(f"expected {kind}:<M> in {spec!r}")
            if m is None:
                raise BodySpecError(
                    f"{kind} spec {spec!r} needs an explicit dimension m")
            M = float(parts[1])
            return (ConvexBody.cube if kind == "cube" else ConvexBody.ball)(M, m)
        if kind == "lp":
            if len(parts) != 3:
                raise BodySpecError(f"expected lp:<s1,..,sm>:<mu> in {spec!r}")
            mu = math.inf if parts[2].lower() == "inf" else float(parts[2])
            return ConvexBody.lp_ellipsoid(_floats(parts[1], spec), mu)
    except ValueError as exc:
        if isinstance(exc, BodySpecError):
            raise
        raise BodySpecError(f"bad number in body spec {spec!r}: {exc}") from exc
    raise BodySpecError(
        f"unknown body kind {kind!r} at position 0 in {spec!r} "
        "(expected pi, cube, ball, or lp)")


def _floats(csv: str, spec: str) -> list[float]:
    out = []
    for i, tok in enumerate(csv.split(",")):
        try:
            out.append(float(tok))
        except ValueError:
            raise BodySpecError(
                f"bad number {tok!r} (field {i}) in body spec {spec!r}") from None
    return out
