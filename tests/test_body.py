import math
import tracemalloc
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from bnsharp.body import (BodySpecError, ConvexBody, exact_floor,
                          lattice_orbits, parse_body)


def brute_dual_norm(body, y, n_dirs=20000):
    """Independent oracle: max |x.y| over boundary points x = u/gauge(u)."""
    rng = np.random.default_rng(42)
    u = rng.standard_normal((n_dirs, body.m))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    x = u / body.gauge(u)[:, None]
    return float(np.abs(x @ np.asarray(y)).max())


def test_dual_norm_closed_forms():
    pi = ConvexBody.parallelepiped([1.0, 2.0])
    assert pi.dual_norm([3.0, 1.0]) == pytest.approx(5.0, abs=1e-14)
    ball = ConvexBody.ball(2.0, 2)
    assert ball.dual_norm([3.0, 4.0]) == pytest.approx(10.0, abs=1e-14)
    assert pi.dual_norm([0.0, 0.0]) == 0.0
    assert ball.dual_norm([0.0, 0.0]) == 0.0


def test_dual_norm_matches_support_function_oracle():
    for body in [ConvexBody.parallelepiped([1.0, 2.0]),
                 ConvexBody.ball(1.5, 2),
                 ConvexBody.lp_ellipsoid([1.0, 2.0], 3.0)]:
        for y in ([1.0, 0.5], [-2.0, 1.0], [0.3, -0.7]):
            oracle = brute_dual_norm(body, y)
            val = body.dual_norm(y)
            assert oracle <= val * (1 + 1e-12)
            assert val == pytest.approx(oracle, rel=2e-4)


def test_dual_norm_is_a_norm():
    rng = np.random.default_rng(7)
    bodies = [ConvexBody.cube(1.0, 2), ConvexBody.ball(2.0, 2),
              ConvexBody.lp_ellipsoid([1.0, 3.0], 1.5),
              ConvexBody.lp_ellipsoid([2.0, 0.5], 1.0)]
    for body in bodies:
        for _ in range(50):
            y1, y2 = rng.standard_normal((2, 2))
            n1, n2 = body.dual_norm(y1), body.dual_norm(y2)
            n12 = body.dual_norm(y1 + y2)
            assert n12 <= n1 + n2 + 1e-12
            # dyadic scalar keeps homogeneity exact in floating point
            assert body.dual_norm(2.0 * y1) == pytest.approx(2.0 * n1,
                                                             rel=1e-15)


def test_volume_closed_forms():
    assert ConvexBody.cube(1.0, 2).volume() == pytest.approx(4.0)
    assert ConvexBody.ball(1.0, 2).volume() == pytest.approx(math.pi)
    assert ConvexBody.parallelepiped([1.0, 2.0]).volume() == pytest.approx(8.0)
    # cross-polytope |x1| + |x2| <= 1 has area 2
    assert ConvexBody.lp_ellipsoid([1.0, 1.0], 1.0).volume() == \
        pytest.approx(2.0)
    assert ConvexBody.ball(1.0, 3).volume() == pytest.approx(4 * math.pi / 3)


def test_volume_montecarlo_oracle():
    body = ConvexBody.lp_ellipsoid([1.0, 2.0], 3.0)
    rng = np.random.default_rng(0)
    pts = rng.uniform(-1, 1, size=(400000, 2)) * np.array([1.0, 2.0])
    frac = float(body.contains(pts).mean())
    assert body.volume() == pytest.approx(frac * 8.0, rel=5e-3)


def test_diameter_closed_forms():
    assert ConvexBody.cube(3.0, 2).diameter() == pytest.approx(6 * math.sqrt(2))
    assert ConvexBody.ball(2.5, 3).diameter() == pytest.approx(5.0)
    assert ConvexBody.parallelepiped([1.0, 2.0]).diameter() == \
        pytest.approx(2 * math.sqrt(5))


def test_diameter_matches_boundary_oracle():
    for body in [ConvexBody.lp_ellipsoid([1.0, 1.0], 4.0),
                 ConvexBody.lp_ellipsoid([1.0, 2.0], 4.0),
                 ConvexBody.lp_ellipsoid([1.0, 2.0], 1.5)]:
        rng = np.random.default_rng(3)
        u = rng.standard_normal((200000, 2))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        x = u / body.gauge(u)[:, None]
        oracle = 2.0 * float(np.linalg.norm(x, axis=1).max())
        assert oracle <= body.diameter() * (1 + 1e-12)
        assert body.diameter() == pytest.approx(oracle, rel=1e-4)


def test_lattice_points_examples():
    ball = ConvexBody.ball(1.0, 2)
    assert ball.lattice_points(1.0).tolist() == [
        [-1, 0], [0, -1], [0, 0], [0, 1], [1, 0]]
    assert len(ConvexBody.cube(1.0, 2).lattice_points(2.0)) == 25
    assert len(ConvexBody.parallelepiped([1.0, 2.0]).lattice_points(1.0)) == 15


def test_lattice_sorted_symmetric_unique():
    body = ConvexBody.lp_ellipsoid([1.3, 0.9], 2.5)
    pts = body.lattice_points(3.7)
    as_list = list(map(tuple, pts.tolist()))
    assert as_list == sorted(as_list)
    assert len(set(as_list)) == len(as_list)
    s = set(as_list)
    assert all(tuple(-c for c in k) in s for k in s)


def test_lattice_monotone_in_scale():
    body = ConvexBody.ball(1.0, 2)
    small = set(map(tuple, body.lattice_points(3.0).tolist()))
    big = set(map(tuple, body.lattice_points(4.5).tolist()))
    assert small <= big


def test_lattice_counting_limit():
    # |aV n Z^m| / a^m -> vol(V) with decreasing relative error on boxes
    for body in [ConvexBody.cube(1.0, 2),
                 ConvexBody.parallelepiped([1.0, 2.0])]:
        errs = []
        for a in (10.0, 20.0, 40.0):
            count = len(body.lattice_points(a))
            errs.append(abs(count / a ** 2 - body.volume()) / body.volume())
        assert errs[0] > errs[1] > errs[2]
    ball = ConvexBody.ball(1.0, 2)
    count = len(ball.lattice_points(40.0))
    assert abs(count / 1600.0 - math.pi) / math.pi < 1e-3


def test_lattice_boundary_points_included():
    # k/a exactly on the boundary must be kept (closed body)
    cube = ConvexBody.cube(0.5, 1)
    assert (1,) in cube.lattice_points(2.0)        # 1/2 == 0.5
    ball = ConvexBody.ball(5.0, 2)
    assert (3, 4) in ball.lattice_points(1.0)      # |.| == 5 exactly


def exact_member(body, k, a):
    """Exact rational test of k/a in the body (integer mu, inf, or 3/2)."""
    t = [Fraction(abs(kj)) / (Fraction(a) * Fraction(s))
         for kj, s in zip(k, body.sigma)]
    if math.isinf(body.mu):
        return all(tj <= 1 for tj in t)
    if body.mu == 1.5:
        # t1^1.5 + t2^1.5 <= 1  <=>  t2 <= 1 and 2 t2^1.5 <= R, with
        # R = 1 + t2^3 - t1^3 (square both sides twice)
        t1, t2 = t
        R = 1 + t2 ** 3 - t1 ** 3
        return t2 <= 1 and R >= 0 and 4 * t2 ** 3 <= R * R
    return sum(tj ** int(body.mu) for tj in t) <= 1


def brute_lattice(body, a):
    """Sorted tuples of the box scan, each settled by exact_member."""
    r = int(math.ceil(a * max(body.sigma))) + 1
    return [k for k in product(range(-r, r + 1), repeat=body.m)
            if exact_member(body, k, a)]


LATTICE_CASES = [
    (ConvexBody.parallelepiped([1.0, 2.0]), (2.5, 3.0, 3.7)),
    (ConvexBody.cube(0.1, 2), (30.0, 10.0)),        # 30 * 0.1 is just above 3
    (ConvexBody.ball(1.0, 2), (5.0, 25.0, 7.3)),    # Pythagorean triples
    (ConvexBody.ball(1.0, 3), (3.0, 9.0)),          # (2,2,1): 4+4+1 = 9
    (ConvexBody.lp_ellipsoid([1.0, 2.0], 3.0), (2.0, 3.0, 4.6)),
    (ConvexBody.lp_ellipsoid([1.0, 2.0], 1.5), (2.0, 4.0, 5.5)),
    # a 1-D ball is the segment, enumerated as a box; fibers: (1,1,1,1)
    # lies on the boundary at a = 2; mu = 1 has corners on the axes;
    # unequal axes in m = 3
    (ConvexBody.ball(1.0, 1), (3.0, 3.5)),
    (ConvexBody.ball(1.0, 4), (2.0, 3.0)),
    (ConvexBody.lp_ellipsoid([1.0, 2.0], 1.0), (3.0, 4.5)),
    (ConvexBody.lp_ellipsoid([1.0, 0.7, 1.3], 4.0), (3.7,)),
]


def test_lattice_points_match_exact_reference():
    for body, scales in LATTICE_CASES:
        for a in scales:
            expect = brute_lattice(body, a)
            assert list(map(tuple, body.lattice_points(a).tolist())) == \
                expect, \
                (body.label, a)


def test_lattice_array_is_read_only_int64():
    for body, scales in LATTICE_CASES:
        arr = body.lattice_points(scales[0])
        assert arr.dtype == np.int64 and arr.shape == (len(arr), body.m)
        with pytest.raises(ValueError):
            arr[0, 0] = 99


@pytest.mark.parametrize("spec, m, a, orbits, group", [
    ("cube:1", 2, 16.0, 153, 8), ("cube:1", 2, 32.0, 561, 8),
    ("ball:1", 2, 32.0, 429, 8), ("pi:1,2", 2, 4.0, 45, 4),
    ("ball:1", 3, 4.0, 16, 48), ("cube:1", 1, 8.0, 9, 2)])
def test_lattice_orbits_under_signed_permutations(spec, m, a, orbits, group):
    arr = parse_body(spec, m).lattice_points(a)
    index, sizes, order = lattice_orbits(arr)
    assert (len(sizes), order) == (orbits, group)
    assert sizes.sum() == len(arr)
    assert np.array_equal(np.bincount(index), sizes)
    for o in range(len(sizes)):
        # an orbit shares its sorted absolute coordinates; on pi:1,2 the
        # axes have different lengths, so no swap joins two of them
        key = {tuple(sorted(np.abs(k))) if order > 2 ** m else
               tuple(np.abs(k)) for k in arr[index == o].tolist()}
        assert len(key) == 1
    # orbits are numbered by their first point
    assert index[0] == 0 and np.all(np.diff(np.maximum.accumulate(index))
                                    <= 1)


def test_lattice_orbits_keep_the_given_values():
    k = parse_body("cube:1", 2).lattice_points(3.0)
    # k1 k2 is kept by the swap and by -I, not by a single reflection
    index, sizes, order = lattice_orbits(k, k[:, 0] * k[:, 1])
    assert order == 4
    # Burnside: I fixes 49 points, -I one, k -> (k2, k1) and k -> (-k2, -k1)
    # seven each
    assert len(sizes) == (49 + 1 + 7 + 7) // 4
    assert all(len(set((k[index == o, 0] * k[index == o, 1]).tolist())) == 1
               for o in range(len(sizes)))
    # values that tell every point apart leave the trivial group
    index, sizes, order = lattice_orbits(k, np.arange(len(k), dtype=float))
    assert order == 1 and np.array_equal(index, np.arange(len(k)))


def test_aliased_representations_agree():
    cube = ConvexBody.cube(1.5, 2)
    lp_inf = ConvexBody.lp_ellipsoid([1.5, 1.5], math.inf)
    ball = ConvexBody.ball(2.0, 2)
    lp_two = ConvexBody.lp_ellipsoid([2.0, 2.0], 2.0)
    for a, b in [(cube, lp_inf), (ball, lp_two)]:
        assert np.array_equal(a.lattice_points(3.0), b.lattice_points(3.0))
        assert a.volume() == pytest.approx(b.volume(), rel=1e-12)
        assert a.diameter() == pytest.approx(b.diameter(), rel=1e-12)
        y = [0.3, -1.7]
        assert a.dual_norm(y) == pytest.approx(b.dual_norm(y), rel=1e-12)
        assert a.ell1_over_dual() == pytest.approx(b.ell1_over_dual(),
                                                   rel=1e-12)


def test_ell1_over_dual_closed_forms():
    assert ConvexBody.ball(1.0, 2).ell1_over_dual() == \
        pytest.approx(math.sqrt(2.0))
    assert ConvexBody.ball(2.0, 2).ell1_over_dual() == \
        pytest.approx(math.sqrt(2.0) / 2.0)
    assert ConvexBody.cube(2.0, 2).ell1_over_dual() == pytest.approx(0.5)
    assert ConvexBody.parallelepiped([1.0, 2.0]).ell1_over_dual() == \
        pytest.approx(1.0)


def test_ell1_over_dual_maximization_oracle():
    # brute-force the variational definition sup_y sum|y_j| / dual(y)
    for body in [ConvexBody.parallelepiped([1.0, 2.0]),
                 ConvexBody.ball(1.0, 2),
                 ConvexBody.lp_ellipsoid([1.0, 2.0], 3.0)]:
        th = np.linspace(0, 2 * math.pi, 100001)
        ys = np.stack([np.cos(th), np.sin(th)], axis=1)
        duals = np.array([body.dual_norm(y) for y in ys[::100]])
        ratios = np.abs(ys[::100]).sum(axis=1) / duals
        oracle = float(ratios.max())
        assert body.ell1_over_dual() == pytest.approx(oracle, rel=1e-3)
        assert oracle <= body.ell1_over_dual() * (1 + 1e-12)


def test_lattice_cap_guard():
    # the cap bounds the bounding box, whatever the body's shape
    for body in (ConvexBody.cube(1.0, 4), ConvexBody.ball(1.0, 4)):
        with pytest.raises(OverflowError):
            body.lattice_points(1000.0)
        with pytest.raises(OverflowError):
            body.lattice_fibers(1000.0)


FIBER_BODIES = [("cube:1", 1), ("cube:1", 2), ("pi:1,2", 2), ("ball:1", 2),
                ("lp:1,2:3", 2), ("lp:1,0.7,1.3:2.5", 3), ("ball:1", 3)]


@pytest.mark.parametrize("spec, m, a", [
    *((spec, m, a) for spec, m in FIBER_BODIES for a in (0.4, 5.0, 7.5)),
    ("ball:1", 4, 3.0), ("ball:1", 4, 2.0),   # (1,1,1,1) on the boundary
    ("ball:1", 2, 25.0)])                     # (7,24), (15,20), (25,0)
def test_lattice_fibers_expand_to_the_lattice(spec, m, a):
    body = parse_body(spec, m)
    head, h = body.lattice_fibers(a)
    assert head.dtype == h.dtype == np.int64
    assert head.shape == (len(h), m - 1) and h.min() >= -1
    with pytest.raises(ValueError):
        h[0] = 0
    expanded = np.array([(*k, j) for k, hk in zip(head.tolist(), h.tolist())
                         for j in range(-hk, hk + 1)], dtype=np.int64)
    points = body.lattice_points(a)
    assert np.array_equal(expanded, points)
    if a < 1.0:                     # the origin alone
        assert points.tolist() == [[0] * m]
    if math.isinf(body.mu):         # a box: the last radius on every head
        assert np.all(h == math.floor(a * body.sigma[-1]))


def test_lattice_fibers_keep_boundary_points_and_empty_fibers():
    head, h = ConvexBody.ball(1.0, 2).lattice_fibers(5.0)
    assert dict(zip(head[:, 0].tolist(), h.tolist())) == {
        -5: 0, -4: 3, -3: 4, -2: 4, -1: 4, 0: 5, 1: 4, 2: 4, 3: 4, 4: 3, 5: 0}
    # the corners of the 3-ball's head box hold no point
    head, h = ConvexBody.ball(1.0, 3).lattice_fibers(7.5)
    empty = h == -1
    assert empty.any() and np.all((head[empty] ** 2).sum(axis=1) > 56)
    assert not np.any((head[~empty] ** 2).sum(axis=1) > 56)


def fraction_member(body, k, a):
    """sum_j |k_j|^mu / sigma_j^mu <= a^mu in Fractions (integer mu)."""
    mu = round(body.mu)
    return sum(Fraction(abs(kj)) ** mu / Fraction(s) ** mu
               for kj, s in zip(k, body.sigma)) <= Fraction(a) ** mu


def fraction_floor(a, s):
    f = Fraction(a) * Fraction(s)
    return f.numerator // f.denominator


@pytest.mark.parametrize("a", [1 / 3, 7.5, 400.0])
@pytest.mark.parametrize("spec, m", [
    ("ball:1", 2), ("ball:1", 3), ("lp:1,2:3", 2), ("lp:0.7,1.3:2", 2),
    ("lp:1,0.7,1.3:4", 3), ("lp:1.3,0.7:3", 2)])
def test_exact_membership_and_floor_match_fractions(spec, m, a):
    # the integer-ratio membership test settles the same points as a
    # Fraction sum: the float gauge's last point of each fiber, one beyond
    # it and one before, and the points on the axes at a*sigma_j, which
    # are on the boundary or, for a non-dyadic sigma_j, a rounding off it
    body = parse_body(spec, m)
    rng = np.random.default_rng(m)
    r = [math.floor(a * s) for s in body.sigma]
    heads = {tuple(int(rng.integers(-rj, rj + 1)) for rj in r[:-1])
             for _ in range(60)}
    points = []
    for head in heads:
        s = sum((abs(kj) / (a * sj)) ** body.mu
                for kj, sj in zip(head, body.sigma))
        h = math.floor(a * body.sigma[-1] * max(1.0 - s, 0.0) ** (1 / body.mu))
        points += [(*head, j) for j in (h - 1, h, h + 1, -h - 1)]
    for j in range(m):
        for kj in (r[j], r[j] + 1, -r[j]):
            points.append(tuple(kj if i == j else 0 for i in range(m)))
    verdicts = [body._exact_member(k, a) for k in points]
    assert verdicts == [fraction_member(body, k, a) for k in points]
    assert any(verdicts) and not all(verdicts)
    for s in (*body.sigma, 0.1, 1.0):
        for x in (a, -a, np.float64(a), 3, np.int64(-7)):
            assert exact_floor(x, s) == fraction_floor(x, s)


def test_exact_membership_on_the_boundary():
    # k/a exactly on the boundary at mu = 2, 3, 4, and just off it where
    # a non-dyadic semi-axis rounds: float(0.7) < 0.7, so 280 > 400 * 0.7
    cases = [("ball:1", 2, 5.0, (3, 4), True),
             ("ball:1", 2, 400.0, (240, 320), True),
             ("ball:1", 3, 3.0, (2, 2, 1), True),
             ("ball:1", 3, 3.0, (2, 2, 2), False),
             ("lp:1,2:3", 2, 7.5, (0, 15), True),
             ("lp:1,2:3", 2, 7.5, (1, 15), False),
             ("lp:1,0.7,1.3:4", 3, 400.0, (400, 0, 0), True),
             ("lp:1,0.7,1.3:4", 3, 400.0, (0, 280, 0), False),
             ("lp:1,0.7,1.3:4", 3, 400.0, (0, 279, 0), True),
             ("lp:1,0.7,1.3:4", 3, 1 / 3, (0, 0, 0), True)]
    for spec, m, a, k, inside in cases:
        body = parse_body(spec, m)
        assert body._exact_member(k, a) is inside, (spec, a, k)
        assert fraction_member(body, k, a) is inside, (spec, a, k)
    assert exact_floor(400.0, 0.7) == 279 == fraction_floor(400.0, 0.7)
    assert exact_floor(-400.0, 0.7) == -280
    assert exact_floor(7.5, 2.0) == 15 and exact_floor(1 / 3, 3.0) == 0


@pytest.mark.parametrize("m, a", [(3, 60.0), (2, 400.0)])
def test_lattice_enumeration_memory_stays_near_its_output(m, a):
    # enumeration holds the output and a few per-point temporaries, never
    # arrays over the bounding box, which is about twice the ball in m = 3
    body = ConvexBody.ball(1.0, m)
    body.lattice_points(2.0)
    tracemalloc.start()
    try:
        pts = body.lattice_points(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * pts.nbytes


def test_membership_central_symmetry():
    body = ConvexBody.lp_ellipsoid([1.0, 2.0], 2.7)
    rng = np.random.default_rng(11)
    x = rng.uniform(-2, 2, size=(500, 2))
    assert np.array_equal(body.contains(x), body.contains(-x))


def test_dimension_validation():
    with pytest.raises(ValueError):
        ConvexBody.cube(1.0, 5)
    with pytest.raises(ValueError):
        ConvexBody.parallelepiped([1.0, -2.0])
    with pytest.raises(ValueError):
        ConvexBody.lp_ellipsoid([1.0], 0.5)
    with pytest.raises(ValueError):
        ConvexBody.cube(1.0, 2).dual_norm([1.0, 2.0, 3.0])


def test_parse_body_grammar():
    assert parse_body("pi:1,2").label == "pi:1,2"
    assert parse_body("cube:1", m=2).sigma == (1.0, 1.0)
    assert parse_body("ball:1.5", m=3).mu == 2.0
    lp = parse_body("lp:1,2:3")
    assert lp.sigma == (1.0, 2.0) and lp.mu == 3.0
    assert math.isinf(parse_body("lp:1,2:inf").mu)


def test_parse_body_errors():
    with pytest.raises(BodySpecError, match="unknown body kind"):
        parse_body("egg:1")
    with pytest.raises(BodySpecError, match="needs an explicit dimension"):
        parse_body("cube:1")
    with pytest.raises(BodySpecError, match="field 1"):
        parse_body("pi:1,x")
    with pytest.raises(BodySpecError):
        parse_body("lp:1,2")
