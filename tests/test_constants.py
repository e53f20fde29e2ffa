import itertools
import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from bnsharp import constants
from bnsharp.bandlimited import akhiezer_family, cs_extremal, tensor_product
from bnsharp.body import ConvexBody, parse_body
from bnsharp.constants import (OptimizerConfig, SharpConstantEstimate,
                               _TEMP_LADDER, _LP_MAX_UNKNOWNS,
                               _ascend, _certificate_grid, _cosine_orbits,
                               _final_value, _make_objective,
                               _peaks_above, bernstein_pq,
                               candidate_lower_bound_E,
                               check_order_consistency, closed_e2_inf,
                               closed_e22, closed_form, closed_p2_inf,
                               closed_p22, crude_upper, derived_function,
                               limit_study, exchange_lp, monomial_integral,
                               nikolskii_upper, optimize_ascent,
                               optimize_full, symbol_sq_integral)
from bnsharp.trigpoly import CosineGrid, DifferentialOperator, SamplingGrid, \
    TrigPolynomial, apply_operator, default_grid, norm_lp


def test_monomial_integral_oracle():
    # Monte-Carlo oracle for the Gamma-function moments on a ball
    body = ConvexBody.ball(1.0, 2)
    rng = np.random.default_rng(0)
    pts = rng.uniform(-1, 1, size=(500000, 2))
    inside = body.contains(pts)
    for gamma in [(0, 0), (2, 0), (2, 2), (4, 0)]:
        mc = float((pts[:, 0] ** gamma[0] * pts[:, 1] ** gamma[1] *
                    inside).mean()) * 4.0
        assert monomial_integral(body, gamma) == pytest.approx(mc, rel=2e-2)
    assert monomial_integral(body, (1, 0)) == 0.0
    assert monomial_integral(ConvexBody.cube(1.0, 2), (2, 0)) == \
        pytest.approx(4.0 / 3.0)


def test_closed_p2_inf_small_cases():
    seg = ConvexBody.cube(1.0, 1)
    ident = DifferentialOperator.identity(1)
    assert closed_p2_inf(seg, ident, 1.0).value == \
        pytest.approx(math.sqrt(3 / (2 * math.pi)), rel=1e-13)
    sq = ConvexBody.cube(1.0, 2)
    assert closed_p2_inf(sq, DifferentialOperator.identity(2), 1.0).value == \
        pytest.approx(3 / (2 * math.pi), rel=1e-13)


def exact_symbol_sq_sum(op, points):
    """sum_k |sum_a b_a k^a|^2 over the rows of ``points``, in Fractions
    (every float coefficient is a binary fraction)."""
    total = Fraction(0)
    for k in points.tolist():
        re = im = Fraction(0)
        for alpha, b in op.terms.items():
            mono = math.prod(kj ** aj for kj, aj in zip(k, alpha))
            re += Fraction(b.real) * mono
            im += Fraction(b.imag) * mono
        total += re * re + im * im
    return total


def materialized_p2_inf(body, op, a):
    """The (2, inf) closed form summed over the materialized float lattice,
    as it was computed before the lattice moments."""
    pts = body.lattice_points(a).astype(float)
    s2 = float((np.abs(op.symbol_at_ik(pts)) ** 2).sum())
    return (2.0 * math.pi) ** (-body.m / 2.0) * \
        a ** (-(op.order + body.m / 2.0)) * math.sqrt(s2)


def p2_inf_operators(m):
    """Identity, Laplacian, a mixed monomial (a pure one in m = 1), a pure
    second derivative, a mixed-sign pair and complex coefficients."""
    e = [tuple(2 * (i == j) for i in range(m)) for j in range(m)]
    ops = [DifferentialOperator.identity(m), DifferentialOperator.laplacian(m),
           DifferentialOperator(m, 2, {e[0]: 1.0}),
           DifferentialOperator(m, 2, {e[0]: 1.0, e[-1]: -1.0}),
           DifferentialOperator(m, 2, {e[0]: 0.5 - 1.25j, e[-1]: 0.75j})]
    if m > 1:
        mixed = (1, 1) + (0,) * (m - 2)
        ops += [DifferentialOperator(m, 2, {mixed: 1.0}),
                DifferentialOperator(m, 2, {mixed: 1.0 + 0.3j, e[0]: -0.6})]
    return ops


@pytest.mark.parametrize("spec, m", [
    ("cube:1", 1), ("cube:1", 2), ("pi:1,2", 2), ("ball:1", 2),
    ("lp:1,2:3", 2), ("lp:1,0.7,1.3:2.5", 3), ("ball:1", 3)])
def test_closed_p2_inf_is_the_exact_lattice_sum(spec, m):
    # within its stated tolerance of the exact sum, and bitwise the
    # materialized float sum wherever that sum is an integer below 2^53
    body = parse_body(spec, m)
    for a in (0.5, 3.0, 7.5):
        points = body.lattice_points(a)
        for op in p2_inf_operators(m):
            est = closed_p2_inf(body, op, a)
            exact = exact_symbol_sq_sum(op, points)
            ref = (2.0 * math.pi) ** (-m / 2.0) * \
                a ** (-(op.order + m / 2.0)) * math.sqrt(exact)
            assert est.value == pytest.approx(ref, rel=est.tolerance, abs=0)
            if exact.denominator == 1 and exact < 2 ** 53:
                assert est.value == materialized_p2_inf(body, op, a), \
                    (spec, a, op.label)


@pytest.mark.parametrize("m, a", [(2, 400.0), (3, 60.0)])
def test_closed_p2_inf_is_bitwise_at_the_bench_scales(m, a, monkeypatch):
    body, op = ConvexBody.ball(1.0, m), DifferentialOperator.laplacian(m)
    pts = body.lattice_points(a)
    norms = (pts ** 2).sum(axis=1)
    exact = int((norms * norms).sum())          # |symbol|^2 = |k|^4
    assert exact < 2 ** 53
    reference = materialized_p2_inf(body, op, a)
    # the moments neither build the lattice nor evaluate the symbol
    for cls, name in ((ConvexBody, "lattice_points"),
                      (DifferentialOperator, "symbol_at_ik")):
        monkeypatch.setattr(cls, name, None)
    value = closed_p2_inf(body, op, a).value
    assert value == reference
    assert value == pytest.approx(
        (2.0 * math.pi) ** (-m / 2.0) * a ** (-(2 + m / 2.0)) *
        math.sqrt(exact), rel=1e-14)


def test_closed_p2_inf_power_sums_past_int64():
    # on the segment at a = n = 2^20, sum_{|j|<=n} j^4 is about 2^100:
    # its table runs in Python integers, and Faulhaber gives the sum
    n = 2 ** 20
    est = closed_p2_inf(ConvexBody.cube(1.0, 1),
                        DifferentialOperator.monomial((2,)), float(n))
    exact = n * (n + 1) * (2 * n + 1) * (3 * n * n + 3 * n - 1) // 15
    assert est.value == pytest.approx(
        (2.0 * math.pi) ** -0.5 * n ** -2.5 * math.sqrt(exact),
        rel=est.tolerance)


@pytest.mark.parametrize("closed, share", [
    pytest.param(closed_p2_inf, 1 / 8, id="closed_p2_inf"),
    pytest.param(closed_p22, 4, id="closed_p22")])
def test_lattice_closed_forms_free_the_int_lattice_first(closed, share):
    # closed_p22 converts the int64 lattice to floats before the symbol is
    # evaluated, so it is not held beside symbol_at_ik's own float copy
    # (that would peak at 4.5 times the lattice, not 3.5); closed_p2_inf
    # sums lattice moments over fibers and builds no lattice at all
    disk, op = ConvexBody.ball(1.0, 2), DifferentialOperator.laplacian(2)
    nbytes = disk.lattice_points(400.0).nbytes
    closed(disk, op, 2.0)
    tracemalloc.start()
    try:
        closed(disk, op, 400.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= share * nbytes


def test_closed_e2_inf_small_cases():
    seg = ConvexBody.cube(1.0, 1)
    assert closed_e2_inf(seg, DifferentialOperator.identity(1)).value == \
        pytest.approx(1 / math.sqrt(math.pi), rel=1e-13)
    sq = ConvexBody.cube(1.0, 2)
    assert closed_e2_inf(sq, DifferentialOperator.identity(2)).value == \
        pytest.approx(1 / math.pi, rel=1e-13)


def test_symbol_sq_integral_polar_oracle():
    # the squared Laplacian symbol integrates to pi R^6 / 3 on a disc
    # (polar coordinates), independent of the Gamma-moment route
    R = 1.3
    body = ConvexBody.ball(R, 2)
    op = DifferentialOperator.laplacian(2)
    assert symbol_sq_integral(body, op) == \
        pytest.approx(math.pi * R ** 6 / 3.0, rel=1e-12)
    # and a dense indicator cubature agrees at its own accuracy
    xs, ws = np.polynomial.legendre.leggauss(1200)
    x, w = R * xs, R * ws
    X, Y = np.meshgrid(x, x, indexing="ij")
    inside = body.contains(np.stack([X, Y], axis=-1))
    brute = float((np.outer(w, w) * inside * (X ** 2 + Y ** 2) ** 2).sum())
    assert symbol_sq_integral(body, op) == pytest.approx(brute, rel=5e-3)


def test_closed_two_two_forms():
    d1 = DifferentialOperator.partial(2, 0)
    assert closed_e22(ConvexBody.ball(3.0, 2), d1).value == \
        pytest.approx(3.0, rel=1e-8)
    assert closed_p22(ConvexBody.ball(1.0, 2), d1, 1.0).value == \
        pytest.approx(1.0)
    lap = DifferentialOperator.laplacian(2)
    assert closed_e22(ConvexBody.ball(2.0, 2), lap).value == \
        pytest.approx(4.0, rel=1e-8)
    # mixed-derivative maximum on a box sits at the corner: exactly
    # sigma_1 * sigma_2
    op = DifferentialOperator.monomial((1, 1))
    body = ConvexBody.parallelepiped([1.0, 2.0])
    assert closed_e22(body, op).value == pytest.approx(2.0, rel=1e-7)


def test_closed_e22_flat_box_edge():
    # a first derivative peaks along a whole edge of a box, so the
    # direction grid's best node is one of a flat run of equal values
    d1, d2 = DifferentialOperator.monomial((1, 0)), \
        DifferentialOperator.monomial((0, 1))
    assert closed_e22(ConvexBody.cube(1.0, 2), d1).value == \
        pytest.approx(1.0, rel=1e-8)
    box = ConvexBody.parallelepiped([1.0, 2.0])
    assert closed_e22(box, d1).value == pytest.approx(1.0, rel=1e-8)
    assert closed_e22(box, d2).value == pytest.approx(2.0, rel=1e-8)


@pytest.mark.parametrize("body, m, op, expected", [
    ("cube:2", 1, DifferentialOperator.partial(1, 0), 2.0),     # endpoint
    ("ball:1", 3, DifferentialOperator.laplacian(3), 1.0),
    ("cube:1", 3, DifferentialOperator.monomial((1, 1, 1)), 1.0),
    ("ball:1", 3, DifferentialOperator.monomial((1, 1, 0)), 0.5),
    ("lp:1,2,3:2", 3, DifferentialOperator.monomial((0, 0, 2)), 9.0),
    ("ball:1", 2, DifferentialOperator.identity(2), 1.0),       # order 0
])
def test_closed_e22_branches(body, m, op, expected):
    # the order-0 branch, the m = 1 endpoint (no angles) and the boundary
    # search in m = 2, 3 each reach the known symbol maximum within their
    # tolerance
    est = closed_e22(parse_body(body, m), op)
    assert abs(est.value - expected) <= est.tolerance * expected


def _dense_boundary_max(body, op):
    """|symbol| on 4 001 boundary directions (m = 2) or 401 x 802 (m = 3)."""
    if body.m == 2:
        t = np.linspace(0.0, math.pi, 4001)
        u = np.stack([np.cos(t), np.sin(t)], axis=-1)
    else:
        t, ph = np.meshgrid(np.linspace(0.0, math.pi, 401),
                            np.linspace(0.0, 2.0 * math.pi, 802),
                            indexing="ij")
        u = np.stack([np.sin(t) * np.cos(ph), np.sin(t) * np.sin(ph),
                      np.cos(t)], axis=-1).reshape(-1, 3)
    return float(np.abs(op.symbol_at_ik(u / body.gauge(u)[:, None])).max())


@pytest.mark.parametrize("body, m, op, expected", [
    # max |x1 x2| on |x1|^3 + |x2/2|^3 = 1 is at |x1| = |x2|/2 = 2^(-1/3)
    ("lp:1,2:3", 2, DifferentialOperator.monomial((1, 1)), 2 ** (1 / 3)),
    # max x1^2 x3 on the unit sphere is at x1^2 = 2/3, x3 = 1/sqrt(3)
    ("ball:1", 3, DifferentialOperator.monomial((2, 0, 1)),
     2 / (3 * math.sqrt(3))),
    # no closed form: the values the Nelder-Mead refinement gave
    ("lp:1,2:3", 2, DifferentialOperator.laplacian(2), 4.020725758589058),
    ("lp:1,0.7,1.3:2.5", 3, DifferentialOperator.laplacian(3),
     1.7144903107830565),
])
def test_closed_e22_reaches_known_maxima(body, m, op, expected):
    body = parse_body(body, m)
    value = closed_e22(body, op).value
    assert value == pytest.approx(expected, rel=1e-15, abs=0.0)
    assert value >= _dense_boundary_max(body, op)


def test_bernstein_bracket():
    body = ConvexBody.parallelepiped([2.0, 3.0])
    br = bernstein_pq(body, (1, 1), 1.0)
    assert br.continuum.value == pytest.approx(6.0)
    br2 = bernstein_pq(ConvexBody.parallelepiped([1.0]), (1,), 1.5)
    assert br2.periodic_lower.value == pytest.approx(1.0 / 1.5)
    assert br2.periodic_upper.value == pytest.approx(2.0 / 1.5)
    # integer a*sigma collapses the bracket to the exact value
    br3 = bernstein_pq(ConvexBody.parallelepiped([1.0, 1.0]), (2, 0), 10.0)
    assert br3.periodic_lower.value == br3.periodic_upper.value == \
        pytest.approx(1.0)
    with pytest.raises(ValueError):
        bernstein_pq(ConvexBody.parallelepiped([0.4]), (1,), 1.0)
    with pytest.raises(ValueError):
        bernstein_pq(ConvexBody.ball(1.0, 2), (1, 1), 1.0)


def test_nikolskii_upper_values():
    sq = ConvexBody.cube(1.0, 2)
    assert nikolskii_upper(2.0, math.inf, sq).value == \
        pytest.approx(1 / math.pi, rel=1e-14)
    assert nikolskii_upper(3.0, 3.0, sq).value == 1.0
    assert nikolskii_upper(math.inf, math.inf, sq).value == 1.0
    with pytest.raises(ValueError):
        nikolskii_upper(3.0, 2.0, sq)


def test_crude_upper_composition():
    sq = ConvexBody.cube(1.0, 2)
    ident = DifferentialOperator.identity(2)
    assert crude_upper(2.0, math.inf, ident, sq).value == \
        pytest.approx(nikolskii_upper(2.0, math.inf, sq).value)
    lap = DifferentialOperator.laplacian(2)
    # (diam/2)^2 * (|1| + |1|) * nikolskii
    expect = 2.0 * 2.0 * nikolskii_upper(1.0, 2.0, sq).value
    assert crude_upper(1.0, 2.0, lap, sq).value == pytest.approx(expect)


def test_kamzolov_values():
    # m*M^2 for the Laplacian on the ball at p = q = inf, as an upper bound
    for M, m, want in [(1.0, 2, 2.0), (1.0, 1, 1.0), (2.0, 3, 12.0)]:
        est = crude_upper(math.inf, math.inf,
                          DifferentialOperator.laplacian(m),
                          ConvexBody.ball(M, m))
        assert est.value == want
        assert est.kind == "upper-bound"
        assert est.body == ConvexBody.ball(M, m).label


def test_optimizer_matches_two_inf_closed_form():
    seg = ConvexBody.cube(1.0, 1)
    ident = DifferentialOperator.identity(1)
    cfg = OptimizerConfig(restarts=4, iterations=250, seed=0)
    est = optimize_ascent(2.0, math.inf, ident, 1.0, seg, cfg).estimate
    assert est.value == pytest.approx(closed_p2_inf(seg, ident, 1.0).value,
                                      abs=1e-6)
    assert est.kind == "lower-bound-optimizer"


def test_optimizer_deterministic_per_seed():
    seg = ConvexBody.cube(1.0, 1)
    op = DifferentialOperator.monomial((1,))
    cfg = OptimizerConfig(restarts=3, iterations=120, seed=11)
    a = optimize_full(1.0, math.inf, op, 2.0, seg, cfg).estimate
    b = optimize_full(1.0, math.inf, op, 2.0, seg, cfg).estimate
    assert a.value == b.value  # bitwise
    c = optimize_full(1.0, math.inf, op, 2.0, seg,
                      OptimizerConfig(restarts=3, iterations=120,
                                      seed=12)).estimate
    assert c.value != a.value or c.value == pytest.approx(a.value, rel=1e-9)


def test_optimizer_restart_robustness():
    # oracle case: >= 90% of restarts land within 1e-4 of the optimum
    seg = ConvexBody.cube(1.0, 1)
    ident = DifferentialOperator.identity(1)
    cfg = OptimizerConfig(restarts=10, iterations=250, seed=5)
    out = optimize_ascent(2.0, math.inf, ident, 1.0, seg, cfg)
    target = closed_p2_inf(seg, ident, 1.0).value
    hits = sum(1 for v in out.restart_values if abs(v - target) < 1e-4)
    assert hits >= 9


def test_optimizer_two_two_exact_path():
    body = ConvexBody.parallelepiped([1.0, 2.0])
    op = DifferentialOperator.monomial((1, 1))
    est = optimize_full(2.0, 2.0, op, 3.0, body).estimate
    assert est.value == closed_p22(body, op, 3.0).value


@pytest.mark.parametrize("spec, m, op", [
    ("cube:1", 1, DifferentialOperator.monomial((1,))),
    ("cube:1", 2, DifferentialOperator.identity(2)),
    ("pi:1,2", 2, DifferentialOperator.monomial((1, 1), 3.0)),
    ("cube:1", 3, DifferentialOperator.monomial((2, 0, 1))),
])
@pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 3.0, math.inf])
def test_box_monomial_at_p_equal_q_is_exact(spec, m, op, p):
    # Bernstein per axis and Fubini: P(a) = |b| a^-N prod floor(a
    # sigma_j)^alpha_j for every p = q, attained by one exponential; at
    # a = 0.5 some a sigma_j < 1 and P(a) = 0 unless alpha is 0
    body = parse_body(spec, m)
    (alpha, b), = op.terms.items()
    for a in (0.5, 3.0, 4.5, 7.5):
        out = optimize_full(p, p, op, a, body)
        est = out.estimate
        assert (est.kind, est.p, est.q, est.a) == \
            ("exact-closed-form", p, p, a)
        assert est.value == closed_p22(body, op, a).value     # bitwise
        exact = abs(b) * a ** -op.order * math.prod(
            math.floor(a * s) ** al for s, al in zip(body.sigma, alpha))
        assert abs(est.value - exact) <= 1e-15 * exact
        assert out.upper is None and out.restart_values == (est.value,)
        assert out.best_rungs == (None,) and out.ascent_stops == ()
        assert out.unknowns == (0, len(body.lattice_points(a)), 1)
        # the witness, one exponential, attains the value
        T = TrigPolynomial(m, out.best_coefficients)
        ratio = a ** -op.order * norm_lp(apply_operator(op, T), p).value / \
            norm_lp(T, p).value
        assert ratio == pytest.approx(est.value, rel=1e-12, abs=1e-12)


def test_exact_routes_enumerate_the_lattice_at_most_once(monkeypatch):
    # the pass that gives the value also gives the witness and the lattice
    # size; at (2, inf) the sum runs over fibers and builds no lattice
    calls, original = [], ConvexBody.lattice_points
    monkeypatch.setattr(ConvexBody, "lattice_points",
                        lambda self, a: calls.append(a) or original(self, a))
    disk, lap = ConvexBody.ball(1.0, 2), DifferentialOperator.laplacian(2)
    out = optimize_full(2.0, math.inf, lap, 16.0, disk)
    assert calls == [] and out.best_coefficients == {}
    assert out.estimate.value == closed_p2_inf(disk, lap, 16.0).value
    assert out.unknowns == (0, len(original(disk, 16.0)), 1)
    optimize_full(2.0, 2.0, lap, 16.0, disk)
    assert calls == [16.0]


def test_limit_study_at_p_equal_q_stays_below_the_box_value():
    # P(a) <= E = |b| sigma^alpha, with equality where every a sigma_j is
    # an integer (a = 1, 2, 3, 6, 12 on pi:1,2)
    body, op = parse_body("pi:1,2", 2), DifferentialOperator.monomial((1, 1),
                                                                      3.0)
    scales = (0.5, 1.0, 1.5, 2.0, 3.0, 4.5, 6.0, 7.5, 12.0)
    for p in (0.5, 1.0, 3.0, math.inf):
        study = limit_study(p, p, op, body, scales)
        assert study.reference.value == 6.0
        for a, row in zip(scales, study.rows):
            assert row.kind == "exact-closed-form"
            assert row.value <= study.reference.value
            assert (row.value == study.reference.value) == \
                all((a * s).is_integer() for s in body.sigma)


def test_cosine_orbit_reduction_applies_where_it_is_lossless():
    sq, seg = ConvexBody.cube(1.0, 2), ConvexBody.cube(1.0, 1)
    ident = DifferentialOperator.identity(2)
    lap = DifferentialOperator.laplacian(2)
    mixed = DifferentialOperator.monomial((1, 1))
    d1 = DifferentialOperator.monomial((1,))

    def group(p, q, op, body, a):
        found = _cosine_orbits(p, q, op, body.lattice_points(a))
        return None if found is None else found[2:4]
    even1, even2 = (False,), (False, False)
    assert group(1.0, math.inf, ident, sq, 4.0) == (8, even2)
    assert group(3.0, math.inf, lap, ConvexBody.ball(1.0, 2), 4.0) == \
        (8, even2)
    assert group(1.0, math.inf, lap, ConvexBody.parallelepiped([1, 2]),
                 4.0) == (4, even2)
    assert group(math.inf, math.inf, ident, sq, 4.0) == (8, even2)
    assert group(math.inf, math.inf, lap, ConvexBody.ball(1.0, 2), 4.0) == \
        (8, even2)
    assert group(1.0, math.inf, DifferentialOperator.identity(1), seg,
                 4.0) == (2, even1)
    # odd symbols reduce through the sign character of the reflections:
    # d/dx by {1, -1}, d^2/dx dy by all eight signed permutations, and
    # d^3/dx dy^2 by the four reflections alone (no swap maps its odd axis
    # to its even one)
    assert group(1.0, math.inf, d1, seg, 4.0) == (2, (True,))
    assert group(math.inf, math.inf, mixed, sq, 4.0) == (8, (True, True))
    assert group(math.inf, math.inf, DifferentialOperator.monomial((1, 2)),
                 ConvexBody.ball(1.0, 2), 4.0) == (4, (True, False))
    # s = 7 k1^3 k2^2 + 2 k1 k2^4 has s(|k|) symmetric on this disk's
    # lattice (60 at (1, 2) and (2, 1)), but the swap maps its odd axis to
    # its even one and is no symmetry: s(2, -1) = 60 = -s(-1, 2)
    assert group(math.inf, math.inf,
                 DifferentialOperator(2, 5, {(3, 2): 7.0, (1, 4): 2.0}),
                 ConvexBody.ball(1.0, 2), 2.3) == (4, (True, False))
    # p < 1, finite q, a symbol of neither parity on an axis, a complex
    # coefficient, and an odd symbol whose keys all vanish on an odd axis
    # (D T(0) = 0 for every T) keep the full complex path
    assert group(1.0, math.inf, d1, seg, 0.5) is None
    for p, q, op, body in (
            (0.5, math.inf, ident, sq), (1.0, 2.0, ident, sq),
            (math.inf, math.inf, DifferentialOperator(
                2, 1, {(1, 0): 1.0, (0, 1): 1.0}), sq),
            (math.inf, math.inf, DifferentialOperator(
                2, 2, {(2, 0): 1.0, (0, 2): 1j}), sq)):
        assert group(p, q, op, body, 4.0) is None
    # the m-D ascent itself: optimize_full sends these box monomials to
    # the product rule
    cfg = OptimizerConfig(restarts=1, iterations=30, seed=1)
    out = optimize_ascent(1.0, math.inf, ident, 2.0, sq, cfg)
    assert out.unknowns == (6, 25, 8)
    assert "cosine-orbit reduction" in out.estimate.notes
    # the reported coefficients are the full, real, G-invariant key map
    assert len(out.best_coefficients) == 25
    assert all(v.imag == 0 and v == out.best_coefficients[(k[1], -k[0])]
               for k, v in out.best_coefficients.items())
    # the ascent runs odd symbols on their parity orbits too: d^2/dx dy on
    # the keys with no zero coordinate, {(1, 1)} and {(2, 2)} and the eight
    # signed permutations of (1, 2)
    out = optimize_ascent(1.0, math.inf, mixed, 2.0, sq, cfg)
    assert out.unknowns == (3, 25, 8)
    assert "cosine-orbit reduction" in out.estimate.notes


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_symmetrizing_never_lowers_the_grid_ratio(p):
    # averaging over G and taking the real part after a phase rotation
    # keeps D T(0) and does not raise the grid's L_p norm
    rng = np.random.default_rng(int(p))
    for spec, a, op in (("ball:1", 5.0, DifferentialOperator.laplacian(2)),
                        ("cube:1", 3.0, DifferentialOperator.identity(2)),
                        ("pi:1,2", 2.0, DifferentialOperator.laplacian(2))):
        spectrum = parse_body(spec, 2).lattice_points(a)
        d = op.symbol_at_ik(spectrum.astype(float))
        index, sizes, _, _, _ = _cosine_orbits(p, math.inf, op, spectrum)
        full = _grid(spectrum, 4)
        cos = CosineGrid(spectrum, index, full.shape)
        s = (d * (-1j) ** op.order).real
        s_orbit = np.bincount(index, weights=s) / sizes
        for _ in range(20):
            z = rng.standard_normal((full.n, 2))
            c = z[:, 0] + 1j * z[:, 1]
            before = abs(np.dot(d, c)) / full.norm(full.synth(c), p)
            c = c * np.conj(np.dot(s, c)) / abs(np.dot(s, c))
            u = np.bincount(index, weights=c.real) / np.sqrt(sizes)
            after = abs(np.dot(s_orbit * np.sqrt(sizes), u)) / \
                cos.norm(cos.synth(u), p)
            assert after >= before * (1.0 - 1e-12)


@pytest.mark.parametrize("p, t", [
    pytest.param(1.0, None, id="1.0"), pytest.param(3.0, None, id="3.0"),
    pytest.param(math.inf, 10.0, id="inf-10"),
    pytest.param(math.inf, 1e3, id="inf-1000")])
def test_cosine_objective_gradient_is_the_projected_full_gradient(p, t):
    # on u the log-ratio and its gradient are the full path's at the
    # expanded c_k = u_o / sqrt(|o|), and the gradient projected back; the
    # soft maximum at temperature t counts each quarter node as the full
    # grid nodes it stands for
    spectrum = parse_body("ball:1", 2).lattice_points(6.0)
    op = DifferentialOperator.laplacian(2)
    d = op.symbol_at_ik(spectrum.astype(float))
    index, sizes, _, _, _ = _cosine_orbits(p, math.inf, op, spectrum)
    full = _grid(spectrum, 4)
    cos = CosineGrid(spectrum, index, full.shape)
    root = np.sqrt(sizes)
    s = (d * (-1j) ** op.order).real
    d_orbit = np.bincount(index, weights=s) / sizes * root
    u = np.random.default_rng(8).standard_normal(cos.n)
    F, grad = _make_objective(cos, d_orbit, p, math.inf, t)(u)
    g = grad()
    F_full, grad_full = _make_objective(full, d, p, math.inf, t)(
        ((u / root)[index]).astype(complex))
    g_full = grad_full()
    assert F == pytest.approx(F_full, rel=1e-13)
    assert np.isrealobj(g)
    want = np.bincount(index, weights=g_full.real) / root
    assert np.abs(g - want).max() <= 1e-12 * np.abs(want).max()


def test_quarter_grid_certifies_the_full_grid_sup():
    # for real G-invariant coefficients the quarter certificate grid gives
    # the full certificate grid's value and the same sup gap
    rng = np.random.default_rng(2)
    for spec, a, op in (("ball:1", 4.0, DifferentialOperator.laplacian(2)),
                        ("cube:1", 3.0, DifferentialOperator.identity(2))):
        keys = parse_body(spec, 2).lattice_points(a)
        d = op.symbol_at_ik(keys.astype(float))
        index, sizes, _, _, _ = _cosine_orbits(math.inf, math.inf, op, keys)
        full = _grid(keys, 8)
        quarter = _certificate_grid(CosineGrid(keys, index, full.shape))
        full = _certificate_grid(full)
        assert isinstance(quarter, CosineGrid)
        assert quarter.shape == full.shape
        root = np.sqrt(sizes)
        s = (d * (-1j) ** op.order).real
        d_orbit = np.bincount(index, weights=s) / sizes * root
        pref = a ** -op.order
        for _ in range(5):
            u = rng.standard_normal(len(sizes))
            value, tol = _final_value(quarter, d_orbit, u, math.inf,
                                      math.inf, pref)
            want, want_tol = _final_value(
                full, d, ((u / root)[index]).astype(complex), math.inf,
                math.inf, pref)
            assert value == pytest.approx(want, rel=1e-13)
            assert tol == want_tol


def test_certificate_synth_holds_little_beyond_its_values():
    # the per-axis cosine matrices compute only the quarter nodes, so one
    # synthesis on the a = 32 disk's certificate grid (2249^2 values) keeps
    # no full-length intermediate alive
    op = DifferentialOperator.laplacian(2)
    keys = ConvexBody.ball(1.0, 2).lattice_points(32.0)
    index, sizes, _, _, _ = _cosine_orbits(math.inf, math.inf, op, keys)
    fine = _certificate_grid(CosineGrid(keys, index, _grid(keys, 8).shape))
    u = np.random.default_rng(3).standard_normal(len(sizes))
    tracemalloc.start()
    try:
        v = fine.synth(u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert v.shape == (2249, 2249)
    assert peak < 1.25 * v.nbytes


def test_certificate_grid_holds_no_quarter_grid_array():
    # the node weights stay per axis, so building the p = q = inf
    # certificate grid of the a = 16 disk (1125^2 kept nodes) allocates
    # nothing of the quarter grid's size
    disk, lap = ConvexBody.ball(1.0, 2), DifferentialOperator.laplacian(2)
    keys = disk.lattice_points(16.0)
    index, _, _, odd, _ = _cosine_orbits(math.inf, math.inf, lap, keys)
    prob = CosineGrid(keys, index, _grid(keys, 8).shape, odd)
    tracemalloc.start()
    try:
        cert = _certificate_grid(prob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.kept_shape == (1125, 1125)
    assert peak < 0.25 * 8 * math.prod(cert.kept_shape)


def _parity_cases():
    yield ("cube:1", 1, 5.0, DifferentialOperator.monomial((1,)))
    yield ("cube:1", 2, 3.0, DifferentialOperator.monomial((1, 1)))
    yield ("ball:1", 2, 4.0, DifferentialOperator.laplacian(2))
    yield ("ball:1", 2, 4.0, DifferentialOperator.monomial((1, 2)))


def _expanded(keys, index, sizes, odd, u):
    """The full coefficients c_k = i^-n sgn(k) u_o / sqrt(|o|) of u."""
    sign = np.prod(np.sign(keys[:, list(odd)]), axis=1)
    c = np.where(index >= 0, (u / np.sqrt(sizes))[index] * sign, 0.0)
    return c * (1j) ** -sum(odd)


def test_parity_grid_samples_the_expanded_polynomial():
    # on every kept node, the sine-cosine synthesis is the full grid's
    # synthesis of the expanded coefficients, which are those of a real T;
    # rows() gives the same values node by node
    rng = np.random.default_rng(5)
    for spec, m, a, op in _parity_cases():
        keys = parse_body(spec, m).lattice_points(a)
        index, sizes, _, odd, d_orbit = _cosine_orbits(
            math.inf, math.inf, op, keys)
        for shape in ((11,) * m, (14,) * m):
            full = SamplingGrid(keys, shape)
            par = CosineGrid(keys, index, shape, odd)
            assert par.n == len(sizes)
            u = rng.standard_normal(par.n)
            c = _expanded(keys, index, sizes, odd, u)
            assert np.abs(par.coefficients(u) - c).max() <= 1e-15
            assert np.linalg.norm(c) == pytest.approx(np.linalg.norm(u))
            want = full.synth(c)[tuple(slice(0, L // 2 + 1) for L in shape)]
            got = par.synth(u)
            assert np.abs(want.imag).max() <= 1e-12 * np.abs(want).max()
            assert np.abs(got - want.real).max() <= \
                1e-12 * np.abs(want).max()
            nodes = np.argwhere(np.ones(got.shape, dtype=bool))
            assert np.abs(par.rows(nodes) @ u - got[tuple(nodes.T)]).max() \
                <= 1e-12 * np.abs(got).max()
            # |D T(0)| is |d . u| with the orbit symbol
            d = op.symbol_at_ik(keys.astype(float))
            assert abs(np.dot(d_orbit, u)) == \
                pytest.approx(abs(np.dot(d, c)), rel=1e-12)


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
def test_sign_character_symmetrizing_never_lowers_the_grid_ratio(p):
    # averaging over G with the sign character and taking the real part
    # after a phase rotation keeps |D T(0)| and does not raise the grid's
    # L_p norm, for odd symbols as for even ones
    rng = np.random.default_rng(7)
    for spec, m, a, op in _parity_cases():
        keys = parse_body(spec, m).lattice_points(a)
        index, sizes, _, odd, d_orbit = _cosine_orbits(p, math.inf, op, keys)
        full = _grid(keys, 4)
        par = CosineGrid(keys, index, full.shape, odd)
        d = op.symbol_at_ik(keys.astype(float))
        basis = _expanded(keys, index, sizes, odd, np.ones(len(sizes))) * \
            np.sqrt(sizes)[index]      # entries i^-n sgn(k), 0 where dead
        live = index >= 0
        for _ in range(10):
            z = rng.standard_normal((full.n, 2))
            c = z[:, 0] + 1j * z[:, 1]
            before = abs(np.dot(d, c)) / full.norm(full.synth(c), p)
            proj = np.bincount(index[live], weights=(np.conj(basis) * c)[
                live].real, minlength=len(sizes)) + 1j * np.bincount(
                index[live], weights=(np.conj(basis) * c)[live].imag,
                minlength=len(sizes))
            proj /= np.sqrt(sizes)
            w = np.dot(d_orbit, proj)
            u = (proj * np.conj(w) / abs(w)).real
            after = abs(np.dot(d_orbit, u)) / par.norm(par.synth(u), p)
            assert after >= before * (1.0 - 1e-12)


def test_parity_grid_project_is_the_adjoint_and_left_inverse():
    # Re<coefficients(u), c> = u . project(c) for every complex c, and
    # project(coefficients(u)) = u, for each parity pattern of the axes
    rng = np.random.default_rng(6)
    patterns = set()
    for spec, m, a, op in _parity_cases():
        keys = parse_body(spec, m).lattice_points(a)
        index, sizes, _, odd, _ = _cosine_orbits(1.0, math.inf, op, keys)
        patterns.add(odd)
        par = CosineGrid(keys, index, _grid(keys, 4).shape, odd)
        for _ in range(5):
            u = rng.standard_normal(par.n)
            z = rng.standard_normal((len(keys), 2))
            c = z[:, 0] + 1j * z[:, 1]
            assert abs(np.vdot(par.coefficients(u), c).real -
                       np.dot(u, par.project(c))) <= \
                1e-14 * np.linalg.norm(u) * np.linalg.norm(c)
            assert np.abs(par.project(par.coefficients(u)) - u).max() <= \
                1e-14 * np.abs(u).max()
    assert patterns == {(True,), (True, True), (True, False),
                        (False, False)}


def test_peaks_are_the_full_grid_local_maxima():
    # the quarter grid's mirrored neighbours find the local maxima of |T|
    # over the full grid, for grids of even and of odd size, on the edge
    # nodes too
    keys = ConvexBody.ball(1.0, 2).lattice_points(3.0)
    rng = np.random.default_rng(9)
    for op in (DifferentialOperator.monomial((1, 2)),
               DifferentialOperator.laplacian(2)):
        index, sizes, _, odd, _ = _cosine_orbits(
            math.inf, math.inf, op, keys)
        u = rng.standard_normal(len(sizes))
        for L in (40, 41):
            full = np.abs(SamplingGrid(keys, (L, L)).synth(
                _expanded(keys, index, sizes, odd, u)))
            level = 1e-9 * full.max()
            peak = full > level
            for di in (-1, 0, 1):
                for dj in (-1, 0, 1):
                    peak &= full >= np.roll(full, (di, dj), axis=(0, 1))
            H = L // 2 + 1
            want = np.argwhere(peak[:H, :H])
            got = _peaks_above(np.abs(CosineGrid(keys, index, (L, L), odd)
                                      .synth(u)), level)
            assert np.isin(want, [0, H - 1]).any()
            assert np.array_equal(got, want)


def _peaks_by_grid_scan(av, level):
    """The peak search as a scan of the whole grid: every node above the
    level against each of its 3^m - 1 clipped neighbours."""
    nodes = np.argwhere(av > level)
    top = av[tuple(nodes.T)]
    peak = np.ones(len(nodes), dtype=bool)
    for offset in itertools.product((-1, 0, 1), repeat=av.ndim):
        near = np.clip(nodes + offset, 0, np.array(av.shape) - 1)
        peak &= top >= av[tuple(near.T)]
    return nodes[peak]


def _assert_same_peaks(av, level):
    got, want = _peaks_above(av, level), _peaks_by_grid_scan(av, level)
    assert got.dtype == want.dtype == np.int64
    assert got.shape == want.shape == (len(want), av.ndim)
    assert np.array_equal(got, want)    # the same nodes, in the same order


@pytest.mark.parametrize("op, a, body", [
    (DifferentialOperator.laplacian(2), 4.0, ConvexBody.ball(1.0, 2)),
    (DifferentialOperator.laplacian(2), 8.0, ConvexBody.ball(1.0, 2)),
    (DifferentialOperator.laplacian(2), 16.0, ConvexBody.ball(1.0, 2)),
    (DifferentialOperator.monomial((1,)), 16.0, ConvexBody.cube(1.0, 1)),
])
def test_peak_search_matches_the_grid_scan_on_every_lp_round(
        monkeypatch, op, a, body):
    # each round's |T| is checked as the round sees it, so the rounds need
    # not follow any one sequence of HiGHS pivots
    rounds = []

    def checked(av, level):
        _assert_same_peaks(av, level)
        peaks = _peaks_above(av, level)
        rounds.append(len(peaks))
        return peaks

    monkeypatch.setattr(constants, "_peaks_above", checked)
    out = exchange_lp(op, a, body)
    assert len(rounds) == out.lp[0] and rounds[-1] == 0


def test_peak_search_matches_the_grid_scan_on_ties():
    # small integer values tie with their neighbours often; even and odd
    # sizes put the clipped edges on both parities
    rng = np.random.default_rng(28)
    for shape in ((1,), (2,), (7,), (8,), (1, 5), (6, 1), (5, 6), (9, 9),
                  (4, 5, 6), (3, 3, 3), (2, 7, 1)):
        for _ in range(20):
            av = rng.integers(0, 4, size=shape).astype(float)
            for level in (-1.0, 0.5, 1.5, 2.5):
                _assert_same_peaks(av, level)
        flat = np.full(shape, 2.0)
        _assert_same_peaks(flat, 1.0)      # all equal: every node a peak
        assert len(_peaks_above(flat, 1.0)) == flat.size
        # nothing above the level
        assert _peaks_above(flat, 2.0).shape == (0, len(shape))
        _assert_same_peaks(flat, 2.0)


@pytest.mark.parametrize("a", [8.0, 16.0])
def test_exchange_lp_rounds_allocate_no_grid_sized_array(a):
    # one quarter-grid buffer holds every round's |T|; the peak search and
    # the certificate add boolean masks and arrays of the nodes above the
    # level only
    disk, lap = ConvexBody.ball(1.0, 2), DifferentialOperator.laplacian(2)
    exchange_lp(lap, 2.0, disk)     # loads the LP solver before tracing
    keys = disk.lattice_points(a)
    index, _, _, odd, _ = _cosine_orbits(math.inf, math.inf, lap, keys)
    cert = _certificate_grid(CosineGrid(keys, index, _grid(keys, 8).shape,
                                        odd))
    grid_bytes = 8 * math.prod(L // 2 + 1 for L in cert.shape)
    tracemalloc.start()
    try:
        exchange_lp(lap, a, disk)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.0 * grid_bytes


def test_exchange_lp_brackets_the_segment_derivative():
    # Bernstein: P(a) = floor(a)/a for d/dx on the segment at p = q = inf
    seg = ConvexBody.cube(1.0, 1)
    op = DifferentialOperator.monomial((1,))
    for a in (3.5, 8.0, 16.0):
        out = exchange_lp(op, a, seg)
        exact = math.floor(a) / a
        assert out.estimate.kind == "lower-bound-optimizer"
        assert out.upper.kind == "upper-bound-dual"
        assert out.estimate.value <= exact <= out.upper.value
        assert out.upper.value - out.estimate.value <= 2e-3 * exact
        assert out.unknowns == (math.floor(a), 2 * math.floor(a) + 1, 2)
        check_order_consistency([out.estimate, out.upper])


def test_exchange_lp_brackets_the_disk_laplacian():
    disk, lap = ConvexBody.ball(1.0, 2), DifferentialOperator.laplacian(2)
    out = optimize_full(math.inf, math.inf, lap, 4.0, disk,
                        OptimizerConfig(restarts=3, seed=1))
    lower, upper = out.estimate.value, out.upper.value
    assert lower <= upper < 1.002 * lower
    assert out.unknowns == (10, 49, 8)
    lps, active, residual, _ = out.lp
    assert lps >= 1 and active >= out.unknowns[0]
    assert 0.0 <= residual < 1e-9
    assert out.ascent_stops == () and out.restart_values == (lower,)
    # the reported coefficients are the expanded LP solution, and the
    # lower bound is their certified sup ratio on the certificate grid
    keys = disk.lattice_points(4.0)
    c = np.array([out.best_coefficients[tuple(int(v) for v in k)]
                  for k in keys])
    fine = _certificate_grid(_grid(disk.lattice_points(4.0), 8))
    assert _final_value(fine, lap.symbol_at_ik(keys.astype(float)), c,
                        math.inf, math.inf, 4.0 ** -2)[0] == \
        pytest.approx(lower, rel=1e-12)


@pytest.mark.parametrize("op, a, body, lower, upper", [
    (DifferentialOperator.laplacian(2), 4.0, ConvexBody.ball(1.0, 2),
     1.4115725631381666, 1.412980454318502),
    (DifferentialOperator.laplacian(2), 8.0, ConvexBody.ball(1.0, 2),
     1.6671334825926432, 1.6687992285212985),
    (DifferentialOperator.laplacian(2), 16.0, ConvexBody.ball(1.0, 2),
     1.8258873269915517, 1.8277133189990786),
    (DifferentialOperator.monomial((1,)), 16.0, ConvexBody.cube(1.0, 1),
     0.9990871795598707, 1.0000854351999362),
])
def test_exchange_lp_brackets_pinned(op, a, body, lower, upper):
    # the brackets of the cold-started exchange LP, which each round's
    # re-solve from the last basis must keep
    out = exchange_lp(op, a, body)
    assert out.estimate.value == pytest.approx(lower, rel=1e-10)
    assert out.upper.value == pytest.approx(upper, rel=1e-10)
    # the residual term stays tiny only while the model's rows are R's
    assert 0.0 <= out.lp[2] <= 1e-9 * out.estimate.value


def test_exchange_lp_routing():
    disk, lap = ConvexBody.ball(1.0, 2), DifferentialOperator.laplacian(2)
    # the disk at a = 32 has 429 orbits, above the cut: the ladder runs it
    assert exchange_lp(lap, 32.0, disk) is None
    # test 12's largest problem, a = 16, has 114: the LP runs it
    assert len(_cosine_orbits(math.inf, math.inf, lap,
                              disk.lattice_points(16.0))[1]) == 114 <= \
        _LP_MAX_UNKNOWNS < 429
    # the LP declines a symbol of neither parity, and P(a) = 0: d/dx on the
    # segment at a < 1, which optimize_full answers by its closed form
    sq = ConvexBody.cube(1.0, 2)
    assert exchange_lp(DifferentialOperator(2, 1, {(1, 0): 1.0,
                                                   (0, 1): 1.0}),
                       2.0, sq) is None
    assert exchange_lp(DifferentialOperator.monomial((1,)), 0.5,
                       ConvexBody.cube(1.0, 1)) is None


def test_reduced_two_inf_optimum_is_the_closed_form():
    disk, lap = ConvexBody.ball(1.0, 2), DifferentialOperator.laplacian(2)
    out = optimize_ascent(2.0, math.inf, lap, 4.0, disk,
                          OptimizerConfig(restarts=2, seed=0))
    assert out.unknowns[1:] == (49, 8)
    assert out.estimate.value == pytest.approx(
        closed_p2_inf(disk, lap, 4.0).value, rel=1e-9)


def test_optimizer_validation():
    seg = ConvexBody.cube(1.0, 1)
    ident = DifferentialOperator.identity(1)
    with pytest.raises(ValueError):
        optimize_full(3.0, 2.0, ident, 1.0, seg)
    # closed_form once returned 1.0 at p = q = -1 on this box monomial
    sq, op = ConvexBody.cube(1.0, 2), DifferentialOperator.monomial((1, 1))
    for p, q in ((-1.0, -1.0), (0.0, 0.0), (math.nan, math.nan), (3.0, 2.0)):
        with pytest.raises(ValueError, match="need 0 < p <= q"):
            closed_form(p, q, sq, op, 3.0)
        with pytest.raises(ValueError, match="need 0 < p <= q"):
            closed_form(p, q, sq, op)
        with pytest.raises(ValueError, match="need 0 < p <= q"):
            optimize_full(p, q, op, 3.0, sq)
    # a scale a <= 0 or NaN gets one answer whichever form (p, q) picks
    for a in (-4.0, 0.0, math.nan):
        for p, q, body in ((1.0, math.inf, seg), (2.0, math.inf, seg),
                           (2.0, 2.0, seg), (3.0, 3.0, sq)):
            with pytest.raises(ValueError, match="scale a must be positive"):
                closed_form(p, q, body, ident if body is seg else op, a)
    with pytest.raises(ValueError, match="seed must be at least 0"):
        OptimizerConfig(seed=-1)


def test_odd_symbol_ascent_on_parity_orbits_loses_nothing():
    # d/dx on the segment at (1, inf), the CI's odd-symbol run: on the sine
    # orbits {-k, k} each value is at least the one that the full complex
    # coefficients gave (0.153790156594648, 0.10985415085920536 and
    # 0.09076070179571362)
    seg = ConvexBody.cube(1.0, 1)
    op = DifferentialOperator.monomial((1,))
    cfg = OptimizerConfig(restarts=2, iterations=80, seed=3)
    for a, complex_value in ((2.0, 0.153790156594648),
                             (4.0, 0.10985415085920536),
                             (8.0, 0.09076070179571362)):
        out = optimize_full(1.0, math.inf, op, a, seg, cfg)
        assert out.unknowns == (int(a), 2 * int(a) + 1, 2)
        assert out.estimate.value >= complex_value


def test_product_rule_square_is_the_segment_squared():
    # the square's (1, inf) identity row is the tensor of the segment's
    # winner: its value is the segment row squared, bitwise, from one 1-D
    # solve shared by both axes
    sq, seg = ConvexBody.cube(1.0, 2), ConvexBody.cube(1.0, 1)
    cfg = OptimizerConfig(restarts=2, iterations=150, seed=11)
    out = optimize_full(1.0, math.inf, DifferentialOperator.identity(2), 8.0,
                        sq, cfg)
    axis = optimize_full(1.0, math.inf, DifferentialOperator.identity(1),
                         8.0, seg, cfg)
    assert out.estimate.value == axis.estimate.value ** 2
    assert out.estimate.kind == "lower-bound-optimizer"
    assert out.estimate.notes.startswith("product rule: tensor of 1-D winners")
    assert out.unknowns == (9, 289, 4)
    assert out.restart_values == axis.restart_values
    assert out.restart_values == \
        tuple(s.certified for s in out.ascent_stops)
    assert out.upper is None and out.lp == ()
    c = axis.best_coefficients
    assert out.best_coefficients == {
        (k, j): c[k,] * c[j,] for (k,), (j,) in itertools.product(c, c)}


def test_product_rule_mixed_derivative_is_the_derivative_squared():
    sq, seg = ConvexBody.cube(1.0, 2), ConvexBody.cube(1.0, 1)
    cfg = OptimizerConfig(restarts=2, iterations=150, seed=3)
    out = optimize_full(1.0, math.inf, DifferentialOperator.monomial((1, 1)),
                        8.0, sq, cfg)
    axis = optimize_full(1.0, math.inf, DifferentialOperator.monomial((1,)),
                         8.0, seg, cfg)
    assert out.estimate.value == axis.estimate.value ** 2
    assert out.unknowns == (8, 289, 4)


def test_product_rule_brackets_sup_sup():
    # at p = q = inf the square's exact value is the product of its axis
    # values, and lies in the product of the axis exchange-LP brackets
    sq, op, a = ConvexBody.cube(1.0, 2), \
        DifferentialOperator.monomial((1, 0)), 8.0
    out = optimize_full(math.inf, math.inf, op, a, sq)
    seg = ConvexBody.parallelepiped([1.0])
    axes = [DifferentialOperator.monomial((al,)) for al in (1, 0)]
    exact = [optimize_full(math.inf, math.inf, ax, a, seg).estimate
             for ax in axes]
    lps = [exchange_lp(ax, a, seg) for ax in axes]
    assert out.estimate.kind == "exact-closed-form"
    assert all(e.kind == "exact-closed-form" for e in exact)
    assert out.estimate.value == exact[0].value * exact[1].value
    assert lps[0].estimate.value * lps[1].estimate.value <= \
        out.estimate.value <= lps[0].upper.value * lps[1].upper.value
    for lp in lps:
        check_order_consistency([lp.estimate, lp.upper])


def test_product_rule_solves_each_distinct_axis_once():
    # pi:1,2 with 3 D^(1,0): d/dx on [-1, 1] and the identity on [-2, 2],
    # both solved, their lists concatenated in axis order
    body = ConvexBody.parallelepiped([1.0, 2.0])
    cfg = OptimizerConfig(restarts=2, iterations=150, seed=5)
    out = optimize_full(1.0, math.inf,
                        DifferentialOperator.monomial((1, 0), 3.0), 4.0,
                        body, cfg)
    first = optimize_full(1.0, math.inf, DifferentialOperator.monomial((1,)),
                          4.0, ConvexBody.parallelepiped([1.0]), cfg)
    second = optimize_full(1.0, math.inf, DifferentialOperator.identity(1),
                           4.0, ConvexBody.parallelepiped([2.0]), cfg)
    assert out.estimate.value == \
        3.0 * (first.estimate.value * second.estimate.value)
    assert out.restart_values == first.restart_values + second.restart_values
    assert [s.restart for s in out.ascent_stops] == [0, 1, 2, 3]
    assert out.unknowns == (first.unknowns[0] + second.unknowns[0],
                            9 * 17, 4)
    assert len(out.best_coefficients) == 9 * 17


def test_box_lattice_is_the_product_of_the_axis_lattices():
    for sigma, a in (([1.0, 2.0], 4.0), ([0.7, 1.3], 5.5),
                     ([1.0, 0.5, 2.5], 3.0)):
        box = ConvexBody.parallelepiped(sigma).lattice_points(a)
        axes = [[k for (k,) in ConvexBody.parallelepiped([s]).lattice_points(
            a)] for s in sigma]
        assert np.array_equal(box, np.array(list(itertools.product(*axes))))


def test_product_rule_witness_scores_its_value_on_the_box_grid():
    # the tensor of the 1-D winners, scored on the m-D problem's own
    # rectangle-rule grid, has the reported value
    sq, ident, a = ConvexBody.cube(1.0, 2), DifferentialOperator.identity(2), \
        16.0
    out = optimize_full(1.0, math.inf, ident, a, sq,
                        OptimizerConfig(restarts=2, seed=11))
    keys = sq.lattice_points(a)
    c = np.array([out.best_coefficients[tuple(int(v) for v in k)]
                  for k in keys])
    value, _ = _final_value(_grid(keys, 4),
                            ident.symbol_at_ik(keys.astype(float)), c, 1.0,
                            math.inf, a ** -2)
    assert value == pytest.approx(out.estimate.value, rel=1e-12)


def test_product_rule_routing_guards():
    # p < 1, finite q, a symbol of several terms and a body other than a
    # box keep the m-D path and its unknowns
    sq, disk = ConvexBody.cube(1.0, 2), ConvexBody.ball(1.0, 2)
    ident = DifferentialOperator.identity(2)
    cfg = OptimizerConfig(restarts=1, iterations=10, seed=1)
    for p, q, op, body, unknowns in (
            (0.5, math.inf, ident, sq, (25, 25, 1)),
            (1.0, 2.0, ident, sq, (25, 25, 1)),
            (1.0, math.inf, DifferentialOperator.laplacian(2), sq,
             (6, 25, 8)),
            (1.0, math.inf, ident, disk, (4, 13, 8))):
        out = optimize_full(p, q, op, 2.0, body, cfg)
        assert out.unknowns == unknowns
        assert not out.estimate.notes.startswith("product rule")


def _grid(keys, oversample):
    """The optimizer's sampling grid for a lattice set."""
    return SamplingGrid(keys, default_grid(np.abs(keys).max(axis=0),
                                           oversample))


def _transform_cases():
    for spec, m, a in (("ball:1", 2, 8.0), ("cube:1", 1, 16.0),
                       ("cube:1", 2, 32.0), ("ball:1", 3, 4.0)):
        keys = parse_body(spec, m).lattice_points(a)
        for oversample in (4, 8):
            yield keys, default_grid(np.abs(keys).max(axis=0), oversample)
    # one frequency; and the fine grid that certifies the final sup of the
    # disk at a = 4
    yield parse_body("cube:1", 2).lattice_points(0.5), (8, 8)
    yield parse_body("ball:1", 2).lattice_points(4.0), (563, 563)


def test_sampling_grid_synth_and_adjoint():
    # synth against the direct sum T(x) = sum_k c_k e^{ik.x} at the nodes
    # x_l = -pi + 2*pi*l/L (all of them on small grids, 256 drawn at random
    # on the others), and analyze against synth through the inner products
    rng = np.random.default_rng(4)
    for spectrum, shape in _transform_cases():
        prob = SamplingGrid(spectrum, shape)
        c = rng.standard_normal(prob.n) + 1j * rng.standard_normal(prob.n)
        u = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        v = prob.synth(c)
        flat = np.arange(prob.size) if prob.size <= 256 else \
            rng.choice(prob.size, 256, replace=False)
        nodes = np.array(np.unravel_index(flat, shape)).T
        T = TrigPolynomial(prob.m, dict(zip(map(tuple, spectrum.tolist()), c)))
        direct = T.evaluate_points(-np.pi + 2 * np.pi * nodes / shape)
        err = np.abs(v[tuple(nodes.T)] - direct).max()
        assert err <= 1e-12 * np.abs(direct).max()
        lhs, rhs = np.vdot(v, u), np.vdot(c, prob.analyze(u))
        assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(v) * np.linalg.norm(u)


def test_optimizer_segment_sup_sup_pinned():
    # the ladder, which optimize_full runs at p = q = inf only above the
    # LP's cut or for symbols of neither parity, never on a box monomial
    seg = ConvexBody.cube(1.0, 1)
    op = DifferentialOperator.monomial((1,))
    cfg = OptimizerConfig(restarts=2, iterations=500, seed=12)
    out = optimize_ascent(math.inf, math.inf, op, 8.0, seg, cfg)
    assert out.estimate.value == 0.9990343153091129  # bitwise
    # one record per restart and temperature rung, in that order; both
    # ladders, on the 8 sine orbits, stop at t = 10^5.5, whose certified
    # value is below t = 10^5's
    assert out.unknowns == (8, 17, 2)
    assert [(s.restart, s.temperature) for s in out.ascent_stops] == \
        [(i, t) for i in range(2) for t in _TEMP_LADDER[:10]]
    assert [(s.reason, s.steps) for s in out.ascent_stops] == [
        ("no-ascent", 37), ("no-ascent", 19), ("no-ascent", 18),
        ("no-ascent", 24), ("no-ascent", 24), ("no-ascent", 23),
        ("no-ascent", 20), ("no-ascent", 24), ("no-ascent", 20),
        ("no-ascent", 20),
        ("no-ascent", 41), ("no-ascent", 19), ("no-ascent", 18),
        ("no-ascent", 24), ("no-ascent", 24), ("no-ascent", 23),
        ("no-ascent", 20), ("no-ascent", 24), ("no-ascent", 20),
        ("no-ascent", 20)]


def test_ladder_stops_once_the_certified_value_falls(monkeypatch):
    # each restart climbs the temperature ladder while the certified value
    # of its rung iterates does not fall, and reports its best rung
    ladder_runs = [
        (ConvexBody.cube(1.0, 1), DifferentialOperator.monomial((1,)), 8.0),
        (ConvexBody.ball(1.0, 2), DifferentialOperator.laplacian(2), 4.0)]
    cfg = OptimizerConfig(restarts=2, iterations=500, seed=12)
    scoring = constants._final_value
    scored = []

    def recorded(grid, d, c, *args):
        scored.append(c)
        return scoring(grid, d, c, *args)
    monkeypatch.setattr(constants, "_final_value", recorded)
    early = 0
    for body, op, a in ladder_runs:
        scored.clear()
        out = optimize_ascent(math.inf, math.inf, op, a, body, cfg)
        for i in range(cfg.restarts):
            stops = [s for s in out.ascent_stops if s.restart == i]
            certified = [s.certified for s in stops]
            assert [s.temperature for s in stops] == \
                list(_TEMP_LADDER[:len(stops)])
            for j in range(1, len(stops) - 1):
                assert certified[j] >= max(certified[:j])
            if len(stops) < len(_TEMP_LADDER):
                assert certified[-1] < max(certified[:-1])
                early += 1
            assert out.restart_values[i] == max(certified)
            assert out.best_rungs[i] == \
                stops[certified.index(max(certified))].temperature
        keys = body.lattice_points(a)
        shape = default_grid(np.abs(keys).max(axis=0), 8)
        c = np.array([out.best_coefficients[tuple(int(v) for v in k)]
                      for k in keys])
        # both run on the quarter grid, with one unknown per parity orbit
        index, _, _, odd, d = _cosine_orbits(math.inf, math.inf, op, keys)
        fine = _certificate_grid(CosineGrid(keys, index, shape, odd))
        # the scored orbit unknowns whose expansion is the reported map
        c = next(u for u in scored
                 if np.array_equal(fine.coefficients(u), c))
        assert _final_value(fine, d, c, math.inf, math.inf,
                            a ** -op.order) == \
            (out.estimate.value, out.estimate.tolerance)
    assert early == 4
    # finite p has no ladder: one record per restart, which it reports
    out = optimize_ascent(1.0, math.inf, DifferentialOperator.identity(1), 8.0,
                        ConvexBody.cube(1.0, 1),
                        OptimizerConfig(restarts=2, iterations=300, seed=3))
    assert [(s.restart, s.temperature) for s in out.ascent_stops] == \
        [(0, None), (1, None)]
    assert out.restart_values == \
        tuple(s.certified for s in out.ascent_stops)
    assert out.best_rungs == (None, None)


def test_optimizer_values_pinned():
    # bitwise, for the L-BFGS ascent at one BLAS thread (conftest.py); the
    # square goes by the product rule, the square of the segment's cosine
    # orbit ascent (OPENBLAS_NUM_THREADS=1 bnsharp optimize --body cube:1
    # --m 2 --operator identity --p 1 --q inf --a 16,32 --restarts 2
    # --seed 11), and lies above the values of the 2-D ascent on cosine
    # orbits, which the product rule bypasses and the disk still runs
    sq, ident = ConvexBody.cube(1.0, 2), DifferentialOperator.identity(2)
    cfg = OptimizerConfig(restarts=2, seed=11)
    for a, value, ascent_2d in ((16.0, 0.033170880073060675,
                                 0.03297081777400847),
                                (32.0, 0.031247591021807984,
                                 0.029767746710726704)):
        assert optimize_full(1.0, math.inf, ident, a, sq,
                             cfg).estimate.value == value
        assert optimize_ascent(1.0, math.inf, ident, a, sq,
                               cfg).estimate.value == ascent_2d < value
    seg = ConvexBody.cube(1.0, 1)
    cfg = OptimizerConfig(restarts=2, iterations=300, seed=3)
    out = optimize_full(1.0, 2.0, DifferentialOperator.monomial((1,)), 8.0,
                        seg, cfg)
    assert out.estimate.value == 0.18481710969775553
    assert [(s.reason, s.steps) for s in out.ascent_stops] == \
        [("no-ascent", 151), ("cap", 300)]


@pytest.mark.parametrize("p, q, op, body, a, iterations, value, stops", [
    # complex coefficients at q = inf: p = 0.5 < 1 has no cosine orbits,
    # so the ascent's real dot products go through the float64 views
    (0.5, math.inf, DifferentialOperator.identity(1), ConvexBody.cube(1.0, 1),
     4.0, 400, 0.01566070565830241,
     [("no-ascent", 105, 367), ("no-ascent", 97, 344)]),
    (0.5, math.inf, DifferentialOperator.identity(1), ConvexBody.cube(1.0, 1),
     8.0, 400, 0.009241140862602124,
     [("no-ascent", 121, 407), ("no-ascent", 118, 392)]),
    # the 2-D FFT path: D^(1,1) on the square at (1, 2)
    (1.0, 2.0, DifferentialOperator.monomial((1, 1)), ConvexBody.cube(1.0, 2),
     2.0, 100, 0.10501521505277892,
     [("no-ascent", 90, 318), ("no-ascent", 69, 300)]),
    (1.0, 2.0, DifferentialOperator.monomial((1, 1)), ConvexBody.cube(1.0, 2),
     4.0, 100, 0.051627045310837845, [("cap", 100, 125), ("cap", 100, 136)]),
])
def test_optimizer_complex_paths_pinned(p, q, op, body, a, iterations, value,
                                        stops):
    # bitwise, at one BLAS thread (conftest.py): the value and each
    # restart's (reason, steps, evaluations)
    out = optimize_full(p, q, op, a, body,
                        OptimizerConfig(restarts=2, iterations=iterations,
                                        seed=3))
    assert out.estimate.value == value
    assert [(s.reason, s.steps, s.evaluations)
            for s in out.ascent_stops] == stops


def test_optimizer_reaches_fejer_kernel_on_the_square():
    # the tensor Fejer kernel of degree floor(a) attains
    # ((floor(a) + 1) / (2 pi a))^2 for ||T||_inf / ||T||_1 on the square;
    # finite-p values are still scored on the coarse grid (ROADMAP Open
    # item 1), so they carry its overshoot
    for a in (32.0, 64.0):
        est = optimize_full(1.0, math.inf, DifferentialOperator.identity(2),
                            a, ConvexBody.cube(1.0, 2),
                            OptimizerConfig(restarts=2, seed=11)).estimate
        assert est.value >= ((math.floor(a) + 1) / (2 * math.pi * a)) ** 2


def test_ascent_stops_on_gtol_for_one_frequency():
    # one frequency: the ratio is constant on the sphere, its gradient zero
    seg = ConvexBody.cube(1.0, 1)
    cfg = OptimizerConfig(restarts=1, iterations=50, seed=0)
    for p in (1.0, math.inf):
        out = optimize_ascent(p, math.inf, DifferentialOperator.identity(1),
                              0.5, seg, cfg)
        assert {(s.reason, s.steps, s.evaluations)
                for s in out.ascent_stops} == {("gtol", 0, 1)}


def test_ascent_stops_record_value_and_gradient_norm():
    # "gtol" is reported exactly when the final tangent gradient norm is
    # below the tolerance, whichever way the ascent stopped
    seg = ConvexBody.cube(1.0, 1)
    ident, d1 = DifferentialOperator.identity(1), \
        DifferentialOperator.monomial((1,))
    cfg = OptimizerConfig(restarts=2, iterations=300, seed=3)
    stops = []
    for p, q, op, a in ((1.0, math.inf, ident, 0.5), (1.0, 2.0, d1, 8.0),
                        (math.inf, math.inf, d1, 4.0)):
        stops += optimize_ascent(p, q, op, a, seg, cfg).ascent_stops
    assert {s.reason for s in stops} == {"gtol", "no-ascent", "cap"}
    for s in stops:
        assert math.isfinite(s.value) and s.value > 0
        assert (s.reason == "gtol") == \
            (s.grad_norm < constants._GTOL * (1.0 + abs(s.value)))


def _counted(prob, name, calls):
    method = getattr(prob, name)

    def wrapper(*args):
        calls[name] += 1
        return method(*args)
    setattr(prob, name, wrapper)


def test_ascent_computes_gradients_only_at_accepted_points():
    spectrum = ConvexBody.cube(1.0, 1).lattice_points(8.0)
    prob = _grid(spectrum, 4)
    calls = {"synth": 0, "analyze": 0}
    for name in calls:
        _counted(prob, name, calls)
    d = DifferentialOperator.identity(1).symbol_at_ik(
        spectrum.astype(float))
    at = _make_objective(prob, d, 1.0, math.inf, temperature=None)
    z = np.random.default_rng(0).standard_normal((prob.n, 2))
    _, (reason, steps, evaluations) = _ascend(
        at, z[:, 0] + 1j * z[:, 1], OptimizerConfig(iterations=50))
    assert (reason, steps) == ("cap", 50)
    # one gradient at the start and one per accepted step
    assert calls["analyze"] == 51
    assert calls["synth"] == evaluations > 51


def _hermitian_with_spectrum(lam, rng, real):
    """Q diag(lam) Q^H for a random unitary Q, real orthogonal if ``real``."""
    n = len(lam)
    z = rng.standard_normal((n, n))
    if not real:
        z = z + 1j * rng.standard_normal((n, n))
    Q, _ = np.linalg.qr(z)
    A = (Q * lam) @ Q.conj().T
    return 0.5 * (A + A.conj().T)


@pytest.mark.parametrize("n, real", [(40, False), (41, True)])
def test_ascent_direction_on_rayleigh_quotient(n, real, monkeypatch):
    # Re<c, A c> on the unit sphere peaks at the top eigenvalue 3; the rest
    # of the spectrum fills [1, 2.9], where steepest ascent takes over 50
    # steps to reach the tolerance
    rng = np.random.default_rng(1)
    A = _hermitian_with_spectrum(
        np.append(np.linspace(1.0, 2.9, n - 1), 3.0), rng, real)
    points = []

    def at(c):
        points.append(c)
        Ac = A @ c
        F = float(np.real(np.vdot(c, Ac)))
        return F, lambda: 2.0 * Ac / F     # gradient of log F
    z = rng.standard_normal((n, 2))
    c0 = z[:, 0] if real else z[:, 0] + 1j * z[:, 1]
    monkeypatch.setattr(constants, "_GTOL", 1e-5)
    (c, value, grad_norm), (reason, steps, evaluations) = _ascend(
        at, c0, OptimizerConfig(iterations=400))
    assert reason == "gtol" and grad_norm < 1e-5 * (1.0 + value)
    assert steps < 0.75 * n
    assert value == pytest.approx(3.0, abs=1e-7)
    assert evaluations == len(points)
    for x in points:
        assert abs(np.linalg.norm(x) - 1.0) < 1e-14
        # a real start keeps the ascent on the real sphere
        assert np.isrealobj(x) == real


def _log_gradient_mismatch(prob, d, p, q, temperature, rng):
    """Relative gap between the gradient of log F along a random unit
    direction and its central finite difference."""
    at = _make_objective(prob, d, p, q, temperature)
    z = rng.standard_normal((prob.n, 4))
    c = z[:, 0] + 1j * z[:, 1]
    c /= np.linalg.norm(c)
    v = z[:, 2] + 1j * z[:, 3]
    v /= np.linalg.norm(v)
    g = at(c)[1]()
    h = 1e-6
    fd = (math.log(at(c + h * v)[0]) -
          math.log(at(c - h * v)[0])) / (2 * h)
    an = float(np.real(np.vdot(g, v)))
    return abs(fd - an) / max(abs(fd), 1e-12)


@pytest.mark.parametrize("spec, m, op, a", [
    ("cube:1", 1, DifferentialOperator.monomial((1,)), 3.0),
    ("ball:1", 2, DifferentialOperator.laplacian(2), 3.0)])
def test_soft_max_and_sup_gradients_match_finite_differences(spec, m, op, a):
    spectrum = parse_body(spec, m).lattice_points(a)
    d = op.symbol_at_ik(spectrum.astype(float))
    rng = np.random.default_rng(13)
    soft = _grid(spectrum, 8)
    coarse = _grid(spectrum, 4)
    worst = max([_log_gradient_mismatch(soft, d, math.inf, math.inf, t, rng)
                 for t in (10.0, 1e3) for _ in range(3)] +
                [_log_gradient_mismatch(coarse, d, 1.0, math.inf, None, rng)
                 for _ in range(3)])
    assert worst <= 1e-5


def test_derived_function_envelope_covers_diagonal_ray():
    # D f of the square's Laplacian extremal is a four-term separable sum;
    # its folded product envelope must hold on the diagonal ray too, which
    # verify_decay samples
    lap = DifferentialOperator.laplacian(2)
    g = derived_function(cs_extremal(ConvexBody.cube(1.0, 2), lap), lap)
    assert g.decay.kind == "product"
    g.verify_decay(tolerance=0.0)


def test_candidate_akhiezer_tensor_approaches_exact():
    sigma = (1.0, 2.0)
    op = DifferentialOperator.monomial((1, 1))
    vals = []
    for h in (0.1, 0.05):
        F = tensor_product([akhiezer_family(s, 2.0, h * s)
                            for s in sigma])
        est = candidate_lower_bound_E(F, 2.0, 2.0, op, R=600.0)
        vals.append(est.value)
        assert est.kind == "lower-bound-candidate"
    target = sigma[0] * sigma[1]
    assert vals[1] > vals[0]
    assert vals[1] < target * (1 + 1e-6)
    assert vals[1] > 0.94 * target


def test_candidate_scaling_covariance():
    body = ConvexBody.cube(1.0, 1)
    op = DifferentialOperator.partial(1, 0)
    f1 = cs_extremal(body, op)
    c1 = candidate_lower_bound_E(f1, 2.0, math.inf, op, R=8000.0)
    gamma = 2.0
    fg = cs_extremal(body.scaled(gamma), op)
    cg = candidate_lower_bound_E(fg, 2.0, math.inf, op, R=8000.0 / gamma)
    # exponent N + m/p - m/q = 1 + 1/2
    assert cg.value == pytest.approx(c1.value * gamma ** 1.5, rel=1e-12)


def test_limit_study_two_inf():
    seg = ConvexBody.cube(1.0, 1)
    ident = DifferentialOperator.identity(1)
    ls = limit_study(2.0, math.inf, ident, seg, [10.0, 20.0, 40.0, 80.0])
    assert [r.a for r in ls.rows] == [10.0, 20.0, 40.0, 80.0]
    assert ls.reference.value == pytest.approx(1 / math.sqrt(math.pi))
    # the rows close in on the reference, the a = 80 row to within 0.5 %
    gaps = [abs(r.value - ls.reference.value) for r in ls.rows]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 5e-3 * ls.reference.value
    with pytest.raises(ValueError):
        limit_study(2.0, math.inf, ident, seg, [4.0, 4.0])


def test_limit_study_two_two_lattice_max():
    body = ConvexBody.ball(1.0, 2)
    op = DifferentialOperator.partial(2, 0)
    ls = limit_study(2.0, 2.0, op, body, [5.0, 10.0, 20.0])
    assert ls.rows[-1].value == pytest.approx(1.0)
    assert ls.reference.value == pytest.approx(1.0, rel=1e-8)


def test_limit_study_same_exponent_reference():
    # the box-monomial continuum sigma^alpha, whatever scales the sweep has
    seg = ConvexBody.cube(1.0, 1)
    d1 = DifferentialOperator.monomial((1,))
    cfg = OptimizerConfig(restarts=1, iterations=20, seed=0)
    assert limit_study(3.0, 3.0, d1, seg, [2.0, 3.0],
                       cfg).reference.value == 1.0
    assert limit_study(3.0, 3.0, d1, seg, [0.5], cfg).reference.value == 1.0


def test_order_consistency_checker():
    seg = ConvexBody.cube(1.0, 2)
    ident = DifferentialOperator.identity(2)
    ests = [closed_e2_inf(seg, ident), nikolskii_upper(2.0, math.inf, seg),
            crude_upper(2.0, math.inf, ident, seg)]
    check_order_consistency(ests)
    bogus = SharpConstantEstimate(10.0, "lower-bound-candidate", 2.0,
                                  math.inf, ident.label, seg.label, None, 0.0)
    with pytest.raises(AssertionError):
        check_order_consistency(ests + [bogus])
    # rows of another problem are refused, not ordered
    for field, other in (("p", 1.0), ("q", 2.0), ("operator", "identity"),
                         ("body", "ball:1")):
        with pytest.raises(ValueError, match="2 problems"):
            check_order_consistency(ests + [replace(bogus, value=0.1,
                                                    **{field: other})])
    # a row at scale a is ordered only against rows at the same a
    periodic = replace(bogus, value=0.1, kind="upper-bound", a=4.0)
    check_order_consistency(ests + [periodic])
    with pytest.raises(AssertionError):
        check_order_consistency([periodic, replace(bogus, a=4.0)])
    # an LP dual certificate is an upper bound like any "upper-bound*" kind
    lower = SharpConstantEstimate(1.2, "lower-bound-optimizer", math.inf,
                                  math.inf, "laplacian:2", "ball:1", 4.0,
                                  1e-3)
    dual = SharpConstantEstimate(1.1, "upper-bound-dual", math.inf, math.inf,
                                 "laplacian:2", "ball:1", 4.0, 0.0)
    with pytest.raises(AssertionError, match="upper-bound-dual"):
        check_order_consistency([lower, dual])
    check_order_consistency([replace(lower, value=1.05), dual])


def test_riemann_sum_convergence_diagnostic(capsys):
    # observed and logged; strict per-step monotonicity is not asserted
    body = ConvexBody.ball(1.0, 2)
    lap = DifferentialOperator.laplacian(2)
    ref = closed_e2_inf(body, lap).value
    errs = []
    for a in (5.0, 10.0, 20.0, 40.0):
        errs.append(abs(closed_p2_inf(body, lap, a).value - ref) / ref)
    print("riemann-sum diagnostic, relative errors over doubling scales:",
          [f"{e:.3e}" for e in errs])
    assert errs[-1] < errs[0]


def test_estimate_scaling_law_closed_forms():
    # gamma^(N + m/2) covariance of the continuum (2, inf) form
    body = ConvexBody.ball(1.0, 2)
    lap = DifferentialOperator.laplacian(2)
    base = closed_e2_inf(body, lap).value
    for gamma in (0.5, 2.0):
        scaled = closed_e2_inf(body.scaled(gamma), lap).value
        assert scaled == pytest.approx(base * gamma ** (2 + 1.0), rel=1e-8)
