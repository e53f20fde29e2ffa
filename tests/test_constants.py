import math

import numpy as np
import pytest

from bnsharp.bandlimited import akhiezer_family, cs_extremal, tensor_product
from bnsharp.body import ConvexBody, parse_body
from bnsharp.constants import (OptimizerConfig, _Objective, _Problem,
                               _ascend, _make_objective, _shape_for,
                               bernstein_pq,
                               candidate_lower_bound_E,
                               check_order_consistency, closed_e2_inf,
                               closed_e22, closed_p2_inf, closed_p22,
                               crude_upper, derived_function, limit_study,
                               monomial_integral, nikolskii_upper,
                               optimize_full, symbol_sq_integral)
from bnsharp.trigpoly import DifferentialOperator


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
    # a first derivative peaks along a whole edge of a box, where the
    # direction grid has no strict minimum to bracket
    d1, d2 = DifferentialOperator.monomial((1, 0)), \
        DifferentialOperator.monomial((0, 1))
    assert closed_e22(ConvexBody.cube(1.0, 2), d1).value == \
        pytest.approx(1.0, rel=1e-8)
    box = ConvexBody.parallelepiped([1.0, 2.0])
    assert closed_e22(box, d1).value == pytest.approx(1.0, rel=1e-8)
    assert closed_e22(box, d2).value == pytest.approx(2.0, rel=1e-8)


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
    est = optimize_full(2.0, math.inf, ident, 1.0, seg, cfg).estimate
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
    out = optimize_full(2.0, math.inf, ident, 1.0, seg, cfg)
    target = closed_p2_inf(seg, ident, 1.0).value
    hits = sum(1 for v in out.restart_values if abs(v - target) < 1e-4)
    assert hits >= 9


def test_optimizer_two_two_exact_path():
    body = ConvexBody.parallelepiped([1.0, 2.0])
    op = DifferentialOperator.monomial((1, 1))
    est = optimize_full(2.0, 2.0, op, 3.0, body).estimate
    assert est.value == closed_p22(body, op, 3.0).value


def test_optimizer_real_coefficient_toggle():
    seg = ConvexBody.cube(1.0, 1)
    ident = DifferentialOperator.identity(1)
    cfg = OptimizerConfig(restarts=3, iterations=200, seed=2,
                          real_coefficients=True)
    est = optimize_full(2.0, math.inf, ident, 1.0, seg, cfg).estimate
    # real and complex constants coincide at q = inf
    assert est.value == pytest.approx(closed_p2_inf(seg, ident, 1.0).value,
                                      abs=1e-5)
    assert "conjugate-symmetric" in est.notes


def test_optimizer_validation():
    seg = ConvexBody.cube(1.0, 1)
    ident = DifferentialOperator.identity(1)
    with pytest.raises(ValueError):
        optimize_full(3.0, 2.0, ident, 1.0, seg)


def _dense_synth(prob, c):
    B = np.zeros(prob.shape, dtype=complex)
    B[prob.idx] = c * prob.phase
    return np.fft.ifftn(B) * prob.size


def _dense_analyze(prob, u):
    return prob.phase * np.fft.fftn(u)[prob.idx]


def _transform_cases():
    for spec, m, a in (("ball:1", 2, 8.0), ("cube:1", 1, 16.0),
                       ("cube:1", 2, 32.0), ("ball:1", 3, 4.0)):
        spectrum = parse_body(spec, m).lattice_points(a)
        for oversample in (4, 8):
            yield spectrum, _shape_for(spectrum, oversample)
    # one frequency; and the fine grid that certifies the final sup of the
    # disk at a = 4
    yield parse_body("cube:1", 2).lattice_points(0.5), (8, 8)
    yield parse_body("ball:1", 2).lattice_points(4.0), (563, 563)


def test_pruned_transforms_equal_dense_transforms():
    rng = np.random.default_rng(4)
    for spectrum, shape in _transform_cases():
        prob = _Problem(spectrum, shape)
        c = rng.standard_normal(prob.n) + 1j * rng.standard_normal(prob.n)
        u = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        assert np.array_equal(prob.synth(c), _dense_synth(prob, c))
        assert np.array_equal(prob.analyze(u), _dense_analyze(prob, u))


def test_optimizer_segment_sup_sup_pinned():
    seg = ConvexBody.cube(1.0, 1)
    op = DifferentialOperator.monomial((1,))
    cfg = OptimizerConfig(restarts=2, iterations=500, seed=12)
    out = optimize_full(math.inf, math.inf, op, 8.0, seg, cfg)
    assert out.estimate.value == 0.9949938783702859  # bitwise
    # one record per restart and temperature rung, in that order
    assert [(s.restart, s.temperature) for s in out.ascent_stops] == \
        [(i, t) for i in range(2) for t in cfg.lse_temperatures]
    assert [(s.reason, s.steps) for s in out.ascent_stops] == [
        ("no-ascent", 137), ("no-ascent", 94), ("no-ascent", 208),
        ("no-ascent", 374), ("no-ascent", 452), ("cap", 500), ("cap", 500),
        ("cap", 500), ("no-ascent", 36), ("no-ascent", 33),
        ("no-ascent", 27),
        ("no-ascent", 131), ("no-ascent", 114), ("no-ascent", 223),
        ("no-ascent", 364), ("no-ascent", 477), ("cap", 500), ("cap", 500),
        ("no-ascent", 62), ("no-ascent", 31), ("no-ascent", 28),
        ("no-ascent", 27)]


def test_optimizer_values_pinned():
    # bitwise, for the L-BFGS ascent
    sq = ConvexBody.cube(1.0, 2)
    cfg = OptimizerConfig(restarts=2, seed=11)
    est = optimize_full(1.0, math.inf, DifferentialOperator.identity(2),
                        16.0, sq, cfg).estimate
    assert est.value == 0.03303436526595676
    seg = ConvexBody.cube(1.0, 1)
    cfg = OptimizerConfig(restarts=2, iterations=300, seed=3)
    out = optimize_full(1.0, 2.0, DifferentialOperator.monomial((1,)), 8.0,
                        seg, cfg)
    assert out.estimate.value == 0.18481710969775553
    assert [(s.reason, s.steps) for s in out.ascent_stops] == \
        [("no-ascent", 151), ("cap", 300)]


def test_optimizer_reaches_fejer_kernel_on_the_square():
    # the tensor Fejer kernel of degree floor(a) attains
    # ((floor(a) + 1) / (2 pi a))^2 for ||T||_inf / ||T||_1 on the square;
    # finite-p values are still scored on the coarse grid (ROADMAP Open
    # item 1), so they carry its overshoot
    a = 32.0
    est = optimize_full(1.0, math.inf, DifferentialOperator.identity(2), a,
                        ConvexBody.cube(1.0, 2),
                        OptimizerConfig(restarts=2, seed=11)).estimate
    assert est.value >= ((math.floor(a) + 1) / (2 * math.pi * a)) ** 2


def test_ascent_stops_on_gtol_for_one_frequency():
    # one frequency: the ratio is constant on the sphere, its gradient zero
    seg = ConvexBody.cube(1.0, 1)
    cfg = OptimizerConfig(restarts=1, iterations=50, seed=0)
    for p in (1.0, math.inf):
        out = optimize_full(p, math.inf, DifferentialOperator.identity(1),
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
        stops += optimize_full(p, q, op, a, seg, cfg).ascent_stops
    assert {s.reason for s in stops} == {"gtol", "no-ascent", "cap"}
    for s in stops:
        assert math.isfinite(s.value) and s.value > 0
        assert (s.reason == "gtol") == \
            (s.grad_norm < cfg.gtol * (1.0 + abs(s.value)))


def _counted(prob, name, calls):
    method = getattr(prob, name)

    def wrapper(*args):
        calls[name] += 1
        return method(*args)
    setattr(prob, name, wrapper)


def test_ascent_computes_gradients_only_at_accepted_points():
    spectrum = ConvexBody.cube(1.0, 1).lattice_points(8.0)
    prob = _Problem(spectrum, _shape_for(spectrum, 4))
    calls = {"synth": 0, "analyze": 0}
    for name in calls:
        _counted(prob, name, calls)
    d = DifferentialOperator.identity(1).symbol_at_ik(
        spectrum.as_array().astype(float))
    obj = _make_objective(prob, d, 1.0, math.inf, temperature=None)
    z = np.random.default_rng(0).standard_normal((prob.n, 2))
    _, (reason, steps, evaluations) = _ascend(
        obj, z[:, 0] + 1j * z[:, 1], OptimizerConfig(iterations=50), None)
    assert (reason, steps) == ("cap", 50)
    # one gradient at the start and one per accepted step
    assert calls["analyze"] == 51
    assert calls["synth"] == evaluations > 51


def _hermitian_with_spectrum(lam, rng, neg):
    """Q diag(lam) Q^H for a random unitary Q; with ``neg``, Q's columns are
    conjugate-symmetric (v[neg] = conj(v)), so the top eigenvalue is also
    the maximum over the conjugate-symmetric sphere."""
    n = len(lam)
    if neg is None:
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)) +
                            1j * rng.standard_normal((n, n)))
    else:
        # a unitary basis of conjugate-symmetric vectors, rotated at random
        U = np.zeros((n, n), dtype=complex)
        for k in range(n // 2):
            U[[k, n - 1 - k], 2 * k] = 1.0 / math.sqrt(2.0)
            U[[k, n - 1 - k], 2 * k + 1] = np.array([1j, -1j]) / math.sqrt(2.0)
        U[n // 2, n - 1] = 1.0
        Q = U @ np.linalg.qr(rng.standard_normal((n, n)))[0]
    A = (Q * lam) @ Q.conj().T
    return 0.5 * (A + A.conj().T)


@pytest.mark.parametrize("n, real", [(40, False), (41, True)])
def test_ascent_direction_on_rayleigh_quotient(n, real):
    # Re<c, A c> on the unit sphere peaks at the top eigenvalue 3; the rest
    # of the spectrum fills [1, 2.9], where steepest ascent takes over 50
    # steps to reach the tolerance
    rng = np.random.default_rng(1)
    neg = np.arange(n)[::-1] if real else None
    A = _hermitian_with_spectrum(
        np.append(np.linspace(1.0, 2.9, n - 1), 3.0), rng, neg)
    points = []

    def at(c):
        points.append(c)
        Ac = A @ c
        F = float(np.real(np.vdot(c, Ac)))
        return F, lambda: 2.0 * Ac / F     # gradient of log F
    z = rng.standard_normal((n, 2))
    cfg = OptimizerConfig(iterations=400, gtol=1e-5)
    (c, value, grad_norm), (reason, steps, evaluations) = _ascend(
        _Objective(at), z[:, 0] + 1j * z[:, 1], cfg, neg)
    assert reason == "gtol" and grad_norm < cfg.gtol * (1.0 + value)
    assert steps < 0.75 * n
    assert value == pytest.approx(3.0, abs=1e-7)
    assert evaluations == len(points)
    for x in points:
        assert abs(np.linalg.norm(x) - 1.0) < 1e-14
        if real:
            assert np.array_equal(x[neg], np.conj(x))


def _log_gradient_mismatch(prob, d, p, q, temperature, rng):
    """Relative gap between the gradient of log F along a random unit
    direction and its central finite difference."""
    obj = _make_objective(prob, d, p, q, temperature)
    z = rng.standard_normal((prob.n, 4))
    c = z[:, 0] + 1j * z[:, 1]
    c /= np.linalg.norm(c)
    v = z[:, 2] + 1j * z[:, 3]
    v /= np.linalg.norm(v)
    _, g = obj.value_grad(c)
    h = 1e-6
    fd = (math.log(obj.value(c + h * v)) -
          math.log(obj.value(c - h * v))) / (2 * h)
    an = float(np.real(np.vdot(g, v)))
    return abs(fd - an) / max(abs(fd), 1e-12)


@pytest.mark.parametrize("spec, m, op, a", [
    ("cube:1", 1, DifferentialOperator.monomial((1,)), 3.0),
    ("ball:1", 2, DifferentialOperator.laplacian(2), 3.0)])
def test_soft_max_and_sup_gradients_match_finite_differences(spec, m, op, a):
    spectrum = parse_body(spec, m).lattice_points(a)
    d = op.symbol_at_ik(spectrum.as_array().astype(float))
    rng = np.random.default_rng(13)
    soft = _Problem(spectrum, _shape_for(spectrum, 8))
    coarse = _Problem(spectrum, _shape_for(spectrum, 4))
    worst = max([_log_gradient_mismatch(soft, d, math.inf, math.inf, t, rng)
                 for t in (10.0, 1e3) for _ in range(3)] +
                [_log_gradient_mismatch(coarse, d, 1.0, math.inf, None, rng)
                 for _ in range(3)])
    assert worst <= 1e-5


def test_derived_function_envelope_covers_diagonal_ray():
    # the product envelope is fitted on the axes; for the square's Laplacian
    # extremal it fell short on the diagonal ray that verify_decay samples
    lap = DifferentialOperator.laplacian(2)
    g = derived_function(cs_extremal(ConvexBody.cube(1.0, 2), lap), lap)
    assert g.decay.kind == "product"
    g.verify_decay(tolerance=0.0)


def test_optimizer_concurrent_restarts_deterministic(monkeypatch):
    seg = ConvexBody.cube(1.0, 1)
    op = DifferentialOperator.monomial((1,))
    cfg = OptimizerConfig(restarts=4, iterations=100, seed=21)
    serial = optimize_full(1.0, math.inf, op, 2.0, seg, cfg).estimate
    monkeypatch.setenv("BNSHARP_WORKERS", "3")
    threaded = optimize_full(1.0, math.inf, op, 2.0, seg, cfg).estimate
    assert serial.value == threaded.value  # bitwise


def test_candidate_akhiezer_tensor_approaches_exact():
    sigma = (1.0, 2.0)
    op = DifferentialOperator.monomial((1, 1))
    vals = []
    for h in (0.1, 0.05):
        F = tensor_product([akhiezer_family(s, 2.0, h * s, s=1)
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
    assert abs(ls.extrapolated - ls.reference.value) < 5e-4
    with pytest.raises(ValueError):
        limit_study(2.0, math.inf, ident, seg, [4.0, 4.0])


def test_limit_study_two_two_lattice_max():
    body = ConvexBody.ball(1.0, 2)
    op = DifferentialOperator.partial(2, 0)
    ls = limit_study(2.0, 2.0, op, body, [5.0, 10.0, 20.0])
    assert ls.rows[-1].value == pytest.approx(1.0)
    assert ls.reference.value == pytest.approx(1.0, rel=1e-8)


def test_limit_study_same_exponent_reference():
    # the box-monomial continuum sigma^alpha, where the sweep reaches it
    seg = ConvexBody.cube(1.0, 1)
    d1 = DifferentialOperator.monomial((1,))
    cfg = OptimizerConfig(restarts=1, iterations=20, seed=0)
    assert limit_study(3.0, 3.0, d1, seg, [2.0, 3.0],
                       cfg).reference.value == 1.0
    assert limit_study(3.0, 3.0, d1, seg, [0.5], cfg).reference is None


def test_order_consistency_checker():
    seg = ConvexBody.cube(1.0, 2)
    ident = DifferentialOperator.identity(2)
    ests = [closed_e2_inf(seg, ident), nikolskii_upper(2.0, math.inf, seg),
            crude_upper(2.0, math.inf, ident, seg)]
    check_order_consistency(ests)
    from bnsharp.constants import SharpConstantEstimate
    bogus = SharpConstantEstimate(10.0, "lower-bound-candidate", 2.0,
                                  math.inf, "identity", seg.label, None, 0.0)
    with pytest.raises(AssertionError):
        check_order_consistency(ests + [bogus])


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
