"""Acceptance suite: one test per criterion, one printed verdict line each.

Each test prints ``ACCEPTANCE <n> PASS/FAIL: <evidence>`` before asserting,
so the verdict survives in the captured output either way.  Tolerances are
pinned here, not deferred.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import linprog

from bnsharp.bandlimited import (akhiezer_family, cos_product, cs_extremal,
                                 poisson_window_sum, sinc_sq_half_kernel,
                                 tensor_product)
from bnsharp.body import ConvexBody
from bnsharp.constants import (OptimizerConfig, TWO_PI, bernstein_pq,
                               candidate_lower_bound_E,
                               check_order_consistency, closed_e2_inf,
                               closed_e22, closed_p2_inf, closed_p22,
                               crude_upper, nikolskii_upper,
                               optimize_ascent, optimize_full,
                               _make_objective)
from bnsharp.levitan import (check_norm_contraction, levitan_evaluate)
from bnsharp.trigpoly import (DifferentialOperator, SamplingGrid,
                              apply_operator, default_grid)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")


IDENT1 = DifferentialOperator.identity(1)
SEG = ConvexBody.cube(1.0, 1)
INV_SQRT_PI = 1.0 / math.sqrt(math.pi)


def test_01_closed_form_riemann_agreement():
    t0 = time.perf_counter()
    p100 = closed_p2_inf(SEG, IDENT1, 100.0).value
    p10 = closed_p2_inf(SEG, IDENT1, 10.0).value
    err100 = abs(p100 - INV_SQRT_PI) / INV_SQRT_PI
    err10 = abs(p10 - INV_SQRT_PI) / INV_SQRT_PI
    dt = time.perf_counter() - t0
    ok = err100 < 0.02 and err100 < err10 and dt < 1.0
    report(1, ok, f"err(a=100)={err100:.4f} err(a=10)={err10:.4f} "
                  f"runtime={dt:.3f}s")
    assert err100 < 0.02
    assert err100 < err10
    assert dt < 1.0


def _random_instance(rng):
    m = int(rng.integers(1, 3))
    kind = rng.integers(0, 4)
    sigma = rng.uniform(0.6, 2.0, size=m)
    if kind == 0:
        body = ConvexBody.parallelepiped(sigma)
    elif kind == 1:
        body = ConvexBody.cube(float(sigma[0]), m)
    elif kind == 2:
        body = ConvexBody.ball(float(sigma[0]), m)
    else:
        body = ConvexBody.lp_ellipsoid(sigma, float(rng.uniform(1.2, 4.0)))
    order = int(rng.integers(0, 3))
    if order == 0:
        op = DifferentialOperator.identity(m)
    elif order == 2 and m == 2 and rng.integers(0, 2):
        op = DifferentialOperator.laplacian(m)
    else:
        alpha = np.zeros(m, dtype=int)
        for _ in range(order):
            alpha[rng.integers(0, m)] += 1
        op = DifferentialOperator.monomial(tuple(alpha))
    a = float(rng.uniform(0.8, 4.0))
    return body, op, a


def test_02_optimizer_oracle_equivalence():
    # optimize_full answers (2, inf) by its closed form, so the ascent meets
    # that oracle directly
    t0 = time.perf_counter()
    est = optimize_ascent(
        2.0, math.inf, IDENT1, 1.0, SEG,
        OptimizerConfig(restarts=4, iterations=250, seed=0)).estimate
    err = abs(est.value - 0.690988)
    rng = np.random.default_rng(2024)
    exact_matches = 0
    for _ in range(10):
        body, op, a = _random_instance(rng)
        got = optimize_full(2.0, 2.0, op, a, body).estimate
        want = closed_p22(body, op, a)
        exact_matches += got.value == want.value
    dt = time.perf_counter() - t0
    ok = err <= 1e-4 and exact_matches == 10 and dt < 60.0
    report(2, ok, f"(2,inf) err={err:.2e}; (2,2) exact {exact_matches}/10; "
                  f"runtime={dt:.1f}s")
    assert err <= 1e-4
    assert exact_matches == 10
    assert dt < 60.0


def test_03_same_exponent_bracket():
    body = ConvexBody.parallelepiped([1.0, 2.0])
    alpha = (1, 1)
    op = DifferentialOperator.monomial(alpha)
    widths = []
    oks = []
    for a in (3.0, 6.0, 12.0):
        br = bernstein_pq(body, alpha, a)
        est = optimize_full(2.0, 2.0, op, a, body).estimate
        lo, hi = br.periodic_lower.value, br.periodic_upper.value
        oks.append(lo / (1 + 1e-6) <= est.value <= hi * (1 + 1e-6))
        widths.append(br.width)
    ok = all(oks) and widths[-1] <= widths[0] + 1e-15
    report(3, ok, f"brackets hit={oks} widths={widths}")
    assert all(oks)
    assert widths[-1] <= widths[0] + 1e-15


def test_04_cosine_product_ratio_exact(grid_norm):
    cases = [(1.0, (2.0, 3.0), (1, 1)), (2.5, (1.0, 2.0), (1, 1)),
             (10.0, (1.0,), (2,))]
    worst = 0.0
    for a, sigma, alpha in cases:
        T = cos_product(a, sigma)
        DT = apply_operator(DifferentialOperator.monomial(alpha), T)
        n = [math.floor(a * s) for s in sigma]
        target = math.prod(v ** al for v, al in zip(n, alpha))
        L = tuple(4 * v * max(1, math.ceil((2 * v + 1) / (4 * v))) * 2
                  for v in n)
        for q in (0.5, 1.0, 2.0, math.inf):
            num = grid_norm(DT, q, L)
            den = grid_norm(T, q, L)
            worst = max(worst, abs(num / den - target) / target)
    ok = worst <= 1e-8
    report(4, ok, f"worst relative ratio error {worst:.2e}")
    assert worst <= 1e-8


def test_05_poisson_identity_certificate():
    t0 = time.perf_counter()
    rng = np.random.default_rng(55)
    worst_excess = -math.inf
    max_bound = 0.0
    K1 = 420000
    for _ in range(100):
        x = rng.uniform(-3 * math.pi, 3 * math.pi, size=(1, 1))
        v, b = poisson_window_sum(x, K1)
        worst_excess = max(worst_excess, float((abs(v - 1) - b).max()))
        max_bound = max(max_bound, float(b.max()))
    K2 = 840000
    for _ in range(20):
        x = rng.uniform(-3 * math.pi, 3 * math.pi, size=(1, 2))
        v, b = poisson_window_sum(x, K2)
        worst_excess = max(worst_excess, float((abs(v - 1) - b).max()))
        max_bound = max(max_bound, float(b.max()))
    dt = time.perf_counter() - t0
    ok = worst_excess <= 1e-12 and max_bound <= 1e-6 and dt < 5.0
    report(5, ok, f"max bound {max_bound:.2e}, worst |sum-1|-bound "
                  f"{worst_excess:.2e}, runtime {dt:.2f}s")
    assert worst_excess <= 1e-12
    assert max_bound <= 1e-6
    assert dt < 5.0


def _contraction_family():
    yield "window m=1", sinc_sq_half_kernel(1)
    yield "akhiezer tensor m=2", tensor_product(
        [akhiezer_family(1.0, 0.5, 0.1), akhiezer_family(1.0, 0.5, 0.1)])
    yield "cs m=1", cs_extremal(SEG, IDENT1)


def test_06_levitan_contraction_matrix():
    failures = []
    cells = 0
    for name, f in _contraction_family():
        for a in (2.0, 4.0, 8.0):
            for p in (0.5, 1.0, 2.0, math.inf):
                rep = check_norm_contraction(f, a, p)
                cells += 1
                if not rep.passed:
                    failures.append((name, a, p, rep.slack, rep.certificate))
    ok = not failures
    report(6, ok, f"{cells} cells checked, failures={failures}")
    assert not failures


def test_07_levitan_pointwise_bound_and_rate():
    f = sinc_sq_half_kernel(1)
    rng = np.random.default_rng(7)
    worst = -math.inf
    for a in (4.0, 8.0, 16.0):
        xs = rng.uniform(-a / 2, a / 2, size=(200, 1))
        s = levitan_evaluate(f, a, xs, eps=1e-12)
        err = np.abs(f(xs) - s)
        bound = (np.abs(xs[:, 0]) / a) ** 2 / 6.0
        worst = max(worst, float((err - bound).max()))
    x0 = np.array([[1.0]])
    a_values = np.array([4.0, 8.0, 16.0, 32.0])
    errs = [abs(levitan_evaluate(f, a, x0, eps=1e-13)[0] - f(x0)[0])
            for a in a_values]
    slope = float(np.polyfit(np.log(a_values), np.log(errs), 1)[0])
    ok = worst <= 1e-12 and abs(slope + 2.0) <= 0.3
    report(7, ok, f"worst bound excess {worst:.2e}, log-log slope "
                  f"{slope:.3f}")
    assert worst <= 1e-12
    assert abs(slope + 2.0) <= 0.3


def test_08_cs_extremal_matches_closed_form():
    cases = [
        (ConvexBody.cube(1.0, 1), DifferentialOperator.identity(1), 2e4),
        (ConvexBody.ball(1.0, 1), DifferentialOperator.identity(1), 2e4),
        (ConvexBody.cube(1.0, 2), DifferentialOperator.identity(2), 2e4),
        (ConvexBody.cube(1.0, 2), DifferentialOperator.partial(2, 0), 2e4),
    ]
    rels = []
    for body, op, R in cases:
        f = cs_extremal(body, op)
        cand = candidate_lower_bound_E(f, 2.0, math.inf, op, R=R)
        ref = closed_e2_inf(body, op)
        rels.append(abs(cand.value - ref.value) / ref.value)
    ok = max(rels) <= 1e-4
    report(8, ok, "relative errors " +
           " ".join(f"{r:.1e}" for r in rels))
    assert max(rels) <= 1e-4


def test_09_nikolskii_coincidence_at_two():
    bodies = [ConvexBody.cube(1.0, 2), ConvexBody.ball(1.0, 2),
              ConvexBody.parallelepiped([1.0, 2.0]),
              ConvexBody.lp_ellipsoid([1.0, 2.0], 3.0),
              ConvexBody.ball(2.0, 3)]
    rels = []
    for body in bodies:
        up = nikolskii_upper(2.0, math.inf, body).value
        ref = closed_e2_inf(body,
                            DifferentialOperator.identity(body.m)).value
        rels.append(abs(up - ref) / ref)
    ok = max(rels) <= 1e-10
    report(9, ok, "relative gaps " + " ".join(f"{r:.1e}" for r in rels))
    assert max(rels) <= 1e-10


def test_10_gradient_check_finite_differences():
    rng = np.random.default_rng(10)
    worst = 0.0
    checks = 0
    pq_pool = [(1.0, 2.0), (1.5, 3.0), (2.0, 4.0), (0.8, 1.7), (3.0, 3.0)]
    while checks < 20:
        p, q = pq_pool[checks % len(pq_pool)]
        body = ConvexBody.cube(1.0, 1)
        a = float(rng.uniform(1.0, 3.0))
        keys = body.lattice_points(a)
        op = DifferentialOperator.monomial((1,))
        prob = SamplingGrid(keys, default_grid(np.abs(keys).max(axis=0), 4))
        d = op.symbol_at_ik(keys.astype(float))
        at = _make_objective(prob, d, p, q, temperature=None)
        z = rng.standard_normal((len(keys), 2))
        c = z[:, 0] + 1j * z[:, 1]
        c /= np.linalg.norm(c)
        g = at(c)[1]()                 # the gradient of log F
        v = rng.standard_normal((len(keys), 2))
        v = (v[:, 0] + 1j * v[:, 1])
        v /= np.linalg.norm(v)
        h = 1e-6
        Fp = at(c + h * v)[0]
        Fm = at(c - h * v)[0]
        fd = (math.log(Fp) - math.log(Fm)) / (2 * h)
        an = float(np.real(np.vdot(g, v)))
        worst = max(worst, abs(fd - an) / max(abs(fd), 1e-12))
        checks += 1
    ok = worst <= 1e-5
    report(10, ok, f"worst directional-derivative mismatch {worst:.2e} "
                   f"over {checks} points")
    assert worst <= 1e-5


def test_11_sup_metric_limit_trend():
    cfg = OptimizerConfig(restarts=6, iterations=400, seed=11)
    failures = []
    for p in (1.0, 4.0):
        for N in (0, 1):
            op = IDENT1 if N == 0 else DifferentialOperator.monomial((1,))
            values = {}
            for a in (2.0, 4.0, 8.0, 16.0, 32.0):
                values[a] = optimize_full(
                    p, math.inf, op, a, SEG, cfg).estimate.value
            stab_late = abs(values[32.0] - values[16.0])
            stab_early = abs(values[8.0] - values[4.0])
            cands = []
            f_ak = akhiezer_family(1.0, p, 0.02)
            cands.append(candidate_lower_bound_E(
                f_ak, p, math.inf, op, R=3000.0).value)
            if p > 1.0:
                f_cs = cs_extremal(SEG, op)
                cands.append(candidate_lower_bound_E(
                    f_cs, p, math.inf, op, R=8000.0).value)
            best = max(cands)
            if not (stab_late < stab_early):
                failures.append((p, N, "stabilization", stab_early,
                                 stab_late))
            if not (best <= values[32.0] + 1e-3):
                failures.append((p, N, "candidate-exceeds", best,
                                 values[32.0]))
    ok = not failures
    report(11, ok, f"failures={failures}")
    assert not failures


def _dual_upper_sup_sup(op, body, a):
    """Certified upper bound on the sup/sup periodic constant P(a), by LP
    duality.

    A real measure mu on a 64^m grid in Q_pi whose Fourier coefficients
    equal the multiplier on S = aV ∩ Z^m gives D T = mu * T for every T with
    spectrum in S.  With the residual r_k = mu^(k) - multiplier(k) and
    |c_k| <= ||T||_inf this yields
    ||D T||_inf <= (||mu||_TV + sum_k |r_k|) ||T||_inf for every feasible
    point, so the bound holds whatever the LP solver's accuracy.
    """
    nodes = 64
    k = body.lattice_points(a)
    # mu is real, so the coefficient at -k is the conjugate of the one at k
    half = k[[tuple(r) >= tuple(-r) for r in k]]
    axis = -math.pi + TWO_PI * np.arange(nodes) / nodes
    y = np.stack([g.ravel() for g in
                  np.meshgrid(*[axis] * body.m, indexing="ij")], axis=-1)
    phase = half @ y.T
    target = op.symbol_at_ik(half)
    rows = np.vstack([np.cos(phase), -np.sin(phase)])
    n = y.shape[0]
    res = linprog(np.ones(2 * n), A_eq=np.hstack([rows, -rows]),
                  b_eq=np.concatenate([target.real, target.imag]),
                  bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    mu = res.x[:n] - res.x[n:]
    residual = np.exp(-1j * (k @ y.T)) @ mu - op.symbol_at_ik(k)
    total = np.abs(mu).sum() + np.abs(residual).sum()
    return float(a ** (-op.order) * total)


@pytest.mark.slow
def test_12_sup_sup_laplacian_ball_probe():
    # crude_upper gives the upper bound m*M^2 = 2 for this problem; the
    # paper does not say whether lim P equals that value.  P(a) at a finite
    # scale can sit well below the limit: the LP dual certificate puts
    # P(4) <= 1.416, under the band's lower edge, so that edge applies only
    # at a = 8 and 16.  The optimizer brackets each P(a) by its exchange
    # LP: a certified lower value and a dual upper bound, which must lie
    # within the independent 64^m-grid certificate at a = 4 and 8.  Each
    # lower value must be at least the soft-max ladder's (6 restarts,
    # seed 12).
    t0 = time.perf_counter()
    body = ConvexBody.ball(1.0, 2)
    lap = DifferentialOperator.laplacian(2)
    cfg = OptimizerConfig(restarts=6, iterations=500, seed=12)
    ladder = {4.0: 1.4059119, 8.0: 1.6607910, 16.0: 1.8172810}
    outs = {a: optimize_full(math.inf, math.inf, lap, a, body, cfg)
            for a in ladder}
    dt = time.perf_counter() - t0
    rows = {a: out.estimate for a, out in outs.items()}
    uppers = {a: out.upper for a, out in outs.items()}
    values = [rows[a].value for a in ladder]
    dual = {a: _dual_upper_sup_sup(lap, body, a) for a in (4.0, 8.0)}
    nondecreasing = all(b >= a - 1e-6 for a, b in zip(values, values[1:]))
    below_edge = all(v <= 2.05 for v in values)
    above_edge = all(rows[a].value >= 1.6 for a in (8.0, 16.0))
    bracketed = all(rows[a].value <= dual[a] for a in dual)
    lp_bracket = all(uppers[a] is not None and
                     rows[a].value <= uppers[a].value for a in ladder)
    above_ladder = all(rows[a].value >= ladder[a] for a in ladder)
    within_dual = lp_bracket and all(uppers[a].value <= dual[a]
                                     for a in dual)
    ok = (nondecreasing and below_edge and above_edge and bracketed
          and lp_bracket and above_ladder and within_dual and dt < 600.0)
    report(12, ok, f"values={[round(v, 4) for v in values]} "
                   f"lp_upper={[round(u.value, 4) for u in uppers.values()]} "
                   f"dual_upper(a=4,8)={[round(d, 4) for d in dual.values()]} "
                   f"nondecreasing={nondecreasing} v<=2.05={below_edge} "
                   f"v>=1.6(a=8,16)={above_edge} runtime={dt:.0f}s")
    assert nondecreasing
    assert dt < 600.0
    assert below_edge
    # the certificate is what excludes the lower edge at a = 4
    assert dual[4.0] < 1.6
    assert above_edge, "lattice value below 1.6 at a = 8 or 16"
    assert lp_bracket, "no LP bracket, or a lower value above its upper"
    assert above_ladder, "a lower value below the soft-max ladder's"
    assert within_dual, "an LP upper bound above the 64^m certificate"
    for a, bound in dual.items():
        check_order_consistency([rows[a], uppers[a], replace(
            rows[a], value=bound, kind="upper-bound", tolerance=1e-12,
            notes="LP dual certificate")])


def test_13_scaling_law_closed_forms_and_candidates():
    worst = 0.0
    lap = DifferentialOperator.laplacian(2)
    ball = ConvexBody.ball(1.0, 2)
    for gamma in (0.5, 2.0):
        # (2, inf): exponent N + m/2
        base = closed_e2_inf(ball, lap).value
        got = closed_e2_inf(ball.scaled(gamma), lap).value
        worst = max(worst, abs(got - base * gamma ** 3.0) / got)
        # (2, 2): exponent N
        base = closed_e22(ball, lap).value
        got = closed_e22(ball.scaled(gamma), lap).value
        worst = max(worst, abs(got - base * gamma ** 2.0) / got)
        # metric-change upper bound at (1, 3): exponent m(1/p - 1/q)
        base = nikolskii_upper(1.0, 3.0, ball).value
        got = nikolskii_upper(1.0, 3.0, ball.scaled(gamma)).value
        worst = max(worst, abs(got - base * gamma ** (2 * (1 - 1 / 3.0)))
                    / got)
    # numeric candidate with scale-covariant truncation
    op = DifferentialOperator.partial(1, 0)
    f1 = cs_extremal(SEG, op)
    c1 = candidate_lower_bound_E(f1, 2.0, math.inf, op, R=8000.0).value
    for gamma in (0.5, 2.0):
        fg = cs_extremal(SEG.scaled(gamma), op)
        cg = candidate_lower_bound_E(fg, 2.0, math.inf, op,
                                     R=8000.0 / gamma).value
        worst = max(worst, abs(cg - c1 * gamma ** 1.5) / cg)
    ok = worst <= 1e-8
    report(13, ok, f"worst relative covariance defect {worst:.2e}")
    assert worst <= 1e-8
