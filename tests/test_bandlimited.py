import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import beta as beta_fn, roots_legendre

from bnsharp.bandlimited import (BandLimitedFunction, DecayModel,
                                 NonIntegrableTailError, akhiezer_family,
                                 cos_product, cs_extremal, derived_function,
                                 norm_lp_truncated, poisson_window_sum,
                                 sinc_kernel, sinc_sq_half_kernel,
                                 tensor_product, union_tail,
                                 window_axis_sum, window_terms, _moments,
                                 _pairwise_sum, _PAIRWISE_LEAF)
from bnsharp.body import ConvexBody, parse_body
from bnsharp.cli import operator_parse
from bnsharp.trigpoly import (DifferentialOperator, apply_operator,
                              bernstein_gap)


def test_sinc_values():
    h = sinc_kernel(2)
    assert h(np.array([[0.0, 0.0]]))[0] == pytest.approx(1.0)
    assert abs(h(np.array([[math.pi, math.pi]]))[0]) < 1e-15
    h1 = sinc_kernel(1)
    x = np.array([[0.5], [1.7], [-3.0]])
    assert np.allclose(h1(x), np.sin(x[:, 0]) / x[:, 0])


def _sinc_prime(y):
    return (y * np.cos(y) - np.sin(y)) / y ** 2


def test_sinc_partials_match_closed_forms():
    # the kernels differentiate through 1/2 int_{-1}^{1} (ix)^r e^{iyx} dx,
    # a power series for |y| <= 4 and a recurrence beyond; both hold to
    # rounding
    y = np.linspace(-40.0, 40.0, 800)      # even count: 0 is not a node
    h = sinc_kernel(1)
    got = h.derivative((1,))(y[:, None])
    assert np.all(got.imag == 0)
    assert np.abs(got.real - _sinc_prime(y)).max() < 1e-14
    assert h.derivative((2,))(np.zeros((1, 1)))[0].real == \
        pytest.approx(-1.0 / 3.0, rel=1e-14)
    # the window w(x) = h(x/2)^2: w' = h(x/2) h'(x/2) and w''(0) = -1/6
    w = sinc_sq_half_kernel(1)
    ref = np.sin(y / 2) / (y / 2) * _sinc_prime(y / 2)
    assert np.abs(w.derivative((1,))(y[:, None]) - ref).max() < 1e-14
    assert w.derivative((2,))(np.zeros((1, 1)))[0].real == \
        pytest.approx(-1.0 / 6.0, rel=1e-14)
    # a tensor kernel keeps its partials on its univariate atoms
    for kernel in (sinc_kernel, sinc_sq_half_kernel):
        assert all(g.partials is not None
                   for _, atoms in kernel(2).terms for g in atoms)


def test_poisson_window_sum_converges_to_one():
    rng = np.random.default_rng(1)
    x = rng.uniform(-3 * math.pi, 3 * math.pi, size=(20, 1))
    prev = None
    for K in (50, 200, 800):
        v, b = poisson_window_sum(x, K)
        err = np.abs(v - 1.0).max()
        assert err <= b.max() * (1 + 1e-9)
        if prev is not None:
            assert err < prev
        prev = err


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_union_tail_bounds_what_a_product_loses_outside_a_box(m):
    # prod_j (in_j + out_j) - prod_j in_j <= sum_j out_j prod_{i!=j} total_i
    rng = np.random.default_rng(m)
    inside = rng.uniform(0.0, 2.0, (m, 200)) * (rng.random((m, 200)) > 0.1)
    outside = rng.exponential(1.0, (m, 200)) * (rng.random((m, 200)) > 0.2)
    total = inside + outside
    lost = np.prod(total, axis=0) - np.prod(inside, axis=0)
    as_floats = [union_tail([float(t) for t in outside[:, n]],
                            [float(T) for T in total[:, n]])
                 for n in range(200)]
    as_array = union_tail(list(outside), list(total))
    assert np.array_equal(as_array, as_floats)
    assert np.all(lost <= as_array * (1.0 + 1e-12))
    if m == 1:
        assert np.array_equal(as_array, outside[0])
        assert all(union_tail([t], [T]) == t
                   for t, T in zip(outside[0], total[0]))


def test_poisson_window_sum_multivariate():
    rng = np.random.default_rng(2)
    x = rng.uniform(-3 * math.pi, 3 * math.pi, size=(10, 2))
    v, b = poisson_window_sum(x, 500)
    assert np.all(np.abs(v - 1.0) <= b * (1 + 1e-9))
    assert b.max() < 1e-2


def test_window_axis_sum_exact_identity_point():
    # at theta = 0 only l = 0 contributes and the sum is exactly 1
    v, b = window_axis_sum(np.array([0.0]), 10)
    assert v[0] == pytest.approx(1.0, abs=1e-30)


_LEAF_EDGE_K = 840000


def _materialized_window_sum(theta, K):
    """window_terms(theta, K).sum(axis=-1) with every term held at once,
    one point at a time to keep the reference small."""
    return np.array([window_terms(t, K).sum() for t in theta.ravel()]
                    ).reshape(theta.shape)


@pytest.mark.parametrize("K", [10, 500, _LEAF_EDGE_K])
def test_streamed_window_sum_equals_the_materialized_sum_bitwise(K):
    # the block-by-block sum in numpy's pairwise order is the materialized
    # window_terms(theta, K).sum(axis=-1), byte for byte
    pi = math.pi
    thetas = [0.0, pi / 2, -pi / 2, pi, -pi, 3 * pi, -3 * pi, 0.3, -2.1]
    if K == _LEAF_EDGE_K:
        # numpy's split of the 2K + 1 terms: the first leaf holds columns
        # 0..edge-1; put nearest-l terms on both sides of that block edge
        edge = 2 * K + 1
        while edge > _PAIRWISE_LEAF:
            edge //= 2
            edge -= edge % 8
        assert edge == 26248
        l_edge = edge - K  # the shift of column edge
        thetas += [-l_edge * pi, -(l_edge - 1) * pi - 0.1]
        assert np.array_equal(np.rint(-np.array(thetas[-2:]) / pi),
                              [l_edge, l_edge - 1])
    theta = np.array(thetas)
    got, _ = window_axis_sum(theta, K)
    assert got.tobytes() == _materialized_window_sum(theta, K).tobytes()
    for t in thetas[:3]:  # a 0-d argument
        one, _ = window_axis_sum(np.array(t), K)
        assert one.tobytes() == window_terms(t, K).sum().tobytes()
    # poisson_window_sum: both axes of (n, 2) points in one pass
    x = np.random.default_rng(K).uniform(-3 * pi, 3 * pi, (4, 2))
    x[0] = (0.0, 2 * pi)
    v, b = poisson_window_sum(x, K)
    axes = _materialized_window_sum(x / 2.0, K)
    assert v.tobytes() == (axes[:, 0] * axes[:, 1]).tobytes()
    assert np.all(np.abs(v - 1.0) <= b * (1 + 1e-9))


def test_window_terms_by_shift_range_are_columns_of_the_full_array():
    # the np.sinc term lands in whichever block holds the nearest shift;
    # a point whose nearest shift lies outside the range keeps the formula
    theta = np.array([0.0, 2.0, -math.pi, 4 * math.pi + 0.2,
                      15 * math.pi, -12 * math.pi])
    full = window_terms(theta, 5)
    for lo, hi in ((-5, -1), (-1, 0), (0, 4), (4, 6)):
        assert window_terms(theta, 5, range(lo, hi)).tobytes() == \
            np.ascontiguousarray(full[:, lo + 5:hi + 5]).tobytes()
    far = theta[4:, None]
    with np.errstate(divide="ignore"):
        formula = np.sin(far) ** 2 / (far + math.pi * np.arange(-5, 6)) ** 2
    assert full[4:].tobytes() == formula.tobytes()
    assert full[0, 5] == 1.0 and full[2, 6] == 1.0  # t + l pi = 0


@pytest.mark.parametrize("n", [_PAIRWISE_LEAF - 1, _PAIRWISE_LEAF,
                               _PAIRWISE_LEAF + 1, 8 * 5000 - 1,
                               8 * 5000 + 1, 8 * 9001 + 1, 1680001])
def test_pairwise_helper_equals_numpy_sum_bitwise(n):
    terms = np.random.default_rng(n).random((4, n))
    got = _pairwise_sum(lambda lo, hi: terms[:, lo:hi].sum(axis=-1), n)
    assert got.tobytes() == terms.sum(axis=-1).tobytes()


def test_poisson_window_sum_streams_in_small_memory():
    # materialized terms would take three (2K + 1)-element arrays per axis
    # (13.4 MB each at K = 840 000); the streamed sum holds a block
    x = np.array([[1.0, -2.5]])
    tracemalloc.start()
    try:
        poisson_window_sum(x, _LEAF_EDGE_K)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_akhiezer_value_at_zero_is_beta():
    for q, d in ((2.0, 1), (1.0, 2), (0.5, 3), (math.inf, 1)):
        f = akhiezer_family(1.0, q, 0.1)
        expect = beta_fn(d + 2, d + 2)
        assert f(np.array([[0.0]]))[0].real == pytest.approx(expect, rel=1e-12)


def test_akhiezer_parameter_validation():
    with pytest.raises(ValueError):
        akhiezer_family(1.0, 2.0, 1.5)
    with pytest.raises(ValueError):
        akhiezer_family(1.0, 2.0, 0.0)


def _ratio_q(f, s, q, R):
    num = norm_lp_truncated(_as_blf(f, f.derivative((s,))), q, R)
    den = norm_lp_truncated(f, q, R)
    return num.value / den.value


def _as_blf(f, ev):
    return BandLimitedFunction(
        m=1, evaluate=ev, spectral_body=f.spectral_body,
        sup_bound=f.sup_bound, decay=f.decay, label="derived")


def test_akhiezer_derivative_ratio_climbs_to_bernstein_constant():
    # M = 1, q = 2, s = 1: the ratio rises toward 1 as the window shrinks
    r1 = _ratio_q(akhiezer_family(1.0, 2.0, 0.1), 1, 2.0, 400.0)
    r2 = _ratio_q(akhiezer_family(1.0, 2.0, 0.05), 1, 2.0, 800.0)
    assert r2 > r1
    assert 0.9 < r1 < 1.0
    assert r2 > 0.97


def test_akhiezer_tensor_realizes_mixed_derivative_ratio():
    # prod_j f_{h, sigma_j}(x_j): the alpha-derivative ratio approaches
    # sigma^alpha from below
    sigma = (2.0, 3.0)
    alpha = (1, 1)
    fs = [akhiezer_family(s, 2.0, 0.05 * s) for s in sigma]
    F = tensor_product(fs)
    blf = tensor_product([_as_blf(f, f.derivative((1,))) for f in fs],
                         label="dF")
    num = norm_lp_truncated(blf, 2.0, 400.0)
    den = norm_lp_truncated(F, 2.0, 400.0)
    ratio = num.value / den.value
    target = sigma[0] ** alpha[0] * sigma[1] ** alpha[1]
    assert ratio < target * (1 + 1e-9)
    assert ratio > 0.94 * target


def test_moment_integral_against_quadrature():
    # the semi-analytic 1-D moment transform is the engine behind the
    # conjugate-symbol extremals; check it against brute quadrature
    # scipy's rule; numpy's leggauss solves an O(n^3) eigenproblem here
    xs, ws = roots_legendre(4000)
    for n in (0, 1, 2, 3):
        for sigma in (1.0, 2.0):
            x = sigma * xs
            w = sigma * ws
            for u in (0.0, 0.3, 5.0, 17.0, 300.5):
                brute = np.sum(w * x ** n * np.exp(1j * u * x))
                mine = _moments(n, sigma, np.array([u]))[n, 0]
                assert mine == pytest.approx(brute, abs=5e-11 * sigma ** n)


def _moment_1d(n, sigma, u):
    """The one-order moment evaluator the engine replaced, kept verbatim as
    the bitwise reference for its rows."""
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


@pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
def test_moment_rows_equal_one_order_evaluations_bitwise(sigma):
    # every row of one engine call rounds as the one-order evaluator did,
    # on both branches and on both sides of the switch |u sigma| = 4
    edge = 4.0 / sigma
    u = np.r_[0.0, -0.0, edge, -edge, np.nextafter(edge, 0.0),
              np.nextafter(edge, np.inf), -np.nextafter(edge, np.inf),
              np.random.default_rng(3).uniform(-3.0 * edge, 3.0 * edge, 400),
              1e-300, 5e3]
    rows = _moments(12, sigma, u)
    assert rows.shape == (13, u.size)
    for k in range(13):
        assert rows[k].tobytes() == _moment_1d(k, sigma, u).tobytes()


def _akhiezer_by_quadrature(M, q, h, r, t, nodes=400):
    """D^r of the Akhiezer member on an independent Gauss-Legendre rule."""
    d = (0 if math.isinf(q) else math.floor(1.0 / q)) + 1
    x, w = np.polynomial.legendre.leggauss(nodes)
    tau = 0.5 * (x + 1.0)
    w = 0.5 * w * (tau * (1.0 - tau)) ** (d + 1)
    acc = 0.0
    for l in range(r + 1):
        psi = np.exp(-1j * np.multiply.outer(h * t, tau)) @ (w * tau ** (r - l))
        acc = acc + (math.comb(r, l) * (-1.0) ** (r - l) * M ** l *
                     h ** (r - l) * psi)
    return (1j ** r) * np.exp(1j * M * t) * acc


@pytest.mark.parametrize("q", [0.5, 1.0, 2.0, math.inf])
@pytest.mark.parametrize("h", [0.1, 0.02])
def test_akhiezer_closed_form_matches_quadrature(q, h):
    # the exact moment transforms agree with a 400-node rule to rounding,
    # on both branches of the engine (|h t / 2| = 4 falls inside the range)
    t = np.r_[np.linspace(-3000.0, 3000.0, 3001), 8.0 / h, -8.0 / h]
    f = akhiezer_family(1.0, q, h)
    for r in range(3):
        ref = _akhiezer_by_quadrature(1.0, q, h, r, t)
        got = f.derivative((r,))(t[:, None])
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


def _l2_by_cubature(f, R, nodes=160):
    """int_{Q_R} |f|^2 on one tensor Gauss-Legendre rule of the cube."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    vals = np.abs(f.eval_axes([R * x] * f.m)) ** 2
    for j in range(f.m):
        shape = [1] * f.m
        shape[j] = nodes
        vals = vals * (R * w).reshape(shape)
    return float(vals.sum())


@pytest.mark.parametrize("body, m, spec", [
    ("ball:1", 2, "identity"),
    ("ball:1", 2, "laplacian:2"),
    ("cube:1", 2, "laplacian:2"),
    ("pi:1,2", 2, "1,0:0,1 + 0,1:1,0"),     # coefficients -1 and -i
])
def test_l2_gram_norms_match_cubature(body, m, spec):
    # p = 2: the disk's weight transforms take the exact Gram form, the
    # two-term box extremals the per-axis Gram matrices of their atoms;
    # both equal an independent tensor cubature of |f|^2
    op = operator_parse(spec, m)
    f = cs_extremal(parse_body(body, m), op)
    assert (f.weights is not None) == (body == "ball:1")
    assert f.terms is None or len(f.terms) == 2
    R = 16.0
    est = norm_lp_truncated(f, 2.0, R)
    ref = _l2_by_cubature(f, R)
    assert est.value ** 2 == pytest.approx(ref, rel=1e-12)
    assert est.error_bound < 1e-9


def test_l2_norm_of_a_three_dimensional_separable_sum():
    # the m = 3 cube Laplacian extremal is a sum of three terms: at the
    # candidates' radius its L2 norm takes per-axis panels, not a tensor
    # cubature of 2264^3 nodes, and brackets the Parseval value
    # (2 pi)^3 int_{[-1,1]^3} |x|^4 dx
    body = ConvexBody.cube(1.0, 3)
    f = cs_extremal(body, DifferentialOperator.laplacian(3))
    est = norm_lp_truncated(f, 2.0, 64.0 * body.diameter())
    parseval = (2.0 * math.pi) ** 3 * (3 * 4 * 0.4 + 6 * 2 * (2.0 / 3.0) ** 2)
    assert est.value ** 2 < parseval < est.upper() ** 2
    assert est.error_bound < 1e-12
    ref = _l2_by_cubature(f, 16.0, nodes=96)
    assert norm_lp_truncated(f, 2.0, 16.0).value ** 2 == pytest.approx(
        ref, rel=1e-12)


def test_cs_extremal_ratio_matches_closed_form_tightly():
    # equality case of the L2 -> sup bound, m = 1: the ratio reproduces
    # the closed form to 1e-6 once the truncation radius is generous
    from bnsharp.constants import candidate_lower_bound_E, closed_e2_inf
    body = ConvexBody.cube(1.0, 1)
    op = DifferentialOperator.identity(1)
    f = cs_extremal(body, op)
    cand = candidate_lower_bound_E(f, 2.0, math.inf, op, R=3.2e5)
    ref = closed_e2_inf(body, op)
    assert cand.value == pytest.approx(ref.value, rel=1e-6)


def test_cs_extremal_hermitian_symmetry():
    f = cs_extremal(ConvexBody.cube(1.0, 2),
                    DifferentialOperator.laplacian(2))
    u = np.array([[0.3, 1.2], [2.0, -0.7]])
    assert np.allclose(f(-u), np.conj(f(u)), atol=1e-12)
    fb = cs_extremal(ConvexBody.ball(1.0, 2),
                     DifferentialOperator.identity(2), freq_budget=64.0)
    assert np.allclose(fb(-u), np.conj(fb(u)), atol=1e-10)


def test_cs_extremal_generic_matches_factored_on_boxes():
    # same body computed through both code paths
    body = ConvexBody.cube(1.0, 2)
    op = DifferentialOperator.identity(2)
    fact = cs_extremal(body, op)
    from bnsharp.bandlimited import _indicator_transform
    gen = _indicator_transform(body, op, freq_budget=64.0,
                               nodes_per_axis=None)
    u = np.array([[0.0, 0.0], [1.5, -2.0], [10.0, 3.3], [40.0, -20.0]])
    assert np.allclose(fact(u), gen(u), rtol=1e-9, atol=1e-9)


def dense_indicator_transform(body, op, G, beta, x):
    """sum over the node grid of W * node^beta * i^|beta| * exp(i x.node),
    with one phase per point and node (the reference for the separable
    evaluator)."""
    nodes, weights = [], []
    for g, s in zip(G, body.sigma):
        t, w = np.polynomial.legendre.leggauss(g)
        nodes.append(s * t)
        weights.append(s * w)
    pts = np.stack([g.ravel() for g in np.meshgrid(*nodes, indexing="ij")],
                   axis=-1)
    wts = np.prod([g.ravel() for g in np.meshgrid(*weights, indexing="ij")],
                  axis=0)
    W = (wts * body.contains(pts) * np.conj(op.symbol_at_ik(pts)) *
         np.prod(pts ** np.asarray(beta), axis=-1) * 1j ** sum(beta))
    return np.exp(1j * (x @ pts.T)) @ W


@pytest.mark.parametrize("body, op, budget, G, beta, n_points", [
    # unequal grids: G_j = ceil(0.8 * sigma_j * 16) + 64
    (ConvexBody.lp_ellipsoid([1.0, 2.0], 3.0),
     DifferentialOperator.monomial((1, 0)), 16.0, (77, 90), (0, 1), 40),
    # 2700 points span two chunks of 2^22 // 40^2 = 2621
    (ConvexBody.ball(1.0, 3), DifferentialOperator.laplacian(3), None,
     (40, 40, 40), (1, 0, 1), 2700),
])
def test_indicator_transform_matches_dense_phase_sum(body, op, budget, G,
                                                     beta, n_points):
    from bnsharp.bandlimited import _indicator_transform
    f = _indicator_transform(body, op, budget or 0.0,
                             None if budget else G[0])
    x = np.random.default_rng(7).uniform(-6.0, 6.0,
                                         size=(n_points, body.m))
    rows = np.r_[0:20, 2611:2631]
    rows = rows[rows < n_points]
    for alpha in ((0,) * body.m, beta):
        got = derived_function(f, DifferentialOperator.monomial(alpha)
                               ).evaluate(x)[rows]
        ref = dense_indicator_transform(body, op, G, alpha, x[rows])
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
    assert f.evaluate(x[0]).shape == ()
    assert f.evaluate(x[:1]).shape == ()
    # D f multiplies the weights by the symbol: sum_alpha b_alpha times the
    # alpha-weighted phase sum, pointwise and on a small tensor grid
    g = derived_function(f, op)
    axes = [x[:3, j] for j in range(body.m)]
    grid = np.stack([t.ravel() for t in np.meshgrid(*axes, indexing="ij")],
                    axis=-1)
    for got, pts in ((g.evaluate(x)[rows], x[rows]),
                     (g.eval_axes(axes).ravel(), grid)):
        ref = sum(b * dense_indicator_transform(body, op, G, alpha, pts)
                  for alpha, b in op.terms.items())
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("body, m, spec", [
    ("cube:1", 2, "laplacian:2"),
    ("pi:1,2", 2, "2,0:1,0 + 0,2:1,0"),
    ("cube:1", 3, "laplacian:3"),
])
def test_derived_separable_sum_matches_its_partials(body, m, spec):
    # D f of a separable sum is again one, term by term: it equals
    # sum_alpha b_alpha D^alpha f, here the phase sums of the 32-node
    # Gauss-Legendre rule on the box (exact to rounding for |x_j| <= 10),
    # and its folded envelope covers every ray
    op = operator_parse(spec, m)
    box = parse_body(body, m)
    f = cs_extremal(box, op)
    g = derived_function(f, op)
    assert g.terms is not None
    x = np.random.default_rng(17).uniform(-10.0, 10.0, size=(200, m))
    ref = sum(b * dense_indicator_transform(box, op, (32,) * m, alpha, x)
              for alpha, b in op.terms.items())
    assert np.abs(g.evaluate(x) - ref).max() <= 1e-13 * np.abs(ref).max()
    g.verify_decay(tolerance=0.0)


def test_cos_product_spectrum_and_coefficients():
    T = cos_product(1.0, [2.0, 3.0])
    assert sorted(T.coefficients) == [(-2, -3), (-2, 3), (2, -3), (2, 3)]
    assert all(v == pytest.approx(0.25) for v in T.coefficients.values())
    with pytest.raises(ValueError):
        cos_product(0.3, [1.0, 1.0])


def test_cos_product_single_axis_ratio(grid_norm):
    T = cos_product(10.0, [1.0])
    DT = apply_operator(DifferentialOperator.monomial((1,)), T)
    L = 80  # divisible by 4*10
    for q in (0.5, 1.0, 2.0, math.inf):
        r = (grid_norm(DT, q, L) /
             grid_norm(T, q, L))
        assert r == pytest.approx(10.0, rel=1e-9)


def test_norm_truncated_sinc_l2():
    h = sinc_kernel(1)
    est = norm_lp_truncated(h, 2.0, 1e4)
    assert est.value == pytest.approx(math.sqrt(math.pi), abs=1e-4)
    assert est.tail_bound < 2e-3
    assert est.upper() >= math.sqrt(math.pi)


@pytest.mark.parametrize("m", [2, 3])
def test_tensor_sup_gap_is_the_product_of_axis_gaps(m):
    # sup|f| <= prod_j mx_j (1 + r_j) for per-axis grid maxima mx_j, so the
    # certified relative gap is prod_j (1 + r_j) - 1, above sum_j r_j
    R = 181.0
    est = norm_lp_truncated(sinc_sq_half_kernel(m), math.inf, R)
    n = 5793                         # the odd count above 32 * sigma * R
    c = 0.5 * (R / (n - 1)) ** 2     # (sigma * delta / 2)^2 / 2, delta = 2R/(n-1)
    r = c / (1.0 - c)
    assert est.error_bound == pytest.approx((1.0 + r) ** m - 1.0, rel=1e-12)


def grid_sup(f, R, n):
    """max |f| on the uniform n^m tensor grid of Q_R, and its Bernstein gap:
    the grid path of a weight transform's sup estimate."""
    axes = [np.linspace(-R, R, n)] * f.m
    delta = 2.0 * R / (n - 1)
    return (float(np.abs(f.eval_axes(axes)).max()),
            bernstein_gap(sum(f.spectral_body.sigma) * delta / 2.0))


@pytest.mark.parametrize("body, spec, n", [
    # n is the odd node count min(max(129, 16 sigma_max R), 2001) at R = 64
    ("ball:1", "0,0:1,0", 1025),
    ("ball:1", "laplacian:2", 1025),
    ("pi:1,2", "0,0:1,0", 2001),
])
def test_origin_bracket_contains_the_grid_maximum(body, spec, n):
    # the numerator of the q = inf candidate: D f has weights cubature x
    # indicator x |symbol|^2 >= 0, so sup |D f| = D f(0) = sum W, bracketed
    # by [|f(0)|, sum |W|] with no grid; the box goes through the
    # indicator transform, not its separable form
    from bnsharp.bandlimited import _indicator_transform
    body, op = parse_body(body, 2), operator_parse(spec, 2)
    g = derived_function(_indicator_transform(body, op, 512.0, None), op)
    R = 64.0
    est = norm_lp_truncated(g, math.inf, R)
    mx, gap = grid_sup(g, R, n)
    assert est.error_bound <= 1e-13 < gap
    # the grid maximum is |D f(0)| up to the rounding of its own sums
    assert est.value * (1.0 - 1e-14) <= mx <= \
        est.value * (1.0 + est.error_bound)
    assert est.tail_bound == g.decay.sup_outside(R)


@pytest.mark.parametrize("spec", [
    "1,1:1,0",              # weights -xi_1 xi_2 W: f(0) = 0 by symmetry
    "2,0:1,0 + 1,1:4,0",    # -xi_1 (xi_1 + 4 xi_2) W: sum |W| = 2.7 |f(0)| > 0
])
def test_mixed_phase_sup_keeps_the_grid(spec):
    # weights that change sign leave the origin bracket wider than the
    # grid's gap, so the estimate is the grid maximum and its gap, bitwise
    body = ConvexBody.ball(1.0, 2)
    f = cs_extremal(body, operator_parse(spec, 2), freq_budget=64.0)
    R = 64.0
    est = norm_lp_truncated(f, math.inf, R)
    assert (est.value, est.error_bound) == grid_sup(f, R, 1025)


def test_norm_truncated_zero_function():
    z = BandLimitedFunction(
        m=1, evaluate=lambda x: np.zeros(np.asarray(x).shape[:-1],
                                         dtype=complex),
        spectral_body=ConvexBody.cube(1.0, 1), sup_bound=0.0,
        decay=DecayModel.make_product([(1.0, 2.0)]), label="zero")
    assert norm_lp_truncated(z, 1.0, 50.0).value == 0.0


def test_norm_truncated_sup_case():
    f = sinc_sq_half_kernel(1)
    est = norm_lp_truncated(f, math.inf, 64.0)
    assert est.value == pytest.approx(1.0, rel=1e-6)
    assert est.tail_bound == pytest.approx(16.0 / 65.0 ** 2)


def test_non_integrable_tail_raises():
    h = sinc_kernel(1)  # decay order 1: L_1 tail cannot be certified
    with pytest.raises(NonIntegrableTailError):
        norm_lp_truncated(h, 1.0, 100.0)
    hsq = sinc_sq_half_kernel(1)  # order 2: L_{1/2} tail diverges too
    with pytest.raises(NonIntegrableTailError):
        norm_lp_truncated(hsq, 0.5, 100.0)


def test_decay_verification_rejects_false_envelope():
    with pytest.raises(ValueError, match="envelope violated"):
        f = BandLimitedFunction(
            m=1,
            evaluate=lambda x: np.ones(np.asarray(x).shape[:-1],
                                       dtype=complex),
            spectral_body=ConvexBody.cube(1.0, 1), sup_bound=1.0,
            decay=DecayModel.make_product([(1.0, 2.0)]), label="liar")
        f.verify_decay()


def test_tensor_product_metadata():
    f = tensor_product([sinc_kernel(1), sinc_sq_half_kernel(1)])
    assert f.m == 2
    assert f.spectral_body.sigma == (1.0, 1.0)
    x = np.array([[0.7, -1.1]])
    expect = (np.sin(0.7) / 0.7) * (np.sin(-0.55) / -0.55) ** 2
    assert f(x)[0] == pytest.approx(expect)
