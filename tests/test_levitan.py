import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest

from bnsharp import bandlimited, levitan
from bnsharp.bandlimited import (BandLimitedFunction, DecayModel,
                                 NonIntegrableTailError, akhiezer_family,
                                 cs_extremal, norm_lp_truncated,
                                 separable_sum, sinc_kernel,
                                 sinc_sq_half_kernel, tensor_product)
from bnsharp.body import ConvexBody
from bnsharp.levitan import (PHASE_CAP, TruncationFailure,
                             check_norm_contraction,
                             check_operator_error, levitan_coefficients,
                             levitan_evaluate, plan_truncation)
from bnsharp.trigpoly import DifferentialOperator


def constant_one():
    """f = 1, the degenerate-spectrum edge case of the periodization."""
    return BandLimitedFunction(
        m=1,
        evaluate=lambda x: np.ones(np.asarray(x).shape[:-1], dtype=complex),
        spectral_body=ConvexBody.cube(1e-6, 1), sup_bound=1.0,
        decay=DecayModel.make_radial(1.0, 0.0), label="one")


def test_periodization_of_constant_is_one():
    f = constant_one()
    xs = np.array([[0.0], [1.3], [-2.9]])
    vals = levitan_evaluate(f, 2.0, xs, eps=1e-5)
    assert np.allclose(vals, 1.0, atol=2e-5)


def test_window_input_fixed_point_at_origin():
    # S_1(h^2(./2), 0) keeps only the k = 0 term: exactly f(0) = 1
    f = sinc_sq_half_kernel(1)
    v = levitan_evaluate(f, 1.0, np.array([[0.0]]), eps=1e-10)
    assert abs(v[0] - 1.0) < 1e-12


def test_truncation_plan_certificate():
    f = sinc_sq_half_kernel(1)
    K, bound = plan_truncation(f, 2.0, 1e-8)
    assert bound <= 1e-8
    # the plan must reject an unbounded input
    bad = BandLimitedFunction(
        m=1, evaluate=f.evaluate, spectral_body=f.spectral_body,
        sup_bound=math.inf, decay=f.decay, label="unbounded")
    with pytest.raises(ValueError):
        plan_truncation(bad, 2.0, 1e-8)
    with pytest.raises(ValueError):
        levitan_evaluate(f, 2.0, np.array([[0.0]]), eps=-1.0)
    with pytest.raises(ValueError):
        levitan_evaluate(f, 0.5, np.array([[0.0]]))


def test_weight_transform_plan_reaches_tight_tolerances():
    # the cap follows the per-axis phase matrix, (2K + 1) * 474 entries for
    # the disk's extremal, so K = 4096 and 16384 are in reach
    f = cs_extremal(ConvexBody.ball(1.0, 2), DifferentialOperator.identity(2))
    for eps, K_want in ((1e-5, 4096), (1e-6, 16384)):
        K, bound = plan_truncation(f, 1.0, eps)
        assert K == K_want and bound <= eps
        assert (2 * K + 1) * 474 <= PHASE_CAP
    with pytest.raises(ValueError, match="within K"):
        plan_truncation(f, 1.0, 1e-7)


def test_coefficients_spectrum_and_consistency():
    f = sinc_sq_half_kernel(1)
    res = levitan_coefficients(f, 2.0, eps=1e-9)
    # spectrum inside (a + c)V with c = 1 for the unit cube
    enlarged = ConvexBody.cube(1.0, 1).lattice_points(3.0)
    assert set(res.polynomial.coefficients) <= set(map(tuple,
                                                      enlarged.tolist()))
    assert res.out_of_spectrum <= 1e-9
    # two independent code paths agree on fresh points
    ys = np.array([[0.3], [1.1], [-2.2], [0.77]])
    direct = res.evaluate(2.0 * ys)
    synth = res.polynomial.evaluate_points(ys)
    assert np.abs(direct - synth).max() < 5e-9


def _loop_coefficients(f, a, eps, oversample, evaluate=levitan_evaluate):
    """Reference: walk every FFT index in grid order, sign it, and keep it
    when it lies in the enlarged spectrum (the loop levitan_coefficients
    vectorizes).  The samples come from ``evaluate``, a pointwise lattice
    sum."""
    c = f.spectral_body.ell1_over_dual()
    spectrum = set(map(tuple, f.spectral_body.scaled(a + c).lattice_points(
        1.0).tolist()))
    degs = [int(math.floor((a + c) * s * (1 + 1e-12)))
            for s in f.spectral_body.sigma]
    shape = tuple(oversample * (2 * d + 1) for d in degs)
    axes = [(-math.pi + 2.0 * math.pi * np.arange(L) / L) for L in shape]
    grids = np.meshgrid(*axes, indexing="ij")
    pts = a * np.stack([g.ravel() for g in grids], axis=-1)
    samples = evaluate(f, a, pts, eps=eps).reshape(shape)
    spec = np.fft.fftn(samples) / math.prod(shape)
    coeffs = {}
    out_max = 0.0
    for idx in np.ndindex(shape):
        k = tuple(i if i <= L // 2 else i - L for i, L in zip(idx, shape))
        val = spec[idx] * (-1.0) ** (sum(k) % 2)
        if k in spectrum:
            coeffs[k] = complex(val)
        else:
            out_max = max(out_max, abs(val))
    return coeffs, out_max


@pytest.mark.parametrize("f, a, oversample", [
    (sinc_sq_half_kernel(1), 2.5, 1),
    (sinc_sq_half_kernel(1), 2.5, 2),
    (sinc_sq_half_kernel(2), 4.0, 2),
    (tensor_product([akhiezer_family(1.0, 0.5, 0.1)] * 2), 2.5, 3),
    # two terms: the per-axis lattice sums combine term by term
    (cs_extremal(ConvexBody.cube(1.0, 2), DifferentialOperator.laplacian(2)),
     2.5, 2)])
def test_coefficients_equal_grid_loop(f, a, oversample):
    res = levitan_coefficients(f, a, eps=1e-3, oversample=oversample)
    coeffs, out_max = _loop_coefficients(f, a, 1e-3, oversample)
    got = res.polynomial.coefficients
    assert list(got) == list(coeffs)            # same insertion order
    assert np.array(list(got.values())).tobytes() == \
        np.array(list(coeffs.values())).tobytes()  # bitwise
    assert np.float64(res.out_of_spectrum).tobytes() == \
        np.float64(out_max).tobytes()


def _assert_close_to_grid_loop(res, f, a, eps, oversample, tol,
                               evaluate=levitan_evaluate):
    coeffs, out_max = _loop_coefficients(f, a, eps, oversample, evaluate)
    got = res.polynomial.coefficients
    assert list(got) == list(coeffs)            # same insertion order
    diff = np.array(list(got.values())) - np.array(list(coeffs.values()))
    assert np.abs(diff).max() <= tol
    assert abs(res.out_of_spectrum - out_max) <= tol


@pytest.mark.parametrize("a", [1.0, 2.0])
def test_coefficients_match_grid_loop_on_the_disk(a):
    # the disk's extremal is a weight transform: its samples contract the
    # weights with per-axis matrices on the tensor grid, in another order
    # than the pointwise sum, so they agree to rounding only
    f = cs_extremal(ConvexBody.ball(1.0, 2), DifferentialOperator.identity(2),
                    nodes_per_axis=64)
    eps = 1e-2
    res = levitan_coefficients(f, a, eps=eps)
    _assert_close_to_grid_loop(res, f, a, eps, 2, 1e-14)
    ys = np.random.default_rng(7).uniform(-math.pi, math.pi, size=(6, 2))
    direct = res.evaluate(a * ys)
    synth = res.polynomial.evaluate_points(ys)
    assert np.abs(direct - synth).max() < eps


def _tiled_evaluate(f, a, x, eps):
    """Reference: the box lattice sum over every shift k with |k|_inf <= K,
    f evaluated at x + 2*pi*a*k and weighted by the product window, point
    by point and block by block of shifts."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    K, _ = plan_truncation(f, a, eps,
                           x_inf=max(float(np.abs(x).max()), a * math.pi))
    rng = np.arange(-K, K + 1)
    grids = np.meshgrid(*([rng] * f.m), indexing="ij")
    ks = np.stack([g.ravel() for g in grids], axis=-1).astype(float)
    out = np.zeros(x.shape[0], dtype=complex)
    chunk = max(1, 2 ** 20 // x.shape[0])
    for i in range(0, ks.shape[0], chunk):
        kc = ks[i:i + chunk]
        args = x[:, None, :] + 2.0 * math.pi * a * kc[None, :, :]
        vals = f.evaluate(args.reshape(-1, f.m)).reshape(args.shape[:2])
        w = np.prod(
            np.sinc(x[:, None, :] / (2.0 * a * math.pi) + kc[None, :, :]) ** 2,
            axis=-1)
        out += (vals * w).sum(axis=1)
    return out


def test_bare_multivariate_function_is_rejected():
    # a multivariate function is a separable sum or a weight transform;
    # only a univariate one may be a bare evaluator
    w = sinc_sq_half_kernel(2)
    with pytest.raises(ValueError, match="separable sum or a weight"):
        BandLimitedFunction(
            m=2, evaluate=w.evaluate, spectral_body=w.spectral_body,
            sup_bound=1.0, decay=DecayModel.make_radial(1.0, 2.0),
            label="bare")
    # and derived_function, not partials, differentiates it
    with pytest.raises(ValueError, match="not partials"):
        BandLimitedFunction(
            m=2, evaluate=w.evaluate, spectral_body=w.spectral_body,
            sup_bound=1.0, decay=w.decay, label="with partials",
            partials=lambda alpha: w.evaluate, terms=w.terms)


@pytest.mark.parametrize("a", [1.0, 2.0])
def test_transform_sums_match_tiled_lattice_sum(a):
    # the per-axis sums of a weight transform against the box lattice sum
    # over the tiled shifts, pointwise and through the coefficients
    f = cs_extremal(ConvexBody.ball(1.0, 2), DifferentialOperator.identity(2),
                    nodes_per_axis=64)
    eps = 1e-2
    xs = np.random.default_rng(3).uniform(-a * math.pi, a * math.pi,
                                          size=(5, 2))
    got = levitan_evaluate(f, a, xs, eps=eps)
    assert np.abs(got - _tiled_evaluate(f, a, xs, eps)).max() <= 1e-14
    assert levitan_evaluate(f, a, xs[0], eps=eps).shape == (1,)
    res = levitan_coefficients(f, a, eps=eps)
    _assert_close_to_grid_loop(res, f, a, eps, 2, 1e-14, _tiled_evaluate)


def test_disk_periodizes_at_tight_tolerance():
    # the disk's extremal on its default node grid at a = 1, eps = 1e-4
    # plans K = 1024 shifts per axis
    f = cs_extremal(ConvexBody.ball(1.0, 2), DifferentialOperator.identity(2))
    eps = 1e-4
    res = levitan_coefficients(f, 1.0, eps=eps)
    assert res.truncation_K == 1024
    assert res.out_of_spectrum <= eps
    ys = np.random.default_rng(11).uniform(-math.pi, math.pi, size=(6, 2))
    direct = res.evaluate(ys)
    synth = res.polynomial.evaluate_points(ys)
    assert np.abs(direct - synth).max() < eps


def test_real_input_gives_hermitian_coefficients():
    f = sinc_sq_half_kernel(1)
    res = levitan_coefficients(f, 2.0, eps=1e-9)
    co = res.polynomial.coefficients
    for k, v in co.items():
        mk = tuple(-c for c in k)
        assert abs(v - np.conj(co[mk])) < 1e-9
        assert abs(v.imag) < 1e-9


def test_scaled_tensor_product_keeps_its_scale():
    # every scale c, of unit modulus too, must reach the tensor factors
    # that eval_axes and both periodization sums multiply
    x = np.array([0.3, -0.7])
    f = cs_extremal(ConvexBody.cube(1.0, 2),
                    DifferentialOperator.monomial((1, 0)))
    assert f.eval_axes([x[:1], x[1:]])[0, 0] == f.evaluate(x[None])[0]
    g = sinc_sq_half_kernel(2)
    w = sinc_sq_half_kernel(1)
    for c in (-1.0, -1j, 2.0):
        h = separable_sum([(c, (w, w))])
        assert h.eval_axes([x[:1], x[1:]])[0, 0] == h.evaluate(x[None])[0]
        assert levitan_evaluate(h, 2.0, np.zeros(2))[0] == c
    r = levitan_coefficients(g, 2.0).polynomial.coefficients
    neg = levitan_coefficients(separable_sum([(-1.0, (w, w))]),
                               2.0).polynomial.coefficients
    assert neg == {k: -v for k, v in r.items()}


def test_pointwise_bound_one_sixth():
    f = sinc_sq_half_kernel(1)
    for a in (4.0, 8.0):
        xs = np.linspace(-a / 2, a / 2, 31)[:, None]
        s = levitan_evaluate(f, a, xs, eps=1e-10)
        err = np.abs(f(xs) - s)
        bound = (np.abs(xs[:, 0]) / a) ** 2 / 6.0
        assert np.all(err <= bound + 1e-10)


def test_contraction_reports():
    f = sinc_sq_half_kernel(1)
    for p in (1.0, 2.0, math.inf):
        rep = check_norm_contraction(f, 2.0, p)
        assert rep.passed
        assert math.isfinite(rep.slack)
    rep_half = check_norm_contraction(f, 2.0, 0.5)
    assert rep_half.passed and math.isinf(rep_half.slack)


def test_contraction_tensor_multivariate():
    F = tensor_product([akhiezer_family(1.0, 2.0, 0.1),
                        akhiezer_family(1.0, 2.0, 0.1)])
    rep = check_norm_contraction(F, 2.0, 2.0)
    assert rep.passed and math.isfinite(rep.slack)


def test_contraction_zero_function():
    z = BandLimitedFunction(
        m=1,
        evaluate=lambda x: np.zeros(np.asarray(x).shape[:-1], dtype=complex),
        spectral_body=ConvexBody.cube(1.0, 1), sup_bound=0.0,
        decay=DecayModel.make_product([(1.0, 2.0)]), label="zero")
    rep = check_norm_contraction(z, 2.0, 1.0)
    assert rep.lhs == pytest.approx(0.0, abs=1e-12)
    assert rep.rhs.value == pytest.approx(0.0, abs=1e-12)
    assert rep.passed


def akhiezer_tensor():
    return tensor_product([akhiezer_family(1.0, 0.5, 0.1),
                           akhiezer_family(1.0, 0.5, 0.1)])


SWEEP = [(a, p) for a in (2.0, 4.0, 8.0) for p in (0.5, 1.0, 2.0, math.inf)]


def test_contraction_sweep_periodizes_once_per_scale(monkeypatch):
    # 3 scales x 4 exponents on one function: one periodization per a and
    # one truncated norm per (p, R), and reports bitwise equal to those of
    # a fresh function per check
    fresh = [check_norm_contraction(akhiezer_tensor(), a, p)
             for a, p in SWEEP]
    builds = {"periodization": 0, "norm": 0}

    def counted(name, build):
        def run(*args):
            builds[name] += 1
            return build(*args)
        return run
    monkeypatch.setattr(levitan, "_extract",
                        counted("periodization", levitan._extract))
    monkeypatch.setattr(bandlimited, "_norm_lp_truncated",
                        counted("norm", bandlimited._norm_lp_truncated))
    f = akhiezer_tensor()
    reports = [check_norm_contraction(f, a, p) for a, p in SWEEP]
    diam = f.spectral_body.diameter()
    R = {(p, max(64.0 * diam, 4.0 * a * math.pi)) for a, p in SWEEP}
    assert builds == {"periodization": 3, "norm": len(R)} and len(R) == 4
    assert [repr(r) for r in reports] == [repr(r) for r in fresh]


def test_memo_holds_no_reference_to_its_function():
    f = akhiezer_tensor()
    for p in (2.0, math.inf):
        check_norm_contraction(f, 2.0, p)
    assert f._memo
    # a replaced function starts with its own, empty memo
    assert dataclasses.replace(f, label="copy")._memo == {}
    ref = weakref.ref(f)
    gc.disable()
    try:
        del f
        assert ref() is None
    finally:
        gc.enable()


def test_errors_are_raised_on_every_call():
    h = sinc_kernel(1)  # decay order 1: no certified L_1 tail
    for _ in range(2):
        with pytest.raises(NonIntegrableTailError):
            norm_lp_truncated(h, 1.0, 100.0)
    f = sinc_sq_half_kernel(1)
    lying = BandLimitedFunction(
        m=1, evaluate=f.evaluate,
        spectral_body=ConvexBody.cube(0.25, 1), sup_bound=1.0,
        decay=f.decay, label="undersized")
    for _ in range(2):
        with pytest.raises(TruncationFailure):
            levitan_coefficients(lying, 2.0, eps=1e-9)
    assert h._memo == lying._memo == {}


def test_operator_error_identity_reduces_to_pointwise():
    f = sinc_sq_half_kernel(1)
    op = DifferentialOperator.identity(1)
    xs = np.linspace(-1.5, 1.5, 21)[:, None]
    rep = check_operator_error(f, 8.0, op, xs)
    # identity errors obey the quadratic bound, so B stays negligible
    assert rep.A < 1.0 / 6.0 + 0.05
    assert abs(rep.B) < 0.01
    assert rep.max_error <= (1.5 / 8.0) ** 2 / 6.0 + 1e-9


_XS_SQUARE = np.random.default_rng(5).uniform(-1.5, 1.5, size=(15, 2))


@pytest.mark.parametrize("f, op, xs", [
    pytest.param(sinc_sq_half_kernel(1), DifferentialOperator.partial(1, 0),
                 np.linspace(-1.5, 1.5, 21)[:, None], id="window1-d1"),
    # the derivative of a tensor product is a separable sum: one term for
    # a one-term operator, one per operator term otherwise
    pytest.param(sinc_sq_half_kernel(2), DifferentialOperator.monomial((1, 1)),
                 _XS_SQUARE, id="window2-d11"),
    pytest.param(sinc_sq_half_kernel(2), DifferentialOperator.laplacian(2),
                 _XS_SQUARE, id="window2-laplacian"),
])
def test_operator_error_first_derivative_stable_fit(f, op, xs):
    reports = [check_operator_error(f, a, op, xs) for a in (4.0, 8.0, 16.0)]
    errs = [r.max_error for r in reports]
    assert errs[0] > errs[1] > errs[2]
    # fitted coefficients stay bounded as the scale grows
    assert max(abs(r.A) for r in reports) < 1.0
    assert max(abs(r.B) for r in reports) < 1.0


@pytest.mark.parametrize("a", [4.0, 8.0, 16.0])
def test_operator_error_second_derivative_exact(a):
    # At integer a every shifted term k != 0 of S_a vanishes at x = 0 with
    # its first two derivatives: its window factor has a double zero there
    # and f(2*pi*a*k) = 0.  The k = 0 term is f(x) * h^2(x/(2a)), so
    # f'' - (S_a f)'' at 0 is -f(0) * (h^2)''(0) / (4a^2) = 1/(6a^2),
    # the largest error on these points.
    f = sinc_sq_half_kernel(1)
    op = DifferentialOperator.monomial((2,))
    xs = np.linspace(-1.5, 1.5, 21)[:, None]
    rep = check_operator_error(f, a, op, xs)
    assert rep.max_error == pytest.approx(1.0 / (6.0 * a * a), rel=1e-9)


def test_pointwise_error_quadratic_decay_rate():
    f = sinc_sq_half_kernel(1)
    x = np.array([[1.0]])
    a_values = np.array([4.0, 8.0, 16.0, 32.0])
    errs = [abs(levitan_evaluate(f, a, x, eps=1e-12)[0] - f(x)[0])
            for a in a_values]
    slope = np.polyfit(np.log(a_values), np.log(errs), 1)[0]
    assert slope == pytest.approx(-2.0, abs=0.3)


@pytest.mark.parametrize("a", [-0.5, 0.0, 0.5])
def test_coefficients_reject_scales_below_one(a):
    # as levitan_evaluate does; a = 0 would divide by zero further in
    with pytest.raises(ValueError, match="scale a must be >= 1"):
        levitan_coefficients(sinc_sq_half_kernel(1), a)


def test_out_of_spectrum_guard_fires():
    # lie about the spectral body: claim a smaller band than the truth
    f = sinc_sq_half_kernel(1)
    lying = BandLimitedFunction(
        m=1, evaluate=f.evaluate,
        spectral_body=ConvexBody.cube(0.25, 1), sup_bound=1.0,
        decay=f.decay, label="undersized")
    with pytest.raises(TruncationFailure):
        levitan_coefficients(lying, 2.0, eps=1e-9)


def test_levitan_cs_extremal_input():
    body = ConvexBody.cube(1.0, 1)
    op = DifferentialOperator.identity(1)
    f = cs_extremal(body, op)
    rep = check_norm_contraction(f, 2.0, 2.0)
    assert rep.passed
