import json
import math

import numpy as np
import pytest

from bnsharp.body import ConvexBody, lattice_orbits, parse_body
from bnsharp.constants import _cosine_orbits
from bnsharp.trigpoly import (AliasingError, CosineGrid,
                              DifferentialOperator, SamplingGrid,
                              NormEstimate, TrigPolynomial, apply_operator,
                              default_grid, evaluate_grid, norm_lp,
                              random_polynomial)


def test_symbol_values():
    d1 = DifferentialOperator.partial(2, 0)
    assert d1.symbol_at_ik([3.0, 5.0])[0] == pytest.approx(3j)
    lap = DifferentialOperator.laplacian(2)
    assert lap.symbol_at_ik([1.0, 2.0])[0] == pytest.approx(-5.0)
    ident = DifferentialOperator.identity(2)
    assert ident.symbol_at_ik([17.0, -4.0])[0] == pytest.approx(1.0)
    assert ident.symbol_at_ik([3.0, 3.0])[0] == pytest.approx(1.0)


def test_operator_validation():
    with pytest.raises(ValueError, match="orders"):
        DifferentialOperator(2, 2, {(2, 0): 1.0, (0, 1): 1.0})
    with pytest.raises(ValueError, match="identity"):
        DifferentialOperator(1, 0, {(0,): 2.0})
    with pytest.raises(ValueError, match="nonzero"):
        DifferentialOperator(1, 1, {(1,): 0.0})


def test_apply_operator_spectral():
    T = TrigPolynomial(1, {(1,): 1.0})
    out = apply_operator(DifferentialOperator.partial(1, 0), T)
    assert out.coefficients[(1,)] == pytest.approx(1j)

    T2 = TrigPolynomial(2, {(1, 2): 1.0})
    out2 = apply_operator(DifferentialOperator.laplacian(2), T2)
    assert out2.coefficients[(1, 2)] == pytest.approx(-5.0)

    rnd = random_polynomial(ConvexBody.cube(1.0, 2).lattice_points(2.0), 3)
    same = apply_operator(DifferentialOperator.identity(2), rnd)
    assert same.coefficients == rnd.coefficients


def test_apply_operator_linear_and_translation_commuting():
    spec = ConvexBody.cube(1.0, 1).lattice_points(3.0)
    T1 = random_polynomial(spec, 1)
    T2 = random_polynomial(spec, 2)
    op = DifferentialOperator.monomial((2,))
    lhs = apply_operator(op, T1 + T2.scale(2.5))
    rhs = apply_operator(op, T1) + apply_operator(op, T2).scale(2.5)
    for k in lhs.coefficients:
        assert lhs.coefficients[k] == pytest.approx(rhs.coefficients[k])
    tau = [0.37]
    a = apply_operator(op, T1.translated(tau))
    b = apply_operator(op, T1).translated(tau)
    for k in a.coefficients:
        assert a.coefficients[k] == pytest.approx(b.coefficients[k])


def test_evaluate_grid_examples():
    ones = evaluate_grid(TrigPolynomial(1, {(0,): 1.0}), 4)
    assert np.allclose(ones, 1.0)

    cos = TrigPolynomial(1, {(1,): 0.5, (-1,): 0.5})
    vals = evaluate_grid(cos, 4).real
    assert np.allclose(vals, [-1.0, 0.0, 1.0, 0.0], atol=1e-14)

    two_cos = TrigPolynomial(1, {(1,): 1.0, (-1,): 1.0})
    vals8 = evaluate_grid(two_cos, 8)
    x = -math.pi + 2 * math.pi * np.arange(8) / 8
    assert np.allclose(vals8, 2 * np.cos(x), atol=1e-14)
    assert np.abs(vals8).max() == pytest.approx(2.0)


def test_evaluate_grid_aliasing_guard():
    T = TrigPolynomial(1, {(3,): 1.0})
    with pytest.raises(AliasingError):
        evaluate_grid(T, 6)
    evaluate_grid(T, 7)  # alias-free boundary is fine


def test_norm_examples():
    const = TrigPolynomial(1, {(0,): 1.0})
    assert norm_lp(const, 2.0).value == pytest.approx(math.sqrt(2 * math.pi),
                                                      rel=1e-14)
    cos3 = TrigPolynomial(1, {(3,): 0.5, (-3,): 0.5})
    assert norm_lp(cos3, math.inf, L=24).value == pytest.approx(1.0)
    cos = TrigPolynomial(1, {(1,): 0.5, (-1,): 0.5})
    assert norm_lp(cos, 2.0).value == pytest.approx(math.sqrt(math.pi),
                                                    rel=1e-12)


def test_norm_rejects_bad_exponent():
    T = TrigPolynomial(1, {(0,): 1.0})
    with pytest.raises(ValueError):
        norm_lp(T, 0.0)
    with pytest.raises(ValueError):
        norm_lp(T, -1.0)


def test_norm_of_zero_polynomial():
    Z = TrigPolynomial(1, {(0,): 0.0})
    assert Z.is_zero()
    assert norm_lp(Z, 2.0).value == 0.0
    assert norm_lp(Z, math.inf, L=8).value == 0.0


def test_parseval_identity():
    spec = ConvexBody.parallelepiped([1.0, 2.0]).lattice_points(2.0)
    T = random_polynomial(spec, 5)
    n2 = norm_lp(T, 2.0).value
    parseval = math.sqrt(
        (2 * math.pi) ** 2 * sum(abs(c) ** 2
                                 for c in T.coefficients.values()))
    assert n2 == pytest.approx(parseval, rel=1e-10)


def test_quasi_triangle_inequality(grid_norm):
    spec = ConvexBody.cube(1.0, 1).lattice_points(4.0)
    for p in (0.5, 1.0, 2.0, math.inf):
        pt = min(1.0, p)
        for seed in range(5):
            F1 = random_polynomial(spec, 2 * seed)
            F2 = random_polynomial(spec, 2 * seed + 1)
            L = 64
            n12 = grid_norm(F1 + F2, p, L)
            n1 = grid_norm(F1, p, L)
            n2 = grid_norm(F2, p, L)
            assert n12 ** pt <= n1 ** pt + n2 ** pt + 1e-10


def test_translation_invariance_on_grid_shifts(grid_norm):
    spec = ConvexBody.cube(1.0, 1).lattice_points(3.0)
    T = random_polynomial(spec, 9)
    L = 28
    tau = [2 * math.pi * 5 / L]
    for p in (0.5, 1.0, 2.0, math.inf):
        a = grid_norm(T, p, L)
        b = grid_norm(T.translated(tau), p, L)
        assert b == pytest.approx(a, rel=1e-12)


def test_resolution_stress_fractional_exponent(grid_norm):
    # quadrature of |T|^p for p < 1 converges algebraically until the grid
    # resolves the near-zeros of T; the stress level is where doubling the
    # resolution moves the value by under 1e-6
    spec = ConvexBody.cube(1.0, 1).lattice_points(5.0)
    T = random_polynomial(spec, 13)
    base = default_grid(T.degrees(), oversample=128)
    v1 = grid_norm(T, 0.5, base)
    v2 = grid_norm(T, 0.5, tuple(2 * L for L in base))
    assert v2 == pytest.approx(v1, rel=1e-6)


def test_sup_norm_certificate_brackets_truth():
    spec = ConvexBody.cube(1.0, 1).lattice_points(6.0)
    T = random_polynomial(spec, 21)
    est = norm_lp(T, math.inf, L=64)
    dense = np.abs(evaluate_grid(T, 4096)).max()
    assert est.value <= dense * (1 + 1e-12)
    assert dense <= est.upper() * (1 + 1e-12)


def test_norm_estimate_upper_on_both_domains():
    # on Q_pi (no tail) the upper end is value * (1 + error); on R^m the
    # tail adds |f|^p mass outside Q_R for p < inf and competes as a sup
    # for p = inf; an infinite error or tail gives inf on either domain
    assert NormEstimate(2.0, 3.0, 0.25).upper() == 2.0 * 1.25
    assert NormEstimate(2.0, math.inf, 0.25).upper() == 2.0 * 1.25
    assert NormEstimate(0.0, math.inf, math.inf).upper() == math.inf
    assert NormEstimate(2.0, 3.0, 0.25, 1.0).upper() == \
        (2.0 ** 3 + 1.0) ** (1 / 3) * 1.25
    assert NormEstimate(2.0, math.inf, 0.25, 3.0).upper() == 3.0
    assert NormEstimate(2.0, math.inf, 0.25, 1.0).upper() == 2.5
    assert NormEstimate(2.0, 3.0, 0.25, math.inf).upper() == math.inf


def test_random_polynomial_contract():
    spec = ConvexBody.parallelepiped([1.0, 2.0]).lattice_points(1.0)
    T1 = random_polynomial(spec, 7)
    T2 = random_polynomial(spec, 7)
    assert T1.coefficients == T2.coefficients
    assert len(T1.coefficients) == 15
    single = ConvexBody.cube(0.1, 2).lattice_points(1.0)
    T3 = random_polynomial(single, 0)
    assert list(T3.coefficients) == [(0, 0)]
    with pytest.raises(ValueError):
        random_polynomial(np.empty((0, 1), dtype=np.int64), 0)


def test_budget_validation():
    body = ConvexBody.cube(1.0, 1)
    TrigPolynomial(1, {(2,): 1.0}, budget=(body, 2.0))
    with pytest.raises(ValueError, match="outside the declared spectrum"):
        TrigPolynomial(1, {(3,): 1.0}, budget=(body, 2.0))


@pytest.mark.parametrize("body, a, boundary, outside", [
    (ConvexBody.ball(1.0, 2), 5.0, [(3, 4), (-5, 0), (0, -5), (-4, -3)],
     [(4, 4), (5, 1), (-1, -5)]),
    (ConvexBody.cube(1.0, 2), 3.0, [(3, -3), (-3, 0), (2, 3), (-3, -3)],
     [(4, 0), (0, -4), (4, 4)]),
])
def test_budget_check_in_two_dimensions(body, a, boundary, outside):
    # one membership test on all keys: the boundary of a*V is inside, and
    # of several keys outside the error names the first one inserted
    inside = {(0, 0): 1.0, **{k: 1.0 for k in boundary}}
    T = TrigPolynomial(2, inside, budget=(body, a))
    assert list(T.coefficients) == list(inside)
    for order in (outside, outside[::-1]):
        coeffs = {**{k: 1.0 for k in boundary[:2]},
                  **{k: 1.0 for k in order}, **{k: 1.0 for k in boundary[2:]}}
        first = order[0]
        with pytest.raises(ValueError, match=rf"frequency \({first[0]}, "
                                             rf"{first[1]}\) outside"):
            TrigPolynomial(2, coeffs, budget=(body, a))
    assert TrigPolynomial(2, {}, budget=(body, a)).coefficients == {}


def test_serialization_roundtrip():
    spec = ConvexBody.parallelepiped([1.0, 2.0]).lattice_points(1.0)
    T = random_polynomial(spec, 17)
    back = TrigPolynomial.from_json(T.to_json())
    assert back.coefficients == T.coefficients
    obj = json.loads(T.to_json())
    assert obj["m"] == 2


def test_serialization_errors():
    # every row is k_1 .. k_m, re, im: m + 2 fields, no fewer and no more
    for row in ([0, 1.0, 0.0], [0, 0, 1.0, 0.0, 7.0]):
        with pytest.raises(ValueError, match="row 1"):
            TrigPolynomial.from_json(json.dumps(
                {"m": 2, "coefficients": [[0, 0, 1.0, 0.0], row]}))


@pytest.mark.parametrize("spec, m, a, shape", [
    ("cube:1", 1, 8.0, (17,)), ("cube:1", 1, 8.0, (68,)),
    ("ball:1", 2, 5.0, (23, 23)), ("ball:1", 2, 5.0, (22, 22)),
    ("pi:1,2", 2, 3.0, (15, 28)), ("ball:1", 3, 3.0, (13, 14, 15)),
    # the disk's certificate grid at a = 8, and a large even grid, whose
    # node L/2 is its own mirror image
    ("ball:1", 2, 8.0, (1125, 1125)), ("ball:1", 2, 8.0, (1126, 1126))])
def test_cosine_grid_matches_the_full_grid(spec, m, a, shape):
    # the cosine grid on orbit unknowns u equals the full grid on the
    # expanded coefficients c_k = u_o / sqrt(|o|), read at its quarter nodes
    pts = parse_body(spec, m).lattice_points(a)
    index, sizes, _ = lattice_orbits(pts)
    cos = CosineGrid(pts, index, shape)
    full = SamplingGrid(pts, shape)
    rng = np.random.default_rng(5)
    u = rng.standard_normal(cos.n)
    c = (u / np.sqrt(sizes))[index]
    assert np.linalg.norm(c) == pytest.approx(np.linalg.norm(u), rel=1e-15)
    v = cos.synth(u)
    quarter = tuple(slice(L // 2 + 1) for L in shape)
    assert v.shape == tuple(L // 2 + 1 for L in shape)
    values = full.synth(c.astype(complex))
    assert np.abs(values[quarter] - v).max() <= 1e-13 * np.abs(v).max()
    for p in (1.0, 3.0, math.inf):
        assert cos.norm(v, p) == pytest.approx(full.norm(values, p),
                                               rel=1e-13)
    # analyze against the full grid's analysis of the mirrored values,
    # summed over each orbit
    w = rng.standard_normal(v.shape)
    mirror = np.ix_(*[np.minimum(np.arange(L), -np.arange(L) % L)
                      for L in shape])
    g = full.analyze(w[mirror].astype(complex)).real
    want = np.bincount(index, weights=g) / np.sqrt(sizes)
    assert np.abs(cos.analyze(w) - want).max() <= \
        1e-13 * np.abs(want).max()


@pytest.mark.parametrize("spec, alpha, a, shape", [
    ("cube:1", (0,), 8.0, (68,)), ("cube:1", (1,), 5.0, (23,)),
    ("ball:1", (2, 0), 5.0, (22, 23)), ("cube:1", (1, 1), 3.0, (14, 11)),
    ("ball:1", (1, 2), 4.0, (19, 20)), ("ball:1", (0, 0, 0), 3.0, (9, 8, 7)),
    ("ball:1", (1, 0, 2), 3.0, (13, 14, 15))])
def test_cosine_synth_into_a_buffer_gives_the_same_bits(spec, alpha, a,
                                                        shape):
    # even and odd axes: synth(u, out) writes every kept node into out and
    # returns it, bit for bit as synth(u) does
    op = DifferentialOperator.monomial(alpha)
    spectrum = parse_body(spec, len(alpha)).lattice_points(a)
    index, _, _, odd, _ = _cosine_orbits(1.0, math.inf, op, spectrum)
    assert odd == tuple(c % 2 == 1 for c in alpha)
    cos = CosineGrid(spectrum, index, shape, odd)
    u = np.random.default_rng(2).standard_normal(cos.n)
    buf = np.full(tuple(L // 2 + 1 for L in shape), np.nan)
    assert cos.synth(u, buf) is buf
    assert np.array_equal(buf, cos.synth(u))
