import math

import numpy as np
import pytest

from conftest import dense_pow
from tensorratio.config import SearchConfig
from tensorratio.ranktwo import (
    BorderParams,
    CaseTag,
    NondifferentiablePointError,
    RankTwoParams,
    border_ratio_scan,
    canonical_params,
    classify_case,
    critical_equation_roots,
    equal_diff_frob_sq,
    equal_diff_ratio_lb,
    equal_diff_spectral_lb,
    extremal_frob_norm,
    extremal_ratio,
    extremal_spectral_norm,
    extremal_tensor,
    make_border,
    make_rank_two,
    maximizer_side_check,
    min_ratio_search,
    project_pair,
    ratio_squared,
    ratio_squared_grad,
)
from tensorratio.spectral import count_global_maximizers, spectral_norm_binary
from tensorratio.symtensor import (
    DegenerateSpanError,
    frob_norm,
    restrict_to_plane,
    sym_rank_one,
)


def unit(x):
    x = np.asarray(x, float)
    return x / np.linalg.norm(x)


def test_canonical_params_orientation(rng):
    for _ in range(50):
        d = int(rng.integers(3, 8))
        alpha = rng.standard_normal() * 3
        beta = rng.standard_normal() * 3
        if alpha == 0 or beta == 0:
            continue
        u = rng.standard_normal(2) * rng.uniform(0.5, 2.0)
        v = rng.standard_normal(2) * rng.uniform(0.5, 2.0)
        p = canonical_params(alpha, beta, u, v, d)
        assert p.alpha > 0
        assert float(p.u @ p.v) >= -1e-12
        assert abs(np.linalg.norm(p.u) - 1) < 1e-12
        assert abs(np.linalg.norm(p.v) - 1) < 1e-12
        if p.beta > 0:
            assert p.alpha >= p.beta
        # norms are preserved up to overall sign of the tensor
        A0 = alpha * sym_rank_one(u, d) - beta * sym_rank_one(v, d)
        A1 = make_rank_two(p, d)
        assert frob_norm(A0) == pytest.approx(frob_norm(A1), rel=1e-11)
        same = frob_norm(A0 - A1) < 1e-9 * max(frob_norm(A0), 1.0)
        flipped = frob_norm(A0 + A1) < 1e-9 * max(frob_norm(A0), 1.0)
        assert same or flipped


def test_canonical_params_rejects_degenerate():
    with pytest.raises(ValueError):
        canonical_params(0.0, 1.0, [1.0, 0.0], [0.0, 1.0], 3)
    with pytest.raises(ValueError):
        canonical_params(1.0, 1.0, [0.0, 0.0], [0.0, 1.0], 3)


def test_make_rank_two_examples():
    with pytest.raises(ValueError):
        # beta = 0 leaves a single term, rejected by the two-term convention
        RankTwoParams(alpha=1.0, beta=0.0, u=np.array([1.0, 0.0]), v=np.array([0.0, 1.0]))
    p = RankTwoParams(1.0, 1.0, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    A = make_rank_two(p, 3)
    assert dict(A.items()) == {(3, 0): 1.0, (0, 3): -1.0}
    with pytest.raises(DegenerateSpanError):
        make_rank_two(RankTwoParams(2.0, 1.0, np.array([1.0, 0.0]), np.array([1.0, 0.0])), 3)


def test_make_rank_two_frobenius(rng):
    for _ in range(20):
        d = int(rng.integers(2, 8))
        p = canonical_params(
            math.exp(rng.normal()), math.exp(rng.normal()) * rng.choice([1, -1]),
            rng.standard_normal(2), rng.standard_normal(2), d,
        )
        uv = float(p.u @ p.v)
        expected = p.alpha**2 + p.beta**2 - 2 * p.alpha * p.beta * uv**d
        assert frob_norm(make_rank_two(p, d)) ** 2 == pytest.approx(expected, rel=1e-12)


def test_extremal_tensor_closed_forms():
    W3 = extremal_tensor(3)
    assert dict(W3.items()) == {(2, 1): 1.0}
    for d in range(3, 11):
        W = extremal_tensor(d)
        assert frob_norm(W) == pytest.approx(extremal_frob_norm(d), rel=1e-14)
        ms = spectral_norm_binary(W)
        assert ms.value == pytest.approx(extremal_spectral_norm(d), rel=1e-13)
        assert ms.value / frob_norm(W) == pytest.approx(extremal_ratio(d), rel=1e-13)
    assert extremal_ratio(3) == pytest.approx(2 / 3, rel=1e-15)
    assert extremal_ratio(4) == pytest.approx((3 / 4) ** 1.5, rel=1e-15)


def test_make_border_examples():
    e1, e2 = np.eye(2)
    W = make_border(BorderParams(0.0, 1.0, e1, e2), 5)
    assert frob_norm(W - extremal_tensor(5)) < 1e-14
    A = make_border(BorderParams(0.3, 0.7, e1, e2), 5)
    assert frob_norm(A) ** 2 == pytest.approx(2.54, rel=1e-14)
    B = make_border(BorderParams(1.0, 0.0, e1, e2), 4)
    assert frob_norm(B - sym_rank_one(e1, 4)) < 1e-14
    with pytest.raises(ValueError):
        BorderParams(1.0, 1.0, e1, unit([1.0, 0.5]))
    with pytest.raises(ValueError):
        BorderParams(0.0, 0.0, e1, e2)


def test_ratio_squared_cases(rng):
    # sum case stays above 1/2
    for _ in range(25):
        d = int(rng.integers(3, 9))
        p = canonical_params(
            math.exp(rng.normal()), -math.exp(rng.normal()),
            rng.standard_normal(2), rng.standard_normal(2), d,
        )
        assert ratio_squared(p, d) >= 0.5 - 1e-12
    # generic samples stay above the sharp bound
    for _ in range(25):
        d = int(rng.integers(3, 7))
        hi, lo = sorted((math.exp(rng.normal()), math.exp(rng.normal())), reverse=True)
        p = canonical_params(hi, lo, rng.standard_normal(2), rng.standard_normal(2), d)
        assert ratio_squared(p, d) > (1 - 1 / d) ** (d - 1) - 1e-9


def test_ratio_squared_zero_tensor_error():
    u = np.array([1.0, 0.0])
    with pytest.raises(ValueError):
        ratio_squared(RankTwoParams(1.0, 1.0, u, u.copy()), 4)


def test_ratio_squared_dim3(rng):
    # restriction route: same value as the native dim-2 computation
    phi = 0.8
    p2 = canonical_params(2.0, 1.0, [1.0, 0.0], [math.cos(phi), math.sin(phi)], 4)
    u3 = unit([1.0, 0.0, 0.0])
    v3 = unit([math.cos(phi), math.sin(phi), 0.0])
    p3 = canonical_params(2.0, 1.0, u3, v3, 4)
    assert ratio_squared(p3, 4) == pytest.approx(ratio_squared(p2, 4), rel=1e-12)


def _chart_cases(rng, n):
    """Rank-two parameters in R^n: random angles, theta near 1e-4, theta = pi/2.

    Orders 3..8 take every kind; 9..12 only theta = pi/2, where the chart's
    near-zero coefficients put critical roots past |x| ~ 1e154.
    """
    for d in range(3, 13):
        for kind in ["random"] * 4 + ["small", "orthogonal"] if d <= 8 else ["orthogonal"]:
            u = unit(rng.standard_normal(n))
            r = rng.standard_normal(n)
            perp = unit(r - (r @ u) * u)
            if kind == "random":
                v = unit(rng.standard_normal(n))
            elif kind == "small":
                theta = 1e-4 * rng.uniform(0.5, 2.0)
                v = math.cos(theta) * u + math.sin(theta) * perp
            else:
                v = perp
            alpha = math.exp(rng.normal())
            beta = math.exp(rng.normal()) * rng.choice([1.0, -1.0])
            yield canonical_params(alpha, beta, u, v, d), d


@pytest.mark.parametrize("n", [2, 3])
def test_chart_path_matches_assembled_tensor(rng, n):
    for p, d in _chart_cases(rng, n):
        A = make_rank_two(p, d)
        if n == 2:
            ref = spectral_norm_binary(A)
            lifted = ref.points
        else:
            B, frame = restrict_to_plane(A, p.u, p.v)
            ref = spectral_norm_binary(B)
            lifted = [frame.lift(w) for w in ref.points]
        value = ratio_squared(p, d)
        assert value == pytest.approx(ref.value**2 / frob_norm(A) ** 2, rel=1e-12)
        if p.alpha > p.beta > 0:
            ref_side = all(abs(w @ p.u) >= abs(w @ p.v) - 1e-10 for w in lifted)
            assert maximizer_side_check(p, d) == ref_side
        if len(ref.points) != 1:
            with pytest.raises(NondifferentiablePointError):
                ratio_squared_grad(p, d)
            continue
        # Scale invariance gives alpha*d_alpha + beta*d_beta = (2 value / sigma)
        # * (|p_A(w)| - sigma) for the lifted maximizer w, so it vanishes only
        # when w attains the norm, i.e. lies in the unique reference class.
        g = ratio_squared_grad(p, d)
        assert abs(p.alpha * g.d_alpha + p.beta * g.d_beta) <= 1e-10 * value


def test_grad_matches_finite_differences(rng):
    h = 1e-6
    checked = 0
    while checked < 15:
        d = int(rng.integers(3, 7))
        hi, lo = sorted((math.exp(rng.normal()), math.exp(rng.normal())), reverse=True)
        if hi - lo < 0.05 * hi:
            continue
        phi = rng.uniform(0.15, 1.4)
        p = canonical_params(hi, lo, [1.0, 0.0], [math.cos(phi), math.sin(phi)], d)
        try:
            g = ratio_squared_grad(p, d)
        except NondifferentiablePointError:
            continue
        fd_alpha = (
            ratio_squared(RankTwoParams(p.alpha + h, p.beta, p.u, p.v), d)
            - ratio_squared(RankTwoParams(p.alpha - h, p.beta, p.u, p.v), d)
        ) / (2 * h)
        t = np.array([-p.v[1], p.v[0]])
        vp = unit(p.v + h * t)
        vm = unit(p.v - h * t)
        fd_v = (
            ratio_squared(RankTwoParams(p.alpha, p.beta, p.u, vp), d)
            - ratio_squared(RankTwoParams(p.alpha, p.beta, p.u, vm), d)
        ) / (2 * h)
        assert fd_alpha == pytest.approx(g.d_alpha, rel=1e-5, abs=1e-8)
        assert fd_v == pytest.approx(float(g.d_v @ t), rel=1e-5, abs=1e-8)
        assert g.norm() > 1e-10
        checked += 1


def test_grad_scale_invariance_direction():
    p = canonical_params(2.0, 1.0, [1.0, 0.0], [math.cos(0.7), math.sin(0.7)], 3)
    g = ratio_squared_grad(p, 3)
    assert abs(p.alpha * g.d_alpha + p.beta * g.d_beta) < 1e-12


def test_grad_nondifferentiable_detection():
    # equal-coefficient symmetric family has two reflected maximizers
    t = 0.4
    p = canonical_params(1.0, 1.0, [1.0, t], [1.0, -t], 3)
    assert count_global_maximizers(make_rank_two(p, 3)) == 2
    with pytest.raises(NondifferentiablePointError):
        ratio_squared_grad(p, 3)


def test_project_pair_examples():
    e = np.eye(4)
    a, b, P = project_pair(e[0], e[1], e[0], 5)
    assert (a, b) == (1.0, 0.0)
    assert frob_norm(P - sym_rank_one(e[0], 5)) < 1e-14
    a, b, P = project_pair(e[0], e[1], e[2], 5)
    assert a == b == 0.0
    assert P.is_zero
    with pytest.raises(DegenerateSpanError):
        project_pair(e[0], e[0], e[1], 4)


def test_project_pair_against_ambient_normal_equations(rng):
    for _ in range(15):
        n = int(rng.integers(2, 5))
        d = int(rng.integers(2, 7))
        u = unit(rng.standard_normal(n))
        v = unit(rng.standard_normal(n))
        if abs(u @ v) > 0.99:
            continue
        w = rng.standard_normal(n)
        a, b, _ = project_pair(u, v, w, d)
        basis = [np.multiply.outer(dense_pow(u, d - 1), np.eye(n)[i]).ravel() for i in range(n)]
        basis += [np.multiply.outer(dense_pow(v, d - 1), np.eye(n)[i]).ravel() for i in range(n)]
        coef, *_ = np.linalg.lstsq(np.column_stack(basis), dense_pow(w, d).ravel(), rcond=None)
        assert np.linalg.norm(coef[:n] - a * w) < 1e-10 * max(1.0, abs(a) * np.linalg.norm(w))
        assert np.linalg.norm(coef[n:] - b * w) < 1e-10 * max(1.0, abs(b) * np.linalg.norm(w))


def test_critical_equation_examples():
    assert critical_equation_roots(1.0, 0.0, 1.0, 2) == pytest.approx([0.0, 2.0], abs=1e-12)
    golden = (1 + math.sqrt(5)) / 2
    roots = critical_equation_roots(1.0, 0.0, 1.0, 3)
    assert roots == pytest.approx([1 - golden, 0.0, golden], abs=1e-12)
    with pytest.raises(ValueError):
        critical_equation_roots(-1.0, 0.0, 1.0, 3)
    with pytest.raises(ValueError):
        critical_equation_roots(1.0, -0.5, 1.0, 3)


def test_critical_equation_root_count_law(rng):
    for d in range(3, 9):
        for _ in range(100):
            a = math.exp(rng.normal())
            gamma = math.exp(rng.normal())
            b = 0.0 if rng.random() < 0.1 else abs(rng.normal())
            roots = critical_equation_roots(a, b, gamma, d)
            assert len(roots) == 2 + d % 2


def test_maximizer_side_check(rng):
    p = canonical_params(2.0, 1.0, [1.0, 0.0], [0.0, 1.0], 4)
    assert maximizer_side_check(p, 4)
    for _ in range(30):
        d = int(rng.integers(3, 8))
        hi, lo = sorted((math.exp(rng.normal()), math.exp(rng.normal())), reverse=True)
        if hi <= lo:
            continue
        p = canonical_params(hi, lo, rng.standard_normal(2), rng.standard_normal(2), d)
        if not p.alpha > p.beta > 0:
            continue
        assert maximizer_side_check(p, d)
    with pytest.raises(ValueError):
        maximizer_side_check(canonical_params(1.0, 1.0, [1.0, 0.1], [1.0, -0.1], 3), 3)


def test_equal_family_functions():
    assert equal_diff_frob_sq(3, 1.0) == pytest.approx(16.0, rel=1e-14)
    for d in range(3, 9):
        lim = (1 - 1 / d) ** (d - 1)
        assert equal_diff_ratio_lb(d, 0.0) == pytest.approx(lim, rel=1e-15)
        assert abs(equal_diff_ratio_lb(d, 1e-4) - lim) < 1e-6
        ts = np.linspace(1e-4, 1 / math.sqrt(d - 1) - 1e-4, 400)
        vals = [equal_diff_ratio_lb(d, float(t)) for t in ts]
        assert all(b > a for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        equal_diff_spectral_lb(4, 1.5)


def test_classify_case():
    e1 = [1.0, 0.0]
    v = [math.cos(0.5), math.sin(0.5)]
    assert classify_case(canonical_params(1.0, -1.0, e1, v, 3)) is CaseTag.SUM
    assert classify_case(canonical_params(1.0, 1.0, e1, v, 3)) is CaseTag.EQUAL
    assert classify_case(canonical_params(2.0, 1.0, e1, v, 3)) is CaseTag.GENERIC
    with pytest.raises(ValueError):
        classify_case(RankTwoParams(1.0, 2.0, np.array(e1), np.array(v)))


def test_min_ratio_search_d3():
    res = min_ratio_search(3, SearchConfig(starts=16, budget=4000, seed=0))
    bound_sq = (1 - 1 / 3) ** 2
    assert bound_sq < res.value <= bound_sq + 1e-3
    assert res.ratio > extremal_ratio(3)
    assert res.ratio - extremal_ratio(3) < 1e-3
    assert res.evaluations <= 4000
    assert res.trace
    assert res.params.alpha > 0
    # drift diagnostics: coefficients balance and the angle collapses
    diag = res.diagnostics
    assert diag["theta"] < 1e-2
    assert abs(diag["coeff_balance"] - 1.0) < 0.1
    assert diag["cancellation"] < 0.05


def test_min_ratio_search_never_below_bound():
    for d, seed in [(4, 1), (5, 2)]:
        res = min_ratio_search(d, SearchConfig(starts=12, budget=2500, seed=seed))
        assert res.value > (1 - 1 / d) ** (d - 1) - 1e-9
        assert res.ratio < extremal_ratio(d) + 5e-3
    with pytest.raises(ValueError):
        min_ratio_search(2)


def test_border_ratio_scan():
    for d in (3, 5):
        rows = border_ratio_scan(d, 41)
        bound = extremal_ratio(d)
        assert rows[0].a == 0.0
        assert rows[0].ratio == pytest.approx(bound, abs=1e-10)
        assert rows[-1].ratio == pytest.approx(1.0, abs=1e-12)
        for row in rows:
            assert abs(row.a**2 + row.b**2 * d - 1.0) < 1e-12
            assert row.lb_interior <= row.ratio + 1e-12
            assert row.lb_axis <= row.ratio + 1e-12
            if row.a > 0:
                assert row.ratio > bound
    with pytest.raises(ValueError):
        border_ratio_scan(3, 1)
