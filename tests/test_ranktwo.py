import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import dense_pow
from tensorratio import harness, ranktwo
from tensorratio.cli import main
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
    equal_diff_chart,
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


_SCALARS = st.floats(0.05, 20.0).flatmap(lambda x: st.sampled_from([x, -x]))


@settings(max_examples=60)
@given(d=st.integers(3, 8), alpha=_SCALARS, beta=_SCALARS, phi=st.floats(0.0, 2.0 * math.pi),
       gap=st.floats(0.05, math.pi - 0.05), su=_SCALARS, sv=_SCALARS)
def test_canonical_params_keeps_both_norms(d, alpha, beta, phi, gap, su, sv):
    # Scaled, sign-flipped u and v and either ordering of |alpha|, |beta|:
    # the canonical tensor has the input's Frobenius and exact spectral norm.
    u = su * np.array([math.cos(phi), math.sin(phi)])
    v = sv * np.array([math.cos(phi + gap), math.sin(phi + gap)])
    A = alpha * sym_rank_one(u, d) - beta * sym_rank_one(v, d)
    B = make_rank_two(canonical_params(alpha, beta, u, v, d), d)
    assert frob_norm(B) == pytest.approx(frob_norm(A), rel=1e-11)
    assert spectral_norm_binary(B).value == pytest.approx(spectral_norm_binary(A).value, rel=1e-11)


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
        # prop-unique counts the maximizers of the chart form.
        assert len(ranktwo._chart_of(p, d)[0].points) == len(ref.points)
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
        # The bound once divided by d^(d/2), which overflows at high order;
        # at low order the two forms agree to roundoff.
        old = [ranktwo._pow_diff(math.sqrt(d - 1.0), t, d) / d ** (d / 2.0) for t in ts.tolist()]
        assert [equal_diff_spectral_lb(d, t) for t in ts.tolist()] == pytest.approx(old, rel=1e-14)
    with pytest.raises(ValueError):
        equal_diff_spectral_lb(4, 1.5)
    # The chart of u^d - v^d, u = (1, t), v = (1, -t), against the tensor itself.
    for d in (3, 4, 8):
        for t in (1e-4, 0.02, 0.3, 1.0):
            alpha, beta, theta = equal_diff_chart(d, t)
            p = canonical_params(1.0, 1.0, [1.0, t], [1.0, -t], d)
            assert alpha == beta == pytest.approx(p.alpha, rel=1e-14)
            assert theta == pytest.approx(math.acos(float(p.u @ p.v)), rel=1e-12)
            maxima, _, fro_sq = ranktwo.chart_batch([(alpha, beta, theta)], d)
            assert maxima.values[0] ** 2 / fro_sq[0] == pytest.approx(ratio_squared(p, d), rel=1e-13)
    with pytest.raises(ValueError):
        equal_diff_chart(4, 1.5)


_ORDER_TAKERS = {
    "chart_batch": lambda d: ranktwo.chart_batch([(2.0, 1.0, 0.5), (1.0, -0.6, 1.1)], d)[0].values,
    "border_batch": lambda d: ranktwo.border_batch([(0.3, 0.8), (0.0, 1.0)], d)[0].values,
    "critical_equation_roots_batch": lambda d: ranktwo.critical_equation_roots_batch(
        [(1.0, 0.5, 2.0), (0.7, 0.0, 1.3)], d)[0],
    "border_ratio_scan": lambda d: border_ratio_scan(d, 3)[2],
}


@pytest.mark.parametrize("name", sorted(_ORDER_TAKERS))
def test_non_integral_order_is_rejected(name):
    # A non-integral order was once truncated: chart_batch(rows, 4.9) solved
    # at order 4.  Integral floats and numpy integers are still orders.
    solve = _ORDER_TAKERS[name]
    for want, orders in [(solve(4), (np.int64(4), 4.0, np.float64(4.0))),
                         (solve([4, 5]), ([4.0, 5.0], np.array([4, 5], dtype=np.int64)))]:
        for d in orders:
            assert np.array_equal(solve(d), want)
    for d in (4.9, 3.7, [4, 4.5], math.nan, math.inf):
        with pytest.raises(ValueError, match="integer"):
            solve(d)


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


class _BudgetExhausted(Exception):
    pass


class _ObjectiveReference:
    """The one-candidate-at-a-time objective: one solve and one charge per call."""

    def __init__(self, d, budget):
        self.d = d
        self.budget = budget
        self.evals = 0

    def __call__(self, x):
        alpha, beta, theta = x
        if self.evals >= self.budget:
            raise _BudgetExhausted
        self.evals += 1
        if not (alpha > 0.0) or beta == 0.0 or not ranktwo._THETA_MIN <= theta <= math.pi / 2:
            return math.inf
        try:
            maxima, _, [fro_sq] = ranktwo.chart_batch([(alpha, beta, theta)], self.d)
        except ValueError:
            return math.inf
        if fro_sq <= 0.0:
            return math.inf
        return float(maxima.values[0] ** 2 / fro_sq)


def _coordinate_search_reference(f, x, fx, trace, start_id):
    x = np.asarray(x, dtype=float).copy()
    h = 0.1
    while h > 1e-12:
        moved = False
        for j in range(3):
            for direction in (1.0, -1.0):
                cand = x.copy()
                cand[j] = x[j] * (1.0 + direction * h) if j < 2 else x[j] + direction * h
                fc = f(cand)
                if fc < fx:
                    x, fx, moved = cand, fc, True
                    trace.append({"start": start_id, "F": fx, "alpha": float(x[0]),
                                  "beta": float(x[1]), "theta": float(x[2])})
        if not moved:
            h *= 0.5
    return x, fx


def _min_ratio_search_reference(d, cfg, ended=None):
    """The sequential search: every start one after another on one objective.

    ended, when given, gets the index of the start the budget ran out in.
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed))
    f = _ObjectiveReference(d, cfg.budget)
    trace = []
    starts = []
    for t in np.geomspace(0.4, 0.02, 6):
        scale = (1.0 + t * t) ** (d / 2.0)
        starts.append((scale, scale, 2.0 * math.atan(t)))
    while len(starts) < max(cfg.starts, 8):
        alpha = math.exp(rng.normal())
        beta = math.exp(rng.normal()) * rng.choice([1.0, -1.0])
        theta = rng.uniform(0.05, math.pi / 2)
        starts.append((alpha, beta, theta))
    best_x, best_f, best_start = None, math.inf, None
    exhausted = False
    try:
        for where, x0 in enumerate(starts):
            f0 = f(x0)
            if not math.isfinite(f0):
                continue
            if best_start is None or f0 < best_start[1]:
                best_start = (x0, f0)
            x, fx = _coordinate_search_reference(f, x0, f0, trace, where)
            if fx < best_f:
                best_x, best_f = x, fx
    except _BudgetExhausted:
        exhausted = True
        if ended is not None:
            ended.append(where)
    if best_x is None:
        if best_start is None:
            raise ValueError("no start produced a finite objective within the budget")
        best_x, best_f = best_start
    alpha, beta, theta = (float(t) for t in best_x)
    params = canonical_params(alpha, beta, np.array([1.0, 0.0]),
                              np.array([math.cos(theta), math.sin(theta)]), d)
    return ranktwo.MinRatioResult(value=float(best_f), ratio=math.sqrt(best_f), alpha=alpha,
                                  beta=beta, theta=theta, order=d, params=params,
                                  evaluations=f.evals, budget_exhausted=exhausted, trace=trace)


def _assert_same_search(res, ref):
    for name in ("value", "ratio", "alpha", "beta", "theta", "order", "evaluations",
                 "budget_exhausted"):
        assert getattr(res, name) == getattr(ref, name), name
    assert (res.params.alpha, res.params.beta) == (ref.params.alpha, ref.params.beta)
    assert np.array_equal(res.params.u, ref.params.u)
    assert np.array_equal(res.params.v, ref.params.v)
    assert json.dumps(res.trace) == json.dumps(ref.trace)


def test_min_ratio_search_matches_sequential_reference():
    # The lockstep balanced starts and the stacked polls against the
    # one-candidate-at-a-time search.  At d = 3 the balanced starts charge
    # 349, 319, 367, 325, 313 and 337 evaluations, and the first random start
    # (seed 3) does not finish within 40,000, so the budgets below end inside
    # each balanced start and the first random start.  At 1,600 start 4
    # finishes in its group while start 3 is still charging, and the replay
    # finds it over its real cap.  At 349 and 668 the budget ends exactly at
    # the end of start 0 and of start 1, so the next start gets no points;
    # at 2,010 the first random start starts with nothing left.
    # Budgets up to 333 end in the first polls, and the default budget
    # reaches the random starts.  With starts=1 (8 starts) at d = 4 and
    # seed 4 every start finishes, after 2,906 evaluations.
    cases = [(d, SearchConfig(starts=16, budget=budget, seed=d))
             for d in (3, 4, 5, 6) for budget in (1, 7, 50, 333, 2000)]
    cases += [(3, SearchConfig(starts=16, budget=budget, seed=3))
              for budget in (349, 500, 668, 850, 1200, 1600, 1850, 2010, 3600)]
    cases += [(3, SearchConfig(budget=10_000, seed=3)),
              (4, SearchConfig(starts=64, budget=2500, seed=700100)),
              (4, SearchConfig(starts=1, budget=12_000, seed=4))]
    ended = []
    for d, cfg in cases:
        _assert_same_search(min_ratio_search(d, cfg), _min_ratio_search_reference(d, cfg, ended))
    assert set(range(7)) <= set(ended) and len(ended) == len(cases) - 1


def test_min_ratio_search_stacks_the_balanced_starts(monkeypatch):
    # The six balanced starts share one stacked solve per round: about 70
    # solves at budget 2000, where one start at a time takes about 350.
    calls = []
    chart_batch = ranktwo.chart_batch

    def counting(rows, d):
        calls.append(len(rows))
        return chart_batch(rows, d)

    monkeypatch.setattr(ranktwo, "chart_batch", counting)
    min_ratio_search(4, SearchConfig(starts=16, budget=2000, seed=0))
    assert len(calls) <= 80


def test_descend_matches_sequential_reference(monkeypatch):
    # Compass searches from starts off the alpha = beta kink, each run alone
    # through _drive, with budgets that end at the first value, before a
    # poll stack or inside one.  A cut run's last request is empty when the
    # budget ends before a stack, and holds the paid points when it ends
    # inside one.
    sizes = []
    objective = ranktwo._objective
    monkeypatch.setattr(ranktwo, "_objective", lambda xs, d: sizes.append(len(xs)) or objective(xs, d))
    ends_inside = []
    for d in (3, 4, 5, 6):
        for x0 in [(1.5, 0.5, 0.7), (2.0, -0.8, 1.2)]:
            for budget in (2, 17, 50, 333, 600):
                sizes.clear()
                [(n, _, result, recs)] = ranktwo._drive([ranktwo._start(x0, 0, budget)], d)
                out = [None if n > budget else (result[0].tolist(), result[1]),
                       min(n, budget), json.dumps([rec for _, rec in recs])]
                f, trace = _ObjectiveReference(d, budget), []
                try:
                    x, fx = _coordinate_search_reference(f, x0, f(x0), trace, 0)
                    ref = (x.tolist(), fx)
                except _BudgetExhausted:
                    ref = None
                assert out == [ref, f.evals, json.dumps(trace)]
                ends_inside.append(n > budget and sizes[-1] > 0)
    assert any(ends_inside)


def test_cli_search_matches_sequential_reference(monkeypatch, tmp_path, capsys):
    out = []
    for search in (min_ratio_search, _min_ratio_search_reference):
        monkeypatch.setattr(harness, "min_ratio_search", search)
        path = tmp_path / f"{search.__name__}.jsonl"
        assert main(["search", "min-ratio-sym", "--d", "4", "--budget", "2000", "--starts", "16",
                     "--trace", str(path)]) == 0
        out.append((capsys.readouterr().out, path.read_text()))
    assert out[0] == out[1]
    assert out[0][1].count("\n") > 10


def _same_chart_rows(stacked, singles):
    """Each row of a stacked chart_batch result equals its own one-row result, bit for bit."""
    maxima, one_minus_cd, fro_sq = stacked
    assert len(maxima.values) == len(singles)
    for i, single in enumerate(singles):
        ms, ms1 = ranktwo._chart_entry(stacked, i), ranktwo._chart_entry(single, 0)
        assert (ms[0].value, ms[1], ms[2]) == (ms1[0].value, ms1[1], ms1[2])
        assert len(ms[0].points) == len(ms1[0].points) == maxima.counts[i]
        assert all(np.array_equal(w, w1) for w, w1 in zip(ms[0].points, ms1[0].points))


def test_chart_batch_matches_chart():
    # Rows the search objective would reject (alpha <= 0, beta = 0, theta off
    # its range) are still charts; each row of the stack equals its own solve,
    # at theta = 1e-5 and pi/2, beta < 0 and alpha = beta among them.
    rows = [(1.3, 0.7, 0.4), (-0.5, 0.9, 1.1), (2.0, 0.0, 0.3), (1.0, 1.0, 1e-6),
            (0.8, -1.4, 2.5), (1.0, 1.0, math.pi / 2), (3.0, 2.0, -0.2), (1.7, 1.7, 1e-5),
            (2.0, -0.5, 1e-5), (0.9, -2.2, math.pi / 2), (1.4, 1.4, 0.7)]
    rng = np.random.default_rng(5)
    rows += [(math.exp(rng.normal()), math.exp(rng.normal()) * rng.choice([-1.0, 1.0]),
              rng.uniform(1e-5, math.pi / 2)) for _ in range(20)]
    for d in range(2, 13):
        _same_chart_rows(ranktwo.chart_batch(rows, d), [ranktwo.chart_batch([r], d) for r in rows])
    maxima, one_minus_cd, fro_sq = ranktwo.chart_batch([], 4)
    assert maxima.values.shape == maxima.counts.shape == one_minus_cd.shape == fro_sq.shape == (0,)


def test_chart_batch_mixed_orders_equal_per_order_stacks():
    # One stack over orders 2..12 gives, row by row, the bits of the stack of
    # each order alone; so do the critical-equation polynomials of lemma-roots.
    rng = np.random.default_rng(6)
    orders = list(range(2, 13))
    per_d = {d: [(math.exp(rng.normal()), math.exp(rng.normal()) * rng.choice([-1.0, 1.0]),
                  rng.uniform(1e-5, math.pi / 2)) for _ in range(9)] + [(1.0, 1.0, 1e-5)]
             for d in orders}
    rows = [r for d in orders for r in per_d[d]]
    ds = np.repeat(orders, [len(per_d[d]) for d in orders])
    mixed = ranktwo.chart_batch(rows, ds)
    parts = [ranktwo.chart_batch(per_d[d], d) for d in orders]
    assert np.array_equal(mixed[0].values, np.concatenate([p[0].values for p in parts]))
    assert np.array_equal(mixed[0].points, np.concatenate([p[0].points for p in parts]))
    assert np.array_equal(mixed[0].counts, np.concatenate([p[0].counts for p in parts]))
    for k in (1, 2):
        assert np.array_equal(mixed[k], np.concatenate([p[k] for p in parts]))
    abg = {d: [(math.exp(rng.normal()), 0.0 if i % 4 == 0 else abs(rng.normal()),
                math.exp(rng.normal())) for i in range(12)] for d in orders}
    roots, counts = ranktwo.critical_equation_roots_batch(
        [r for d in orders for r in abg[d]], np.repeat(orders, 12))
    per = [ranktwo.critical_equation_roots_batch(abg[d], d) for d in orders]
    assert np.array_equal(roots, np.concatenate([r for r, _ in per]))
    assert np.array_equal(counts, np.concatenate([c for _, c in per]))


def test_objective_stack_isolates_failed_rows():
    # Rows off the search's chart (alpha <= 0, beta = 0, theta below the
    # floor or past pi/2) get inf; the other rows keep their values.
    xs = [(1.3, 0.7, 0.4), (0.0, 0.5, 0.4), (1.2, 0.0, 0.4), (1.2, 0.5, 1e-6),
          (1.2, 0.5, 2.0), (0.9, -1.1, 1.0)]
    values = ranktwo._objective(xs, 4)
    expected = [_ObjectiveReference(4, 1)(x) if i in (0, 5) else math.inf for i, x in enumerate(xs)]
    assert values == expected
    assert all(math.isfinite(values[i]) for i in (0, 5))


def test_border_ratio_scan():
    for d in (3, 5):
        a, b, ratio, lb_interior, lb_axis, order = border_ratio_scan(d, 41)
        bound = extremal_ratio(d)
        assert a[0] == 0.0 and (order == d).all() and len(a) == 41
        assert ratio[0] == pytest.approx(bound, abs=1e-10)
        assert ratio[-1] == pytest.approx(1.0, abs=1e-12)
        assert (np.abs(a**2 + b**2 * d - 1.0) < 1e-12).all()
        assert (lb_interior <= ratio + 1e-12).all()
        assert (lb_axis <= ratio + 1e-12).all()
        assert (ratio[a > 0] > bound).all()
        # The interior bound once went through d^(d/2), which overflows from
        # d = 256 on; below that the two forms agree to roundoff.
        old = [(x * (d - 1.0) ** (d / 2.0) + y * d * (d - 1.0) ** ((d - 1) / 2.0)) / d ** (d / 2.0)
               for x, y in zip(a.tolist(), b.tolist())]
        assert lb_interior == pytest.approx(old, rel=1e-14)
    # A one-point grid is the a = 0 row alone (border-scan at budget 1).
    one = border_ratio_scan(4, 1)
    assert one[0].tolist() == [0.0]
    assert [x[0] for x in one] == [x[0] for x in border_ratio_scan(4, 41)]
    with pytest.raises(ValueError):
        border_ratio_scan(3, 0)
    with pytest.raises(ValueError):
        border_ratio_scan([3, 1], 5)


def test_border_ratio_scan_stacked_equals_per_order():
    # One stacked solve over orders 2..12 gives every order's own scan, bit for bit.
    orders = range(2, 13)
    stacked = border_ratio_scan(orders, 23)
    for d in orders:
        at = stacked[5] == d
        for got, want in zip(stacked, border_ratio_scan(d, 23)):
            assert np.array_equal(got[at], want)


def test_border_batch_matches_make_border():
    # Per-row orders in one stack, against make_border and the one-tensor solver.
    rng = np.random.default_rng(3)
    ds = np.array([2, 3, 4, 5, 8, 12, 3, 300, 300, 7])
    rows = np.abs(rng.standard_normal((len(ds), 2)))
    rows[1, 0] = rows[7, 0] = 0.0  # the extremal rows
    rows[2, 1] = 0.0  # a rank-one row
    maxima, fro_sq = ranktwo.border_batch(rows, ds)
    e1, e2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    for i, ((a, b), d) in enumerate(zip(rows.tolist(), ds.tolist())):
        T = make_border(BorderParams(a=a, b=b, u=e1, v=e2), d)
        assert maxima.values[i] == pytest.approx(spectral_norm_binary(T).value, rel=1e-13)
        assert fro_sq[i] == pytest.approx(frob_norm(T) ** 2, rel=1e-13)
    with pytest.raises(ValueError):
        ranktwo.border_batch([(1.0, 1.0)], 1)
