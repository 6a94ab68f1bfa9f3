import math

import numpy as np
import pytest

from conftest import antipodal_classes_reference, circle_grid_max, random_binary, to_dense
from tensorratio.config import IterConfig
from tensorratio.ranktwo import extremal_ratio, extremal_spectral_norm, extremal_tensor
from tensorratio.spectral import (
    REL_MAX_TOL,
    DegenerateTensorError,
    ANTIPODAL_TOL,
    _antipodal_classes,
    best_rank_one,
    binary_coeffs,
    count_global_maximizers,
    ratio,
    relative_distance,
    spectral_norm_binary,
    spectral_norm_binary_batch,
    spectral_norm_binary_coeffs,
    spectral_norm_power,
)
from tensorratio.symtensor import (
    SymTensor,
    exponent_tuples,
    frob_norm,
    poly_eval,
    poly_grad,
    poly_hess,
    sym_rank_one,
)


def test_binary_power_direction():
    ms = spectral_norm_binary(sym_rank_one([1.0, 0.0], 5))
    assert ms.value == pytest.approx(1.0, abs=1e-14)
    assert len(ms.points) == 1
    assert np.allclose(ms.points[0], [1.0, 0.0])
    assert ms.is_exact


def test_binary_extremal_tensor():
    ms = spectral_norm_binary(extremal_tensor(3))
    assert ms.value == pytest.approx(2 / math.sqrt(3), rel=1e-14)
    expected = {(math.sqrt(2 / 3), 1 / math.sqrt(3)), (math.sqrt(2 / 3), -1 / math.sqrt(3))}
    got = {tuple(np.round(p, 10)) for p in ms.points}
    assert got == {tuple(np.round(e, 10)) for e in expected}


def test_binary_two_maximizer_classes():
    A = sym_rank_one([1.0, 0.0], 3) - sym_rank_one([0.0, 1.0], 3)
    ms = spectral_norm_binary(A)
    assert ms.value == pytest.approx(1.0, abs=1e-12)
    assert count_global_maximizers(A) == 2
    assert ms.value >= circle_grid_max(binary_coeffs(A), 200_000) - 1e-9


def test_binary_grid_oracle(rng):
    for _ in range(20):
        d = int(rng.integers(2, 11))
        A = random_binary(rng, d)
        value = spectral_norm_binary(A).value
        grid = circle_grid_max(binary_coeffs(A), 200_000)
        assert value >= grid - 1e-9
        assert value <= grid + 1e-6


def test_binary_rejects_zero_and_degenerate():
    with pytest.raises(ValueError):
        spectral_norm_binary(SymTensor(3, 2, {}))
    # rotation-invariant quartic (x^2+y^2)^2: every direction is critical
    A = SymTensor(4, 2, {(4, 0): 1.0, (2, 2): 1.0 / 3.0, (0, 4): 1.0})
    with pytest.raises(DegenerateTensorError):
        spectral_norm_binary(A)
    with pytest.raises(ValueError):
        spectral_norm_binary(sym_rank_one([1.0, 0.0, 0.0], 3))


def test_power_pure_tensor(rng):
    u = rng.standard_normal(4)
    u /= np.linalg.norm(u)
    ms = spectral_norm_power(sym_rank_one(u, 5), IterConfig(starts=4, seed=0))
    assert ms.value == pytest.approx(1.0, abs=1e-8)
    w = ms.points[0]
    assert min(np.linalg.norm(w - u), np.linalg.norm(w + u)) < 1e-8
    assert not ms.is_exact


def test_power_agrees_with_binary(rng):
    for i in range(25):
        d = int(rng.integers(2, 9))
        A = random_binary(rng, d)
        exact = spectral_norm_binary(A).value
        approx = spectral_norm_power(A, IterConfig(starts=16, seed=i)).value
        assert abs(exact - approx) < 1e-8


def test_power_even_order_negative_side():
    # -u^4 has |p| maximal where p is most negative
    A = -1.0 * sym_rank_one([0.6, 0.8], 4)
    ms = spectral_norm_power(A, IterConfig(starts=8, seed=1))
    assert ms.value == pytest.approx(1.0, abs=1e-10)


def test_power_embedded_extremal():
    W4 = extremal_tensor(4)
    emb = SymTensor(4, 3, {(e[0], e[1], 0): v for e, v in W4.items()})
    ms = spectral_norm_power(emb, IterConfig(starts=8, seed=0))
    assert ms.value == pytest.approx(2 * (3 / 4) ** 1.5, abs=1e-10)


def _power_reference(A, cfg, adaptive=True):
    """SS-HOPM one start and one sign at a time: the stacked solver's contract.

    adaptive=False takes the global shift d(d-1) ||A||_F at every step, the
    fixed-shift iteration kept as a value reference.  Returns the value, the
    maximizer classes, their convergence, the most steps any row took, and
    how many adaptive steps fell back to the global shift.
    """
    n, d = A.dim, A.order
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    starts = [np.eye(n)[i] for i in range(n)]
    for _ in range(cfg.starts):
        w = rng.standard_normal(n)
        starts.append(w / np.linalg.norm(w))
    probes = rng.standard_normal((64, n))
    probes /= np.linalg.norm(probes, axis=1, keepdims=True)
    starts.append(max(probes, key=lambda w: abs(poly_eval(A, w))))
    fro = frob_norm(A)
    shift = d * max(d - 1, 1) * fro
    crit_tol = 1e-11 * d * fro
    candidates, most_steps, fallbacks = [], 0, 0

    def unit(g):
        norm_g = np.linalg.norm(g)
        return g / norm_g if norm_g else g

    for w0 in starts:
        for sign in (1.0, -1.0) if d % 2 == 0 else (1.0,):
            w, f_prev, converged = w0, -math.inf, False
            for steps in range(1, cfg.max_iters + 1):
                grad = poly_grad(A, w)
                f = sign * float(w @ grad) / d
                assert f >= f_prev - 1e-9 * (abs(f_prev) + fro)
                f_prev = f
                if np.linalg.norm(grad - (grad @ w) * w) < crit_tol:
                    converged = True
                    break
                w_new = unit(sign * grad + shift * w)
                if adaptive:
                    lam = np.linalg.eigvalsh(poly_hess(A, w) * (sign / fro))[0]
                    trial = unit(sign * grad + fro * max(0.0, 1e-6 - lam) * w)
                    if sign * poly_eval(A, trial) >= f - 1e-9 * (abs(f) + fro):
                        w_new = trial
                    else:
                        fallbacks += 1
                if not w_new.any():
                    converged = True
                    break
                step = np.linalg.norm(w_new - w)
                w = w_new
                if step < cfg.tol:
                    converged = True
                    break
            most_steps = max(most_steps, steps)
            candidates.append((abs(poly_eval(A, w)), w, converged))
    value = max(v for v, _, _ in candidates)
    near = [(w, ok) for v, w, ok in candidates if v >= value * (1.0 - REL_MAX_TOL)]
    return (value, antipodal_classes_reference([w for w, _ in near]), all(ok for _, ok in near),
            most_steps, fallbacks)


def _random_form(rng, n, d):
    return SymTensor(d, n, {e: rng.standard_normal() for e in exponent_tuples(n, d)})


def _fallback_case():
    """An order-5 form on which four adaptive steps do not ascend and fall
    back to the global shift."""
    return _random_form(np.random.default_rng(32), 3, 5), IterConfig(starts=2, seed=32)


def test_power_stack_matches_per_start_reference(rng):
    # Random forms of odd and even order; a rank-one form whose axis rows stop
    # at the first criticality test; a cap of 5 iterations, where rows stop
    # unconverged while others are still running; tol = 1e-8, where rows
    # stop on the step test before the criticality test; and a form on which
    # the adaptive step falls back to the global shift.
    cases = []
    for d in (3, 4, 5, 6):
        n = 3 + d % 2
        A = _random_form(rng, n, d)
        cases += [(A, IterConfig(starts=3, seed=d)), (A, IterConfig(starts=2, max_iters=5, seed=d)),
                  (A, IterConfig(starts=2, tol=1e-8, seed=d))]
    cases.append((sym_rank_one([1.0, 0.0, 0.0, 0.0], 4), IterConfig(starts=3, seed=1)))
    cases.append((sym_rank_one([0.6, 0.0, 0.8], 5), IterConfig(starts=3, max_iters=5, seed=2)))
    cases.append(_fallback_case())
    seen, fallbacks = set(), 0
    for A, cfg in cases:
        ms = spectral_norm_power(A, cfg)
        value, points, converged, most_steps, fell_back = _power_reference(A, cfg)
        assert ms.value == value
        assert len(ms.points) == len(points)
        assert all(np.array_equal(w, w0) for w, w0 in zip(ms.points, points))
        assert ms.converged == converged
        assert ms.iterations == most_steps
        seen.add(converged)
        fallbacks += fell_back
    assert seen == {True, False}
    assert fallbacks > 0


def test_power_adaptive_shift_keeps_fixed_shift_values():
    # The adaptive shift reaches the values the fixed global shift reaches,
    # in far fewer stacked steps: random forms of orders 3..6 in dims 3 and
    # 4, the form on which the adaptive step falls back, and an order-5 form
    # whose four starts the tangent-projected Hessian (without its Lagrangian
    # term) would take to a maximum 74% higher than the global shift reaches.
    rng = np.random.default_rng(2024)
    cases = [(_random_form(rng, n, d), IterConfig(starts=2, seed=d)) for d in (3, 4, 5, 6) for n in (3, 4)]
    cases.append(_fallback_case())
    cases.append((_random_form(np.random.default_rng(2), 3, 5), IterConfig(starts=0, seed=2)))
    for A, cfg in cases:
        ms = spectral_norm_power(A, cfg)
        value, _, converged, most_steps, _ = _power_reference(A, cfg, adaptive=False)
        assert ms.value == pytest.approx(value, rel=1e-12)
        assert ms.converged and converged
        assert ms.iterations < most_steps


def test_power_scaling_equivariance(rng):
    # spectral_norm_power(c A) = |c| spectral_norm_power(A) for c of either
    # sign from 1e-120 to 1e120; odd orders run one sign, so c < 0 turns
    # every iterate into its antipode.
    for d in (3, 4, 5):
        A = _random_form(rng, 3, d)
        value = spectral_norm_power(A, IterConfig(starts=4, seed=d)).value
        for k in range(-120, 121, 30):
            for c in (10.0**k * 1.7, -(10.0**k) * 0.3):
                scaled = spectral_norm_power(c * A, IterConfig(starts=4, seed=d)).value
                assert scaled == pytest.approx(abs(c) * value, rel=1e-12), (d, c)


def _rotate(A, Q):
    """The tensor whose form is u -> p_A(Q^T u), from the dense array."""
    T = to_dense(A)
    for _ in range(A.order):
        T = np.tensordot(T, Q, axes=([0], [1]))
    return SymTensor(A.order, A.dim, {e: T[tuple(i for i, k in enumerate(e) for _ in range(k))]
                                     for e in exponent_tuples(A.dim, A.order)})


def _same_points_up_to_sign(P, Q, atol):
    """Whether P and Q have as many points, each within atol of a point of
    the other list or of its antipode."""
    P, Q = np.array(P), np.array(Q)
    if P.shape != Q.shape:
        return False
    dist = np.minimum(np.abs(P[:, None] - Q[None]).max(axis=2), np.abs(P[:, None] + Q[None]).max(axis=2))
    return bool((dist.min(axis=1) <= atol).all() and (dist.min(axis=0) <= atol).all())


def test_power_orthogonal_invariance(rng):
    # Rotations do not change the spectral norm and rotate the maximizers: a
    # rotated rank-one form has norm 1 at +-Q u, and the extremal W_d
    # embedded in dim 3 and rotated keeps its closed-form norm, at Q times
    # the maximizers of W_d.
    for d in range(3, 9):
        Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        u = rng.standard_normal(3)
        u /= np.linalg.norm(u)
        ms = spectral_norm_power(sym_rank_one(Q @ u, d), IterConfig(starts=4, seed=d))
        assert ms.value == pytest.approx(1.0, abs=1e-10)
        assert _same_points_up_to_sign(ms.points, [Q @ u], 1e-8)
        W = SymTensor(d, 3, {(e[0], e[1], 0): v for e, v in extremal_tensor(d).items()})
        ms = spectral_norm_power(_rotate(W, Q), IterConfig(starts=8, seed=d))
        assert ms.value == pytest.approx(extremal_spectral_norm(d), abs=1e-10)
        assert ms.converged
        expected = [Q @ np.append(w, 0.0) for w in spectral_norm_binary(extremal_tensor(d)).points]
        assert _same_points_up_to_sign(ms.points, expected, 1e-6), d


def test_best_rank_one_residual(rng):
    A = 5.0 * sym_rank_one([0.8, -0.6], 4)
    appr = best_rank_one(A)
    assert abs(appr.lam) == pytest.approx(5.0, rel=1e-12)
    for _ in range(10):
        A = random_binary(rng, 6, normalize=False)
        appr = best_rank_one(A)
        residual_sq = frob_norm(A - appr.lam * sym_rank_one(appr.w, 6)) ** 2
        expected = frob_norm(A) ** 2 - appr.lam**2
        assert residual_sq == pytest.approx(expected, rel=1e-10, abs=1e-10)


def test_best_rank_one_extremal():
    A = extremal_tensor(3)
    appr = best_rank_one(A)
    assert abs(appr.lam) == pytest.approx(2 / math.sqrt(3), rel=1e-12)
    residual_sq = frob_norm(A - appr.lam * sym_rank_one(appr.w, 3)) ** 2
    assert residual_sq == pytest.approx(3 - 4 / 3, rel=1e-12)
    assert appr.lam == pytest.approx(poly_eval(A, appr.w), rel=1e-12)


def test_best_rank_one_agrees_with_power(rng):
    A = random_binary(rng, 4)
    exact = best_rank_one(A)
    power = spectral_norm_power(A, IterConfig(starts=16, seed=3))
    assert abs(abs(exact.lam) - power.value) < 1e-8


def test_ratio_and_distance():
    assert ratio(sym_rank_one([0.3, 0.4, 0.5], 3, ), IterConfig(starts=8, seed=0)) == pytest.approx(1.0, abs=1e-9)
    for d in range(3, 9):
        assert ratio(extremal_tensor(d)) == pytest.approx(extremal_ratio(d), rel=1e-13)
    assert relative_distance(extremal_tensor(3)) == pytest.approx(math.sqrt(5) / 3, rel=1e-13)
    assert relative_distance(sym_rank_one([1.0, 2.0], 4)) == pytest.approx(0.0, abs=1e-7)
    with pytest.raises(ValueError):
        ratio(SymTensor(3, 2, {}))


def test_distance_monotone_toward_limit():
    values = [relative_distance(extremal_tensor(d)) for d in range(3, 41)]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert values[-1] < math.sqrt(1 - 1 / math.e)


def test_scaling_equivariance(rng):
    A = random_binary(rng, 5, normalize=False)
    c = -3.7
    assert spectral_norm_binary(c * A).value == pytest.approx(
        abs(c) * spectral_norm_binary(A).value, rel=1e-12
    )
    assert ratio(c * A) == pytest.approx(ratio(A), rel=1e-12)
    assert relative_distance(c * A) == pytest.approx(relative_distance(A), rel=1e-10, abs=1e-12)


def test_orthogonal_invariance(rng):
    # B is A in the rotated frame R = [q1 q2]: p_B(w) = p_A(R w), so the
    # ratios agree and R maps B's maximizers onto A's, up to sign.
    from tensorratio.symtensor import restrict_to_plane

    for _ in range(10):
        d = int(rng.integers(2, 8))
        A = random_binary(rng, d)
        phi = rng.uniform(0, 2 * np.pi)
        q1 = np.array([math.cos(phi), math.sin(phi)])
        q2 = np.array([-math.sin(phi), math.cos(phi)])
        B, frame = restrict_to_plane(A, q1, q2)
        assert ratio(B) == pytest.approx(ratio(A), abs=1e-10)
        R = np.column_stack([frame.q1, frame.q2])
        rotated = [R @ w for w in spectral_norm_binary(B).points]
        assert _same_points_up_to_sign(spectral_norm_binary(A).points, rotated, 1e-8), d


def test_maximizer_set_counts_and_json(rng):
    for _ in range(20):
        A = random_binary(rng, int(rng.integers(2, 9)))
        ms = spectral_norm_binary(A)
        assert count_global_maximizers(A) >= 1
        for w in ms.points:
            assert abs(np.linalg.norm(w) - 1.0) < 1e-12
            assert abs(abs(poly_eval(A, w)) - ms.value) <= 1e-9 * ms.value
        data = ms.to_json_dict()
        assert set(data) == {"value", "points", "is_exact"}


def test_axis_probe_not_double_counted():
    # maximizer hugging the first axis: the (1, 0) probe value falls within
    # the relative tolerance but must not add a second maximizer class
    from tensorratio.ranktwo import canonical_params, make_rank_two

    v = np.array([0.105, math.sqrt(1 - 0.105**2)])
    p = canonical_params(1.5996, 0.0210, [1.0, 0.0], v, 4)
    assert count_global_maximizers(make_rank_two(p, 4)) == 1


def test_axis_probe_still_counts_when_critical():
    A = sym_rank_one([1.0, 0.0], 6)
    ms = spectral_norm_binary(A)
    assert len(ms.points) == 1
    assert np.allclose(ms.points[0], [1.0, 0.0])


def test_binary_batch_rejects_non_integral_orders():
    # A non-integral order was once truncated, so order 3.5 solved row 0 at order 3.
    C = np.array([[1.0, -2.0, 0.5, 3.0, 0.0], [0.5, 1.0, -1.0, 0.25, 2.0]])
    want = spectral_norm_binary_batch(C).values
    for d in (4, np.int64(4), 4.0, [4.0, 4.0]):
        assert np.array_equal(spectral_norm_binary_batch(C, d).values, want)
    for d in (3.5, [3, 3.5], math.nan):
        with pytest.raises(ValueError, match="integer"):
            spectral_norm_binary_batch(C, d)


def test_batch_equals_single_rows(rng):
    # Random forms, forms with zero coefficients (axis probe critical or not)
    # and a maximizer hugging the axis share one stack per order.
    for d in (2, 3, 4, 7):
        C = rng.standard_normal((40, d + 1))
        C[::3, -1] = 0.0
        C[1::4, 0] = 0.0
        C[2::5, 1] = 0.0
        C = np.vstack([C, binary_coeffs(sym_rank_one([1.0, 0.0], d))])
        res = spectral_norm_binary_batch(C)
        assert res.counts.sum() == len(res.points) == len(res.row)
        assert np.array_equal(res.row, np.repeat(np.arange(len(C)), res.counts))
        for i, row in enumerate(C):
            ms, one = res.maximizer_set(i), spectral_norm_binary_coeffs(row)
            assert ms.value == one.value == res.values[i]
            assert ms.is_exact and one.is_exact
            assert len(ms.points) == len(one.points) == res.counts[i]
            for w, w1 in zip(ms.points, one.points):
                assert np.array_equal(w, w1)


def _binary_rows(rng, d, m):
    C = rng.standard_normal((m, d + 1))
    C[::3, -1] = 0.0
    C[1::4, 0] = 0.0
    return C


def test_mixed_order_stack_equals_per_order_stacks(rng):
    # Rows of orders 2..12 in one stack, each zero past its order, give the
    # bits of the stack of their own order.
    orders = np.arange(2, 13)
    parts = [_binary_rows(rng, d, 7) for d in orders.tolist()]
    C = np.zeros((sum(len(p) for p in parts), orders.max() + 1))
    ds = np.repeat(orders, [len(p) for p in parts])
    start = 0
    for d, part in zip(orders.tolist(), parts):
        C[start:start + len(part), :d + 1] = part
        start += len(part)
    mixed = spectral_norm_binary_batch(C, ds)
    per = [spectral_norm_binary_batch(part) for part in parts]
    assert np.array_equal(mixed.values, np.concatenate([r.values for r in per]))
    assert np.array_equal(mixed.counts, np.concatenate([r.counts for r in per]))
    assert np.array_equal(mixed.points, np.concatenate([r.points for r in per]))


def test_antipodal_classes_match_pairwise_reference(rng):
    # Clusters of points within ANTIPODAL_TOL of each other up to sign, some
    # near the y-axis where orientation flips them (the wrap-around of the
    # angle order), and single points; rows of 1 to 6 points.
    tol = ANTIPODAL_TOL
    for trial in range(200):
        n = 2 if trial < 150 else 3
        points, rows = [], []
        for r in range(int(rng.integers(1, 6))):
            for _ in range(int(rng.integers(1, 4))):
                if rng.random() < 0.4:
                    w = np.zeros(n)
                    w[0] = rng.choice([-1.0, 1.0]) * rng.uniform(0.0, 3e-7)
                    w[1] = rng.choice([-1.0, 1.0])
                else:
                    w = rng.standard_normal(n)
                w /= np.linalg.norm(w)
                for _ in range(int(rng.integers(1, 4))):
                    jitter = rng.standard_normal(n)
                    jitter *= rng.choice([0.2, 0.45, 2.0]) * tol / np.linalg.norm(jitter)
                    p = rng.choice([-1.0, 1.0]) * (w + jitter)
                    points.append(p / np.linalg.norm(p))
                    rows.append(r)
        points, rows = np.array(points), np.array(rows)
        got, got_rows = _antipodal_classes(points, rows)
        for r in np.unique(rows):
            ref = antipodal_classes_reference(points[rows == r])
            mine = got[got_rows == r]
            assert len(mine) == len(ref)
            assert all(np.array_equal(w, w1) for w, w1 in zip(mine, ref))


def test_antipodal_classes_of_many_close_points(rng):
    # Power iteration hands over every near-maximal start, and with many
    # starts most of them sit at +-w: thousands of points in a few classes
    # take one pass per class, not a pass per pair.
    w, v = rng.standard_normal((2, 3))
    centres = np.repeat([w / np.linalg.norm(w), v / np.linalg.norm(v)], [3000, 1000], axis=0)
    jitter = rng.standard_normal(centres.shape)
    jitter *= 0.2 * ANTIPODAL_TOL / np.linalg.norm(jitter, axis=1, keepdims=True)
    points = rng.choice([-1.0, 1.0], size=(len(centres), 1)) * (centres + jitter)
    points = points[rng.permutation(len(points))]
    got, rows = _antipodal_classes(points, np.zeros(len(points), dtype=np.intp))
    ref = antipodal_classes_reference(points)
    assert len(got) == len(ref) == 2 and not rows.any()
    assert all(np.array_equal(a, b) for a, b in zip(got, ref))


def test_maximizer_sign_convention(rng):
    for _ in range(10):
        A = random_binary(rng, int(rng.integers(2, 7)))
        for w in spectral_norm_binary(A).points:
            first_nonzero = next(x for x in w if abs(x) > 1e-12)
            assert first_nonzero > 0
