import itertools
import math

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import dense_sym_outer, to_dense
from tensorratio import symtensor
from tensorratio.symtensor import (
    DegenerateSpanError,
    SymTensor,
    exponent_tuples,
    frob_inner,
    frob_norm,
    multi_weight,
    poly_eval,
    poly_grad,
    poly_hess,
    restrict_to_plane,
    sym_outer,
    sym_rank_one,
)


def test_multi_weight_is_multinomial():
    assert multi_weight((3, 0)) == 1
    assert multi_weight((2, 1)) == 3
    assert multi_weight((1, 1, 1)) == 6
    assert multi_weight((2, 2)) == 6


def test_exponent_tuples_count():
    for dim, order in [(2, 5), (3, 4), (4, 3)]:
        exps = list(exponent_tuples(dim, order))
        assert len(exps) == math.comb(dim + order - 1, order)
        assert all(sum(e) == order for e in exps)
        assert len(set(exps)) == len(exps)


def test_symtensor_validation():
    with pytest.raises(ValueError):
        SymTensor(0, 2, {})
    with pytest.raises(ValueError):
        SymTensor(3, 2, {(1, 1): 1.0})  # degree mismatch
    with pytest.raises(ValueError):
        SymTensor(2, 2, {(3, -1): 1.0})
    with pytest.raises(ValueError):
        SymTensor(2, 2, {(1, 1): float("nan")})


def test_sym_rank_one_examples():
    A = sym_rank_one([1.0, 0.0], 3)
    assert dict(A.items()) == {(3, 0): 1.0}
    assert frob_norm(A) == 1.0

    B = sym_rank_one([1.0, 1.0], 2)
    # all four entries equal 1, so the norm is 2 = ||u||^2
    assert to_dense(B).tolist() == [[1.0, 1.0], [1.0, 1.0]]
    assert frob_norm(B) == pytest.approx(2.0, abs=1e-15)

    C = sym_rank_one([3.0, 4.0], 3)
    assert frob_norm(C) == pytest.approx(125.0, rel=1e-14)
    # independent check: sum of squares of all 8 dense entries
    assert np.sum(to_dense(C) ** 2) == pytest.approx(125.0**2, rel=1e-14)

    with pytest.raises(ValueError):
        sym_rank_one([1.0, 2.0], 0)


def test_sym_outer_against_dense_average(rng):
    checked = 0
    while checked < 12:
        n = int(rng.integers(2, 4))
        k = int(rng.integers(0, 5))
        l = int(rng.integers(0, 5))
        if not 1 <= k + l <= 4:
            continue
        u = rng.standard_normal(n)
        v = rng.standard_normal(n)
        S = sym_outer(u, k, v, l)
        assert np.allclose(to_dense(S), dense_sym_outer(u, k, v, l), atol=1e-12)
        checked += 1


def test_bounded_splits_match_brute_force(rng):
    # Every tuple 0 <= f <= e with sum k, in the generator's order: f_0 from
    # high to low, then the rest the same way.
    for _ in range(40):
        e = tuple(int(x) for x in rng.integers(0, 6, size=int(rng.integers(1, 5))))
        for k in range(sum(e) + 2):
            brute = sorted((f for f in itertools.product(*(range(ei + 1) for ei in e))
                            if sum(f) == k), reverse=True)
            assert list(symtensor._bounded_splits(e, k)) == brute


def test_sym_outer_examples():
    e1, e2, e3 = np.eye(3)
    # k = d, l = 0 reduces to the plain power
    u = np.array([0.3, -1.2, 0.5])
    assert frob_norm(sym_outer(u, 3, u * 0, 0) - sym_rank_one(u, 3)) < 1e-14

    S = sym_outer(e1[:2], 2, e2[:2], 1)
    assert S.coeff((2, 1)) == pytest.approx(1.0 / 3.0)
    assert frob_norm(3.0 * S) ** 2 == pytest.approx(3.0, abs=1e-14)

    # <u^{d-1}v, u^{d-1}w> with orthogonal v, w has no common support
    A = sym_outer(e1, 2, e2, 1)
    B = sym_outer(e1, 2, e3, 1)
    assert frob_inner(A, B) == 0.0

    with pytest.raises(ValueError):
        sym_outer([1.0, 0.0], 1, [1.0, 0.0, 0.0], 1)


def test_frob_inner_rank_one_identity(rng):
    for _ in range(30):
        n = int(rng.integers(2, 5))
        d = int(rng.integers(1, 7))
        u = rng.standard_normal(n)
        v = rng.standard_normal(n)
        lhs = frob_inner(sym_rank_one(u, d), sym_rank_one(v, d))
        rhs = float(u @ v) ** d
        scale = np.linalg.norm(u) ** d * np.linalg.norm(v) ** d
        assert abs(lhs - rhs) < 1e-12 * scale


def test_frob_inner_examples():
    u, v = np.array([0.6, 0.8]), np.array([1.0, 0.0])
    assert frob_inner(sym_rank_one(u, 4), sym_rank_one(v, 4)) == pytest.approx(0.1296, abs=1e-15)
    assert frob_inner(sym_rank_one([1.0, 0.0], 5), sym_rank_one([0.0, 1.0], 5)) == 0.0
    with pytest.raises(ValueError):
        frob_inner(sym_rank_one([1.0, 0.0], 2), sym_rank_one([1.0, 0.0], 3))


def test_frob_inner_symmetric_positive(rng):
    mats = []
    for _ in range(6):
        A = SymTensor(3, 2, {(k, 3 - k): rng.standard_normal() for k in range(4)})
        mats.append(A)
    for A in mats:
        for B in mats:
            assert frob_inner(A, B) == pytest.approx(frob_inner(B, A), rel=1e-14)
        if not A.is_zero:
            assert frob_inner(A, A) > 0.0


def test_frob_norm_examples():
    assert frob_norm(SymTensor(4, 2, {})) == 0.0
    t = 0.5
    A = sym_rank_one([1.0, t], 4) - sym_rank_one([1.0, -t], 4)
    expected = math.sqrt(2 * 1.25**4 - 2 * 0.75**4)
    assert frob_norm(A) == pytest.approx(expected, rel=1e-14)


def _frob_norm_unscaled(A):
    total = 0.0
    for e, v in A.items():
        total += multi_weight(e) * v * v
    return math.sqrt(total)


def test_frob_norm_scaling_is_exact(rng):
    # Scaling by a power of two moves no bit of a normal-range norm.
    for _ in range(300):
        d, n = int(rng.integers(2, 7)), int(rng.integers(2, 5))
        A = SymTensor(d, n, {e: float(rng.standard_normal()) * 10.0 ** rng.integers(-3, 4)
                             for e in exponent_tuples(n, d) if rng.random() < 0.7})
        assert frob_norm(A) == _frob_norm_unscaled(A)


def test_frob_norm_tiny_and_huge_tensors():
    # Squaring entries of 1e-160 loses digits to subnormals, and entries of
    # 1e-300 square to zero; scaled first, neither does.
    A = SymTensor(3, 3, {(3, 0, 0): 1e-160, (1, 1, 1): 3e-161})
    assert frob_norm(A) == pytest.approx(math.hypot(1e-160, math.sqrt(6.0) * 3e-161), rel=1e-15, abs=0.0)
    assert abs(_frob_norm_unscaled(A) / frob_norm(A) - 1.0) > 1e-7
    for scale in (1e-300, 1e300):
        B = SymTensor(3, 3, {e: scale for e in exponent_tuples(3, 3)})
        assert frob_norm(B) == pytest.approx(math.sqrt(27.0) * scale, rel=1e-15, abs=0.0)
    assert frob_norm(SymTensor(3, 3, {e: 1e308 for e in exponent_tuples(3, 3)})) == math.inf


def test_poly_eval_examples(rng):
    W3 = 3.0 * sym_outer(np.array([1.0, 0.0]), 2, np.array([0.0, 1.0]), 1)
    assert poly_eval(W3, [1.0, 1.0]) == pytest.approx(3.0, abs=1e-14)

    A = SymTensor(3, 2, {(k, 3 - k): rng.standard_normal() for k in range(4)})
    x = rng.standard_normal(2)
    assert poly_eval(A, 2.0 * x) == pytest.approx(8.0 * poly_eval(A, x), rel=1e-13)

    d = 5
    Wd = float(d) * sym_outer(np.array([1.0, 0.0]), d - 1, np.array([0.0, 1.0]), 1)
    pt = [math.sqrt((d - 1) / d), 1 / math.sqrt(d)]
    expected = d * ((d - 1) / d) ** ((d - 1) / 2) / math.sqrt(d)
    assert poly_eval(Wd, pt) == pytest.approx(expected, rel=1e-14)

    # an (S, n) stack gives each row's value, bit for bit
    X = np.vstack([rng.standard_normal((5, 2)), 2.0 * x, pt])
    assert np.array_equal(poly_eval(A, X), [poly_eval(A, row) for row in X])
    assert np.array_equal(poly_eval(Wd, X), [poly_eval(Wd, row) for row in X])
    assert poly_eval(A, X[:0]).shape == (0,)
    assert poly_eval(SymTensor(3, 2, {}), X).tolist() == [0.0] * len(X)


def test_poly_grad_matches_finite_differences(rng):
    h = 1e-5
    for _ in range(20):
        n = int(rng.integers(2, 5))
        d = int(rng.integers(2, 6))
        coeffs = {e: rng.standard_normal() for e in exponent_tuples(n, d)}
        A = SymTensor(d, n, coeffs)
        x = rng.standard_normal(n)
        g = poly_grad(A, x)
        fd = np.empty(n)
        for j in range(n):
            xp, xm = x.copy(), x.copy()
            xp[j] += h
            xm[j] -= h
            fd[j] = (poly_eval(A, xp) - poly_eval(A, xm)) / (2 * h)
        assert np.linalg.norm(fd - g) / max(np.linalg.norm(g), 1e-12) < 1e-6
        X = np.vstack([x, rng.standard_normal((4, n))])
        G = poly_grad(A, X)
        assert G.shape == X.shape
        assert all(np.array_equal(G[i], poly_grad(A, row)) for i, row in enumerate(X))


def test_poly_grad_euler_identity(rng):
    for _ in range(20):
        n = int(rng.integers(2, 4))
        d = int(rng.integers(1, 7))
        A = SymTensor(d, n, {e: rng.standard_normal() for e in exponent_tuples(n, d)})
        x = rng.standard_normal(n)
        lhs = float(x @ poly_grad(A, x))
        rhs = d * poly_eval(A, x)
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))
        X = rng.standard_normal((6, n))
        assert np.array_equal(np.vecdot(X, poly_grad(A, X)), [row @ poly_grad(A, row) for row in X])


def test_poly_grad_power_case():
    A = sym_rank_one([1.0, 0.0], 3)
    assert np.allclose(poly_grad(A, [1.0, 0.0]), [3.0, 0.0])
    X = [[1.0, 0.0], [0.0, 1.0], [2.0, -1.0]]
    assert np.array_equal(poly_grad(A, X), [poly_grad(A, row) for row in X])
    assert np.allclose(poly_grad(A, X), [[3.0, 0.0], [0.0, 0.0], [12.0, 0.0]])
    assert poly_grad(SymTensor(3, 2, {}), X).tolist() == [[0.0, 0.0]] * 3
    with pytest.raises(ValueError):
        poly_grad(A, [1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        poly_eval(A, np.ones((2, 2, 2)))


def _dense_derivative(A, x, k):
    """d!/(d-k)! A contracted with x in all but k modes, from the dense array;
    zero past the order."""
    if k > A.order:
        return np.zeros((A.dim,) * k)
    T = to_dense(A)
    for _ in range(A.order - k):
        T = T @ x
    return math.perm(A.order, k) * T


def test_poly_hess_matches_dense_oracle(rng):
    # Gradients and Hessians of dense and sparse forms of orders 1..6 in dims
    # 1..4, with orders 1 and 2 in the first ten trials; each row of a stack
    # equals the one-point call bit for bit, and a derivative past the order
    # is exactly zero.
    for trial in range(40):
        n = int(rng.integers(1, 5))
        d = trial % 2 + 1 if trial < 10 else int(rng.integers(1, 7))
        coeffs = {e: rng.standard_normal() for e in exponent_tuples(n, d) if rng.random() < 0.7}
        A = SymTensor(d, n, coeffs)
        X = rng.standard_normal((5, n))
        G, H = poly_grad(A, X), poly_hess(A, X)
        assert G.shape == (5, n) and H.shape == (5, n, n)
        for x, g, h in zip(X, G, H):
            for got, expected in ((g, _dense_derivative(A, x, 1)), (h, _dense_derivative(A, x, 2))):
                assert np.allclose(got, expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max(initial=1.0))
            assert np.array_equal(g, poly_grad(A, x))
            assert np.array_equal(h, poly_hess(A, x))
            assert np.array_equal(h, h.T)
        if d <= 2:  # at d = 1 this is the Hessian
            past = symtensor._derivative(A, X, d + 1)
            assert past.shape == (5,) + (n,) * (d + 1) and not past.any()
        # Euler: H x = (d - 1) grad.
        assert np.allclose(np.einsum("sij,sj->si", H, X), (d - 1) * G, rtol=1e-10, atol=1e-10)
    A = sym_rank_one([1.0, 0.0], 3)
    assert poly_hess(A, [2.0, 5.0]).tolist() == [[12.0, 0.0], [0.0, 0.0]]
    assert poly_hess(A, np.ones((0, 2))).shape == (0, 2, 2)
    assert poly_hess(SymTensor(3, 2, {}), [1.0, 1.0]).tolist() == [[0.0, 0.0], [0.0, 0.0]]
    with pytest.raises(ValueError):
        poly_hess(A, [1.0, 0.0, 0.0])


def test_restrict_to_plane_power():
    u = np.array([0.6, 0.0, 0.8])
    A = sym_rank_one(u, 4)
    B, frame = restrict_to_plane(A, u, np.array([0.0, 1.0, 0.0]))
    assert B.coeff((4, 0)) == pytest.approx(1.0, abs=1e-14)
    for k in range(4):
        assert abs(B.coeff((k, 4 - k))) < 1e-14
    assert np.allclose(frame.q1, u)


def test_restrict_to_plane_preserves_norm_and_values(rng):
    for _ in range(8):
        d = int(rng.integers(2, 6))
        u = rng.standard_normal(4)
        v = rng.standard_normal(4)
        A = 1.7 * sym_rank_one(u, d) - 0.4 * sym_rank_one(v, d)
        B, frame = restrict_to_plane(A, u, v)
        assert abs(frob_norm(A) - frob_norm(B)) < 1e-12 * max(frob_norm(A), 1.0)
        x = rng.standard_normal(2)
        assert poly_eval(B, x) == pytest.approx(poly_eval(A, frame.lift(x)), rel=1e-10, abs=1e-10)
        # frame orientation tie-break
        assert float(v @ frame.q2) > 0.0


def test_restrict_to_plane_degenerate():
    u = np.array([1.0, 2.0])
    with pytest.raises(DegenerateSpanError):
        restrict_to_plane(sym_rank_one(u, 3), u, 2.0 * u)


def test_arithmetic_and_json_roundtrip(rng):
    A = SymTensor(3, 2, {(3, 0): 1.0, (2, 1): -0.5})
    B = SymTensor(3, 2, {(2, 1): 0.5, (0, 3): 2.0})
    C = A + B
    assert C.coeff((2, 1)) == 0.0  # exact cancellation dropped
    assert (A - A).is_zero
    assert frob_norm(2.0 * A) == pytest.approx(2.0 * frob_norm(A))
    data = C.to_json_dict()
    D = SymTensor.from_json_dict(data)
    assert frob_norm(C - D) == 0.0
    assert data["order"] == 3 and data["dim"] == 2


@settings(max_examples=40)
@given(data=st.data(), order=st.integers(1, 6), dim=st.integers(1, 3))
def test_json_round_trip_is_bit_exact(data, order, dim):
    values = st.floats(allow_nan=False, allow_infinity=False)
    A = SymTensor(order, dim, {e: data.draw(values) for e in exponent_tuples(dim, order)})
    B = SymTensor.from_json_dict(json.loads(json.dumps(A.to_json_dict())))
    assert (B.order, B.dim) == (A.order, A.dim)
    assert sorted((e, v.hex()) for e, v in B.items()) == sorted((e, v.hex()) for e, v in A.items())
