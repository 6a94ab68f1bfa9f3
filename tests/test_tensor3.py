import functools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tensorratio.config import IterConfig, SearchConfig
from tensorratio.spectral import spectral_norm_binary
from tensorratio.symtensor import SymTensor
from tensorratio.tensor3 import (
    NormalForm222,
    Tensor3,
    als_spectral_norm,
    als_spectral_norm_batch,
    embed_normal_form,
    extremal_tensor3,
    feasible_max_scan,
    hyperdet,
    hyperdet_stack,
    make_rank_two_3,
    normal_form_feasible,
    ratio_3,
    spectral_norm_3,
)

CFG = IterConfig(starts=16, tol=1e-14, seed=0)


def unit(rng, n=2):
    x = rng.standard_normal(n)
    return x / np.linalg.norm(x)


def test_tensor3_validation_and_json():
    with pytest.raises(ValueError):
        Tensor3(np.zeros((2, 2)))
    T = Tensor3(np.arange(12, dtype=float).reshape(2, 3, 2))
    data = T.to_json_dict()
    assert data["dims"] == [2, 3, 2]
    back = Tensor3.from_json_dict(data)
    assert np.array_equal(back.entries, T.entries)
    # a non-integral size is rejected, not truncated
    with pytest.raises(ValueError, match="not integral"):
        Tensor3.from_json_dict({"dims": [2.5, 2, 2], "entries": [1.0] * 8})


def test_spectral_norm_3_rank_one():
    T = Tensor3(np.einsum("i,j,k->ijk", [1.0, 0.0], [1.0, 0.0], [1.0, 0.0]))
    res = spectral_norm_3(T, CFG)
    assert res.value == pytest.approx(1.0, abs=1e-13)
    assert res.converged
    u1, u2, u3 = res.factors
    assert abs(abs(u1[0]) - 1) < 1e-10


def test_spectral_norm_3_extremal():
    res = spectral_norm_3(extremal_tensor3(), CFG)
    assert res.value == pytest.approx(2 / math.sqrt(3), abs=1e-10)
    # symmetric maximizer up to sign flips
    u1, u2, u3 = (np.abs(f) for f in res.factors)
    assert np.allclose(u1, u2, atol=1e-6) and np.allclose(u2, u3, atol=1e-6)


def test_spectral_norm_3_random_rank_one(rng):
    for _ in range(10):
        lam = rng.standard_normal() * 3
        u, v, w = unit(rng, 3), unit(rng, 2), unit(rng, 4)
        T = Tensor3(lam * np.einsum("i,j,k->ijk", u, v, w))
        if abs(lam) < 1e-6:
            continue
        assert spectral_norm_3(T, CFG).value == pytest.approx(abs(lam), rel=1e-10)


def test_spectral_norm_3_rejects_zero():
    with pytest.raises(ValueError):
        spectral_norm_3(Tensor3(np.zeros((2, 2, 2))), CFG)


def test_als_general_order(rng):
    # order-4 rank-one: exact value |lam|
    u, v, w, z = (unit(rng) for _ in range(4))
    T = 2.5 * np.einsum("i,j,k,l->ijkl", u, v, w, z)
    res = als_spectral_norm(T, IterConfig(starts=8, tol=1e-14, seed=0))
    assert res.value == pytest.approx(2.5, rel=1e-10)


def test_als_scale_equivariance(rng):
    # ALS iterates on each tensor scaled by the power of two of its largest
    # |entry|, so 2^j T gets the iterates and sweeps of T and 2^j times its
    # value, bit for bit, down to 2^-1000.
    stack = rng.standard_normal((4, 2, 2, 2))
    single = rng.standard_normal((2, 3, 2))
    base = als_spectral_norm_batch(stack, CFG) + [als_spectral_norm(single, CFG)]
    for j in (-1000, -3, 0, 500):
        scaled = (als_spectral_norm_batch(math.ldexp(1.0, j) * stack, CFG)
                  + [als_spectral_norm(math.ldexp(1.0, j) * single, CFG)])
        for res, ref in zip(scaled, base):
            assert res.value == math.ldexp(ref.value, j)
            assert (res.sweeps, res.converged) == (ref.sweeps, ref.converged)
            assert all(np.array_equal(f, g) for f, g in zip(res.factors, ref.factors))
    assert als_spectral_norm(np.full((2, 2, 2), 1e307), CFG).value == pytest.approx(math.sqrt(8.0) * 1e307)
    assert als_spectral_norm(np.full((2, 2, 2), 1e308), CFG).value == math.inf


def test_tensor3_frob_norm_scaling(rng):
    # The power-of-two scaling is exact: in the normal range the norm has the
    # bits of the unscaled one; tiny entries no longer underflow.
    for _ in range(100):
        T = rng.standard_normal((2, 3, 2)) * 10.0 ** rng.integers(-100, 100)
        assert Tensor3(T).frob_norm() == float(np.linalg.norm(T))
    for scale in (1e-160, 1e-300):
        assert Tensor3(np.full((2, 2, 2), scale)).frob_norm() == pytest.approx(
            math.sqrt(8.0) * scale, rel=1e-15, abs=0.0)
    assert Tensor3(np.full((2, 2, 2), 1e308)).frob_norm() == math.inf
    assert Tensor3(np.zeros((2, 2, 2))).frob_norm() == 0.0


def test_banach_symmetric_agreement(rng):
    # symmetric 2x2x2 inputs: alternating maximization matches the exact
    # binary solver (the symmetric maximum is the global one)
    for i in range(10):
        coeffs = {(k, 3 - k): rng.standard_normal() for k in range(4)}
        A = SymTensor(3, 2, coeffs)
        dense = np.zeros((2, 2, 2))
        for (i1, i2, i3) in np.ndindex(2, 2, 2):
            e = ((i1, i2, i3).count(0), (i1, i2, i3).count(1))
            dense[i1, i2, i3] = A.coeff((e[0], e[1]))
        exact = spectral_norm_binary(A).value
        approx = spectral_norm_3(Tensor3(dense), IterConfig(starts=16, tol=1e-14, seed=i)).value
        assert abs(exact - approx) < 1e-8


def test_ratio_3_values():
    assert ratio_3(extremal_tensor3(), CFG) == pytest.approx(2 / 3, abs=1e-10)
    T = Tensor3(np.einsum("i,j,k->ijk", [0.6, 0.8], [1.0, 0.0], [0.0, 1.0]))
    assert ratio_3(T, CFG) == pytest.approx(1.0, abs=1e-12)
    r = ratio_3(extremal_tensor3(), CFG)
    assert math.sqrt(1 - r * r) == pytest.approx(math.sqrt(5) / 3, abs=1e-10)


def test_hyperdet_examples():
    diag = np.zeros((2, 2, 2))
    diag[0, 0, 0] = diag[1, 1, 1] = 1.0
    assert hyperdet(Tensor3(diag)) == pytest.approx(1.0)
    assert hyperdet(extremal_tensor3()) == 0.0
    nf = NormalForm222(0.5, 0.5, -0.5, 0.0)
    val = hyperdet(embed_normal_form(nf))
    assert val == pytest.approx(nf.rank_two_criterion(), abs=1e-15)
    assert val < 0
    with pytest.raises(ValueError):
        hyperdet(Tensor3(np.zeros((2, 2, 3))))


def test_hyperdet_zero_on_rank_one(rng):
    for _ in range(200):
        T = np.einsum("i,j,k->ijk", unit(rng), unit(rng), unit(rng))
        assert abs(hyperdet(Tensor3(T))) < 1e-12


def test_hyperdet_sign_invariance_under_rotations(rng):
    def rot(phi):
        return np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])

    for _ in range(1000):
        T = rng.standard_normal((2, 2, 2))
        base = hyperdet(Tensor3(T))
        R1, R2, R3 = (rot(rng.uniform(0, 2 * np.pi)) for _ in range(3))
        TT = np.einsum("abc,ai,bj,ck->ijk", T, R1, R2, R3)
        assert np.sign(hyperdet(Tensor3(TT))) == np.sign(base)


def test_hyperdet_normal_form_identity(rng):
    # on embedded normal forms the invariant equals d^2 + 4abc exactly
    count = 0
    while count < 500:
        a, b, c, d = rng.uniform(-1, 1, size=4)
        if not normal_form_feasible(a, b, c, d):
            continue
        nf = NormalForm222(a, b, c, d)
        assert hyperdet(embed_normal_form(nf)) == pytest.approx(
            nf.rank_two_criterion(), rel=1e-12, abs=1e-13
        )
        count += 1


def test_embed_normal_form():
    T = embed_normal_form(NormalForm222(0.0, 0.0, 0.0, 0.0))
    expected = np.zeros((2, 2, 2))
    expected[0, 0, 0] = 1.0
    assert np.array_equal(T.entries, expected)

    nf = NormalForm222(0.5, 0.5, -0.5, math.sqrt(0.5))
    assert nf.constraint_value() == pytest.approx(1.0, abs=1e-12)
    assert nf.rank_two_criterion() == pytest.approx(0.0, abs=1e-12)
    embed_normal_form(nf)

    with pytest.raises(ValueError):
        embed_normal_form(NormalForm222(0.9, 0.9, 0.9, 0.9))


def test_embedded_normal_forms_have_unit_spectral_norm(rng):
    count = 0
    while count < 30:
        a, b, c, d = rng.uniform(-1, 1, size=4)
        if not normal_form_feasible(a, b, c, d):
            continue
        T = embed_normal_form(NormalForm222(a, b, c, d))
        value = spectral_norm_3(T, IterConfig(starts=12, tol=1e-13, seed=count)).value
        assert value <= 1.0 + 1e-8
        assert value >= 1.0 - 1e-8  # the (0,0,0) entry already pairs to 1
        count += 1


def test_embedded_normal_forms_batch_one_sided(rng):
    # the iterative value is a lower bound, so the unit-norm claim is tested
    # one-sidedly on a large batch
    stack = []
    while len(stack) < 1000:
        draws = rng.uniform(-1, 1, size=(2000, 4))
        for a, b, c, d in draws:
            if normal_form_feasible(a, b, c, d):
                stack.append(embed_normal_form(NormalForm222(a, b, c, d)).entries)
            if len(stack) == 1000:
                break
    results = als_spectral_norm_batch(
        np.array(stack), IterConfig(starts=8, tol=1e-12, max_iters=400, seed=0)
    )
    assert all(res.value <= 1.0 + 1e-8 for res in results)


def test_rank_two_ratio_approaches_extremal_limit():
    # the rank-two family (1/t)[(e1 + t e2)^{x3} - e1^{x3}] converges to the
    # extremal boundary tensor; ratios must decrease toward 2/3 from above
    e1, e2 = np.eye(2)
    prev = None
    for t in (0.3, 0.1, 0.03, 0.01):
        u = e1 + t * e2
        T = Tensor3(
            (np.einsum("i,j,k->ijk", u, u, u) - np.einsum("i,j,k->ijk", e1, e1, e1)) / t
        )
        assert hyperdet(T) > 0
        r = ratio_3(T, CFG)
        assert r > 2 / 3 - 1e-9
        if prev is not None:
            assert r < prev
        prev = r
    assert prev == pytest.approx(2 / 3, abs=5e-3)  # gap decays like t


def _scipy_nelder_mead(f, x0, maxiter):
    """scipy's Nelder-Mead on f, with the number of evaluations each
    iteration made (6 on a shrink step)."""
    optimize = pytest.importorskip("scipy.optimize")
    evals = [0]
    per_iter = []

    def counted(x):
        evals[0] += 1
        return f(x)

    def callback(intermediate_result):
        per_iter.append(evals[0])
        evals[0] = 0

    res = optimize.minimize(counted, x0, method="Nelder-Mead", callback=callback,
                            options={"xatol": 1e-13, "fatol": 1e-13, "maxiter": maxiter})
    return res, per_iter


def test_nelder_mead_matches_scipy(rng):
    # Every row of one stacked call is scipy's Nelder-Mead on that row, given
    # the same vectorized f at one point.  One stack mixes both margins,
    # starts with a zero coordinate (the other initial step) and far outside
    # the region, and rows that stop at different iterations.
    pytest.importorskip("scipy.optimize")
    from tensorratio.tensor3 import _nelder_mead, _scan_penalty

    shrinks = 0
    for mu in (1e4, 1e6, 1e8):
        for maxiter in (50, 400, 2000):
            x0 = rng.uniform(-1.0, 1.0, (8, 4))
            x0[1, 0] = x0[5, 3] = x0[6, 1] = 0.0
            x0[7] *= 3.0
            margin = np.tile([0.0, 0.01], 4)

            def f(X, rows):
                return _scan_penalty(X, mu, margin[rows, None])

            got = _nelder_mead(f, x0, maxiter)
            iterations = set()
            for i in range(len(x0)):
                ref, per_iter = _scipy_nelder_mead(lambda x: f(x[None, None], np.array([i]))[0, 0],
                                                   x0[i], maxiter)
                assert np.array_equal(got[i], ref.x), (mu, maxiter, i)
                iterations.add(ref.nit)
                shrinks += per_iter.count(6)
            if maxiter == 2000:
                assert len(iterations) > 1 and min(iterations) < maxiter
    assert shrinks > 0


def _scan_feasible_reference(x, margin):
    a, b, c, d = map(float, x)
    return (a * a + b * b + c * c + d * d + 2.0 * a * b * c - 1.0 <= 0.0
            and margin - (d * d + 4.0 * a * b * c) <= 0.0
            and max(abs(a), abs(b), abs(c)) <= 1.0)


def _feasible_shrink_reference(x, margin):
    """One row at a time: the nearest feasible scale 1 - 1e-9 * 2^k below
    0.5 steps, then 60 bisections toward 1; None if no scale works."""
    if _scan_feasible_reference(x, margin):
        return x
    step = 1e-9
    lo = None
    while step < 0.5:
        if _scan_feasible_reference((1.0 - step) * x, margin):
            lo = 1.0 - step
            break
        step *= 2.0
    if lo is None:
        return None
    hi = 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _scan_feasible_reference(mid * x, margin):
            lo = mid
        else:
            hi = mid
    return lo * x


def test_feasible_shrink_matches_scalar_reference(rng):
    from tensorratio.tensor3 import _feasible_shrink

    # Points pushed just past the boundary by 1e-12 to 0.3, feasible points,
    # and points no scale in reach brings back (far outside, or below the
    # margin at every scale).
    X = rng.uniform(-1.0, 1.0, (200, 4))
    X *= np.geomspace(1e-12, 0.3, 200)[:, None] + 1.0
    X[::7] *= 0.3
    X[5] = [2.0, 2.0, 2.0, 2.0]
    X[6] = [0.0, 0.0, 0.0, 0.05]
    margin = np.where(np.arange(200) % 3 == 0, 0.01, 0.0)
    got, found = _feasible_shrink(X, margin)
    kinds = set()
    for x, g, ok, m in zip(X, got, found, margin):
        ref = _feasible_shrink_reference(x, m)
        kinds.add("none" if ref is None else "kept" if ref is x else "shrunk")
        assert ok == (ref is not None)
        if ref is not None:
            assert np.array_equal(g, ref)
    assert kinds == {"none", "kept", "shrunk"}


def test_feasible_max_scan_batch_equals_single_margin_calls():
    from tensorratio.tensor3 import feasible_max_scan_batch

    for seed in (0, 3):
        cfg = SearchConfig(budget=5_000, seed=seed)
        both = feasible_max_scan_batch(cfg, (0.0, 0.01))
        assert both == [feasible_max_scan(cfg, 0.0), feasible_max_scan(cfg, 0.01)]
        assert both[0].boundary and both[1].value < 2.25 - 1e-3


def test_feasible_samples_mask():
    from tensorratio.tensor3 import _feasible_samples

    margins = (0.0, 0.01)
    pts, sq, feas = _feasible_samples(SearchConfig(budget=20_000, seed=0), margins)
    assert pts.shape == (20_000, 4) and feas.shape == (2, 20_000)
    assert sq == pytest.approx(np.sum(pts * pts, axis=1), rel=1e-15)
    for margin, mask in zip(margins, feas):
        assert 0 < mask.sum() < len(pts)
        for (a, b, c, d), inside in zip(pts, mask):
            criterion = d * d + 4.0 * a * b * c
            assert inside == (normal_form_feasible(a, b, c, d, slack=0.0) and criterion >= margin)
        assert np.all(1.0 + sq[mask] < 2.25 + 1e-9)


def test_make_rank_two_3(rng):
    T = make_rank_two_3([1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0])
    assert hyperdet(T) == 0.0
    for _ in range(50):
        T = make_rank_two_3(*(unit(rng) for _ in range(6)))
        assert hyperdet(T) >= 0.0
    with pytest.raises(ValueError):
        make_rank_two_3([1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0], [1.0, 0.0])


def test_rank_two_ratio_above_bound(rng):
    stack = []
    while len(stack) < 300:
        T = make_rank_two_3(*(unit(rng) for _ in range(6)))
        if hyperdet(T) > 0:
            stack.append(T.entries)
    results = als_spectral_norm_batch(np.array(stack), IterConfig(starts=8, tol=1e-12, max_iters=400, seed=0))
    ratios = np.array([res.value for res in results])
    ratios = ratios / np.linalg.norm(np.array(stack).reshape(len(stack), -1), axis=1)
    assert np.all(ratios > 2 / 3 - 1e-9)


def test_batch_matches_single(rng):
    stack = np.array([rng.standard_normal((2, 2, 2)) for _ in range(20)])
    cfg = IterConfig(starts=12, tol=1e-13, max_iters=2000, seed=0)
    batch = als_spectral_norm_batch(stack, cfg)
    for i in range(20):
        assert batch[i].value == spectral_norm_3(Tensor3(stack[i]), cfg).value


@pytest.mark.parametrize("shape", [(2, 3, 2), (2, 2, 2, 2)])
@pytest.mark.parametrize("max_iters", [10_000, 6])
def test_batch_equals_single_calls(rng, shape, max_iters):
    # A rank-one tensor leaves the stack after its second sweep and random ones
    # later; a small max_iters leaves some at the cap, so the masking of
    # finished tensors is exercised both ways.
    stack = rng.standard_normal((12,) + shape)
    stack[3] = 1.5 * functools.reduce(np.multiply.outer, [unit(rng, n) for n in shape])
    cfg = IterConfig(starts=5, tol=1e-13, max_iters=max_iters, seed=4)
    batch = als_spectral_norm_batch(stack, cfg)
    assert len(batch) == len(stack)
    for T, res in zip(stack, batch):
        single = als_spectral_norm(T, cfg)
        assert (res.value, res.converged, res.sweeps) == (single.value, single.converged, single.sweeps)
        assert all(np.array_equal(f, g) for f, g in zip(res.factors, single.factors))
    assert batch[3].converged and batch[3].sweeps == 2
    assert batch[3].value == pytest.approx(1.5, rel=1e-12)
    if max_iters == 6:
        assert any(not res.converged and res.sweeps == 6 for res in batch)
    else:
        assert all(res.converged for res in batch)
    assert als_spectral_norm_batch(np.zeros((0,) + shape), cfg) == []
    with pytest.raises(ValueError):
        als_spectral_norm_batch(np.zeros((2,) + shape), cfg)


def test_hyperdet_stack_matches_scalar(rng):
    stack = rng.standard_normal((40, 2, 2, 2))
    vals = hyperdet_stack(stack)
    for i in range(40):
        assert vals[i] == pytest.approx(hyperdet(Tensor3(stack[i])), rel=1e-12, abs=1e-14)


def test_feasible_max_scan():
    res = feasible_max_scan(SearchConfig(budget=300_000, seed=0))
    assert res.value == pytest.approx(2.25, abs=1e-4)
    assert res.boundary
    nf = res.argmax
    assert abs(nf.a**2 - 0.25) < 1e-3 and abs(nf.d**2 - 0.5) < 1e-3
    assert nf.a * nf.b * nf.c == pytest.approx(-0.125, abs=1e-3)
    interior = feasible_max_scan(SearchConfig(budget=300_000, seed=0), interior_margin=0.01)
    assert interior.value < 2.25 - 1e-3
    trivial = NormalForm222(0.0, 0.0, 0.0, 0.0)
    assert normal_form_feasible(trivial.a, trivial.b, trivial.c, trivial.d)


@settings(max_examples=40)
@given(data=st.data(), dims=st.tuples(*[st.integers(1, 3)] * 3))
def test_json_round_trip_is_bit_exact(data, dims):
    values = st.floats(allow_nan=False, allow_infinity=False)
    T = Tensor3(np.array(data.draw(st.lists(values, min_size=math.prod(dims),
                                            max_size=math.prod(dims)))).reshape(dims))
    back = Tensor3.from_json_dict(json.loads(json.dumps(T.to_json_dict())))
    assert back.dims == T.dims
    assert back.entries.tobytes() == T.entries.tobytes()
