import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import circle_grid_max
from tensorratio.ranktwo import (
    _chart_coeffs,
    canonical_params,
    critical_equation_roots,
    extremal_spectral_norm,
    extremal_tensor,
    make_rank_two,
)
from tensorratio import rootfind
from tensorratio.rootfind import real_roots, real_roots_batch
from tensorratio.spectral import _tangential_coeffs, binary_coeffs, spectral_norm_binary_coeffs


def _split(result) -> list:
    """real_roots_batch's (roots, counts) as one list of roots per row."""
    roots, counts = result
    ends = np.cumsum(counts)
    return [roots[e - k:e].tolist() for e, k in zip(ends, counts)]


def test_simple_roots():
    # (x-1)(x-2)(x-3)
    roots = real_roots([1.0, -6.0, 11.0, -6.0])
    assert np.allclose(roots, [1.0, 2.0, 3.0], atol=1e-12)


def test_zero_factor_and_multiplicity():
    # x^5 (x^2 - 2): the quintuple zero must survive the eigenvalue splitting
    coeffs = np.array([1.0, 0.0, -2.0, 0, 0, 0, 0, 0])
    roots = real_roots(coeffs)
    assert np.allclose(roots, [-np.sqrt(2), 0.0, np.sqrt(2)], atol=1e-12)


def test_double_root_reported_once():
    # (x-1)^2 (x+3)
    roots = real_roots(np.convolve([1.0, -2.0, 1.0], [1.0, 3.0]))
    assert len(roots) == 2
    assert np.allclose(roots, [-3.0, 1.0], atol=1e-6)


def test_complex_pair_excluded():
    # (x^2 + 1)(x - 4)
    roots = real_roots(np.convolve([1.0, 0.0, 1.0], [1.0, -4.0]))
    assert np.allclose(roots, [4.0], atol=1e-12)


def test_constant_and_zero():
    assert real_roots([3.0]) == []
    with pytest.raises(ValueError):
        real_roots([0.0, 0.0])


def test_scaling_invariance(rng):
    coeffs = rng.standard_normal(7)
    r1 = real_roots(coeffs)
    r2 = real_roots(1e8 * coeffs)
    assert np.allclose(r1, r2, atol=1e-10)


def test_far_roots_without_overflow():
    # Orders up to 300 and near-vanishing leading coefficients put candidates
    # where x^deg overflows; the residual test must still judge them.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        c = binary_coeffs(extremal_tensor(300))
        roots = real_roots(_tangential_coeffs(c)[::-1])
        s = math.sqrt(299.0)
        assert roots == pytest.approx([-s, 0.0, s], rel=1e-14, abs=1e-14)
        ms = spectral_norm_binary_coeffs(c)
        assert ms.value == pytest.approx(extremal_spectral_norm(300), rel=1e-13)
        # A dense order-300 chart form: Newton must still polish the real
        # critical point near x = 12, where x^300 is far past the float range.
        # Its coefficients are built term by term in Python floats, which
        # pins the polynomial: most of its 157 roots sit where the form is
        # flat to roundoff, and they move with the last bit of a coefficient.
        theta = math.acos(0.95)
        c, s = math.cos(theta), math.sin(theta)
        c = np.array([-math.comb(300, k) * 0.7 * c**k * s ** (300 - k) for k in range(300)]
                     + [0.6 + 0.7 * -math.expm1(300 * math.log1p(-2.0 * math.sin(theta / 2.0) ** 2))])
        roots = real_roots(_tangential_coeffs(c)[::-1])
        assert len(roots) == 157
        far = [x for x in roots if abs(x) > 10.0]
        assert far == pytest.approx([-27226169.39000648, 11.99115078191346], rel=1e-14)
        for d in range(5, 13):
            ms = spectral_norm_binary_coeffs(_chart_coeffs([(1.0, 1.0, math.pi / 2)], d)[0][0])
            assert ms.value == pytest.approx(1.0, rel=1e-14)
            assert len(ms.points) == 2
            assert np.allclose(ms.points, [[0.0, 1.0], [1.0, 0.0]], rtol=0, atol=1e-14)
        # ranktwo:1,0.5,0.1,300: the normalized leading coefficient of the
        # tangential polynomial is ~2e-310, below eps of the next one, so it
        # splits off one far seed near -2e299; the other seeds come from the
        # companion of the remaining degree-299 polynomial, which does not
        # overflow.  The maximizer stays the only one, at e1.
        u, v = np.array([1.0, 0.0]), np.array([0.1, math.sqrt(0.99)])
        c = binary_coeffs(make_rank_two(canonical_params(1.0, 0.5, u, v, 300), 300))
        ms = spectral_norm_binary_coeffs(c)
        assert ms.value == pytest.approx(1.0, rel=1e-14)
        assert ms.value >= circle_grid_max(c, 400_000) - 1e-12
        assert np.allclose(ms.points, [[1.0, 0.0]], rtol=0, atol=1e-12)


@settings(max_examples=60)
@given(
    st.integers(1, 9).flatmap(
        lambda n: st.lists(
            st.lists(st.floats(-4.0, 4.0, allow_subnormal=False), min_size=n, max_size=n),
            min_size=1,
            max_size=12,
        )
    )
)
def test_batch_rows_equal_single_calls(rows):
    # Zeroing small entries mixes in leading, interior and trailing zeros.
    C = np.array(rows)
    C[np.abs(C) < 0.3] = 0.0
    C[~C.any(axis=1), -1] = 1.0
    # A tail that turns to zero only after normalization, and a row with a
    # double root, share the stack.
    extra = np.zeros((2, C.shape[1]))
    if C.shape[1] >= 4:
        extra[0, -4:] = [4.0, -12.0, 8.0, 5e-324]
        extra[1, -4:] = np.poly([1.0, 1.0, -2.0])
    else:
        extra[:, -1] = 1.0
    C = np.vstack([C, extra])
    assert _split(real_roots_batch(C)) == [real_roots(row) for row in C]


def test_denormal_tail_becomes_a_zero_root():
    # 5e-324 / 12 flushes to zero: the scalar path factors out x and reports 0.
    assert real_roots([4.0, -12.0, 8.0, 5e-324]) == pytest.approx([0.0, 1.0, 2.0], abs=1e-14)
    assert _split(real_roots_batch([[4.0, -12.0, 8.0, 5e-324], [0.0, 1.0, -3.0, 2.0]])) == [
        real_roots([4.0, -12.0, 8.0, 5e-324]),
        real_roots([1.0, -3.0, 2.0]),
    ]
    with pytest.raises(ValueError):
        real_roots_batch([[1.0, 2.0], [0.0, 0.0]])


def test_both_companions_overflow():
    # Subnormal end coefficients split off one extreme seed each: the front
    # one, near -1e320, overflows and is dropped, the back one is the
    # subnormal root.  A subnormal end next to a zero is not split off.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert real_roots([1e-320, 1.0, 1e-320]) == [-1e-320]
        assert real_roots([5e-324, 1.0, 5e-324]) == [-5e-324]
        # The root near -1e320 lies past the floats; the subnormal root and
        # the moderate roots 1 and 2, seeded from the middle polynomial, stay.
        roots = real_roots([1e-320, 1.0, -3.0, 2.0, 1e-320])
        assert len(roots) == 3
        assert roots[0] == pytest.approx(-5e-321, rel=1e-2)
        assert roots[1:] == pytest.approx([1.0, 2.0], rel=1e-14)
        # The middle polynomial 1e-320 x^2 + 1 of row 1 overflows its
        # companion; the reversed companion is finite, and its eigenvalues
        # +-1e-160 i add no real root.  The other rows of the stack come back
        # unchanged.
        C = np.array([[0.0, 1.0, -3.0, 2.0], [1e-320, 0.0, 1.0, 1e-320], [1.0, 0.0, -2.0, 0.0],
                      [1e-320, 1.0, -3.0, 1e-320]])
        out = _split(real_roots_batch(C))
        assert out[0] == real_roots([1.0, -3.0, 2.0])
        assert out[2] == real_roots([1.0, 0.0, -2.0, 0.0])
        assert out[1] == real_roots(C[1]) and out[3] == real_roots(C[3])
        assert real_roots([1e-320, 0.0, 1.0, 1e-320]) == [-1e-320]
        assert out[3] == pytest.approx([0.0, 3.0], abs=1e-14)
        # 1e-320 x^4 - x^2 + 1e-320 has no split end and overflows both
        # companions; it is seeded from p(2^s y).  Its roots are +-1e160 and
        # +-1e-160, and the last two are 0 at the merge scale max(1, |x|).
        far = 1.0 / math.sqrt(1e-320)
        assert real_roots([1e-320, 0.0, -1.0, 0.0, 1e-320]) == pytest.approx(
            [-far, 0.0, far], rel=1e-14, abs=1e-150)


def test_reversed_companion_keeps_the_moderate_roots():
    # A subnormal leading coefficient next to a zero is not split off, and
    # the companion overflows.  Rescaling the variable keeps the companion
    # finite but flushes the constant term of a long row to zero, and its
    # large entries swamp the small roots of a short one; the reversed
    # companion has entries of at most 1 and keeps them.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert real_roots([1e-320, 0.0, 1.0, -3.0, 2.0]) == pytest.approx([1.0, 2.0], rel=1e-14)
        # 1e-320 x^70 + x^68 - 1: its real roots are +-1 (the others lie near
        # +-1e160 i).  Far points also pass the residual test here, where
        # x^-70 p(x) is about x^-2, so only the roots below 10 are checked.
        roots = real_roots([1e-320, 0.0, 1.0] + [0.0] * 67 + [-1.0])
        assert [x for x in roots if abs(x) < 10.0] == pytest.approx([-1.0, 1.0], rel=1e-14)


def test_root_beyond_float_range_is_dropped():
    # 2e-311 x + 1 has its root at -5e310, past the largest float: the
    # leading coefficient is split off with the seed -1 / 2e-311, which
    # overflows and is dropped, so the row reports no root and no warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert real_roots([2e-311, 1.0]) == []
        assert real_roots([-2e-311, -1.0]) == []
        assert _split(real_roots_batch([[2e-311, 1.0], [1.0, -2.0]])) == [[], [2.0]]


def test_capped_seed_folds_into_its_root():
    # One Newton seed wanders to the 60-step cap and stops 1.2e-8 (relative)
    # short of the simple root -0.92425674681117 that another seed reaches;
    # its residual passes, so it used to be reported as a third root.
    roots = critical_equation_roots(0.24257649083905214, 1.6944987115830066, 4.9248567531692755, 8)
    assert roots == [-0.9242567468111885, 0.24305792326648423]
    # Here every seed near -1.806 reaches the cap: two jitter at the rounding
    # floor of the root, one is still converging 1.1e-5 (relative) short of
    # it and passes the residual test.  The jittering seeds count as
    # converged, and the straggler folds into them (lemma-roots at seed
    # 320007214, budget 80, counted three roots here).
    roots = critical_equation_roots(0.4057579847959731, 2.7501103764792325, 1.2210949923099719, 8)
    assert roots == pytest.approx([-1.8059781576425, 0.4058645699856645], rel=1e-13)


def test_capped_candidate_beyond_the_fold_window_is_kept():
    # A capped candidate folds into a converged one only within CAPPED_RTOL;
    # a distinct root just outside that window is kept beside it, on either
    # side and whichever of the two is capped.
    tol = rootfind.CAPPED_RTOL
    for x0 in (1.0, -0.5, 3e3):
        scale = max(1.0, abs(x0))
        for far, capped in ((1.5, [True, False]), (1.5, [False, True]), (0.5, [True, False]),
                            (0.5, [False, True])):
            x = np.array([x0, x0 + far * tol * scale])
            merged = x.copy()
            keep = rootfind._merge(merged, np.array(capped), np.zeros(2, dtype=np.intp))
            if far > 1.0:
                assert merged[keep].tolist() == x.tolist()
            else:
                # Folded: one root, at the converged candidate.
                assert merged[keep].tolist() == [x[capped.index(False)]]


def test_tiny_end_coefficients_keep_the_moderate_roots():
    # Ends below eps of their neighbours split off extreme roots; the
    # companion of the whole row lost the root 1 here.  The moderate roots
    # now come from the middle polynomial, and the extreme ones are still found.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        roots = real_roots([1e-300, 1.0, -3.0, 2.0, 1e-300])
        assert roots == pytest.approx([-1e300, -5e-301, 1.0, 2.0], rel=1e-14)
        roots = real_roots([1e-300, 1e-200, 1.0, -3.0, 2.0, 1e-300])
        assert [x for x in roots if abs(x) < 10.0] == pytest.approx([-5e-301, 1.0, 2.0], rel=1e-14)
        assert real_roots([1e-20, 1.0, -3.0, 2.0, 1e-20]) == pytest.approx(
            [-1e20, -1e-20 / 2.0, 1.0, 2.0], rel=1e-14)


def test_mixed_degrees_and_zero_structures_equal_single_rows(rng):
    # One stack of degrees 0..12 with leading, interior and trailing zeros,
    # denormal ends and tiny-end rows, against one call per row.
    rows = []
    for n in range(1, 14):
        for _ in range(4):
            row = rng.standard_normal(n)
            row[rng.random(n) < 0.3] = 0.0
            if not row.any():
                row[0] = 1.0
            rows.append(row)
    rows += [np.array([1e-300, 1.0, -3.0, 2.0, 1e-300]), np.array([4.0, -12.0, 8.0, 5e-324]),
             np.poly([1.0, 1.0, -2.0, 0.5]), np.array([2e-311, 1.0]), np.array([1e-320, 1.0, 1e-320])]
    C = np.zeros((len(rows), 13))
    for i, row in enumerate(rows):
        C[i, 13 - len(row):] = row
    with np.errstate(all="ignore"):
        got = _split(real_roots_batch(C))
        assert got == [real_roots(row) for row in rows]
        assert got == [real_roots(row) for row in C]


def _merge_reference(cand, capped, ok):
    """The merge one row and one root at a time: the vectorized rule's contract."""
    out = []
    for xs, cs, oks in zip(cand.tolist(), capped.tolist(), ok.tolist()):
        kept, last_capped = [], False
        for xi, ci, good in zip(xs, cs, oks):
            if not good:
                continue
            if kept:
                gap, scale = abs(xi - kept[-1]), max(1.0, abs(xi))
                if gap <= rootfind.DEDUP_RTOL * scale:
                    continue
                if ci != last_capped and gap <= rootfind.CAPPED_RTOL * scale:
                    if last_capped:
                        kept[-1], last_capped = xi, False
                    continue
            kept.append(xi)
            last_capped = ci
        out.append(kept)
    return out


def test_merge_matches_one_root_at_a_time(rng):
    # Sorted candidates in clusters closer than DEDUP_RTOL and CAPPED_RTOL,
    # with capped and converged members and rejected slots, row by row.
    for _ in range(300):
        m, w = int(rng.integers(1, 6)), int(rng.integers(1, 10))
        base = rng.choice([-3.0, 0.0, 1.0, 2.5, 4e7], size=(m, w))
        step = rng.choice([0.0, 3e-9, 5e-7, 2e-6, 0.3], size=(m, w))
        cand = np.sort(base + step * rng.standard_normal((m, w)) * np.maximum(1.0, np.abs(base)),
                       axis=1)
        capped, ok = rng.random((m, w)) < 0.4, rng.random((m, w)) < 0.85
        expected = _merge_reference(cand, capped, ok)
        x, row = cand[ok], np.nonzero(ok)[0]
        keep = rootfind._merge(x, capped[ok], row)
        assert [x[keep][row[keep] == i].tolist() for i in range(m)] == expected
