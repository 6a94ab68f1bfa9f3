import math
import warnings

import numpy as np
import pytest

from tensorratio.ranktwo import (
    _cos_gap_pow,
    _family_coeffs,
    extremal_spectral_norm,
    extremal_tensor,
)
from tensorratio.rootfind import real_roots
from tensorratio.spectral import _tangential_coeffs, binary_coeffs, spectral_norm_binary_coeffs


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
        theta = math.acos(0.95)
        c = _family_coeffs(1.3, 0.7, theta, 300, _cos_gap_pow(theta, 300))
        roots = real_roots(_tangential_coeffs(c)[::-1])
        assert len(roots) == 157
        far = [x for x in roots if abs(x) > 10.0]
        assert far == pytest.approx([-27226169.39000648, 11.99115078191346], rel=1e-14)
        for d in range(5, 13):
            theta = math.pi / 2
            ms = spectral_norm_binary_coeffs(
                _family_coeffs(1.0, 1.0, theta, d, _cos_gap_pow(theta, d))
            )
            assert ms.value == pytest.approx(1.0, rel=1e-14)
            assert len(ms.points) == 2
            assert np.allclose(ms.points, [[0.0, 1.0], [1.0, 0.0]], rtol=0, atol=1e-14)
