"""Real roots of univariate polynomials via companion eigenvalues plus polish.

Every companion eigenvalue's real part seeds a Newton iteration; polished
points are accepted on a residual test relative to the coefficient scale and
then merged by proximity.  Seeding from real parts (instead of filtering on
imaginary parts alone) keeps real roots of modest multiplicity, whose
eigenvalue clusters split far into the complex plane.
"""

from __future__ import annotations

import numpy as np

# Residual acceptance and root-merging thresholds, both scale-invariant.
RESIDUAL_RTOL = 1e-10
DEDUP_RTOL = 1e-8

_NEWTON_ITERS = 60


def _newton(coeffs, dcoeffs, x):
    for _ in range(_NEWTON_ITERS):
        fx = np.polyval(coeffs, x)
        fpx = np.polyval(dcoeffs, x)
        if fpx == 0.0 or not np.isfinite(fpx):
            break
        step = fx / fpx
        x_new = x - step
        if not np.isfinite(x_new):
            break
        if abs(step) <= 1e-15 * max(1.0, abs(x_new)):
            return x_new
        x = x_new
    return x


def real_roots(coeffs_desc) -> list[float]:
    """Distinct real roots of the polynomial with descending coefficients.

    Raises ValueError on the zero polynomial.  Roots closer than DEDUP_RTOL
    (relative) are reported once.
    """
    c = np.asarray(coeffs_desc, dtype=float)
    if c.size == 0 or not np.any(c):
        raise ValueError("zero polynomial has no isolated roots")
    c = np.trim_zeros(c, "f")
    if c.size == 1:
        return []
    c = c / np.max(np.abs(c))
    # Factor out x^k so the companion matrix never sees the cluster at 0.
    core = np.trim_zeros(c, "b")
    has_zero_root = core.size < c.size

    candidates = []
    if core.size > 1:
        dcore = np.polyder(core)
        seeds = np.unique(np.real(np.roots(core)))
        # A far seed may overflow the polynomial; _newton then stops on the
        # non-finite value and the residual test below judges the seed.
        with np.errstate(over="ignore", invalid="ignore"):
            candidates.extend([_newton(core, dcore, x) for x in seeds])
    if has_zero_root:
        candidates.append(0.0)

    deg = c.size - 1
    out: list[float] = []
    for x in sorted(candidates):
        if not np.isfinite(x):
            continue
        # |p(x)| <= tol * max(1, |x|)^deg, evaluated as |x^-deg p(x)| through
        # the reversed polynomial at 1/x when |x| > 1 so nothing overflows.
        residual = abs(np.polyval(c, x) if abs(x) <= 1.0 else np.polyval(c[::-1], 1.0 / x))
        if not residual <= RESIDUAL_RTOL * (deg + 1):
            continue
        if out and abs(x - out[-1]) <= DEDUP_RTOL * max(1.0, abs(x)):
            continue
        out.append(float(x))
    return out
