"""Real roots of univariate polynomials via companion eigenvalues plus polish.

Every companion eigenvalue's real part seeds a Newton iteration; polished
points are accepted on a residual test relative to the coefficient scale and
then merged by proximity.  Seeding from real parts (instead of filtering on
imaginary parts alone) keeps real roots of modest multiplicity, whose
eigenvalue clusters split far into the complex plane.

The solver works on a stack of coefficient rows: rows that share their zero
structure share one stacked eigenvalue call and one masked Newton loop.  A
single polynomial is the one-row case.
"""

from __future__ import annotations

import numpy as np

# Residual acceptance and root-merging thresholds, both scale-invariant.
RESIDUAL_RTOL = 1e-10
DEDUP_RTOL = 1e-8
# A seed that stops at the Newton cap can pass the residual test short of a
# simple root; within this distance of a converged neighbour it is that root.
CAPPED_RTOL = 1e-6

_NEWTON_ITERS = 60


def _horner(C: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Row-wise np.polyval: C[i] evaluated at x[i], in the same operation order."""
    y = np.zeros_like(x)
    for col in C.T:
        y = y * x + col
    return y


def _polish(C: np.ndarray, x: np.ndarray):
    """Newton on every (C[i], x[i]) pair, each pair stopping on its own.

    A pair keeps its point when f' is zero or not finite or the step leaves
    the floats, returns the new point once the step is below 1e-15 relative,
    and otherwise stops after _NEWTON_ITERS steps.  f' = 0 gives a non-finite
    step and an infinite f' a zero step, so the step tests cover both.
    Returns the points and the indices of the pairs stopped by the cap.
    """
    n = C.shape[1]
    # One Horner pass evaluates f and f'; the f' rows carry a leading zero,
    # which leaves np.polyval's operation sequence unchanged.
    CD = np.zeros((n, 2, x.size))
    CD[:, 0, :] = C.T
    CD[1:, 1, :] = (C[:, :-1] * np.arange(n - 1, 0, -1)).T
    x = x.copy()
    live = np.arange(x.size)
    xa = x
    for _ in range(_NEWTON_ITERS):
        y = np.zeros((2, xa.size))
        for col in CD:
            y = y * xa + col
        step = y[0] / y[1]
        x_new = xa - step
        # False for a non-finite x_new as well: its bound is inf or NaN.
        go = np.abs(step) > 1e-15 * np.maximum(1.0, np.abs(x_new))
        if go.all():
            xa = x_new
            continue
        stop = ~go
        x[live[stop]] = np.where(np.isfinite(x_new), x_new, xa)[stop]
        live = live[go]
        if not live.size:
            return x, live
        xa = x_new[go]
        CD = CD[:, :, go]
    x[live] = xa
    return x, live


def _companion_seeds(core: np.ndarray) -> np.ndarray:
    """Sorted real parts of the companion eigenvalues of each row, repeats as NaN.

    Rows are descending coefficients with nonzero first and last entries.  A
    row whose companion overflows (a near-zero leading coefficient) is seeded
    from the reversed polynomial, whose roots are the reciprocals.  A row
    whose reversed companion overflows as well (both end coefficients below
    ~1e-308 of the largest) is seeded from p(2^s y), with s the least integer
    that keeps the companion below 2^1001; the seeds are then 2^s y.
    """
    m, n = core.shape
    A = np.zeros((m, n - 1, n - 1))
    A[:, np.arange(1, n - 1), np.arange(n - 2)] = 1.0
    with np.errstate(over="ignore"):
        A[:, 0, :] = -core[:, 1:] / core[:, :1]
        rev = ~np.isfinite(A[:, 0, :]).all(axis=1)
        A[rev, 0, :] = -core[rev, -2::-1] / core[rev, -1:]
        scaled = ~np.isfinite(A[:, 0, :]).all(axis=1)
    rev &= ~scaled
    if scaled.any():
        # c_k / c_0 = (mant_k / mant_0) 2^gap_k, and p(2^s y) / (c_0 2^(s deg))
        # has the companion entries (c_k / c_0) 2^(-k s).
        mant, ex = np.frexp(core[scaled])
        gap = ex[:, 1:] - ex[:, :1]
        k = np.arange(1, n)
        s = np.where(mant[:, 1:] != 0.0, -((1000 - gap) // k), 0).max(axis=1)
        A[scaled, 0, :] = -np.ldexp(mant[:, 1:] / mant[:, :1], gap - k * s[:, None])
    z = np.linalg.eigvals(A)
    seeds = z.real
    if rev.any():
        zb = z[rev]
        nonzero = zb != 0.0
        inv = np.full(zb.shape, np.nan)
        # A subnormal zb has a reciprocal beyond the float range; its seed is
        # then non-finite and dropped, as no float root lies that far out.
        with np.errstate(over="ignore", invalid="ignore"):
            inv[nonzero] = (1.0 / zb[nonzero]).real
        seeds[rev] = inv
    if scaled.any():
        with np.errstate(over="ignore"):
            seeds[scaled] = np.ldexp(seeds[scaled], s[:, None])
    seeds = np.sort(seeds, axis=1)
    seeds[:, 1:][seeds[:, 1:] == seeds[:, :-1]] = np.nan
    return seeds


def _solve_group(cn: np.ndarray, lead: int, lead2: int, trail: int) -> list[list[float]]:
    """Roots of normalized rows sharing one zero structure.

    lead counts the exact leading zeros of the input rows, lead2 >= lead the
    leading zeros after normalization, trail the trailing zeros after it.
    """
    m, n = cn.shape
    c = cn[:, lead:]
    if c.shape[1] == 1:
        return [[] for _ in range(m)]
    # Factor out x^trail so the companion matrix never sees the cluster at 0.
    core = cn[:, lead2:n - trail]
    cand = np.zeros((m, core.shape[1] - 1 + (trail > 0)))
    capped = np.zeros(cand.shape, dtype=bool)
    if core.shape[1] > 1:
        seeds = _companion_seeds(core)
        rows, cols = np.nonzero(np.isfinite(seeds))
        cand[:, :seeds.shape[1]] = np.nan
        # A far seed may overflow the polynomial; Newton then stops on the
        # non-finite value and the residual test below judges the seed.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            cand[rows, cols], live = _polish(core[rows], seeds[rows, cols])
        capped[rows[live], cols[live]] = True
    order = (np.arange(m)[:, None], np.argsort(cand, axis=1, kind="stable"))
    cand, capped = cand[order], capped[order]

    rows, cols = np.nonzero(np.isfinite(cand))
    x, x_capped = cand[rows, cols], capped[rows, cols]
    # |p(x)| <= tol * max(1, |x|)^deg, evaluated as |x^-deg p(x)| through
    # the reversed polynomial at 1/x when |x| > 1 so nothing overflows.
    far = np.abs(x) > 1.0
    t = x.copy()
    t[far] = 1.0 / x[far]
    P = c[rows]
    P[far] = P[far, ::-1]
    ok = np.abs(_horner(P, t)) <= RESIDUAL_RTOL * c.shape[1]

    out: list[list[float]] = [[] for _ in range(m)]
    last_capped = [False] * m
    for r, xi, ci in zip(rows[ok].tolist(), x[ok].tolist(), x_capped[ok].tolist()):
        kept = out[r]
        if kept:
            gap = abs(xi - kept[-1])
            scale = max(1.0, abs(xi))
            if gap <= DEDUP_RTOL * scale:
                continue
            # A capped point next to a converged one folds into it, keeping
            # the converged value.
            if ci != last_capped[r] and gap <= CAPPED_RTOL * scale:
                if last_capped[r]:
                    kept[-1], last_capped[r] = xi, False
                continue
        kept.append(xi)
        last_capped[r] = ci
    return out


def real_roots_batch(C) -> list[list[float]]:
    """Distinct real roots of each row of C, descending coefficients, shape (M, n).

    Rows of different degree carry leading zeros.  Raises ValueError when a
    row is the zero polynomial.  Roots closer than DEDUP_RTOL (relative) are
    reported once.
    """
    C = np.asarray(C, dtype=float)
    if C.ndim != 2:
        raise ValueError("real_roots_batch needs a 2-D array of coefficient rows")
    m, n = C.shape
    nonzero = C != 0.0
    if n == 0 or not nonzero.any(axis=1).all():
        raise ValueError("zero polynomial has no isolated roots")
    # Normalize first: the division can flush denormal end coefficients to
    # zero, and the zero structure that decides the factoring is taken after.
    cn = C / np.abs(C).max(axis=1, keepdims=True)
    nz = cn != 0.0
    groups: dict = {}
    keys = zip(nonzero.argmax(axis=1).tolist(), nz.argmax(axis=1).tolist(),
               nz[:, ::-1].argmax(axis=1).tolist())
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    out: list = [None] * m
    for key, idx in groups.items():
        for i, roots in zip(idx, _solve_group(cn[idx], *key)):
            out[i] = roots
    return out


def real_roots(coeffs_desc) -> list[float]:
    """Distinct real roots of the polynomial with descending coefficients.

    The one-row case of real_roots_batch.  Raises ValueError on the zero
    polynomial.  Roots closer than DEDUP_RTOL (relative) are reported once.
    """
    return real_roots_batch(np.asarray(coeffs_desc, dtype=float)[None])[0]
