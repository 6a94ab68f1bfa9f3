"""Real roots of univariate polynomials via companion eigenvalues plus polish.

Every companion eigenvalue's real part seeds a Newton iteration; polished
points are accepted on a residual test relative to the coefficient scale and
then merged by proximity.  Seeding from real parts (instead of filtering on
imaginary parts alone) keeps real roots of modest multiplicity, whose
eigenvalue clusters split far into the complex plane.

The solver works on a stack of coefficient rows of any mix of degrees and
zero structures: rows whose companions have one size share one stacked
eigenvalue call, and every seed of every row runs in one masked Newton loop.
A single polynomial is the one-row case.
"""

from __future__ import annotations

import numpy as np

# Residual acceptance and root-merging thresholds, both scale-invariant.
RESIDUAL_RTOL = 1e-10
DEDUP_RTOL = 1e-8
# A seed that stops at the Newton cap can pass the residual test short of a
# simple root; within this distance of a converged neighbour it is that root.
# On the suites' chart and lemma polynomials such stragglers lay 1e-7 to 1e-3
# from their root, and distinct converged roots came as close as 4.6e-5; the
# one straggler that changed a root count lay 1.1e-5 from its root.
CAPPED_RTOL = 2e-5
# A seed whose last Newton step at the cap is below this (relative) sits at
# the rounding floor of its root and counts as converged.
_STEP_FLOOR = 1e-12

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
    Returns the points and the indices of the pairs stopped by the cap whose
    last step was above _STEP_FLOOR relative; the others at the cap only
    jitter at the rounding floor of a root.
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
    return x, live[~(np.abs(step[go]) <= _STEP_FLOOR * np.maximum(1.0, np.abs(xa)))]


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


def _shift_right(A: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Row i of A moved s_i places to the right, with zeros shifted in.

    Horner's rule over leading zeros gives the same bits as over the row
    alone at any finite x.
    """
    cols = np.arange(A.shape[1]) - s[:, None]
    return np.where(cols >= 0, A[np.arange(len(A))[:, None], cols], 0.0)


def _merge(x: np.ndarray, capped: np.ndarray, row: np.ndarray) -> np.ndarray:
    """Mask of the roots kept from the accepted candidates x, which come
    ascending within each row, row after row.

    A candidate within DEDUP_RTOL of the last kept root is that root; a
    capped candidate within CAPPED_RTOL of a converged one folds into it,
    and the converged value is kept (a fold rewrites x in place).  A
    candidate farther than CAPPED_RTOL from the one before it is kept
    whatever came before, since the last kept root lies at or below that
    one, and starts a run; the rule runs position by position within the
    runs, for all runs at once.
    """
    near = np.zeros(len(x), dtype=bool)
    near[1:] = (row[1:] == row[:-1]) & (
        np.abs(x[1:] - x[:-1]) <= CAPPED_RTOL * np.maximum(1.0, np.abs(x[1:])))
    start = np.flatnonzero(~near)
    run = np.cumsum(~near) - 1
    pos = np.arange(len(x)) - start[run]
    keep, capped = ~near, capped.copy()
    # The last kept candidate of each run.
    last = start
    for k in range(1, pos.max(initial=0) + 1):
        i = np.flatnonzero(pos == k)
        r = run[i]
        j = last[r]
        gap = np.abs(x[i] - x[j])
        scale = np.maximum(1.0, np.abs(x[i]))
        dup = gap <= DEDUP_RTOL * scale
        fold = ~dup & (capped[i] != capped[j]) & (gap <= CAPPED_RTOL * scale)
        swap = fold & capped[j]
        x[j[swap]], capped[j[swap]] = x[i[swap]], False
        new = ~dup & ~fold
        keep[i[new]] = True
        last[r[new]] = i[new]
    return keep


def real_roots_batch(C) -> tuple[np.ndarray, np.ndarray]:
    """Distinct real roots of each row of C, descending coefficients, shape (M, n).

    Returns (roots, counts): the roots of every row, ascending within a row
    and row after row, and the count of each row.  Rows of different degree
    carry leading zeros.  Raises ValueError when a row is the zero
    polynomial.  Roots closer than DEDUP_RTOL (relative) are reported once.
    """
    C = np.asarray(C, dtype=float)
    if C.ndim != 2:
        raise ValueError("real_roots_batch needs a 2-D array of coefficient rows")
    m, n = C.shape
    nonzero = C != 0.0
    if n == 0 or not nonzero.any(axis=1).all():
        raise ValueError("zero polynomial has no isolated roots")
    if m == 0:
        return np.zeros(0), np.zeros(0, dtype=np.intp)
    # Normalize first: the division can flush denormal end coefficients to
    # zero, and the zero structure that decides the factoring is taken after.
    cn = C / np.abs(C).max(axis=1, keepdims=True)
    nz = cn != 0.0
    lead = nonzero.argmax(axis=1)
    lead2 = nz.argmax(axis=1)
    trail = nz[:, ::-1].argmax(axis=1)
    # Factor out x^trail so the companion matrix never sees the cluster at 0;
    # the core of row i is cn[i, lead2_i : n - trail_i], after zeros.
    width = n - trail - lead2
    wc = int(width.max())
    core = _shift_right(cn, trail)[:, n - wc:]
    deg = width - 1
    cand = np.full((m, int((deg + (trail > 0)).max())), np.nan)
    capped = np.zeros(cand.shape, dtype=bool)
    cand[trail > 0, deg[trail > 0]] = 0.0
    # An end coefficient at most eps times its neighbour splits off one
    # extreme root, near -c_1/c_0 at the front and -c_deg/c_(deg-1) at the
    # back, and so does each next one in a run of such gaps.  The companion
    # of the whole row can lose the moderate roots under these gaps, so
    # those are seeded from the middle polynomial between the runs.  The
    # zeros before a core pass the test too, and a run ends at the row's
    # largest coefficient at the latest.
    eps, a = np.finfo(float).eps, np.abs(core)
    stop = np.zeros((m, 1), dtype=bool)
    front = np.hstack([a[:, :-1] <= eps * a[:, 1:], stop]).argmin(axis=1) - (wc - width)
    back = np.hstack([a[:, :0:-1] <= eps * a[:, -2::-1], stop]).argmin(axis=1)
    mid = width - front - back
    seeds = np.full((m, cand.shape[1]), np.nan)
    with np.errstate(over="ignore", divide="ignore"):
        for k in range(int(front.max())):
            r = np.nonzero(front > k)[0]
            j = wc - width[r] + k
            seeds[r, mid[r] - 1 + k] = -core[r, j + 1] / core[r, j]
        for k in range(int(back.max())):
            r = np.nonzero(back > k)[0]
            seeds[r, mid[r] - 1 + front[r] + k] = -core[r, -1 - k] / core[r, -2 - k]
    # One stacked eigenvalue call per middle width, then one Newton loop for
    # every seed of every row.
    widths = np.flatnonzero(np.bincount(mid))
    for w in widths[widths > 1].tolist():
        idx = np.nonzero(mid == w)[0]
        seeds[idx, :w - 1] = _companion_seeds(_shift_right(core[idx], back[idx])[:, wc - w:])
    rows, cols = np.nonzero(np.isfinite(seeds))
    if rows.size:
        # A far seed may overflow the polynomial; Newton then stops on the
        # non-finite value and the residual test below judges the seed.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            cand[rows, cols], live = _polish(core[rows], seeds[rows, cols])
        capped[rows[live], cols[live]] = True
    order = (np.arange(m)[:, None], np.argsort(cand, axis=1, kind="stable"))
    cand, capped = cand[order], capped[order]

    rows, cols = np.nonzero(np.isfinite(cand))
    x = cand[rows, cols]
    # |p(x)| <= tol * max(1, |x|)^deg, evaluated as |x^-deg p(x)| through
    # the reversed polynomial at 1/x when |x| > 1 so nothing overflows.
    far = np.abs(x) > 1.0
    t = x.copy()
    t[far] = 1.0 / x[far]
    P = cn[rows]
    if far.any():
        P[far] = _shift_right(cn[rows[far], ::-1], lead[rows[far]])
    ok = np.abs(_horner(P, t)) <= RESIDUAL_RTOL * (n - lead[rows])
    x, rows = x[ok], rows[ok]
    keep = _merge(x, capped[rows, cols[ok]], rows)
    return x[keep], np.bincount(rows[keep], minlength=m)


def real_roots(coeffs_desc) -> list[float]:
    """Distinct real roots of the polynomial with descending coefficients.

    The one-row case of real_roots_batch.  Raises ValueError on the zero
    polynomial.  Roots closer than DEDUP_RTOL (relative) are reported once.
    """
    return real_roots_batch(np.asarray(coeffs_desc, dtype=float)[None])[0].tolist()
