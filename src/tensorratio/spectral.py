"""Spectral norm and best symmetric rank-one approximation.

Two routes are provided.  For binary tensors (dim 2) the spectral norm is
computed exactly to roundoff: critical points of the restricted form on the
circle are the real roots of the tangential-derivative polynomial, found by
companion-matrix eigenvalues with Newton polish; a stack of forms shares one
root isolation.  For general dimension the shifted symmetric power method
(SS-HOPM) gives a monotone heuristic lower bound, flagged as non-exact: its
starts and, for even order, both signs run as the rows of one stack, and each
row leaves the stack when it stops.  Each row's shift adapts to the Hessian
at its iterate (Kolda & Mayo, SIAM J. Matrix Anal. Appl. 35, 2014), with the
global shift d(d-1) ||A||_F as the fallback for a step that does not ascend.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .config import IterConfig
from .rootfind import real_roots_batch
from .symtensor import SymTensor, frob_norm, poly_eval, poly_grad, poly_hess

__all__ = [
    "BinaryMaxima",
    "DegenerateTensorError",
    "IterConfig",
    "MaximizerSet",
    "RankOneApprox",
    "best_rank_one",
    "binary_coeffs",
    "count_global_maximizers",
    "ratio",
    "relative_distance",
    "spectral_norm_binary",
    "spectral_norm_binary_batch",
    "spectral_norm_binary_coeffs",
    "spectral_norm_power",
]

# A critical point counts as a global maximizer when |p_A| >= value * (1 - REL_MAX_TOL).
REL_MAX_TOL = 1e-9
# Two unit maximizers are the same antipodal class when min ||w1 -+ w2|| < this.
ANTIPODAL_TOL = 1e-6
# Least curvature the adaptive SS-HOPM shift leaves on the ||A||_F-normalized
# scale, so that the shifted form is strictly convex near the iterate.
_SHIFT_FLOOR = 1e-6


class DegenerateTensorError(ValueError):
    """The tangential derivative vanishes identically (rotation-invariant form)."""


@dataclass
class MaximizerSet:
    """Spectral norm with one representative maximizer per antipodal class."""

    value: float
    points: list = field(default_factory=list)
    is_exact: bool = True
    converged: bool = True
    # Stacked power-iteration steps, and the rows still moving when they
    # hit the step cap; None for the exact solver.
    iterations: int | None = None
    capped_rows: int | None = None

    def to_json_dict(self) -> dict:
        return {
            "value": self.value,
            "points": [[float(x) for x in w] for w in self.points],
            "is_exact": self.is_exact,
        }


@dataclass(frozen=True)
class RankOneApprox:
    """Best symmetric rank-one approximant lam * w^d with w unit."""

    lam: float
    w: np.ndarray


def _antipodal_classes(points: np.ndarray, rows: np.ndarray):
    """One oriented representative per antipodal class of the points of each row.

    points (K, n) come grouped by row, rows (K,) nondecreasing.  Each point
    is flipped so that its first coordinate above 1e-12 in size is positive.
    Within a row, points are taken in their given order, and a point whose
    distance to a point already taken, up to sign, is not above
    ANTIPODAL_TOL joins that point's class.  Returns the representatives and
    their rows, sorted coordinate by coordinate within each row.
    """
    points = np.asarray(points, dtype=float)
    big = np.abs(points) > 1e-12
    lead = points[np.arange(len(points)), big.argmax(axis=1)]
    points = np.where((big.any(axis=1) & (lead < 0.0))[:, None], -points, points)
    # Each pass takes the first point left in every row and drops the points
    # of that row within the tolerance of it, itself included.  A dropped
    # point follows the taken point it is close to, and a taken point is
    # close to no point taken before it, so this is the one-at-a-time rule
    # in one pass per class.
    taken = np.zeros(len(points), dtype=bool)
    left = np.arange(len(points))
    while left.size:
        r = rows[left]
        first = left[np.searchsorted(r, r)]
        taken[first] = True
        a, b = points[left] - points[first], points[left] + points[first]
        left = left[np.sqrt(np.minimum(np.vecdot(a, a), np.vecdot(b, b))) > ANTIPODAL_TOL]
    points, rows = points[taken], rows[taken]
    order = np.lexsort(tuple(points[:, ::-1].T) + (rows,))
    return points[order], rows[order]


def binary_coeffs(A: SymTensor) -> np.ndarray:
    """Coefficients c_k of p_A(x, y) = sum_k c_k x^k y^(d-k) for a dim-2 tensor."""
    if A.dim != 2:
        raise ValueError(f"binary solver needs dim 2, got dim {A.dim}")
    d = A.order
    return np.array([math.comb(d, k) * A.coeff((k, d - k)) for k in range(d + 1)])


def as_orders(d, m: int | None = None) -> np.ndarray:
    """d as an integer array of orders, broadcast to m rows when m is given.

    Takes ints, numpy integers and integral floats; any other order raises
    ValueError instead of being truncated.
    """
    d = np.asarray(d)
    if m is not None:
        d = np.broadcast_to(d, (m,))
    with np.errstate(invalid="ignore"):
        orders = d.astype(np.intp)
    if not np.array_equal(orders, d):
        raise ValueError("order d must be an integer")
    return orders


def _tangential_coeffs(C: np.ndarray, d=None) -> np.ndarray:
    """Rows of q = x * dp/dy - y * dp/dx in the same x^m y^(d-m) basis as C.

    d is the order of every row (by default the last column's), or an array
    of per-row orders; a row's columns past its order are zero, and so are
    its q columns there.
    """
    d = np.asarray(C.shape[-1] - 1 if d is None else d)[..., None]
    m = np.arange(C.shape[-1])
    Q = np.zeros(C.shape)
    Q[..., 1:] += (d - m[1:] + 1) * C[..., :-1]
    Q[..., :-1] -= (m[:-1] + 1) * C[..., 1:]
    return Q


class BinaryMaxima(NamedTuple):
    """Exact spectral norms of a stack of binary forms, as arrays.

    values (M,) are the norms; points (K, 2) one unit maximizer per
    antipodal class, grouped by row in row order; row (K,) the row of each
    point; counts (M,) the classes of each row.
    """

    values: np.ndarray
    points: np.ndarray
    row: np.ndarray
    counts: np.ndarray

    def maximizer_set(self, i: int) -> MaximizerSet:
        """Row i as a MaximizerSet."""
        start, stop = np.searchsorted(self.row, (i, i + 1))
        return MaximizerSet(value=float(self.values[i]), points=list(self.points[start:stop]),
                            is_exact=True)


def spectral_norm_binary_batch(C, d=None) -> BinaryMaxima:
    """Binary exact solver on each row of dehomogenized coefficients c_k of p(x, y).

    C has shape (M, n); row i holds c_0..c_(d_i), zero past its order d_i.
    d is one order for every row (by default n - 1) or an array of per-row
    orders.  All rows share one root isolation, and a row's result does not
    depend on the rest of the stack.  See spectral_norm_binary for the
    contract.  Raises if any row is zero or rotation-invariant.
    """
    C = np.asarray(C, dtype=float)
    m, n = C.shape
    d = as_orders(n - 1 if d is None else d, m)
    if not C.any(axis=1).all():
        raise ValueError("zero tensor has no spectral maximizer")
    Q = _tangential_coeffs(C, d)
    qmax = np.abs(Q).max(axis=1)
    if not qmax.all():
        raise DegenerateTensorError(
            "tangential derivative vanishes identically; every direction is critical"
        )
    xs, counts = real_roots_batch(Q[:, ::-1])
    row_of = np.repeat(np.arange(m), counts)
    # 1 + x^2 overflows past |x| ~ 1.3e154; there sqrt(1 + x^2) is |x|.
    ax = np.abs(xs)
    hyp = np.where(ax > 1e150, ax, np.sqrt(1.0 + np.minimum(ax, 1e150) ** 2))
    X, Y = xs / hyp, 1.0 / hyp
    # |p| at the roots, one order at a time so that each row's sum runs
    # over exactly its d + 1 terms.
    vals = np.empty(len(xs))
    for order in np.flatnonzero(np.bincount(d)).tolist():
        at = d[row_of] == order
        ks = np.arange(order + 1)
        vals[at] = np.abs((C[row_of[at], :order + 1] * X[at, None] ** ks
                           * Y[at, None] ** (order - ks)).sum(axis=1))
    root_max = np.full(m, -np.inf)
    np.maximum.at(root_max, row_of, vals)
    # The axis probe (1, 0), where p = c_d, always enters the value, but it
    # only counts as a maximizer class when the axis is itself critical
    # (q(1,0) = q_d = 0) or when it beats every root candidate; otherwise a
    # maximizer hugging the axis would be double-counted through the probe.
    ar = np.arange(m)
    probe = np.abs(C[ar, d])
    values = np.maximum(root_max, probe)
    floor = values * (1.0 - REL_MAX_TOL)
    keep = vals >= floor[row_of]
    keep_probe = (probe >= floor) & (
        (np.abs(Q[ar, d]) <= 1e-12 * qmax) | ~(probe < root_max)
    )
    # Each row's kept roots in ascending x, which is angle order, then its
    # probe, where x is infinite.
    probes = int(keep_probe.sum())
    rows = np.concatenate([row_of[keep], ar[keep_probe]])
    X = np.concatenate([X[keep], np.ones(probes)])
    Y = np.concatenate([Y[keep], np.zeros(probes)])
    order = np.argsort(rows, kind="stable")
    points, rows = _antipodal_classes(np.column_stack([X, Y])[order], rows[order])
    return BinaryMaxima(values, points, rows, np.bincount(rows, minlength=m))


def spectral_norm_binary_coeffs(c) -> MaximizerSet:
    """Binary exact solver on the dehomogenized coefficients c_k of p(x, y).

    The one-row case of spectral_norm_binary_batch; see spectral_norm_binary
    for the contract.
    """
    return spectral_norm_binary_batch(np.asarray(c, dtype=float)[None]).maximizer_set(0)


def spectral_norm_binary(A: SymTensor) -> MaximizerSet:
    """Exact-to-roundoff spectral norm of a binary symmetric tensor.

    Critical directions on the circle solve q(x, 1) = 0 for the tangential
    derivative q; the single remaining direction (1, 0) is always tested as
    well.  Returns the maximum of |p_A| over the candidates and every argmax
    class within the relative tolerance REL_MAX_TOL.
    """
    return spectral_norm_binary_coeffs(binary_coeffs(A))


def count_global_maximizers(A: SymTensor) -> int:
    """Number of antipodal classes attaining the spectral norm within REL_MAX_TOL."""
    return len(spectral_norm_binary(A).points)


def _row_norms(X: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, equal to np.linalg.norm on that row."""
    return np.sqrt(np.vecdot(X, X))


def _power_starts(A: SymTensor, cfg: IterConfig) -> np.ndarray:
    """(n + starts + 1, n) unit starts: the axes, random draws, the best probe."""
    n = A.dim
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    draws = rng.standard_normal((cfg.starts, n))
    # One extra start: the best of a cheap probe pool, to escape the
    # near-zero-gradient region of sharply concentrated forms.
    probes = rng.standard_normal((64, n))
    probes /= np.linalg.norm(probes, axis=1, keepdims=True)
    best = probes[np.argmax(np.abs(poly_eval(A, probes)))]
    return np.vstack([np.eye(n), draws / _row_norms(draws)[:, None], best])


def _unit_rows(G: np.ndarray) -> np.ndarray:
    """Each row of G divided by its norm; zero rows stay zero."""
    norms = _row_norms(G)
    return G / np.where(norms == 0.0, 1.0, norms)[:, None]


def spectral_norm_power(A: SymTensor, cfg: IterConfig | None = None) -> MaximizerSet:
    """Shifted symmetric power iteration, multistart; flagged is_exact=False.

    Each start ascends sign * p_A by w <- normalize(sign * grad p_A(w) + a * w)
    with an adaptive shift: a = max(0, tau ||A||_F - lambda_min) for the
    smallest eigenvalue lambda_min of sign * Hess p_A(w), the least shift
    that makes sign * p_A + a/2 ||x||^2 convex near w.  A step that does not
    ascend is retaken with the global shift d(d-1) ||A||_F, under which the
    shifted form is convex on the whole ball, so sign * p_A(w) is
    nondecreasing.  For even order both signs are ascended, since |p_A|
    maxima may hide on the negative side.  Every start and sign is one row
    of a stack; a row leaves the stack when it stops.  The result's
    iterations counts the stacked steps until the last row stopped, and
    capped_rows the rows still moving at cfg.max_iters.  converged speaks
    for the rows at the maximum only, so a capped row elsewhere leaves it
    True.
    """
    cfg = cfg or IterConfig()
    d = A.order
    fro = frob_norm(A)
    if fro == 0.0:
        raise ValueError("zero tensor has no spectral maximizer")
    # Iterate on A / 2^k, for the power of two 2^k of ||A||_F: every step
    # is homogeneous in A, so the scaling is exact and moves no bit, but the
    # squares in the row norms of a tiny or huge tensor stay in range.
    k = math.frexp(fro)[1]
    A = SymTensor(d, A.dim, {e: math.ldexp(v, -k) for e, v in A.items()})
    fro = math.ldexp(fro, -k)
    shift = d * max(d - 1, 1) * fro
    signs = (1.0, -1.0) if d % 2 == 0 else (1.0,)
    # A start also counts as converged once its tangential gradient vanishes
    # relative to the gradient scale d ||A||_F: it sits at a critical point.
    crit_tol = 1e-11 * d * fro
    starts = _power_starts(A, cfg)
    W = np.repeat(starts, len(signs), axis=0)
    sign = np.tile(signs, len(starts))
    live = np.arange(len(W))
    f_prev = np.full(len(W), -math.inf)
    iterations = 0
    while live.size and iterations < cfg.max_iters:
        iterations += 1
        w, s = W[live], sign[live]
        grad = poly_grad(A, w)
        # Homogeneity gives the value for free: p(w) = <w, grad>/d.
        f = s * np.vecdot(w, grad) / d
        if (f < f_prev - 1e-9 * (np.abs(f_prev) + fro)).any():
            raise RuntimeError("power iteration lost monotonicity; shift too small")
        # Each row stops at its first hit: critical point (keeps w), zero
        # step direction (keeps w), step below tol (takes the new w).
        moving = ~(_row_norms(grad - np.vecdot(grad, w)[:, None] * w) < crit_tol)
        live, w, s, grad, f = live[moving], w[moving], s[moving], grad[moving], f[moving]
        # lam is taken on the ||A||_F-normalized scale, where it lies within
        # +-d(d-1), so the shift never exceeds (tau + d(d-1)) ||A||_F.
        lam = np.linalg.eigvalsh(poly_hess(A, w) * (s / fro)[:, None, None])[:, 0]
        step = _unit_rows(s[:, None] * grad + (fro * np.maximum(0.0, _SHIFT_FLOOR - lam))[:, None] * w)
        # A row whose adaptive step does not ascend takes the global step.
        back = ~(s * poly_eval(A, step) >= f - 1e-9 * (np.abs(f) + fro))
        step[back] = _unit_rows(s[back, None] * grad[back] + shift * w[back])
        moving = step.any(axis=1)
        W[live[moving]] = step[moving]
        moving[moving] = ~(_row_norms(step[moving] - w[moving]) < cfg.tol)
        live, f_prev = live[moving], f[moving]
    # Rows still live ran into the iteration cap.
    converged = np.ones(len(W), dtype=bool)
    converged[live] = False
    values = np.abs(poly_eval(A, W))
    value = values.max()
    near = values >= value * (1.0 - REL_MAX_TOL)
    points, _ = _antipodal_classes(W[near], np.zeros(int(near.sum()), dtype=np.intp))
    return MaximizerSet(math.ldexp(float(value), k), list(points), is_exact=False,
                        converged=bool(converged[near].all()), iterations=iterations,
                        capped_rows=int(live.size))


def spectral_norm(A: SymTensor, cfg: IterConfig | None = None) -> MaximizerSet:
    """Exact binary solver for dim 2, power iteration (is_exact=False) otherwise."""
    if A.dim == 2:
        return spectral_norm_binary(A)
    return spectral_norm_power(A, cfg)


def best_rank_one(A: SymTensor, cfg: IterConfig | None = None) -> RankOneApprox:
    """Best symmetric rank-one approximation lam * w^d with lam = p_A(w).

    Uses spectral_norm: exact for dim 2, power iteration otherwise.  The
    residual identity ||A - lam w^d||_F^2 = ||A||_F^2 - lam^2 holds for the
    returned pair.
    """
    w = spectral_norm(A, cfg).points[0]
    return RankOneApprox(lam=poly_eval(A, w), w=w)


def ratio(A: SymTensor, cfg: IterConfig | None = None) -> float:
    """Spectral-to-Frobenius norm ratio, in (0, 1]; equals 1 iff rank one."""
    fro = frob_norm(A)
    if fro == 0.0:
        raise ValueError("ratio undefined for the zero tensor")
    return spectral_norm(A, cfg).value / fro


def relative_distance(A: SymTensor, cfg: IterConfig | None = None) -> float:
    """Relative Frobenius distance to the set of rank-one tensors, in [0, 1)."""
    r = ratio(A, cfg)
    return math.sqrt(max(1.0 - r * r, 0.0))
