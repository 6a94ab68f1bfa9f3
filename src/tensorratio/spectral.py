"""Spectral norm and best symmetric rank-one approximation.

Two routes are provided.  For binary tensors (dim 2) the spectral norm is
computed exactly to roundoff: critical points of the restricted form on the
circle are the real roots of the tangential-derivative polynomial, found by
companion-matrix eigenvalues with Newton polish.  For general dimension a
shifted symmetric power iteration with multistart gives a monotone heuristic
lower bound, flagged as non-exact.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .config import IterConfig
from .rootfind import real_roots_batch
from .symtensor import SymTensor, frob_norm, poly_eval, poly_grad

__all__ = [
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


class DegenerateTensorError(ValueError):
    """The tangential derivative vanishes identically (rotation-invariant form)."""


@dataclass
class MaximizerSet:
    """Spectral norm with one representative maximizer per antipodal class."""

    value: float
    points: list = field(default_factory=list)
    is_exact: bool = True
    converged: bool = True

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


def _orient(w: np.ndarray) -> np.ndarray:
    """Flip sign so the first nonzero coordinate is positive."""
    for x in w:
        if abs(x) > 1e-12:
            return w if x > 0 else -w
    return w


def _dedup_antipodal(points):
    out = []
    for w in points:
        w = _orient(np.asarray(w, dtype=float))
        if all(
            min(np.linalg.norm(w - o), np.linalg.norm(w + o)) > ANTIPODAL_TOL
            for o in out
        ):
            out.append(w)
    out.sort(key=lambda w: tuple(w))
    return out


def binary_coeffs(A: SymTensor) -> np.ndarray:
    """Coefficients c_k of p_A(x, y) = sum_k c_k x^k y^(d-k) for a dim-2 tensor."""
    if A.dim != 2:
        raise ValueError(f"binary solver needs dim 2, got dim {A.dim}")
    d = A.order
    return np.array([math.comb(d, k) * A.coeff((k, d - k)) for k in range(d + 1)])


def _tangential_coeffs(C: np.ndarray) -> np.ndarray:
    """Rows of q = x * dp/dy - y * dp/dx in the same x^m y^(d-m) basis as C."""
    d = C.shape[-1] - 1
    m = np.arange(d + 1)
    Q = np.zeros(C.shape)
    Q[..., 1:] += (d - m[1:] + 1) * C[..., :-1]
    Q[..., :-1] -= (m[:-1] + 1) * C[..., 1:]
    return Q


def spectral_norm_binary_batch(C, tol: float = REL_MAX_TOL) -> list[MaximizerSet]:
    """Binary exact solver on each row of dehomogenized coefficients c_k of p(x, y).

    C has shape (M, d+1); the rows share one root isolation.  Fast path for
    callers that assemble degree-d forms directly; see spectral_norm_binary
    for the contract.  Raises if any row is zero or rotation-invariant.
    """
    C = np.asarray(C, dtype=float)
    m, n = C.shape
    d = n - 1
    if not C.any(axis=1).all():
        raise ValueError("zero tensor has no spectral maximizer")
    Q = _tangential_coeffs(C)
    qmax = np.abs(Q).max(axis=1)
    if not qmax.all():
        raise DegenerateTensorError(
            "tangential derivative vanishes identically; every direction is critical"
        )
    roots = real_roots_batch(Q[:, ::-1])
    counts = np.fromiter(map(len, roots), dtype=np.intp, count=m)
    xs = np.fromiter(itertools.chain.from_iterable(roots), dtype=float, count=counts.sum())
    # 1 + x^2 overflows past |x| ~ 1.3e154; there sqrt(1 + x^2) is |x|.
    ax = np.abs(xs)
    hyp = np.where(ax > 1e150, ax, np.sqrt(1.0 + np.minimum(ax, 1e150) ** 2))
    X, Y = xs / hyp, 1.0 / hyp
    row_of = np.repeat(np.arange(m), counts)
    ks = np.arange(n)
    vals = np.abs((C[row_of] * X[:, None] ** ks * Y[:, None] ** (d - ks)).sum(axis=1))
    root_max = np.full(m, -np.inf)
    np.maximum.at(root_max, row_of, vals)
    # The axis probe (1, 0), where p = c_d, always enters the value, but it
    # only counts as a maximizer class when the axis is itself critical
    # (q(1,0) = q_d = 0) or when it beats every root candidate; otherwise a
    # maximizer hugging the axis would be double-counted through the probe.
    probe = np.abs(C[:, -1])
    values = np.maximum(root_max, probe)
    floor = values * (1.0 - tol)
    keep = vals >= floor[row_of]
    keep_probe = (probe >= floor) & (
        (np.abs(Q[:, -1]) <= 1e-12 * qmax) | ~(probe < root_max)
    )
    points = np.column_stack([X, Y])
    ends = np.cumsum(counts).tolist()
    out = []
    for i, (s, e) in enumerate(zip([0] + ends, ends)):
        kept = list(points[s:e][keep[s:e]])
        if keep_probe[i]:
            kept.append(np.array([1.0, 0.0]))
        out.append(MaximizerSet(value=float(values[i]), points=_dedup_antipodal(kept), is_exact=True))
    return out


def spectral_norm_binary_coeffs(c, tol: float = REL_MAX_TOL) -> MaximizerSet:
    """Binary exact solver on the dehomogenized coefficients c_k of p(x, y).

    The one-row case of spectral_norm_binary_batch; see spectral_norm_binary
    for the contract.
    """
    return spectral_norm_binary_batch(np.asarray(c, dtype=float)[None], tol)[0]


def spectral_norm_binary(A: SymTensor, tol: float = REL_MAX_TOL) -> MaximizerSet:
    """Exact-to-roundoff spectral norm of a binary symmetric tensor.

    Critical directions on the circle solve q(x, 1) = 0 for the tangential
    derivative q; the single remaining direction (1, 0) is always tested as
    well.  Returns the maximum of |p_A| over the candidates and every argmax
    class within the relative tolerance ``tol``.
    """
    return spectral_norm_binary_coeffs(binary_coeffs(A), tol)


def count_global_maximizers(A: SymTensor, tol: float = REL_MAX_TOL) -> int:
    """Number of antipodal classes attaining the spectral norm within ``tol``."""
    return len(spectral_norm_binary(A, tol).points)


def _power_starts(A: SymTensor, cfg: IterConfig) -> list[np.ndarray]:
    n = A.dim
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    starts = [np.eye(n)[i] for i in range(n)]
    for _ in range(cfg.starts):
        w = rng.standard_normal(n)
        starts.append(w / np.linalg.norm(w))
    # One extra start: the best of a cheap probe pool, to escape the
    # near-zero-gradient region of sharply concentrated forms.
    probes = rng.standard_normal((64, n))
    probes /= np.linalg.norm(probes, axis=1, keepdims=True)
    best = max(probes, key=lambda w: abs(poly_eval(A, w)))
    starts.append(best)
    return starts


def spectral_norm_power(A: SymTensor, cfg: IterConfig | None = None) -> MaximizerSet:
    """Shifted symmetric power iteration, multistart; flagged is_exact=False.

    Each start iterates w <- normalize(sign * grad p_A(w) + s * w) with shift
    s = d(d-1) ||A||_F, which makes the shifted form convex so the objective
    sign * p_A(w) is nondecreasing.  For even order both signs are ascended,
    since |p_A| maxima may hide on the negative side.
    """
    cfg = cfg or IterConfig()
    d = A.order
    fro = frob_norm(A)
    if fro == 0.0:
        raise ValueError("zero tensor has no spectral maximizer")
    shift = d * max(d - 1, 1) * fro
    signs = (1.0, -1.0) if d % 2 == 0 else (1.0,)
    # A start also counts as converged once its tangential gradient vanishes
    # relative to the gradient scale d ||A||_F: it sits at a critical point.
    crit_tol = 1e-11 * d * fro
    candidates = []
    for w0 in _power_starts(A, cfg):
        for sign in signs:
            w = w0
            f_prev = -math.inf
            converged = False
            for _ in range(cfg.max_iters):
                grad = poly_grad(A, w)
                # Homogeneity gives the value for free: p(w) = <w, grad>/d.
                f = sign * float(w @ grad) / d
                if f < f_prev - 1e-9 * (abs(f_prev) + fro):
                    raise RuntimeError("power iteration lost monotonicity; shift too small")
                f_prev = f
                if np.linalg.norm(grad - (grad @ w) * w) < crit_tol:
                    converged = True
                    break
                g = sign * grad + shift * w
                norm_g = np.linalg.norm(g)
                if norm_g == 0.0:
                    converged = True
                    break
                w_new = g / norm_g
                step = np.linalg.norm(w_new - w)
                w = w_new
                if step < cfg.tol:
                    converged = True
                    break
            candidates.append((abs(poly_eval(A, w)), w, converged))
    value = max(v for v, _, _ in candidates)
    near = [(w, ok) for v, w, ok in candidates if v >= value * (1.0 - REL_MAX_TOL)]
    return MaximizerSet(
        value=float(value),
        points=_dedup_antipodal([w for w, _ in near]),
        is_exact=False,
        converged=all(ok for _, ok in near),
    )


def spectral_norm(A: SymTensor, cfg: IterConfig | None = None) -> MaximizerSet:
    """Exact binary solver for dim 2, power iteration (is_exact=False) otherwise."""
    if A.dim == 2:
        return spectral_norm_binary(A)
    return spectral_norm_power(A, cfg)


def best_rank_one(A: SymTensor, method: str = "auto", cfg: IterConfig | None = None) -> RankOneApprox:
    """Best symmetric rank-one approximation lam * w^d with lam = p_A(w).

    Uses the exact binary solver when dim = 2 (or method="exact"), otherwise
    power iteration.  The residual identity
    ||A - lam w^d||_F^2 = ||A||_F^2 - lam^2 holds for the returned pair.
    """
    if method == "auto":
        ms = spectral_norm(A, cfg)
    elif method == "exact":
        ms = spectral_norm_binary(A)
    elif method == "power":
        ms = spectral_norm_power(A, cfg)
    else:
        raise ValueError(f"unknown method hint {method!r}")
    w = ms.points[0]
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
