"""Nonsymmetric third-order machinery: alternating maximization for the
spectral norm, the 2x2x2 hyperdeterminant with its rank-two sign criterion,
the unit-spectral-norm normal form, and the feasible-region maximization that
pins the squared-Frobenius ceiling 9/4.

The feasible-region scan draws its samples once for all interior margins and
polishes every candidate with one stacked Nelder-Mead: all simplices step in
lockstep on an (M, n + 1, n) array, each row following scipy's rules and
stopping on its own test."""

from __future__ import annotations

import math
import string
from dataclasses import dataclass

import numpy as np

from .config import IterConfig, SearchConfig

__all__ = [
    "ALSResult",
    "FeasibleScanResult",
    "NormalForm222",
    "Tensor3",
    "als_spectral_norm",
    "als_spectral_norm_batch",
    "embed_normal_form",
    "extremal_tensor3",
    "feasible_max_scan",
    "feasible_max_scan_batch",
    "hyperdet",
    "hyperdet_stack",
    "make_rank_two_3",
    "normal_form_feasible",
    "ratio_3",
    "spectral_norm_3",
]

# Defaults of alternating maximization: more starts and a tighter tol than
# IterConfig's.
ALS_CONFIG = IterConfig(starts=32, tol=1e-14)


@dataclass
class Tensor3:
    """Dense real third-order tensor."""

    entries: np.ndarray

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=float)
        if self.entries.ndim != 3:
            raise ValueError(f"expected a third-order array, got ndim={self.entries.ndim}")
        if not np.all(np.isfinite(self.entries)):
            raise ValueError("entries must be finite")

    @property
    def dims(self) -> tuple:
        return self.entries.shape

    def frob_norm(self) -> float:
        """Frobenius norm; inf past the float range.

        As symtensor.frob_norm: the entries are scaled by 2^-k, for the power
        of two 2^k of the largest |entry|, before squaring, and the norm is
        scaled back, so tiny tensors neither underflow nor lose digits.
        """
        k = math.frexp(float(np.abs(self.entries).max(initial=0.0)))[1]
        try:
            return math.ldexp(float(np.linalg.norm(np.ldexp(self.entries, -k))), k)
        except OverflowError:
            return math.inf

    def to_json_dict(self) -> dict:
        return {"dims": list(self.entries.shape), "entries": self.entries.ravel().tolist()}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Tensor3":
        dims = tuple(int(n) for n in data["dims"])
        if dims != tuple(data["dims"]):
            raise ValueError(f"dims {data['dims']!r} are not integral")
        return cls(np.asarray(data["entries"], dtype=float).reshape(dims))


@dataclass
class ALSResult:
    """Outcome of alternating maximization: value, factors, convergence flag."""

    value: float
    factors: tuple
    converged: bool
    sweeps: int


def _als(T: np.ndarray, cfg: IterConfig | None, exit_ratio: float | None = None) -> list:
    """Alternating maximization over an (M, n1, ..., nk) stack, one result per tensor.

    Every tensor starts from the leading left singular vectors of its
    unfoldings plus random unit factors, drawn once per mode and shared by the
    whole stack, and leaves the stack once its largest objective gain over
    the starts falls below cfg.tol.

    With exit_ratio, a tensor also leaves once its best value over the
    starts, divided by its Frobenius norm (a lower bound on its ratio), is
    strictly above the smallest ratio of the tensors that already stopped by
    cfg.tol above exit_ratio.  It returns that lower bound with
    converged=False: its ratio is neither at or below exit_ratio nor the
    smallest of the stack.
    """
    cfg = cfg or ALS_CONFIG
    if T.ndim < 3:
        raise ValueError("need a tensor of order >= 2")
    if not np.all(np.any(T, axis=tuple(range(1, T.ndim)))):
        raise ValueError("zero tensor has no spectral maximizer")
    m, dims = T.shape[0], T.shape[1:]
    if not m:
        return []
    order = len(dims)
    # Iterate on each tensor scaled by the power of two of its largest
    # |entry|: the updates are scale-invariant, and the stack keeps clear of
    # underflow and overflow.
    scale = np.frexp(np.abs(T).max(axis=tuple(range(1, T.ndim))))[1]
    T = np.ldexp(T, -scale.reshape((m,) + (1,) * order))
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    factors = []
    for mode in range(order):
        unfolding = np.moveaxis(T, mode + 1, 1).reshape(m, dims[mode], -1)
        F = np.empty((m, cfg.starts + 1, dims[mode]))
        F[:] = rng.standard_normal((cfg.starts + 1, dims[mode]))
        F[:, 0] = np.linalg.svd(unfolding, full_matrices=False)[0][:, :, 0]
        F /= np.linalg.norm(F, axis=2, keepdims=True)
        factors.append(F)

    letters = string.ascii_lowercase[:order]
    value_spec = ",".join(["z" + letters] + ["zs" + le for le in letters]) + "->zs"
    # Mode updates contract T against the other factors, in mode order.
    update_specs = [",".join(["z" + letters] + ["zs" + le for le in letters if le != out]) + "->zs" + out
                    for out in letters]

    results: list = [None] * m
    active = np.arange(m)

    def finish(done, converged, sweeps):
        for i in np.nonzero(done)[0]:
            best = int(np.argmax(obj[i]))
            with np.errstate(over="ignore"):  # inf past the float range
                value = float(np.ldexp(obj[i, best], scale[active[i]]))
            results[active[i]] = ALSResult(
                value=value,
                factors=tuple(f[i, best].copy() for f in factors),
                converged=converged,
                sweeps=sweeps,
            )

    obj = np.abs(np.einsum(value_spec, T, *factors))
    fros = np.linalg.norm(T.reshape(m, -1), axis=1)  # scaled as obj is
    cutoff = math.inf
    for sweep in range(1, cfg.max_iters + 1):
        if not active.size:
            break
        for mode, spec in enumerate(update_specs):
            contraction = np.einsum(spec, T, *factors[:mode], *factors[mode + 1:])
            norms = np.linalg.norm(contraction, axis=2)
            dead = norms == 0.0
            if dead.any():
                contraction[dead] = rng.standard_normal((int(dead.sum()), dims[mode]))
                norms[dead] = np.linalg.norm(contraction[dead], axis=1)
            factors[mode] = contraction / norms[:, :, None]
        if (norms < obj - 1e-12 * (1.0 + obj)).any():
            raise RuntimeError("alternating maximization lost monotonicity")
        done = (norms - obj).max(axis=1) < cfg.tol
        obj = norms
        finish(done, True, sweep)
        if exit_ratio is not None:
            ratios = obj.max(axis=1) / fros
            cutoff = ratios[done & (ratios > exit_ratio)].min(initial=cutoff)
            decided = ~done & (ratios > cutoff)
            finish(decided, False, sweep)
            done |= decided
        if done.any():
            keep = ~done
            active, T, obj, fros = active[keep], T[keep], obj[keep], fros[keep]
            factors = [f[keep] for f in factors]
    finish(np.ones(active.size, dtype=bool), False, cfg.max_iters)
    return results


def als_spectral_norm_batch(tensors: np.ndarray, cfg: IterConfig | None = None,
                            exit_ratio: float | None = None) -> list:
    """Spectral norms of an (M, n1, ..., nk) stack by alternating maximization.

    Each tensor follows the rules of als_spectral_norm (its own HOSVD start,
    its own stopping sweep); the random starts are shared by the stack.
    exit_ratio lets a tensor stop early with a lower bound, as _als says.
    Returns one ALSResult per tensor.
    """
    return _als(np.asarray(tensors, dtype=float), cfg, exit_ratio)


def als_spectral_norm(T: np.ndarray, cfg: IterConfig | None = None) -> ALSResult:
    """Spectral norm of a dense order-k tensor by alternating maximization.

    Each sweep maximizes over one factor at a time (a contraction against the
    remaining factors followed by normalization), which makes the objective
    <T, u_1 x ... x u_k> nondecreasing.  Multistart from random unit factors
    plus the leading singular vectors of the unfoldings.  The one-tensor case
    of als_spectral_norm_batch.
    """
    return _als(np.asarray(T, dtype=float)[None], cfg)[0]


def spectral_norm_3(T: Tensor3, cfg: IterConfig | None = None) -> ALSResult:
    """Alternating maximization of <T, u1 x u2 x u3> over unit factors."""
    return als_spectral_norm(T.entries, cfg)


def ratio_3(T: Tensor3, cfg: IterConfig | None = None) -> float:
    """Spectral-to-Frobenius norm ratio of a third-order tensor."""
    fro = T.frob_norm()
    if fro == 0.0:
        raise ValueError("ratio undefined for the zero tensor")
    return spectral_norm_3(T, cfg).value / fro


def hyperdet_stack(stack: np.ndarray) -> np.ndarray:
    """Cayley's hyperdeterminant over the leading axes of (..., 2, 2, 2): the
    discriminant of the slice pencil det(M0 + x M1), positive exactly on
    real-rank-two tensors."""
    t = np.asarray(stack, dtype=float)
    if t.shape[-3:] != (2, 2, 2):
        raise ValueError(f"hyperdeterminant needs trailing dims (2, 2, 2), got {t.shape}")
    b = (
        t[..., 0, 0, 0] * t[..., 1, 1, 1]
        + t[..., 0, 1, 1] * t[..., 1, 0, 0]
        - t[..., 0, 0, 1] * t[..., 1, 1, 0]
        - t[..., 0, 1, 0] * t[..., 1, 0, 1]
    )
    det0 = t[..., 0, 0, 0] * t[..., 0, 1, 1] - t[..., 0, 0, 1] * t[..., 0, 1, 0]
    det1 = t[..., 1, 0, 0] * t[..., 1, 1, 1] - t[..., 1, 0, 1] * t[..., 1, 1, 0]
    return b * b - 4.0 * det0 * det1


def hyperdet(T: Tensor3) -> float:
    """Cayley's hyperdeterminant of a 2x2x2 tensor, the one-tensor case of
    hyperdet_stack.

    Vanishes on rank-one tensors and on the border of the rank-two set; its
    sign equals the sign of d^2 + 4abc on embedded normal forms.
    """
    return float(hyperdet_stack(T.entries))


@dataclass(frozen=True)
class NormalForm222:
    """Parameters (a, b, c, d) of the unit-spectral-norm 2x2x2 normal form.

    Slice layout (third index as slice index):
        slice 0 = [[1, 0], [0, b]],  slice 1 = [[0, a], [c, d]].
    Feasibility: |a|, |b|, |c| <= 1 and a^2 + b^2 + c^2 + d^2 + 2abc <= 1.
    """

    a: float
    b: float
    c: float
    d: float

    def constraint_value(self) -> float:
        return self.a**2 + self.b**2 + self.c**2 + self.d**2 + 2.0 * self.a * self.b * self.c

    def rank_two_criterion(self) -> float:
        """d^2 + 4abc: positive iff the embedded tensor has real rank two."""
        return self.d**2 + 4.0 * self.a * self.b * self.c


def normal_form_feasible(a, b, c, d, slack: float = 1e-12) -> bool:
    nf = NormalForm222(a, b, c, d)
    return (
        abs(a) <= 1.0 + slack
        and abs(b) <= 1.0 + slack
        and abs(c) <= 1.0 + slack
        and nf.constraint_value() <= 1.0 + slack
    )


def embed_normal_form(nf: NormalForm222) -> Tensor3:
    """The 2x2x2 tensor of a feasible normal form; it has spectral norm one."""
    if not normal_form_feasible(nf.a, nf.b, nf.c, nf.d):
        raise ValueError("normal-form parameters violate the feasibility constraints")
    t = np.zeros((2, 2, 2))
    t[0, 0, 0] = 1.0
    t[1, 1, 0] = nf.b
    t[0, 1, 1] = nf.a
    t[1, 0, 1] = nf.c
    t[1, 1, 1] = nf.d
    return Tensor3(t)


def make_rank_two_3(u1, u2, u3, v1, v2, v3) -> Tensor3:
    """u1 x u2 x u3 + v1 x v2 x v3 as a dense third-order tensor."""
    u1, u2, u3, v1, v2, v3 = (np.asarray(x, dtype=float) for x in (u1, u2, u3, v1, v2, v3))
    for u, v in ((u1, v1), (u2, v2), (u3, v3)):
        if u.shape != v.shape or u.ndim != 1:
            raise ValueError("factor dimensions must match mode by mode")
    return Tensor3(np.einsum("i,j,k->ijk", u1, u2, u3) + np.einsum("i,j,k->ijk", v1, v2, v3))


def extremal_tensor3() -> Tensor3:
    """The 2x2x2 boundary tensor with ones at the permutations of (0, 0, 1)."""
    t = np.zeros((2, 2, 2))
    t[0, 0, 1] = t[0, 1, 0] = t[1, 0, 0] = 1.0
    return Tensor3(t)


@dataclass
class FeasibleScanResult:
    value: float
    argmax: NormalForm222
    boundary: bool
    criterion_at_argmax: float
    samples: int


# Elementwise left-to-right sums throughout: a reduction would change its
# summation order with the stack's shape, and every row must get the same
# bits whatever stack it sits in.
def _scan_sq(X: np.ndarray) -> np.ndarray:
    """|x|^2 over the last axis of (..., 4) normal-form parameters."""
    Q = X * X
    return Q[..., 0] + Q[..., 1] + Q[..., 2] + Q[..., 3]


def _scan_constraints(X: np.ndarray, sq: np.ndarray, margin) -> tuple:
    """The constraint values g(x) of (..., 4) parameters with |x|^2 = sq:
    the feasibility and rank-two constraints, each of shape X.shape[:-1],
    and the box constraints of a, b and c as one (..., 3) array; x is
    feasible where every one is <= 0.  margin broadcasts against
    X.shape[:-1]."""
    abc = X[..., 0] * X[..., 1] * X[..., 2]
    return (sq + 2.0 * abc - 1.0, margin - (X[..., 3] * X[..., 3] + 4.0 * abc),
            np.abs(X[..., :3]) - 1.0)


def _scan_feasible(X: np.ndarray, margin) -> np.ndarray:
    """Mask of the points of X that satisfy every constraint."""
    g0, g1, box = _scan_constraints(X, _scan_sq(X), margin)
    return (g0 <= 0.0) & (g1 <= 0.0) & (box <= 0.0).all(axis=-1)


def _scan_penalty(X: np.ndarray, mu: float, margin) -> np.ndarray:
    """-(1 + |x|^2) + mu * sum(max(g, 0)^2), the five terms added in
    order: the polish objective; a NaN constraint value makes it NaN."""
    sq = _scan_sq(X)
    g0, g1, box = (np.maximum(g, 0.0) for g in _scan_constraints(X, sq, margin))
    box *= box
    total = g0 * g0
    total += g1 * g1
    total += box[..., 0]
    total += box[..., 1]
    total += box[..., 2]
    total *= mu
    total -= 1.0 + sq
    return total


def _feasible_samples(cfg: SearchConfig, margins):
    """Uniform samples of [-1, 1]^4, drawn once for every margin, with |pts|^2
    and one feasibility mask per margin, shape (len(margins), samples)."""
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    pts = rng.uniform(-1.0, 1.0, size=(max(int(cfg.budget), 1000), 4))
    sq = np.einsum("ij,ij->i", pts, pts)
    abc = pts[:, 0] * pts[:, 1] * pts[:, 2]
    feas = (sq + 2.0 * abc <= 1.0) & (pts[:, 3] ** 2 + 4.0 * abc
                                      >= np.asarray(margins, dtype=float)[:, None])
    return pts, sq, feas


# Candidate points (1 + t) xbar - t worst of one Nelder-Mead step, in the
# order reflection, expansion, outside and inside contraction, as
# coefficient pairs (1 + t, t), written as scipy writes them.
_NM_MOVES = np.array([[2.0, 1.0], [3.0, 2.0], [1.5, 0.5], [0.5, -0.5]])


def _nelder_mead(f, x0, maxiter: int) -> np.ndarray:
    """Nelder-Mead from each row of the (M, n) array x0, all in lockstep.

    Row by row this is scipy.optimize.minimize(f_row, x0[i],
    method="Nelder-Mead", options={"xatol": 1e-13, "fatol": 1e-13,
    "maxiter": maxiter}).x, step for step: the same initial simplex, moves,
    ordering of ties and stopping test.  Each row leaves the stack at its own
    stop.  f(X, rows) takes an (m, k, n) stack of points, where point X[j]
    belongs to row rows[j] of x0, and returns their (m, k) values.  All four
    candidate points of a step are evaluated in one call; Nelder-Mead has no
    evaluation budget, so the unused ones change no decision.
    """
    x0 = np.array(x0, dtype=float)
    m, n = x0.shape
    sim = np.repeat(x0[:, None], n + 1, axis=1)
    diag = np.arange(n)
    sim[:, diag + 1, diag] = np.where(x0 != 0, (1 + 0.05) * x0, 0.00025)
    rows = np.arange(m)
    fsim = f(sim, rows)
    out = np.empty_like(x0)
    idx = np.arange(m)
    for it in range(maxiter):
        order = np.argsort(fsim, axis=1)  # NumPy's order of ties, as scipy's
        sim, fsim = sim[idx[:, None], order], fsim[idx[:, None], order]
        done = ((np.abs(sim[:, 1:] - sim[:, :1]).max(axis=(1, 2)) <= 1e-13)
                & (np.abs(fsim[:, :1] - fsim[:, 1:]).max(axis=1) <= 1e-13))
        if it == maxiter - 1 or done.all():
            out[rows] = sim[:, 0]
            break
        if done.any():
            out[rows[done]] = sim[done, 0]
            rows, sim, fsim = rows[~done], sim[~done], fsim[~done]
            idx = np.arange(len(rows))
        xbar = sim[:, :-1].sum(axis=1) / n
        cand = _NM_MOVES[:, 0, None] * xbar[:, None] - _NM_MOVES[:, 1, None] * sim[:, -1:]
        fc = f(cand, rows)
        fxr, best, second, worst = fc[:, 0], fsim[:, 0], fsim[:, -2], fsim[:, -1]
        # The candidate that replaces the worst vertex; -1 shrinks the simplex.
        pick = np.where(
            fxr < best, (fc[:, 1] < fxr).astype(int),
            np.where(fxr < second, 0,
                     np.where(fxr < worst, np.where(fc[:, 2] <= fxr, 2, -1),
                              np.where(fc[:, 3] < worst, 3, -1))))
        sim[:, -1] = np.where((pick >= 0)[:, None], cand[idx, pick], sim[:, -1])
        fsim[:, -1] = np.where(pick >= 0, fc[idx, pick], worst)
        shrink = pick < 0
        if shrink.any():  # toward the best vertex
            s = sim[shrink]
            s[:, 1:] = s[:, :1] + 0.5 * (s[:, 1:] - s[:, :1])
            sim[shrink] = s
            fsim[shrink, 1:] = f(s[:, 1:], rows[shrink])
    return out


# Scales 1 - 1e-9 * 2^k below 0.5 tried before the bisection, nearest first.
_SHRINK_STEPS = 1e-9 * 2.0 ** np.arange(29)


def _feasible_shrink(X: np.ndarray, margin: np.ndarray):
    """Pull slightly infeasible polish results back into the region by
    scaling each row of X toward the origin, all rows in lockstep.

    A feasible row stays.  Otherwise the nearest scale 1 - 1e-9 * 2^k that
    is feasible, then 60 bisections toward 1.  Returns the scaled rows and
    the mask of rows for which some scale worked.
    """
    lo = np.ones(len(X))
    feasible = _scan_feasible(X, margin)
    tried = _scan_feasible((1.0 - _SHRINK_STEPS)[:, None] * X[:, None], margin[:, None])
    found = feasible | tried.any(axis=1)
    todo = ~feasible & found
    if todo.any():
        lo[todo] = 1.0 - _SHRINK_STEPS[tried[todo].argmax(axis=1)]
        hi = np.ones(int(todo.sum()))
        for _ in range(60):
            mid = 0.5 * (lo[todo] + hi)
            ok = _scan_feasible(mid[:, None] * X[todo], margin[todo])
            lo[todo] = np.where(ok, mid, lo[todo])
            hi = np.where(ok, hi, mid)
    return lo[:, None] * X, found


def _feasible_values(X: np.ndarray, margin: np.ndarray):
    """Shrunk rows of X and their objective values, -inf where none."""
    X, found = _feasible_shrink(X, margin)
    return X, np.where(found, 1.0 + _scan_sq(X), -math.inf)


def feasible_max_scan_batch(cfg: SearchConfig | None, margins) -> list:
    """feasible_max_scan for each interior margin of the sequence margins,
    one result per margin.

    The samples are drawn once and shared by every margin.  The polish of
    every margin's candidates runs as one stacked Nelder-Mead, and so does
    each step of the restart chains, one row per margin.  Rows never mix, so
    each result is bit for bit the one-margin scan.
    """
    cfg = cfg or SearchConfig(budget=1_000_000)
    margins = np.asarray(margins, dtype=float)
    pts, sq, feas = _feasible_samples(cfg, margins)
    tops = []
    for mask in feas:
        top = np.argsort(np.where(mask, 1.0 + sq, -np.inf))[-40:]
        if not mask[top].any():
            raise RuntimeError("no feasible sample found")
        tops.append(top[mask[top]])
    owner = np.repeat(np.arange(len(margins)), [top.size for top in tops])
    starts = np.concatenate(tops)

    def polish(X0, margin, mu, maxiter):
        return _nelder_mead(lambda X, rows: _scan_penalty(X, mu, margin[rows, None]), X0, maxiter)

    X, vals = _feasible_values(polish(pts[starts], margins[owner], 1e4, 400), margins[owner])
    fallback = vals == -math.inf
    X[fallback] = pts[starts[fallback]]
    vals[fallback] = 1.0 + sq[starts[fallback]]
    best_x = np.empty((len(margins), 4))
    best_val = np.empty(len(margins))
    for j in range(len(margins)):
        mine = np.nonzero(owner == j)[0]
        k = mine[np.argmax(vals[mine])]  # the first of equal values
        best_x[j], best_val[j] = X[k], vals[k]
    # Increasing-penalty restarts from the incumbent recover the digits the
    # first Nelder-Mead pass leaves on the table after simplex collapse.
    seed_x = best_x.copy()
    for mu in (1e4, 1e6, 1e8):
        for _ in range(2):
            seed_x = polish(seed_x, margins, mu, 2000)
            X, vals = _feasible_values(seed_x, margins)
            better = vals > best_val
            best_x[better], best_val[better] = X[better], vals[better]
    results = []
    for margin, x, val in zip(margins.tolist(), best_x, best_val):
        nf = NormalForm222(*(float(y) for y in x))
        criterion = nf.rank_two_criterion()
        results.append(FeasibleScanResult(
            value=float(val),
            argmax=nf,
            boundary=abs(criterion - margin) <= 1e-5,
            criterion_at_argmax=float(criterion),
            samples=len(pts),
        ))
    return results


def feasible_max_scan(cfg: SearchConfig | None = None, interior_margin: float = 0.0) -> FeasibleScanResult:
    """Maximize 1 + a^2 + b^2 + c^2 + d^2 over the feasible normal forms
    intersected with the rank-two closure d^2 + 4abc >= interior_margin.

    Dense rejection sampling in [-1, 1]^4, then a stacked Nelder-Mead polish
    of the 40 best samples on a quadratic penalty, each result pulled back
    into the region by scaling, then a chain of restarts from the incumbent
    under increasing penalties.  The global maximum 9/4 sits on the boundary
    d^2 + 4abc = 0, which the result flags.  The one-margin case of
    feasible_max_scan_batch.
    """
    return feasible_max_scan_batch(cfg, (interior_margin,))[0]
