"""Nonsymmetric third-order machinery: alternating maximization for the
spectral norm, the 2x2x2 hyperdeterminant with its rank-two sign criterion,
the unit-spectral-norm normal form, and the feasible-region maximization that
pins the squared-Frobenius ceiling 9/4."""

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
        with np.errstate(over="ignore"):  # inf when the sum of squares overflows
            return float(np.linalg.norm(self.entries))

    def to_json_dict(self) -> dict:
        return {"dims": list(self.entries.shape), "entries": self.entries.ravel().tolist()}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Tensor3":
        dims = tuple(int(n) for n in data["dims"])
        return cls(np.asarray(data["entries"], dtype=float).reshape(dims))


@dataclass
class ALSResult:
    """Outcome of alternating maximization: value, factors, convergence flag."""

    value: float
    factors: tuple
    converged: bool
    sweeps: int


def _als(T: np.ndarray, cfg: IterConfig | None) -> list:
    """Alternating maximization over an (M, n1, ..., nk) stack, one result per tensor.

    Every tensor starts from the leading left singular vectors of its
    unfoldings plus random unit factors, drawn once per mode and shared by the
    whole stack, and leaves the stack once its largest objective gain over
    the starts falls below cfg.tol.
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
            results[active[i]] = ALSResult(
                value=float(obj[i, best]),
                factors=tuple(f[i, best].copy() for f in factors),
                converged=converged,
                sweeps=sweeps,
            )

    obj = np.abs(np.einsum(value_spec, T, *factors))
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
        if done.any():
            finish(done, True, sweep)
            keep = ~done
            active, T, obj = active[keep], T[keep], obj[keep]
            factors = [f[keep] for f in factors]
    finish(np.ones(active.size, dtype=bool), False, cfg.max_iters)
    return results


def als_spectral_norm_batch(tensors: np.ndarray, cfg: IterConfig | None = None) -> list:
    """Spectral norms of an (M, n1, ..., nk) stack by alternating maximization.

    Each tensor follows the rules of als_spectral_norm (its own HOSVD start,
    its own stopping sweep); the random starts are shared by the stack.
    Returns one ALSResult per tensor.
    """
    return _als(np.asarray(tensors, dtype=float), cfg)


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
    if T.entries.ndim != 3:
        raise ValueError("spectral_norm_3 needs a third-order tensor")
    return als_spectral_norm(T.entries, cfg)


def ratio_3(T: Tensor3, cfg: IterConfig | None = None) -> float:
    """Spectral-to-Frobenius norm ratio of a third-order tensor."""
    fro = T.frob_norm()
    if fro == 0.0:
        raise ValueError("ratio undefined for the zero tensor")
    return spectral_norm_3(T, cfg).value / fro


def _hyperdet_formula(t: np.ndarray) -> np.ndarray:
    """Degree-4 invariant of (..., 2, 2, 2) arrays: the discriminant of the
    slice pencil det(M0 + x M1); positive exactly on real-rank-two tensors."""
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
    """Cayley's hyperdeterminant of a 2x2x2 tensor.

    Vanishes on rank-one tensors and on the border of the rank-two set; its
    sign equals the sign of d^2 + 4abc on embedded normal forms.
    """
    if T.dims != (2, 2, 2):
        raise ValueError(f"hyperdeterminant needs dims (2, 2, 2), got {T.dims}")
    return float(_hyperdet_formula(T.entries))


def hyperdet_stack(stack: np.ndarray) -> np.ndarray:
    """Vectorized hyperdeterminant over the leading axes of (..., 2, 2, 2)."""
    stack = np.asarray(stack, dtype=float)
    if stack.shape[-3:] != (2, 2, 2):
        raise ValueError("trailing dims must be (2, 2, 2)")
    return _hyperdet_formula(stack)


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


def _scan_objective(x) -> float:
    return 1.0 + float(np.dot(x, x))


def _scan_constraints(x, interior_margin: float):
    """Constraint values g(x), feasible where every one is <= 0."""
    a, b, c, d = map(float, x)
    g1 = a * a + b * b + c * c + d * d + 2.0 * a * b * c - 1.0
    g2 = interior_margin - (d * d + 4.0 * a * b * c)
    return g1, g2, abs(a) - 1.0, abs(b) - 1.0, abs(c) - 1.0


# Plain left-to-right sums: sum() compensates rounding on Python >= 3.12,
# which would move the bits of the scan.
def _scan_violation(x, interior_margin: float) -> float:
    viol = 0.0
    for g in _scan_constraints(x, interior_margin):
        viol += max(0.0, g)
    return viol


def _scan_quad_penalty(x, interior_margin: float) -> float:
    v = 0.0
    for g in _scan_constraints(x, interior_margin):
        if not g <= 0.0:  # max(g, 0.0) ** 2, NaN included, without the call
            v += g ** 2
    return v


def _feasible_samples(cfg: SearchConfig, interior_margin: float):
    """Uniform samples of [-1, 1]^4 with |pts|^2 and the feasibility mask."""
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    pts = rng.uniform(-1.0, 1.0, size=(max(int(cfg.budget), 1000), 4))
    sq = np.einsum("ij,ij->i", pts, pts)
    feas = sq + 2.0 * pts[:, 0] * pts[:, 1] * pts[:, 2] <= 1.0
    feas &= pts[:, 3] ** 2 + 4.0 * pts[:, 0] * pts[:, 1] * pts[:, 2] >= interior_margin
    return pts, sq, feas


def _nelder_mead(f, x0, maxiter: int) -> np.ndarray:
    """scipy.optimize.minimize(f, x0, method="Nelder-Mead", options={"xatol":
    1e-13, "fatol": 1e-13, "maxiter": maxiter}).x, step for step, but on
    lists of Python floats, which costs a fraction of NumPy's overhead on
    4-element arrays.  f receives such a list."""
    n = len(x0)
    sim = [[float(v) for v in x0]]
    for k in range(n):
        y = list(sim[0])
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        sim.append(y)
    fsim = [f(x) for x in sim]

    def move(t):  # (1 + t) xbar - t worst, evaluated
        x = [(1 + t) * b - t * w for b, w in zip(xbar, worst)]
        return x, f(x)

    for it in range(maxiter):
        order = np.argsort(fsim).tolist()  # NumPy's order of ties, as scipy's
        sim, fsim = [sim[i] for i in order], [fsim[i] for i in order]
        best, worst = sim[0], sim[-1]
        if it == maxiter - 1 or (all(abs(v - b) <= 1e-13 for x in sim[1:] for v, b in zip(x, best))
                                 and all(abs(fsim[0] - fv) <= 1e-13 for fv in fsim[1:])):
            break
        xbar = best
        for x in sim[1:-1]:
            xbar = [s + v for s, v in zip(xbar, x)]
        xbar = [s / n for s in xbar]
        xr, fxr = move(1)  # reflection
        if fxr < fsim[0]:
            xe, fxe = move(2)  # expansion
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            outside = fxr < fsim[-1]
            xc, fxc = move(0.5 if outside else -0.5)  # outside or inside contraction
            if fxc <= fxr if outside else fxc < fsim[-1]:
                sim[-1], fsim[-1] = xc, fxc
            else:  # shrink toward the best vertex
                for j in range(1, n + 1):
                    sim[j] = [b + 0.5 * (v - b) for b, v in zip(best, sim[j])]
                    fsim[j] = f(sim[j])
    return np.array(sim[0])


def _feasible_shrink(x, interior_margin: float):
    """Pull a slightly infeasible polish result back into the region by
    scaling toward the origin; returns None if no nearby scale works."""
    if _scan_violation(x, interior_margin) == 0.0:
        return x
    step = 1e-9
    lo = None
    while step < 0.5:
        if _scan_violation((1.0 - step) * x, interior_margin) == 0.0:
            lo = 1.0 - step
            break
        step *= 2.0
    if lo is None:
        return None
    hi = 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _scan_violation(mid * x, interior_margin) == 0.0:
            lo = mid
        else:
            hi = mid
    return lo * x


def feasible_max_scan(cfg: SearchConfig | None = None, interior_margin: float = 0.0) -> FeasibleScanResult:
    """Maximize 1 + a^2 + b^2 + c^2 + d^2 over the feasible normal forms
    intersected with the rank-two closure d^2 + 4abc >= interior_margin.

    Dense rejection sampling in [-1, 1]^4 followed by Nelder-Mead polish of
    the best candidates on an exact L1 penalty.  The global maximum 9/4 sits
    on the boundary d^2 + 4abc = 0, which the result flags.
    """
    cfg = cfg or SearchConfig(budget=1_000_000)
    pts, sq, feas = _feasible_samples(cfg, interior_margin)
    objective = np.where(feas, 1.0 + sq, -np.inf)
    top = np.argsort(objective)[-40:]

    def polish(x0, mu, maxiter):
        return _nelder_mead(
            lambda x: -_scan_objective(x) + mu * _scan_quad_penalty(x, interior_margin), x0, maxiter
        )

    def feasible_value(x):
        projected = _feasible_shrink(x, interior_margin)
        if projected is None:
            return None, -math.inf
        return projected, _scan_objective(projected)

    best_x = None
    best_val = -math.inf
    for idx in top:
        if not feas[idx]:
            continue
        x, val = feasible_value(polish(pts[idx], 1e4, 400))
        if x is None:
            x, val = pts[idx], float(objective[idx])
        if val > best_val:
            best_val, best_x = val, x
    if best_x is None:
        raise RuntimeError("no feasible sample found")
    # Increasing-penalty restarts from the incumbent recover the digits the
    # first Nelder-Mead pass leaves on the table after simplex collapse.
    seed_x = best_x
    for mu in (1e4, 1e6, 1e8):
        for _ in range(2):
            seed_x = polish(seed_x, mu, 2000)
            x, val = feasible_value(seed_x)
            if x is not None and val > best_val:
                best_val, best_x = val, x
    nf = NormalForm222(*(float(y) for y in best_x))
    criterion = nf.rank_two_criterion()
    return FeasibleScanResult(
        value=float(best_val),
        argmax=nf,
        boundary=abs(criterion - interior_margin) <= 1e-5,
        criterion_at_argmax=float(criterion),
        samples=len(pts),
    )
