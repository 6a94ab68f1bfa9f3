"""Rank-two and border-rank-two symmetric tensor families.

Constructors for two-term tensors alpha*u^d - beta*v^d and boundary tensors
a*u^d + b*d*u^(d-1)v, the squared spectral-to-Frobenius ratio objective with
its gradient in the differentiable (unique-maximizer) case, the projection
formula onto the tangent-like subspace spanned by u^(d-1) and v^(d-1), the
critical-point equation with its parity root count, the case-analysis bound
functions, and a multistart infimum search for the minimal ratio.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .config import SearchConfig
from .rootfind import real_roots
from .spectral import spectral_norm_binary, spectral_norm_binary_coeffs
from .symtensor import (
    DegenerateSpanError,
    GRAM_RTOL,
    SymTensor,
    plane_frame,
    sym_outer,
    sym_rank_one,
)

__all__ = [
    "BorderParams",
    "BorderScanRow",
    "CaseTag",
    "MinRatioResult",
    "NondifferentiablePointError",
    "RankTwoParams",
    "RatioGrad",
    "border_ratio_scan",
    "canonical_params",
    "classify_case",
    "critical_equation_roots",
    "equal_diff_frob_sq",
    "equal_diff_ratio_lb",
    "equal_diff_spectral_lb",
    "extremal_frob_norm",
    "extremal_ratio",
    "extremal_spectral_norm",
    "extremal_tensor",
    "make_border",
    "make_rank_two",
    "maximizer_side_check",
    "min_ratio_search",
    "project_pair",
    "ratio_squared",
    "ratio_squared_grad",
]

EQUAL_RTOL = 1e-12  # relative coefficient tolerance for the equal-coefficient case


class NondifferentiablePointError(RuntimeError):
    """The ratio objective is queried for a gradient at a nonsmooth point."""


class CaseTag(enum.Enum):
    SUM = "sum"          # beta <= 0: effectively a sum of two rank-one terms
    EQUAL = "equal"      # alpha = beta > 0 within EQUAL_RTOL
    GENERIC = "generic"  # alpha > beta > 0
    BORDER = "border"    # boundary tensors a*u^d + b*d*u^(d-1)v


def _as_unit(name, x):
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 1:
        raise ValueError(f"{name} must be a vector")
    if abs(np.linalg.norm(x) - 1.0) > 1e-12:
        raise ValueError(f"{name} must be a unit vector")
    return x


@dataclass(frozen=True)
class RankTwoParams:
    """Canonically oriented parameters of alpha*u^d - beta*v^d.

    Invariants: u, v unit, alpha > 0, <u, v> >= 0.  Use canonical_params to
    normalize arbitrary inputs (sign flips are absorbed into the scalars; the
    result may parametrize the negated tensor, which has the same norms).
    """

    alpha: float
    beta: float
    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "u", _as_unit("u", self.u))
        object.__setattr__(self, "v", _as_unit("v", self.v))
        if self.u.shape != self.v.shape:
            raise ValueError("u and v must have matching dimension")
        if not (self.alpha > 0.0):
            raise ValueError("canonical params require alpha > 0")
        if self.beta == 0.0:
            raise ValueError("beta must be nonzero (rank-two needs two terms)")
        if float(self.u @ self.v) < -1e-12:
            raise ValueError("canonical params require <u, v> >= 0")


def canonical_params(alpha, beta, u, v, d: int) -> RankTwoParams:
    """Normalize (alpha, beta, u, v) for order d to the canonical orientation.

    Unit-normalizes u, v into the scalars, then uses sign flips (absorbing
    (-1)^d factors) and, when necessary, the representation of the negated
    tensor to reach alpha > 0, <u, v> >= 0, and alpha >= beta whenever
    beta > 0.  All outputs have the same spectral and Frobenius norms as the
    input tensor.
    """
    if d < 1:
        raise ValueError("order d must be >= 1")
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise ValueError("u and v must be nonzero")
    alpha = float(alpha) * nu**d
    beta = float(beta) * nv**d
    if alpha == 0.0 or beta == 0.0:
        raise ValueError("scalars alpha, beta must be nonzero")
    u = u / nu
    v = v / nv

    if d % 2 == 1:
        if alpha < 0.0:
            alpha, u = -alpha, -u
        if float(u @ v) < 0.0:
            beta, v = -beta, -v
    else:
        if float(u @ v) < 0.0:
            v = -v
        if alpha < 0.0:
            # Even order cannot absorb the sign into u; re-express via the
            # other term (same tensor if beta < 0, the negated one otherwise).
            alpha, beta, u, v = (-beta, -alpha, v, u) if beta < 0.0 else (beta, alpha, v, u)
    if beta > alpha > 0.0:
        alpha, beta, u, v = beta, alpha, v, u
    return RankTwoParams(alpha=alpha, beta=beta, u=u, v=v)


def _check_span(p: RankTwoParams):
    uv = float(p.u @ p.v)
    if 1.0 - uv * uv <= GRAM_RTOL:
        raise DegenerateSpanError("u and v are dependent; tensor has rank < 2")


def make_rank_two(p: RankTwoParams, d: int) -> SymTensor:
    """The tensor alpha*u^d - beta*v^d; rejects dependent u, v (rank < 2)."""
    _check_span(p)
    return p.alpha * sym_rank_one(p.u, d) + (-p.beta) * sym_rank_one(p.v, d)


@dataclass(frozen=True)
class BorderParams:
    """Parameters (a, b, u, v) of the boundary tensor a*u^d + b*d*u^(d-1)v."""

    a: float
    b: float
    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "u", _as_unit("u", self.u))
        object.__setattr__(self, "v", _as_unit("v", self.v))
        if self.a < 0.0 or self.b < 0.0:
            raise ValueError("border parameters need a, b >= 0")
        if self.a == 0.0 and self.b == 0.0:
            raise ValueError("(a, b) must not both vanish")
        if abs(float(self.u @ self.v)) > 1e-12:
            raise ValueError("border parameters need <u, v> = 0")


def make_border(p: BorderParams, d: int) -> SymTensor:
    """Boundary tensor a*u^d + b*d*u^(d-1)v with Frobenius norm sqrt(a^2 + b^2 d)."""
    if d < 2:
        raise ValueError("border tensors need order d >= 2")
    out = (p.b * d) * sym_outer(p.u, d - 1, p.v, 1)
    if p.a:
        out = out + p.a * sym_rank_one(p.u, d)
    return out


def extremal_tensor(d: int) -> SymTensor:
    """The order-d boundary tensor d*e1^(d-1)e2 over R^2.

    Up to orthogonal transforms and scale it is the unique minimizer of the
    spectral-to-Frobenius ratio among symmetric border-rank-two tensors; the
    closed-form norms are provided by the companion helpers.
    """
    if d < 2:
        raise ValueError("need order d >= 2")
    return float(d) * sym_outer(np.array([1.0, 0.0]), d - 1, np.array([0.0, 1.0]), 1)


def extremal_frob_norm(d: int) -> float:
    return math.sqrt(d)


def extremal_ratio(d: int) -> float:
    return (1.0 - 1.0 / d) ** ((d - 1) / 2.0)


def extremal_spectral_norm(d: int) -> float:
    return extremal_frob_norm(d) * extremal_ratio(d)


def _one_minus_pow_from_gap(x: float, d: int) -> float:
    """1 - (1 - x)^d without cancellation, for the gap x = 1 - c in [0, 1]."""
    if 0.0 < x < 1.0:
        return -math.expm1(d * math.log1p(-x))
    return 1.0 - (1.0 - x) ** d


def _cos_gap_pow(theta: float, d: int) -> float:
    """1 - cos(theta)^d, stable down to tiny angles via the half-angle gap."""
    return _one_minus_pow_from_gap(2.0 * math.sin(theta / 2.0) ** 2, d)


def _pair_frob_sq(alpha: float, beta: float, one_minus_cd: float) -> float:
    """||alpha u^d - beta v^d||_F^2 = (alpha-beta)^2 + 2 alpha beta (1 - <u,v>^d)."""
    return (alpha - beta) ** 2 + 2.0 * alpha * beta * one_minus_cd


def _family_coeffs(alpha: float, beta: float, theta: float, d: int, one_minus_cd: float) -> np.ndarray:
    """Dehomogenized coefficients of alpha*e1^d - beta*v^d, v = (cos t, sin t).

    The leading coefficient is assembled as (alpha - beta) + beta*(1 - cos^d)
    to avoid cancellation along the small-angle drift.
    """
    c, s = math.cos(theta), math.sin(theta)
    coeffs = np.empty(d + 1)
    for k in range(d):
        coeffs[k] = -math.comb(d, k) * beta * c**k * s ** (d - k)
    coeffs[d] = (alpha - beta) + beta * one_minus_cd
    return coeffs


def _chart(alpha: float, beta: float, theta: float, d: int):
    """Maximizer set, 1 - cos^d and squared Frobenius norm of alpha*e1^d - beta*v^d.

    v = (cos theta, sin theta).  Every rank-two ratio goes through this chart;
    plane_frame(u, v) maps its axes onto u and Gram-Schmidt(v) in any dimension.
    """
    one_minus_cd = _cos_gap_pow(theta, d)
    ms = spectral_norm_binary_coeffs(_family_coeffs(alpha, beta, theta, d, one_minus_cd))
    return ms, one_minus_cd, _pair_frob_sq(alpha, beta, one_minus_cd)


def _chart_of(p: RankTwoParams, d: int):
    """_chart at the angle between p.u and p.v; rejects dependent u, v."""
    _check_span(p)
    # 2 asin(||u - v|| / 2) keeps the angle accurate where acos(<u, v>) loses it.
    theta = 2.0 * math.asin(float(np.linalg.norm(p.u - p.v)) / 2.0)
    return _chart(p.alpha, p.beta, theta, d)


def _grad_core(alpha, beta, u, v, chart, d: int, lift=np.asarray, with_u: bool = True):
    """Unprojected gradient (d_alpha, d_beta, g_u, g_v) of the squared ratio.

    chart is _chart's output for alpha*u^d - beta*v^d and lift maps its
    maximizer onto u, v's space; g_u is None unless with_u.  Requires a unique global maximizer w (the
    spectral norm is then smooth, with the normalized best rank-one tensor as
    derivative); raises NondifferentiablePointError otherwise.
    """
    ms, one_minus_cd, fro_sq = chart
    if len(ms.points) != 1:
        raise NondifferentiablePointError(
            f"{len(ms.points)} global maximizers; the ratio is not differentiable here"
        )
    w = lift(ms.points[0])
    uv = float(u @ v)
    wu = float(w @ u)
    wv = float(w @ v)
    lam = alpha * wu**d - beta * wv**d
    sgn = 1.0 if lam >= 0.0 else -1.0
    sigma = ms.value
    scale = 2.0 * sigma / fro_sq**2

    p_at_u = (alpha - beta) + beta * one_minus_cd
    p_at_v = (alpha - beta) - alpha * one_minus_cd
    grad_at_v = d * (alpha * uv ** (d - 1) * u - beta * v)

    d_alpha = scale * (sgn * fro_sq * wu**d - sigma * p_at_u)
    d_beta = -scale * (sgn * fro_sq * wv**d - sigma * p_at_v)
    g_v = -scale * beta * (sgn * fro_sq * d * wv ** (d - 1) * w - sigma * grad_at_v)
    g_u = None
    if with_u:
        grad_at_u = d * (alpha * u - beta * uv ** (d - 1) * v)
        g_u = scale * alpha * (sgn * fro_sq * d * wu ** (d - 1) * w - sigma * grad_at_u)
    return d_alpha, d_beta, g_u, g_v


def ratio_squared(p: RankTwoParams, d: int) -> float:
    """Squared spectral-to-Frobenius ratio of alpha*u^d - beta*v^d."""
    ms, _, fro_sq = _chart_of(p, d)
    return ms.value**2 / fro_sq


@dataclass(frozen=True)
class RatioGrad:
    """Gradient of the squared ratio over (alpha, beta, u, v).

    d_u and d_v are the tangential components for the unit-sphere constraints.
    """

    d_alpha: float
    d_beta: float
    d_u: np.ndarray
    d_v: np.ndarray

    def norm(self) -> float:
        return math.sqrt(
            self.d_alpha**2
            + self.d_beta**2
            + float(self.d_u @ self.d_u)
            + float(self.d_v @ self.d_v)
        )


def ratio_squared_grad(p: RankTwoParams, d: int) -> RatioGrad:
    """Exact gradient of the squared ratio in the differentiable case.

    Requires a unique global maximizer; raises NondifferentiablePointError
    otherwise.
    """
    u, v = p.u, p.v
    d_alpha, d_beta, g_u, g_v = _grad_core(
        p.alpha, p.beta, u, v, _chart_of(p, d), d, plane_frame(u, v).lift
    )
    g_u = g_u - (g_u @ u) * u
    g_v = g_v - (g_v @ v) * v
    return RatioGrad(d_alpha=float(d_alpha), d_beta=float(d_beta), d_u=g_u, d_v=g_v)


def project_pair(u, v, w, d: int):
    """Project the d-fold power of w onto {u^(d-1) (x) du + v^(d-1) (x) dv}.

    The projection is orthogonal in the ambient d-fold tensor space, where
    the optimal slot vectors are the multiples du = a*w, dv = b*w with the
    closed-form coefficients over the denominator 1 - <u,v>^(2d-2); when
    paired against symmetric tensors it acts like the projection onto the
    corresponding symmetrized subspace.  Returns (a, b, tensor) with the
    assembled symmetric tensor a*u^(d-1)w + b*v^(d-1)w.  Requires unit u, v
    with <u,v>^2 < 1.
    """
    u = _as_unit("u", u)
    v = _as_unit("v", v)
    w = np.asarray(w, dtype=float)
    c = float(u @ v)
    denom = 1.0 - c ** (2 * d - 2)
    if denom <= 0.0:
        raise DegenerateSpanError("u and v are parallel; projection is singular")
    cu = float(u @ w) ** (d - 1)
    cv = float(v @ w) ** (d - 1)
    a = (cu - c ** (d - 1) * cv) / denom
    b = (cv - c ** (d - 1) * cu) / denom
    tensor = a * sym_outer(u, d - 1, w, 1) + b * sym_outer(v, d - 1, w, 1)
    return a, b, tensor


def critical_equation_roots(a: float, b: float, gamma: float, d: int) -> list[float]:
    """All real roots of gamma*(x - a)*(x + b)^(d-1) - x.

    Under a, gamma > 0 and b >= 0 the count is 2 for even d and 3 for odd d;
    double roots (measure zero) are merged by the root-isolation proximity
    rule and reported once.
    """
    if not (a > 0.0 and gamma > 0.0 and b >= 0.0):
        raise ValueError("need a > 0, gamma > 0, b >= 0")
    if d < 2:
        raise ValueError("need order d >= 2")
    binom = np.array([math.comb(d - 1, j) * b**j for j in range(d)])
    poly = gamma * np.convolve([1.0, -a], binom)
    poly[-2] -= 1.0
    return real_roots(poly)


def maximizer_side_check(p: RankTwoParams, d: int) -> bool:
    """True iff every global maximizer w satisfies |<u,w>| >= |<v,w>| - 1e-10.

    Precondition alpha > beta > 0 (the dominant-term case); other inputs are
    rejected.
    """
    if not (p.alpha > p.beta > 0.0):
        raise ValueError("side check requires alpha > beta > 0")
    ms, _, _ = _chart_of(p, d)
    frame = plane_frame(p.u, p.v)
    for w2 in ms.points:
        w = frame.lift(w2)
        if abs(float(w @ p.u)) < abs(float(w @ p.v)) - 1e-10:
            return False
    return True


def _pow_diff(base: float, delta: float, d: int) -> float:
    """(base + delta)^d - (base - delta)^d without cancellation for small delta."""
    q = delta / base
    if q >= 0.5:
        return (base + delta) ** d - (base - delta) ** d
    if q == 0.0:
        return 0.0
    log_ratio = math.log1p(-q) - math.log1p(q)
    return (base + delta) ** d * -math.expm1(d * log_ratio)


def equal_diff_frob_sq(d: int, t: float) -> float:
    """Squared Frobenius norm 2(1+t^2)^d - 2(1-t^2)^d of u^d - v^d, u=(1,t), v=(1,-t)."""
    _check_t(t)
    return 2.0 * _pow_diff(1.0, t * t, d)


def equal_diff_spectral_lb(d: int, t: float) -> float:
    """Spectral-norm lower bound of the same family via a fixed test direction."""
    _check_t(t)
    return _pow_diff(math.sqrt(d - 1.0), t, d) / d ** (d / 2.0)


def equal_diff_ratio_lb(d: int, t: float) -> float:
    """Lower bound for the squared ratio on the equal-coefficient family.

    At t = 0 the quotient is 0/0; the continuous extension (1 - 1/d)^(d-1) is
    returned, which is the small-angle limit of the family.
    """
    _check_t(t)
    if t == 0.0:
        return (1.0 - 1.0 / d) ** (d - 1)
    h = equal_diff_spectral_lb(d, t)
    return h * h / equal_diff_frob_sq(d, t)


def _check_t(t: float):
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must lie in [0, 1], got {t}")


def classify_case(p: RankTwoParams) -> CaseTag:
    """Route canonical parameters to their case: SUM, EQUAL, or GENERIC."""
    if p.beta <= 0.0:
        return CaseTag.SUM
    if abs(p.alpha - p.beta) <= EQUAL_RTOL * max(p.alpha, p.beta):
        return CaseTag.EQUAL
    if p.beta > p.alpha:
        raise ValueError("not canonical: expected alpha >= beta when beta > 0")
    return CaseTag.GENERIC


# ---------------------------------------------------------------------------
# Multistart infimum search
# ---------------------------------------------------------------------------

_THETA_MIN = 3e-5       # evaluation floor: below it the drift family is flat to roundoff
_THETA_CONT = 1e-4      # continuation floor; still 5+ digits above solver noise


class _BudgetExhausted(Exception):
    pass


@dataclass
class MinRatioResult:
    """Best value found by min_ratio_search; an open lower estimate.

    The infimum over rank-two tensors is not attained: minimizing sequences
    drift toward coinciding directions with balancing coefficients, which the
    diagnostics record.  No attainment is claimed.
    """

    value: float                 # squared ratio at the best point
    ratio: float
    alpha: float
    beta: float
    theta: float
    order: int
    params: RankTwoParams
    evaluations: int
    budget_exhausted: bool
    improved: bool
    trace: list = field(default_factory=list)

    @property
    def diagnostics(self) -> dict:
        fro = math.sqrt(_pair_frob_sq(self.alpha, self.beta, _cos_gap_pow(self.theta, self.order)))
        return {
            "theta": self.theta,
            "coeff_balance": self.beta / self.alpha,
            "cancellation": fro / (abs(self.alpha) + abs(self.beta)),
        }


class _Objective:
    """Budgeted evaluation of the squared ratio on the (alpha, beta, theta) chart."""

    def __init__(self, d: int, budget: int):
        self.d = d
        self.budget = budget
        self.evals = 0

    def __call__(self, x) -> float:
        alpha, beta, theta = x
        if self.evals >= self.budget:
            raise _BudgetExhausted
        self.evals += 1
        if not (alpha > 0.0) or beta == 0.0 or not _THETA_MIN <= theta <= math.pi / 2:
            return math.inf
        try:
            ms, _, fro_sq = _chart(alpha, beta, theta, self.d)
        except ValueError:
            return math.inf
        if fro_sq <= 0.0:
            return math.inf
        return ms.value**2 / fro_sq

    def grad(self, x):
        """Chart gradient; raises NondifferentiablePointError at kinks."""
        alpha, beta, theta = x
        c, s = math.cos(theta), math.sin(theta)
        d_alpha, d_beta, _, g_v = _grad_core(
            alpha, beta, np.array([1.0, 0.0]), np.array([c, s]),
            _chart(alpha, beta, theta, self.d), self.d, with_u=False,
        )
        # Chain rule through v = (cos theta, sin theta).
        d_theta = float(g_v @ np.array([-s, c]))
        return np.array([d_alpha, d_beta, d_theta])


def _descend(f: _Objective, x0, f0, trace, start_id, max_steps=150):
    """Armijo-backtracked gradient descent with coordinate-search fallback."""
    x, fx = np.asarray(x0, dtype=float), f0
    for step_id in range(max_steps):
        try:
            g = f.grad(x)
        except NondifferentiablePointError:
            return _coordinate_search(f, x, fx, trace, start_id)
        gnorm = float(np.linalg.norm(g))
        if gnorm < 1e-14:
            break
        # Relative step sizing keeps the scale-invariant directions tame.
        t = max(1.0, float(np.linalg.norm(x))) / gnorm
        accepted = False
        for _ in range(40):
            cand = x - t * g
            fc = f(cand)
            if fc <= fx - 1e-4 * t * gnorm**2:
                x, fx = cand, fc
                accepted = True
                trace.append(
                    {"start": start_id, "step": step_id, "F": fx,
                     "alpha": float(x[0]), "beta": float(x[1]), "theta": float(x[2])}
                )
                break
            t *= 0.5
        if not accepted:
            break
    return x, fx


def _coordinate_search(f: _Objective, x, fx, trace, start_id):
    x = np.asarray(x, dtype=float).copy()
    h = 0.1
    while h > 1e-12:
        moved = False
        for j in range(3):
            for direction in (1.0, -1.0):
                cand = x.copy()
                cand[j] = x[j] * (1.0 + direction * h) if j < 2 else x[j] + direction * h
                fc = f(cand)
                if fc < fx:
                    x, fx, moved = cand, fc, True
                    trace.append(
                        {"start": start_id, "step": -1, "F": fx,
                         "alpha": float(x[0]), "beta": float(x[1]), "theta": float(x[2])}
                    )
        if not moved:
            h *= 0.5
    return x, fx


def min_ratio_search(d: int, cfg: SearchConfig | None = None) -> MinRatioResult:
    """Multistart minimization of the squared ratio over rank-two parameters.

    Hybrid scheme: projected gradient steps with Armijo backtracking where the
    objective is smooth, derivative-free coordinate search near points with
    multiple maximizers, and a small-angle continuation stage that follows the
    drift of minimizing sequences.  Returns the best value found (never a
    claim of attainment); under the sharp lower bound the result stays above
    (1 - 1/d)^(d-1).
    """
    if d < 3:
        raise ValueError("infimum search needs order d >= 3")
    cfg = cfg or SearchConfig()
    rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed))
    f = _Objective(d, cfg.budget)
    trace: list[dict] = []

    starts = []
    for t in np.geomspace(0.4, 0.02, 6):
        scale = (1.0 + t * t) ** (d / 2.0)
        starts.append((scale, scale, 2.0 * math.atan(t)))
    while len(starts) < max(cfg.starts, 8):
        alpha = math.exp(rng.normal())
        beta = math.exp(rng.normal()) * rng.choice([1.0, -1.0])
        theta = rng.uniform(0.05, math.pi / 2)
        starts.append((alpha, beta, theta))

    best_x, best_f = None, math.inf
    first_f = None
    exhausted = False
    try:
        for i, x0 in enumerate(starts):
            f0 = f(x0)
            if first_f is None:
                first_f = f0
            if not math.isfinite(f0):
                continue
            x, fx = _descend(f, np.array(x0), f0, trace, i)
            if fx < best_f:
                best_x, best_f = x, fx
        # Continuation: halve the angle along the balanced family, greedily.
        if best_x is not None:
            alpha, beta, theta = best_x
            while theta / 2.0 >= _THETA_CONT:
                mean = (alpha + abs(beta)) / 2.0
                cands = [(alpha, beta, theta / 2.0), (mean, mean, theta / 2.0)]
                improved_here = False
                for cand in cands:
                    fc = f(cand)
                    if fc < best_f:
                        best_x, best_f = np.array(cand), fc
                        alpha, beta, theta = cand
                        improved_here = True
                        trace.append(
                            {"start": -1, "step": -1, "F": fc, "alpha": cand[0],
                             "beta": cand[1], "theta": cand[2]}
                        )
                        break
                if not improved_here:
                    break
    except _BudgetExhausted:
        exhausted = True

    if best_x is None:
        raise RuntimeError("no feasible start produced a finite objective")
    alpha, beta, theta = (float(t) for t in best_x)
    params = canonical_params(
        alpha, beta, np.array([1.0, 0.0]), np.array([math.cos(theta), math.sin(theta)]), d
    )
    return MinRatioResult(
        value=float(best_f),
        ratio=math.sqrt(best_f),
        alpha=alpha,
        beta=beta,
        theta=theta,
        order=d,
        params=params,
        evaluations=f.evals,
        budget_exhausted=exhausted,
        improved=bool(first_f is not None and best_f < first_f),
        trace=trace,
    )


# ---------------------------------------------------------------------------
# Boundary family scan
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BorderScanRow:
    a: float
    b: float
    ratio: float
    lb_interior: float
    lb_axis: float


def border_ratio_scan(d: int, steps: int) -> list[BorderScanRow]:
    """Sweep the unit-Frobenius boundary family a*e1^d + b*d*e1^(d-1)e2.

    a runs over [0, 1] with b = sqrt((1 - a^2)/d), so the exact ratio equals
    the spectral norm; rows carry both closed-form lower bounds alongside it.
    The minimum sits at a = 0 where the ratio equals (1 - 1/d)^((d-1)/2).
    """
    if steps < 2:
        raise ValueError("need at least 2 grid points")
    if d < 2:
        raise ValueError("need order d >= 2")
    rows = []
    for a in np.linspace(0.0, 1.0, steps):
        a = float(a)
        b = math.sqrt(max(1.0 - a * a, 0.0) / d)
        A = SymTensor(d, 2, {(d, 0): a, (d - 1, 1): b})
        value = spectral_norm_binary(A).value
        lb_interior = (
            a * (d - 1.0) ** (d / 2.0) + b * d * (d - 1.0) ** ((d - 1) / 2.0)
        ) / d ** (d / 2.0)
        rows.append(
            BorderScanRow(a=a, b=b, ratio=value, lb_interior=lb_interior, lb_axis=a)
        )
    return rows
