"""Rank-two and border-rank-two symmetric tensor families.

Constructors for two-term tensors alpha*u^d - beta*v^d and boundary tensors
a*u^d + b*d*u^(d-1)v, the squared spectral-to-Frobenius ratio objective with
its gradient in the differentiable (unique-maximizer) case, the projection
formula onto the tangent-like subspace spanned by u^(d-1) and v^(d-1), the
critical-point equation with its parity root count, the case-analysis bound
functions, and a multistart compass search for the infimum of the ratio:
one coroutine per start, driven in rounds of one stacked chart_batch solve,
then replayed in order against the shared budget.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .config import SearchConfig
from .rootfind import real_roots_batch
from .spectral import as_orders, spectral_norm_binary_batch
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
    "CaseTag",
    "MinRatioResult",
    "NondifferentiablePointError",
    "RankTwoParams",
    "RatioGrad",
    "border_batch",
    "border_ratio_scan",
    "canonical_params",
    "chart_batch",
    "classify_case",
    "critical_equation_roots",
    "critical_equation_roots_batch",
    "equal_diff_chart",
    "equal_diff_frob_sq",
    "equal_diff_ratio_lb",
    "equal_diff_spectral_lb",
    "extremal_frob_norm",
    "extremal_ratio",
    "extremal_ratio_sq",
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
    """The order-d boundary tensor d*e1^(d-1)e2 over R^2, the border row (0, 1).

    Up to orthogonal transforms and scale it is the unique minimizer of the
    spectral-to-Frobenius ratio among symmetric border-rank-two tensors; the
    closed-form norms are provided by the companion helpers.
    """
    return make_border(BorderParams(0.0, 1.0, np.array([1.0, 0.0]), np.array([0.0, 1.0])), d)


def extremal_frob_norm(d: int) -> float:
    return math.sqrt(d)


def extremal_ratio(d: int) -> float:
    return (1.0 - 1.0 / d) ** ((d - 1) / 2.0)


def extremal_ratio_sq(d: int) -> float:
    """The squared bound (1 - 1/d)^(d-1), computed directly: it has other
    bits than extremal_ratio(d) ** 2."""
    return (1.0 - 1.0 / d) ** (d - 1)


def extremal_spectral_norm(d: int) -> float:
    return extremal_frob_norm(d) * extremal_ratio(d)


def _one_minus_pow_from_gap(x, d):
    """1 - (1 - x)^d without cancellation, for the gap x = 1 - c in [0, 1]."""
    x = np.asarray(x, dtype=float)
    inner = (0.0 < x) & (x < 1.0)
    with np.errstate(divide="ignore"):
        return np.where(inner, -np.expm1(d * np.log1p(-np.where(inner, x, 0.0))), 1.0 - (1.0 - x) ** d)


def _cos_gap_pow(theta, d):
    """1 - cos(theta)^d, stable down to tiny angles via the half-angle gap."""
    return _one_minus_pow_from_gap(2.0 * np.sin(np.asarray(theta) / 2.0) ** 2, d)


def _pair_frob_sq(alpha: float, beta: float, one_minus_cd: float) -> float:
    """||alpha u^d - beta v^d||_F^2 = (alpha-beta)^2 + 2 alpha beta (1 - <u,v>^d)."""
    return (alpha - beta) ** 2 + 2.0 * alpha * beta * one_minus_cd


def _binomials(n: np.ndarray, width: int) -> np.ndarray:
    """Row i holds comb(n_i, k) for k = 0..width-1, zero past n_i."""
    out = np.zeros((len(n), width))
    for order in np.flatnonzero(np.bincount(n)).tolist():
        out[n == order, :order + 1] = [math.comb(order, k) for k in range(order + 1)]
    return out


def _chart_coeffs(rows, d):
    """Binary coefficients c_0..c_d of each chart row, zero past its order,
    with the per-row orders and 1 - cos^d; see chart_batch."""
    alpha, beta, theta = np.asarray(rows, dtype=float).reshape(-1, 3).T
    d = as_orders(d, len(alpha))
    one_minus_cd = _cos_gap_pow(theta, d)
    k = np.arange(d.max(initial=0) + 1)
    dk = d[:, None] - k
    with np.errstate(divide="ignore", invalid="ignore"):
        coeffs = (-_binomials(d, len(k)) * beta[:, None] * np.cos(theta)[:, None] ** k
                  * np.sin(theta)[:, None] ** dk)
    coeffs = np.where(dk > 0, coeffs, 0.0)
    coeffs[np.arange(len(d)), d] = (alpha - beta) + beta * one_minus_cd
    return coeffs, d, one_minus_cd


def chart_batch(rows, d):
    """Solve each chart row (alpha, beta, theta) of alpha*e1^d - beta*v^d in one stack.

    v = (cos theta, sin theta), and d is one order for every row or an array
    of per-row orders.  Every rank-two ratio goes through this chart;
    plane_frame(u, v) maps its axes onto u and Gram-Schmidt(v) in any
    dimension.  Returns (maxima, 1 - cos^d, squared Frobenius norm): the
    spectral_norm_binary_batch result of the stack and two arrays, so the
    squared ratio is maxima.values^2 / Frobenius^2.  The leading coefficient
    of the dehomogenized form is assembled as (alpha - beta) +
    beta*(1 - cos^d) to avoid cancellation along the small-angle drift.
    """
    alpha, beta, _ = np.asarray(rows, dtype=float).reshape(-1, 3).T
    coeffs, d, one_minus_cd = _chart_coeffs(rows, d)
    return (spectral_norm_binary_batch(coeffs, d), one_minus_cd,
            _pair_frob_sq(alpha, beta, one_minus_cd))


def border_batch(rows, d):
    """Solve each border row (a, b) of a*e1^d + b*d*e1^(d-1)e2 in one stack;
    d is one order for every row or an array of per-row orders.  Returns the
    spectral_norm_binary_batch result and the squared Frobenius norms a^2 + d*b^2.
    """
    a, b = np.asarray(rows, dtype=float).reshape(-1, 2).T
    d = as_orders(d, len(a))
    if (d < 2).any():
        raise ValueError("border tensors need order d >= 2")
    # Binary coefficients: a at x^d and d*b at x^(d-1)y.
    coeffs = np.zeros((len(d), d.max(initial=2) + 1))
    coeffs[np.arange(len(d)), d] = a
    coeffs[np.arange(len(d)), d - 1] = d * b
    return spectral_norm_binary_batch(coeffs, d), a * a + d * b * b


def _chart_entry(charts, i: int):
    """Row i of a chart_batch result as (MaximizerSet, 1 - cos^d, squared Frobenius norm)."""
    maxima, one_minus_cd, fro_sq = charts
    return maxima.maximizer_set(i), float(one_minus_cd[i]), float(fro_sq[i])


def _chart_of(p: RankTwoParams, d: int):
    """The one-row chart_batch entry at the angle between p.u and p.v; rejects dependent u, v."""
    _check_span(p)
    # 2 asin(||u - v|| / 2) keeps the angle accurate where acos(<u, v>) loses it.
    theta = 2.0 * math.asin(float(np.linalg.norm(p.u - p.v)) / 2.0)
    return _chart_entry(chart_batch([(p.alpha, p.beta, theta)], d), 0)


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

    Requires a unique global maximizer w (the spectral norm is then smooth,
    with the normalized best rank-one tensor as derivative); raises
    NondifferentiablePointError otherwise.
    """
    alpha, beta, u, v = p.alpha, p.beta, p.u, p.v
    ms, one_minus_cd, fro_sq = _chart_of(p, d)
    if len(ms.points) != 1:
        raise NondifferentiablePointError(
            f"{len(ms.points)} global maximizers; the ratio is not differentiable here"
        )
    w = plane_frame(u, v).lift(ms.points[0])
    uv = float(u @ v)
    wu = float(w @ u)
    wv = float(w @ v)
    lam = alpha * wu**d - beta * wv**d
    sgn = 1.0 if lam >= 0.0 else -1.0
    sigma = ms.value
    scale = 2.0 * sigma / fro_sq**2

    p_at_u = (alpha - beta) + beta * one_minus_cd
    p_at_v = (alpha - beta) - alpha * one_minus_cd
    grad_at_u = d * (alpha * u - beta * uv ** (d - 1) * v)
    grad_at_v = d * (alpha * uv ** (d - 1) * u - beta * v)

    d_alpha = scale * (sgn * fro_sq * wu**d - sigma * p_at_u)
    d_beta = -scale * (sgn * fro_sq * wv**d - sigma * p_at_v)
    g_u = scale * alpha * (sgn * fro_sq * d * wu ** (d - 1) * w - sigma * grad_at_u)
    g_v = -scale * beta * (sgn * fro_sq * d * wv ** (d - 1) * w - sigma * grad_at_v)
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


def critical_equation_roots_batch(abg, d) -> tuple[np.ndarray, np.ndarray]:
    """critical_equation_roots of each (a, b, gamma) in abg, in one solve.

    d is one order for every row or an array of per-row orders.  Returns
    real_roots_batch's (roots, counts).
    """
    a, b, gamma = np.asarray(abg, dtype=float).reshape(-1, 3).T
    d = as_orders(d, len(a))
    if (d < 2).any():
        raise ValueError("need order d >= 2")
    if not ((a > 0.0) & (gamma > 0.0) & (b >= 0.0)).all():
        raise ValueError("need a > 0, gamma > 0, b >= 0")
    # (x + b)^(d-1), whose x^p coefficient is comb(d-1, p) b^(d-1-p), and
    # then (x - a)(x + b)^(d-1), descending and right-aligned, so a lower
    # order carries leading zeros.
    p = np.arange(d.max(initial=2))[::-1]
    j = d[:, None] - 1 - p
    with np.errstate(divide="ignore", invalid="ignore"):
        binom = np.where(j >= 0, _binomials(d - 1, len(p))[:, p] * b[:, None] ** j, 0.0)
    padded = np.hstack([np.zeros((len(d), 1)), binom, np.zeros((len(d), 1))])
    poly = gamma[:, None] * (padded[:, 1:] - a[:, None] * padded[:, :-1])
    poly[:, -2] -= 1.0
    return real_roots_batch(poly)


def critical_equation_roots(a: float, b: float, gamma: float, d: int) -> list[float]:
    """All real roots of gamma*(x - a)*(x + b)^(d-1) - x.

    Under a, gamma > 0 and b >= 0 the count is 2 for even d and 3 for odd d;
    double roots (measure zero) are merged by the root-isolation proximity
    rule and reported once.
    """
    return critical_equation_roots_batch([(a, b, gamma)], d)[0].tolist()


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


def equal_diff_chart(d: int, t: float) -> tuple:
    """Chart row (alpha, beta, theta) of u^d - v^d, u = (1, t), v = (1, -t)."""
    _check_t(t)
    scale = (1.0 + t * t) ** (d / 2.0)
    return scale, scale, 2.0 * math.atan(t)


def equal_diff_frob_sq(d: int, t: float) -> float:
    """Squared Frobenius norm 2(1+t^2)^d - 2(1-t^2)^d of u^d - v^d, u=(1,t), v=(1,-t)."""
    _check_t(t)
    return 2.0 * _pow_diff(1.0, t * t, d)


def equal_diff_spectral_lb(d: int, t: float) -> float:
    """Spectral-norm lower bound of the same family via a fixed test direction.

    ((sqrt(d-1) + t)^d - (sqrt(d-1) - t)^d) / d^(d/2), with the scale inside
    the powers so that no term overflows at high order.
    """
    _check_t(t)
    return _pow_diff(math.sqrt(1.0 - 1.0 / d), t / math.sqrt(d), d)


def equal_diff_ratio_lb(d: int, t: float) -> float:
    """Lower bound for the squared ratio on the equal-coefficient family.

    At t = 0 the quotient is 0/0; the continuous extension (1 - 1/d)^(d-1) is
    returned, which is the small-angle limit of the family.
    """
    _check_t(t)
    if t == 0.0:
        return extremal_ratio_sq(d)
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
    trace: list = field(default_factory=list)

    @property
    def diagnostics(self) -> dict:
        fro = math.sqrt(_pair_frob_sq(self.alpha, self.beta, _cos_gap_pow(self.theta, self.order)))
        return {
            "theta": self.theta,
            "coeff_balance": self.beta / self.alpha,
            "cancellation": fro / (abs(self.alpha) + abs(self.beta)),
        }


def _objective(xs, d: int) -> list:
    """Squared ratio at each (alpha, beta, theta) point of xs, in one chart_batch solve.

    A point off the search's chart, or with a zero tensor, gets inf; a solve
    error raises.
    """
    out = [math.inf] * len(xs)
    idx = [i for i, (alpha, beta, theta) in enumerate(xs)
           if alpha > 0.0 and beta != 0.0 and _THETA_MIN <= theta <= math.pi / 2]
    if idx:
        maxima, _, fro_sq = chart_batch([xs[i] for i in idx], d)
        for i, value, fro in zip(idx, maxima.values, fro_sq):
            if fro > 0.0:
                out[i] = float(value ** 2 / fro)
    return out


def _poll(x, h: float) -> list:
    """The six coordinate-search candidates around x, in polling order."""
    cands = []
    for j in range(3):
        for direction in (1.0, -1.0):
            cand = x.copy()
            cand[j] = x[j] * (1.0 + direction * h) if j < 2 else x[j] + direction * h
            cands.append(cand)
    return cands


def _start(x0, start_id, cap: int):
    """One start as a coroutine: its value at x0, then a compass search with halving steps.

    It yields requests, the points its cap can still pay for, and is sent
    their squared ratios.  Each value taken, in order up to the first one
    accepted, charges one evaluation.  A poll's six candidates are one
    request; after a move, the rest of the poll is rebuilt around the new
    point.  Returns (n, F0, result, trace): n is the evaluations charged, or
    cap + 1 when the cap cut the search; F0 is the value at x0; result is the
    search's (x, F), or None when x0 is off the chart; trace holds a
    (charge, record) pair per accepted point.
    """
    trace = []
    if cap < 1:
        return cap + 1, math.inf, None, trace
    [f0] = yield [x0]
    n = 1
    if not math.isfinite(f0):
        return n, f0, None, trace
    x, fx = np.asarray(x0, dtype=float).copy(), f0
    h = 0.1
    while h > 1e-12:
        moved = False
        k = 0
        while k < 6:
            cands = _poll(x, h)[k:]
            values = yield cands[:cap - n]
            for i, fc in enumerate(values):
                n += 1
                if fc < fx:
                    x, fx, moved = cands[i], fc, True
                    trace.append((n, {"start": start_id, "F": fx, "alpha": float(x[0]),
                                      "beta": float(x[1]), "theta": float(x[2])}))
                    break
            else:
                if len(values) < len(cands):
                    return cap + 1, f0, None, trace
            k += i + 1
        if not moved:
            h *= 0.5
    return n, f0, (x, fx), trace


def _drive(runs, d: int) -> list:
    """Run the coroutines in rounds, each round one _objective solve of every
    live request stacked in order; returns their return values."""
    results = [None] * len(runs)
    requests = {}

    def step(i, values):
        try:
            requests[i] = runs[i].send(values)
        except StopIteration as stop:
            results[i] = stop.value

    for i in range(len(runs)):
        step(i, None)
    while requests:
        live = sorted(requests)
        values = iter(_objective([x for i in live for x in requests[i]], d))
        for i in live:
            step(i, list(itertools.islice(values, len(requests.pop(i)))))
    return results


def min_ratio_search(d: int, cfg: SearchConfig | None = None) -> MinRatioResult:
    """Multistart minimization of the squared ratio over rank-two parameters.

    Every start runs a derivative-free compass search on the (alpha, beta,
    theta) chart.  Minimizing sequences balance their coefficients while the
    directions coincide, where the maximizer is not unique and the ratio has
    a kink at alpha = beta; the compass search follows that small-angle drift
    down to the evaluation floor.  Returns the best value found (never a
    claim of attainment); under the sharp lower bound the result stays above
    (1 - 1/d)^(d-1).

    The starts share one budget in order.  Each start is a coroutine capped
    by the budget its group starts with; the six balanced starts are one
    group, solved as one stack per round, and each random start runs alone.
    Replaying the starts in order gives the result of running every start one
    after another.
    """
    if d < 3:
        raise ValueError("infimum search needs order d >= 3")
    cfg = cfg or SearchConfig()
    rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed))

    starts = [equal_diff_chart(d, t) for t in np.geomspace(0.4, 0.02, 6).tolist()]
    while len(starts) < max(cfg.starts, 8):
        alpha = math.exp(rng.normal())
        beta = math.exp(rng.normal()) * rng.choice([1.0, -1.0])
        theta = rng.uniform(0.05, math.pi / 2)
        starts.append((alpha, beta, theta))

    budget, spent = cfg.budget, 0
    best_x, best_f = None, math.inf
    trace: list[dict] = []
    exhausted = False
    # The balanced starts cost alike and run together.  Random starts run
    # alone: one can charge thousands of evaluations, so in lockstep the
    # later ones would mostly solve polls that the budget never reaches.
    groups = [list(enumerate(starts[:6]))] + [[(i, x0)] for i, x0 in enumerate(starts[6:], 6)]
    for group in groups:
        runs = _drive([_start(x0, i, budget - spent) for i, x0 in group], d)
        # Replay the runs in order against the real budget.  A run's real cap,
        # what the runs before it left, is at most the cap it ran with, and
        # its path depends on its cap only where the cap cuts it.
        for (_, x0), (n, f0, result, recs) in zip(group, runs):
            cap = budget - spent
            exhausted = n > cap
            trace += [rec for k, rec in recs if k <= cap]
            if exhausted:
                if best_x is None and cap > 0:
                    # The budget ran out inside the first search: report its start.
                    best_x, best_f = x0, f0
                break
            spent += n
            if result is not None and result[1] < best_f:
                best_x, best_f = result
        if exhausted:
            break

    if best_x is None:
        raise ValueError("no start produced a finite objective within the budget")
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
        evaluations=budget if exhausted else spent,
        budget_exhausted=exhausted,
        trace=trace,
    )


# ---------------------------------------------------------------------------
# Boundary family scan
# ---------------------------------------------------------------------------


def border_ratio_scan(d, steps: int):
    """Sweep the unit-Frobenius boundary family a*e1^d + b*d*e1^(d-1)e2 over
    one order d or a sequence of them, order after order, in one border_batch solve.

    a runs over [0, 1] with b = sqrt((1 - a^2)/d), so the exact ratio equals
    the spectral norm.  Returns arrays (a, b, ratio, lb_interior, lb_axis,
    order); the lower bounds are p at (sqrt(1 - 1/d), sqrt(1/d)) and at (1, 0).
    The minimum sits at a = 0 where the ratio equals (1 - 1/d)^((d-1)/2);
    a one-point grid is that row alone.
    """
    if steps < 1:
        raise ValueError("need at least 1 grid point")
    orders = np.atleast_1d(as_orders(d))
    if (orders < 2).any():
        raise ValueError("need order d >= 2")
    order = np.repeat(orders, steps)
    a = np.tile(np.linspace(0.0, 1.0, steps), len(orders))
    b = np.sqrt(np.maximum(1.0 - a * a, 0.0) / order)
    maxima, _ = border_batch(np.column_stack([a, b]), order)
    # a (1 - 1/d)^(d/2) + b sqrt(d) (1 - 1/d)^((d-1)/2), with each order's
    # powers in Python floats: numpy's ** differs from libm by an ulp on some.
    ds = orders.tolist()
    lb_interior = (a * np.repeat([(1.0 - 1.0 / k) ** (k / 2.0) for k in ds], steps)
                   + b * np.repeat([math.sqrt(k) * extremal_ratio(k) for k in ds], steps))
    return a, b, maxima.values, lb_interior, a.copy(), order
