"""Output checks for the benchmark's requests, independent of the library.

Every check takes the parsed stdout of one CLI call and returns None when the
output is right, or a one-line reason.  The oracles here use only numpy and
closed forms; none calls into tensorratio.  Method strings and whole stdout
bytes are deliberately not pinned, so honest changes to them do not fail.
"""

from __future__ import annotations

import math

import numpy as np

# Closed-form checks, as the source paper states them.
WD_TOL = 1e-10
SEARCH_GAP_MAX = 1e-9
BOUND_SLACK = 1e-9


def extremal_ratio(d: int) -> float:
    """(1 - 1/d)^((d-1)/2): the ratio of d*e1^(d-1)e2."""
    return (1.0 - 1.0 / d) ** ((d - 1) / 2.0)


# ---------------------------------------------------------------------------
# Expected case counts of the verification suites
# ---------------------------------------------------------------------------

def _hyperdet(t: np.ndarray) -> np.ndarray:
    """Cayley's hyperdeterminant of a stack of 2x2x2 arrays, from its definition."""
    a = t.reshape(len(t), 8)
    a000, a001, a010, a011, a100, a101, a110, a111 = a.T
    return (a000**2 * a111**2 + a001**2 * a110**2 + a010**2 * a101**2 + a011**2 * a100**2
            - 2 * (a000 * a001 * a110 * a111 + a000 * a010 * a101 * a111
                   + a000 * a011 * a100 * a111 + a001 * a010 * a101 * a110
                   + a001 * a011 * a110 * a100 + a010 * a011 * a101 * a100)
            + 4 * (a000 * a011 * a101 * a110 + a001 * a010 * a100 * a111))


def _thm3_kept_range(seed: int, budget: int) -> tuple[int, int]:
    """Samples of thm3-bound with positive hyperdeterminant, as (sure, possible).

    Replays the suite's documented sampler: rank-two tensors u1 x u2 x u3 +
    v1 x v2 x v3 from unit factors drawn in that order from the stream with
    spawn key (5,).  Samples whose hyperdeterminant sits within roundoff of
    zero may fall either way.
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(5,)))
    f = []
    for _ in range(6):
        x = rng.standard_normal((budget, 2))
        f.append(x / np.linalg.norm(x, axis=1, keepdims=True))
    u1, u2, u3, v1, v2, v3 = f
    stack = (np.einsum("mi,mj,mk->mijk", u1, u2, u3)
             + np.einsum("mi,mj,mk->mijk", v1, v2, v3))
    h = _hyperdet(stack)
    return int(np.count_nonzero(h > 1e-12)), int(np.count_nonzero(h > -1e-12))


def expected_cases(suite: str, seed: int, budget: int) -> tuple[int, int]:
    """Inclusive range of the case count `verify SUITE --budget B --seed S` reports."""
    fixed = {
        "thm1-bound": 4 * budget,         # orders 3..6
        "prop-sum": 6 * budget,           # orders 3..8
        "prop-equal": 6 * (budget + 2),   # grid plus two family-bound checks
        "lemma-roots": 6 * budget,
        "prop-unique": 5 * budget,        # orders 3..7
        "border-scan": 6 * (budget + 1),  # grid plus the equality check
        "kkt-region": 3,
    }
    if suite in fixed:
        return fixed[suite], fixed[suite]
    if suite == "thm3-bound":
        lo, hi = _thm3_kept_range(seed, budget)
        return lo + 2, hi + 2
    raise KeyError(suite)


def check_verify(out, suite: str, cases: tuple[int, int]):
    if not isinstance(out, dict) or out.get("suite") != suite:
        return f"verify {suite}: unexpected payload"
    if out.get("passed") is not True:
        return f"verify {suite}: passed is {out.get('passed')!r}"
    lo, hi = cases
    if not lo <= out.get("cases", -1) <= hi:
        return f"verify {suite}: {out.get('cases')} cases, expected {lo}..{hi}"
    return None


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def _report_ratio(out):
    r = out.get("ratio") if isinstance(out, dict) else None
    if not isinstance(r, float) or not math.isfinite(r):
        return None
    return r


def check_report_wd(out, d: int):
    r = _report_ratio(out)
    if r is None or abs(r - extremal_ratio(d)) > WD_TOL:
        return f"report wd:{d}: ratio {r!r}, expected {extremal_ratio(d)!r}"
    return None


def circle_max(form, d: int) -> float:
    """max |form(cos t, sin t)| over the circle by a fine grid plus golden search.

    The grid spacing is well below the distance between critical points of a
    degree-d binary form, so each local maximum is bracketed by its best
    neighbouring grid points and refined to roundoff.
    """
    n = 64 * d + 256
    ts = np.linspace(0.0, math.pi, n, endpoint=False)
    vals = np.abs(form(np.cos(ts), np.sin(ts)))
    step = math.pi / n
    best = float(vals.max())
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    for i in np.argsort(vals)[-4:]:
        lo, hi = ts[i] - step, ts[i] + step
        g = lambda t: abs(float(form(math.cos(t), math.sin(t))))
        a, b = hi - invphi * (hi - lo), lo + invphi * (hi - lo)
        ga, gb = g(a), g(b)
        for _ in range(80):
            if ga > gb:
                hi, b, gb = b, a, ga
                a = hi - invphi * (hi - lo)
                ga = g(a)
            else:
                lo, a, ga = a, b, gb
                b = lo + invphi * (hi - lo)
                gb = g(b)
        best = max(best, ga, gb)
    return best


def rank_two_oracle(alpha: float, beta: float, cos_uv: float, d: int) -> float:
    """Ratio of alpha*u^d - beta*v^d for u = e1, v = (cos, sin) at that angle."""
    s = math.sqrt(max(1.0 - cos_uv * cos_uv, 0.0))
    form = lambda x, y: alpha * x**d - beta * (cos_uv * x + s * y) ** d
    fro = math.sqrt(alpha**2 + beta**2 - 2.0 * alpha * beta * cos_uv**d)
    return circle_max(form, d) / fro


def border_oracle(a: float, b: float, d: int) -> float:
    """Ratio of a*e1^d + b*d*e1^(d-1)e2, whose Frobenius norm is sqrt(a^2 + b^2 d)."""
    form = lambda x, y: a * x**d + b * d * x ** (d - 1) * y
    return circle_max(form, d) / math.sqrt(a * a + b * b * d)


def check_report_oracle(out, label: str, expected: float, d: int):
    r = _report_ratio(out)
    if r is None or abs(r - expected) > 1e-10 * d:
        return f"report {label}: ratio {r!r}, grid oracle {expected!r}"
    return None


def check_report_heuristic(out, label: str, upper: float = 1.0, lower: float = 0.0):
    """A heuristic ratio lies in (0, 1], at least `lower` and at most the
    exact ratio `upper`, since the solver's value is a lower bound."""
    r = _report_ratio(out)
    if r is None or not (0.0 < r <= upper * (1.0 + BOUND_SLACK) and r >= lower):
        return f"report {label}: ratio {r!r} outside [{lower}, {upper}]"
    return None


# ---------------------------------------------------------------------------
# Searches
# ---------------------------------------------------------------------------

def check_min_ratio_search(out, d: int):
    if not isinstance(out, dict):
        return f"search min-ratio-sym d={d}: unexpected payload"
    gap = out.get("best_ratio", math.nan) - extremal_ratio(d)
    if not 0.0 < gap <= SEARCH_GAP_MAX:
        return f"search min-ratio-sym d={d}: gap to the bound {gap!r}"
    return None


def check_counterexample_search(out, d: int, samples: int):
    if not isinstance(out, dict) or out.get("samples") != samples:
        return f"search counterexample-nonsym d={d}: sample count differs"
    bound = (1.0 - 1.0 / d) ** ((d - 1) / 2.0)
    worst = out.get("min_ratio_observed", math.nan)
    if not 0.0 < worst <= 1.0:
        return f"search counterexample-nonsym d={d}: min ratio {worst!r}"
    if d == 3 and (out.get("counterexamples_found") != 0 or worst < bound - BOUND_SLACK):
        # Order 3 is the proven 2/3 bound; higher orders are an open question.
        return f"search counterexample-nonsym d=3: bound violated, min ratio {worst!r}"
    return None
