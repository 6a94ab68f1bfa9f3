"""Verification suites, parameter sweeps, sampling campaigns, and reports.

Everything here is deterministic given a master seed: per-suite and per-group
random streams are split off with SeedSequence spawn keys, so output bytes do
not depend on execution order.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .config import IterConfig, SearchConfig
from .ranktwo import (
    BorderParams,
    RankTwoParams,
    border_ratio_scan,
    canonical_params,
    critical_equation_roots,
    equal_diff_ratio_lb,
    extremal_ratio,
    extremal_tensor,
    make_border,
    make_rank_two,
    min_ratio_search,
    ratio_squared,
)
from .spectral import count_global_maximizers, spectral_norm, spectral_norm_binary
from .symtensor import SymTensor, frob_norm
from .tensor3 import (
    Tensor3,
    als_spectral_norm,
    extremal_tensor3,
    feasible_max_scan,
    hyperdet_stack,
    ratio_3,
    spectral_norm_3,
    spectral_norm_3_batch,
)

__all__ = [
    "RatioReport",
    "SuiteResult",
    "UsageError",
    "SUITES",
    "parse_tensor_spec",
    "report_for",
    "rng_for",
    "run_suite",
    "sample_rank_two_params",
    "search_counterexample",
    "search_min_ratio",
    "sweep_rows",
]

MAX_RECORDED_FAILURES = 25


class UsageError(ValueError):
    """Bad command-line input: unknown name, malformed grammar, bad range."""


def rng_for(seed: int, *key: int) -> np.random.Generator:
    """Deterministic stream for a (seed, spawn-key) pair; order-independent."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass
class RatioReport:
    input: str
    method: str
    spectral_norm: float
    frob_norm: float
    ratio: float
    relative_distance: float
    maximizers: list

    def to_json_dict(self) -> dict:
        return {
            "input": self.input,
            "method": self.method,
            "spectral_norm": self.spectral_norm,
            "frob_norm": self.frob_norm,
            "ratio": self.ratio,
            "relative_distance": self.relative_distance,
            "maximizers": [[float(x) for x in w] for w in self.maximizers],
        }


def report_for(obj, descriptor: str, cfg: IterConfig | None = None) -> RatioReport:
    """Full spectral/Frobenius report for a symmetric or third-order tensor."""
    if isinstance(obj, SymTensor):
        fro = frob_norm(obj)
        if fro == 0.0:
            raise UsageError("zero tensor: report undefined")
        ms = spectral_norm(obj, cfg)
        method = "exact_binary" if ms.is_exact else "power"
        value, maximizers = ms.value, list(ms.points)
    elif isinstance(obj, Tensor3):
        fro = obj.frob_norm()
        if fro == 0.0:
            raise UsageError("zero tensor: report undefined")
        res = spectral_norm_3(obj, cfg)
        value, maximizers, method = res.value, list(res.factors), "als"
    else:
        raise TypeError(f"cannot report on {type(obj).__name__}")
    r = value / fro
    return RatioReport(
        input=descriptor,
        method=method,
        spectral_norm=value,
        frob_norm=fro,
        ratio=r,
        relative_distance=math.sqrt(max(1.0 - r * r, 0.0)),
        maximizers=maximizers,
    )


# ---------------------------------------------------------------------------
# Builtin tensor grammar and file I/O
# ---------------------------------------------------------------------------


def _parse_floats(body: str, arity: int, what: str) -> list[float]:
    parts = body.split(",")
    if len(parts) != arity:
        raise UsageError(f"{what}: expected {arity} comma-separated values, got {len(parts)}")
    out = []
    for pos, part in enumerate(parts):
        try:
            out.append(float(part))
        except ValueError:
            raise UsageError(f"{what}: field {pos + 1} ({part!r}) is not a number") from None
    return out


def parse_tensor_spec(text: str):
    """Builtin grammar wd:<d> | ranktwo:<a>,<b>,<cos>,<d> | border:<a>,<b>,<d>,
    or a path to a JSON tensor file."""
    if text.startswith("wd:"):
        try:
            d = int(text[3:])
        except ValueError:
            raise UsageError(f"wd: order {text[3:]!r} is not an integer") from None
        if d < 2:
            raise UsageError("wd: order must be >= 2")
        return extremal_tensor(d)
    if text.startswith("ranktwo:"):
        alpha, beta, cos_uv, d = _parse_floats(text[8:], 4, "ranktwo")
        if abs(cos_uv) > 1.0:
            raise UsageError("ranktwo: field 3 (cos of the angle) must lie in [-1, 1]")
        d = int(d)
        u = np.array([1.0, 0.0])
        v = np.array([cos_uv, math.sqrt(max(1.0 - cos_uv * cos_uv, 0.0))])
        try:
            return make_rank_two(canonical_params(alpha, beta, u, v, d), d)
        except ValueError as exc:
            raise UsageError(f"ranktwo: {exc}") from None
    if text.startswith("border:"):
        a, b, d = _parse_floats(text[7:], 3, "border")
        try:
            return make_border(
                BorderParams(a=a, b=b, u=np.array([1.0, 0.0]), v=np.array([0.0, 1.0])),
                int(d),
            )
        except ValueError as exc:
            raise UsageError(f"border: {exc}") from None
    try:
        with open(text, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise UsageError(f"no such tensor file or builtin: {text!r}") from None
    except json.JSONDecodeError as exc:
        raise UsageError(f"{text}: invalid JSON at line {exc.lineno}, column {exc.colno}") from None
    if "coeffs" in data:
        return SymTensor.from_json_dict(data)
    if "entries" in data:
        return Tensor3.from_json_dict(data)
    raise UsageError(f"{text}: expected a 'coeffs' (symmetric) or 'entries' (dense) tensor file")


# ---------------------------------------------------------------------------
# Samplers
# ---------------------------------------------------------------------------


def sample_rank_two_params(rng: np.random.Generator, d: int, case: str | None = None) -> RankTwoParams:
    """Random canonical rank-two parameters over R^2.

    case=None mixes signs of beta; "sum" forces beta < 0, "generic" forces
    alpha > beta > 0 with a small working margin, "equal" sets alpha = beta.
    """
    while True:
        phi1, phi2 = rng.uniform(0.0, 2.0 * math.pi, size=2)
        u = np.array([math.cos(phi1), math.sin(phi1)])
        v = np.array([math.cos(phi2), math.sin(phi2)])
        if float(u @ v) < 0.0:
            v = -v
        uv = float(u @ v)
        if 1.0 - uv * uv <= 1e-10:
            continue
        if case is None:
            alpha = math.exp(rng.normal())
            beta = math.exp(rng.normal()) * (1.0 if rng.random() < 0.5 else -1.0)
        elif case == "sum":
            alpha = math.exp(rng.normal())
            beta = -math.exp(rng.normal())
        elif case == "generic":
            lo, hi = sorted(math.exp(x) for x in rng.normal(size=2))
            if hi <= lo * (1.0 + 1e-6):
                continue
            alpha, beta = hi, lo
        elif case == "equal":
            alpha = beta = math.exp(rng.normal())
        else:
            raise ValueError(f"unknown case {case!r}")
        return canonical_params(alpha, beta, u, v, d)


def _sample_rank_two_stack(rng: np.random.Generator, m: int) -> np.ndarray:
    """Stack of m random rank-two 2x2x2 tensors from unit factor pairs."""

    def unit(shape):
        x = rng.standard_normal(shape)
        return x / np.linalg.norm(x, axis=-1, keepdims=True)

    u1, u2, u3, v1, v2, v3 = (unit((m, 2)) for _ in range(6))
    return np.einsum("mi,mj,mk->mijk", u1, u2, u3) + np.einsum("mi,mj,mk->mijk", v1, v2, v3)


# ---------------------------------------------------------------------------
# Verification suites
# ---------------------------------------------------------------------------


@dataclass
class SuiteResult:
    suite: str
    cases: int
    failures: list = field(default_factory=list)
    seconds: float = 0.0
    seed: int = 0

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        # Wall time goes to stderr logging, not here: identical seeds must
        # produce byte-identical machine output.
        return {
            "suite": self.suite,
            "cases": self.cases,
            "failures": self.failures,
            "passed": self.passed,
            "seed": self.seed,
        }


def _record(failures: list, **info):
    if len(failures) < MAX_RECORDED_FAILURES:
        failures.append(info)


def _suite_thm1_bound(seed: int, budget: int | None) -> SuiteResult:
    per_d = budget or 10_000
    failures: list = []
    cases = 0
    for d in (3, 4, 5, 6):
        bound = (1.0 - 1.0 / d) ** (d - 1)
        rng = rng_for(seed, 1, d)
        for _ in range(per_d):
            p = sample_rank_two_params(rng, d)
            value = ratio_squared(p, d)
            cases += 1
            if not value > bound - 1e-9:
                _record(failures, d=d, F=value, bound=bound,
                        alpha=p.alpha, beta=p.beta, uv=float(p.u @ p.v))
    return SuiteResult("thm1-bound", cases, failures, seed=seed)


def _suite_prop_sum(seed: int, budget: int | None) -> SuiteResult:
    per_d = budget or 1_000
    failures: list = []
    cases = 0
    for d in range(3, 9):
        rng = rng_for(seed, 2, d)
        for _ in range(per_d):
            p = sample_rank_two_params(rng, d, case="sum")
            value = ratio_squared(p, d)
            cases += 1
            if not value >= 0.5 - 1e-12:
                _record(failures, d=d, F=value, alpha=p.alpha, beta=p.beta)
    return SuiteResult("prop-sum", cases, failures, seed=seed)


def _suite_prop_equal(seed: int, budget: int | None) -> SuiteResult:
    steps = budget or 1_000
    failures: list = []
    cases = 0
    for d in range(3, 9):
        bound = (1.0 - 1.0 / d) ** (d - 1)
        ts = np.geomspace(1e-4, 1.0, steps)
        for t in ts:
            u = np.array([1.0, t])
            v = np.array([1.0, -t])
            p = canonical_params(1.0, 1.0, u, v, d)
            value = ratio_squared(p, d)
            cases += 1
            if not value > bound:
                _record(failures, d=d, t=float(t), F=value, bound=bound)
        # The family lower bound must increase strictly up to 1/sqrt(d-1) and
        # meet the limit value at the small end of the grid.
        interior = ts[ts < 1.0 / math.sqrt(d - 1.0)]
        lbs = [equal_diff_ratio_lb(d, float(t)) for t in interior]
        cases += 1
        if not all(b2 > b1 for b1, b2 in zip(lbs, lbs[1:])):
            _record(failures, d=d, check="monotonicity of the family lower bound")
        cases += 1
        if abs(equal_diff_ratio_lb(d, 1e-4) - bound) > 1e-6:
            _record(failures, d=d, check="small-angle limit of the family lower bound")
    return SuiteResult("prop-equal", cases, failures, seed=seed)


def _suite_lemma_roots(seed: int, budget: int | None) -> SuiteResult:
    per_d = budget or 1_000
    failures: list = []
    cases = 0
    for d in range(3, 9):
        rng = rng_for(seed, 3, d)
        expected = 2 + d % 2
        for i in range(per_d):
            a = math.exp(rng.normal())
            gamma = math.exp(rng.normal())
            b = 0.0 if i % 10 == 0 else abs(rng.normal())
            roots = critical_equation_roots(a, b, gamma, d)
            cases += 1
            if len(roots) != expected:
                _record(failures, d=d, a=a, b=b, gamma=gamma,
                        count=len(roots), expected=expected)
    return SuiteResult("lemma-roots", cases, failures, seed=seed)


def _suite_prop_unique(seed: int, budget: int | None) -> SuiteResult:
    per_d = budget or 1_000
    failures: list = []
    cases = 0
    for d in range(3, 8):
        rng = rng_for(seed, 4, d)
        for _ in range(per_d):
            p = sample_rank_two_params(rng, d, case="generic")
            count = count_global_maximizers(make_rank_two(p, d))
            cases += 1
            if count != 1:
                _record(failures, d=d, count=count, alpha=p.alpha, beta=p.beta,
                        uv=float(p.u @ p.v))
    return SuiteResult("prop-unique", cases, failures, seed=seed)


def _suite_border_scan(seed: int, budget: int | None) -> SuiteResult:
    steps = budget or 201
    failures: list = []
    cases = 0
    for d in range(3, 9):
        bound = extremal_ratio(d)
        rows = border_ratio_scan(d, steps)
        cases += 1
        if abs(rows[0].ratio - bound) > 1e-10:
            _record(failures, d=d, check="equality at a=0", ratio=rows[0].ratio, bound=bound)
        for row in rows:
            cases += 1
            ok = row.lb_interior <= row.ratio + 1e-12 and row.lb_axis <= row.ratio + 1e-12
            if row.a > 0.0:
                ok = ok and row.ratio > bound
            if not ok:
                _record(failures, d=d, a=row.a, ratio=row.ratio,
                        lb_interior=row.lb_interior, lb_axis=row.lb_axis)
    return SuiteResult("border-scan", cases, failures, seed=seed)


def _suite_thm3_bound(seed: int, budget: int | None) -> SuiteResult:
    m = budget or 10_000
    failures: list = []
    rng = rng_for(seed, 5)
    stack = _sample_rank_two_stack(rng, m)
    keep = hyperdet_stack(stack) > 0.0
    stack = stack[keep]
    values = spectral_norm_3_batch(stack, IterConfig(starts=8, tol=1e-12, max_iters=400, seed=seed))
    fros = np.linalg.norm(stack.reshape(len(stack), -1), axis=1)
    ratios = values / fros
    cases = int(len(stack))
    for idx in np.nonzero(ratios <= 2.0 / 3.0 + 1e-3)[0]:
        # Near-threshold samples get the full single-tensor solver before
        # being judged, so local maxima cannot masquerade as counterexamples.
        exact = ratio_3(Tensor3(stack[idx]), IterConfig(starts=32, tol=1e-14, seed=seed))
        ratios[idx] = max(ratios[idx], exact)
    for idx in np.nonzero(~(ratios > 2.0 / 3.0 - 1e-9))[0]:
        _record(failures, ratio=float(ratios[idx]), entries=stack[idx].ravel().tolist())

    w3 = extremal_tensor3()
    r = ratio_3(w3, IterConfig(starts=32, tol=1e-14, seed=seed))
    cases += 2
    if abs(r - 2.0 / 3.0) > 1e-8:
        _record(failures, check="extremal 2x2x2 ratio", ratio=r)
    dist = math.sqrt(max(1.0 - r * r, 0.0))
    if abs(dist - math.sqrt(5.0) / 3.0) > 1e-8:
        _record(failures, check="extremal 2x2x2 distance", distance=dist)
    return SuiteResult("thm3-bound", cases, failures, seed=seed)


def _suite_kkt_region(seed: int, budget: int | None) -> SuiteResult:
    failures: list = []
    res = feasible_max_scan(SearchConfig(budget=budget or 1_000_000, seed=seed))
    cases = 2
    if abs(res.value - 2.25) > 1e-4:
        _record(failures, check="feasible maximum", value=res.value)
    if not res.boundary:
        _record(failures, check="boundary flag", criterion=res.criterion_at_argmax)
    interior = feasible_max_scan(
        SearchConfig(budget=budget or 1_000_000, seed=seed), interior_margin=0.01
    )
    cases += 1
    if not interior.value < 2.25 - 1e-3:
        _record(failures, check="strict interior maximum", value=interior.value)
    return SuiteResult("kkt-region", cases, failures, seed=seed)


SUITES = {
    "thm1-bound": _suite_thm1_bound,
    "prop-sum": _suite_prop_sum,
    "prop-equal": _suite_prop_equal,
    "lemma-roots": _suite_lemma_roots,
    "prop-unique": _suite_prop_unique,
    "border-scan": _suite_border_scan,
    "thm3-bound": _suite_thm3_bound,
    "kkt-region": _suite_kkt_region,
}


def run_suite(name: str, seed: int = 0, budget: int | None = None) -> SuiteResult:
    if name not in SUITES:
        raise UsageError(f"unknown suite {name!r}; known: {', '.join(sorted(SUITES))}")
    start = time.perf_counter()
    result = SUITES[name](seed, budget)
    result.seconds = time.perf_counter() - start
    return result


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def _sweep_diff_t(d: int, steps: int, tmin: float):
    if not 0.0 < tmin < 1.0:
        raise UsageError("diff_t needs 0 < tmin < 1")
    bound = (1.0 - 1.0 / d) ** (d - 1)
    rows = []
    for t in np.geomspace(tmin, 1.0, steps):
        t = float(t)
        p = canonical_params(1.0, 1.0, np.array([1.0, t]), np.array([1.0, -t]), d)
        rows.append([t, ratio_squared(p, d), equal_diff_ratio_lb(d, t), bound])
    return ["t", "ratio_sq", "family_lb", "bound"], rows


def _sweep_border_ab(d: int, steps: int):
    rows = [
        [row.a, row.b, row.ratio, row.lb_interior, row.lb_axis]
        for row in border_ratio_scan(d, steps)
    ]
    return ["a", "b", "ratio", "lb_interior", "lb_axis"], rows


def _sweep_limit_d(dmin: int, dmax: int):
    if not 2 <= dmin <= dmax:
        raise UsageError("limit_d needs 2 <= dmin <= dmax")
    ratio_limit = 1.0 / math.sqrt(math.e)
    dist_limit = math.sqrt(1.0 - 1.0 / math.e)
    rows = []
    for d in range(dmin, dmax + 1):
        A = extremal_tensor(d)
        r = spectral_norm_binary(A).value / frob_norm(A)
        rows.append([d, r, math.sqrt(max(1.0 - r * r, 0.0)), ratio_limit, dist_limit])
    return ["d", "ratio", "distance", "ratio_limit", "distance_limit"], rows


def sweep_rows(kind: str, **kw):
    """Header and rows for a named sweep; see the CLI for the parameter set."""
    if kind == "diff_t":
        return _sweep_diff_t(kw.get("d", 4), kw.get("steps", 101), kw.get("tmin", 1e-4))
    if kind == "border_ab":
        return _sweep_border_ab(kw.get("d", 3), kw.get("steps", 101))
    if kind == "limit_d":
        return _sweep_limit_d(kw.get("dmin", 3), kw.get("dmax", 40))
    raise UsageError(f"unknown sweep kind {kind!r}")


# ---------------------------------------------------------------------------
# Searches
# ---------------------------------------------------------------------------


def search_min_ratio(d: int, cfg: SearchConfig | None = None, with_trace: bool = False):
    """Infimum search report for the symmetric rank-two ratio at order d.

    With ``with_trace`` returns (report, trace) where the trace is a list of
    accepted-iterate records suitable for JSON-lines emission.
    """
    res = min_ratio_search(d, cfg)
    report = {
        "target": "min-ratio-sym",
        "d": d,
        "best_ratio": res.ratio,
        "best_ratio_sq": res.value,
        "bound_ratio": extremal_ratio(d),
        "bound_ratio_sq": extremal_ratio(d) ** 2,
        "alpha": res.alpha,
        "beta": res.beta,
        "theta": res.theta,
        "diagnostics": res.diagnostics,
        "evaluations": res.evaluations,
        "budget_exhausted": res.budget_exhausted,
        "note": (
            "infimum is not attained by rank-two tensors; the estimate is an "
            "open lower bound approached along the recorded drift"
        ),
    }
    if with_trace:
        return report, res.trace
    return report


def search_counterexample(d: int, cfg: SearchConfig | None = None) -> dict:
    """Sample nonsymmetric rank-two tensors of order d against the ratio bound.

    Reports the minimal observed ratio and whether any sample fell below the
    bound; for d >= 4 no expected answer is recorded.
    """
    if d < 3:
        raise UsageError("counterexample search needs order d >= 3")
    cfg = cfg or SearchConfig()
    samples = cfg.budget or 10_000
    bound = (1.0 - 1.0 / d) ** ((d - 1) / 2.0)
    rng = rng_for(cfg.seed, 6, d)
    worst = math.inf
    worst_entries = None
    found = 0
    if d == 3:
        stack = _sample_rank_two_stack(rng, samples)
        values = spectral_norm_3_batch(stack, IterConfig(starts=8, tol=1e-12, max_iters=400, seed=cfg.seed))
        fros = np.linalg.norm(stack.reshape(samples, -1), axis=1)
        ratios = values / fros
        for idx in np.nonzero(ratios <= bound + 1e-3)[0]:
            exact = ratio_3(Tensor3(stack[idx]), IterConfig(starts=32, tol=1e-14, seed=cfg.seed))
            ratios[idx] = max(ratios[idx], exact)
        worst_idx = int(np.argmin(ratios))
        worst = float(ratios[worst_idx])
        worst_entries = stack[worst_idx].ravel().tolist()
        found = int(np.count_nonzero(ratios < bound - 1e-9))
    else:
        def unit(k):
            x = rng.standard_normal(k)
            return x / np.linalg.norm(x)

        for _ in range(samples):
            us = [unit(2) for _ in range(d)]
            vs = [unit(2) for _ in range(d)]
            T = np.ones(())
            U = np.ones(())
            for u, v in zip(us, vs):
                T = np.multiply.outer(T, u)
                U = np.multiply.outer(U, v)
            T = T + U
            value = als_spectral_norm(T, IterConfig(starts=6, tol=1e-13, seed=cfg.seed)).value
            r = value / float(np.linalg.norm(T))
            if r < worst:
                worst = r
                worst_entries = T.ravel().tolist()
            if r < bound - 1e-9:
                found += 1
    return {
        "target": "counterexample-nonsym",
        "d": d,
        "samples": samples,
        "bound_ratio": bound,
        "min_ratio_observed": worst,
        "counterexamples_found": found,
        "worst_entries": worst_entries,
    }
