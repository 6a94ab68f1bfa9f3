"""Verification suites, parameter sweeps, sampling campaigns, and reports.

Everything here is deterministic given a master seed: per-suite and per-group
random streams are split off with SeedSequence spawn keys, so output bytes do
not depend on execution order.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .config import IterConfig, SearchConfig
from .ranktwo import (
    BorderParams,
    border_batch,
    border_ratio_scan,
    canonical_params,
    chart_batch,
    critical_equation_roots_batch,
    equal_diff_chart,
    equal_diff_ratio_lb,
    extremal_ratio,
    extremal_ratio_sq,
    extremal_tensor,
    make_border,
    make_rank_two,
    min_ratio_search,
)
from .spectral import DegenerateTensorError, spectral_norm
from .symtensor import SymTensor, frob_norm
from .tensor3 import (
    ALS_CONFIG,
    Tensor3,
    als_spectral_norm_batch,
    extremal_tensor3,
    feasible_max_scan_batch,
    hyperdet_stack,
    ratio_3,
    spectral_norm_3,
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
    "sample_rank_two_charts",
    "search_counterexample",
    "search_min_ratio",
    "sweep_rows",
]

MAX_RECORDED_FAILURES = 25
SCREEN_STARTS = 8  # random ALS starts of the screen, unless a search is given --starts
MAX_SAMPLE_ENTRIES_LOG2 = 26  # a counterexample search holds at most 2^26 sampled entries


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
    """A ratio report with its provenance: whether the spectral norm is exact,
    whether its solver converged, and its step count (power iteration steps
    with the rows still moving at the step cap, or ALS sweeps; None for the
    exact solver)."""

    input: str
    method: str
    is_exact: bool
    converged: bool
    spectral_norm: float
    frob_norm: float
    ratio: float
    relative_distance: float
    maximizers: list
    iterations: int | None = None
    capped_rows: int | None = None
    sweeps: int | None = None

    def to_json_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        out["maximizers"] = [[float(x) for x in w] for w in self.maximizers]
        return {k: v for k, v in out.items() if v is not None}


def _report_norm(fro: float) -> float:
    """The Frobenius norm fro, rejected where the ratio is undefined."""
    if fro == 0.0:
        raise UsageError("zero tensor: report undefined")
    if not math.isfinite(fro * fro):
        raise UsageError("the squared Frobenius norm overflows: report undefined")
    return fro


def report_for(obj, descriptor: str, cfg: IterConfig | None = None) -> RatioReport:
    """Full spectral/Frobenius report for a symmetric or third-order tensor."""
    if isinstance(obj, SymTensor):
        fro = _report_norm(frob_norm(obj))
        try:
            ms = spectral_norm(obj, cfg)
        except DegenerateTensorError:
            raise UsageError("rotation-invariant form: report undefined") from None
        method = "exact_binary" if ms.is_exact else "power"
        value, maximizers, is_exact = ms.value, list(ms.points), ms.is_exact
        steps = {"iterations": ms.iterations, "capped_rows": ms.capped_rows}
    elif isinstance(obj, Tensor3):
        fro = _report_norm(obj.frob_norm())
        ms = spectral_norm_3(obj, cfg)
        value, maximizers, method, is_exact = ms.value, list(ms.factors), "als", False
        steps = {"sweeps": ms.sweeps}
    else:
        raise TypeError(f"cannot report on {type(obj).__name__}")
    # The spectral norm never exceeds the Frobenius norm; roundoff can put the
    # quotient of a nearly rank-one tensor a few ulps above 1.
    r = min(value / fro, 1.0)
    return RatioReport(
        input=descriptor,
        method=method,
        is_exact=is_exact,
        converged=ms.converged,
        spectral_norm=value,
        frob_norm=fro,
        ratio=r,
        relative_distance=math.sqrt(max(1.0 - r * r, 0.0)),
        maximizers=maximizers,
        **steps,
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
            x = float(part)
        except ValueError:
            x = math.nan
        if not math.isfinite(x):
            raise UsageError(f"{what}: field {pos + 1} ({part!r}) is not a finite number")
        out.append(x)
    return out


def _parse_order(x: float, what: str) -> int:
    """The order field of a builtin, which must be an integral value."""
    if not x.is_integer():
        raise UsageError(f"{what}: order {x!r} is not an integer")
    return int(x)


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
        d = _parse_order(d, "ranktwo")
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
                _parse_order(d, "border"),
            )
        except ValueError as exc:
            raise UsageError(f"border: {exc}") from None
    try:
        with open(text, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise UsageError(f"no such tensor file or builtin: {text!r}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"{text}: cannot read: {exc}") from None
    except json.JSONDecodeError as exc:
        raise UsageError(f"{text}: invalid JSON at line {exc.lineno}, column {exc.colno}") from None
    kind = None
    if isinstance(data, dict):
        kind = SymTensor if "coeffs" in data else Tensor3 if "entries" in data else None
    if kind is not None:
        try:
            return kind.from_json_dict(data)
        except (ValueError, KeyError, TypeError, OverflowError) as exc:
            raise UsageError(f"{text}: malformed tensor file: {exc!r}") from None
    raise UsageError(f"{text}: expected a 'coeffs' (symmetric) or 'entries' (dense) tensor file")


# ---------------------------------------------------------------------------
# Samplers
# ---------------------------------------------------------------------------


def sample_rank_two_charts(rng: np.random.Generator, m: int, case: str | None = None) -> np.ndarray:
    """m random canonical rank-two forms alpha*e1^d - beta*v^d over R^2, as
    (m, 3) chart rows (alpha, beta, theta) with v = (cos theta, sin theta).

    theta ~ U(1e-5, pi/2), the angle between two uniform directions folded
    to <u, v> >= 0, with 1 - <u, v>^2 <= 1e-10 left out; |alpha| and |beta|
    are lognormal.  case=None gives beta a random sign, "sum" forces
    beta < 0, and "generic" forces alpha > beta (1 + 1e-6) > 0.  Rows with
    beta > 0 have alpha >= beta.

    Draw order: the m angles, then the (m, 2) lognormal exponents of
    (alpha, beta); under "generic" each round of tied rows redraws its
    exponents, in row order, until none tie; under case=None, m uniforms
    then give beta its sign (positive below 1/2).
    """
    if case not in (None, "sum", "generic"):
        raise ValueError(f"unknown case {case!r}")
    theta = rng.uniform(1e-5, 0.5 * math.pi, m)
    mags = np.exp(rng.standard_normal((m, 2)))
    if case == "generic":
        while (tied := mags.max(axis=1) <= mags.min(axis=1) * (1.0 + 1e-6)).any():
            mags[tied] = np.exp(rng.standard_normal((int(tied.sum()), 2)))
    alpha, beta = mags[:, 0], mags[:, 1]
    if case == "sum":
        beta = -beta
    elif case is None:
        beta = np.where(rng.random(m) < 0.5, beta, -beta)
    swap = beta > alpha
    return np.column_stack([np.where(swap, beta, alpha), np.where(swap, alpha, beta), theta])


def _sample_rank_two_stack(rng: np.random.Generator, m: int, d: int) -> np.ndarray:
    """Stack of m random rank-two tensors u1 x ... x ud + v1 x ... x vd of
    order d >= 2 over R^2.

    The 2d unit factors are drawn as one (2, d, m, 2) array, in the order
    u1..ud, v1..vd, each an (m, 2) block of the stream.  The u term is built
    first and the v term added into it, its last mode one component at a
    time, so at most the result and two halves of it are held at once.
    """
    uv = rng.standard_normal((2, d, m, 2))
    uv /= np.linalg.norm(uv, axis=-1, keepdims=True)

    def product(factors, modes):
        out = factors[0]
        for mode in range(1, modes):
            out = out[..., None] * factors[mode].reshape((m,) + (1,) * mode + (2,))
        return out

    stack = product(uv[0], d)
    head = product(uv[1], d - 1)
    for j in range(2):
        stack[..., j] += head * uv[1, d - 1, :, j].reshape((m,) + (1,) * (d - 1))
    return stack


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
    # Per order, the smallest margin to the bound with its witness, for the
    # suites that measure one.
    margins: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        # Wall time goes to stderr logging, not here: identical seeds must
        # produce byte-identical machine output.
        out = {
            "suite": self.suite,
            "cases": self.cases,
            "failures": self.failures,
            "passed": self.passed,
            "seed": self.seed,
        }
        if self.margins:
            out["margins"] = self.margins
        return out


def _record(failures: list, **info):
    if len(failures) < MAX_RECORDED_FAILURES:
        failures.append(info)


def _ratios_sq(rows, d) -> np.ndarray:
    """Squared spectral-to-Frobenius ratio of each chart row, in one solve;
    d is one order or an array of per-row orders."""
    maxima, _, fro_sq = chart_batch(rows, d)
    return maxima.values**2 / fro_sq


def _order_stack(per_d: dict) -> tuple[np.ndarray, np.ndarray]:
    """The rows of every order in one stack, order after order, with the
    order of each row."""
    rows = np.concatenate([np.asarray(r, dtype=float).reshape(len(r), -1) for r in per_d.values()])
    return rows, np.repeat(list(per_d), [len(r) for r in per_d.values()])


def _per_order(ds: np.ndarray, f) -> np.ndarray:
    """f(d) for the order d of each row, one call per distinct order."""
    table = np.zeros(ds.max(initial=0) + 1)
    orders = np.flatnonzero(np.bincount(ds))
    table[orders] = [f(d) for d in orders.tolist()]
    return table[ds]


def _margins(ds: np.ndarray, margin: np.ndarray, witness) -> list:
    """Per order, the smallest margin to the bound with its witness row:
    witness(i) gives the record of stack row i."""
    out = []
    for d in np.flatnonzero(np.bincount(ds)).tolist():
        idx = np.nonzero(ds == d)[0]
        i = int(idx[np.argmin(margin[idx])])
        out.append({"d": d, "margin": float(margin[i]), **witness(i)})
    return out


def _suite_thm1_bound(seed: int, budget: int | None) -> SuiteResult:
    per_d = budget or 10_000
    failures: list = []
    rows, ds = _order_stack({d: sample_rank_two_charts(rng_for(seed, 1, d), per_d)
                             for d in (3, 4, 5, 6)})
    bound = _per_order(ds, extremal_ratio_sq)
    values = _ratios_sq(rows, ds)

    def witness(i):
        alpha, beta, theta = rows[i].tolist()
        return dict(F=float(values[i]), bound=float(bound[i]), alpha=alpha, beta=beta,
                    uv=math.cos(theta))

    for i in np.nonzero(~(values > bound - 1e-9))[0].tolist():
        _record(failures, d=int(ds[i]), **witness(i))
    return SuiteResult("thm1-bound", len(rows), failures, seed=seed,
                       margins=_margins(ds, values - bound, witness))


def _suite_prop_sum(seed: int, budget: int | None) -> SuiteResult:
    per_d = budget or 1_000
    failures: list = []
    rows, ds = _order_stack({d: sample_rank_two_charts(rng_for(seed, 2, d), per_d, case="sum")
                             for d in range(3, 9)})
    values = _ratios_sq(rows, ds)

    def witness(i):
        alpha, beta, _ = rows[i].tolist()
        return dict(F=float(values[i]), alpha=alpha, beta=beta)

    for i in np.nonzero(~(values >= 0.5 - 1e-12))[0].tolist():
        _record(failures, d=int(ds[i]), **witness(i))
    return SuiteResult("prop-sum", len(rows), failures, seed=seed,
                       margins=_margins(ds, values - 0.5, witness))


def _suite_prop_equal(seed: int, budget: int | None) -> SuiteResult:
    steps = budget or 1_000
    failures: list = []
    ts = np.geomspace(1e-4, 1.0, steps)
    orders = range(3, 9)
    rows, ds = _order_stack({d: [equal_diff_chart(d, t) for t in ts.tolist()] for d in orders})
    bound = _per_order(ds, extremal_ratio_sq)
    values = _ratios_sq(rows, ds)
    t_of = np.tile(ts, len(orders))

    def witness(i):
        return dict(t=float(t_of[i]), F=float(values[i]), bound=float(bound[i]))

    bad = ~(values > bound)
    cases = len(rows)
    for d in orders:
        for i in np.nonzero(bad & (ds == d))[0].tolist():
            _record(failures, d=d, **witness(i))
        # The family lower bound must increase strictly up to 1/sqrt(d-1) and
        # meet the limit value at the small end of the grid.
        interior = ts[ts < 1.0 / math.sqrt(d - 1.0)]
        lbs = [equal_diff_ratio_lb(d, float(t)) for t in interior]
        cases += 1
        if not all(b2 > b1 for b1, b2 in zip(lbs, lbs[1:])):
            _record(failures, d=d, check="monotonicity of the family lower bound")
        cases += 1
        if abs(equal_diff_ratio_lb(d, 1e-4) - extremal_ratio_sq(d)) > 1e-6:
            _record(failures, d=d, check="small-angle limit of the family lower bound")
    return SuiteResult("prop-equal", cases, failures, seed=seed,
                       margins=_margins(ds, values - bound, witness))


def _suite_lemma_roots(seed: int, budget: int | None) -> SuiteResult:
    per_d = budget or 1_000
    failures: list = []
    z, ds = _order_stack({d: rng_for(seed, 3, d).standard_normal((per_d, 3)) for d in range(3, 9)})
    # (a, b, gamma): a and gamma lognormal, b half-normal, 0 on every tenth row of an order.
    rows = np.column_stack([np.exp(z[:, 0]), np.abs(z[:, 1]), np.exp(z[:, 2])])
    rows[np.arange(len(rows)) % per_d % 10 == 0, 1] = 0.0
    _, counts = critical_equation_roots_batch(rows, ds)
    expected = 2 + ds % 2
    for i in np.nonzero(counts != expected)[0].tolist():
        a, b, gamma = rows[i].tolist()
        _record(failures, d=int(ds[i]), a=a, b=b, gamma=gamma,
                count=int(counts[i]), expected=int(expected[i]))
    return SuiteResult("lemma-roots", len(rows), failures, seed=seed)


def _suite_prop_unique(seed: int, budget: int | None) -> SuiteResult:
    per_d = budget or 1_000
    failures: list = []
    rows, ds = _order_stack({d: sample_rank_two_charts(rng_for(seed, 4, d), per_d, case="generic")
                             for d in range(3, 8)})
    counts = chart_batch(rows, ds)[0].counts
    for i in np.nonzero(counts != 1)[0].tolist():
        alpha, beta, theta = rows[i].tolist()
        _record(failures, d=int(ds[i]), count=int(counts[i]), alpha=alpha, beta=beta,
                uv=math.cos(theta))
    return SuiteResult("prop-unique", len(rows), failures, seed=seed)


def _suite_border_scan(seed: int, budget: int | None) -> SuiteResult:
    steps = budget or 201
    failures: list = []
    orders = range(3, 9)
    a, b, ratio, lb_interior, lb_axis, ds = border_ratio_scan(orders, steps)
    bound = _per_order(ds, extremal_ratio)
    # The a = 0 row of each order attains the bound; every row dominates both
    # lower bounds, and lies strictly above the bound where a > 0.
    unequal = (a == 0.0) & (np.abs(ratio - bound) > 1e-10)
    bad = ~((lb_interior <= ratio + 1e-12) & (lb_axis <= ratio + 1e-12)
            & ((a == 0.0) | (ratio > bound)))
    for i in np.nonzero(unequal | bad)[0].tolist():
        row = dict(d=int(ds[i]), ratio=float(ratio[i]))
        if unequal[i]:
            _record(failures, **row, check="equality at a=0", bound=float(bound[i]))
        if bad[i]:
            _record(failures, **row, a=float(a[i]), lb_interior=float(lb_interior[i]),
                    lb_axis=float(lb_axis[i]))

    def witness(i):
        return dict(a=float(a[i]), b=float(b[i]), ratio=float(ratio[i]), bound=float(bound[i]))

    inner = np.nonzero(a > 0.0)[0]  # a = 0 is the equality case, checked above
    margins = _margins(ds[inner], (ratio - bound)[inner], lambda j: witness(inner[j]))
    return SuiteResult("border-scan", len(ds) + len(orders), failures, seed=seed, margins=margins)


def _screen_ratios(stack: np.ndarray, bound: float, seed: int,
                   starts: int = SCREEN_STARTS) -> np.ndarray:
    """Ratios of a stack of dense tensors: one batched screen with the given
    random starts, then the full solver, as one stack, on every sample within
    1e-3 of the bound, so local maxima cannot masquerade as counterexamples.

    A sample whose screen ratio a lower bound puts above bound + 1e-3 and
    above a converged ratio leaves the screen with that bound: the minimum,
    its row and every ratio at or below bound + 1e-3 are those of a screen
    run to convergence.
    """
    near_bound = bound + 1e-3
    screen = als_spectral_norm_batch(
        stack, IterConfig(starts=starts, tol=1e-12, max_iters=400, seed=seed), near_bound)
    fros = np.linalg.norm(stack.reshape(len(stack), -1), axis=1)
    ratios = np.array([res.value for res in screen]) / fros
    near = np.nonzero(ratios <= near_bound)[0]
    full = als_spectral_norm_batch(stack[near], dataclasses.replace(ALS_CONFIG, seed=seed))
    ratios[near] = np.maximum(ratios[near], np.array([res.value for res in full]) / fros[near])
    return ratios


def _suite_thm3_bound(seed: int, budget: int | None) -> SuiteResult:
    m = budget or 10_000
    failures: list = []
    stack = _sample_rank_two_stack(rng_for(seed, 5), m, 3)
    stack = stack[hyperdet_stack(stack) > 0.0]
    ratios = _screen_ratios(stack, 2.0 / 3.0, seed)
    cases = int(len(stack))

    def witness(i):
        return dict(ratio=float(ratios[i]), entries=stack[i].ravel().tolist())

    for i in np.nonzero(~(ratios > 2.0 / 3.0 - 1e-9))[0].tolist():
        _record(failures, **witness(i))
    margins = _margins(np.full(len(stack), 3), ratios - 2.0 / 3.0, witness)

    w3 = extremal_tensor3()
    r = ratio_3(w3, dataclasses.replace(ALS_CONFIG, seed=seed))
    cases += 2
    if abs(r - 2.0 / 3.0) > 1e-8:
        _record(failures, check="extremal 2x2x2 ratio", ratio=r)
    dist = math.sqrt(max(1.0 - r * r, 0.0))
    if abs(dist - math.sqrt(5.0) / 3.0) > 1e-8:
        _record(failures, check="extremal 2x2x2 distance", distance=dist)
    return SuiteResult("thm3-bound", cases, failures, seed=seed, margins=margins)


def _suite_kkt_region(seed: int, budget: int | None) -> SuiteResult:
    failures: list = []
    cfg = SearchConfig(budget=budget or 1_000_000, seed=seed)
    res, interior = feasible_max_scan_batch(cfg, (0.0, 0.01))
    if abs(res.value - 2.25) > 1e-4:
        _record(failures, check="feasible maximum", value=res.value)
    if not res.boundary:
        _record(failures, check="boundary flag", criterion=res.criterion_at_argmax)
    if not interior.value < 2.25 - 1e-3:
        _record(failures, check="strict interior maximum", value=interior.value)
    return SuiteResult("kkt-region", 3, failures, seed=seed)


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
    if d < 2 or steps < 0:
        raise UsageError("diff_t needs d >= 2 and steps >= 0")
    if not 0.0 < tmin < 1.0:
        raise UsageError("diff_t needs 0 < tmin < 1")
    bound = extremal_ratio_sq(d)
    ts = np.geomspace(tmin, 1.0, steps).tolist()
    rows = [
        [t, value, equal_diff_ratio_lb(d, t), bound]
        for t, value in zip(ts, _ratios_sq([equal_diff_chart(d, t) for t in ts], d).tolist())
    ]
    return ["t", "ratio_sq", "family_lb", "bound"], rows


def _sweep_border_ab(d: int, steps: int):
    if d < 2 or steps < 2:
        raise UsageError("border_ab needs d >= 2 and steps >= 2")
    rows = np.column_stack(border_ratio_scan(d, steps)[:5]).tolist()
    return ["a", "b", "ratio", "lb_interior", "lb_axis"], rows


def _sweep_limit_d(dmin: int, dmax: int):
    if not 2 <= dmin <= dmax:
        raise UsageError("limit_d needs 2 <= dmin <= dmax")
    ratio_limit = 1.0 / math.sqrt(math.e)
    dist_limit = math.sqrt(1.0 - 1.0 / math.e)
    rows = []
    for d in range(dmin, dmax + 1):
        # The extremal tensor, of norm sqrt(d); one solve per order keeps each stack d + 1 wide.
        r = float(border_batch([(0.0, 1.0)], d)[0].values[0]) / math.sqrt(d)
        rows.append([d, r, math.sqrt(max(1.0 - r * r, 0.0)), ratio_limit, dist_limit])
    return ["d", "ratio", "distance", "ratio_limit", "distance_limit"], rows


# Each sweep kind with its parameters and their defaults; the CLI's sweep
# flags are these names.
SWEEPS = {
    "diff_t": (_sweep_diff_t, {"d": 4, "steps": 101, "tmin": 1e-4}),
    "border_ab": (_sweep_border_ab, {"d": 4, "steps": 101}),
    "limit_d": (_sweep_limit_d, {"dmin": 3, "dmax": 40}),
}


def sweep_rows(kind: str, **kw):
    """Header and rows for a named sweep.  kw sets any of the kind's
    parameters in SWEEPS; a parameter the kind does not read is a
    UsageError."""
    if kind not in SWEEPS:
        raise UsageError(f"unknown sweep kind {kind!r}")
    sweep, params = SWEEPS[kind]
    if unread := sorted(set(kw) - set(params)):
        raise UsageError(f"sweep {kind} does not read {', '.join(unread)}; "
                         f"it reads {', '.join(params)}")
    return sweep(**(params | kw))


# ---------------------------------------------------------------------------
# Searches
# ---------------------------------------------------------------------------


def search_min_ratio(d: int, cfg: SearchConfig | None = None):
    """Infimum search report for the symmetric rank-two ratio at order d.

    Returns (report, trace), where the trace is a list of accepted-iterate
    records suitable for JSON-lines emission.
    """
    try:
        res = min_ratio_search(d, cfg)
    except ValueError as exc:
        raise UsageError(f"min-ratio-sym: {exc}") from None
    report = {
        "target": "min-ratio-sym",
        "d": d,
        "best_ratio": res.ratio,
        "best_ratio_sq": res.value,
        "bound_ratio": extremal_ratio(d),
        "bound_ratio_sq": extremal_ratio_sq(d),
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
    return report, res.trace


def search_counterexample(d: int, cfg: SearchConfig | None = None) -> dict:
    """Sample nonsymmetric rank-two tensors of order d against the ratio bound.

    cfg.budget is the sample count and cfg.starts the screen's random ALS
    starts (SCREEN_STARTS by default).  Reports the minimal observed ratio
    and whether any sample fell below the bound; for d >= 4 no expected
    answer is recorded.  A request of more than 2^26 sampled entries
    (budget * 2^d) is rejected before anything is allocated.
    """
    if d < 3:
        raise UsageError("counterexample search needs order d >= 3")
    cfg = cfg or SearchConfig(starts=SCREEN_STARTS)
    samples = cfg.budget
    if d > MAX_SAMPLE_ENTRIES_LOG2 or samples > 2 ** (MAX_SAMPLE_ENTRIES_LOG2 - d):
        raise UsageError(f"counterexample search: budget * 2^d = {samples} * 2^{d} entries "
                         f"exceeds the cap of 2^{MAX_SAMPLE_ENTRIES_LOG2}")
    bound = extremal_ratio(d)
    stack = _sample_rank_two_stack(rng_for(cfg.seed, 6, d), samples, d)
    ratios = _screen_ratios(stack, bound, cfg.seed, cfg.starts)
    worst_idx = int(np.argmin(ratios))
    worst = float(ratios[worst_idx])
    worst_entries = stack[worst_idx].ravel().tolist()
    found = int(np.count_nonzero(ratios < bound - 1e-9))
    return {
        "target": "counterexample-nonsym",
        "d": d,
        "samples": samples,
        "bound_ratio": bound,
        "min_ratio_observed": worst,
        "counterexamples_found": found,
        "worst_entries": worst_entries,
    }
