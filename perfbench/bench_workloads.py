"""The benchmark's workloads: seeded request lists for `tensorratio.cli.main`.

Each workload is a closed loop with one client.  A run repeats rounds; round
r is generated from the run seed and r alone, so the same seed gives the same
requests.  Every budget, start count, order and seed is passed explicitly,
and no request uses `--jobs` or `search --tol`.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import bench_checks as checks


@dataclass
class Request:
    argv: list
    cases: int                         # checked claims the request verifies
    check: Callable[[object], object]  # parsed stdout -> None or a reason
    latency: bool = True               # enters the latency percentiles


def request_seed(seed: int, r: int, k: int) -> int:
    """Seed of the k-th request of round r: distinct across rounds and runs."""
    return seed * 100_000 + r * 100 + k


WARMUP_ROUND = 999


# Campaign rounds repeat a suite under several seeds rather than raising one
# request's budget, so a run averages the seed-dependent cost of many
# requests, and most requests take about the same time, which keeps the
# latency percentiles inside one cluster.

# ---------------------------------------------------------------------------
# sym-campaign
# ---------------------------------------------------------------------------

# (suite, budget, requests per round).  Each suite runs 8% of its default
# budget (thm1-bound 10,000 per order, border-scan 201 steps, the others
# 1,000), so its share of the round is its share of `verify all`'s time on
# the six symmetric suites: thm1-bound 53%, prop-equal 20%, prop-sum 13%,
# prop-unique 8%, lemma-roots 6%, border-scan 0.6%.  The repeat counts cut
# that work into requests of 0.4 to 0.6 s; border-scan's single request is
# the one short outlier.
SYM_ROUND = (("thm1-bound", 100, 8), ("prop-sum", 40, 2), ("prop-equal", 27, 3),
             ("prop-unique", 80, 1), ("lemma-roots", 80, 1), ("border-scan", 16, 1))
SYM_TINY = (("thm1-bound", 4, 1), ("prop-sum", 2, 1), ("prop-equal", 2, 1),
            ("prop-unique", 2, 1), ("lemma-roots", 2, 1), ("border-scan", 2, 1))


def _verify(suite: str, budget: int, seed: int) -> Request:
    cases = checks.expected_cases(suite, seed, budget)
    return Request(
        argv=["verify", suite, "--budget", str(budget), "--seed", str(seed), "--out", "json"],
        cases=cases[0],
        check=lambda out: checks.check_verify(out, suite, cases),
    )


def _repeat(seed: int, r: int, plan, make) -> list:
    reqs = []
    for name, budget, times in plan:
        for _ in range(times):
            reqs.append(make(name, budget, request_seed(seed, r, len(reqs))))
    return reqs


def sym_campaign(seed: int, r: int, workdir: Path, tiny: bool) -> list:
    return _repeat(seed, r, SYM_TINY if tiny else SYM_ROUND, _verify)


# ---------------------------------------------------------------------------
# t3-campaign
# ---------------------------------------------------------------------------

# The feasible-region scan costs about a second at any budget (its
# Nelder-Mead polish is fixed), so it runs once per round and not in warm-up.
# A batched ALS screen runs as many sweeps as its slowest tensor needs; at 300
# tensors nearly every batch reaches the sweep cap, so its cost stops
# depending on the seed.  The order-4 search runs single-tensor ALS per
# sample, and its cost swings fourfold between seeds (50 to 190 ms at budget
# 20; 0.6 to 2.8 s at 150), so it counts in cases_per_s but not in the
# latency percentiles, which then fall inside one cluster of requests of
# about a second (kkt-region 1.2 to 1.7 s).
T3_ROUND = (("thm3-bound", 300, 2), ("kkt-region", 40_000, 1),
            ("nonsym-3", 300, 1), ("nonsym-4", 20, 2))
T3_TINY = (("thm3-bound", 8, 1), ("kkt-region", 1000, 1),
           ("nonsym-3", 8, 1), ("nonsym-4", 2, 1))
NONSYM_STARTS = 8


def _t3_request(name: str, budget: int, seed: int) -> Request:
    if not name.startswith("nonsym-"):
        return _verify(name, budget, seed)
    d = int(name[-1])
    return Request(
        argv=["search", "counterexample-nonsym", "--d", str(d), "--budget", str(budget),
              "--starts", str(NONSYM_STARTS), "--seed", str(seed)],
        cases=budget,
        check=lambda out: checks.check_counterexample_search(out, d, budget),
        latency=d == 3,
    )


def t3_campaign(seed: int, r: int, workdir: Path, tiny: bool) -> list:
    plan = T3_TINY if tiny else T3_ROUND
    if r == WARMUP_ROUND:
        plan = [p for p in plan if p[0] != "kkt-region"]
    return _repeat(seed, r, plan, _t3_request)


# ---------------------------------------------------------------------------
# interactive
# ---------------------------------------------------------------------------

POWER_STARTS = 8
POWER_MAX_ITERS = 10_000
SEARCH_BUDGET = 2000
SEARCH_BUDGET_TINY = 600   # the smallest budget that still reaches the bound gap
SEARCH_STARTS = 16
SEARCH_ORDERS = (3, 4, 5)


def _exponents(dim: int, order: int):
    for c in itertools.combinations_with_replacement(range(dim), order):
        yield tuple(c.count(i) for i in range(dim))


def odeco_tensor(rng: np.random.Generator, order: int) -> tuple[dict, float]:
    """Orthogonally decomposable sum_i lam_i q_i^order over R^3, and its ratio.

    For order >= 3 the spectral norm is max |lam_i| and the Frobenius norm is
    ||lam||, so the exact ratio bounds what power iteration may report.  The
    family keeps per-request cost steady across seeds: only the frame and the
    weights vary, not the shape of the landscape.
    """
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    lam = rng.uniform(0.5, 1.0, 3) * rng.choice([-1.0, 1.0], 3)
    coeffs = []
    for e in _exponents(3, order):
        value = float(sum(l * np.prod(q[:, i] ** np.array(e)) for i, l in enumerate(lam)))
        coeffs.append({"exp": list(e), "value": value})
    exact = float(np.max(np.abs(lam)) / np.linalg.norm(lam))
    return {"order": order, "dim": 3, "coeffs": coeffs}, exact


def dense_222(rng: np.random.Generator, rank_two: bool) -> dict:
    if rank_two:
        f = rng.standard_normal((6, 2))
        t = (np.einsum("i,j,k->ijk", f[0], f[1], f[2])
             + np.einsum("i,j,k->ijk", f[3], f[4], f[5]))
    else:
        t = rng.standard_normal((2, 2, 2))
    return {"dims": [2, 2, 2], "entries": t.ravel().tolist()}


def _report(spec: str, seed: int, check) -> Request:
    return Request(
        argv=["report", spec, "--starts", str(POWER_STARTS), "--max-iters",
              str(POWER_MAX_ITERS), "--seed", str(seed), "--out", "json"],
        cases=1, check=check,
    )


def _cheap_binary(rng: np.random.Generator, kind: int, seed: int) -> Request:
    """wd:, ranktwo: and border: builtins of low order: mostly CLI overhead."""
    if kind == 0:
        d = int(rng.integers(3, 13))
        return _report(f"wd:{d}", seed, lambda out: checks.check_report_wd(out, d))
    d = int(rng.integers(3, 9))
    if kind == 1:
        alpha = float(np.exp(rng.normal(0.0, 0.5)))
        beta = float(np.exp(rng.normal(0.0, 0.5))) * float(rng.choice([-1.0, 1.0]))
        c = float(rng.uniform(-0.9, 0.9))
        spec = f"ranktwo:{alpha!r},{beta!r},{c!r},{d}"
        expected = checks.rank_two_oracle(alpha, beta, c, d)
    else:
        a, b = float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.05, 1.0))
        spec = f"border:{a!r},{b!r},{d}"
        expected = checks.border_oracle(a, b, d)
    return _report(spec, seed, lambda out: checks.check_report_oracle(out, spec, expected, d))


def _write(workdir: Path, name: str, data: dict) -> str:
    path = workdir / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def _search(d: int, budget: int, seed: int) -> Request:
    return Request(
        argv=["search", "min-ratio-sym", "--d", str(d), "--budget", str(budget),
              "--starts", str(SEARCH_STARTS), "--seed", str(seed)],
        cases=1,
        check=lambda out: checks.check_min_ratio_search(out, d),
        latency=False,
    )


def interactive(seed: int, r: int, workdir: Path, tiny: bool) -> list:
    """One terminal session: a shuffled report mix, then the search set.

    The mix keeps cheap binary builtins a majority, so the median report is
    CLI overhead, and puts the dim-3 power reports (one in six) in the tail.
    """
    s = request_seed(seed, r, 0)
    rng = np.random.default_rng(np.random.SeedSequence([seed, r, 3]))
    counts = (3, 1, 1, 2) if tiny else (24, 4, 8, 8)
    reqs = [_cheap_binary(rng, i % 3, s) for i in range(counts[0])]
    for i in range(counts[1]):
        d = 300 if i == 0 else int(rng.integers(100, 300))
        reqs.append(_report(f"wd:{d}", s, lambda out, d=d: checks.check_report_wd(out, d)))
    for i in range(counts[2]):
        data, exact = odeco_tensor(rng, 3 + i % 2)
        path = _write(workdir, f"r{r}-sym{i}.json", data)
        reqs.append(_report(path, s, lambda out, p=path, x=exact:
                            checks.check_report_heuristic(out, p, upper=x)))
    for i in range(counts[3]):
        rank_two = i % 2 == 0
        path = _write(workdir, f"r{r}-t3{i}.json", dense_222(rng, rank_two))
        lower = 2.0 / 3.0 - checks.BOUND_SLACK if rank_two else 0.0
        reqs.append(_report(path, s, lambda out, p=path, lo=lower:
                            checks.check_report_heuristic(out, p, lower=lo)))
    order = rng.permutation(len(reqs))
    reqs = [reqs[i] for i in order]
    orders = SEARCH_ORDERS[:1] if tiny else SEARCH_ORDERS
    budget = SEARCH_BUDGET_TINY if tiny else SEARCH_BUDGET
    return reqs + [_search(d, budget, s) for d in orders]


WORKLOADS = {
    "sym-campaign": sym_campaign,
    "t3-campaign": t3_campaign,
    "interactive": interactive,
}
