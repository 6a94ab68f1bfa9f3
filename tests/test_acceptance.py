"""Acceptance gate: every numbered criterion at its stated tolerance.

Each test prints one pass/fail line (visible with pytest -s; failures carry
the same label).  Random streams are fixed, so reruns are bit-identical.
"""

import math
import time

import numpy as np

from conftest import circle_grid_max, dense_pow, random_binary
from tensorratio.config import SearchConfig
from tensorratio.harness import rng_for, run_suite, sample_rank_two_charts
from tensorratio.ranktwo import (
    RankTwoParams,
    canonical_params,
    extremal_ratio,
    extremal_tensor,
    min_ratio_search,
    project_pair,
    ratio_squared,
    ratio_squared_grad,
)
from tensorratio.spectral import binary_coeffs, ratio, relative_distance, spectral_norm_binary
from tensorratio.symtensor import frob_norm
from tensorratio.tensor3 import (
    NormalForm222,
    Tensor3,
    embed_normal_form,
    feasible_max_scan,
    hyperdet,
    normal_form_feasible,
)


def _report(num, ok, detail=""):
    line = f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'}" + (f"  ({detail})" if detail else "")
    print(line)
    assert ok, line


def test_criterion_01_extremal_exactness():
    start = time.perf_counter()
    worst_ratio = worst_frob = 0.0
    for d in range(3, 13):
        W = extremal_tensor(d)
        worst_ratio = max(worst_ratio, abs(ratio(W) - extremal_ratio(d)))
        worst_frob = max(worst_frob, abs(frob_norm(W) - math.sqrt(d)))
    elapsed = time.perf_counter() - start
    _report(
        1,
        worst_ratio <= 1e-10 and worst_frob <= 1e-12 and elapsed < 1.0,
        f"ratio dev {worst_ratio:.1e}, frob dev {worst_frob:.1e}, {elapsed:.2f}s",
    )


def test_criterion_02_binary_solver_vs_grid_oracle():
    start = time.perf_counter()
    rng = rng_for(0, 102)
    worst_above = worst_below = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 9))
        A = random_binary(rng, d)
        value = spectral_norm_binary(A).value
        grid = circle_grid_max(binary_coeffs(A), 1_000_000)
        worst_above = max(worst_above, value - grid)
        worst_below = max(worst_below, grid - value)
    elapsed = time.perf_counter() - start
    _report(
        2,
        worst_above <= 1e-6 and worst_below <= 1e-9 and elapsed < 30.0,
        f"above grid {worst_above:.1e}, below grid {worst_below:.1e}, {elapsed:.1f}s",
    )


def test_criterion_03_rank_two_bound_falsification():
    start = time.perf_counter()
    suite = run_suite("thm1-bound", seed=0, budget=10_000)
    search_ok = True
    details = []
    for d in (3, 4, 5, 6):
        res = min_ratio_search(d, SearchConfig(seed=d))
        bound = extremal_ratio(d)
        search_ok &= bound - 1e-9 < res.ratio <= bound + 5e-3
        details.append(f"d={d}:{res.ratio - bound:.1e}")
    elapsed = time.perf_counter() - start
    _report(
        3,
        suite.passed and search_ok and elapsed < 300.0,
        f"{suite.cases} samples, search gaps {' '.join(details)}, {elapsed:.0f}s",
    )


def test_criterion_04_unique_maximizer():
    suite = run_suite("prop-unique", seed=0, budget=1_000)
    _report(4, suite.passed, f"{suite.cases} samples, {len(suite.failures)} failures")


def test_criterion_05_root_count_law():
    suite = run_suite("lemma-roots", seed=0, budget=1_000)
    _report(5, suite.passed, f"{suite.cases} samples")


def test_criterion_06_sum_case_bound():
    suite = run_suite("prop-sum", seed=0, budget=1_000)
    _report(6, suite.passed, f"{suite.cases} samples")


def test_criterion_07_equal_case():
    suite = run_suite("prop-equal", seed=0, budget=1_000)
    _report(7, suite.passed, f"{suite.cases} checks")


def test_criterion_08_border_scan():
    suite = run_suite("border-scan", seed=0, budget=201)
    _report(8, suite.passed, f"{suite.cases} grid checks")


def test_criterion_09_gradient_correctness():
    rng = rng_for(0, 109)
    h = 1e-6
    worst = 0.0
    min_norm = math.inf
    checked = 0
    while checked < 50:
        d = int(rng.integers(3, 7))
        dim = 3 if checked % 5 == 4 else 2
        [(alpha, beta, theta)] = sample_rank_two_charts(rng, 1, case="generic").tolist()
        # a random orientation in R^2: the chart rotated by a random angle
        phi = rng.uniform(0.0, 2.0 * math.pi)
        p2 = RankTwoParams(alpha, beta, np.array([math.cos(phi), math.sin(phi)]),
                           np.array([math.cos(phi + theta), math.sin(phi + theta)]))
        uv = math.cos(theta)
        # conditioning: away from the rank-one and equal-coefficient
        # degeneracies, where central differences stop being informative
        if not 0.05 < uv < 0.95 or beta < 0.05 * alpha or beta > 0.95 * alpha:
            continue
        if dim == 3:
            q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
            u3 = q @ np.append(p2.u, 0.0)
            v3 = q @ np.append(p2.v, 0.0)
            p = canonical_params(p2.alpha, p2.beta, u3, v3, d)
        else:
            p = p2
        g = ratio_squared_grad(p, d)
        tu = rng.standard_normal(dim)
        tu -= (tu @ p.u) * p.u
        tu /= np.linalg.norm(tu)
        tv = rng.standard_normal(dim)
        tv -= (tv @ p.v) * p.v
        tv /= np.linalg.norm(tv)

        def value(alpha, beta, uu, vv):
            return ratio_squared(RankTwoParams(alpha, beta, uu, vv), d)

        def normalized(x):
            return x / np.linalg.norm(x)

        fd = np.array(
            [
                (value(p.alpha + h, p.beta, p.u, p.v) - value(p.alpha - h, p.beta, p.u, p.v)) / (2 * h),
                (value(p.alpha, p.beta + h, p.u, p.v) - value(p.alpha, p.beta - h, p.u, p.v)) / (2 * h),
                (value(p.alpha, p.beta, normalized(p.u + h * tu), p.v)
                 - value(p.alpha, p.beta, normalized(p.u - h * tu), p.v)) / (2 * h),
                (value(p.alpha, p.beta, p.u, normalized(p.v + h * tv))
                 - value(p.alpha, p.beta, p.u, normalized(p.v - h * tv))) / (2 * h),
            ]
        )
        analytic = np.array([g.d_alpha, g.d_beta, float(g.d_u @ tu), float(g.d_v @ tv)])
        worst = max(worst, np.linalg.norm(fd - analytic) / np.linalg.norm(analytic))
        min_norm = min(min_norm, g.norm())
        checked += 1
    _report(9, worst < 1e-5 and min_norm > 0.0, f"worst rel err {worst:.1e}, min |grad| {min_norm:.2e}")


def test_criterion_10_projection_formula():
    rng = rng_for(0, 110)
    worst = 0.0
    checked = 0
    while checked < 100:
        n = int(rng.integers(2, 6))
        d = int(rng.integers(2, 7))
        u = rng.standard_normal(n)
        u /= np.linalg.norm(u)
        v = rng.standard_normal(n)
        v /= np.linalg.norm(v)
        if abs(u @ v) > 0.99:
            continue
        w = rng.standard_normal(n)
        a, b, _ = project_pair(u, v, w, d)
        basis = [np.multiply.outer(dense_pow(u, d - 1), np.eye(n)[i]).ravel() for i in range(n)]
        basis += [np.multiply.outer(dense_pow(v, d - 1), np.eye(n)[i]).ravel() for i in range(n)]
        coef, *_ = np.linalg.lstsq(np.column_stack(basis), dense_pow(w, d).ravel(), rcond=None)
        scale = max(1.0, np.linalg.norm(coef))
        dev = max(
            np.linalg.norm(coef[:n] - a * w),
            np.linalg.norm(coef[n:] - b * w),
        )
        worst = max(worst, dev / scale)
        checked += 1
    _report(10, worst < 1e-10, f"worst oracle dev {worst:.1e}")


def test_criterion_11_third_order_bound():
    suite = run_suite("thm3-bound", seed=0, budget=10_000)
    scan = feasible_max_scan(SearchConfig(budget=1_000_000, seed=0))
    scan_ok = abs(scan.value - 2.25) <= 1e-4 and scan.boundary
    _report(
        11,
        suite.passed and scan_ok,
        f"{suite.cases} samples, feasible max {scan.value:.6f} boundary={scan.boundary}",
    )


def test_criterion_12_hyperdet_consistency():
    rng = rng_for(0, 112)
    sign_ok = True
    checked = 0
    while checked < 10_000:
        a, b, c, d = rng.uniform(-1, 1, size=4)
        if not normal_form_feasible(a, b, c, d):
            continue
        nf = NormalForm222(a, b, c, d)
        hd = hyperdet(embed_normal_form(nf))
        crit = nf.rank_two_criterion()
        if np.sign(hd) != np.sign(crit) and abs(hd - crit) > 1e-12:
            sign_ok = False
        checked += 1
    worst_rank_one = 0.0
    for _ in range(1_000):
        factors = [rng.standard_normal(2) for _ in range(3)]
        factors = [f / np.linalg.norm(f) for f in factors]
        T = np.einsum("i,j,k->ijk", *factors)
        worst_rank_one = max(worst_rank_one, abs(hyperdet(Tensor3(T))))
    _report(
        12,
        sign_ok and worst_rank_one < 1e-12,
        f"10^4 sign agreements, rank-one |det| max {worst_rank_one:.1e}",
    )


def test_criterion_13_limit_behavior():
    ratios = []
    dists = []
    for d in range(3, 41):
        W = extremal_tensor(d)
        ratios.append(ratio(W))
        dists.append(relative_distance(W))
    decreasing = all(b < a for a, b in zip(ratios, ratios[1:]))
    increasing = all(b > a for a, b in zip(dists, dists[1:]))
    near_limit = abs(ratios[-1] - 1 / math.sqrt(math.e)) < 0.01
    dist_below = dists[-1] < math.sqrt(1 - 1 / math.e)
    _report(
        13,
        decreasing and increasing and near_limit and dist_below,
        f"ratio(40)={ratios[-1]:.4f} vs {1/math.sqrt(math.e):.4f}",
    )
