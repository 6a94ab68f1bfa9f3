import contextlib
import dataclasses
import functools
import io
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import tensorratio.cli as cli
import tensorratio.harness as harness
import tensorratio.ranktwo as ranktwo
import tensorratio.spectral as spectral
from tensorratio.cli import main
from tensorratio.config import IterConfig, SearchConfig
from tensorratio.harness import (
    SUITES,
    SuiteResult,
    UsageError,
    parse_tensor_spec,
    report_for,
    rng_for,
    run_suite,
    sample_rank_two_charts,
    search_counterexample,
    search_min_ratio,
    sweep_rows,
)
from tensorratio.ranktwo import canonical_params, extremal_ratio, extremal_ratio_sq
from tensorratio.rootfind import real_roots_batch
from tensorratio.symtensor import SymTensor, exponent_tuples, frob_norm, sym_rank_one
from tensorratio.tensor3 import ALS_CONFIG, Tensor3, als_spectral_norm


def test_parse_builtin_grammar():
    W = parse_tensor_spec("wd:4")
    assert isinstance(W, SymTensor) and W.order == 4
    A = parse_tensor_spec("ranktwo:2,1,0.3,3")
    assert isinstance(A, SymTensor) and A.order == 3
    B = parse_tensor_spec("border:0.5,0.3,5")
    assert isinstance(B, SymTensor) and B.order == 5
    for bad in ["wd:x", "wd:1", "ranktwo:1,2,3", "ranktwo:1,1,2,3", "border:a,b,3",
                "no/such/file.json", "ranktwo:1,0,0.5,3"]:
        with pytest.raises(UsageError):
            parse_tensor_spec(bad)


def test_parse_tensor_files(tmp_path):
    sym = tmp_path / "sym.json"
    sym.write_text(json.dumps({"order": 3, "dim": 2, "coeffs": [{"exp": [2, 1], "value": 1.0}]}))
    A = parse_tensor_spec(str(sym))
    assert isinstance(A, SymTensor)
    assert A.coeff((2, 1)) == 1.0

    t3 = tmp_path / "t3.json"
    t3.write_text(json.dumps({"dims": [2, 2, 2], "entries": [0, 0, 0, 1, 0, 1, 1, 0]}))
    T = parse_tensor_spec(str(t3))
    assert isinstance(T, Tensor3)

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(UsageError):
        parse_tensor_spec(str(bad))
    other = tmp_path / "other.json"
    other.write_text(json.dumps({"foo": 1}))
    with pytest.raises(UsageError):
        parse_tensor_spec(str(other))


def test_report_invariants():
    for spec in ["wd:3", "wd:4", "ranktwo:2,1,0.3,3", "border:0.6,0.2,4"]:
        rep = report_for(parse_tensor_spec(spec), spec)
        assert 0.0 < rep.ratio <= 1.0
        assert 0.0 <= rep.relative_distance < 1.0
        assert rep.ratio**2 + rep.relative_distance**2 == pytest.approx(1.0, abs=1e-12)
    rep = report_for(parse_tensor_spec("wd:3"), "wd:3")
    assert rep.method == "exact_binary"
    assert rep.ratio == pytest.approx(2 / 3, rel=1e-12)
    assert rep.relative_distance == pytest.approx(math.sqrt(5) / 3, rel=1e-12)


def test_report_tensor3(tmp_path):
    t3 = tmp_path / "w3.json"
    t3.write_text(json.dumps({"dims": [2, 2, 2], "entries": [0, 1, 1, 0, 1, 0, 0, 0]}))
    rep = report_for(parse_tensor_spec(str(t3)), "w3")
    assert rep.method == "als"
    assert rep.ratio == pytest.approx(2 / 3, abs=1e-8)


def test_sampler_cases():
    for case in (None, "sum", "generic"):
        for d in (3, 4, 7):
            rows = sample_rank_two_charts(rng_for(3, d), 200, case)
            assert rows.shape == (200, 3)
            alpha, beta, theta = rows.T
            assert np.all((1e-5 <= theta) & (theta <= math.pi / 2))
            assert np.all(alpha > 0.0) and np.all(beta != 0.0)
            positive = beta > 0.0
            assert np.all(alpha[positive] >= beta[positive])
            if case is None:
                assert positive.any() and not positive.all()
            elif case == "sum":
                assert not positive.any()
            else:
                assert positive.all() and np.all(alpha > beta * (1.0 + 1e-6))
            # Every row is canonical.  (cos theta, sin theta) has unit norm to
            # roundoff only, so canonical_params may move beta by an ulp per order.
            for a, b, t in rows[:50].tolist():
                p = canonical_params(a, b, [1.0, 0.0], [math.cos(t), math.sin(t)], d)
                assert p.alpha == a and p.beta == pytest.approx(b, rel=1e-14)
                assert np.array_equal(p.u, [1.0, 0.0])
                assert float(p.u @ p.v) == pytest.approx(math.cos(t), rel=1e-14)
    with pytest.raises(ValueError):
        sample_rank_two_charts(rng_for(3), 5, "equal")


def test_sampler_draw_order():
    # The documented order, replayed: the angles, the (m, 2) exponents, and
    # under case None the sign uniforms.
    for case in (None, "sum"):
        rng = rng_for(5, 9)
        theta = rng.uniform(1e-5, 0.5 * math.pi, 30)
        alpha, beta = np.exp(rng.standard_normal((30, 2))).T
        if case is None:
            beta = np.where(rng.random(30) < 0.5, beta, -beta)
        else:
            beta = -beta
        swap = beta > alpha
        expected = np.column_stack([np.where(swap, beta, alpha), np.where(swap, alpha, beta), theta])
        assert np.array_equal(sample_rank_two_charts(rng_for(5, 9), 30, case), expected)


class _TiedFirstDraw:
    """A generator whose first normal draw ties the magnitudes of every even row."""

    def __init__(self, rng):
        self.rng = rng
        self.first = None

    def __getattr__(self, name):
        return getattr(self.rng, name)

    def standard_normal(self, size):
        out = self.rng.standard_normal(size)
        if self.first is None:
            out[::2] = 0.3
            self.first = out.copy()
        return out


def test_sampler_redraws_tied_generic_rows():
    stub = _TiedFirstDraw(rng_for(0, 4))
    rows = sample_rank_two_charts(stub, 11, "generic")
    assert rows.shape == (11, 3)
    alpha, beta, _ = rows.T
    assert np.all(alpha > beta * (1.0 + 1e-6)) and np.all(beta > 0.0)
    # The untied rows keep their first draw.
    first = np.sort(np.exp(stub.first)[1::2], axis=1)[:, ::-1]
    assert np.array_equal(rows[1::2, :2], first)


def test_rng_for_is_stable():
    a = rng_for(7, 1, 3).standard_normal(4)
    b = rng_for(7, 1, 3).standard_normal(4)
    c = rng_for(7, 1, 4).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_run_suite_unknown():
    with pytest.raises(UsageError):
        run_suite("does-not-exist")


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suites_pass_at_small_budget(name):
    budget = {"thm3-bound": 400, "kkt-region": 200_000}.get(name, 50)
    res = run_suite(name, seed=0, budget=budget)
    assert res.passed, res.failures[:3]
    assert res.cases > 0
    assert res.seconds > 0
    data = res.to_json_dict()
    margins = {"margins"} if name in _MARGIN_BOUNDS or name == "thm3-bound" else set()
    assert set(data) == {"suite", "cases", "failures", "passed", "seed"} | margins


# Exact case count of each symmetric suite at budget b; the benchmark
# requires these counts exactly.
_CASES = {
    "thm1-bound": lambda b: 4 * b,
    "prop-sum": lambda b: 6 * b,
    "prop-unique": lambda b: 5 * b,
    "prop-equal": lambda b: 6 * (b + 2),
    "lemma-roots": lambda b: 6 * b,
    "border-scan": lambda b: 6 * (b + 1),
}


class _Scan:
    """A feasible-region scan result that fails every kkt-region check."""
    value, boundary, criterion_at_argmax = 3.0, False, 0.5


def _half_values(rows, d):
    maxima, one_minus_cd, fro_sq = ranktwo.chart_batch(rows, d)
    return maxima._replace(values=maxima.values / 2), one_minus_cd, fro_sq


def _counts_plus_one(rows, d):
    maxima, one_minus_cd, fro_sq = ranktwo.chart_batch(rows, d)
    return maxima._replace(counts=maxima.counts + 1), one_minus_cd, fro_sq


# Per suite: the names it solves with, patched so that every check fails; the
# budget; the number of failures at that budget; and the keys of each kind of
# failure record.
_FAILING = {
    "thm1-bound": ({"extremal_ratio_sq": lambda d: 2.0}, 10, 40,
                   [{"d", "F", "bound", "alpha", "beta", "uv"}]),
    "prop-sum": ({"chart_batch": _half_values}, 10, 60, [{"d", "F", "alpha", "beta"}]),
    "prop-equal": ({"extremal_ratio_sq": lambda d: 2.0, "equal_diff_ratio_lb": lambda d, t: 0.0},
                   5, 42, [{"d", "t", "F", "bound"}, {"d", "check"}]),
    "lemma-roots": ({"critical_equation_roots_batch":
                     lambda rows, ds: (None, ranktwo.critical_equation_roots_batch(rows, ds)[1] + 1)},
                    10, 60, [{"d", "a", "b", "gamma", "count", "expected"}]),
    "prop-unique": ({"chart_batch": _counts_plus_one}, 10, 50,
                    [{"d", "count", "alpha", "beta", "uv"}]),
    "border-scan": ({"extremal_ratio": lambda d: 2.0}, 10, 60,
                    [{"d", "ratio", "check", "bound"}, {"d", "ratio", "a", "lb_interior", "lb_axis"}]),
    "thm3-bound": ({"_screen_ratios": lambda stack, bound, seed: np.zeros(len(stack)),
                    "ratio_3": lambda tensor, cfg: 0.5}, 5, 7,
                   [{"ratio", "entries"}, {"check", "ratio"}, {"check", "distance"}]),
    "kkt-region": ({"feasible_max_scan_batch": lambda cfg, margins: (_Scan, _Scan)}, 1, 3,
                   [{"check", "value"}, {"check", "criterion"}]),
}


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_failure_paths(name, monkeypatch, capsys):
    # Every check of the suite fails: each failure kind is recorded with its
    # keys, the records stop at the cap, and the result is JSON and exit 1.
    patches, budget, failing, kinds = _FAILING[name]
    for attr, fake in patches.items():
        monkeypatch.setattr(harness, attr, fake)
    res = run_suite(name, seed=0, budget=budget)
    assert not res.passed
    assert sorted(map(sorted, {frozenset(r) for r in res.failures})) == sorted(map(sorted, kinds))
    assert len(res.failures) == min(failing, harness.MAX_RECORDED_FAILURES)
    assert json.loads(json.dumps(res.to_json_dict()))["failures"] == res.failures
    monkeypatch.setattr(harness, "MAX_RECORDED_FAILURES", 2)
    assert len(run_suite(name, seed=0, budget=budget).failures) == 2
    capsys.readouterr()
    assert main(["verify", name, "--budget", str(budget)]) == 1
    assert json.loads(capsys.readouterr().out)["passed"] is False


def test_suite_case_counts_are_exact():
    for seed in (0, 13):
        for name, count in _CASES.items():
            for budget in (1, 3, 50):
                res = run_suite(name, seed, budget)
                assert (res.cases, res.passed) == (count(budget), True), (name, seed, budget)


def test_symmetric_suites_pass_across_request_seeds():
    # sym-campaign's budgets at request seeds of its form (run seed * 100000
    # + round * 100 + request): a seed-dependent failure of the stacked solve
    # shows here, not first in a long benchmark run.
    budgets = {"thm1-bound": 100, "prop-sum": 40, "prop-equal": 27, "prop-unique": 80,
               "lemma-roots": 80, "border-scan": 16}
    seeds = [s * 100_000 + r * 100 + k for s in (0, 7) for r in (0, 1) for k in range(5)]
    # lemma-roots once counted a straggling Newton seed as a root at this seed;
    # its rows are drawn as arrays now and no longer reach that row, which
    # test_capped_seed_folds_into_its_root pins instead.
    seeds.append(320_007_214)
    for seed in seeds:
        for name, budget in budgets.items():
            res = run_suite(name, seed, budget)
            assert (res.cases, res.failures) == (_CASES[name](budget), []), (name, seed)


# The suites that report margins: their orders and the bound of each order.
_MARGIN_BOUNDS = {
    "thm1-bound": (range(3, 7), extremal_ratio_sq),
    "prop-sum": (range(3, 9), lambda d: 0.5),
    "prop-equal": (range(3, 9), extremal_ratio_sq),
    "border-scan": (range(3, 9), extremal_ratio),
}


def _margin_values(name, seed, budget, d):
    """The suite's value at each row of order d, solved one row at a time,
    with the row's witness fields."""
    if name == "border-scan":
        # The rows with a > 0: a = 0 is the equality case, checked apart.
        a = np.linspace(0.0, 1.0, budget)[1:].tolist()
        rows = [(x, math.sqrt(max(1.0 - x * x, 0.0) / d)) for x in a]
        values = [float(ranktwo.border_batch([row], d)[0].values[0]) for row in rows]
        return values, [{"a": x, "b": y, "ratio": v} for (x, y), v in zip(rows, values)]
    if name == "prop-equal":
        ts = np.geomspace(1e-4, 1.0, budget).tolist()
        rows, wit = [ranktwo.equal_diff_chart(d, t) for t in ts], [{"t": t} for t in ts]
    else:
        key, case = {"thm1-bound": (1, None), "prop-sum": (2, "sum")}[name]
        rows = sample_rank_two_charts(rng_for(seed, key, d), budget, case).tolist()
        wit = [{"alpha": a, "beta": b} | ({"uv": math.cos(t)} if name == "thm1-bound" else {})
               for a, b, t in rows]
    values = []
    for row in rows:
        maxima, _, fro_sq = ranktwo.chart_batch([row], d)
        values.append(float(maxima.values[0] ** 2 / fro_sq[0]))
    return values, [w | {"F": v} for w, v in zip(wit, values)]


def test_suite_margins_are_the_smallest_per_order():
    # Each order's margin is min(value - bound) over its rows, with the row
    # that attains it, recomputed here one row at a time.
    for name, (orders, bound) in _MARGIN_BOUNDS.items():
        for seed, budget in ((0, 30), (5, 7)):
            res = run_suite(name, seed, budget)
            assert [m["d"] for m in res.margins] == list(orders)
            for m, d in zip(res.margins, orders):
                values, wit = _margin_values(name, seed, budget, d)
                i = int(np.argmin([v - bound(d) for v in values]))
                assert m["margin"] == values[i] - bound(d)
                assert wit[i].items() <= m.items()
            data = json.loads(json.dumps(res.to_json_dict()))
            assert data["margins"] == res.margins


def _count_root_solves(monkeypatch) -> list:
    """Patch every caller's real_roots_batch to count its calls."""
    calls = []

    def counted(P):
        calls.append(len(P))
        return real_roots_batch(P)

    for module in (spectral, ranktwo):
        monkeypatch.setattr(module, "real_roots_batch", counted)
    return calls


def test_one_root_solve_per_request(monkeypatch):
    calls = _count_root_solves(monkeypatch)
    for name in _CASES:
        for budget in (1, 16):
            calls.clear()
            assert run_suite(name, 3, budget).passed
            assert len(calls) == 1, (name, budget, calls)
    for kind, kw in (("diff_t", {"d": 5, "steps": 40}), ("border_ab", {"d": 6, "steps": 40})):
        calls.clear()
        sweep_rows(kind, **kw)
        assert calls == [40], kind


def test_border_ab_at_high_order(capsys):
    # lb_interior once went through d^(d/2), which overflows from d = 256 on.
    assert main(["sweep", "border_ab", "--d", "300", "--steps", "21"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "a,b,ratio,lb_interior,lb_axis" and len(lines) == 22
    for line in lines[1:]:
        a, b, ratio, lb_interior, lb_axis = map(float, line.split(","))
        assert math.isfinite(lb_interior) and math.isfinite(lb_axis)
        assert lb_interior <= ratio + 1e-12 and lb_axis <= ratio + 1e-12


def test_diff_t_at_high_order(capsys):
    # family_lb once divided by d^(d/2), which overflows at d = 300.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["sweep", "diff_t", "--d", "300", "--steps", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "t,ratio_sq,family_lb,bound" and len(lines) == 4
    for line in lines[1:]:
        t, ratio_sq, family_lb, bound = map(float, line.split(","))
        assert 0.0 < family_lb <= ratio_sq + 1e-12 and bound < ratio_sq


def test_suite_result_invariant():
    ok = SuiteResult("x", 3, [])
    bad = SuiteResult("x", 3, [{"case": 1}])
    assert ok.passed and not bad.passed


def test_sweep_rows():
    header, rows = sweep_rows("border_ab", d=3, steps=11)
    assert header == ["a", "b", "ratio", "lb_interior", "lb_axis"]
    assert len(rows) == 11
    header, rows = sweep_rows("diff_t", d=4, steps=25, tmin=1e-4)
    assert header == ["t", "ratio_sq", "family_lb", "bound"]
    bound = (1 - 1 / 4) ** 3
    assert all(row[1] > bound for row in rows)
    assert all(row[2] <= row[1] + 1e-12 for row in rows)
    header, rows = sweep_rows("limit_d", dmin=3, dmax=12)
    ratios = [row[1] for row in rows]
    assert all(b < a for a, b in zip(ratios, ratios[1:]))
    with pytest.raises(UsageError):
        sweep_rows("nope")
    with pytest.raises(UsageError):
        sweep_rows("diff_t", d=4, steps=10, tmin=0.0)


def _cli(argv):
    """(exit code, stdout, stderr) of an in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_sweep_and_search_flags_are_read(tmp_path):
    # A flag that the sweep kind or search target does not read is a usage
    # error, not ignored: limit_d once printed d = 3..5 for --d 9 --dmax 5.
    trace = tmp_path / "trace.jsonl"
    trace.write_text("kept\n")
    for argv in (["sweep", "limit_d", "--d", "9", "--dmax", "5"],
                 ["sweep", "diff_t", "--dmax", "5"], ["sweep", "border_ab", "--tmin", "0.1"],
                 ["search", "counterexample-nonsym", "--budget", "5", "--trace", str(trace)]):
        assert _cli(argv)[:2] == (2, ""), argv
    assert trace.read_text() == "kept\n"
    with pytest.raises(UsageError):
        sweep_rows("limit_d", d=9)


def test_sweep_defaults_are_the_cli_defaults():
    # One table holds the defaults: the library call without parameters
    # prints what the CLI prints without flags.
    for kind in harness.SWEEPS:
        header, rows = sweep_rows(kind)
        csv = io.StringIO()
        cli._emit_csv(header, rows, csv)
        assert _cli(["sweep", kind])[:2] == (0, csv.getvalue()), kind
    # --out json holds the CSV's rows.
    code, text, _ = _cli(["sweep", "diff_t", "--d", "5", "--steps", "7", "--out", "json"])
    header, *rows = _cli(["sweep", "diff_t", "--d", "5", "--steps", "7"])[1].splitlines()
    assert code == 0
    assert json.loads(text) == [dict(zip(header.split(","), map(float, row.split(","))))
                                for row in rows]


def _joint_rank_two_stack(rng, m, d):
    """Both terms' order-d products as one (2, m, 2, ..., 2) array, then
    their sum: the reference construction of _sample_rank_two_stack."""
    uv = rng.standard_normal((2, d, m, 2))
    uv /= np.linalg.norm(uv, axis=-1, keepdims=True)
    stack = uv[:, 0]
    for mode in range(1, d):
        stack = stack[..., None] * uv[:, mode].reshape((2, m) + (1,) * mode + (2,))
    return stack[0] + stack[1]


def test_rank_two_stack_matches_the_joint_construction():
    for d in (2, 3, 4, 5, 8):
        for m in (1, 7, 300):
            got = harness._sample_rank_two_stack(rng_for(3, 6, d), m, d)
            want = _joint_rank_two_stack(rng_for(3, 6, d), m, d)
            assert got.shape == want.shape == (m,) + (2,) * d
            assert got.tobytes() == want.tobytes(), (d, m)


def test_search_min_ratio_report():
    rep, trace = search_min_ratio(3, SearchConfig(starts=10, budget=2000, seed=0))
    assert trace and {"start", "F", "alpha", "beta", "theta"} == set(trace[0])
    assert rep["best_ratio"] > rep["bound_ratio"]
    assert rep["best_ratio"] - rep["bound_ratio"] < 1e-3
    assert "not attained" in rep["note"]


def test_search_min_ratio_reports_the_squared_bound():
    # extremal_ratio(d) ** 2 differs from it by an ulp or two at every d from 5 to 12.
    for d in range(3, 13):
        rep, _ = search_min_ratio(d, SearchConfig(budget=1, seed=0))
        assert rep["bound_ratio_sq"] == extremal_ratio_sq(d)
        assert rep["bound_ratio"] == extremal_ratio(d)


def test_search_min_ratio_budget_ends_in_first_descent(monkeypatch):
    # The budget runs out before the first descent returns: the best start
    # evaluated so far is reported.
    for d, budget in [(3, 1), (12, 300)]:
        rep, _ = search_min_ratio(d, SearchConfig(budget=budget, seed=0))
        assert rep["budget_exhausted"] is True
        assert rep["evaluations"] == budget
        assert math.isfinite(rep["best_ratio_sq"])
        assert rep["best_ratio"] > rep["bound_ratio"]
    # With no finite evaluation at all there is nothing to report.
    def no_chart(*args):
        raise ValueError("no chart")

    monkeypatch.setattr(ranktwo, "chart_batch", no_chart)
    with pytest.raises(UsageError):
        search_min_ratio(3, SearchConfig(budget=20, seed=0))


def test_configs_reject_out_of_range_values():
    for kw in (dict(starts=-1), dict(max_iters=0), dict(max_iters=-3), dict(tol=-1e-3),
               dict(tol=math.nan), dict(tol=math.inf)):
        with pytest.raises(ValueError):
            IterConfig(**kw)
    for kw in (dict(starts=0), dict(starts=-4), dict(budget=0), dict(budget=-1)):
        with pytest.raises(ValueError):
            SearchConfig(**kw)
    IterConfig(starts=0, max_iters=1, tol=0.0)
    SearchConfig(starts=1, budget=1)


def test_search_counterexample_d3():
    rep = search_counterexample(3, SearchConfig(budget=300, seed=0))
    assert rep["counterexamples_found"] == 0
    assert rep["min_ratio_observed"] > rep["bound_ratio"] - 1e-9


def test_search_counterexample_d4():
    rep = search_counterexample(4, SearchConfig(budget=40, seed=0))
    assert rep["samples"] == 40
    # The documented draw order, replayed: from the stream with spawn key
    # (6, d), the unit factors u1..ud, then v1..vd, each an (m, 2) block.
    rng = np.random.default_rng(np.random.SeedSequence(entropy=0, spawn_key=(6, 4)))
    f = [rng.standard_normal((40, 2)) for _ in range(8)]
    f = [x / np.linalg.norm(x, axis=1, keepdims=True) for x in f]
    samples = np.einsum("mi,mj,mk,ml->mijkl", *f[:4]) + np.einsum("mi,mj,mk,ml->mijkl", *f[4:])
    assert any(s.ravel().tolist() == rep["worst_entries"] for s in samples)
    # Pinned bit for bit: every sample gets the same random ALS starts.
    assert rep["min_ratio_observed"] == 0.7019771537556813
    assert rep["counterexamples_found"] == 0
    with pytest.raises(UsageError):
        search_counterexample(2, SearchConfig(budget=10, seed=0))


def _screen(monkeypatch, stack, bound, seed, starts=harness.SCREEN_STARTS, exit=True):
    """harness._screen_ratios of stack with the results of each of its ALS
    calls; exit=False runs its screen without the exit, to convergence."""
    batch = harness.als_spectral_norm_batch
    calls = []

    def recorded(T, cfg, exit_ratio=None):
        calls.append(batch(T, cfg, exit_ratio if exit else None))
        return calls[-1]
    with monkeypatch.context() as patch:
        patch.setattr(harness, "als_spectral_norm_batch", recorded)
        ratios = harness._screen_ratios(stack, bound, seed, starts)
    return ratios, calls


def _left_early(results) -> np.ndarray:
    """Mask of the screen results that left before converging or the cap."""
    return np.array([not res.converged and res.sweeps < 400 for res in results])


def _near_bound_rows(d):
    """((e1 + eps e2)^d - e1^d) / eps at eps = 1e-3 and 1e-4: just above the
    bound, within the screen's 1e-3."""
    e1, e2 = np.eye(2)

    def power(x):
        return functools.reduce(np.multiply.outer, [x] * d)

    return [(power(e1 + eps * e2) - power(e1)) / eps for eps in (1e-3, 1e-4)]


@pytest.mark.parametrize("d", [3, 4])
def test_screen_rejudges_rows_near_the_bound(d, monkeypatch):
    # The two near-bound rows go to the full solver in one stacked call.  The
    # random rank-two rows sit far above: each keeps its converged screen
    # ratio or leaves the screen early with a lower bound on it.
    stack = np.concatenate([harness._sample_rank_two_stack(rng_for(0, 9, d), 6, d),
                            _near_bound_rows(d)])
    stack = stack[[0, 6, 1, 2, 3, 7, 4, 5]]
    bound = extremal_ratio(d)
    ratios, (screen, full) = _screen(monkeypatch, stack, bound, 3)
    assert [len(screen), len(full)] == [8, 2]
    fros = np.linalg.norm(stack.reshape(len(stack), -1), axis=1)
    converged = [res.value / fro for res, fro in zip(
        harness.als_spectral_norm_batch(stack, IterConfig(starts=8, tol=1e-12, max_iters=400, seed=3)),
        fros)]
    flagged = [r <= bound + 1e-3 for r in converged]
    assert flagged == [False, True, False, False, False, True, False, False]
    early = _left_early(screen)
    assert early.any()
    for T, fro, r, f, got, e in zip(stack, fros, converged, flagged, ratios, early):
        full = als_spectral_norm(T, dataclasses.replace(ALS_CONFIG, seed=3)).value / fro
        if f:
            assert got == max(r, full)
        elif e:  # a lower bound above the minimum
            assert min(converged) < got <= r + 1e-12 * (1.0 + r)
        else:
            assert got == r


def _sample_stack(d, m, seed):
    stack = harness._sample_rank_two_stack(rng_for(seed, 6, d), m, d)
    # Odd seeds add two rows just above the bound, which the re-judge revisits.
    return np.concatenate([stack, _near_bound_rows(d)]) if seed % 2 else stack


@pytest.mark.parametrize("d, m, starts", [(3, 300, 8), (4, 60, 8), (5, 40, 4)])
def test_screen_exit_keeps_what_a_full_screen_decides(d, m, starts, monkeypatch):
    # Against the same screen run to convergence: the same minimum and row,
    # the same rows below the bound and re-judged, the same ratio for every
    # row that did not leave early, and for every row that did a lower bound
    # on its converged ratio, up to ALS's monotonicity slack.
    bound = extremal_ratio(d)
    for seed in range(10):
        stack = _sample_stack(d, m, seed)
        got, (screen, full) = _screen(monkeypatch, stack, bound, seed, starts)
        ref, (ref_screen, ref_full) = _screen(monkeypatch, stack, bound, seed, starts, exit=False)
        assert (got.min(), got.argmin()) == (ref.min(), ref.argmin()), seed
        assert np.count_nonzero(got < bound - 1e-9) == np.count_nonzero(ref < bound - 1e-9)
        fros = np.linalg.norm(stack.reshape(len(stack), -1), axis=1)
        values = np.array([res.value for res in screen]) / fros
        ref_values = np.array([res.value for res in ref_screen]) / fros
        assert np.array_equal(values <= bound + 1e-3, ref_values <= bound + 1e-3)
        assert len(full) == len(ref_full) == np.count_nonzero(ref_values <= bound + 1e-3)
        early = _left_early(screen)
        assert early.any()
        assert np.array_equal(got[~early], ref[~early])
        assert np.all(got[early] > max(bound + 1e-3, ref.min()))
        assert np.all(got[early] <= ref[early] + 1e-12 * (1.0 + ref[early]))


def test_screen_exit_saves_sweeps(monkeypatch):
    # Tensor-sweeps of the screen at d = 3, 300 samples, seed 0: 10,348 when
    # every tensor runs to convergence or the 400-sweep cap, 1,954 with the
    # exit.  A change that loses the exit fails here.
    stack = harness._sample_rank_two_stack(rng_for(0, 6, 3), 300, 3)
    _, (screen, _) = _screen(monkeypatch, stack, extremal_ratio(3), 0)
    assert sum(res.sweeps for res in screen) < 4_000


def test_thm3_margin_is_the_full_screen_minimum(monkeypatch):
    # The exit keeps the screen's minimum exact, so thm3-bound's margin and
    # its witness are those of the screen run to convergence.
    for seed in range(5):
        res = run_suite("thm3-bound", seed, 300)
        stack = harness._sample_rank_two_stack(rng_for(seed, 5), 300, 3)
        stack = stack[harness.hyperdet_stack(stack) > 0.0]
        ref, _ = _screen(monkeypatch, stack, 2.0 / 3.0, seed, exit=False)
        i = int(np.argmin(ref))
        assert res.margins == [{"d": 3, "margin": ref[i] - 2.0 / 3.0, "ratio": ref[i],
                                "entries": stack[i].ravel().tolist()}]


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_report_json(capsys):
    assert main(["report", "wd:3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ratio"] == pytest.approx(2 / 3, rel=1e-12)
    assert out["method"] == "exact_binary"


def test_cli_report_provenance(tmp_path, capsys):
    # Every report says whether its value is exact and whether its solver
    # converged; power iteration adds its step count, ALS its sweep count.
    sym = tmp_path / "sym3.json"
    sym.write_text(json.dumps(sym_rank_one([0.6, 0.0, 0.8], 4).to_json_dict()))
    t3 = tmp_path / "t222.json"
    t3.write_text(json.dumps({"dims": [2, 2, 2], "entries": [1, 0, 0, 1, 0, 1, 1, 0]}))
    for spec, method, steps in [("wd:3", "exact_binary", set()), (str(sym), "power", {"iterations"}),
                                (str(t3), "als", {"sweeps"})]:
        assert main(["report", spec]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["method"] == method
        assert out["is_exact"] is (method == "exact_binary")
        assert out["converged"] is True
        assert set(out) & {"iterations", "sweeps"} == steps
        assert all(isinstance(out[k], int) and out[k] >= 1 for k in steps)


def test_cli_report_capped_rows(tmp_path, capsys):
    # capped_rows counts the power-iteration rows still moving at the step
    # cap: a random form crawls past --max-iters 3, a rank-one form stops
    # early with none.
    rng = np.random.default_rng(11)
    crawl = SymTensor(4, 3, {e: float(rng.standard_normal()) for e in exponent_tuples(3, 4)})
    for A, flags, capped in [(crawl, ["--max-iters", "3"], True),
                             (sym_rank_one([0.6, 0.0, 0.8], 4), [], False)]:
        path = tmp_path / "sym3.json"
        path.write_text(json.dumps(A.to_json_dict()))
        assert main(["report", str(path), *flags]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["method"] == "power"
        if capped:
            assert out["iterations"] == 3 and out["capped_rows"] > 0
        else:
            assert out["iterations"] < IterConfig().max_iters and out["capped_rows"] == 0
    assert main(["report", "wd:3"]) == 0
    assert "capped_rows" not in json.loads(capsys.readouterr().out)


def test_cli_report_tiny_tensor(tmp_path):
    # Entries of 1e-300 square to zero; the report still finds the ratio of
    # the same tensor at unit scale, on the binary, power and ALS routes, with
    # no warning.
    entries = np.array([1.0, 2.0, -0.5, 1.5, 0.25, -1.0, 3.0, 0.75]).reshape(2, 2, 2)
    for dim in (2, 3, "2x2x2"):
        ratios = []
        for scale in (1e-300, 1.0):
            if dim == "2x2x2":
                data = Tensor3(scale * entries).to_json_dict()
            else:
                data = SymTensor(3, dim, {e: scale for e in exponent_tuples(dim, 3)}).to_json_dict()
            path = tmp_path / f"tiny{dim}.json"
            path.write_text(json.dumps(data))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, out, err = _report([str(path)])
            assert (code, err) == (0, "")
            ratios.append(json.loads(out)["ratio"])
        assert math.isfinite(ratios[0]) and 0.0 < ratios[0] <= 1.0
        assert ratios[0] == pytest.approx(ratios[1], rel=1e-12)


def test_cli_report_csv(capsys):
    assert main(["report", "wd:4", "--out", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("input,method,spectral_norm")
    assert len(lines) == 2


def test_cli_exit_codes(capsys, monkeypatch, tmp_path):
    assert main(["report", "wd:not-a-number"]) == 2
    assert main(["verify", "unknown-suite"]) == 2
    assert main(["bogus-command"]) == 2
    assert main(["report"]) == 2
    assert main(["report", "wd:3", "--jobs", "0"]) == 2
    # each subcommand accepts only the shared flags it reads
    assert main(["search", "min-ratio-sym", "--tol", "1e-3"]) == 2
    assert main(["sweep", "border_ab", "--seed", "1"]) == 2
    # a budget below 1 would check nothing; --budget 0 used to mean the default
    for flags in (["verify", "thm1-bound", "--budget", "-3"], ["verify", "prop-sum", "--budget", "0"],
                  ["search", "min-ratio-sym", "--budget", "0"], ["verify", "all", "--budget", "x"]):
        assert main(flags) == 2
    assert main(["search", "min-ratio-sym", "--d", "2"]) == 2
    # a negative seed is a usage error for every command that reads --seed
    capsys.readouterr()
    for flags in (["verify", "prop-sum", "--budget", "5", "--seed", "-1"],
                  ["search", "counterexample-nonsym", "--d", "3", "--budget", "5", "--seed", "-1"],
                  ["search", "min-ratio-sym", "--seed", "-1"], ["report", "wd:3", "--seed", "-1"]):
        assert (main(flags), capsys.readouterr().out) == (2, ""), flags
    # iteration flags out of range: --starts and --max-iters >= 1, --tol finite and >= 0
    for flags in (["report", "wd:3", "--starts", "-1"], ["report", "wd:3", "--starts", "0"],
                  ["report", "wd:3", "--max-iters", "-2"], ["report", "wd:3", "--tol", "nan"],
                  ["report", "wd:3", "--tol", "-1e-3"], ["report", "wd:3", "--tol", "inf"],
                  ["search", "min-ratio-sym", "--starts", "-4"]):
        assert main(flags) == 2
    assert main(["sweep", "diff_t", "--steps", "0"]) == 0  # an empty batch
    for flags in (["border_ab", "--steps", "1"], ["border_ab", "--d", "1"], ["diff_t", "--steps", "-2"],
                  ["diff_t", "--d", "1"], ["diff_t", "--d", "0"]):
        assert main(["sweep", *flags]) == 2
    # malformed tensor files: wrong exponent length, missing "dim", bad shape
    for name, data in [
        ("exp.json", {"order": 3, "dim": 2, "coeffs": [{"exp": [1, 1], "value": 1}]}),
        ("nodim.json", {"order": 3, "coeffs": [{"exp": [2, 1], "value": 1}]}),
        ("shape.json", {"dims": [2, 2, 2], "entries": [1, 2, 3]}),
        ("type.json", {"order": 3, "dim": 2, "coeffs": 5}),
    ]:
        path = tmp_path / name
        path.write_text(json.dumps(data))
        assert main(["report", str(path)]) == 2
    t3 = tmp_path / "t3.json"
    t3.write_text(json.dumps({"dims": [2, 2, 2], "entries": [0, 0, 0, 1, 0, 1, 1, 0]}))
    assert main(["report", str(t3), "--starts", "-1"]) == 2  # was an IndexError in the ALS
    # forced failure propagates as exit code 1
    monkeypatch.setitem(
        harness.SUITES, "lemma-roots",
        lambda seed, budget: SuiteResult("lemma-roots", 1, [{"forced": True}], seed=seed),
    )
    assert main(["verify", "lemma-roots"]) == 1
    capsys.readouterr()


def test_cli_unreadable_inputs_exit_2(tmp_path, monkeypatch):
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"order": 3, "note": "\xe9"}')
    monkeypatch.setattr(cli, "search_min_ratio", lambda *args: pytest.fail("the search ran"))
    for argv in (["report", str(tmp_path)], ["report", str(latin1)],
                 ["search", "min-ratio-sym", "--trace", str(tmp_path / "missing" / "t.jsonl")],
                 ["search", "min-ratio-sym", "--trace", str(tmp_path)]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert (code, out.getvalue()) == (2, ""), argv
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


def test_cli_verify_json_and_csv(capsys):
    assert main(["verify", "lemma-roots", "--budget", "20"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["suite"] == "lemma-roots"
    assert payload["passed"] is True
    assert main(["verify", "lemma-roots", "--budget", "20", "--out", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "suite,cases,failures,passed,seed"


def test_cli_sweep_deterministic(capsys):
    assert main(["sweep", "border_ab", "--d", "3", "--steps", "7"]) == 0
    first = capsys.readouterr().out
    assert main(["sweep", "border_ab", "--d", "3", "--steps", "7"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert first.splitlines()[0] == "a,b,ratio,lb_interior,lb_axis"


def test_cli_sweep_cells_are_plain_floats(capsys):
    assert main(["sweep", "diff_t", "--d", "4", "--steps", "5"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    assert len(rows) == 5
    for row in rows:
        [float(cell) for cell in row.split(",")]


def test_cli_verify_deterministic_bytes(capsys):
    assert main(["verify", "prop-sum", "--budget", "25", "--seed", "11"]) == 0
    first = capsys.readouterr().out
    assert main(["verify", "prop-sum", "--budget", "25", "--seed", "11"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_cli_search_json(capsys):
    assert main(["search", "min-ratio-sym", "--d", "3", "--budget", "1500", "--starts", "8"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["target"] == "min-ratio-sym"
    assert payload["best_ratio"] > 2 / 3


def test_cli_report_roundtrip_file(tmp_path, capsys):
    path = tmp_path / "t.json"
    W = parse_tensor_spec("wd:5")
    path.write_text(json.dumps(W.to_json_dict()))
    assert main(["report", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["frob_norm"] == pytest.approx(math.sqrt(5), rel=1e-13)


def test_cli_report_rank_one_file(tmp_path, capsys):
    path = tmp_path / "cube.json"
    path.write_text(
        json.dumps({"order": 3, "dim": 2, "coeffs": [
            {"exp": [3, 0], "value": 1.0}, {"exp": [2, 1], "value": 1.0},
            {"exp": [1, 2], "value": 1.0}, {"exp": [0, 3], "value": 1.0},
        ]})
    )
    assert main(["report", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    # the file holds u^3 for u = (1, 1)
    assert out["ratio"] == pytest.approx(1.0, abs=1e-12)
    assert out["relative_distance"] == pytest.approx(0.0, abs=1e-6)


def test_cli_search_trace_jsonl(tmp_path, capsys):
    trace_path = tmp_path / "trace.jsonl"
    assert main(["search", "min-ratio-sym", "--d", "3", "--budget", "1200",
                 "--starts", "6", "--trace", str(trace_path)]) == 0
    capsys.readouterr()
    lines = trace_path.read_text().strip().splitlines()
    assert lines
    entry = json.loads(lines[0])
    assert {"F", "alpha", "beta", "theta"} <= set(entry)


@settings(max_examples=40)
@given(d=st.integers(-3, 10), budget=st.integers(-3, 300), starts=st.integers(-3, 70),
       seed=st.integers(-1, 2**40))
def test_cli_search_fuzz_exits_cleanly(d, budget, starts, seed):
    # Out-of-range flags exit 2 with a one-line error; every other input runs
    # within its budget.  Budget 1 and --starts 1 reach the search's edge
    # cases: the budget ends at the first start, or 8 starts run.
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["search", "min-ratio-sym", f"--d={d}", f"--budget={budget}",
                     f"--starts={starts}", f"--seed={seed}"])
    assert "Traceback" not in err.getvalue()
    if d >= 3 and budget >= 1 and starts >= 1 and seed >= 0:
        assert code == 0
        payload = json.loads(out.getvalue())
        assert payload["evaluations"] <= budget
        assert payload["best_ratio"] > payload["bound_ratio"] - 1e-9
    else:
        assert code == 2 and out.getvalue() == ""


def _search(argv):
    """(exit code, stdout, stderr) of an in-process ``search`` call."""
    return _cli(["search", *argv])


def test_cli_counterexample_search_reads_starts():
    # --starts is the screen's random ALS start count; without it the screen
    # keeps 8 starts, so the default output equals --starts 8.
    argv = ["counterexample-nonsym", "--d", "4", "--budget", "20"]
    default, eight, one = (_search(argv + extra) for extra in ([], ["--starts", "8"],
                                                                ["--starts", "1"]))
    assert default == eight and default[0] == one[0] == 0
    assert json.loads(one[1])["min_ratio_observed"] != json.loads(eight[1])["min_ratio_observed"]


class _Sampled(Exception):
    pass


def test_counterexample_search_caps_the_sample_stack(monkeypatch):
    # More than 2^26 sampled entries (budget * 2^d) exit 2 before anything
    # is sampled; d = 12 at the default budget and requests at the cap pass.
    sampled = []

    def sampler(rng, m, d):
        sampled.append((m, d))
        raise _Sampled

    monkeypatch.setattr(harness, "_sample_rank_two_stack", sampler)
    for d, budget in [(30, 1), (27, 1), (12, 16_385), (3, 2**23 + 1)]:
        code, out, err = _search(["counterexample-nonsym", f"--d={d}", f"--budget={budget}"])
        assert code == 2 and out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert sampled == []
    with pytest.raises(_Sampled):
        main(["search", "counterexample-nonsym", "--d", "12"])
    for d, budget in [(12, 16_384), (26, 1), (3, 2**23)]:
        with pytest.raises(_Sampled):
            search_counterexample(d, SearchConfig(budget=budget))
    assert sampled == [(10_000, 12), (16_384, 12), (1, 26), (2**23, 3)]


def _report(argv):
    """(exit code, stdout, stderr) of an in-process ``report`` call."""
    return _cli(["report", *argv])


def test_cli_report_builtin_order_must_be_integral():
    # The order field of ranktwo: and border: parses as a float, which must
    # be finite and integral; 3.0 reads as 3.
    for spec in ["ranktwo:1,0.5,0.3,nan", "ranktwo:1,0.5,0.3,inf", "border:0.3,0.5,inf",
                 "ranktwo:1,0.5,0.3,3.7", "border:0.3,0.5,3.7", "ranktwo:1,0.5,0.3,-inf"]:
        code, out, err = _report([spec])
        assert (code, out) == (2, ""), spec
        assert err.startswith("error: ") and "Traceback" not in err
    for whole, dotted in [("ranktwo:1,0.5,0.3,3", "ranktwo:1,0.5,0.3,3.0"),
                          ("border:0.3,0.5,4", "border:0.3,0.5,4.0")]:
        code, out, _ = _report([whole])
        code_dotted, out_dotted, _ = _report([dotted])
        assert code == code_dotted == 0
        assert out_dotted == out.replace(json.dumps(whole), json.dumps(dotted))


def test_cli_report_rejects_overflowing_frobenius_norm(tmp_path):
    # A tensor whose squared Frobenius norm overflows is a usage error, raised
    # before any solver runs: no zero ratio, NaN, warning or traceback.
    t3 = tmp_path / "t222.json"
    t3.write_text(json.dumps({"dims": [2, 2, 2], "entries": [1e308] * 8}))
    sym = tmp_path / "sym3.json"
    sym.write_text(json.dumps(SymTensor(3, 3, {e: 1e308 for e in exponent_tuples(3, 3)}).to_json_dict()))
    for spec in ["border:1e300,0,2", "border:0,1e307,3", str(t3), str(sym),
                 "border:0,3e306,40", "ranktwo:1e307,1e307,0.3,12"]:
        code, out, err = _report([spec])
        assert (code, out) == (2, ""), spec
        assert "Frobenius norm overflows" in err


_FUZZ_FLOATS = st.one_of(
    st.floats(-10.0, 10.0),
    st.sampled_from([0.0, 1.0, 1e-8, 1e-300, 1e300, 1e308, math.nan, math.inf]).flatmap(
        lambda x: st.sampled_from([x, -x])),
)
_FUZZ_ORDERS = st.sampled_from([str(d) for d in range(1, 13)] + ["40", "3.0", "3.7", "0", "-2",
                                                                  "nan", "inf"])


@settings(max_examples=200)
@given(kind=st.sampled_from(["ranktwo", "border"]), fields=st.lists(_FUZZ_FLOATS, min_size=3,
       max_size=3), order=_FUZZ_ORDERS)
@example(kind="border", fields=[1.0, 1e-08, 0.0], order="8")
@example(kind="ranktwo", fields=[-1e-08, 1.0, 0.6745881296958025], order="4")
@example(kind="ranktwo", fields=[1.0, 2.225073858507e-311, 0.0], order="1")
@example(kind="ranktwo", fields=[1.0, -1.0, 0.0], order="2")  # x^2 + y^2: every direction
def test_cli_report_builtin_fuzz(kind, fields, order):
    # Every builtin either reports a finite ratio in (0, 1] or is a usage
    # error with nothing on stdout.  The examples are nearly rank-one: their
    # computed spectral norm rounds a few ulps above the Frobenius norm.
    spec = f"{kind}:{','.join(repr(x) for x in fields[:3 if kind == 'ranktwo' else 2])},{order}"
    code, out, err = _report([spec])
    assert "Traceback" not in err
    if code == 0:
        ratio = json.loads(out)["ratio"]
        assert math.isfinite(ratio) and 0.0 < ratio <= 1.0, spec
    else:
        assert (code, out) == (2, ""), spec


_FILE_FLOATS = st.one_of(
    st.floats(-10.0, 10.0),
    st.sampled_from([0.0, 1e-300, 1e-8, 1.0, 1e150, 1e300, math.inf]).flatmap(
        lambda x: st.sampled_from([x, -x])),
    st.just(math.nan),
)


def _drop_key(key):
    return lambda item: {k: v for k, v in item.items() if k != key}


# Each defect rewrites one entry of the coeffs list of a symmetric tensor file.
_ENTRY_DEFECTS = [
    lambda item: item | {"exp": item["exp"] + [0]},
    lambda item: item | {"exp": [-1] + item["exp"][1:]},
    lambda item: item | {"exp": [item["exp"][0] + 1] + item["exp"][1:]},
    lambda item: item | {"exp": ["x"] + item["exp"][1:]},
    lambda item: item | {"exp": 1.5},
    lambda item: item | {"exp": [item["exp"][0] - 0.5, item["exp"][1] + 0.5] + item["exp"][2:]},
    lambda item: item | {"exp": None},
    lambda item: item | {"value": "abc"},
    lambda item: item | {"value": None},
    lambda item: item | {"value": 10**400},
    lambda item: item | {"value": [1.0]},
    _drop_key("exp"),
    _drop_key("value"),
    lambda item: item["value"],
]
# Each defect replaces the whole coeffs field.
_COEFFS_DEFECTS = [5, None, "coeffs", {"exp": [3, 0, 0], "value": 1.0}, [1, 2]]

# Non-integral sizes are rejected, not truncated (the first would read as
# order 2 at exponent (1, 1)).
_SIZE_DEFECTS = [
    {"order": 2.9, "dim": 2, "coeffs": [{"exp": [1.7, 1.2], "value": 1.0}]},
    {"order": 3.5, "dim": 3, "coeffs": [{"exp": [3, 0, 0], "value": 1.0}]},
    {"order": 3, "dim": 3.2, "coeffs": [{"exp": [3, 0, 0], "value": 1.0}]},
    {"dims": [2.5, 2, 2], "entries": [1.0] * 8},
]


def test_cli_report_rejects_malformed_symmetric_file(tmp_path):
    # Each defect alone is a usage error; a huge JSON integer value used to
    # escape as an OverflowError traceback.
    good = {"order": 3, "dim": 3, "coeffs": [{"exp": [3, 0, 0], "value": 1.0},
                                             {"exp": [1, 1, 1], "value": -0.5}]}
    files = [good | {"coeffs": [defect(good["coeffs"][0]), good["coeffs"][1]]} for defect in _ENTRY_DEFECTS]
    files += [good | {"coeffs": coeffs} for coeffs in _COEFFS_DEFECTS]
    files += _SIZE_DEFECTS
    for payload in files:
        path = tmp_path / "sym.json"
        path.write_text(json.dumps(payload))
        code, out, err = _report([str(path)])
        assert (code, out) == (2, ""), payload
        assert err.startswith("error: ") and "Traceback" not in err


@settings(max_examples=150)
@given(dim=st.sampled_from([3, 4]), order=st.integers(1, 5), data=st.data())
def test_cli_report_symmetric_file_fuzz(dim, order, data, tmp_path_factory):
    # A symmetric tensor file either reports a finite ratio in (0, 1] with
    # its convergence status, or is a usage error with nothing on stdout.
    # Entries span zero, tiny, huge and non-finite values; some files have
    # one malformed entry or a malformed coeffs field.  Forms whose entries
    # span 150 decades have directions so flat that rows crawl to the
    # iteration cap, so the cap is lowered to keep examples fast.
    coeffs = [{"exp": list(e), "value": data.draw(_FILE_FLOATS)}
              for e in exponent_tuples(dim, order) if data.draw(st.booleans())]
    kind = data.draw(st.sampled_from(["clean", "clean", "entry", "coeffs"]))
    if kind == "entry" and coeffs:
        i = data.draw(st.integers(0, len(coeffs) - 1))
        coeffs[i] = data.draw(st.sampled_from(_ENTRY_DEFECTS))(coeffs[i])
    elif kind == "coeffs":
        coeffs = data.draw(st.sampled_from(_COEFFS_DEFECTS))
    path = tmp_path_factory.mktemp("fuzz") / "sym.json"
    path.write_text(json.dumps({"order": order, "dim": dim, "coeffs": coeffs}))
    code, out, err = _report([str(path), "--max-iters", "200"])
    assert "Traceback" not in err
    if code == 0:
        report = json.loads(out)
        assert math.isfinite(report["ratio"]) and 0.0 < report["ratio"] <= 1.0
        assert isinstance(report["converged"], bool)
    else:
        assert (code, out) == (2, "")
        assert err.startswith("error: ")


def test_cli_report_seed_alone(tmp_path, capsys):
    # --seed alone reaches the heuristic solvers, which keep their own
    # defaults: flag-free equals --seed 0, and --seed 5 draws other starts.
    rng = np.random.default_rng(3)
    A = SymTensor(4, 3, {e: float(rng.standard_normal()) for e in exponent_tuples(3, 4)})
    sym = tmp_path / "sym3.json"
    sym.write_text(json.dumps(A.to_json_dict()))
    t3 = tmp_path / "t333.json"
    t3.write_text(json.dumps({"dims": [3, 3, 3], "entries": rng.standard_normal(27).tolist()}))
    for path in (sym, t3):
        outs = []
        for flags in ([], ["--seed", "0"], ["--seed", "5"]):
            assert main(["report", str(path), *flags]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert outs[2] != outs[0]
    # The ALS defaults (32 starts, tol 1e-14) stay in force under --seed.
    expected = report_for(parse_tensor_spec(str(t3)), str(t3), dataclasses.replace(ALS_CONFIG, seed=5))
    assert json.loads(outs[2]) == json.loads(json.dumps(expected.to_json_dict()))


def test_cli_report_flags_keep_the_other_defaults(tmp_path, capsys):
    # Each iteration flag sets its own field only: --starts 8 on a dense file
    # keeps the ALS tol 1e-14, and --tol or --max-iters keeps its 32 starts.
    path = tmp_path / "t222.json"
    path.write_text(json.dumps({"dims": [2, 2, 2],
                                "entries": np.random.default_rng(11).standard_normal(8).tolist()}))
    T = parse_tensor_spec(str(path))
    for flags, fields in ((["--starts", "8"], dict(starts=8)),
                          (["--tol", "1e-10", "--seed", "4"], dict(tol=1e-10, seed=4)),
                          (["--max-iters", "3"], dict(max_iters=3))):
        assert main(["report", str(path), *flags]) == 0
        expected = report_for(T, str(path), dataclasses.replace(ALS_CONFIG, **{"seed": 0, **fields}))
        assert json.loads(capsys.readouterr().out) == json.loads(json.dumps(expected.to_json_dict())), flags


def test_cli_report_starts_flag(tmp_path, capsys):
    # A dim-3 file takes the power-iteration route with the iteration flags.
    # For an orthogonally decomposable sum_i lam_i q_i^d the exact ratio is
    # max |lam_i| / ||lam||.
    q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((3, 3)))
    lam = np.array([0.9, -0.7, 0.6])
    A = sum((l * sym_rank_one(q[:, i], 4) for i, l in enumerate(lam)), SymTensor(4, 3, {}))
    path = tmp_path / "odeco.json"
    path.write_text(json.dumps(A.to_json_dict()))
    assert main(["report", str(path), "--starts", "4", "--max-iters", "5000", "--seed", "7"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["method"] == "power"
    exact = float(np.max(np.abs(lam)) / np.linalg.norm(lam))
    assert exact - 1e-10 <= out["ratio"] <= exact + 1e-12
