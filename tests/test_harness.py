import json
import math

import numpy as np
import pytest

import tensorratio.harness as harness
from tensorratio.cli import main
from tensorratio.config import SearchConfig
from tensorratio.harness import (
    SUITES,
    SuiteResult,
    UsageError,
    parse_tensor_spec,
    report_for,
    rng_for,
    run_suite,
    sample_rank_two_params,
    search_counterexample,
    search_min_ratio,
    sweep_rows,
)
from tensorratio.ranktwo import classify_case, CaseTag
from tensorratio.symtensor import SymTensor, frob_norm
from tensorratio.tensor3 import Tensor3


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


def test_sampler_cases(rng):
    for case, check in [
        ("sum", lambda p: p.beta < 0),
        ("generic", lambda p: p.alpha > p.beta > 0),
        ("equal", lambda p: abs(p.alpha - p.beta) <= 1e-12 * p.alpha),
    ]:
        for _ in range(20):
            p = sample_rank_two_params(rng, 4, case=case)
            assert check(p)
            assert float(p.u @ p.v) >= 0
    tags = {classify_case(sample_rank_two_params(rng, 3)) for _ in range(60)}
    assert CaseTag.SUM in tags and CaseTag.GENERIC in tags


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
    assert set(data) == {"suite", "cases", "failures", "passed", "seed"}


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


def test_search_min_ratio_report():
    rep = search_min_ratio(3, SearchConfig(starts=10, budget=2000, seed=0))
    assert rep["best_ratio"] > rep["bound_ratio"]
    assert rep["best_ratio"] - rep["bound_ratio"] < 1e-3
    assert "not attained" in rep["note"]


def test_search_counterexample_d3():
    rep = search_counterexample(3, SearchConfig(budget=300, seed=0))
    assert rep["counterexamples_found"] == 0
    assert rep["min_ratio_observed"] > rep["bound_ratio"] - 1e-9


def test_search_counterexample_d4():
    rep = search_counterexample(4, SearchConfig(budget=40, seed=0))
    assert rep["samples"] == 40
    assert rep["min_ratio_observed"] > 0
    with pytest.raises(UsageError):
        search_counterexample(2, SearchConfig(budget=10, seed=0))


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_report_json(capsys):
    assert main(["report", "wd:3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ratio"] == pytest.approx(2 / 3, rel=1e-12)
    assert out["method"] == "exact_binary"


def test_cli_report_csv(capsys):
    assert main(["report", "wd:4", "--out", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("input,method,spectral_norm")
    assert len(lines) == 2


def test_cli_exit_codes(capsys, monkeypatch):
    assert main(["report", "wd:not-a-number"]) == 2
    assert main(["verify", "unknown-suite"]) == 2
    assert main(["bogus-command"]) == 2
    assert main(["report"]) == 2
    assert main(["report", "wd:3", "--jobs", "0"]) == 2
    # each subcommand accepts only the shared flags it reads
    assert main(["search", "min-ratio-sym", "--tol", "1e-3"]) == 2
    assert main(["sweep", "border_ab", "--seed", "1"]) == 2
    # forced failure propagates as exit code 1
    monkeypatch.setitem(
        harness.SUITES, "lemma-roots",
        lambda seed, budget: SuiteResult("lemma-roots", 1, [{"forced": True}], seed=seed),
    )
    assert main(["verify", "lemma-roots"]) == 1
    capsys.readouterr()


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


def test_cli_report_starts_flag(capsys):
    # power-iteration route honors the multistart flag
    assert main(["report", "wd:4", "--starts", "4", "--max-iters", "5000"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["method"] == "exact_binary"
