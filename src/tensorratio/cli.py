"""Command-line interface: report, verify, sweep, search.

Exit codes: 0 pass, 1 suite failure, 2 usage error.  All output is
deterministic for a fixed seed and flag set; timings go to stderr only.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

from .config import IterConfig, SearchConfig
from .harness import (
    SCREEN_STARTS,
    SUITES,
    SWEEPS,
    UsageError,
    parse_tensor_spec,
    report_for,
    run_suite,
    search_counterexample,
    search_min_ratio,
    sweep_rows,
)
from .tensor3 import ALS_CONFIG, Tensor3


def _cell(x) -> str:
    if isinstance(x, float):
        return repr(float(x))
    return str(x)


def _emit_csv(header, rows, stream):
    stream.write(",".join(header) + "\n")
    for row in rows:
        stream.write(",".join(_cell(x) for x in row) + "\n")


def _emit_json(obj, stream):
    stream.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _checked(convert, ok, what: str):
    """An argparse type: ``convert`` the text and require ``ok`` of the value."""
    def parse(text: str):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
    return parse


_positive_int = _checked(int, lambda v: v >= 1, "an integer >= 1")
_seed = _checked(int, lambda v: v >= 0, "an integer >= 0")
_tolerance = _checked(float, lambda v: math.isfinite(v) and v >= 0.0, "a finite number >= 0")


_FLAGS = {
    "--seed": dict(type=_seed, default=0, help="master seed (default 0)"),
    "--budget": dict(type=_positive_int, default=None,
                     help="samples / evaluations per case group (suite-specific default)"),
    "--tol": dict(type=_tolerance, default=None,
                  help="iteration tolerance for the heuristic solvers"),
    "--out": dict(choices=("json", "csv"), default=None,
                  help="output format (command-specific default)"),
    "--starts": dict(type=_positive_int, default=None,
                     help="multistart count for the iterative solvers/searches"),
    "--max-iters": dict(type=_positive_int, default=None,
                        help="per-start iteration cap for the iterative solvers"),
}


# Each sweep parameter once, in table order; a kind that does not read one
# rejects it.
_SWEEP_PARAMS = tuple(dict.fromkeys(name for _, params in SWEEPS.values() for name in params))


def _subparser(sub, name, flags, **kw):
    """A subcommand that accepts exactly the shared flags it reads."""
    p = sub.add_parser(name, **kw)
    for flag in flags:
        p.add_argument(flag, **_FLAGS[flag])
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tensorratio",
        description="Spectral-to-Frobenius norm ratios and best rank-one "
                    "approximations of low-rank symmetric tensors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _subparser(sub, "report", ("--seed", "--tol", "--starts", "--max-iters", "--out"),
                   help="full ratio report for a tensor file or builtin")
    p.add_argument("input",
                   help="builtin (wd:<d> | ranktwo:<a>,<b>,<cos>,<d> | "
                        "border:<a>,<b>,<d>) or JSON tensor file")

    p = _subparser(sub, "verify", ("--seed", "--budget", "--out"),
                   help="run a named verification suite (or 'all')")
    p.add_argument("suite", help=f"one of: {', '.join(sorted(SUITES))}, all")

    p = _subparser(sub, "sweep", ("--out",), help="emit a parameter sweep as CSV")
    p.add_argument("kind", choices=tuple(SWEEPS))
    for name in _SWEEP_PARAMS:
        readers = {kind: params[name] for kind, (_, params) in SWEEPS.items() if name in params}
        p.add_argument(f"--{name}", type=type(next(iter(readers.values()))),
                       help="; ".join(f"{kind} (default {v})" for kind, v in readers.items()))

    p = _subparser(sub, "search", ("--seed", "--budget", "--starts"),
                   help="infimum search or counterexample sampling",
                   epilog="min-ratio-sym: --budget caps the evaluations (default 10000) and "
                          "--starts counts the starts (default 64; below 8 means 8). The six "
                          "balanced starts run first and charge about 2,000 evaluations, so "
                          "below that --seed and --starts change nothing. "
                          "counterexample-nonsym: --budget is the sample count (default "
                          "10000) and --starts the screen's random ALS starts (default 8); "
                          "budget * 2^d may not exceed 2^26.")
    p.add_argument("target", choices=("min-ratio-sym", "counterexample-nonsym"))
    p.add_argument("--d", type=int, default=3, help="tensor order")
    p.add_argument("--trace", default=None, metavar="PATH",
                   help="write the accepted-iterate trace as JSON lines")

    return parser


def _iter_config(args, obj) -> IterConfig:
    """The solver's defaults, with the seed and each iteration flag given."""
    overrides = {
        name: getattr(args, name)
        for name in ("tol", "starts", "max_iters")
        if getattr(args, name) is not None
    }
    base = ALS_CONFIG if isinstance(obj, Tensor3) else IterConfig()
    return dataclasses.replace(base, seed=args.seed, **overrides)


def _cmd_report(args) -> int:
    obj = parse_tensor_spec(args.input)
    rep = report_for(obj, args.input, _iter_config(args, obj))
    data = rep.to_json_dict()
    if args.out == "csv":
        header = ["input", "method", "spectral_norm", "frob_norm", "ratio",
                  "relative_distance"]
        _emit_csv(header, [[data[h] for h in header]], sys.stdout)
    else:
        _emit_json(data, sys.stdout)
    return 0


def _cmd_verify(args) -> int:
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    results = [run_suite(name, seed=args.seed, budget=args.budget) for name in names]
    for res in results:
        print(f"[{res.suite}] {res.cases} cases in {res.seconds:.2f}s: "
              f"{'pass' if res.passed else f'{len(res.failures)} FAILURES'}",
              file=sys.stderr)
    payload = [res.to_json_dict() for res in results]
    if args.out == "csv":
        header = ["suite", "cases", "failures", "passed", "seed"]
        rows = [[r.suite, r.cases, len(r.failures), r.passed, r.seed] for r in results]
        _emit_csv(header, rows, sys.stdout)
    else:
        _emit_json(payload if len(payload) > 1 else payload[0], sys.stdout)
    return 0 if all(res.passed for res in results) else 1


def _cmd_sweep(args) -> int:
    given = {name: getattr(args, name) for name in _SWEEP_PARAMS
             if getattr(args, name) is not None}
    header, rows = sweep_rows(args.kind, **given)
    if args.out == "json":
        _emit_json([dict(zip(header, row)) for row in rows], sys.stdout)
    else:
        _emit_csv(header, rows, sys.stdout)
    return 0


def _cmd_search(args) -> int:
    overrides = {name: getattr(args, name) for name in ("starts", "budget")
                 if getattr(args, name) is not None}
    base = SearchConfig() if args.target == "min-ratio-sym" else SearchConfig(starts=SCREEN_STARTS)
    cfg = dataclasses.replace(base, seed=args.seed, **overrides)
    if args.target == "counterexample-nonsym":
        if args.trace is not None:
            raise UsageError(f"--trace: {args.target} writes no trace")
        payload = search_counterexample(args.d, cfg)
    elif args.trace is None:
        payload, _ = search_min_ratio(args.d, cfg)
    else:
        # Open the trace first: an unwritable path fails before the search runs.
        try:
            sink = open(args.trace, "w", encoding="utf-8")
        except OSError as exc:
            raise UsageError(f"--trace: {exc}") from None
        with sink:
            payload, trace = search_min_ratio(args.d, cfg)
            sink.writelines(json.dumps(entry, sort_keys=True) + "\n" for entry in trace)
    _emit_json(payload, sys.stdout)
    return 0


_COMMANDS = {
    "report": _cmd_report,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
    "search": _cmd_search,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
