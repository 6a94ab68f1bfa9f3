"""Benchmark for tensorratio: one named workload per process, from a seed.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
`src/`.  With `--trace 0` the run measures the end-to-end metrics with
tracing off, in WORKERS fresh processes one after another, each measuring
its share of `--seconds`.  With `--trace 1` it runs each request untraced and
traced in turn, in this process, and reports the per-layer metrics.  Every
request's output is checked outside the timed window.  Metric lines go to
stdout as `name value unit`; the last line is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 0 only when every
check passed.
"""

import os

# One BLAS thread, set before numpy loads: on a small box this measures the
# program rather than the scheduler.  Setup probes inherit the setting.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("sym-campaign", "t3-campaign", "interactive")
# Measuring processes per untraced run.  At a fixed seed the rounds of one
# process mostly agree within 2%, while fresh processes started seconds apart
# differ by up to 30%, so one process measures its own luck and the median
# over several measures the program.
WORKERS = 5
WORKER_TIMEOUT_S = 150
MAX_REPORTED_FAILURES = 5

# The end-to-end metrics, in BENCHMARK.json order: name -> unit.
E2E_UNITS = {
    "setup_s": "s",
    "cases_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measure whole rounds for about this much wall time")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smoke-test sizes: tiny budgets and one measuring process")
    p.add_argument("--worker", type=int, default=None, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


class Runner:
    """Issues requests to tensorratio.cli.main in process and checks them."""

    def __init__(self):
        import tensorratio
        import tensorratio.cli

        if Path(tensorratio.__file__).resolve().parent != SRC / "tensorratio":
            raise RuntimeError(f"tensorratio imported from {tensorratio.__file__}, not {SRC}")
        self.cli = tensorratio.cli
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.tracer = None
        self.traced_stdout_bytes = 0
        self._request_id = 0

    def call(self, req):
        """Run one request; returns its wall seconds and whether it passed."""
        out, err = io.StringIO(), io.StringIO()
        if self.tracer is not None:
            self.tracer.request = self._request_id
        self._request_id += 1
        reason = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(req.argv)   # looked up per call: the tracer rebinds it
        except Exception as exc:  # a crash is a failed operation, not a dead benchmark
            rc, reason = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        text = out.getvalue()
        if self.tracer is not None:
            self.traced_stdout_bytes += len(text.encode())
        if reason is None and rc != 0:
            reason = f"exit code {rc}: {err.getvalue().strip()[-200:]}"
        if reason is None:
            try:
                reason = req.check(json.loads(text))
            except ValueError as exc:
                reason = f"stdout is not JSON: {exc}"
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.failures) < MAX_REPORTED_FAILURES:
                self.failures.append(f"{' '.join(req.argv)}: {reason}")
        return seconds, reason is None

    def run_round(self, reqs):
        return [(req, *self.call(req)) for req in reqs]


def measure_in_workers(args):
    """Run the untraced measurement in fresh processes, one after another.

    Each worker measures whole rounds for an equal share of the seconds
    still left, so a short round does not leave the run short.  Returns the
    workers' results and their setup times: wall seconds from spawning a
    worker to its first timed call (imports, input generation, warm-up)."""
    n = 1 if args.tiny else WORKERS
    results, setup = [], []
    left = args.seconds
    for k in range(n):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(left / (n - k)), "--worker", str(k)]
        if args.tiny:
            cmd.append("--tiny")
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            try:
                line = proc.stdout.readline()
                t1 = time.perf_counter()
                rest = proc.stdout.read()
                proc.wait(timeout=WORKER_TIMEOUT_S)
            except BaseException:
                proc.kill()
                raise
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"worker {k} failed with exit code {proc.returncode}")
        setup.append(t1 - t0)
        results.append(json.loads(rest.strip().splitlines()[-1]))
        left -= results[-1]["seconds"]
    return results, setup


def worker(args, make_round, workdir):
    """One measuring process: warm up, say ready, then run rounds k, k + n,
    k + 2n, ... for `--seconds` (at least one) and print them as one JSON
    line."""
    from bench_workloads import WARMUP_ROUND

    runner = Runner()
    runner.run_round(make_round(args.seed, WARMUP_ROUND, workdir, True))
    print("ready", flush=True)
    n = 1 if args.tiny else WORKERS
    rounds = []
    start = time.perf_counter()
    while another_round(start, args.seconds, len(rounds)):
        reqs = make_round(args.seed, len(rounds) * n + args.worker, workdir, args.tiny)
        rounds.append([[req.cases, s, ok, req.latency] for req, s, ok in runner.run_round(reqs)])
    print(json.dumps({"rounds": rounds, "seconds": time.perf_counter() - start,
                      "attempted": runner.attempted, "failed": runner.failed,
                      "failures": runner.failures, "peak_rss_mb": peak_rss_mb()}))
    return 0


def tail(sorted_values):
    """(value, percentile): the highest percentile with ten values beyond it."""
    n = len(sorted_values)
    if n <= 10:
        return sorted_values[-1], 100.0
    return sorted_values[n - 11], 100.0 * (n - 10) / n


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(results, setup_samples):
    """End-to-end metrics of the workers' untraced rounds, plus extras printed
    beside them.  A round is a list of [cases, seconds, ok, in latency]."""
    rounds = [rd for res in results for rd in res["rounds"]]
    rates = [sum(cases for cases, _, ok, _ in rd if ok) / sum(s for _, s, _, _ in rd)
             for rd in rounds]
    lat = sorted(s for rd in rounds for _, s, _, latency in rd if latency)
    tail_s, tail_pct = tail(lat)
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "cases_per_s": statistics.median(rates),
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_tail_ms": tail_s * 1e3,
        "peak_rss_mb": max(res["peak_rss_mb"] for res in results),
    }
    search = [sum(s for _, s, _, latency in rd if not latency) for rd in rounds]
    extras = {"latency_tail_pct": tail_pct, "latency_requests": len(lat),
              "rounds": len(rounds), "search.wall_s": statistics.median(search)}
    return metrics, extras


def print_e2e(workload, metrics, extras, failed_frac):
    for name, unit in E2E_UNITS.items():
        print(f"{name:<24} {metrics[name]:.6g} {unit}")
    tail_note = (f"(p{extras['latency_tail_pct']:.1f} of {extras['latency_requests']}"
                 f" requests)")
    if workload == "interactive":
        # Report-specific names for the interactive session.
        print(f"{'report.p50_ms':<24} {metrics['latency_p50_ms']:.6g} ms")
        print(f"{'report.tail_ms':<24} {metrics['latency_tail_ms']:.6g} ms {tail_note}")
        print(f"{'search.wall_s':<24} {extras['search.wall_s']:.6g} s")
    else:
        print(f"{'latency_tail':<24} {tail_note}")
    print(f"{'failed_frac':<24} {failed_frac:.6g} frac")


def _blas_threads():
    """OpenBLAS's own thread count, read from the loaded library if possible."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def metadata():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_version = None
    git_sha = None
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        lines = res.stdout.split()
        if res.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            git_sha = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    src_lines = 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        src_lines += data.count(b"\n")
    return {
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "src_lines": src_lines,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def another_round(start, seconds, done):
    """Start another round only if it should end within `seconds`."""
    elapsed = time.perf_counter() - start
    return done == 0 or elapsed * (done + 1) / done <= seconds


def measure_traced(runner, make_round, args, workdir):
    """Per-layer metrics.  Each request runs untraced and traced back to
    back, alternating which goes first, so machine drift cancels in
    trace.overhead_frac."""
    from bench_trace import Tracer

    tracer = Tracer()
    walls = {False: 0.0, True: 0.0}
    rounds = 0
    start = time.perf_counter()
    while another_round(start, args.seconds, rounds):
        for k, req in enumerate(make_round(args.seed, rounds, workdir, args.tiny)):
            for traced in ((False, True) if k % 2 == 0 else (True, False)):
                if traced:
                    tracer.install()
                    runner.tracer = tracer
                try:
                    walls[traced] += runner.call(req)[0]
                finally:
                    if traced:
                        runner.tracer = None
                        tracer.uninstall()
        rounds += 1
    OUT.mkdir(exist_ok=True)
    tracer.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
    return tracer.layer_metrics(rounds, walls[True], walls[False], runner.traced_stdout_bytes)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "tensorratio" / "__init__.py").is_file():
        print(f"error: no tensorratio sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        from bench_workloads import WARMUP_ROUND, WORKLOADS

        make_round = WORKLOADS[args.workload]
        if args.worker is not None:
            return worker(args, make_round, workdir)
        if args.trace:
            from bench_trace import layer_units

            runner = Runner()
            runner.run_round(make_round(args.seed, WARMUP_ROUND, workdir, True))
            metrics = measure_traced(runner, make_round, args, workdir)
            attempted, failed, failures = runner.attempted, runner.failed, runner.failures
            units = layer_units(metrics)
            for name, value in metrics.items():
                print(f"{name:<40} {value:.6g} {units[name]}")
        else:
            results, setup = measure_in_workers(args)
            attempted = sum(res["attempted"] for res in results)
            failed = sum(res["failed"] for res in results)
            failures = [line for res in results for line in res["failures"]]
            metrics, extras = end_to_end(results, setup)
            units = E2E_UNITS
            print_e2e(args.workload, metrics, extras, failed / attempted)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in failures[:MAX_REPORTED_FAILURES]:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({"meta": metadata(), "workload": args.workload, "seed": args.seed}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
