"""Per-layer tracing from outside the library.

A Tracer wraps every public function that a tensorratio module defines, at
every module of the package that binds it: ``spectral`` and ``ranktwo``
import ``real_roots`` by name and ``harness`` imports ``ratio_3``, so
wrapping only the defining module would miss those calls.  It also wraps the
public methods, ``__init__`` and arithmetic operators of the public classes
a module defines (``SymTensor.__init__``, ``SymTensor.__mul__``, ...), under
that module's layer.  Layers are the package's modules.  Each call records a
span (function, start, end, parent span, request id, raised or not) in
memory; a layer's self time is its span durations minus the time covered by
child spans.  A SIGPROF sampler checks that attribution against the code that
is actually running (``trace.self_coverage_frac``).

Functions are discovered when the tracer is installed, so a public function
added later is traced under its module's layer, and a name that a module no
longer defines simply reports zero calls.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import re
import signal
import sys
import time
import warnings

PACKAGE = "tensorratio"

# Modules reported as layers.  ``config`` holds data only.
LAYERS = ("symtensor", "rootfind", "spectral", "ranktwo", "tensor3", "harness", "cli")

# Special methods wrapped on public classes, besides their public methods.
DUNDERS = frozenset({
    "__init__", "__call__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
    "__rmul__", "__truediv__", "__rtruediv__", "__matmul__", "__neg__", "__pos__",
    "__abs__", "__getitem__",
})

# CPU time between attribution samples (SIGPROF).
SAMPLE_INTERVAL_S = 0.001

# The eight verification suites, so that each reports even when unused.
SUITES = ("thm1-bound", "prop-sum", "prop-equal", "lemma-roots", "prop-unique",
          "border-scan", "thm3-bound", "kkt-region")

# Sub-layer groups: (layer, group, pattern on the function name).  A group's
# calls are its spans whose parent is outside the group, so a group function
# calling another one of the same group counts once.
GROUPS = (
    ("spectral", "binary", r"binary|count_global_maximizers"),
    ("spectral", "power", r"power"),
    ("symtensor", "build",
     r"^(sym_(rank_one|outer)|SymTensor\.__(init|add|sub|neg|mul|rmul)__)$"),
    ("symtensor", "form", r"^poly_(eval|grad)$"),
    ("symtensor", "restrict", r"^(restrict_to_plane|plane_frame)$"),
    ("symtensor", "frob", r"^frob_"),
    ("ranktwo", "ratio_squared", r"^ratio_squared$"),
    ("ranktwo", "params", r"^(canonical_params|make_rank_two|make_border)$"),
    ("ranktwo", "border_scan", r"^border_ratio_scan$"),
    ("ranktwo", "critical_roots", r"^critical_equation_roots$"),
    ("ranktwo", "search", r"^min_ratio_search$"),
    ("tensor3", "als_batch", r"_batch$"),
    ("tensor3", "als", r"^(als_spectral_norm|spectral_norm_3|ratio_3)$"),
    ("tensor3", "hyperdet", r"^hyperdet"),
    ("tensor3", "feasible_scan", r"^feasible_"),
    ("harness", "sampler", r"^sample_"),
    ("harness", "suite", r"^run_suite$"),
)


def _lookup(table, layer: str, name: str):
    """The value of the first (layer, value, pattern) row matching a function."""
    return next((value for t_layer, value, pattern in table
                 if t_layer == layer and re.search(pattern, name)), None)


# Counters read off arguments and results at the layer boundary.  Each hook
# tolerates a changed result type by reading attributes with defaults.

def _hook_real_roots(counts, args, kwargs, result, seconds):
    coeffs = args[0] if args else kwargs.get("coeffs_desc", ())
    shape = getattr(coeffs, "shape", None)
    if shape is not None and len(shape) == 2:  # a batch of polynomials
        counts["rootfind.polys"] += shape[0]
        counts["rootfind.degree"] += shape[0] * (shape[1] - 1)
        counts["rootfind.roots"] += sum(len(r) for r in result)
    else:
        counts["rootfind.polys"] += 1
        counts["rootfind.degree"] += len(coeffs) - 1
        counts["rootfind.roots"] += len(result)


def _hook_power(counts, args, kwargs, result, seconds):
    counts["spectral.power.results"] += 1
    counts["spectral.power.converged"] += bool(getattr(result, "converged", False))


def _hook_search(counts, args, kwargs, result, seconds):
    counts["ranktwo.search.evaluations"] += getattr(result, "evaluations", 0)
    counts["ranktwo.search.budget_exhausted"] += bool(getattr(result, "budget_exhausted", False))


def _hook_als_batch(counts, args, kwargs, result, seconds):
    counts["tensor3.als_batch.tensors"] += len(args[0] if args else kwargs["tensors"])


def _hook_als(counts, args, kwargs, result, seconds):
    counts["tensor3.als.results"] += 1
    counts["tensor3.als.sweeps"] += getattr(result, "sweeps", 0)
    counts["tensor3.als.converged"] += bool(getattr(result, "converged", False))


def _hook_run_suite(counts, args, kwargs, result, seconds):
    suite = args[0] if args else kwargs.get("name")
    counts[f"harness.suite.{suite}.cases"] += getattr(result, "cases", 0)
    counts[f"harness.suite.{suite}.seconds"] += seconds


HOOKS = (
    ("rootfind", _hook_real_roots, r"^real_roots"),
    ("spectral", _hook_power, r"^spectral_norm_power$"),
    ("ranktwo", _hook_search, r"^min_ratio_search$"),
    ("tensor3", _hook_als_batch, r"_batch$"),
    ("tensor3", _hook_als, r"^als_spectral_norm$"),
    ("harness", _hook_run_suite, r"^run_suite$"),
)


class _Counts(dict):
    def __missing__(self, key):
        return 0


class Tracer:
    """Span recorder for the tensorratio package; install() and uninstall()."""

    def __init__(self):
        self.functions: list[tuple[str, str]] = []   # fid -> (layer, name)
        self._fids: dict[tuple[str, str], int] = {}
        self.spans: list = []    # open span: its fid; closed: a tuple
        self._stack = [-1]
        self.request = -1
        self.counts = _Counts()
        self._patched: list = []
        self._warnings = None
        self._signal_handler = None
        self.samples = 0
        self.matched = 0
        self._file_layers: dict = {}

    def _fid(self, layer: str, name: str) -> int:
        key = (layer, name)
        if key not in self._fids:
            self._fids[key] = len(self.functions)
            self.functions.append(key)
        return self._fids[key]

    def _wrap(self, fn, fid, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            idx = len(spans)
            spans.append(fid)
            stack.append(idx)
            ok = False
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (fid, t0, t1, parent, tracer.request, ok)
            if hook is not None:
                try:
                    hook(tracer.counts, args, kwargs, result, t1 - t0)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                    # A changed signature loses a counter, never a request.
                    tracer.counts["trace.hook_errors"] += 1
            return result

        return traced

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {}

        def patch(target, attr, fn, layer):
            if id(fn) not in wrappers:
                wrappers[id(fn)] = self._wrap(fn, self._fid(layer, fn.__qualname__),
                                              _lookup(HOOKS, layer, fn.__qualname__))
            setattr(target, attr, wrappers[id(fn)])
            self._patched.append((target, attr, fn))

        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            layer = modname.rpartition(".")[2]
            for name, obj in list(vars(module).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and (obj.__module__ or "").startswith(PACKAGE + ".") \
                        and not obj.__name__.startswith("_"):
                    patch(module, name, obj, obj.__module__.split(".")[1])
                elif inspect.isclass(obj) and obj.__module__ == modname and layer in LAYERS:
                    # Plain methods only; properties and class methods are
                    # charged to their caller.
                    for attr, fn in list(vars(obj).items()):
                        if inspect.isfunction(fn) and (attr in DUNDERS or not attr.startswith("_")):
                            patch(obj, attr, fn, layer)
        self._signal_handler = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        self._warnings = warnings.catch_warnings()
        self._warnings.__enter__()
        warnings.simplefilter("always", RuntimeWarning)
        warnings.showwarning = self._count_warning

    def uninstall(self):
        if self._signal_handler is not None:
            signal.setitimer(signal.ITIMER_PROF, 0.0)
            signal.signal(signal.SIGPROF, self._signal_handler)
            self._signal_handler = None
        for target, name, obj in reversed(self._patched):
            setattr(target, name, obj)
        self._patched.clear()
        if self._warnings is not None:
            self._warnings.__exit__(None, None, None)
            self._warnings = None

    def _file_layer(self, filename: str):
        """The layer whose module was loaded from `filename`, or None."""
        if filename not in self._file_layers:
            name = next((name for name, mod in list(sys.modules.items())
                         if name.startswith(PACKAGE + ".")
                         and getattr(mod, "__file__", None) == filename), None)
            self._file_layers[filename] = name.rpartition(".")[2] if name else None
        return self._file_layers[filename]

    def _sample(self, signum, frame):
        """SIGPROF handler: does the innermost open span's layer own the code
        that is running?  Python runs the handler in the main thread at the
        next bytecode, so time in a C call lands on the frame that made it.
        The running code's layer is the module of the innermost tensorratio
        frame.  Time in code that no wrapper sees, such as a private helper of
        one module called from another, is charged to the calling layer's span
        and counts as a mismatch; so does the wrappers' own bookkeeping."""
        top = self._stack[-1]
        if top < 0:
            return
        span = self.spans[top]
        span_layer = self.functions[span if isinstance(span, int) else span[0]][0]
        running = None
        while frame is not None and running is None:
            running = self._file_layer(frame.f_code.co_filename)
            frame = frame.f_back
        self.samples += 1
        self.matched += running == span_layer

    def _count_warning(self, message, category, *rest, **kw):
        top = self._stack[-1]
        layer = self.functions[self.spans[top]][0] if top >= 0 else "benchmark"
        self.counts[f"{layer}.{category.__name__}"] += 1

    def write_spans(self, path):
        """Write the spans as gzip-compressed JSON lines:
        [layer.function, start, end, parent index, request id, returned]."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for fid, t0, t1, parent, req, ok in self.spans:
                layer, name = self.functions[fid]
                fh.write(json.dumps([f"{layer}.{name}", t0, t1, parent, req, ok]) + "\n")

    def layer_metrics(self, rounds: int, traced_wall: float, untraced_wall: float,
                      stdout_bytes: int) -> dict:
        """Per-layer metrics; counts and times are per round of the workload."""
        spans = self.spans
        child = [0.0] * len(spans)
        for _, t0, t1, parent, _, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        info = [(layer, _lookup(GROUPS, layer, name)) for layer, name in self.functions]
        calls, self_s, errors, als_by_req = _Counts(), _Counts(), _Counts(), _Counts()
        batched_reqs = set()
        for i, (fid, t0, t1, parent, req, ok) in enumerate(spans):
            layer, group = info[fid]
            parent_info = info[spans[parent][0]] if parent >= 0 else (None, None)
            own = t1 - t0 - child[i]
            self_s[layer] += own
            if parent_info[0] != layer:
                calls[layer] += 1
            if group is None:
                continue
            key = f"{layer}.{group}"
            self_s[key] += own
            if parent_info != (layer, group):
                calls[key] += 1
                errors[key] += not ok
                if key == "tensor3.als":
                    als_by_req[req] += 1
            if key == "tensor3.als_batch":
                batched_reqs.add(req)
        c = self.counts
        # A re-judge is a single-tensor ALS call in a request that also
        # screened a batch; requests without a batch screen do not count.
        rejudges = sum(n for req, n in als_by_req.items() if req in batched_reqs)

        def ratio(num, den):
            return num / den if den else 0.0

        per = 1.0 / max(rounds, 1)
        m = {}
        for layer in LAYERS:
            m[f"{layer}.calls"] = calls[layer] * per
            m[f"{layer}.self_s"] = self_s[layer] * per
        m["rootfind.mean_degree"] = ratio(c["rootfind.degree"], c["rootfind.polys"])
        m["rootfind.accept_frac"] = ratio(c["rootfind.roots"], c["rootfind.degree"])
        m["rootfind.overflow_warnings"] = c["rootfind.RuntimeWarning"] * per
        for layer, group, _ in GROUPS:
            key = f"{layer}.{group}"
            m[f"{key}.calls"] = calls[key] * per
            m[f"{key}.self_s"] = self_s[key] * per
        m["spectral.binary.errors"] = errors["spectral.binary"] * per
        m["spectral.power.converged_frac"] = ratio(c["spectral.power.converged"],
                                                   c["spectral.power.results"])
        m["ranktwo.search.evaluations"] = c["ranktwo.search.evaluations"] * per
        m["ranktwo.search.budget_exhausted"] = c["ranktwo.search.budget_exhausted"] * per
        m["tensor3.als_batch.tensors"] = c["tensor3.als_batch.tensors"] * per
        m["tensor3.als.sweeps"] = c["tensor3.als.sweeps"] * per
        m["tensor3.als.converged_frac"] = ratio(c["tensor3.als.converged"],
                                                c["tensor3.als.results"])
        m["tensor3.rejudge_frac"] = ratio(rejudges, c["tensor3.als_batch.tensors"])
        for suite in SUITES:
            m[f"harness.suite.{suite}.cases_per_s"] = ratio(
                c[f"harness.suite.{suite}.cases"], c[f"harness.suite.{suite}.seconds"])
        m["cli.stdout_bytes"] = ratio(stdout_bytes, calls["cli"])
        m["trace.overhead_frac"] = ratio(traced_wall, untraced_wall) - 1.0
        m["trace.self_coverage_frac"] = ratio(self.matched, self.samples)
        return m


_UNIT_SUFFIXES = (
    (".self_s", "s"), ("cases_per_s", "1/s"), ("_frac", "frac"),
    ("mean_degree", "deg"), ("stdout_bytes", "B"),
)


def layer_units(metrics: dict) -> dict:
    """Unit of each per-layer metric; everything not a time or ratio is a count."""
    units = {}
    for name in metrics:
        units[name] = next((u for suffix, u in _UNIT_SUFFIXES if name.endswith(suffix)), "count")
    return units
