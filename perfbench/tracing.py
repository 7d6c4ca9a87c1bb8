"""Outside-in tracing of the ventcelfem pipeline.

The library records nothing itself, so the traced run replaces, after
import, every module attribute of the package that is bound to a public
function with a timing wrapper, plus a few named methods and scipy's
``splu``.  Every call becomes a span (name, start, end, parent) kept in
memory; the child process writes the list out once, when its command
has returned, and ``layer_metrics`` turns it into per-layer self times
and counts.

A layer's self time is its spans' durations minus the time their child
spans cover, so the self times of all spans add up to the root span
(``cli.main``).  Spans that no named metric claims fall into their
module's ``<module>.other_s``; every ``cli`` span counts as
``cli.self_s``.  A named target that no longer exists is recorded as
absent, and its metrics read 0, so the benchmark keeps running when a
later change deletes or renames a function.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
import types
from collections import Counter

PACKAGE = "ventcelfem"
MODULES = ("geometry", "domain", "mesh", "fields", "femcore", "solver",
           "verify", "cli")

# (module, class, method, span name)
METHODS = (
    ("geometry", "Curve", "arc_length", "geometry.arc_length"),
    ("geometry", "Curve", "param_at_arc_length", "geometry.param_at_arc_length"),
    ("geometry", "ArcLengthTable", "__init__", "geometry.arc_length_table"),
)
# wrapped on fields.Coefficient and every subclass defined in fields
COEFFICIENT_METHODS = ("eval_points", "eval_curve", "tangential_deriv")

FACTOR_SPAN = "solver.factor"        # scipy.sparse.linalg.splu
LU_SOLVE_SPAN = "solver.lu_solve"    # SuperLU.solve on a traced factor

# self-time metrics: metric -> span names whose self time it sums
TIME_METRICS = {
    "mesh.triangulate_s": ("mesh.triangulate",),
    "geometry.arc_length_s": ("geometry.arc_length",
                              "geometry.param_at_arc_length",
                              "geometry.arc_length_table"),
    "fields.parse_s": ("fields.parse_coefficient",),
    "fields.eval_points_s": ("fields.eval_points",),
    "femcore.build_space_s": ("femcore.build_space",),
    "femcore.coefficient_bounds_s": ("femcore.coefficient_bounds",),
    "femcore.assemble_s": ("femcore.assemble_bilinear",),
    "femcore.load_s": ("femcore.assemble_load",),
    "femcore.lift_s": ("femcore.mcshane_lift",),
    "solver.lipschitz_s": ("solver.estimate_trace_lipschitz",),
    "solver.factor_s": (FACTOR_SPAN,),
    "solver.lu_solve_s": (LU_SOLVE_SPAN,),
    "solver.solve_linear_s": ("solver.solve_linear",),
    "solver.uniqueness_s": ("solver.uniqueness_diagnostic",),
    "solver.output_s": ("solver.write_solution_csv", "solver.write_trace_csv"),
    "verify.coercivity_s": ("verify.coercivity_eigencheck",),
    "verify.convergence_s": ("verify.manufactured_convergence",),
    "verify.solution_errors_s": ("verify.solution_errors",),
    "verify.weak_residual_s": ("verify.weak_residual_check",),
    "verify.trace_poincare_s": ("verify.trace_poincare_estimate",),
    "verify.continuity_s": ("verify.continuity_check",),
    "verify.ibp_s": ("verify.ibp_identity_check", "verify.ibp_identity_suite"),
    "verify.compatibility_s": ("verify.compatibility_check",),
    "verify.poincare_s": ("verify.interval_poincare_check",
                          "verify.curve_poincare_check",
                          "verify.poincare_counterexample"),
}
OTHER_METRICS = {m: f"{m}.other_s" for m in MODULES if m != "cli"}
OTHER_METRICS["cli"] = "cli.self_s"

# call-count metrics: metric -> span name
CALL_METRICS = {
    "fields.eval_curve_calls": "fields.eval_curve",
    "fields.tangential_deriv_calls": "fields.tangential_deriv",
    "solver.factorizations": FACTOR_SPAN,
    "solver.lu_solves": LU_SOLVE_SPAN,
    "verify.coercivity_calls": "verify.coercivity_eigencheck",
}


def _file_size(args, kwargs):
    path = kwargs["path"] if "path" in kwargs else args[1]
    return os.path.getsize(path)


def _points(args, kwargs):
    import numpy as np   # run.py imports this module without numpy

    p = kwargs["p"] if "p" in kwargs else args[1]
    return int(np.size(p)) // 2


# counters read from a span's arguments or result: span -> metric -> probe
PROBES = {
    "mesh.triangulate": {
        "mesh.nodes": lambda r, a, k: len(r.nodes),
        "mesh.triangles": lambda r, a, k: len(r.triangles)},
    "fields.eval_points": {"fields.eval_points_pts": lambda r, a, k: _points(a, k)},
    "femcore.build_space": {
        "femcore.free_dofs": lambda r, a, k: r.n_free,
        "femcore.ventcel_edges": lambda r, a, k: len(r.ventcel_edges)},
    "femcore.assemble_bilinear": {
        "femcore.matrix_nnz": lambda r, a, k: r.matrix.nnz},
    FACTOR_SPAN: {"solver.lu_nnz": lambda r, a, k: r.nnz},
    "solver.write_solution_csv": {
        "solver.output_bytes": lambda r, a, k: _file_size(a, k)},
    "solver.write_trace_csv": {
        "solver.output_bytes": lambda r, a, k: _file_size(a, k)},
}

COUNT_METRICS = tuple(CALL_METRICS) + tuple(
    m for probes in PROBES.values() for m in probes if m not in CALL_METRICS)
LAYER_METRICS = tuple(dict.fromkeys(
    tuple(TIME_METRICS) + tuple(OTHER_METRICS.values()) + COUNT_METRICS))

# every span a metric names; absent when install finds no target for it
NAMED_SPANS = frozenset(
    [s for spans in TIME_METRICS.values() for s in spans]
    + list(CALL_METRICS.values()) + list(PROBES))


class Tracer:
    """In-memory span recorder for one process.

    ``spans`` holds [name, start, end, parent index] per call, parent -1
    for a root; ``absent`` lists named targets that were not found.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counters = Counter()
        self.installed = set()
        self.absent = []
        self.probe_errors = Counter()
        self._stack = []
        self._wrappers = {}

    def wrap(self, name, fn):
        """A wrapper that records one span per call of ``fn``."""
        probes = PROBES.get(name, {})
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            for metric, probe in probes.items():
                try:
                    self.counters[metric] += probe(result, args, kwargs)
                except (AttributeError, TypeError, KeyError, IndexError,
                        OSError):
                    self.probe_errors[metric] += 1
            return result

        self.installed.add(name)
        return traced

    def wrapper_for(self, fn):
        """One shared wrapper per function, however many names bind it."""
        if fn not in self._wrappers:
            short = fn.__module__.rsplit(".", 1)[-1]
            self._wrappers[fn] = self.wrap(f"{short}.{fn.__name__}", fn)
        return self._wrappers[fn]

    def wrap_method(self, cls, method, name) -> None:
        """Wrap ``cls.method`` if the class defines it; absent otherwise."""
        fn = vars(cls).get(method) if cls is not None else None
        if isinstance(fn, types.FunctionType):
            setattr(cls, method, self.wrap(name, fn))


class _TracedLU:
    """SuperLU stand-in whose ``solve`` records a span."""

    def __init__(self, lu, tracer):
        self._lu = lu
        self.solve = tracer.wrap(LU_SOLVE_SPAN, lu.solve)

    def __getattr__(self, name):
        return getattr(self._lu, name)


def instrument(tracer, modules: dict, linalg=None) -> None:
    """Wrap the public functions and named methods of ``modules``.

    ``modules`` maps the short module names in MODULES to module objects
    (None for one that failed to import); ``linalg`` is the module whose
    ``splu`` the package calls.  Fills ``tracer.absent``.
    """
    # functions defined elsewhere (a new module, numpy) run as their caller
    defined_in = {f"{PACKAGE}.{short}" for short in MODULES}
    for short in MODULES:
        mod = modules.get(short)
        if mod is None:
            continue
        for attr, obj in list(vars(mod).items()):
            if (not attr.startswith("_") and isinstance(obj, types.FunctionType)
                    and obj.__module__ in defined_in):
                setattr(mod, attr, tracer.wrapper_for(obj))

    for short, cls_name, method, name in METHODS:
        cls = getattr(modules.get(short), cls_name, None)
        tracer.wrap_method(cls, method, name)

    fields = modules.get("fields")
    base = getattr(fields, "Coefficient", None)
    if isinstance(base, type):
        for obj in list(vars(fields).values()):
            if isinstance(obj, type) and issubclass(obj, base):
                for method in COEFFICIENT_METHODS:
                    tracer.wrap_method(obj, method, f"fields.{method}")

    splu = getattr(linalg, "splu", None)
    if callable(splu):
        def traced_splu(*args, **kwargs):
            return _TracedLU(splu(*args, **kwargs), tracer)
        linalg.splu = tracer.wrap(FACTOR_SPAN, functools.wraps(splu)(traced_splu))
        tracer.installed.add(LU_SOLVE_SPAN)   # wrapped on each factor

    tracer.absent = sorted(NAMED_SPANS - tracer.installed)


def install(tracer) -> None:
    """Instrument the imported package and scipy.sparse.linalg in place."""
    import scipy.sparse.linalg

    modules = {}
    for short in MODULES:
        try:
            modules[short] = importlib.import_module(f"{PACKAGE}.{short}")
        except ImportError:
            modules[short] = None
    instrument(tracer, modules, scipy.sparse.linalg)


def self_times(spans) -> list:
    """Each span's duration minus the time its direct child spans cover."""
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [(end - start) - c for (_, start, end, _), c in zip(spans, covered)]


def span_metric(name: str) -> str:
    for metric, names in TIME_METRICS.items():
        if name in names:
            return metric
    return OTHER_METRICS[name.split(".", 1)[0]]


def layer_metrics(spans, counters) -> dict:
    """Per-layer metrics of one traced command; every LAYER_METRICS name."""
    out = {m: 0 if m in COUNT_METRICS else 0.0 for m in LAYER_METRICS}
    for (name, _, _, _), dt in zip(spans, self_times(spans)):
        out[span_metric(name)] += dt
    calls = Counter(name for name, _, _, _ in spans)
    for metric, name in CALL_METRICS.items():
        out[metric] = calls[name]
    for metric, value in counters.items():
        out[metric] = value
    return out
