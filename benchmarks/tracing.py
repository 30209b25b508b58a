"""Per-layer tracing from outside the program.

Each hook replaces a function under the name its caller looks it up by (the
callers import by name, so `gsalab.radial.log1mexp` and `gsalab.cap.log1mexp`
are two lookup sites of one function) with a wrapper that records a span:
name, start, end, parent span and op id.  Spans stay in memory and are
written once, at exit.  A span's self time is its duration minus the time
its child spans cover.  Counters ride on the same hooks, so ratios such as
normals used per normal drawn are measured where the work happens.

A hook whose target no longer exists is reported absent and skipped, so a
refactor that renames or removes a function degrades the trace instead of
breaking the benchmark.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

OBJECTIVE = "golden.objective"
_GOLDEN = ("golden.grid_then_golden_min", "golden.golden_section_max")


def _betacf_elems(tracer, args, kwargs, result):
    tracer.counts["cap._betacf.elems"] += np.size(args[2])


def _facet_tests(tracer, args, kwargs, result):
    polytope, points = args[0], args[1]
    tracer.counts["polytope.contains_points.point_facet_tests"] += (
        np.shape(points)[0] * polytope.num_facets)


def _naz_normals_used(tracer, args, kwargs, result):
    tracer.counts["rng.normals_used"] += result.num_facets * result.n


def _facet_samples_used(tracer, args, kwargs, result):
    K = args[0]
    tracer.counts["rng.normals_used"] += K.num_facets * args[1] * K.n


# (span name, module, attribute path looked up by the caller, options)
HOOKS = [
    ("specfun.chi_log_density", "gsalab.radial", "chi_log_density", {}),
    ("specfun.log1mexp", "gsalab.radial", "log1mexp", {}),
    ("specfun.log1mexp", "gsalab.cap", "log1mexp", {}),
    ("cap._betacf", "gsalab.cap", "_betacf", {"count": _betacf_elems}),
    ("cap.log_betainc_reg", "gsalab.cap", "log_betainc_reg", {}),
    ("cap.cap_log_complement_from_ratio", "gsalab.radial", "cap_log_complement_from_ratio", {}),
    ("cap.log_F_dilation", "gsalab.radial", "log_F_dilation", {}),
    ("cap.log_complement_upper_from_ratio", "gsalab.radial",
     "log_complement_upper_from_ratio", {}),
    ("golden.grid_then_golden_min", "gsalab.radial", "grid_then_golden_min", {}),
    ("golden.golden_section_max", "gsalab.radial", "golden_section_max", {}),
    ("golden.golden_section_max", "gsalab.golden", "golden_section_max", {}),
    ("quadrature.composite_nodes", "gsalab.radial", "composite_nodes", {}),
    ("quadrature.composite_nodes", "gsalab.quadrature", "composite_nodes", {}),
    ("quadrature.integrate_doubling", "gsalab.radial", "integrate_doubling", {}),
    ("radial.expected_influence_quadrature", "gsalab.radial",
     "expected_influence_quadrature", {}),
    ("radial.node_table", "gsalab.radial", "_node_table", {"cache": True}),
    ("radial.optimize_s", "gsalab.radial", "optimize_s", {}),
    ("radial.lower_bound_chain", "gsalab.radial", "lower_bound_chain", {}),
    ("radial.scan_report", "gsalab.radial", "scan_report", {}),
    ("rng.stream", "gsalab.rng", "stream", {"generator": True}),
    ("rng.gaussian_chunks", "gsalab.rng", "gaussian_chunks", {"chunks": True}),
    ("polytope.sample_naz", "gsalab.polytope", "sample_naz", {"count": _naz_normals_used}),
    ("polytope.contains_points", "gsalab.polytope", "HalfspacePolytope.contains_points",
     {"count": _facet_tests}),
    ("estimators._mc_over_body", "gsalab.estimators", "_mc_over_body", {}),
    ("estimators.estimate_hermite_coefficients", "gsalab.estimators",
     "estimate_hermite_coefficients", {}),
    ("estimators.estimate_influence_spectral", "gsalab.estimators",
     "estimate_influence_spectral", {}),
    ("estimators.estimate_volume", "gsalab.estimators", "estimate_volume", {}),
    ("estimators.estimate_gsa_facets", "gsalab.estimators", "estimate_gsa_facets",
     {"count": _facet_samples_used}),
    ("hermite.h2", "gsalab.estimators", "h2", {}),
    ("cli._emit", "gsalab.cli", "_emit", {}),
    ("cli.main", "gsalab.cli", "main", {}),
]


class _CountingGenerator:
    """Delegates to a numpy Generator, timing and counting every normal drawn."""

    def __init__(self, gen, tracer):
        self._gen = gen
        self._tracer = tracer
        self._idx = tracer.name_index("rng.standard_normal")

    def standard_normal(self, *args, **kwargs):
        self._tracer.open(self._idx)
        try:
            out = self._gen.standard_normal(*args, **kwargs)
        finally:
            self._tracer.close()
        self._tracer.counts["rng.normals_drawn"] += np.size(out)
        return out

    def __getattr__(self, name):
        return getattr(self._gen, name)


class Tracer:
    """Span recorder plus the install/uninstall of every hook in HOOKS."""

    def __init__(self, hooks=HOOKS):
        self.hooks = hooks
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        # Closed spans, column-wise: id, name index, start, end, parent id, op id.
        self.span_id = array("q")
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_op = array("q")
        # Open spans: [id, name index, start, time covered by children].
        self._stack: list[list] = []
        self._next_id = 0
        self.op_id = -1
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.absent: list[str] = []
        self._undo: list = []

    def name_index(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def open(self, idx: int) -> None:
        self._stack.append([self._next_id, idx, perf_counter(), 0.0])
        self._next_id += 1

    def close(self) -> None:
        end = perf_counter()
        span_id, idx, start, covered = self._stack.pop()
        duration = end - start
        parent = -1
        if self._stack:
            self._stack[-1][3] += duration
            parent = self._stack[-1][0]
        name = self.names[idx]
        self.calls[name] += 1
        self.self_s[name] += duration - covered
        # total_s counts outermost spans of a name only, so recursion through
        # two lookup sites of one function is not counted twice.
        if not any(frame[1] == idx for frame in self._stack):
            self.total_s[name] += duration
        self.span_id.append(span_id)
        self.span_name.append(idx)
        self.span_start.append(start)
        self.span_end.append(end)
        self.span_parent.append(parent)
        self.span_op.append(self.op_id)

    def _in_golden(self) -> bool:
        return any(self.names[frame[1]] in _GOLDEN for frame in self._stack)

    def _wrap(self, name, fn, options):
        tracer = self
        idx = self.name_index(name)
        count = options.get("count")

        if options.get("chunks"):
            @functools.wraps(fn)
            def chunks(*args, **kwargs):
                for block in fn(*args, **kwargs):
                    tracer.counts["rng.normals_used"] += block.size
                    yield block
            return chunks

        objective_idx = self.name_index(OBJECTIVE) if name in _GOLDEN else None
        cached = options.get("cache") and hasattr(fn, "cache_info")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if objective_idx is not None and not tracer._in_golden():
                args = (tracer._objective(args[0], objective_idx),) + args[1:]
            if cached:
                before = fn.cache_info().hits
            tracer.open(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close()
            if cached:
                hit = fn.cache_info().hits > before
                tracer.counts[f"{name}.hits" if hit else f"{name}.misses"] += 1
            if count is not None:
                count(tracer, args, kwargs, result)
            if options.get("generator"):
                result = _CountingGenerator(result, tracer)
            return result

        return wrapper

    def _objective(self, f, idx):
        def objective(x):
            self.open(idx)
            try:
                return f(x)
            finally:
                self.close()
        return objective

    def install(self) -> None:
        """Wrap every hook target that exists; record the rest as absent."""
        for name, module_name, path, options in self.hooks:
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{path}")
                continue
            setattr(owner, attr, self._wrap(name, original, options))
            self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def present(self) -> set[str]:
        """Span names with at least one hook installed."""
        absent = set(self.absent)
        names = {name for name, module_name, path, _ in self.hooks
                 if f"{module_name}.{path}" not in absent}
        if names & set(_GOLDEN):
            names.add(OBJECTIVE)
        if "rng.stream" in names:
            names.add("rng.standard_normal")
        return names

    def summary(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "counts": dict(self.counts),
            "present": sorted(self.present()),
            "absent_hooks": list(self.absent),
        }

    def save_spans(self, path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names),
            id=np.frombuffer(self.span_id, dtype=np.int64),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            op=np.frombuffer(self.span_op, dtype=np.int64))


# Per-layer metrics reported by a traced run, as (name, unit, how to read it
# from a trace summary).  Counts and times are per op, so runs that fit a
# different number of ops into the same seconds stay comparable.
def _per_op(kind, span):
    return lambda s, ops: s[kind].get(span, 0.0) / ops


def _count(key):
    return lambda s, ops: s["counts"].get(key, 0.0) / ops


def _spans(*spans):
    out = []
    for span in spans:
        name, stats = span.split(":")
        for stat in stats.split(","):
            kind = "calls" if stat == "calls" else stat
            unit = "1/op" if stat == "calls" else "s/op"
            out.append((f"{name}.{stat}", unit, _per_op(kind, name), name))
    return out


def _ratio(s, ops):
    drawn = s["counts"].get("rng.normals_drawn", 0.0)
    return s["counts"].get("rng.normals_used", 0.0) / drawn if drawn else 0.0


PER_LAYER = (
    _spans("specfun.chi_log_density:calls,self_s", "specfun.log1mexp:calls,self_s",
           "cap._betacf:calls,self_s")
    + [("cap._betacf.elems", "1/op", _count("cap._betacf.elems"), "cap._betacf")]
    + _spans("cap.log_betainc_reg:calls,self_s",
             "cap.cap_log_complement_from_ratio:calls,self_s",
             "cap.log_F_dilation:calls,self_s",
             "cap.log_complement_upper_from_ratio:calls,self_s",
             "golden.grid_then_golden_min:calls,self_s",
             "golden.golden_section_max:calls,self_s",
             f"{OBJECTIVE}:self_s")
    + [("golden.objective_evals", "1/op", _per_op("calls", OBJECTIVE), OBJECTIVE)]
    + _spans("quadrature.composite_nodes:calls,self_s",
             "quadrature.integrate_doubling:calls,self_s",
             "radial.expected_influence_quadrature:calls,self_s,total_s")
    + [("radial.node_table.hits", "1/op", _count("radial.node_table.hits"), "radial.node_table"),
       ("radial.node_table.misses", "1/op", _count("radial.node_table.misses"),
        "radial.node_table")]
    + _spans("radial.node_table:self_s", "radial.optimize_s:self_s,total_s",
             "radial.lower_bound_chain:self_s,total_s", "radial.scan_report:total_s",
             "rng.stream:calls,self_s", "rng.standard_normal:self_s")
    + [("rng.normals_drawn", "1/op", _count("rng.normals_drawn"), "rng.stream"),
       ("rng.normals_used", "1/op", _count("rng.normals_used"), "rng.gaussian_chunks"),
       ("rng.draw_efficiency", "1", _ratio, "rng.stream")]
    + _spans("polytope.sample_naz:calls,self_s", "polytope.contains_points:calls,self_s")
    + [("polytope.contains_points.point_facet_tests", "1/op",
        _count("polytope.contains_points.point_facet_tests"), "polytope.contains_points"),
       ("estimators.mc_passes", "1/op", _per_op("calls", "estimators._mc_over_body"),
        "estimators._mc_over_body")]
    + _spans("estimators._mc_over_body:self_s",
             "estimators.estimate_hermite_coefficients:total_s",
             "estimators.estimate_influence_spectral:total_s",
             "estimators.estimate_volume:total_s",
             "estimators.estimate_gsa_facets:self_s,total_s",
             "hermite.h2:calls,self_s", "cli._emit:self_s", "cli.main:self_s,total_s")
)


def per_layer(summary: dict, ops: int):
    """Per-layer metrics of one traced run, plus the names whose hook is absent."""
    present = set(summary["present"])
    metrics, absent = {}, []
    for name, unit, read, span in PER_LAYER:
        metrics[name] = {"value": read(summary, ops) if ops else 0.0, "unit": unit}
        if span not in present:
            absent.append(name)
    return metrics, absent
