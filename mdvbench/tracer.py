"""Spans around mdvkit's public functions, installed from outside the package.

:meth:`Tracer.install` wraps every public module-level function of the
layer modules, plus ``AffineMap.__init__``, and rebinds each wrapper wherever
an ``mdvkit.*`` module holds the original (``from .operators import
flatten_to_affine`` in ``displacement`` and ``verify``, for instance).
Spans stay in memory until the run ends; :meth:`Tracer.remove` puts every
original back.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
import time
import types

LAYERS = ("numeric", "sets", "operators", "displacement", "verify", "scenario", "cli")

#: Per-element helpers: called once per vector or per number (and recursively
#: for ``stringify_numbers``), so a span would cost more than the work inside.
UNWRAPPED = frozenset({"numeric.as_vector", "numeric.as_matrix",
                       "scenario.fmt_float", "scenario.stringify_numbers"})

MARK = "__mdvbench_original__"

# Span fields: [name, start_ns, end_ns, parent index or -1, item id, nested, info]
NAME, START, END, PARENT, ITEM, NESTED, INFO = range(7)


def _iterate_info(args, kwargs, est):
    return (args[0].dim, est.iterations, est.converged)


#: Extra facts recorded from a call's arguments and result.
OBSERVERS = {
    "operators.flatten_to_affine": lambda args, kwargs, flat: flat is not None,
    "displacement.displacement_iterative": _iterate_info,
    "scenario.load_scenario": lambda args, kwargs, scn: os.path.getsize(args[0]),
    "scenario.dumps_report": lambda args, kwargs, text: len(text.encode()),
}


def mdvkit_modules():
    return [m for n, m in list(sys.modules.items()) if n == "mdvkit" or n.startswith("mdvkit.")]


def installed_wrappers():
    """Names bound to a tracing wrapper anywhere in mdvkit (empty when untraced)."""
    found = []
    for mod in mdvkit_modules():
        for attr, val in vars(mod).items():
            if hasattr(val, MARK):
                found.append(f"{mod.__name__}.{attr}")
    init = sys.modules["mdvkit.operators"].AffineMap.__dict__["__init__"]
    if hasattr(init, MARK):
        found.append("mdvkit.operators.AffineMap.__init__")
    return found


class Tracer:
    """Records one span per wrapped call: name, start, end, parent span, item id."""

    def __init__(self):
        self.spans = []
        self.item = None
        self._stack = []
        self._patches = []

    def mark(self, item):
        """Tag the spans that follow with ``item`` (``None`` outside timed items)."""
        self.item = item

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        observe = OBSERVERS.get(name)
        depth = [0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, self.item, depth[0] > 0, None]
            stack.append(len(spans))
            spans.append(span)
            depth[0] += 1
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                depth[0] -= 1
                stack.pop()
            if observe is not None:
                span[INFO] = observe(args, kwargs, result)
            return result

        setattr(wrapper, MARK, fn)
        return wrapper

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"mdvkit.{layer}"]
            for attr, val in vars(mod).items():
                name = f"{layer}.{attr}"
                if (isinstance(val, types.FunctionType) and val.__module__ == mod.__name__
                        and not attr.startswith("_") and name not in UNWRAPPED):
                    wrappers[id(val)] = (val, self._wrap(name, val))
        for mod in mdvkit_modules():
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, hit[1])
        affine = sys.modules["mdvkit.operators"].AffineMap
        init = affine.__dict__["__init__"]
        self._patches.append((affine, "__init__", init))
        affine.__init__ = self._wrap("operators.AffineMap.init", init)

    def remove(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def layer_stats(spans):
    """Per span name: calls, total_ms (outermost calls only), self_ms, and facts.

    Only spans inside a timed item count; input building between items has
    no item id.  Self time is a span's duration minus the durations of its
    direct children; children never overlap because the program is
    single-threaded.
    """
    child_ns = [0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_ns[s[PARENT]] += s[END] - s[START]
    stats = {}
    for i, s in enumerate(spans):
        if s[ITEM] is None:
            continue
        st = stats.setdefault(s[NAME], {"calls": 0, "total_ns": 0, "self_ns": 0, "info": []})
        dur = s[END] - s[START]
        st["calls"] += 1
        st["self_ns"] += dur - child_ns[i]
        if not s[NESTED]:
            st["total_ns"] += dur
        if s[INFO] is not None:
            st["info"].append((s[INFO], dur))
    return stats


# Metric names follow the layer table of the benchmark definition.
TIMED_LAYERS = (
    "displacement.displacement_range_affine", "displacement.displacement_exact_affine",
    "numeric.orthonormal_range_basis", "operators.flatten_to_affine", "operators.AffineMap.init",
    "operators.minimal_averagedness", "operators.cocoercivity_modulus",
    "displacement.displacement_iterative", "displacement.minimal_displacement",
    "scenario.load_scenario", "scenario.run_scenario_checks", "scenario.dumps_report",
    "scenario.report_to_csv", "cli.main",
) + tuple(f"verify.check_{c}" for c in (
    "range_formula_composition", "permutation_displacement", "norm_bound_composition",
    "cyclic_norm", "noncyclic_counterexample", "three_op_closed_form", "convex_combination",
    "zero_sum_corollary", "cocoercive_averaged_equivalence", "brezis_haraux_affine",
    "translation_formula", "range_identity_reflected", "projected_gradient_bound"))

#: Dimension buckets for the cost of one fixed-point step.
SMALL_DIM = 10

COUNTS = "calls", "iterations", "capped", "bytes_in", "bytes_out"


def pass_metrics(spans):
    """Per-layer metrics of one traced pass (times in ms, counts exact)."""
    stats = layer_stats(spans)
    empty = {"calls": 0, "total_ns": 0, "self_ns": 0, "info": []}
    out = {}
    for name in TIMED_LAYERS:
        st = stats.get(name, empty)
        out[f"{name}.calls"] = st["calls"]
        out[f"{name}.total_ms"] = st["total_ns"] / 1e6
        out[f"{name}.self_ms"] = st["self_ns"] / 1e6
    suite = stats.get("verify.builtin_suite", empty)
    out["verify.builtin_suite.self_ms"] = suite["self_ns"] / 1e6

    flat = stats.get("operators.flatten_to_affine", empty)
    out["operators.flatten_to_affine.affine_frac"] = (
        sum(ok for ok, _ in flat["info"]) / len(flat["info"]) if flat["info"] else 0.0)

    runs = stats.get("displacement.displacement_iterative", empty)["info"]
    prefix = "displacement.displacement_iterative"
    out[f"{prefix}.iterations"] = sum(it for (_, it, _), _ in runs)
    out[f"{prefix}.capped"] = sum(not conv for (_, _, conv), _ in runs)
    out[f"{prefix}.converged_frac"] = (
        sum(conv for (_, _, conv), _ in runs) / len(runs) if runs else 0.0)
    for bucket, keep in (("dim_le10", lambda d: d <= SMALL_DIM), ("dim_gt10", lambda d: d > SMALL_DIM)):
        sel = [(it, dur) for (d, it, _), dur in runs if keep(d)]
        steps = sum(it for it, _ in sel)
        out[f"{prefix}.us_per_step.{bucket}"] = sum(dur for _, dur in sel) / 1e3 / steps if steps else 0.0

    out["scenario.load_scenario.bytes_in"] = sum(
        b for b, _ in stats.get("scenario.load_scenario", empty)["info"])
    out["scenario.dumps_report.bytes_out"] = sum(
        b for b, _ in stats.get("scenario.dumps_report", empty)["info"])
    return out


def combine(per_pass):
    """Median over traced passes; counts must repeat exactly, else ValueError."""
    first = per_pass[0]
    counts = [k for k in first if k.rsplit(".", 1)[-1] in COUNTS]
    for other in per_pass[1:]:
        diff = [k for k in counts if other[k] != first[k]]
        if diff:
            raise ValueError("traced counts differ between passes: "
                             + ", ".join(f"{k} {first[k]} vs {other[k]}" for k in diff[:5]))
    return {k: first[k] if k in counts else statistics.median(p[k] for p in per_pass)
            for k in first}

