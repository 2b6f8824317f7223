"""mdvkit benchmark: seeded workloads, independent answer checks, traced layers.

Usage, from the repository root::

    python3 mdvbench/run.py --workload suite|iterative|scenario|all \\
        --seed N --seconds S --trace 0|1

``--trace 0`` sets mdvkit up several times (import, inputs, references and
one warm-up pass each), then repeats timed passes for ``--seconds`` and
prints the end-to-end metrics, every time rescaled to a reference machine
speed by the probe of ``probe.py``.  ``--trace 1`` spends half the time on
untraced passes and half on passes with spans around every public function,
and prints the per-layer metrics.  Metric names and units come from
``BENCHMARK.json``.  The last line of output is one JSON object; the exit code
is 1 when an answer is wrong or a determinism gate fails, and 2 when the
benchmark cannot start.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads: the problems are small and dense,
# and OpenBLAS would otherwise start one thread per core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import types  # noqa: E402

import numpy as np  # noqa: E402

import tracer  # noqa: E402
from probe import Probe, clock  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("suite", "iterative", "scenario")
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: Fewest timed passes per run, whatever ``--seconds`` says.
MIN_PASSES = 3
#: Probes right after each timed pass and each set-up, on top of those the
#: timer takes during it, so that a short pass has samples too.
PROBES = 2
#: Fewest traced passes (each paired with an untraced one): the counts of
#: two traced passes must agree exactly.
MIN_TRACED = 2


class StartError(Exception):
    """The benchmark cannot run here (no mdvkit sources, no definition file)."""


def load_definition():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        raise StartError(f"cannot read {path}: {exc}") from exc
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def load_mdvkit():
    """Import mdvkit afresh from this checkout's ``src``, never from site-packages."""
    if not os.path.isfile(os.path.join(SRC, "mdvkit", "__init__.py")):
        raise StartError(f"mdvkit sources not found under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    for name in [n for n in sys.modules if n == "mdvkit" or n.startswith("mdvkit.")]:
        del sys.modules[name]
    pkg = importlib.import_module("mdvkit")
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        raise StartError(f"imported mdvkit from {pkg.__file__}, not from {SRC}")
    return types.SimpleNamespace(
        **{layer: importlib.import_module(f"mdvkit.{layer}") for layer in tracer.LAYERS})


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = 0
    for dirpath, _, files in os.walk(SRC):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), "rb") as fh:
                    src_lines += fh.read().count(b"\n")
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": len(os.sched_getaffinity(0)), "src_lines": src_lines}


def setup(workload, seed, workdir):
    """Import, inputs, references and one warm-up pass; returns (seconds, warm-up pass)."""
    start = clock()
    workload.setup(load_mdvkit(), seed, workdir)
    warm = workload.run_pass()
    return (clock() - start) / 1e9, warm


def timed_passes(workload, seconds, probe):
    """Passes for ``seconds``, each with its probe-based rescaling factor."""
    passes = []
    deadline = time.perf_counter() + seconds
    with probe.armed():
        while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
            gc.collect()
            p = workload.run_pass()
            probe.take(PROBES)
            p.scale = probe.scale()
            passes.append(p)
    return passes


class Run:
    """Collects passes of one workload and the gates they must pass."""

    def __init__(self):
        self.problems = []
        self.baseline = None

    def check(self, passes):
        for i, p in enumerate(passes):
            if self.baseline is None:
                self.baseline = p.digest
            elif p.digest != self.baseline:
                self.problems.append(f"pass {i}: output bytes differ from the first pass")
            self.problems.extend(p.accuracy.wrong)

    def gate_untraced(self):
        found = tracer.installed_wrappers()
        if found:
            self.problems.append(f"untraced run found tracing wrappers: {found[:3]}")


def summarize(passes):
    """End-to-end figures over timed passes, and the counts behind them.

    Times are rescaled by each pass's probe factor (1 for passes without
    probes).  Item percentiles are taken within each pass and their median
    over passes is reported: every pass runs the same items, so a percentile
    pooled over passes would sit on the edge between two items' latencies
    whenever the rank falls between them.  ``suite`` has one item per pass,
    so its two percentiles both equal its pass time.
    """
    attempted = sum(len(p.item_ns) for p in passes)
    checked = sum(p.accuracy.checked for p in passes)
    accurate = sum(p.accuracy.accurate for p in passes)
    failed = sum(len(p.failed) for p in passes)
    return {
        "wall_s": statistics.median(p.scale * sum(p.item_ns) for p in passes) / 1e9,
        "item_ms_p50": float(statistics.median(
            p.scale * np.percentile(p.item_ns, 50) for p in passes)) / 1e6,
        "item_ms_p90": float(statistics.median(
            p.scale * np.percentile(p.item_ns, 90) for p in passes)) / 1e6,
        "accurate_frac": accurate / checked if checked else 0.0,
    }, {"attempted": attempted, "failed": failed, "accurate": accurate, "checked": checked,
        "passes": len(passes), "worst_error_over_tol": max(p.accuracy.worst_ratio for p in passes),
        "failures": sorted({f for p in passes for f in p.failed})[:5]}


def run_untraced(name, seed, seconds, workdir):
    workload, run, probe = workloads.make(name, ROOT), Run(), Probe()
    setups, raw_setups, warmups = [], [], []
    with probe.armed():
        for _ in range(SETUPS):
            elapsed, warm = setup(workload, seed, workdir)
            probe.take(PROBES)
            raw_setups.append(elapsed)
            setups.append(elapsed * probe.scale())
            warmups.append(warm)
    run.check(warmups)
    run.gate_untraced()
    passes = timed_passes(workload, seconds, probe)
    run.gate_untraced()
    run.check(passes)
    metrics, counts = summarize(passes)
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    counts["raw_setups_s"] = raw_setups
    counts["raw_wall_s"] = statistics.median(sum(p.item_ns) for p in passes) / 1e9
    counts["probe_scale_median"] = statistics.median(p.scale for p in passes)
    return run, metrics, counts


def run_traced(name, seed, seconds, workdir):
    """Untraced and traced passes alternate, so drift in machine speed hits both.

    ``trace.overhead_frac`` is the median over adjacent pairs of traced pass
    time over untraced pass time, minus one.
    """
    workload, run = workloads.make(name, ROOT), Run()
    _, warm = setup(workload, seed, workdir)
    run.check([warm])
    tr = tracer.Tracer()
    plain, traced, per_pass_spans = [], [], []
    deadline = time.perf_counter() + seconds
    while len(traced) < MIN_TRACED or time.perf_counter() < deadline:
        run.gate_untraced()
        gc.collect()
        plain.append(workload.run_pass())
        gc.collect()
        tr.mark(None)
        tr.install()
        try:
            traced.append(workload.run_pass(tr.mark))
        finally:
            tr.remove()
        per_pass_spans.append(list(tr.spans))
        tr.spans.clear()
    run.gate_untraced()
    run.check(plain + traced)
    per_pass = [tracer.pass_metrics(spans) for spans in per_pass_spans]
    try:
        metrics = tracer.combine(per_pass)
    except ValueError as exc:
        run.problems.append(str(exc))
        metrics = per_pass[0]
    metrics["trace.overhead_frac"] = statistics.median(
        sum(t.item_ns) / sum(p.item_ns) for p, t in zip(plain, traced)) - 1.0
    _, counts = summarize(plain + traced)
    counts["traced_passes"] = len(traced)
    counts["spans_per_pass"] = len(per_pass_spans[-1])
    write_spans(name, per_pass_spans)
    print_layer_table(name, per_pass_spans[-1])
    return run, metrics, counts


def write_spans(name, per_pass_spans):
    """One JSON array per span: pass, name, start_ns, end_ns, parent, item."""
    path = os.path.join(OUT, f"spans-{name}.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        for i, spans in enumerate(per_pass_spans):
            for s in spans:
                fh.write(json.dumps([i] + s[:tracer.NESTED]) + "\n")
    print(f"# {name}: spans of {len(per_pass_spans)} traced passes in {os.path.relpath(path, ROOT)}")


def print_layer_table(name, spans):
    stats = tracer.layer_stats(spans)
    print(f"# {name}: last traced pass, every wrapped function (calls, total ms, self ms)")
    for fn, st in sorted(stats.items(), key=lambda kv: -kv[1]["self_ns"]):
        print(f"#   {fn:<52} {st['calls']:>8} {st['total_ns'] / 1e6:>10.2f} {st['self_ns'] / 1e6:>10.2f}")


def run_workload(name, seed, seconds, trace, units):
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT)
    try:
        run, metrics, counts = (run_traced if trace else run_untraced)(name, seed, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if set(metrics) != set(units):
        missing, extra = sorted(set(units) - set(metrics)), sorted(set(metrics) - set(units))
        run.problems.append(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")
    failed_frac = counts["failed"] / counts["attempted"]
    print(f"# {name}: {json.dumps(counts)}")
    for key in sorted(metrics):
        print(f"{name} {key} = {metrics[key]!r} {units.get(key, '?')}")
    if not trace:
        print(f"{name} accurate_frac base = {counts['checked']} answers over "
              f"{counts['passes']} passes ({counts['accurate']} accurate)")
    print(f"{name} failed_frac = {failed_frac!r} ratio ({counts['failed']}/{counts['attempted']})")
    for problem in run.problems:
        print(f"# {name}: FAIL {problem}")
    return run, metrics, counts


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    try:
        end_to_end, per_layer = load_definition()
        load_mdvkit()
    except StartError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("# env " + json.dumps(environment()))
    units = per_layer if args.trace else end_to_end
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        run, values, counts = run_workload(name, args.seed, args.seconds, args.trace, units)
        correct = correct and not run.problems
        attempted += counts["attempted"]
        failed += counts["failed"]
        prefix = "" if len(names) == 1 else f"{name}."
        metrics.update({prefix + k: {"value": v, "unit": units.get(k, "?")} for k, v in values.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
