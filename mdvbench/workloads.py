"""The three benchmark workloads: input generation, references and one timed pass.

Every workload is built from ``--seed`` alone and hands mdvkit only generated
operators or files.  Each answer is compared with :mod:`reference`, which
never goes through mdvkit.

* ``suite``: ``verify.builtin_suite(seed)`` plus report rendering, the path
  behind ``mdvkit verify --builtin-suite``.  Dominated by the exact affine
  route; parsing plays no part.
* ``iterative``: ``displacement_iterative`` on a bank of compositions at
  dim 5 and dim 50.  Capped normalized-iterate items (orthogonal factors) and
  fast residual-route items share one pass, so a change that speeds one kind
  and slows the other shows in ``item_ms_p50`` versus ``item_ms_p90``.
* ``scenario``: ``cli.main`` on generated scenario files (dim 5 and dim 50,
  every operator kind, every check) and on the shipped ones.  The only
  workload that parses scenarios and renders estimate and CSV reports.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
from dataclasses import dataclass, field

import numpy as np

from probe import clock
from reference import affine_pair, reference_mdv

#: Tolerance for answers of the exact affine route.
EXACT_TOL = 1e-9
#: Tolerance for answers of the iterative route.
ITERATIVE_TOL = 1e-4
#: An exact-route answer further than this multiple of ``EXACT_TOL`` from the
#: reference is wrong, not merely inaccurate, and fails the run.  Iterative
#: answers carry no error bound, so their misses only lower ``accurate_frac``
#: (which has its own bound).
GROSS_FACTOR = 100.0

#: Settings of acceptance criterion 11.
ITER_MAX = 20_000
ITER_TOL = 1e-7


@dataclass
class Accuracy:
    """Answers compared with a reference: how many, how many within tolerance."""

    checked: int = 0
    accurate: int = 0
    worst_ratio: float = 0.0
    wrong: list = field(default_factory=list)

    def miss(self, count):
        """Answers that have a reference but were never produced (the item failed)."""
        self.checked += count

    def add(self, label, got, want, tol):
        err = float(np.linalg.norm(np.asarray(got, dtype=float) - np.asarray(want, dtype=float)))
        self.checked += 1
        self.accurate += err <= tol
        self.worst_ratio = max(self.worst_ratio, err / tol)
        if tol <= EXACT_TOL and err > GROSS_FACTOR * tol:
            self.wrong.append(f"{label}: error {err:.3e} exceeds {GROSS_FACTOR:g} x tol {tol:g}")


@dataclass
class PassResult:
    """One pass: per-item latencies, failed items, answer check, output digest.

    ``run_pass(mark)`` calls ``mark(label)`` before each item, outside its
    timing, so that the tracer can tag the item's spans.  Items are timed
    with :func:`probe.clock`, which leaves out time spent in probes.
    """

    item_ns: list = field(default_factory=list)
    #: Factor that rescales this pass's times to the probe's reference speed.
    scale: float = 1.0
    failed: list = field(default_factory=list)
    accuracy: Accuracy = field(default_factory=Accuracy)
    digest: str = ""


def _floats(x):
    """Report values are 17-digit decimal strings; turn them back into floats."""
    if isinstance(x, list):
        return [_floats(v) for v in x]
    return float(x)


def _affine(M, b):
    return {"affine": {"M": np.asarray(M).tolist(), "b": np.asarray(b).tolist()}}


def _projector(kind, **body):
    return {"projector": {kind: {k: np.asarray(v).tolist() if isinstance(v, np.ndarray) else v
                                 for k, v in body.items()}}}


def _orthogonal(rng, dim):
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.where(np.diag(r) >= 0.0, 1.0, -1.0)


def _scaled(rng, dim, norm):
    g = rng.standard_normal((dim, dim))
    return (norm / np.linalg.norm(g, 2)) * g


def _psd(rng, dim, top):
    g = rng.standard_normal((dim, dim))
    Q = g @ g.T
    Q = (Q + Q.T) / 2.0
    return Q * (top / np.linalg.eigvalsh(Q)[-1])


def _mono(Q, q):
    return {"Q": Q.tolist(), "q": q.tolist()}


def _halfspace_translation(rng, dim, translation_first):
    normal = rng.standard_normal(dim)
    half = _projector("halfspace", normal=normal, offset=float(rng.standard_normal()))
    push = _affine(np.eye(dim), 0.5 * rng.standard_normal(dim))
    return {"compose": [push, half] if translation_first else [half, push]}


def _bounded_mix(rng, dim):
    parts = []
    for kind in rng.permutation(["box", "ball", "halfspace"])[:2]:
        center = 0.5 * rng.standard_normal(dim)
        if kind == "box":
            half = 0.4 + 0.6 * rng.random(dim)
            parts.append(_projector("box", lo=center - half, hi=center + half))
        elif kind == "ball":
            parts.append(_projector("ball", center=center, radius=0.5 + float(rng.random())))
        else:
            normal = rng.standard_normal(dim)
            parts.append(_projector("halfspace", normal=normal, offset=float(normal @ center)))
    parts.append(_affine(np.eye(dim), 0.2 * rng.standard_normal(dim)))
    return {"compose": [parts[i] for i in rng.permutation(len(parts))]}


def _digest(*chunks) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c if isinstance(c, bytes) else c.encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# suite


class SuiteWorkload:
    """``verify.builtin_suite(seed)`` at its defaults, rendered to report text."""

    def setup(self, mdv, seed, workdir):
        self.mdv, self.seed = mdv, seed
        self.references = self._references(seed)

    @staticmethod
    def _references(seed):
        """Rows of the builtin suite whose answers have an independent reference.

        The suite's inputs follow from its seed: the closed-form sweep draws
        its vectors from ``SeedSequence(seed, spawn_key=(9,))`` and each
        cyclic projector mix holds a box or a ball projector (two of the
        three set kinds are drawn), so its mdv is zero.
        """
        e1, e2, eye2 = np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.eye(2)
        r1, r2 = _affine(-eye2, -e1), _affine(-eye2, -e2)
        refs = {("two_map_counterexample", 0): {
            "second_after_first": reference_mdv({"compose": [r1, r2]}, 2),
            "first_after_second": reference_mdv({"compose": [r2, r1]}, 2)}}
        n1, n2, n3 = _affine(-eye2, np.zeros(2)), _affine(-eye2, e1), _affine(eye2, -e1)
        refs[("noncyclic_counterexample", 0)] = {
            "last_first_second": reference_mdv({"compose": [n1, n2, n3]}, 2),
            "second_first_last": reference_mdv({"compose": [n2, n1, n3]}, 2)}
        rng = np.random.default_rng(np.random.SeedSequence(entropy=abs(seed), spawn_key=(9,)))
        eye3 = np.eye(3)
        for t in range(5):
            a = [rng.standard_normal(3) for _ in range(3)]
            for k, deltas in enumerate(itertools.product((-1, 0, 1), repeat=3)):
                parts = [_affine(d * eye3, -v) for d, v in zip(deltas, a)]
                refs[("three_op_closed_form", 27 * t + k)] = reference_mdv({"compose": parts}, 3)
        for idx in range(20):
            refs[("cyclic_mix", idx)] = 0.0
        down = _affine(eye2, -e1)
        whole = _projector("affine_subspace", base=[0.0, 0.0], basis=[[1.0, 0.0], [0.0, 1.0]])
        wall = _projector("halfspace", normal=[-1.0, 0.0], offset=0.0)
        refs[("projected_gradient_bound", 0)] = reference_mdv({"compose": [down, whole]}, 2)
        refs[("projected_gradient_bound", 1)] = reference_mdv({"compose": [down, wall]}, 2)
        return refs

    def run_pass(self, mark=None):
        mdv, out = self.mdv, PassResult()
        if mark:
            mark("builtin-suite")
        start = clock()
        try:
            reports = mdv.verify.builtin_suite(self.seed)
            payload = mdv.scenario.verify_payload("builtin-suite", self.seed, reports)
            text = mdv.scenario.dumps_report(payload)
        except Exception as exc:  # a raising item is counted, not fatal
            out.item_ns.append(clock() - start)
            out.failed.append(f"builtin suite: {type(exc).__name__}: {exc}")
            out.accuracy.miss(sum(len(r) if isinstance(r, dict) else 1
                                  for r in self.references.values()))
            return out
        out.item_ns.append(clock() - start)
        bad = [r.check_name for r in reports if r.hypothesis_met and not r.passed]
        if bad:
            out.failed.append(f"builtin suite: {len(bad)} failed rows, first {bad[0]}")
        out.digest = _digest(text)
        self._check(json.loads(text)["checks"], out.accuracy)
        return out

    def _check(self, rows, acc):
        # The suite seeds instance i of its cyclic projector mixes with
        # (seed * 1_000_003 + 20_000 + i) mod 2**31; its other cyclic_norm
        # rows are exact-route instances without a reference here.
        mix_seeds = [(abs(self.seed) * 1_000_003 + 20_000 + i) % 2**31 for i in range(20)]
        seen = {}
        for row in rows:
            name = row["check_name"]
            if name == "cyclic_norm":
                if int(row["seed"]) not in mix_seeds:
                    continue
                name = "cyclic_mix"
            k = seen.get(name, 0)
            seen[name] = k + 1
            ref = self.references.get((name, k))
            if ref is None:
                continue
            label = f"{name}[{k}]"
            if name in ("cyclic_mix", "projected_gradient_bound"):
                acc.add(label, _floats(row["witness"]), ref, ITERATIVE_TOL)
            elif isinstance(ref, dict):
                for key, want in ref.items():
                    acc.add(f"{label}.{key}", _floats(row["lhs"][key]), want, EXACT_TOL)
            else:
                acc.add(label, _floats(row["lhs"]), ref, EXACT_TOL)
        expected = {"three_op_closed_form": 135, "cyclic_mix": 20, "projected_gradient_bound": 2}
        for name, count in expected.items():
            if seen.get(name, 0) != count:
                acc.wrong.append(f"suite report has {seen.get(name, 0)} {name} rows, expected {count}")


# ---------------------------------------------------------------------------
# iterative


def iterative_bank(seed):
    """Seeded specs at dim 5 and dim 50, as ``(label, dim, spec)``.

    Per dim: (a) 6 compositions of 2-4 affine maps with orthogonal linear
    parts, which take the normalized-iterate route and run to the step cap;
    (b) 8 compositions of 2-4 averaged affine maps (residual route);
    (c) 6 halfspace-plus-translation pipelines in both orders and 6
    box/ball/halfspace mixes with a translation (residual route, closed-form
    answers).  The capped items are 23% of the bank, so ``item_ms_p90``
    measures them and ``item_ms_p50`` the fast items.
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=abs(seed), spawn_key=(1,)))
    bank = []
    for dim in (5, 50):
        for i in range(6):
            parts = [_affine(_orthogonal(rng, dim), 0.2 * rng.standard_normal(dim))
                     for _ in range(2 + i % 3)]
            bank.append((f"orthogonal{len(parts)}-d{dim}.{i}", dim, {"compose": parts}))
        for i in range(8):
            parts = [_affine(_scaled(rng, dim, 0.95), 0.2 * rng.standard_normal(dim))
                     for _ in range(2 + i % 3)]
            bank.append((f"averaged{len(parts)}-d{dim}.{i}", dim, {"compose": parts}))
        for i in range(6):
            bank.append((f"halfspace-translation-d{dim}.{i}", dim,
                         _halfspace_translation(rng, dim, translation_first=bool(i % 2))))
        for i in range(6):
            bank.append((f"bounded-mix-d{dim}.{i}", dim, _bounded_mix(rng, dim)))
    return bank


def build_operator(mdv, spec):
    """mdvkit operator for the spec kinds the iterative bank uses."""
    (kind, body), = spec.items()
    if kind == "affine":
        return mdv.operators.AffineMap(np.array(body["M"]), np.array(body["b"]))
    if kind == "compose":
        return mdv.operators.Composition([build_operator(mdv, p) for p in body])
    (set_kind, s), = body.items()
    sets = mdv.sets
    if set_kind == "box":
        cset = sets.Box(np.array(s["lo"]), np.array(s["hi"]))
    elif set_kind == "ball":
        cset = sets.Ball(np.array(s["center"]), s["radius"])
    else:
        cset = sets.Halfspace(np.array(s["normal"]), s["offset"])
    return mdv.operators.SetProjector(cset)


class IterativeWorkload:
    """``displacement_iterative`` with the settings of acceptance criterion 11."""

    def setup(self, mdv, seed, workdir):
        self.mdv = mdv
        self.bank = iterative_bank(seed)
        self.references = [reference_mdv(spec, dim) for _, dim, spec in self.bank]

    def run_pass(self, mark=None):
        mdv, out = self.mdv, PassResult()
        # Fresh operator objects every pass: flatten and regularity results are
        # cached on the operator, and a caller estimating a new pipeline pays them.
        ops = [build_operator(mdv, spec) for _, _, spec in self.bank]
        vectors = []
        for (label, _, _), op, ref in zip(self.bank, ops, self.references):
            if mark:
                mark(label)
            start = clock()
            try:
                est = mdv.displacement.displacement_iterative(op, max_iter=ITER_MAX, tol=ITER_TOL)
            except Exception as exc:  # a raising item is counted, not fatal
                out.item_ns.append(clock() - start)
                out.failed.append(f"{label}: {type(exc).__name__}: {exc}")
                out.accuracy.miss(ref is not None)
                vectors.append(None)
                continue
            out.item_ns.append(clock() - start)
            vectors.append((est.vector.tobytes(), est.iterations))
            if ref is not None:
                out.accuracy.add(label, est.vector, ref, ITERATIVE_TOL)
        out.digest = _digest(repr(vectors))
        return out


# ---------------------------------------------------------------------------
# scenario


def scenario_dict(rng, dim, name):
    """A scenario covering every operator kind, every set kind and every check."""
    eye = np.eye(dim)
    e = eye[0]
    shift = 0.3 * rng.standard_normal(dim)
    A, B, C = (_psd(rng, dim, 0.5 + float(rng.random())) for _ in range(3))
    qa, qb = rng.standard_normal(dim), rng.standard_normal(dim)
    contraction = _affine(_scaled(rng, dim, 0.9), 0.2 * rng.standard_normal(dim))
    rotation = _affine(_orthogonal(rng, dim), 0.2 * rng.standard_normal(dim))
    grad = {"gradstep": {"Q": C.tolist(), "q": rng.standard_normal(dim).tolist(),
                         "step": 1.0 / float(np.linalg.eigvalsh(C)[-1])}}
    operators = [
        contraction,                                                          # 0
        rotation,                                                             # 1
        _projector("affine_subspace", base=rng.standard_normal(dim),
                   basis=rng.standard_normal((2, dim))),                      # 2
        {"resolvent": _mono(A, qa)},                                          # 3
        {"reflected": _mono(B, qb)},                                          # 4
        grad,                                                                 # 5
        _affine(eye, shift),                                                  # 6
        _affine(eye, -shift),                                                 # 7
        _halfspace_translation(rng, dim, translation_first=False),            # 8
        _halfspace_translation(rng, dim, translation_first=True),             # 9
        _bounded_mix(rng, dim),                                               # 10
        {"combo": {"weights": [0.5, 0.5], "parts": [
            _projector("halfspace", normal=rng.standard_normal(dim), offset=0.0),
            _projector("singleton", point=rng.standard_normal(dim))]}},       # 11
        {"compose": [{"resolvent": _mono(A, qa)}, grad, contraction]},        # 12
        {"combo": {"weights": [0.3, 0.7], "parts": [rotation, {"reflected": _mono(B, qb)}]}},  # 13
    ]
    checks = [
        {"name": "range_formula_composition", "ops": [0, 3, 5]},
        {"name": "permutation_displacement", "ops": [0, 1, 4], "sigma": [2, 0, 1]},
        {"name": "norm_bound_composition", "ops": [0, 2]},
        {"name": "cyclic_norm", "ops": [0, 1, 3]},
        {"name": "noncyclic_counterexample", "u": (0.5 * e + 0.1 * shift).tolist()},
        {"name": "three_op_closed_form", "deltas": [1, -1, -1],
         "a": (0.5 * rng.standard_normal((3, dim))).tolist()},
        {"name": "convex_combination", "ops": [0, 4], "weights": [0.3, 0.7]},
        {"name": "zero_sum_corollary", "ops": [6, 7], "weights": [0.5, 0.5]},
        {"name": "cocoercive_averaged_equivalence", "A": _mono(A, qa), "samples": 200},
        {"name": "brezis_haraux_affine", "A": _mono(A, qa), "B": _mono(B, qb)},
        {"name": "translation_formula", "A": _mono(A, qa), "B": _mono(B, qb),
         "y": rng.standard_normal(dim).tolist(), "samples": 50},
        {"name": "range_identity_reflected", "A": _mono(B, qb)},
        # I + PSD keeps the projected-gradient map a contraction, so the
        # iterative check ends in a few hundred steps even at dim 50.
        {"name": "projected_gradient_bound", "Q": (eye + C).tolist(),
         "q": rng.standard_normal(dim).tolist(),
         "set": {"ball": {"center": np.zeros(dim).tolist(), "radius": 1.0}}, "alpha": 1.0},
    ]
    return {"name": name, "dim": dim, "seed": int(rng.integers(1 << 30)),
            "operators": operators, "checks": checks,
            "estimator": {"x0": (0.1 * rng.standard_normal(dim)).tolist(),
                          "max_iter": ITER_MAX, "tol": ITER_TOL}}


class ScenarioWorkload:
    """``estimate``, ``verify`` and ``report --format csv`` through ``cli.main``."""

    def __init__(self, shipped_dir):
        self.shipped = sorted(os.path.join(shipped_dir, f) for f in os.listdir(shipped_dir)
                              if f.endswith(".json"))
        if not self.shipped:
            raise FileNotFoundError(f"no scenario files in {shipped_dir}")

    def setup(self, mdv, seed, workdir):
        self.mdv, self.workdir = mdv, workdir
        rng = np.random.default_rng(np.random.SeedSequence(entropy=abs(seed), spawn_key=(2,)))
        paths = list(self.shipped)
        for dim in (5, 50):
            path = os.path.join(workdir, f"generated-d{dim}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(scenario_dict(rng, dim, f"generated-d{dim}"), fh)
            paths.append(path)
        self.files = []
        for path in paths:
            with open(path, encoding="utf-8") as fh:
                raw = json.load(fh)
            refs = []
            for spec in raw["operators"]:
                want = reference_mdv(spec, raw["dim"])
                tol = EXACT_TOL if affine_pair(spec, raw["dim"]) is not None else ITERATIVE_TOL
                refs.append(None if want is None else (want, tol))
            stem = os.path.join(workdir, "out-" + os.path.basename(path)[:-5])
            self.files.append((path, stem, refs))

    def run_pass(self, mark=None):
        main, out = self.mdv.cli.main, PassResult()
        chunks = []
        for path, stem, refs in self.files:
            label = os.path.basename(path)
            commands = (
                (["estimate", path, "--out", stem + ".estimate.json"], stem + ".estimate.json"),
                (["verify", path, "--out", stem + ".verify.json"], stem + ".verify.json"),
                (["report", stem + ".verify.json", "--format", "csv", "--out", stem + ".csv"],
                 stem + ".csv"),
            )
            for argv, target in commands:
                if mark:
                    mark(f"{argv[0]} {label}")
                start = clock()
                try:
                    rc = main(argv)
                except Exception as exc:  # a raising item is counted, not fatal
                    rc = f"{type(exc).__name__}: {exc}"
                out.item_ns.append(clock() - start)
                if rc != 0:
                    out.failed.append(f"{argv[0]} {label}: exit code or error {rc}")
                    if argv[0] == "estimate":
                        out.accuracy.miss(sum(r is not None for r in refs))
                    continue
                with open(target, "rb") as fh:
                    body = fh.read()
                chunks.append(body)
                if argv[0] == "estimate":
                    for i, entry in enumerate(json.loads(body)["estimates"]):
                        if refs[i] is not None:
                            out.accuracy.add(f"{label} op[{i}]", _floats(entry["vector"]), *refs[i])
                elif argv[0] == "verify":
                    rows = json.loads(body)["checks"]
                    bad = [r["check_name"] for r in rows if r["hypothesis_met"] and not r["pass"]]
                    if bad:
                        out.failed.append(f"verify {label}: failed rows {bad}")
        out.digest = _digest(*chunks)
        return out


def make(name, root):
    if name == "suite":
        return SuiteWorkload()
    if name == "iterative":
        return IterativeWorkload()
    if name == "scenario":
        return ScenarioWorkload(os.path.join(root, "scenarios"))
    raise ValueError(f"unknown workload {name!r}")
