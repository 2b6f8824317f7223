"""Acceptance gate: twelve criteria, one printed pass/fail line each.

Run with ``pytest -v tests/test_acceptance.py -s`` to see the per-criterion
lines as they are produced; every criterion is also an ordinary test.
"""

import functools
import itertools
import json
import time

import numpy as np

from mdvkit.cli import main as cli_main
from mdvkit.displacement import (
    displacement_exact_affine,
    displacement_iterative,
    minimal_displacement,
)
from mdvkit.operators import AffineMap, Composition, GradientStep, SetProjector
from mdvkit.sets import Halfspace, full_space
from mdvkit.verify import (
    check_cocoercive_averaged_equivalence,
    check_convex_combination,
    check_cyclic_norm,
    check_noncyclic_counterexample,
    check_norm_bound_composition,
    check_permutation_displacement,
    check_projected_gradient_bound,
    check_range_formula_composition,
    check_three_op_closed_form,
    check_zero_sum_corollary,
    random_averaged_affine,
    random_merely_nonexpansive_affine,
    random_projector_translation_mix,
    random_psd_monotone,
)


def _line(num, ok, text):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num} failed: {text}"


def _seeded(entropy, idx):
    return np.random.default_rng(np.random.SeedSequence(entropy=entropy, spawn_key=(idx,)))


def _reflection(u):
    u = np.asarray(u, dtype=float)
    return AffineMap(-np.eye(u.size), -u)


# shared instance banks (criteria 4-6 and 11 reuse them)


@functools.lru_cache(maxsize=None)
def _averaged_instances():
    """100 instances, dim 5, m in {2,3,4}, all parts averaged affine."""
    bank = []
    for idx in range(100):
        rng = _seeded(41, idx)
        m = 2 + idx % 3
        ops = tuple(random_averaged_affine(rng, 5) for _ in range(m))
        sigmas = tuple(tuple(int(i) for i in rng.permutation(m)) for _ in range(5))
        bank.append((ops, sigmas))
    return tuple(bank)


@functools.lru_cache(maxsize=None)
def _one_orthogonal_instances():
    """100 instances with exactly one orthogonal factor at a random position."""
    bank = []
    for idx in range(100):
        rng = _seeded(51, idx)
        m = 2 + idx % 3
        ops = [random_averaged_affine(rng, 5) for _ in range(m)]
        ops[int(rng.integers(m))] = random_merely_nonexpansive_affine(rng, 5)
        bank.append(tuple(ops))
    return tuple(bank)


@functools.lru_cache(maxsize=None)
def _aligned_translation_instances():
    """Translations along one direction: the norm bound is tight."""
    bank = []
    for idx in range(10):
        rng = _seeded(61, idx)
        direction = rng.standard_normal(5)
        direction /= np.linalg.norm(direction)
        scales = rng.uniform(0.1, 0.5, size=3)
        ops = tuple(AffineMap.translation(c * direction) for c in scales)
        bank.append((ops, float(scales.sum())))
    return tuple(bank)


@functools.lru_cache(maxsize=None)
def _closed_form_cases():
    """27 delta-triples x 20 seeded a-triples = 540 cases."""
    rng = np.random.default_rng(202)
    a_triples = [tuple(0.5 * rng.standard_normal(3) for _ in range(3))
                 for _ in range(20)]
    deltas = list(itertools.product((-1, 0, 1), repeat=3))
    return tuple((d, a) for a in a_triples for d in deltas)


def test_criterion_01_two_map_counterexample():
    start = time.perf_counter()
    r1, r2 = _reflection([1.0, 0.0]), _reflection([0.0, 1.0])
    v21 = minimal_displacement(Composition([r1, r2])).vector  # r2 after r1
    v12 = minimal_displacement(Composition([r2, r1])).vector
    elapsed = time.perf_counter() - start
    ok = (np.linalg.norm(v21 - [-1.0, 1.0]) <= 1e-12
          and np.linalg.norm(v12 - [1.0, -1.0]) <= 1e-12
          and elapsed < 1.0)
    _line(1, ok, f"two-map counterexample exact, (-1,1)/(1,-1) at 1e-12, {elapsed:.3f}s")


def test_criterion_02_three_op_closed_form_sweep():
    start = time.perf_counter()
    cases = _closed_form_cases()
    passed = sum(check_three_op_closed_form(d, a, tol=1e-10).passed
                 for d, a in cases)
    elapsed = time.perf_counter() - start
    ok = passed == 540 and len(cases) == 540 and elapsed < 5.0
    _line(2, ok, f"closed form on {passed}/540 delta/a cases at 1e-10, {elapsed:.2f}s")


def test_criterion_03_noncyclic_reordering():
    rng = np.random.default_rng(303)
    good = 0
    for _ in range(10):
        u = rng.standard_normal(3)
        assert np.linalg.norm(u) > 1e-6
        good += check_noncyclic_counterexample(u, tol=1e-10).passed
    _line(3, good == 10, f"noncyclic reorder 0-vs-2u on {good}/10 random u at 1e-10")


def test_criterion_04_composition_range_and_permutations():
    range_ok = perm_ok = 0
    for ops, sigmas in _averaged_instances():
        rep = check_range_formula_composition(list(ops), tol=1e-8)
        range_ok += rep.passed and rep.hypothesis_met
        perm_ok += all(
            check_permutation_displacement(list(ops), list(s), tol=1e-9).passed
            for s in sigmas)
    ok = range_ok == 100 and perm_ok == 100
    _line(4, ok, f"range formula {range_ok}/100 at 1e-8, "
                 f"permutation invariance {perm_ok}/100 (5 each) at 1e-9")


def test_criterion_05_one_orthogonal_boundary():
    good = 0
    for ops in _one_orthogonal_instances():
        rep = check_range_formula_composition(list(ops), tol=1e-8)
        good += rep.passed and rep.hypothesis_met
    _line(5, good == 100, f"one-orthogonal boundary range formula {good}/100 at 1e-8")


def test_criterion_06_norm_bound_everywhere_and_tightness():
    bound_ok = 0
    total = 0
    for ops, _ in _averaged_instances():
        bound_ok += check_norm_bound_composition(list(ops)).passed
        total += 1
    for ops in _one_orthogonal_instances():
        bound_ok += check_norm_bound_composition(list(ops)).passed
        total += 1
    tight_ok = 0
    for ops, expected in _aligned_translation_instances():
        norm = minimal_displacement(Composition(list(ops))).norm
        tight_ok += abs(norm - expected) <= 1e-12
    ok = bound_ok == total == 200 and tight_ok == 10
    _line(6, ok, f"norm bound {bound_ok}/{total}, aligned tightness "
                 f"{tight_ok}/10 at 1e-12")


def test_criterion_07_cyclic_norm_invariance_nonaffine():
    start = time.perf_counter()
    good = 0
    for idx in range(20):
        rng = _seeded(71, idx)
        ops = random_projector_translation_mix(rng, 4)
        rep = check_cyclic_norm(ops, tol=1e-3, max_iter=100_000)
        good += rep.passed
    elapsed = time.perf_counter() - start
    ok = good == 20 and elapsed < 60.0
    _line(7, ok, f"cyclic-shift norms agree on {good}/20 non-affine mixes "
                 f"at 1e-3, {elapsed:.1f}s")


def test_criterion_08_convex_combination_and_zero_sum():
    combo_ok = 0
    for idx in range(100):
        rng = _seeded(81, idx)
        m = 2 + idx % 3
        ops = []
        for _ in range(m):
            kind = rng.integers(3)
            if kind == 0:
                ops.append(random_merely_nonexpansive_affine(rng, 5))  # norm 1
            elif kind == 1:
                ops.append(AffineMap(-np.eye(5), 0.2 * rng.standard_normal(5)))
            else:
                ops.append(random_averaged_affine(rng, 5))
        weights = 0.1 + rng.random(m)
        weights /= weights.sum()
        # 1e-9 is the stricter of the two spec levels (1e-8 range, 1e-9 chain)
        combo_ok += check_convex_combination(ops, weights, tol=1e-9).passed
    zero_ok = 0
    for idx in range(20):
        rng = _seeded(82, idx)
        shifts = [0.2 * rng.standard_normal(5) for _ in range(2)]
        w = 0.1 + rng.random(3)
        w /= w.sum()
        closing = -(w[0] * shifts[0] + w[1] * shifts[1]) / w[2]
        ops = [AffineMap.translation(-s) for s in (*shifts, closing)]
        zero_ok += check_zero_sum_corollary(ops, w, tol=1e-8).passed
    ok = combo_ok == 100 and zero_ok == 20
    _line(8, ok, f"convex-combination identity/inequalities {combo_ok}/100 at 1e-9, "
                 f"zero-sum corollary {zero_ok}/20 at 1e-8")


def test_criterion_09_cocoercive_reflected_equivalence():
    good = 0
    for idx in range(50):
        rng = _seeded(91, idx)
        A = random_psd_monotone(rng, 5, singular=(idx % 3 == 0))
        mu = 1.0 / float(np.linalg.eigvalsh(A.Q)[-1])
        rep = check_cocoercive_averaged_equivalence(A, mu, samples=1000,
                                                    seed=idx, tol=1e-8)
        good += rep.passed
    _line(9, good == 50, f"cocoercive/averaged equivalence {good}/50 PSD "
                         f"instances, decided by eigenvalues, at 1e-8")


def test_criterion_10_projected_gradient_corollary():
    g = np.array([1.0, 0.0])
    # whole space: the displacement is exactly the scaled gradient
    T = Composition([GradientStep(np.zeros((2, 2)), g, 1.0),
                     SetProjector(full_space(2))])
    est = displacement_iterative(T)
    whole_ok = est.converged and np.linalg.norm(est.vector - g) <= 1e-6
    rep = check_projected_gradient_bound(np.zeros((2, 2)), g, full_space(2),
                                         alpha=1.0, L=1.0, tol=1e-6)
    # halfspace x1 >= 0 absorbs the pull toward the boundary: mdv = 0
    T2 = Composition([GradientStep(np.zeros((2, 2)), g, 1.0),
                      SetProjector(Halfspace([-1.0, 0.0], 0.0))])
    est2 = displacement_iterative(T2)
    half_ok = est2.converged and est2.norm <= 1e-4
    rep2 = check_projected_gradient_bound(np.zeros((2, 2)), g,
                                          Halfspace([-1.0, 0.0], 0.0),
                                          alpha=1.0, L=1.0, tol=1e-4)
    ok = whole_ok and rep.passed and half_ok and rep2.passed
    _line(10, ok, "projected gradient: whole-space mdv = (alpha/L) g at 1e-6, "
                  "halfspace mdv = 0 at 1e-4")


def test_criterion_11_exact_vs_iterative_on_affine_instances():
    comps = []
    r1, r2 = _reflection([1.0, 0.0]), _reflection([0.0, 1.0])
    comps += [Composition([r1, r2]), Composition([r2, r1])]                 # crit 1
    for deltas, a in _closed_form_cases():                                  # crit 2
        eye = np.eye(3)
        comps.append(Composition([AffineMap(d * eye, -v)
                                  for d, v in zip(deltas, a)]))
    rng = np.random.default_rng(303)                                        # crit 3
    for _ in range(10):
        u = rng.standard_normal(3)
        eye = np.eye(3)
        r_a = AffineMap(-eye, np.zeros(3))
        r_b = AffineMap(-eye, u)
        r_c = AffineMap(eye, -u)
        comps.append(Composition([r_a, r_b, r_c]))
        comps.append(Composition([r_b, r_a, r_c]))
    for ops, _ in _averaged_instances():                                    # crit 4
        comps.append(Composition(list(ops)))
    for ops in _one_orthogonal_instances():                                 # crit 5
        comps.append(Composition(list(ops)))
    for ops, _ in _aligned_translation_instances():                         # crit 6
        comps.append(Composition(list(ops)))

    worst = 0.0
    for comp in comps:
        exact = displacement_exact_affine(comp).vector
        approx = displacement_iterative(comp, max_iter=20_000, tol=1e-7).vector
        worst = max(worst, float(np.linalg.norm(exact - approx)))
    ok = worst <= 1e-4
    _line(11, ok, f"exact vs iterative on {len(comps)} affine instances, "
                  f"worst gap {worst:.2e} <= 1e-4")


def test_criterion_12_builtin_suite_determinism(tmp_path):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    rc1 = cli_main(["verify", "--builtin-suite", "--seed", "42", "--out", a])
    rc2 = cli_main(["verify", "--builtin-suite", "--seed", "42", "--out", b])
    with open(a, "rb") as fa, open(b, "rb") as fb:
        body_a, body_b = fa.read(), fb.read()
    summary = json.loads(body_a)["summary"]
    ok = rc1 == rc2 == 0 and body_a == body_b and summary["failed"] == 0
    _line(12, ok, f"builtin suite seed 42 byte-identical twice, "
                  f"{summary['total']} checks, {summary['failed']} failures")
