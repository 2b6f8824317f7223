"""Displacement-vector solvers: exact affine route and fixed-point iteration."""

import math

import numpy as np
import pytest

from mdvkit import displacement as disp_mod
from mdvkit.displacement import (
    EXACT_AFFINE,
    RESIDUAL_ITERATION,
    DisplacementEstimate,
    displacement_exact_affine,
    displacement_iterative,
    displacement_range_affine,
    membership_in_displacement_range,
    minimal_displacement,
)
from mdvkit.errors import NumericalError, UnsupportedOperatorError, ValidationError
from mdvkit.operators import (
    AffineMap,
    Composition,
    ConvexCombination,
    Operator,
    Regularity,
    SetProjector,
    flatten_to_affine,
)
from mdvkit.sets import Ball, Box, Halfspace, Singleton


def _reflection(u):
    """x -> -x - u, the classic order-dependence building block."""
    dim = len(u)
    return AffineMap(-np.eye(dim), [-v for v in u])


# ---------------------------------------------------------------------------
# exact route


def test_translation_displacement_is_minus_offset():
    est = minimal_displacement(AffineMap.translation([0.3, -0.1]))
    assert est.method == EXACT_AFFINE and est.converged and est.iterations == 0
    np.testing.assert_allclose(est.vector, [-0.3, 0.1], atol=1e-15)
    assert est.norm == pytest.approx(np.hypot(0.3, 0.1))


def test_constant_map_has_zero_displacement():
    # T(x) = b has the fixed point b, so the smallest displacement is zero
    est = minimal_displacement(AffineMap(np.zeros((2, 2)), [1.0, 2.0]))
    np.testing.assert_allclose(est.vector, [0.0, 0.0], atol=1e-14)
    assert est.residual <= 1e-12  # attained


def test_two_reflections_compose_to_order_dependent_displacement():
    r1, r2 = _reflection([1.0, 0.0]), _reflection([0.0, 1.0])
    one_two = minimal_displacement(Composition([r1, r2]))
    two_one = minimal_displacement(Composition([r2, r1]))
    np.testing.assert_allclose(one_two.vector, [-1.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(two_one.vector, [1.0, -1.0], atol=1e-12)


def test_range_of_reflection_is_everything():
    rng_space = displacement_range_affine(_reflection([0.5, 0.5]))
    assert rng_space.rank == 2
    assert rng_space.contains(np.array([17.0, -3.0]))


def test_combination_of_translations_range_collapses_to_point():
    # regression: weights summing to 1 +- ulp used to leave I - M full of
    # rounding noise and the range came out full-dimensional
    combo = ConvexCombination([1.0 / 3.0, 2.0 / 3.0],
                              [AffineMap.translation([0.3, 0.0]),
                               AffineMap.translation([0.0, 0.3])])
    rng_space = displacement_range_affine(combo)
    assert rng_space.rank == 0
    np.testing.assert_allclose(rng_space.base, [-0.1, -0.2], atol=1e-15)
    est = displacement_exact_affine(combo)
    np.testing.assert_allclose(est.vector, [-0.1, -0.2], atol=1e-15)


def test_exact_rejects_non_affine():
    proj = SetProjector(Ball([0.0, 0.0], 1.0))
    with pytest.raises(UnsupportedOperatorError):
        displacement_range_affine(proj)
    with pytest.raises(UnsupportedOperatorError):
        displacement_exact_affine(proj)


class _Bumped(Operator):
    """Claims the identity as its affine pair but evaluates ``x + bump(x) e0``,
    on one vector or on each row of a stack (the ``_apply`` contract)."""

    def __init__(self, bump, dim=3):
        self.bump = bump
        self.dim = dim

    def _apply(self, x):
        out = x.copy()
        out[..., 0] += self.bump(x)
        return out

    def _affine_pair(self):
        return np.eye(self.dim), np.zeros(self.dim)

    def _regularity(self):
        return Regularity.nonexpansive()


def test_flatten_cross_check_sees_a_bump_that_vanishes_at_the_unit_probes():
    # x0 * x1 vanishes at 0 and every e_i; only the sampled probes expose it
    op = _Bumped(lambda x: x[..., 0] * x[..., 1])
    for _ in range(2):  # a failed cross-check leaves nothing cached
        for route in (flatten_to_affine, displacement_range_affine, displacement_iterative):
            with pytest.raises(NumericalError, match="disagrees"):
                route(op)


def test_flatten_probe_check_fires_and_reports_the_first_failing_probe():
    # disagrees at e1 by 1e-3 and at e2 by 2e-3
    op = _Bumped(lambda x: 1e-3 * (x[..., 1] + 2.0 * x[..., 2]))
    with pytest.raises(NumericalError, match=r"error 1\.000e-03"):
        flatten_to_affine(op)
    with pytest.raises(NumericalError, match="disagrees"):
        displacement_range_affine(op)


def test_range_is_computed_once_per_operator(monkeypatch):
    calls = []
    factor = disp_mod.orthonormal_range_basis

    def counted(*args, **kwargs):
        calls.append(1)
        return factor(*args, **kwargs)

    monkeypatch.setattr(disp_mod, "orthonormal_range_basis", counted)
    op = Composition([_reflection([0.5, 0.5]), AffineMap.translation([0.1, 0.2])])
    first = displacement_range_affine(op)
    assert displacement_range_affine(op) is first
    displacement_exact_affine(op)
    assert len(calls) == 1
    fresh = displacement_range_affine(Composition(op.parts))
    assert fresh is not first and len(calls) == 2
    np.testing.assert_array_equal(fresh.base, first.base)
    np.testing.assert_array_equal(fresh.basis, first.basis)


def test_membership_in_displacement_range():
    shift = AffineMap.translation([0.3, -0.1])
    assert membership_in_displacement_range(shift, [-0.3, 0.1])
    assert not membership_in_displacement_range(shift, [-0.3, 0.2])
    reflection = _reflection([1.0, 1.0])
    assert membership_in_displacement_range(reflection, [40.0, -2.0])  # full range


@pytest.mark.parametrize("tol", [-1.0, math.nan])
def test_membership_rejects_negative_and_nan_tolerance(tol):
    with pytest.raises(ValidationError):
        membership_in_displacement_range(AffineMap.translation([0.3, -0.1]), [-0.3, 0.1], tol=tol)


# ---------------------------------------------------------------------------
# iterative route


def test_residual_iteration_on_projector_composition():
    # ball projection then a big push; the push is absorbed radially, so a
    # fixed point exists and the displacement vector is zero
    comp = Composition([SetProjector(Ball([0.0, 0.0], 1.0)),
                        AffineMap.translation([3.0, 0.0])])
    est = displacement_iterative(comp)
    assert est.method == RESIDUAL_ITERATION and est.converged
    np.testing.assert_allclose(est.vector, [0.0, 0.0], atol=1e-9)


def test_residual_iteration_nonzero_displacement():
    # projecting onto a singleton then translating has no fixed point:
    # T(x) = p + u, displacement x - T x minimized at x = p + u with value -u?
    # no: T is constant, so x = T x is solvable; build a genuinely fixed-point
    # free map instead from two separated singetons via convex combination
    comp = Composition([SetProjector(Singleton([0.0, 0.0])),
                        AffineMap.translation([0.4, 0.0])])
    est = displacement_iterative(comp)
    np.testing.assert_allclose(est.vector, [0.0, 0.0], atol=1e-10)  # constant map
    combo = ConvexCombination([0.5, 0.5],
                              [AffineMap.translation([0.5, 0.0]),
                               SetProjector(Singleton([0.0, 0.0]))])
    # R(x) = (x + (0.5, 0))/2; fixed point (0.5, 0); displacement zero
    est2 = displacement_iterative(combo)
    np.testing.assert_allclose(est2.vector, [0.0, 0.0], atol=1e-8)


def test_plateau_does_not_stop_iteration_early():
    # iterates slide along the halfspace boundary with exactly constant
    # residual before reaching the ball; one quiet step must not terminate
    ops = [SetProjector(Ball([0.4, -0.3, 0.1, 0.0], 1.2)),
           AffineMap.translation([0.2, -0.1, 0.05, 0.0]),
           SetProjector(Halfspace([1.0, 1.0, 0.0, 0.0], 0.3))]
    norms = []
    for k in range(3):
        comp = Composition(ops[k:] + ops[:k])
        est = displacement_iterative(comp, max_iter=100_000)
        assert est.converged
        norms.append(est.norm)
    assert max(norms) - min(norms) <= 1e-5


def test_relaxed_translation_composition_is_exact():
    # merely nonexpansive composition flattening to a translation: the KM
    # residual is the half offset from the first step, and its cycles hold
    # only rounding, so no extrapolation is evaluated within the patience window
    r1, r2 = _reflection([1.0, 0.0]), _reflection([0.0, 1.0])
    comp = Composition([r1, r2])
    est = displacement_iterative(comp)
    assert est.method == RESIDUAL_ITERATION and est.converged
    assert est.iterations == disp_mod._STALL_PATIENCE
    np.testing.assert_allclose(est.vector, [-1.0, 1.0], atol=1e-12)


def test_relaxed_two_periodic_orbit_reaches_its_fixed_point():
    # T(x) = -x + c alternates between 0 and c from the origin; its KM
    # relaxation (Id + T) / 2 is the constant c / 2, a fixed point of T
    T = AffineMap(-np.eye(2), [0.3, -0.2])
    est = displacement_iterative(T, max_iter=50_000, tol=1e-9)
    assert est.method == RESIDUAL_ITERATION and est.converged
    assert est.norm <= 1e-12


def _orthogonal(rng, dim):
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


def _turn_fixing(rng, a):
    """Orthogonal map fixing ``a`` that turns ``a``'s complement with no fixed vector."""
    dim = a.size
    basis = np.linalg.qr(np.column_stack([a, rng.standard_normal((dim, dim - 1))]))[0]
    block = np.eye(dim)
    for i in range(1, dim - 1, 2):
        theta = rng.uniform(0.5, 2.5)
        block[i:i + 2, i:i + 2] = [[np.cos(theta), -np.sin(theta)],
                                   [np.sin(theta), np.cos(theta)]]
    if dim % 2 == 0:
        block[-1, -1] = -1.0
    return basis @ block @ basis.T


@pytest.mark.parametrize("seed", range(8))
def test_relaxed_halfspace_turn_translation_matches_closed_form(seed):
    # along a the pipeline is a clamp plus a shift by s = a.t / |a|^2; across
    # a it is a turn without fixed vector plus a shift, which has a fixed
    # point; so v = -min(0, s) a
    rng = np.random.default_rng(seed)
    dim = 4 + seed % 7
    a = rng.standard_normal(dim)
    t = 0.5 * rng.standard_normal(dim)
    parts = [SetProjector(Halfspace(a, float(rng.standard_normal()))),
             AffineMap(_turn_fixing(rng, a), np.zeros(dim)),
             AffineMap.translation(t)]
    comp = Composition([parts[i] for i in rng.permutation(3)])
    est = displacement_iterative(comp, max_iter=20_000, tol=1e-7)
    want = -min(0.0, float(a @ t) / float(a @ a)) * a
    assert est.method == RESIDUAL_ITERATION and est.converged
    assert np.linalg.norm(est.vector - want) <= 1e-4


@pytest.mark.parametrize("seed", range(8))
def test_relaxed_orthogonal_compositions_match_exact(seed):
    rng = np.random.default_rng(100 + seed)
    for dim in (2 + seed, 12 - seed // 2):
        parts = [AffineMap(_orthogonal(rng, dim), 0.2 * rng.standard_normal(dim))
                 for _ in range(2 + seed % 3)]
        comp = Composition(parts)
        est = displacement_iterative(comp, max_iter=20_000, tol=1e-7)
        assert est.method == RESIDUAL_ITERATION and est.converged
        exact = displacement_exact_affine(comp)
        assert np.linalg.norm(est.vector - exact.vector) <= 1e-8


@pytest.mark.parametrize("seed", range(4))
def test_relaxed_dim_50_turn_with_a_near_identity_block_converges(seed):
    # one 2x2 block turns by 0.0025 rad, which RRE cycles of only dim + 3
    # steps do not resolve (capped up to 0.08 off); the answer is 0
    rng = np.random.default_rng(seed)
    block = np.zeros((50, 50))
    for i, theta in enumerate(np.concatenate([[0.0025], rng.uniform(0.05, 3.0, 24)])):
        block[2 * i:2 * i + 2, 2 * i:2 * i + 2] = [[np.cos(theta), -np.sin(theta)],
                                                   [np.sin(theta), np.cos(theta)]]
    basis = _orthogonal(rng, 50)
    T = AffineMap(basis @ block @ basis.T, 0.2 * rng.standard_normal(50))
    est = displacement_iterative(T, max_iter=20_000, tol=1e-7)
    assert est.converged and est.norm <= 1e-4


def test_extrapolation_counts_against_the_budget():
    # dim 3: a cycle is 12 KM steps, and its proposal is the 13th iteration
    rng = np.random.default_rng(7)
    comp = Composition([AffineMap(_orthogonal(rng, 3), 0.2 * rng.standard_normal(3))
                        for _ in range(2)])
    exact = displacement_exact_affine(comp).vector
    short = displacement_iterative(comp, max_iter=12, tol=1e-7)
    assert short.iterations == 12 and np.linalg.norm(short.vector - exact) > 1e-3
    proposed = displacement_iterative(comp, max_iter=13, tol=1e-7)
    assert proposed.iterations == 13 and np.linalg.norm(proposed.vector - exact) <= 1e-8
    for budget in (50, 71, 200):
        assert displacement_iterative(comp, max_iter=budget, tol=1e-7).iterations <= budget


def test_contractive_flatten_uses_residual_route():
    # orthogonal factor inside a strict contraction: not certified averaged,
    # but the flattened matrix has norm < 1 so the residual route is sound
    theta = 0.7
    rot = AffineMap(np.array([[np.cos(theta), -np.sin(theta)],
                              [np.sin(theta), np.cos(theta)]]), [0.1, 0.0])
    shrink = AffineMap(0.9 * np.eye(2), [0.0, 0.2])
    comp = Composition([rot, shrink])
    assert not comp.regularity().is_averaged
    est = displacement_iterative(comp, max_iter=10_000, tol=1e-10)
    assert est.method == RESIDUAL_ITERATION and est.converged
    exact = displacement_exact_affine(comp)
    np.testing.assert_allclose(est.vector, exact.vector, atol=1e-8)


def test_iterative_respects_x0_and_budget():
    comp = Composition([SetProjector(Box([-1.0, -1.0], [1.0, 1.0])),
                        AffineMap.translation([0.2, 0.0])])
    est = displacement_iterative(comp, x0=[5.0, -5.0], max_iter=50)
    assert est.iterations <= 50
    full = displacement_iterative(comp, x0=[5.0, -5.0])
    assert full.converged
    np.testing.assert_allclose(full.vector, [0.0, 0.0], atol=1e-9)


def test_minimal_displacement_dispatch():
    affine = AffineMap.translation([0.1, 0.2])
    assert minimal_displacement(affine).method == EXACT_AFFINE
    curved = SetProjector(Ball([2.0, 0.0], 1.0))
    assert minimal_displacement(curved).method == RESIDUAL_ITERATION


def test_iterative_argument_validation():
    op = AffineMap.identity(2)
    with pytest.raises(ValidationError):
        displacement_iterative(op, max_iter=0)
    with pytest.raises(ValidationError):
        displacement_iterative(op, tol=0.0)
    with pytest.raises(ValidationError):
        displacement_iterative("not an operator")
    for max_iter in (2.5, True):
        with pytest.raises(ValidationError):
            displacement_iterative(op, max_iter=max_iter)
    for tol in (math.inf, math.nan):
        with pytest.raises(ValidationError):
            displacement_iterative(op, tol=tol)
    assert displacement_iterative(op, max_iter=np.int64(5), tol=np.float64(1e-3)).iterations <= 5


@pytest.mark.parametrize("op", [AffineMap.translation([0.1, 0.2]),
                                SetProjector(Ball([0.0, 0.0], 1.0))],
                         ids=["exact_route", "iterative_route"])
def test_minimal_displacement_validates_budget_on_both_routes(op):
    with pytest.raises(ValidationError, match="max_iter must be an integer of at least one"):
        minimal_displacement(op, max_iter=2.5)
    with pytest.raises(ValidationError, match="tol must be positive and finite"):
        minimal_displacement(op, tol=math.inf)
    with pytest.raises(ValidationError):
        minimal_displacement(op, max_iter=2.5, tol=math.inf)
    assert minimal_displacement(op, max_iter=np.int64(5), tol=np.float64(1e-3)).iterations <= 5


def test_estimate_container_invariants():
    with pytest.raises(ValidationError):
        DisplacementEstimate(np.zeros(2), 0.0, 3, EXACT_AFFINE, True)  # exact, iters
    with pytest.raises(ValidationError):
        DisplacementEstimate(np.zeros(2), -1.0, 3, RESIDUAL_ITERATION, True)
    with pytest.raises(ValidationError):
        DisplacementEstimate(np.zeros(2), -math.inf, 3, RESIDUAL_ITERATION, True)
    with pytest.raises(ValidationError):
        DisplacementEstimate(np.zeros(2), 0.0, 3, "made_up_method", True)
    with pytest.raises(ValidationError):
        DisplacementEstimate(np.zeros(2), 0.0, -3, RESIDUAL_ITERATION, True)
    with pytest.raises(ValidationError):
        DisplacementEstimate(np.array([math.nan, 0.0]), 0.0, 3, RESIDUAL_ITERATION, True)


def test_exact_vs_iterative_agree_on_random_contractions():
    rng = np.random.default_rng(21)
    for _ in range(10):
        raw = rng.standard_normal((4, 4))
        M = raw * (0.9 / np.linalg.norm(raw, 2))
        op = AffineMap(M, 0.2 * rng.standard_normal(4))
        exact = displacement_exact_affine(op)
        it = displacement_iterative(op, max_iter=20_000, tol=1e-11)
        assert np.linalg.norm(exact.vector - it.vector) <= 1e-6
