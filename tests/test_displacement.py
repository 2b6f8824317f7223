"""Displacement-vector solvers: exact affine route and fixed-point iteration."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdvkit import displacement as disp_mod
from mdvkit import operators as operators_mod
from mdvkit.displacement import (
    EXACT_AFFINE,
    RESIDUAL_ITERATION,
    DisplacementEstimate,
    displacement_exact_affine,
    displacement_iterative,
    displacement_range_affine,
    minimal_displacement,
)
from mdvkit.errors import NumericalError, UnsupportedOperatorError, ValidationError
from mdvkit.numeric import AffineSubspace, orthonormal_range_basis
from mdvkit.operators import (
    NORM_TOL,
    AffineMap,
    Composition,
    ConvexCombination,
    Operator,
    SetProjector,
    flatten_to_affine,
)
from mdvkit.sets import Ball, Box, Halfspace
from mdvkit.verify import random_averaged_affine


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
    assert rng_space.distance(np.array([17.0, -3.0])) <= 1e-8


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

    is_averaged = False

    def _affine_pair(self):
        return np.eye(self.dim), np.zeros(self.dim)


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


def test_flatten_cross_check_fails_a_nan_evaluation():
    # NaN compares false with any bound, so the check must not be "err > bound"
    op = _Bumped(lambda x: np.full(x.shape[:-1], np.nan))
    with pytest.raises(NumericalError, match="disagrees"):
        flatten_to_affine(op)


@pytest.mark.filterwarnings("error")  # mdvkit's error is the only report of the overflow
def test_flatten_turns_an_overflowed_collapse_into_a_numerical_error():
    far = AffineMap.translation([1e308, 0.0])  # valid alone; twice it is inf
    with pytest.raises(NumericalError, match="non-finite"):
        minimal_displacement(Composition([far, far]))


def test_flatten_probe_stack_is_built_once_per_dimension_and_read_only():
    probes = operators_mod._probe_stack(4)
    assert probes is operators_mod._probe_stack(4) and not probes.flags.writeable
    assert probes.shape == (15, 4)
    np.testing.assert_array_equal(probes[:5], np.vstack((np.zeros(4), np.eye(4))))


def test_range_is_computed_once_per_operator(monkeypatch):
    op = Composition([_reflection([0.5, 0.5]), AffineMap.translation([0.1, 0.2])])
    twin = Composition(op.parts)
    calls = _count_svds(monkeypatch)
    first = displacement_range_affine(op)
    assert displacement_range_affine(op) is first
    displacement_exact_affine(op)
    assert len(calls) == 1  # one SVD of I - M, cached on the operator
    fresh = displacement_range_affine(twin)
    assert fresh is not first and len(calls) == 2
    np.testing.assert_array_equal(fresh.base, first.base)
    np.testing.assert_array_equal(fresh.basis, first.basis)


def _count_svds(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


def test_exact_route_factorizes_once(monkeypatch):
    op = Composition([_reflection([0.5, 0.5, 0.0]), AffineMap(0.5 * np.eye(3), np.ones(3)),
                      AffineMap.translation([0.1, 0.2, 0.3])])
    calls = _count_svds(monkeypatch)
    displacement_exact_affine(op)
    assert len(calls) == 1  # the range basis; the collapsed map is not re-validated


def test_a_translation_is_validated_without_an_svd(monkeypatch):
    calls = _count_svds(monkeypatch)
    for shift in (AffineMap.translation([0.1, 0.2, 0.3]), AffineMap(np.eye(3), np.ones(3))):
        assert shift.is_averaged
    assert len(calls) == 0
    with pytest.raises(ValidationError, match="spectral norm exceeds one"):
        AffineMap(np.diag([1.0, 1.0 + 1e-9, 1.0]), np.ones(3))
    assert len(calls) == 1


def _turns(angles, scale):
    """Block-diagonal plane rotations by ``angles``, times ``scale``."""
    M = np.zeros((2 * len(angles), 2 * len(angles)))
    for i, t in enumerate(angles):
        M[2 * i:2 * i + 2, 2 * i:2 * i + 2] = [[math.cos(t), -math.sin(t)],
                                                [math.sin(t), math.cos(t)]]
    return scale * M


@pytest.mark.parametrize("k", [2, 3, 4])
def test_powers_of_a_map_within_the_norm_slack_stay_exact(k):
    # |M| = 1 + 0.9e-10 passes the constructor's 1e-10 slack; |M^k| does not,
    # yet the power of a valid map is as valid as the map
    op = AffineMap(_turns([0.3, 1.1], 1.0 + 0.9e-10), np.ones(4))
    est = minimal_displacement(Composition([op] * k))
    assert est.method == EXACT_AFFINE
    assert est.norm < 1e-12  # I - M^k is invertible, so v = 0


def test_a_power_past_the_norm_slack_is_merely_nonexpansive():
    op = AffineMap(_turns([0.3, 1.1], 1.0 + 0.9e-10), np.ones(4))
    flat = flatten_to_affine(Composition([op] * 3))
    # compounded rounding past the constructor's slack
    assert np.linalg.norm(flat.M, 2) > 1.0 + NORM_TOL
    assert not flat.is_averaged


def test_membership_in_displacement_range():
    shift = displacement_range_affine(AffineMap.translation([0.3, -0.1]))
    assert shift.distance([-0.3, 0.1]) <= 1e-8
    assert shift.distance([-0.3, 0.2]) > 1e-8
    reflection = displacement_range_affine(_reflection([1.0, 1.0]))
    assert reflection.distance([40.0, -2.0]) <= 1e-8  # full range


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
    comp = Composition([SetProjector(AffineSubspace([0.0, 0.0])),
                        AffineMap.translation([0.4, 0.0])])
    est = displacement_iterative(comp)
    np.testing.assert_allclose(est.vector, [0.0, 0.0], atol=1e-10)  # constant map
    combo = ConvexCombination([0.5, 0.5],
                              [AffineMap.translation([0.5, 0.0]),
                               SetProjector(AffineSubspace([0.0, 0.0]))])
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
    # residual is the half offset from the first step, so the first quiet
    # step already certifies it against the exact vector
    r1, r2 = _reflection([1.0, 0.0]), _reflection([0.0, 1.0])
    comp = Composition([r1, r2])
    est = displacement_iterative(comp)
    assert est.method == RESIDUAL_ITERATION and est.converged
    assert est.iterations <= 2
    assert est.error_bound <= disp_mod.DEFAULT_TOL
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
        # singular or not, I - M is settled by the LU or the SVD proposal
        assert est.iterations <= 2 and est.error_bound <= 1e-12
        exact = displacement_exact_affine(comp)
        assert np.linalg.norm(est.vector - exact.vector) <= est.error_bound


@pytest.mark.parametrize("seed", range(4))
def test_relaxed_dim_50_turn_with_a_near_identity_block_converges(seed):
    # one 2x2 block turns by 0.0025 rad, so the KM iteration alone is slow;
    # I - M is invertible and the answer is 0
    rng = np.random.default_rng(seed)
    block = np.zeros((50, 50))
    for i, theta in enumerate(np.concatenate([[0.0025], rng.uniform(0.05, 3.0, 24)])):
        block[2 * i:2 * i + 2, 2 * i:2 * i + 2] = [[np.cos(theta), -np.sin(theta)],
                                                   [np.sin(theta), np.cos(theta)]]
    basis = _orthogonal(rng, 50)
    T = AffineMap(basis @ block @ basis.T, 0.2 * rng.standard_normal(50))
    est = displacement_iterative(T, max_iter=20_000, tol=1e-7)
    assert est.converged and est.error_bound <= 1e-7 and est.norm <= est.error_bound


def _slow_turn(first):
    """A dim-6 orthogonal map, shifted, whose first 2x2 block turns by ``first``."""
    rng = np.random.default_rng(11)
    block = np.eye(6)
    for i, theta in enumerate((first, 0.7, 2.1)):
        block[2 * i:2 * i + 2, 2 * i:2 * i + 2] = [[np.cos(theta), -np.sin(theta)],
                                                   [np.sin(theta), np.cos(theta)]]
    basis = _orthogonal(rng, 6)
    return AffineMap(basis @ block @ basis.T, 0.2 * rng.standard_normal(6))


def test_near_singular_fixed_point_proposal_is_refused_or_certified_truthfully():
    # one block turns by 1e-12: I - M is invertible, but its smallest singular
    # value, about 1e-12, is below the exact route's relative rank cutoff, and
    # the LU fixed point lies about 1e12 out
    T = _slow_turn(1e-12)
    smallest = np.linalg.svd(np.eye(6) - T.M, compute_uv=False)[-1]
    assert 1e-13 < smallest < 1e-11
    exact = displacement_exact_affine(T).vector
    for max_iter in (1, 2, 20_000):
        est = displacement_iterative(T, max_iter=max_iter, tol=1e-7)
        assert est.iterations <= max_iter
        if est.error_bound is not None:
            assert np.linalg.norm(est.vector - exact) <= est.error_bound <= 1e-7


def test_a_map_no_proposal_certifies_is_returned_unconverged():
    # a turn by 3e-10 puts the smallest singular value of I - M just above the
    # rank cutoff: rounding refuses both points, and iterating on from them
    # would stall-stop far from v
    T = _slow_turn(3e-10)
    smallest = np.linalg.svd(np.eye(6) - T.M, compute_uv=False)[-1]
    assert 1e-10 < smallest < 1e-9
    est = displacement_iterative(T)
    assert not est.converged and est.error_bound is None and est.iterations <= 2
    assert np.linalg.norm(est.vector - displacement_exact_affine(T).vector) <= 1e-6


def _flat_leaf(rng, dim):
    kind = int(rng.integers(3))
    if kind == 0:
        return AffineMap(_orthogonal(rng, dim), 0.2 * rng.standard_normal(dim))
    if kind == 1:
        basis = np.linalg.qr(rng.standard_normal((dim, int(rng.integers(1, dim)))))[0]
        return SetProjector(AffineSubspace(rng.standard_normal(dim), basis))
    return AffineMap.translation(rng.standard_normal(dim))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 8), parts=st.integers(1, 4))
def test_flattenable_compositions_are_certified_by_a_proposal(seed, dim, parts):
    rng = np.random.default_rng(seed)
    comp = Composition([_flat_leaf(rng, dim) for _ in range(parts)])
    est = displacement_iterative(comp, max_iter=20_000, tol=1e-7)
    assert est.converged and est.iterations <= 2
    exact = displacement_exact_affine(comp).vector
    assert np.linalg.norm(est.vector - exact) <= est.error_bound <= 1e-7


def _turn_about_e3_after_a_shift(turned=False):
    """A turn about ``e3`` after the shift (0.1, 0.2, 0.3), so ``v = (0, 0,
    -0.3)`` and ``I - M`` has an exact zero row; ``turned``, the same map in a
    fixed random basis, where ``I - M`` is singular only up to rounding and
    its LU solve gives a point about 1e15 out."""
    basis = _orthogonal(np.random.default_rng(0), 3) if turned else np.eye(3)
    theta = 1.0
    turn = np.array([[np.cos(theta), -np.sin(theta), 0.0],
                     [np.sin(theta), np.cos(theta), 0.0],
                     [0.0, 0.0, 1.0]])
    return Composition([AffineMap(basis @ turn @ basis.T, np.zeros(3)),
                        AffineMap.translation(basis @ [0.1, 0.2, 0.3])])


def test_proposals_count_against_the_budget():
    # I - M invertible: the fixed-point proposal is the first iteration
    rng = np.random.default_rng(7)
    comp = Composition([AffineMap(_orthogonal(rng, 3), 0.2 * rng.standard_normal(3))
                        for _ in range(2)])
    exact = displacement_exact_affine(comp).vector
    est = displacement_iterative(comp, max_iter=1, tol=1e-7)
    assert est.iterations == 1 and est.converged and est.error_bound <= 1e-7
    assert np.linalg.norm(est.vector - exact) <= min(1e-8, est.error_bound)
    # I - M has an exact zero row, so LU gives no point and the SVD point is
    # the first iteration
    comp = _turn_about_e3_after_a_shift()
    exact = displacement_exact_affine(comp).vector
    np.testing.assert_allclose(exact, [0.0, 0.0, -0.3], atol=1e-15)
    est = displacement_iterative(comp, max_iter=1, tol=1e-7)
    assert est.iterations == 1 and est.converged
    assert np.linalg.norm(est.vector - exact) <= min(1e-8, est.error_bound)
    # turned, the LU point is refused and the SVD point is the second iteration
    comp = _turn_about_e3_after_a_shift(turned=True)
    exact = displacement_exact_affine(comp).vector
    refused = displacement_iterative(comp, max_iter=1, tol=1e-7)
    assert refused.iterations == 1 and not refused.converged and refused.error_bound is None
    for budget in (2, 3, 50):
        est = displacement_iterative(comp, max_iter=budget, tol=1e-7)
        assert est.iterations == 2 and est.converged
        assert np.linalg.norm(est.vector - exact) <= min(1e-8, est.error_bound)


def test_a_refused_fixed_point_costs_one_svd(monkeypatch):
    rng = np.random.default_rng(3)
    invertible = Composition([AffineMap(_orthogonal(rng, 4), rng.standard_normal(4))
                              for _ in range(2)])
    singular = _turn_about_e3_after_a_shift(turned=True)
    for comp in (invertible, singular):  # flattening and averagedness are cached
        assert flatten_to_affine(comp) is not None and not comp.is_averaged
    calls = _count_svds(monkeypatch)
    assert displacement_iterative(invertible, tol=1e-7).iterations == 1
    assert len(calls) == 0  # the LU point is certified by |e| alone
    for max_iter in (2, 20_000):
        est = displacement_iterative(singular, max_iter=max_iter, tol=1e-7)
        assert est.iterations == 2 and est.converged
    assert len(calls) == 1  # the point, its vector and the bound, cached on the map
    # below rounding nothing certifies: both points are refused on the same
    # one SVD, and the second comes back uncertified
    est = displacement_iterative(singular, max_iter=50, tol=1e-20)
    assert est.iterations == 2 and not est.converged and est.error_bound is None
    assert len(calls) == 1


def test_exact_and_iterative_routes_share_one_svd(monkeypatch):
    singular = _turn_about_e3_after_a_shift(turned=True)
    calls = _count_svds(monkeypatch)
    exact = displacement_exact_affine(singular)
    est = displacement_iterative(singular, tol=1e-7)
    assert est.iterations == 2 and est.converged  # the SVD point was evaluated
    assert np.linalg.norm(est.vector - exact.vector) <= est.error_bound <= 1e-7
    assert len(calls) == 1


def test_flattenable_maps_never_enter_the_fixed_point_loop(monkeypatch):
    def loop(*args, **kwargs):
        raise AssertionError("a flattenable map reached the fixed-point loop")

    monkeypatch.setattr(disp_mod, "_residual_iteration", loop)
    rng = np.random.default_rng(5)
    maps = [
        Composition([AffineMap(_orthogonal(rng, 4), rng.standard_normal(4)) for _ in range(2)]),
        _turn_about_e3_after_a_shift(),
        _turn_about_e3_after_a_shift(turned=True),
        _slow_turn(1e-12),
        _slow_turn(3e-10),
        Composition([_flat_leaf(rng, 5) for _ in range(3)]),
    ]
    for T in maps:
        for max_iter in (1, 2, 50):
            for tol in (1e-20, 1e-7):
                est = displacement_iterative(T, max_iter=max_iter, tol=tol)
                assert est.iterations <= min(2, max_iter)
                assert est.converged == (est.error_bound is not None)


def test_contractive_flatten_uses_residual_route():
    # orthogonal factor inside a strict contraction: not certified averaged,
    # but I - M is invertible, so the fixed-point proposal certifies v = 0
    theta = 0.7
    rot = AffineMap(np.array([[np.cos(theta), -np.sin(theta)],
                              [np.sin(theta), np.cos(theta)]]), [0.1, 0.0])
    shrink = AffineMap(0.9 * np.eye(2), [0.0, 0.2])
    comp = Composition([rot, shrink])
    assert not comp.is_averaged
    est = displacement_iterative(comp, max_iter=10_000, tol=1e-10)
    assert est.method == RESIDUAL_ITERATION and est.converged and est.iterations == 1
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


@pytest.mark.parametrize("op", [AffineMap.translation([0.1, 0.2, 0.3]),
                                SetProjector(Ball([0.0, 0.0, 0.0], 1.0))],
                         ids=["exact_route", "iterative_route"])
def test_minimal_displacement_validates_x0_on_both_routes(op):
    with pytest.raises(ValidationError, match="dimension mismatch: expected 3, got 2"):
        minimal_displacement(op, x0=[1.0, 2.0])
    with pytest.raises(ValidationError, match="vector entries must be finite"):
        minimal_displacement(op, x0=[1.0, math.nan, 0.0])
    assert minimal_displacement(op, x0=[1.0, 2.0, 3.0]).converged


def test_exact_estimate_is_cached_with_a_read_only_vector():
    op = Composition([_reflection([0.5, 0.5]), AffineMap(0.5 * np.eye(2), [1.0, 0.0])])
    est = displacement_exact_affine(op)
    assert displacement_exact_affine(op) is est and minimal_displacement(op) is est
    assert not est.vector.flags.writeable
    with pytest.raises(ValueError):
        est.vector[0] = 1.0


def test_a_zero_displacement_matrix_takes_no_svd(monkeypatch):
    # I - M of composed translations is exactly zero: rank 0, base -b, x = 0,
    # the bytes the SVD of the zero matrix gives
    svd = np.linalg.svd
    shifts = Composition([AffineMap.translation([0.1, -0.2, 0.0]),
                          AffineMap.translation([0.4, 0.0, -0.0])])
    flat = flatten_to_affine(shifts)
    calls = _count_svds(monkeypatch)
    rng_space, x = disp_mod._affine_solve(shifts)
    est = displacement_iterative(shifts, tol=1e-12)
    assert len(calls) == 0
    assert est.converged and est.iterations == 1 and est.error_bound is not None
    u, s, vt = svd(np.eye(3) - flat.M, full_matrices=False)
    assert rng_space.rank == 0 and rng_space.basis.shape == u[:, :0].shape
    assert rng_space.base.tobytes() == (-flat.b).tobytes()
    assert x.tobytes() == (vt[:0].T @ ((u[:, :0].T @ flat.b) / s[:0])).tobytes()
    assert displacement_exact_affine(shifts).vector.tobytes() == (-flat.b).tobytes()


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
    for bad in (-1e-9, math.nan, math.inf):
        with pytest.raises(ValidationError):
            DisplacementEstimate(np.zeros(2), 0.0, 3, RESIDUAL_ITERATION, True, bad)


def test_exact_vs_iterative_agree_on_random_contractions():
    rng = np.random.default_rng(21)
    for _ in range(10):
        raw = rng.standard_normal((4, 4))
        M = raw * (0.9 / np.linalg.norm(raw, 2))
        op = AffineMap(M, 0.2 * rng.standard_normal(4))
        exact = displacement_exact_affine(op)
        it = displacement_iterative(op, max_iter=20_000, tol=1e-11)
        assert np.linalg.norm(exact.vector - it.vector) <= 1e-6


# ---------------------------------------------------------------------------
# certified early exit


def _random_leaf(rng, dim, bounded, halfspaces):
    # an averaged factor's displacement range is all of R^dim, and so is a
    # box's or a ball's; draw them rarely so most covers are proper sets.
    # Past the budget ``halfspaces[0]``, a halfspace is drawn as an affine set.
    kinds = ["halfspace"] * 4 + ["affine_set", "translation"] * 2 + ["averaged"] + ["box", "ball"] * bounded
    kind = kinds[int(rng.integers(len(kinds)))]
    center = rng.standard_normal(dim)
    if kind == "halfspace" and halfspaces[0] > 0:
        halfspaces[0] -= 1
        return SetProjector(Halfspace(rng.standard_normal(dim), float(rng.standard_normal())))
    if kind in ("halfspace", "affine_set"):
        basis = np.linalg.qr(rng.standard_normal((dim, int(rng.integers(1, dim)))))[0]
        return SetProjector(AffineSubspace(center, basis))
    if kind == "averaged":
        return random_averaged_affine(rng, dim, norm=float(rng.choice([0.5, 0.95, 1.0])))
    if kind == "translation":
        return AffineMap.translation(rng.standard_normal(dim))
    if kind == "box":
        return SetProjector(Box(center - 0.5, center + 0.5))
    return SetProjector(Ball(center, 0.5 + float(rng.random())))


def _random_tree(rng, dim, depth, bounded, halfspaces):
    """A Composition or ConvexCombination of 2-3 parts, each a leaf or a subtree."""
    parts = [_random_tree(rng, dim, depth - 1, bounded, halfspaces) if depth and rng.random() < 0.4
             else _random_leaf(rng, dim, bounded, halfspaces) for _ in range(int(rng.integers(2, 4)))]
    if rng.random() < 0.5:
        return Composition(parts)
    weights = rng.random(len(parts)) + 0.1
    return ConvexCombination(weights / weights.sum(), parts)


def _assert_cover_holds_displacements(rng, dim, bounded, halfspaces, cone_residual):
    # telescoping and weighted sums put x - Tx in the cover for every x,
    # whether or not the parts are averaged
    T = _random_tree(rng, dim, 2, bounded, [halfspaces])
    cover = operators_mod._cover(T)
    if cover is None:
        return  # all of R^dim
    basis = orthonormal_range_basis(cover.span)
    rays = cover.rays - basis @ (basis.T @ cover.rays)
    for x in 10.0 * rng.standard_normal((5, dim)):
        r = x - T(x) - cover.base
        r = cone_residual(rays, r - basis @ (basis.T @ r))
        assert np.linalg.norm(r) <= 1e-9 * (1.0 + np.linalg.norm(x))


def _ray_residual(rays, r):
    """``r`` minus its projection onto the cone of at most one ray."""
    if not rays.shape[1] or not rays.any():  # no ray, or one inside the span
        return r
    a = rays[:, 0]
    return r - max(0.0, float(a @ r) / float(a @ a)) * a


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 6), bounded=st.booleans())
def test_displacements_lie_in_the_range_calculus_cover(seed, dim, bounded):
    # at most one halfspace: the covers whose nearest point the bound uses
    _assert_cover_holds_displacements(np.random.default_rng(seed), dim, bounded, 1, _ray_residual)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 6), bounded=st.booleans())
def test_displacements_lie_in_multi_ray_covers(seed, dim, bounded):
    nnls = pytest.importorskip("scipy.optimize").nnls

    def cone_residual(rays, r):
        return r - rays @ nnls(rays, r)[0] if rays.shape[1] else r

    _assert_cover_holds_displacements(np.random.default_rng(seed), dim, bounded, 9, cone_residual)


def test_cover_follows_the_leaf_table():
    a, t = np.array([1.0, 2.0, 0.0]), np.array([0.3, -0.1, 0.2])
    half = SetProjector(Halfspace(a, 0.7))
    cover = operators_mod._cover(Composition([AffineMap.translation(t), half]))
    np.testing.assert_allclose(cover.base, -t)
    assert not cover.span.any()  # a translation's range is the point -t
    np.testing.assert_array_equal(cover.rays, a[:, None])
    # the cover point is the closed form max(0, a.t / |a|^2) a - t
    want = max(0.0, float(a @ t) / float(a @ a)) * a - t
    gamma = 8.0 * 3 * np.finfo(float).eps
    p, norm_p, dp, exact = disp_mod._cover_point(Composition([half, AffineMap.translation(t)]),
                                                 gamma)
    assert exact  # two averaged parts with exact covers: the cover point is the vector
    np.testing.assert_allclose(p, want, atol=1e-15)
    assert norm_p == pytest.approx(np.linalg.norm(want))
    assert dp == pytest.approx(gamma * (np.linalg.norm(want) + np.linalg.norm(t)))
    # a bounded set anywhere makes the cover all of R^dim
    box = SetProjector(Box(-np.ones(3), np.ones(3)))
    assert operators_mod._cover(Composition([half, box])) is None
    assert disp_mod._cover_point(ConvexCombination([0.5, 0.5], [half, box]), gamma) is None
    # a convex combination weights the parts' bases
    shift = AffineMap.translation(t)
    combo = ConvexCombination([0.25, 0.75], [shift, half])
    np.testing.assert_allclose(operators_mod._cover(combo).base, -0.25 * t)
    # two rays, or a ray inside the span, leave the origin as the cover point
    other = SetProjector(Halfspace(np.array([0.0, 1.0, 1.0]), 0.1))
    assert disp_mod._cover_point(Composition([half, shift, other]), gamma) is None
    plane = SetProjector(AffineSubspace(np.zeros(3), np.eye(3)[:, 1:]))
    normal_half = SetProjector(Halfspace(np.eye(3)[0], 0.0))  # its ray lies in the plane's L^perp
    assert disp_mod._cover_point(Composition([plane, shift, normal_half]), gamma) is None


def _bank_pipelines(seed, dim):
    """Iterative-benchmark-style pipelines with their reference vectors."""
    rng = np.random.default_rng(seed)
    for k in range(2, 4):
        comp = Composition([AffineMap(_orthogonal(rng, dim), 0.2 * rng.standard_normal(dim))
                            for _ in range(k)])
        yield "orthogonal", comp, displacement_exact_affine(comp).vector
        comp = Composition([random_averaged_affine(rng, dim) for _ in range(k)])
        # I - M invertible: the vector is 0, which the exact route gives up to rounding
        invertible = disp_mod.displacement_range_affine(comp).rank == dim
        yield "averaged", comp, np.zeros(dim) if invertible else displacement_exact_affine(comp).vector
    for first in (True, False):
        a, t = rng.standard_normal(dim), 0.5 * rng.standard_normal(dim)
        parts = [AffineMap.translation(t), SetProjector(Halfspace(a, float(rng.standard_normal())))]
        want = max(0.0, float(a @ t) / float(a @ a)) * a - t
        yield "halfspace-translation", Composition(parts if first else parts[::-1]), want
    for _ in range(2):
        center = 0.5 * rng.standard_normal(dim)
        parts = [SetProjector(Box(center - 0.7, center + 0.7)),
                 SetProjector(Halfspace(rng.standard_normal(dim), float(rng.standard_normal()))),
                 AffineMap.translation(0.2 * rng.standard_normal(dim))]
        yield "bounded-mix", Composition([parts[i] for i in rng.permutation(3)]), np.zeros(dim)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("dim", [5, 50])
def test_certified_exits_are_within_their_bound(seed, dim):
    # the bound allows for the rounding of the estimate and of the vector,
    # which covers that of the references too
    tol = 1e-7
    for family, T, want in _bank_pipelines(seed, dim):
        est = displacement_iterative(T, max_iter=20_000, tol=tol)
        err = float(np.linalg.norm(est.vector - want))
        if est.error_bound is not None:
            assert est.converged
            assert err <= est.error_bound, family
            assert est.error_bound <= tol, family
        if family in ("orthogonal", "averaged"):
            # the bound of affine pipelines has no square-root rounding floor
            assert est.error_bound is not None, family


@pytest.mark.parametrize("seed", range(8))
def test_cover_point_bound_certifies_small_vectors(seed):
    # the cover is exact, so the linear bound |e - p| + 2 de + dp certifies
    # with no square-root floor: a short translation with the boundary through
    # the start, and a long one
    rng = np.random.default_rng(seed)
    dim, tol = int(rng.integers(2, 6)), 1e-7
    a, t = rng.standard_normal(dim), 1e-3 * rng.standard_normal(dim)
    half = SetProjector(Halfspace(a, 0.0))
    T = Composition([AffineMap.translation(t), half] if seed % 2 else [half, AffineMap.translation(t)])
    want = max(0.0, float(a @ t) / float(a @ a)) * a - t
    est = displacement_iterative(T, max_iter=20_000, tol=tol)
    assert est.converged and est.iterations < disp_mod._STALL_PATIENCE
    assert np.linalg.norm(est.vector - want) <= est.error_bound <= tol
    # at |t| ~ 1 bound 3's floor alone exceeds tol; the linear bound has none
    far = Composition([AffineMap.translation(1e3 * t), half])
    est = displacement_iterative(far, max_iter=20_000, tol=tol)
    want = max(0.0, float(a @ (1e3 * t)) / float(a @ a)) * a - 1e3 * t
    assert est.converged and est.iterations < disp_mod._STALL_PATIENCE
    assert np.linalg.norm(est.vector - want) <= est.error_bound <= tol


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 50), first=st.booleans(),
       scale=st.floats(-3.0, 3.0))
def test_halfspace_translation_pipelines_are_certified_by_the_linear_bound(seed, dim, first,
                                                                          scale):
    # the start lies on the boundary, so no run creeps toward it for long
    rng = np.random.default_rng(seed)
    a, b = rng.standard_normal(dim), float(rng.standard_normal())
    t = 10.0 ** scale * rng.standard_normal(dim)
    half, push = SetProjector(Halfspace(a, b)), AffineMap.translation(t)
    T = Composition([push, half] if first else [half, push])
    tol = 1e-7
    est = displacement_iterative(T, x0=(b / float(a @ a)) * a, max_iter=20_000, tol=tol)
    want = max(0.0, float(a @ t) / float(a @ a)) * a - t
    assert est.converged and est.error_bound is not None
    assert np.linalg.norm(est.vector - want) <= est.error_bound <= tol


def test_a_creeping_iterate_runs_past_the_stall_stop_to_a_certificate():
    # a short translation, then a halfspace about one unit away: the residual
    # stays exactly -t while the iterate creeps toward the boundary
    rng = np.random.default_rng(1)
    dim = int(rng.integers(2, 6))
    a, t = rng.standard_normal(dim), 1e-3 * rng.standard_normal(dim)
    T = Composition([AffineMap.translation(t),
                     SetProjector(Halfspace(a, float(rng.standard_normal())))])
    want = max(0.0, float(a @ t) / float(a @ a)) * a - t
    est = displacement_iterative(T, max_iter=20_000, tol=1e-7)
    assert est.iterations > disp_mod._STALL_PATIENCE and est.converged
    assert np.linalg.norm(est.vector - want) <= est.error_bound <= 1e-7
    # with no stall stop, a run the budget cuts short has not converged
    cut = displacement_iterative(T, max_iter=200, tol=1e-7)
    assert cut.iterations == 200 and not cut.converged and cut.error_bound is None


def test_scenario_seed_32_op_9_is_certified():
    # the benchmark's generated dim-5 scenario at seed 32, op[9]: a translation
    # then a halfspace projector, at its estimator block
    t = [0.34215703064954633, -0.7615203769601686, 0.38255981138637607,
         -0.37963335502010265, 0.09118087149114873]
    a = np.array([1.1129176413615611, -0.6304032464100511, -0.9988790849679828,
                  1.3261056805973084, 0.2765376716417781])
    x0 = [-0.07392704319099308, 0.03106591155140584, 0.0584396359808603,
          0.07125693534234116, -0.1493667446074135]
    T = Composition([AffineMap.translation(t), SetProjector(Halfspace(a, 0.14508932478507475))])
    est = displacement_iterative(T, x0=x0, max_iter=20_000, tol=1e-7)
    want = max(0.0, float(a @ t) / float(a @ a)) * a - np.array(t)
    assert est.converged and est.error_bound <= 1e-7
    assert np.linalg.norm(est.vector - want) <= 1e-10


def _glide_reflection(u, d):
    """``x -> H x + d``, ``H`` the reflection across the hyperplane normal to
    ``u``: merely nonexpansive, with the displacement range ``-d + span u``."""
    u = np.asarray(u, dtype=float) / np.linalg.norm(u)
    return AffineMap(np.eye(u.size) - 2.0 * np.outer(u, u), d)


def test_exactness_follows_the_composition_and_combination_hypotheses():
    rng = np.random.default_rng(3)
    dim = 4
    half = SetProjector(Halfspace(rng.standard_normal(dim), 0.5))
    r1, r2 = (_glide_reflection(rng.standard_normal(dim), rng.standard_normal(dim))
              for _ in range(2))
    assert not r1.is_averaged and operators_mod._cover_exact(r1)  # it flattens
    assert operators_mod._cover_exact(half)
    shift = AffineMap.translation(rng.standard_normal(dim))
    assert operators_mod._cover_exact(Composition([shift, half, r1]))  # all but one averaged
    assert operators_mod._cover_exact(ConvexCombination([0.5, 0.5], [shift, half]))
    assert not operators_mod._cover_exact(ConvexCombination([0.5, 0.5], [r1, half]))
    # two reflections around a projector: the hypothesis is unmet, so the
    # cover is only a superset, and its point never gets the linear bound
    T = Composition([r1, half, r2])
    assert not operators_mod._composition_hypothesis(T.parts)[0]
    assert not operators_mod._cover_exact(T)
    assert not operators_mod._cover_exact(Composition([shift, T]))  # nor does a tree above it
    gamma = 8.0 * dim * np.finfo(float).eps
    found = disp_mod._cover_point(T, gamma)
    p, norm_p, dp, exact = found
    assert not exact and norm_p > 0.1
    # at e = p the linear bound would read dp; bound 3's floor reads inf
    assert disp_mod._error_bound(p, 0.0, 1e-9, lambda: found) == math.inf
    assert disp_mod._error_bound(p, 0.0, 1e-9, lambda: (p, norm_p, dp, True)) == dp


def _residual_route_pipelines(dim, translate=AffineMap.translation):
    """Fixed pipelines that do not flatten: a halfspace and a translation in
    both orders (twice), and two of box, ball and halfspace with a translation."""
    rng = np.random.default_rng(dim)
    for first in (True, False, True, False):
        half = SetProjector(Halfspace(rng.standard_normal(dim), float(rng.standard_normal())))
        push = translate(0.5 * rng.standard_normal(dim))
        yield Composition([push, half] if first else [half, push])
    for kinds in (("box", "ball"), ("ball", "halfspace"), ("halfspace", "box")) * 2:
        center, parts = 0.5 * rng.standard_normal(dim), []
        for kind in kinds:
            if kind == "box":
                parts.append(Box(center - 0.4 - 0.6 * rng.random(dim), center + 0.7))
            elif kind == "ball":
                parts.append(Ball(center, 0.5 + float(rng.random())))
            else:
                normal = rng.standard_normal(dim)
                parts.append(Halfspace(normal, float(normal @ center)))
        parts = [SetProjector(s) for s in parts] + [translate(0.2 * rng.standard_normal(dim))]
        yield Composition([parts[i] for i in rng.permutation(3)])


#: (iterations, converged, certified) of each pipeline at max_iter 20 000, tol
#: 1e-7: 4 halfspace-translation pipelines, certified by the linear bound of
#: their exact covers, then the mixes, as computed before translations,
#: projectors and the loop took their fast paths.
_PINNED = {
    5: [(2, True, True), (2, True, True), (2, True, True), (3, True, True),
        (30, True, True), (35, True, True), (40, True, True), (42, True, True),
        (62, True, True), (74, True, False)],
    50: [(1, True, True), (3, True, True), (2, True, True), (1, True, True),
         (24, True, True), (16, True, True), (384, True, True), (25, True, True),
         (25, True, True), (152, True, False)],
}


@pytest.mark.parametrize("dim", [5, 50])
def test_residual_route_runs_keep_their_pinned_iterations(dim):
    runs = [displacement_iterative(T, max_iter=20_000, tol=1e-7)
            for T in _residual_route_pipelines(dim)]
    assert [(e.iterations, e.converged, e.error_bound is not None) for e in runs] == _PINNED[dim]


@pytest.mark.parametrize("dim", [5, 50])
def test_translations_on_the_residual_route_match_the_matvec_path_bit_for_bit(dim):
    # a collapsed map never takes the x + b path, so it replays M @ x + b
    def matvec(t):
        return AffineMap._collapsed(np.eye(t.size), t)

    fast = _residual_route_pipelines(dim)
    for T, slow in zip(fast, _residual_route_pipelines(dim, translate=matvec)):
        a = displacement_iterative(T, max_iter=20_000, tol=1e-7)
        b = displacement_iterative(slow, max_iter=20_000, tol=1e-7)
        assert a.vector.tobytes() == b.vector.tobytes()
        assert (a.iterations, a.converged, a.residual, a.error_bound) == (
            b.iterations, b.converged, b.residual, b.error_bound)
