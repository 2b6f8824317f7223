"""Operator variants: construction, averagedness, flattening."""

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdvkit.errors import ValidationError
from mdvkit.operators import (
    ALPHA_CEILING,
    NORM_TOL,
    AffineMap,
    Composition,
    ConvexCombination,
    GradientStep,
    MonotoneAffine,
    ReflectedResolvent,
    Resolvent,
    SetProjector,
    _spectral_norm,
    cocoercivity_modulus,
    flatten_to_affine,
)
from mdvkit import operators as operators_mod
from mdvkit.sets import Ball, Box, Halfspace
from mdvkit.numeric import AffineSubspace, orthonormal_range_basis
from mdvkit.scenario import _OPERATORS, _SETS
from mdvkit.verify import (
    builtin_suite,
    random_averaged_affine,
    random_merely_nonexpansive_affine,
    random_psd_monotone,
    random_structured_averaged,
)


def _rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


# ---------------------------------------------------------------------------
# construction and validation


def test_affine_map_rejects_expansive_matrix():
    with pytest.raises(ValidationError):
        AffineMap([[1.1]], [0.0])
    AffineMap([[1.0]], [0.0])  # exactly norm one is allowed


def test_affine_map_classmethods():
    ident = AffineMap.identity(3)
    y = np.array([1.0, 2.0, 3.0])
    np.testing.assert_allclose(ident(y), y)
    shift = AffineMap.translation([0.5, -0.5])
    np.testing.assert_allclose(shift([1.0, 1.0]), [1.5, 0.5])


def test_monotone_affine_validation():
    MonotoneAffine([[0.0, 1.0], [-1.0, 0.0]], [0.0, 0.0])  # skew part is fine
    with pytest.raises(ValidationError):
        MonotoneAffine([[-1.0, 0.0], [0.0, 1.0]], [0.0, 0.0])  # not monotone


def test_monotone_affine_shifts():
    A = MonotoneAffine([[2.0, 0.0], [0.0, 1.0]], [1.0, -1.0])
    y = np.array([0.5, 0.25])
    x = np.array([3.0, -2.0])
    # input shift: B(. - y)
    np.testing.assert_allclose(A.shift_input(y)(x), A(x - y))
    # output shift: -y + B
    np.testing.assert_allclose(A.shift_output(y)(x), A(x) - y)


def test_one_inverse_per_monotone_operator_and_its_shifted_copies(monkeypatch):
    A = MonotoneAffine([[2.0, 1.0], [-1.0, 1.0]], [1.0, -1.0])
    y = np.array([0.5, 0.25])
    calls = {"inv": 0, "eigvalsh": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(np.linalg, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(np.linalg, name, counted)
    shifted = [A.shift_input(y), A.shift_output(y), A.shift_input(y).shift_output(y)]
    assert calls["eigvalsh"] == 0  # the copies keep the validated Q
    maps = [wrap(op) for op in (A, *shifted) for wrap in (Resolvent, ReflectedResolvent)]
    assert calls["inv"] == 1
    x = np.array([3.0, -2.0])
    K = np.linalg.inv(np.eye(2) + A.Q)
    for op, R in zip((A, *shifted), maps[::2]):
        np.testing.assert_allclose(R(x), K @ (x - op.q), rtol=1e-14)


def test_one_sym_eigendecomposition_per_monotone_operator(monkeypatch):
    eigvalsh, calls = np.linalg.eigvalsh, []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a: calls.append(1) or eigvalsh(*a))
    y = np.array([0.5, 0.25])
    for Q in ([[2.0, 1.0], [-1.0, 1.0]], np.diag([2.0, 0.5])):  # both modulus branches
        calls.clear()
        A = MonotoneAffine(Q, [1.0, -1.0])
        for op in (A, A.shift_input(y), A.shift_output(y), A.shift_input(y).shift_output(y)):
            assert cocoercivity_modulus(op) > 0.0
        assert len(calls) == 1
    calls.clear()
    GradientStep(np.diag([2.0, 0.5]), [1.0, -1.0], 0.5)
    assert len(calls) == 1


def test_stored_sym_eigenvalues_are_read_only():
    A = MonotoneAffine([[2.0, 1.0], [-1.0, 1.0]], [1.0, -1.0])
    np.testing.assert_allclose(A._sym_eigvals, [1.0, 2.0])
    with pytest.raises(ValueError, match="read-only"):
        A._sym_eigvals[0] = -1.0
    assert A.shift_input([1.0, 0.0])._sym_eigvals is A._sym_eigvals
    assert A.shift_output([1.0, 0.0])._sym_eigvals is A._sym_eigvals


@pytest.mark.parametrize("shift, y", [("shift_input", [1e300, 0.0]),
                                      ("shift_output", [-1.7e308, 0.0])])
def test_a_shift_whose_constant_overflows_is_refused(shift, y):
    A = MonotoneAffine([[1e10, 0.0], [0.0, 1.0]], [1.7e308, 0.0])
    with pytest.raises(ValidationError, match="finite"):
        getattr(A, shift)(y)


def test_cocoercivity_modulus_is_computed_once(monkeypatch):
    A = MonotoneAffine(np.diag([2.0, 0.5]), [0.0, 0.0])
    mu = cocoercivity_modulus(A)
    monkeypatch.setattr(np.linalg, "eigvalsh", None)  # a second computation would raise
    monkeypatch.setattr(np.linalg, "svd", None)
    assert cocoercivity_modulus(A) == mu
    assert ReflectedResolvent(A).is_averaged


def test_random_averaged_affine_factors_once(monkeypatch):
    svd, calls = np.linalg.svd, []
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
    rng = np.random.default_rng(5)
    op = random_averaged_affine(rng, 5)
    assert len(calls) == 1  # the scaling SVD; the constructor adds none
    replay = np.random.default_rng(5)
    g = replay.standard_normal((5, 5))
    assert np.array_equal(op.M, (0.95 / svd(g, compute_uv=False)[0]) * g)
    assert np.array_equal(op.b, 0.2 * replay.standard_normal(5))
    with pytest.raises(ValidationError):
        random_averaged_affine(rng, 5, norm=1.5)


def test_convex_combination_weight_validation():
    a = AffineMap.identity(2)
    b = AffineMap([[0.5, 0.0], [0.0, 0.5]], [0.0, 0.0])
    ConvexCombination([0.3, 0.7], [a, b])
    with pytest.raises(ValidationError):
        ConvexCombination([0.3, 0.3], [a, b])  # does not sum to one
    with pytest.raises(ValidationError):
        ConvexCombination([1.0, 0.0], [a, b])  # weights must be interior
    with pytest.raises(ValidationError):
        ConvexCombination([0.5, 0.5], [a])


def test_composition_requires_matching_dims():
    with pytest.raises(ValidationError):
        Composition([AffineMap.identity(2), AffineMap.identity(3)])
    with pytest.raises(ValidationError):
        Composition([])


def test_operator_call_validates_input():
    op = AffineMap.identity(2)
    with pytest.raises(ValidationError):
        op([1.0, 2.0, 3.0])
    with pytest.raises(ValidationError):
        op([np.nan, 0.0])


# ---------------------------------------------------------------------------
# composition order


def test_composition_applies_first_part_first():
    # shrink-after-shift differs from shift-after-shrink; pin the convention
    shift = AffineMap.translation([1.0, 0.0])
    shrink = AffineMap([[0.5, 0.0], [0.0, 0.5]], [0.0, 0.0])
    comp = Composition([shift, shrink])
    np.testing.assert_allclose(comp([5.0, 5.0]), [3.0, 2.5])
    reversed_comp = Composition([shrink, shift])
    np.testing.assert_allclose(reversed_comp([5.0, 5.0]), [3.5, 2.5])


# ---------------------------------------------------------------------------
# averagedness

_ALPHA_FLOOR = 1e-10


def _bisection_with_norm2(M):
    """Smallest ``alpha`` writing ``M = (1-alpha) Id + alpha N`` with ``N``
    nonexpansive within ``NORM_TOL``, by bisection to width 1e-10 on numpy's
    ``norm(., 2)``; None when there is none below ``ALPHA_CEILING``.

    The test-local reference for ``is_averaged``, and for the constants of the
    composition and convex-combination rules.
    """
    eye = np.eye(M.shape[0])

    def feasible(alpha):
        return float(np.linalg.norm((M - (1.0 - alpha) * eye) / alpha, 2)) <= 1.0 + NORM_TOL

    if feasible(_ALPHA_FLOOR):
        return _ALPHA_FLOOR
    if not feasible(ALPHA_CEILING):
        return None
    lo, hi = _ALPHA_FLOOR, ALPHA_CEILING
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _line_projector(angle):
    """Projector onto the line through the origin at ``angle``: firmly nonexpansive, affine."""
    direction = np.array([[np.cos(angle)], [np.sin(angle)]])
    return SetProjector(AffineSubspace(np.zeros(2), direction))


@pytest.mark.parametrize(
    "matrix, expected",
    [
        (np.zeros((2, 2)), 0.5),
        (0.5 * np.eye(2), 0.25),
    ],
)
def test_minimal_averagedness_known_values(matrix, expected):
    alpha = _bisection_with_norm2(matrix)
    assert alpha == pytest.approx(expected, abs=1e-8)
    assert AffineMap(matrix, [0.0, 0.0]).is_averaged


def test_minimal_averagedness_identity_is_tiny():
    alpha = _bisection_with_norm2(np.eye(3))
    assert alpha is not None and alpha < 1e-5
    assert AffineMap.identity(3).is_averaged


def test_minimal_averagedness_rejects_rotations():
    # a proper rotation is nonexpansive but not averaged for any constant
    for M in (_rotation(np.pi / 4), -np.eye(2)):
        assert _bisection_with_norm2(M) is None
        assert not AffineMap(M, [0.0, 0.0]).is_averaged


def test_minimal_averagedness_rejects_expansive():
    assert _bisection_with_norm2(2.0 * np.eye(2)) is None
    with pytest.raises(ValidationError):
        AffineMap(2.0 * np.eye(2), [0.0, 0.0])


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_minimal_averagedness_certificate_is_sound(seed):
    """Strict contractions are averaged, and the implied map N is nonexpansive."""
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((3, 3))
    M = raw * (0.9 / max(_spectral_norm(raw), 1e-12))
    assert AffineMap(M, np.zeros(3)).is_averaged
    for alpha in (_bisection_with_norm2(M), ALPHA_CEILING):
        N = (M - (1.0 - alpha) * np.eye(3)) / alpha
        assert _spectral_norm(N) <= 1.0 + 1e-8
        np.testing.assert_allclose((1.0 - alpha) * np.eye(3) + alpha * N, M, atol=1e-12)


def test_regularity_fold_two_firmly_is_two_thirds():
    # two firmly nonexpansive maps compose to a 2/3-averaged one
    for angle in (0.3, 1.0, np.pi / 2):
        comp = Composition([_line_projector(0.0), _line_projector(angle)])
        assert comp.is_averaged
        assert _bisection_with_norm2(flatten_to_affine(comp).M) <= 2.0 / 3.0 + 1e-8


def test_regularity_composition_with_rotation_is_only_nonexpansive():
    rot = AffineMap(_rotation(1.0), [0.0, 0.0])
    proj = SetProjector(Ball([0.0, 0.0], 1.0))
    assert proj.is_averaged and not rot.is_averaged
    assert not Composition([rot, proj]).is_averaged
    assert not ConvexCombination([0.5, 0.5], [rot, proj]).is_averaged


def test_regularity_combination_weights_alphas():
    # a convex combination is averaged with the weighted mean of its parts' constants
    p = _line_projector(0.4)  # alpha 1/2
    g = GradientStep(np.diag([2.0, 0.5]), [0.0, 0.0], 0.5)  # alpha 1/2
    combo = ConvexCombination([0.5, 0.5], [p, g])
    assert combo.is_averaged
    assert _bisection_with_norm2(flatten_to_affine(combo).M) <= 0.5 + 1e-8
    both_firm = ConvexCombination([0.25, 0.75], [p, SetProjector(AffineSubspace([0.0, 0.0]))])
    assert both_firm.is_averaged
    assert _bisection_with_norm2(flatten_to_affine(both_firm).M) <= 0.5 + 1e-8


# ---------------------------------------------------------------------------
# gradient steps, resolvents


def test_gradient_step_oracle():
    Q = np.diag([2.0, 0.5])
    step = GradientStep(Q, [0.0, 0.0], 0.5)
    assert step.lipschitz == pytest.approx(2.0)
    np.testing.assert_allclose(step([1.0, 1.0]), [0.0, 0.75])
    assert step.is_averaged


def test_gradient_step_validation():
    Q = np.diag([2.0, 0.5])
    with pytest.raises(ValidationError):
        GradientStep(Q, [0.0, 0.0], 1.1)  # step * lipschitz = 2.2 > 2
    with pytest.raises(ValidationError):
        GradientStep([[0.0, 1.0], [0.0, 0.0]], [0.0, 0.0], 0.1)  # not symmetric
    with pytest.raises(ValidationError):
        GradientStep(-np.eye(2), [0.0, 0.0], 0.1)  # not PSD


@pytest.mark.parametrize("Q, step, message", [
    ([[1.0, 1.0], [-1.0, 1.0]], 0.1, "requires a symmetric Q"),  # symmetric part I
    (-np.eye(2), 0.1, "positive semidefinite"),
    ([[0.0, 1.0], [0.0, 0.0]], 0.1, "positive semidefinite"),  # refused as a MonotoneAffine first
    (np.diag([2.0, 0.5]), 1.1, "exceeds 2"),
], ids=["nonsymmetric", "not-psd", "nonsymmetric-not-psd", "step-too-long"])
def test_gradient_step_refuses_what_its_rules_refuse(Q, step, message):
    with pytest.raises(ValidationError, match=message):
        GradientStep(Q, [0.0, 0.0], step)


def test_gradient_step_at_boundary_is_nonexpansive_only():
    Q = np.diag([2.0, 0.5])
    boundary = GradientStep(Q, [0.0, 0.0], 1.0)  # step * L = 2 exactly
    assert not boundary.is_averaged


def test_resolvent_oracle():
    # J(x) = (I + Q)^{-1} (x - q) with Q = diag(1, 3), q = (1, -2)
    A = MonotoneAffine(np.diag([1.0, 3.0]), [1.0, -2.0])
    J = Resolvent(A)
    np.testing.assert_allclose(J([0.0, 0.0]), [-0.5, 0.5])
    assert J.is_averaged
    # resolvent identity: x = J(x) + Q J(x) + q for every x
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = rng.standard_normal(2)
        jx = J(x)
        np.testing.assert_allclose(jx + A(jx), x, atol=1e-12)


def test_reflected_resolvent_is_two_j_minus_id_as_an_affine_map():
    A = MonotoneAffine(np.zeros((2, 2)), [1.0, 0.0])
    R = ReflectedResolvent(A)
    np.testing.assert_allclose(R([0.0, 0.0]), [-2.0, 0.0])
    R = ReflectedResolvent(MonotoneAffine([[2.0, 1.0], [-1.0, 0.5]], [0.3, -0.7]))
    J = R.resolvent
    assert np.array_equal(R.M, 2.0 * J.M - np.eye(2))  # bitwise: the pair is stored once
    assert np.array_equal(R.b, 2.0 * J.b)
    rng = np.random.default_rng(1)
    for _ in range(100):
        x = rng.standard_normal(2) * 10.0 ** rng.integers(-3, 3)
        # Mx + b and 2 J(x) - x round differently, by a few ulps of 1 + |x|
        ulp = np.spacing(1.0 + np.linalg.norm(x))
        assert np.max(np.abs(R(x) - (2.0 * J(x) - x))) <= 8 * ulp


def test_reflected_resolvent_regularity_from_cocoercivity():
    A = MonotoneAffine(np.diag([2.0, 0.5]), [0.0, 0.0])  # mu = 1/2
    R = ReflectedResolvent(A)
    assert R.is_averaged
    # averaged with constant 1 / (1 + mu) = 2/3
    assert _bisection_with_norm2(flatten_to_affine(R).M) <= 2.0 / 3.0 + 1e-8
    skew = MonotoneAffine([[0.0, 1.0], [-1.0, 0.0]], [0.0, 0.0])  # mu = 0
    assert not ReflectedResolvent(skew).is_averaged


def test_reflected_resolvent_with_a_tiny_modulus_is_averaged():
    # mu is about 1e-17 > 0: averaged, although 1 / (1 + mu) rounds to 1
    A = MonotoneAffine([[1e-9, 1e4], [-1e4, 1e-9]], [0.0, 0.0])
    mu = cocoercivity_modulus(A)
    assert 0.0 < mu < np.finfo(float).eps and 1.0 / (1.0 + mu) == 1.0
    assert ReflectedResolvent(A).is_averaged


# ---------------------------------------------------------------------------
# cocoercivity


def test_cocoercivity_symmetric_is_inverse_lipschitz():
    mu = cocoercivity_modulus(MonotoneAffine(np.diag([2.0, 0.5]), [0.0, 0.0]))
    assert mu == pytest.approx(0.5)


def test_cocoercivity_zero_matrix_capped():
    mu = cocoercivity_modulus(MonotoneAffine(np.zeros((2, 2)), [1.0, 0.0]))
    assert mu == pytest.approx(1e12)


def test_cocoercivity_nearly_symmetric_tiny_map_is_not_capped():
    # symmetric within the slack with a symmetric part below it, but an
    # antisymmetric part whose norm (about 2.5e-10) is not: not the zero map
    n = 8
    skew = 4.9e-11 * (np.triu(np.ones((n, n)), 1) - np.tril(np.ones((n, n)), -1))
    Q = 5e-11 * np.eye(n) + skew
    assert _spectral_norm(Q) > NORM_TOL
    mu = cocoercivity_modulus(MonotoneAffine(Q, np.zeros(n)))
    assert mu == pytest.approx(1.0 / 5e-11)


def test_cocoercivity_nonsymmetric_bound_is_conservative():
    A = MonotoneAffine([[1.0, 1.0], [-1.0, 1.0]], [0.0, 0.0])
    mu = cocoercivity_modulus(A)
    assert mu == pytest.approx(0.5)  # lambda_min(sym)/sigma_max^2 = 1/2
    # the bound must actually certify cocoercivity on samples
    rng = np.random.default_rng(3)
    for _ in range(100):
        d = rng.standard_normal(2)
        qd = A(d) - A(np.zeros(2))
        assert d @ qd >= mu * (qd @ qd) - 1e-12


def test_cocoercivity_skew_is_zero():
    mu = cocoercivity_modulus(MonotoneAffine([[0.0, 1.0], [-1.0, 0.0]], [0.0, 0.0]))
    assert mu == 0.0


# ---------------------------------------------------------------------------
# flattening


def test_flatten_matches_direct_apply():
    line = AffineSubspace(np.array([1.0, 0.0]), np.array([[0.0], [1.0]]))
    ops = Composition([
        AffineMap.translation([0.25, -0.5]),
        SetProjector(line),
        ConvexCombination([0.5, 0.5], [AffineMap.identity(2),
                                       AffineMap([[0.0, 0.0], [0.0, 0.0]], [1.0, 1.0])]),
        Resolvent(MonotoneAffine(np.diag([1.0, 2.0]), [0.5, 0.0])),
    ])
    flat = flatten_to_affine(ops)
    assert flat is not None
    rng = np.random.default_rng(9)
    for _ in range(20):
        x = rng.standard_normal(2)
        np.testing.assert_allclose(flat(x), ops(x), atol=1e-12)


def test_flatten_returns_none_for_curved_sets():
    assert flatten_to_affine(SetProjector(Ball([0.0, 0.0], 1.0))) is None
    comp = Composition([AffineMap.identity(2), SetProjector(Ball([0.0, 0.0], 1.0))])
    assert flatten_to_affine(comp) is None


def test_flatten_singleton_projector_is_constant():
    flat = flatten_to_affine(SetProjector(AffineSubspace([2.0, 3.0])))
    np.testing.assert_allclose(flat([-9.0, 4.0]), [2.0, 3.0])
    np.testing.assert_allclose(flat.M, np.zeros((2, 2)))


def test_spectral_norm_oracle():
    assert _spectral_norm(np.diag([3.0, 1.0])) == pytest.approx(3.0)
    assert _spectral_norm(np.zeros((2, 2))) == 0.0


@pytest.mark.parametrize("rows, cols, rank", [(5, 5, 5), (3, 7, 3), (7, 3, 3), (6, 6, 2),
                                              (50, 50, 50)])
def test_spectral_norm_matches_numpy_norm2_bitwise(rows, cols, rank):
    rng = np.random.default_rng(rows * 100 + cols * 10 + rank)
    for _ in range(20):
        M = rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))
        assert _spectral_norm(M) == float(np.linalg.norm(M, 2))


# ---------------------------------------------------------------------------
# the row contract: _apply / _project on an (n, dim) stack equals row by row

_DIM = 4


def _set_cases():
    rng = np.random.default_rng(21)
    basis = orthonormal_range_basis(rng.standard_normal((_DIM, 2)))
    return {
        "box": Box(-0.5 * np.ones(_DIM), np.ones(_DIM)),
        "ball": Ball(0.1 * rng.standard_normal(_DIM), 1.5),
        "halfspace": Halfspace(rng.standard_normal(_DIM), 0.3),
        "affine_subspace": AffineSubspace(rng.standard_normal(_DIM), basis),
        "singleton": AffineSubspace(rng.standard_normal(_DIM)),
    }


def _operator_cases():
    rng = np.random.default_rng(22)
    sets = _set_cases()
    affine = random_averaged_affine(rng, _DIM)
    orthogonal = random_merely_nonexpansive_affine(rng, _DIM)
    mono = random_psd_monotone(rng, _DIM)
    Q = random_psd_monotone(rng, _DIM, singular=True).Q
    proj = {kind: SetProjector(s) for kind, s in sets.items()}
    return {
        "affine": affine,
        "projector": proj["ball"],
        "compose": Composition([affine, proj["box"], orthogonal, proj["halfspace"]]),
        "combo": ConvexCombination([0.2, 0.3, 0.5],
                                   [proj["ball"], orthogonal, proj["affine_subspace"]]),
        "resolvent": Resolvent(mono),
        "reflected": ReflectedResolvent(mono),
        "gradstep": GradientStep(Q, rng.standard_normal(_DIM), 1.0 / _spectral_norm(Q)),
    }


def _stack():
    """Rows at radius 0.1 to 10: inside and outside every bounded case."""
    rng = np.random.default_rng(23)
    rows = rng.standard_normal((12, _DIM))
    return rows * np.geomspace(0.1, 10.0, 12)[:, None]


def _assert_rowwise(evaluate, X):
    stacked = evaluate(X)
    assert stacked.shape == X.shape
    single = np.array([evaluate(x) for x in X])
    err = np.linalg.norm(stacked - single, axis=1)
    assert np.all(err <= 1e-12 * np.linalg.norm(single, axis=1)), err
    one = evaluate(X[:1])  # an n = 1 stack
    assert one.shape == (1, _DIM)
    assert np.linalg.norm(one[0] - single[0]) <= 1e-12 * np.linalg.norm(single[0])


def test_row_cases_cover_every_kind_of_the_grammar():
    assert set(_set_cases()) == set(_SETS)
    assert set(_operator_cases()) == set(_OPERATORS)


@pytest.mark.parametrize("kind", sorted(_SETS))
def test_project_on_a_stack_matches_row_by_row(kind):
    _assert_rowwise(_set_cases()[kind]._project, _stack())


@pytest.mark.parametrize("kind", sorted(_OPERATORS))
def test_apply_on_a_stack_matches_row_by_row(kind):
    _assert_rowwise(_operator_cases()[kind]._apply, _stack())


def test_stack_has_rows_on_both_sides_of_the_ball_and_halfspace():
    sets, X = _set_cases(), _stack()
    inside = np.linalg.norm(X - sets["ball"].center, axis=1) <= sets["ball"].radius
    slack = X @ sets["halfspace"].normal - sets["halfspace"].offset
    assert inside.any() and not inside.all()
    assert (slack < 0).any() and (slack > 0).any()
    # rows inside (or on the feasible side) come back unchanged, as one vector does
    np.testing.assert_array_equal(sets["ball"]._project(X)[inside], X[inside])
    np.testing.assert_array_equal(sets["halfspace"]._project(X)[slack <= 0], X[slack <= 0])


def test_one_vector_keeps_its_matvec_arithmetic():
    # 1-d input is M @ x bit for bit, so iterates do not move
    op = random_averaged_affine(np.random.default_rng(24), 7)
    x = np.random.default_rng(25).standard_normal(7)
    assert np.array_equal(op._apply(x), op.M @ x + op.b)


_AFFINE_LEAVES = ("resolvent", "reflected", "gradstep")


@pytest.mark.parametrize("kind", _AFFINE_LEAVES)
def test_an_affine_leaf_applies_its_stored_pair_bit_for_bit(kind):
    op = _operator_cases()[kind]
    # an AffineMap with no formula of its own
    assert isinstance(op, AffineMap)
    assert "_apply" not in vars(type(op)) and "_affine_pair" not in vars(type(op))
    X = _stack()
    assert op._apply(X[0]).tobytes() == (op.M @ X[0] + op.b).tobytes()
    assert op._apply(X).tobytes() == (X @ op.M.T + op.b).tobytes()
    assert op._affine_pair() == (op.M, op.b)


@pytest.mark.parametrize("kind", _AFFINE_LEAVES)
def test_an_affine_leaf_flattens_to_itself_without_probes(kind, monkeypatch):
    def no_probes(dim):
        raise AssertionError("an affine leaf has no formulas to cross-check")

    monkeypatch.setattr(operators_mod, "_probe_stack", no_probes)
    op = _operator_cases()[kind]
    assert flatten_to_affine(op) is op


@pytest.mark.parametrize("kind", _AFFINE_LEAVES)
def test_an_affine_leaf_keeps_its_own_averagedness_certificate(kind, monkeypatch):
    def no_svd(M, alpha):
        raise AssertionError("an affine leaf certifies itself without the SVD")

    monkeypatch.setattr(operators_mod, "_averaged_at", no_svd)
    assert _operator_cases()[kind].is_averaged is True


def _spread(rng, shape):
    """Normal draws over sixteen orders of magnitude, so that sums round."""
    return rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)


@pytest.mark.parametrize("build", [AffineMap.translation, lambda b: AffineMap(np.eye(b.size), b)],
                         ids=["translation", "affine-with-identity"])
@pytest.mark.parametrize("dim", [1, 5, 50])
def test_a_translation_applies_as_its_matvec_bit_for_bit(build, dim, monkeypatch):
    rng = np.random.default_rng(dim)
    op = build(_spread(rng, dim))
    x, X = _spread(rng, dim), _spread(rng, (9, dim))
    assert op._apply(x).tobytes() == (op.M @ x + op.b).tobytes()
    assert op._apply(X).tobytes() == (X @ op.M.T + op.b).tobytes()
    # averaged without the SVD of the general test
    monkeypatch.setattr(operators_mod, "_averaged_at", None)
    assert op.is_averaged is True


def test_an_identity_one_ulp_off_takes_the_general_path():
    M = np.eye(5)
    M[2, 2] = np.nextafter(1.0, 0.0)
    rng = np.random.default_rng(3)
    op = AffineMap(M, rng.standard_normal(5))
    x, X = _spread(rng, 5), _spread(rng, (9, 5))
    assert op._apply(x).tobytes() == (M @ x + op.b).tobytes() != (x + op.b).tobytes()
    assert op._apply(X).tobytes() == (X @ M.T + op.b).tobytes() != (X + op.b).tobytes()
    assert op.is_averaged == operators_mod._averaged_at(M, ALPHA_CEILING)


def test_a_projector_applies_its_sets_projection_directly():
    ball = Ball(np.zeros(3), 1.0)
    assert SetProjector(ball)._apply == ball._project  # no call layer of its own
    np.testing.assert_array_equal(SetProjector(ball)([3.0, 4.0, 0.0]), ball.project([3.0, 4.0, 0.0]))


# ---------------------------------------------------------------------------
# the cheap averaged kind


def identity_map(rng, dim):
    return AffineMap.identity(dim)


def orthogonal_projector_map(rng, dim):
    q = np.linalg.qr(rng.standard_normal((dim, max(1, dim // 2))))[0]
    return AffineMap(q @ q.T, np.zeros(dim))


def minus_identity_map(rng, dim):
    return AffineMap(-np.eye(dim), np.zeros(dim))


@pytest.mark.parametrize("generator", [
    partial(random_averaged_affine, norm=0.5),
    partial(random_averaged_affine, norm=0.95),
    partial(random_averaged_affine, norm=1.0),
    random_merely_nonexpansive_affine,
    random_structured_averaged,
    identity_map,
    orthogonal_projector_map,
    minus_identity_map,
])
def test_affine_kind_agrees_with_minimal_averagedness(generator):
    rng = np.random.default_rng(31)
    for dim in (2, 3, 5, 8):
        for _ in range(10):
            op = generator(rng, dim)
            assert op.is_averaged == (_bisection_with_norm2(op.M) is not None)


def test_affine_kind_sees_both_answers():
    rng = np.random.default_rng(32)
    assert random_averaged_affine(rng, 5, norm=0.5).is_averaged
    assert not random_merely_nonexpansive_affine(rng, 5).is_averaged
    assert AffineMap.identity(3).is_averaged  # averaged at the reference's floor


def test_affine_regularity_at_the_norm_slack_never_raises():
    # ulp scalings of a symmetric map with norm about 1 + NORM_TOL, collapsed
    # as flatten_to_affine collapses a tree. With OpenBLAS on x86-64 the k = 0
    # one is averaged at ALPHA_CEILING while its own SVD puts the norm 4.5e-16
    # past 1 + NORM_TOL, where a norm check would refuse it
    M = np.array([[0.20735221666006265, -0.12318033400439406, 0.26019364981151166],
                  [-0.12318033400439406, 0.20474675355549046, -0.34706670104399395],
                  [0.26019364981151166, -0.34706670104399395, 0.7211146454282238]])
    for k in range(-8, 9):
        flat = AffineMap._collapsed(M * (1.0 + k * np.finfo(float).eps), np.zeros(3))
        assert flat.is_averaged == (_bisection_with_norm2(flat.M) is not None)


def _random_tree(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        choice = int(rng.integers(5))
        if choice == 0:
            return random_averaged_affine(rng, 3, norm=float(rng.choice([0.5, 1.0])))
        if choice == 1:
            return random_merely_nonexpansive_affine(rng, 3)
        if choice == 2:
            return SetProjector(Ball(rng.standard_normal(3), 1.0))
        if choice == 3:
            return ReflectedResolvent(MonotoneAffine(
                rng.choice([0.0, 1.0]) * np.eye(3) + np.array([[0, 1, 0], [-1, 0, 0], [0, 0, 0]]),
                rng.standard_normal(3)))
        Q = np.diag(rng.random(3) + 0.1)
        return GradientStep(Q, np.zeros(3), float(rng.choice([1.0, 2.0])) / float(Q.max()))
    parts = [_random_tree(rng, depth - 1) for _ in range(int(rng.integers(1, 4)))]
    if rng.random() < 0.5:
        return Composition(parts)
    weights = rng.random(len(parts)) + 0.1
    return ConvexCombination(weights / weights.sum(), parts)


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_tree_kind_agrees_with_its_regularity(seed):
    # sound: a tree that calls itself averaged flattens, when it does, to a
    # map that the reference finds averaged
    tree = _random_tree(np.random.default_rng(seed), 3)
    flat = flatten_to_affine(tree)
    if tree.is_averaged and flat is not None:
        assert _bisection_with_norm2(flat.M) is not None


def test_builtin_suite_never_runs_the_averagedness_bisection(monkeypatch):
    # one SVD per affine map, at ALPHA_CEILING, decides averagedness
    averaged_at = operators_mod._averaged_at
    alphas = []

    def recorded(M, alpha):
        alphas.append(alpha)
        return averaged_at(M, alpha)

    monkeypatch.setattr(operators_mod, "_averaged_at", recorded)
    reports = builtin_suite(randomized_count=6, cyclic_count=2, cocoercive_count=2)
    assert reports
    assert alphas and set(alphas) == {ALPHA_CEILING}
