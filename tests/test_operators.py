"""Operator variants: construction, regularity certificates, flattening."""

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdvkit.errors import NumericalError, ValidationError
from mdvkit.operators import (
    ALPHA_CEILING,
    ALPHA_FLOOR,
    NORM_TOL,
    AffineMap,
    Composition,
    ConvexCombination,
    GradientStep,
    MonotoneAffine,
    ReflectedResolvent,
    Regularity,
    Resolvent,
    SetProjector,
    cocoercivity_modulus,
    flatten_to_affine,
    minimal_averagedness,
    spectral_norm,
)
from mdvkit import operators as operators_mod
from mdvkit.sets import AffineSet, Ball, Box, Halfspace, Singleton
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


@pytest.mark.parametrize(
    "matrix, expected",
    [
        (np.zeros((2, 2)), 0.5),
        (0.5 * np.eye(2), 0.25),
    ],
)
def test_minimal_averagedness_known_values(matrix, expected):
    alpha = minimal_averagedness(matrix)
    assert alpha == pytest.approx(expected, abs=1e-8)


def test_minimal_averagedness_identity_is_tiny():
    alpha = minimal_averagedness(np.eye(3))
    assert alpha is not None and alpha < 1e-5


def test_minimal_averagedness_rejects_rotations():
    # a proper rotation is nonexpansive but not averaged for any constant
    assert minimal_averagedness(_rotation(np.pi / 4)) is None
    assert minimal_averagedness(-np.eye(2)) is None


def test_minimal_averagedness_rejects_expansive():
    with pytest.raises(ValidationError):
        minimal_averagedness(2.0 * np.eye(2))


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_minimal_averagedness_certificate_is_sound(seed):
    """Whenever a constant is returned, the implied map N is nonexpansive."""
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((3, 3))
    M = raw * (0.9 / max(spectral_norm(raw), 1e-12))
    alpha = minimal_averagedness(M)
    assert alpha is not None  # strict contractions are always averaged
    N = (M - (1.0 - alpha) * np.eye(3)) / alpha
    assert spectral_norm(N) <= 1.0 + 1e-8
    np.testing.assert_allclose((1.0 - alpha) * np.eye(3) + alpha * N, M, atol=1e-12)


def _bisection_with_norm2(M, tol=NORM_TOL):
    """``minimal_averagedness`` with numpy's ``norm(., 2)`` as its feasibility norm."""
    eye = np.eye(M.shape[0])

    def feasible(alpha):
        return float(np.linalg.norm((M - (1.0 - alpha) * eye) / alpha, 2)) <= 1.0 + tol

    if feasible(ALPHA_FLOOR):
        return ALPHA_FLOOR
    if not feasible(ALPHA_CEILING):
        return None
    lo, hi = ALPHA_FLOOR, ALPHA_CEILING
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


@pytest.mark.parametrize("generator", [random_averaged_affine, random_structured_averaged])
def test_minimal_averagedness_matches_norm2_bisection_bitwise(generator):
    rng = np.random.default_rng(11)
    for _ in range(40):
        M = generator(rng, 5).M
        assert minimal_averagedness(M) == _bisection_with_norm2(M)


def test_regularity_fold_two_firmly_is_two_thirds():
    p1 = SetProjector(Ball([0.0, 0.0], 1.0))
    p2 = SetProjector(Ball([1.0, 0.0], 2.0))
    reg = Composition([p1, p2]).regularity()
    assert reg.is_averaged
    assert reg.averagedness == pytest.approx(2.0 / 3.0)


def test_regularity_composition_with_rotation_is_only_nonexpansive():
    rot = AffineMap(_rotation(1.0), [0.0, 0.0])
    proj = SetProjector(Ball([0.0, 0.0], 1.0))
    reg = Composition([rot, proj]).regularity()
    assert reg.kind == "nonexpansive" and not reg.is_averaged


def test_regularity_combination_weights_alphas():
    p = SetProjector(Ball([0.0, 0.0], 1.0))  # alpha 1/2
    g = GradientStep(np.diag([2.0, 0.5]), [0.0, 0.0], 0.5)  # alpha 1/2
    combo = ConvexCombination([0.5, 0.5], [p, g])
    assert combo.regularity().averagedness == pytest.approx(0.5)
    both_firm = ConvexCombination([0.25, 0.75], [p, SetProjector(Singleton([0.0, 0.0]))])
    assert both_firm.regularity().kind == "firmly"


def test_regularity_classmethods():
    assert Regularity.firmly().averagedness == 0.5
    assert Regularity.nonexpansive().averagedness is None
    with pytest.raises(ValidationError):
        Regularity.averaged(1.0)
    with pytest.raises(ValidationError):
        Regularity.averaged(0.0)


# ---------------------------------------------------------------------------
# gradient steps, resolvents


def test_gradient_step_oracle():
    Q = np.diag([2.0, 0.5])
    step = GradientStep(Q, [0.0, 0.0], 0.5)
    assert step.lipschitz == pytest.approx(2.0)
    np.testing.assert_allclose(step([1.0, 1.0]), [0.0, 0.75])
    assert step.regularity().averagedness == pytest.approx(0.5)


def test_gradient_step_validation():
    Q = np.diag([2.0, 0.5])
    with pytest.raises(ValidationError):
        GradientStep(Q, [0.0, 0.0], 1.1)  # step * lipschitz = 2.2 > 2
    with pytest.raises(ValidationError):
        GradientStep([[0.0, 1.0], [0.0, 0.0]], [0.0, 0.0], 0.1)  # not symmetric
    with pytest.raises(ValidationError):
        GradientStep(-np.eye(2), [0.0, 0.0], 0.1)  # not PSD


def test_gradient_step_at_boundary_is_nonexpansive_only():
    Q = np.diag([2.0, 0.5])
    boundary = GradientStep(Q, [0.0, 0.0], 1.0)  # step * L = 2 exactly
    assert boundary.regularity().kind == "nonexpansive"


def test_resolvent_oracle():
    # J(x) = (I + Q)^{-1} (x - q) with Q = diag(1, 3), q = (1, -2)
    A = MonotoneAffine(np.diag([1.0, 3.0]), [1.0, -2.0])
    J = Resolvent(A)
    np.testing.assert_allclose(J([0.0, 0.0]), [-0.5, 0.5])
    assert J.regularity().kind == "firmly"
    # resolvent identity: x = J(x) + Q J(x) + q for every x
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = rng.standard_normal(2)
        jx = J(x)
        np.testing.assert_allclose(jx + A(jx), x, atol=1e-12)


def test_reflected_resolvent_is_exactly_two_j_minus_id():
    A = MonotoneAffine(np.zeros((2, 2)), [1.0, 0.0])
    R = ReflectedResolvent(A)
    np.testing.assert_allclose(R([0.0, 0.0]), [-2.0, 0.0])
    rng = np.random.default_rng(1)
    for _ in range(10):
        x = rng.standard_normal(2)
        assert np.array_equal(R(x), 2.0 * R.resolvent(x) - x)  # bitwise, not approx


def test_reflected_resolvent_regularity_from_cocoercivity():
    A = MonotoneAffine(np.diag([2.0, 0.5]), [0.0, 0.0])  # mu = 1/2
    reg = ReflectedResolvent(A).regularity()
    assert reg.averagedness == pytest.approx(2.0 / 3.0)
    skew = MonotoneAffine([[0.0, 1.0], [-1.0, 0.0]], [0.0, 0.0])  # mu = 0
    assert ReflectedResolvent(skew).regularity().kind == "nonexpansive"


# ---------------------------------------------------------------------------
# cocoercivity


def test_cocoercivity_symmetric_is_inverse_lipschitz():
    mu, exact = cocoercivity_modulus(MonotoneAffine(np.diag([2.0, 0.5]), [0.0, 0.0]))
    assert exact and mu == pytest.approx(0.5)


def test_cocoercivity_zero_matrix_capped():
    mu, exact = cocoercivity_modulus(MonotoneAffine(np.zeros((2, 2)), [1.0, 0.0]))
    assert exact and mu == pytest.approx(1e12)


def test_cocoercivity_nearly_symmetric_tiny_map_is_not_capped():
    # symmetric within the slack with a symmetric part below it, but an
    # antisymmetric part whose norm (about 2.5e-10) is not: not the zero map
    n = 8
    skew = 4.9e-11 * (np.triu(np.ones((n, n)), 1) - np.tril(np.ones((n, n)), -1))
    Q = 5e-11 * np.eye(n) + skew
    assert spectral_norm(Q) > NORM_TOL
    mu, exact = cocoercivity_modulus(MonotoneAffine(Q, np.zeros(n)))
    assert exact and mu == pytest.approx(1.0 / 5e-11)


def test_cocoercivity_nonsymmetric_bound_is_conservative():
    A = MonotoneAffine([[1.0, 1.0], [-1.0, 1.0]], [0.0, 0.0])
    mu, exact = cocoercivity_modulus(A)
    assert not exact
    assert mu == pytest.approx(0.5)  # lambda_min(sym)/sigma_max^2 = 1/2
    # the bound must actually certify cocoercivity on samples
    rng = np.random.default_rng(3)
    for _ in range(100):
        d = rng.standard_normal(2)
        qd = A(d) - A(np.zeros(2))
        assert d @ qd >= mu * (qd @ qd) - 1e-12


def test_cocoercivity_skew_is_zero():
    mu, exact = cocoercivity_modulus(MonotoneAffine([[0.0, 1.0], [-1.0, 0.0]], [0.0, 0.0]))
    assert mu == 0.0 and not exact


# ---------------------------------------------------------------------------
# flattening


def test_flatten_matches_direct_apply():
    line = AffineSet(AffineSubspace(np.array([1.0, 0.0]), np.array([[0.0], [1.0]])))
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
    flat = flatten_to_affine(SetProjector(Singleton([2.0, 3.0])))
    np.testing.assert_allclose(flat([-9.0, 4.0]), [2.0, 3.0])
    np.testing.assert_allclose(flat.M, np.zeros((2, 2)))


def test_spectral_norm_oracle():
    assert spectral_norm(np.diag([3.0, 1.0])) == pytest.approx(3.0)
    assert spectral_norm(np.zeros((2, 2))) == 0.0


@pytest.mark.parametrize("rows, cols, rank", [(5, 5, 5), (3, 7, 3), (7, 3, 3), (6, 6, 2),
                                              (50, 50, 50)])
def test_spectral_norm_matches_numpy_norm2_bitwise(rows, cols, rank):
    rng = np.random.default_rng(rows * 100 + cols * 10 + rank)
    for _ in range(20):
        M = rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))
        assert spectral_norm(M) == float(np.linalg.norm(M, 2))


def test_affine_map_keeps_its_spectral_norm():
    M = 0.9 * _rotation(0.3)
    assert AffineMap(M, [0.0, 0.0]).norm == spectral_norm(M)


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
        "affine_subspace": AffineSet(AffineSubspace(rng.standard_normal(_DIM), basis)),
        "singleton": Singleton(rng.standard_normal(_DIM)),
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
        "gradstep": GradientStep(Q, rng.standard_normal(_DIM), 1.0 / spectral_norm(Q)),
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
            assert op.is_averaged == (minimal_averagedness(op.M) is not None)


def test_affine_kind_sees_both_answers():
    rng = np.random.default_rng(32)
    assert random_averaged_affine(rng, 5, norm=0.5).is_averaged
    assert not random_merely_nonexpansive_affine(rng, 5).is_averaged
    assert AffineMap.identity(3).is_averaged  # the ALPHA_FLOOR case


def test_affine_regularity_at_the_norm_slack_never_raises():
    # ulp scalings of a symmetric map with norm about 1 + NORM_TOL, collapsed
    # as flatten_to_affine collapses a tree. With OpenBLAS on x86-64 the k = 0
    # one is averaged at ALPHA_CEILING while its own SVD puts the norm 4.5e-16
    # past 1 + NORM_TOL, where minimal_averagedness raises ValidationError
    M = np.array([[0.20735221666006265, -0.12318033400439406, 0.26019364981151166],
                  [-0.12318033400439406, 0.20474675355549046, -0.34706670104399395],
                  [0.26019364981151166, -0.34706670104399395, 0.7211146454282238]])
    for k in range(-8, 9):
        flat = AffineMap._collapsed(M * (1.0 + k * np.finfo(float).eps), np.zeros(3))
        assert flat.regularity().is_averaged == flat.is_averaged


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


def _kind_from_leaf_certificates(op):
    """Averaged iff every leaf's full certificate (the bisection for affine leaves) says so."""
    if isinstance(op, (Composition, ConvexCombination)):
        return all(_kind_from_leaf_certificates(p) for p in op.parts)
    return op.regularity().is_averaged


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_tree_kind_agrees_with_its_regularity(seed):
    tree = _random_tree(np.random.default_rng(seed), 3)
    kind = tree.is_averaged  # decided before any certificate is computed
    assert kind == _kind_from_leaf_certificates(tree)
    reg = tree.regularity()
    assert reg.is_averaged == kind
    flat = flatten_to_affine(tree)
    if kind and flat is not None:  # the combinator constant is a valid certificate
        assert minimal_averagedness(flat.M) <= reg.averagedness + 1e-8


def test_builtin_suite_never_runs_the_averagedness_bisection(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("minimal_averagedness called on the hot path")

    monkeypatch.setattr(operators_mod, "minimal_averagedness", refuse)
    monkeypatch.setattr(operators_mod, "_bisect_averagedness", refuse)
    reports = builtin_suite(randomized_count=6, cyclic_count=2, cocoercive_count=2)
    assert reports
