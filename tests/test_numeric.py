"""Tests for the linear-algebra substrate: rank detection and affine subspaces."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdvkit.errors import ValidationError
from mdvkit.numeric import (
    AffineSubspace,
    affine_discrepancy,
    as_matrix,
    as_vector,
    minkowski_sum_affine,
    orthonormal_range_basis,
)
from mdvkit.operators import AffineMap
from mdvkit.sets import Box


def test_as_vector_accepts_lists_and_checks_dim():
    v = as_vector([1.0, 2.0, 3.0])
    assert v.shape == (3,)
    with pytest.raises(ValidationError):
        as_vector([1.0, 2.0], dim=3)
    with pytest.raises(ValidationError):
        as_vector([[1.0, 2.0]])
    with pytest.raises(ValidationError):
        as_vector([np.nan, 0.0])


_NOT_REAL = {
    "str-vector": lambda: as_vector(["1.5", "2"]),
    "str-matrix": lambda: as_matrix([["1", "0"], ["0", "1"]]),
    "str-affine-map": lambda: AffineMap([["1", "0"], ["0", "1"]], ["0", "0"]),
    "str-box": lambda: Box(["0", "0"], ["1", "1"]),
    "bytes": lambda: as_vector([b"1"]),
    "bool": lambda: as_vector([True, False]),
    "datetime64": lambda: as_vector(np.array(["2020-01-01"], dtype="datetime64[D]")),
    "complex-array": lambda: as_vector(np.array([1 + 2j, 3])),
    "complex-scalars": lambda: as_vector([np.complex128(1 + 2j), np.complex128(3)]),
    "huge-int-vector": lambda: as_vector([10**400]),
    "huge-int-matrix": lambda: as_matrix([[10**400]]),
}


@pytest.mark.parametrize("case", sorted(_NOT_REAL))
def test_an_array_of_a_non_real_dtype_is_refused(case):
    with pytest.raises(ValidationError, match="of real numbers"):
        _NOT_REAL[case]()


def test_as_matrix_square_check():
    as_matrix(np.eye(2), square=True)
    with pytest.raises(ValidationError):
        as_matrix(np.ones((2, 3)), square=True)
    with pytest.raises(ValidationError):
        as_matrix([[np.inf, 0.0], [0.0, 1.0]])


def test_range_basis_rank_one():
    # columns all multiples of (1, 2): basis is +-(1,2)/sqrt(5)
    M = np.array([[1.0, 2.0], [2.0, 4.0]])
    B = orthonormal_range_basis(M)
    assert B.shape == (2, 1)
    direction = np.array([1.0, 2.0]) / np.sqrt(5.0)
    assert abs(abs(float(B[:, 0] @ direction)) - 1.0) < 1e-12


def test_range_basis_zero_matrix_and_floor():
    assert orthonormal_range_basis(np.zeros((3, 3))).shape == (3, 0)
    # noise-level matrix: the relative cutoff alone would keep every
    # direction, the absolute floor must drop them all
    noise = 1e-16 * np.eye(4)
    assert orthonormal_range_basis(noise, floor=1e-12).shape == (4, 0)
    assert orthonormal_range_basis(noise).shape[1] == 4  # relative-only keeps them


def test_range_basis_orthonormal_columns():
    rng = np.random.default_rng(5)
    M = rng.standard_normal((6, 3))
    B = orthonormal_range_basis(M)
    assert B.shape == (6, 3)
    np.testing.assert_allclose(B.T @ B, np.eye(3), atol=1e-12)


def test_subspace_projection_line_oracle():
    # line {(1, 2) + t e2}: projecting the origin kills the e2 offset -> (1, 0)
    line = AffineSubspace(np.array([1.0, 2.0]), np.array([[0.0], [1.0]]))
    np.testing.assert_allclose(line.project(np.zeros(2)), [1.0, 0.0], atol=1e-14)
    assert line.distance(np.zeros(2)) == pytest.approx(1.0)
    assert line.rank == 1 and line.dim == 2
    assert line.distance(np.array([1.0, -7.5])) <= 1e-8
    assert not line.distance(np.array([1.1, 0.0])) <= 1e-8


def test_subspace_singleton():
    point = AffineSubspace(np.array([2.0, -1.0]))
    assert point.rank == 0
    np.testing.assert_allclose(point.project(np.array([9.0, 9.0])), [2.0, -1.0])
    assert point.distance(np.array([2.0, 0.0])) == pytest.approx(1.0)


def test_subspace_rejects_non_orthonormal_basis():
    with pytest.raises(ValidationError):
        AffineSubspace(np.zeros(2), np.array([[1.0], [1.0]]))  # norm sqrt(2)
    with pytest.raises(ValidationError):
        AffineSubspace(np.zeros(2), np.ones((2, 2)) / np.sqrt(2.0))  # dependent


def test_subspace_is_immutable():
    s = AffineSubspace(np.zeros(2), np.array([[1.0], [0.0]]))
    with pytest.raises(ValueError):
        s.base[0] = 5.0
    with pytest.raises(ValueError):
        s.basis[0, 0] = 5.0


def test_scaled():
    line = AffineSubspace(np.array([1.0, 2.0]), np.array([[0.0], [1.0]]))
    doubled = line.scaled(2.0)
    np.testing.assert_allclose(doubled.base, [2.0, 4.0])
    assert doubled.rank == 1
    collapsed = line.scaled(0.0)
    assert collapsed.rank == 0
    np.testing.assert_allclose(collapsed.base, [0.0, 0.0])


@pytest.mark.parametrize("factor", ["2", True, None, [2.0], np.inf, np.nan])
def test_scaled_refuses_a_factor_that_is_not_a_finite_real(factor):
    line = AffineSubspace(np.array([1.0, 2.0]), np.array([[0.0], [1.0]]))
    with pytest.raises(ValidationError, match="scale factor must be finite"):
        line.scaled(factor)


def test_minkowski_sum_of_axes_is_plane():
    x_axis = AffineSubspace(np.zeros(2), np.array([[1.0], [0.0]]))
    y_axis = AffineSubspace(np.array([0.5, 0.0]), np.array([[0.0], [1.0]]))
    plane = minkowski_sum_affine(x_axis, y_axis)
    assert plane.rank == 2
    assert plane.distance(np.array([-3.0, 11.0])) <= 1e-8


def test_minkowski_sum_of_points():
    a = AffineSubspace(np.array([1.0, 0.0]))
    b = AffineSubspace(np.array([0.0, 2.0]))
    s = minkowski_sum_affine(a, b)
    assert s.rank == 0
    np.testing.assert_allclose(s.base, [1.0, 2.0])


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_computed_subspaces_are_frozen_and_refuse_an_overflowed_base():
    far = AffineSubspace(np.array([1e308, 0.0]), np.array([[0.0], [1.0]]))
    for s in (far.scaled(0.5), far.scaled(0.0), minkowski_sum_affine(far, far.scaled(0.5))):
        assert not s.base.flags.writeable and not s.basis.flags.writeable
    with pytest.raises(ValidationError, match="finite"):
        far.scaled(10.0)
    with pytest.raises(ValidationError, match="finite"):
        minkowski_sum_affine(far, far)


def test_affine_equal_different_parameterizations():
    # same line through (1,0) with direction (1,1), written two ways
    d = np.array([[1.0], [1.0]]) / np.sqrt(2.0)
    s1 = AffineSubspace(np.array([1.0, 0.0]), d)
    s2 = AffineSubspace(np.array([0.0, -1.0]), -d)
    assert affine_discrepancy(s1, s2) < 1e-12
    s3 = AffineSubspace(np.array([0.0, -1.0 + 1e-3]), d)
    assert affine_discrepancy(s1, s3) > 1e-9


@pytest.mark.parametrize("bad", [-1.0, np.nan])
def test_rank_and_equality_tolerances_reject_negative_and_nan(bad):
    # a NaN cutoff used to keep no direction: rank 0 for the identity
    with pytest.raises(ValidationError):
        orthonormal_range_basis(np.eye(3), tol=bad)
    with pytest.raises(ValidationError):
        orthonormal_range_basis(np.eye(3), floor=bad)


def test_affine_discrepancy_detects_span_mismatch():
    # a strict inclusion is still an equality failure: the extra basis
    # direction of the larger space shows up at full length
    s1 = AffineSubspace(np.zeros(2), np.array([[1.0], [0.0]]))
    s2 = AffineSubspace(np.zeros(2))  # just the origin
    assert affine_discrepancy(s1, s2) == pytest.approx(1.0)
    assert affine_discrepancy(s2, s1) == pytest.approx(1.0)  # symmetric
    assert affine_discrepancy(s1, s1) == 0.0


@st.composite
def _subspace_and_point(draw):
    dim = draw(st.integers(min_value=1, max_value=5))
    rank = draw(st.integers(min_value=0, max_value=dim))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    base = rng.uniform(-10.0, 10.0, size=dim)
    if rank:
        q, _ = np.linalg.qr(rng.standard_normal((dim, rank)))
        basis = q[:, :rank]
    else:
        basis = None
    y = rng.uniform(-10.0, 10.0, size=dim)
    return AffineSubspace(base, basis), y


@given(_subspace_and_point())
@settings(max_examples=100, deadline=None)
def test_projection_is_idempotent_and_lands_inside(data):
    s, y = data
    p = s.project(y)
    assert s.distance(p) <= 1e-7
    np.testing.assert_allclose(s.project(p), p, atol=1e-8)
    # projection never increases distance to any member, take the base point
    assert np.linalg.norm(p - s.base) <= np.linalg.norm(y - s.base) + 1e-8
