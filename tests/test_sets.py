"""Projection oracles for the convex-set variants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdvkit.errors import ValidationError
from mdvkit.numeric import AffineSubspace, ConvexSet, orthonormal_range_basis
from mdvkit.operators import SetProjector, flatten_to_affine
from mdvkit.sets import Ball, Box, Halfspace, full_space


def test_box_projection_clips():
    box = Box([-1.0, -1.0], [1.0, 1.0])
    np.testing.assert_allclose(box.project([3.0, 0.5]), [1.0, 0.5])
    np.testing.assert_allclose(box.project([0.2, -0.3]), [0.2, -0.3])
    assert box.distance([3.0, 0.0]) == pytest.approx(2.0)
    assert box.distance([1.0, 1.0]) <= 1e-8 and not box.distance([1.1, 0.0]) <= 1e-8


def test_box_validation():
    with pytest.raises(ValidationError):
        Box([1.0, 0.0], [0.0, 1.0])  # lo > hi in the first coordinate
    with pytest.raises(ValidationError):
        Box([0.0], [1.0, 2.0])


def test_ball_projection_radial():
    ball = Ball([1.0, 0.0], 2.0)
    np.testing.assert_allclose(ball.project([6.0, 0.0]), [3.0, 0.0])
    np.testing.assert_allclose(ball.project([1.0, 0.0]), [1.0, 0.0])  # center fixed
    assert ball.distance([6.0, 0.0]) == pytest.approx(3.0)
    with pytest.raises(ValidationError):
        Ball([0.0, 0.0], -1.0)


@pytest.mark.parametrize("dim", [1, 5, 50])
def test_ball_projection_is_the_norm_formula_bit_for_bit(dim):
    rng = np.random.default_rng(dim)
    ball = Ball(rng.standard_normal(dim), 0.5 + float(rng.random()))
    for _ in range(50):
        v = rng.standard_normal(dim)
        x = ball.center + ball.radius * (1.0 + 10.0 ** rng.uniform(-6.0, 2.0)) * v / np.linalg.norm(v)
        d = x - ball.center
        assert np.linalg.norm(d) > ball.radius
        want = ball.center + d * (ball.radius / np.linalg.norm(d))
        assert ball._project(x).tobytes() == want.tobytes()


def test_halfspace_projection():
    # {x : x1 <= 1}
    hs = Halfspace([1.0, 0.0], 1.0)
    np.testing.assert_allclose(hs.project([3.0, 4.0]), [1.0, 4.0])
    np.testing.assert_allclose(hs.project([0.0, 0.0]), [0.0, 0.0])
    # non-unit normal scales the same set: {2 x1 <= 2}
    hs2 = Halfspace([2.0, 0.0], 2.0)
    np.testing.assert_allclose(hs2.project([3.0, 0.0]), [1.0, 0.0])
    with pytest.raises(ValidationError):
        Halfspace([0.0, 0.0], 1.0)


def test_affine_set_wraps_subspace():
    line = AffineSubspace(np.array([1.0, 2.0]), np.array([[0.0], [1.0]]))
    np.testing.assert_allclose(line.project([0.0, 0.0]), [1.0, 0.0])
    assert line.distance([1.0, 5.0]) <= 1e-8


def test_singleton_and_full_space():
    s = AffineSubspace([2.0, -1.0])
    np.testing.assert_allclose(s.project([0.0, 0.0]), [2.0, -1.0])
    everything = full_space(3)
    y = np.array([4.0, -5.0, 6.0])
    np.testing.assert_allclose(everything.project(y), y)
    assert everything.distance(y) <= 1e-8


@pytest.mark.parametrize("dim", [2.5, True, "3", 0, -1, None, np.float64(3.0)])
def test_full_space_refuses_a_dim_that_is_not_an_integer_of_at_least_one(dim):
    with pytest.raises(ValidationError, match="integer of at least one"):
        full_space(dim)


def test_full_space_takes_a_numpy_integer():
    assert full_space(np.int64(3)).rank == 3


def test_an_affine_subspace_is_an_immutable_convex_set_without_a_dict():
    line = AffineSubspace([1.0, 2.0], [[0.0], [1.0]])
    assert isinstance(line, ConvexSet)
    assert not hasattr(line, "__dict__")
    for name in ("base", "dim", "extra"):
        with pytest.raises(AttributeError):
            setattr(line, name, np.zeros(2))


def test_a_subspace_projector_flattens_to_the_projection_formula_bit_for_bit():
    rng = np.random.default_rng(31)
    base = rng.standard_normal(5)
    basis = orthonormal_range_basis(rng.standard_normal((5, 2)))
    P = basis @ basis.T
    flat = flatten_to_affine(SetProjector(AffineSubspace(base, basis)))
    assert flat.M.tobytes() == P.tobytes()
    assert flat.b.tobytes() == (base - P @ base).tobytes()
    point = np.array([1.5, -0.0, -2.0])
    flat = flatten_to_affine(SetProjector(AffineSubspace(point)))
    assert flat.M.tobytes() == np.zeros((3, 3)).tobytes()
    assert flat.b.tobytes() == point.tobytes()


def test_projection_validates_dimension():
    box = Box([-1.0], [1.0])
    with pytest.raises(ValidationError):
        box.project([1.0, 2.0])


_SETS = [
    Box([-1.0, -0.5], [0.5, 2.0]),
    Ball([0.3, -0.2], 1.5),
    Halfspace([1.0, -2.0], 0.7),
    AffineSubspace(np.array([1.0, 0.0]), np.array([[0.0], [1.0]])),
    AffineSubspace([0.1, 0.2]),
]
_SET_IDS = ["Box", "Ball", "Halfspace", "AffineSet", "Singleton"]


@pytest.mark.parametrize("set_", _SETS, ids=_SET_IDS)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=50, deadline=None)
def test_projector_is_firmly_nonexpansive(set_, seed):
    # ||Px - Py||^2 <= <Px - Py, x - y> characterizes projections onto convex sets
    rng = np.random.default_rng(seed)
    x, y = rng.uniform(-5.0, 5.0, size=(2, 2))
    px, py = set_.project(x), set_.project(y)
    gap = float((px - py) @ (px - py)) - float((px - py) @ (x - y))
    assert gap <= 1e-10


@pytest.mark.parametrize("set_", _SETS, ids=_SET_IDS)
def test_projection_is_idempotent(set_):
    rng = np.random.default_rng(11)
    for _ in range(20):
        p = set_.project(rng.uniform(-5.0, 5.0, size=2))
        assert set_.distance(p) <= 1e-9
        np.testing.assert_allclose(set_.project(p), p, atol=1e-9)
