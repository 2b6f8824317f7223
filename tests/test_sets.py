"""Projection oracles for the convex-set variants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdvkit.errors import ValidationError
from mdvkit.numeric import AffineSubspace
from mdvkit.sets import AffineSet, Ball, Box, Halfspace, Singleton, full_space


def test_box_projection_clips():
    box = Box([-1.0, -1.0], [1.0, 1.0])
    np.testing.assert_allclose(box.project([3.0, 0.5]), [1.0, 0.5])
    np.testing.assert_allclose(box.project([0.2, -0.3]), [0.2, -0.3])
    assert box.distance([3.0, 0.0]) == pytest.approx(2.0)
    assert box.contains([1.0, 1.0]) and not box.contains([1.1, 0.0])


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
    line = AffineSet(AffineSubspace(np.array([1.0, 2.0]), np.array([[0.0], [1.0]])))
    np.testing.assert_allclose(line.project([0.0, 0.0]), [1.0, 0.0])
    assert line.contains([1.0, 5.0])


def test_singleton_and_full_space():
    s = Singleton([2.0, -1.0])
    np.testing.assert_allclose(s.project([0.0, 0.0]), [2.0, -1.0])
    everything = full_space(3)
    y = np.array([4.0, -5.0, 6.0])
    np.testing.assert_allclose(everything.project(y), y)
    assert everything.contains(y)


def test_projection_validates_dimension():
    box = Box([-1.0], [1.0])
    with pytest.raises(ValidationError):
        box.project([1.0, 2.0])


_SETS = [
    Box([-1.0, -0.5], [0.5, 2.0]),
    Ball([0.3, -0.2], 1.5),
    Halfspace([1.0, -2.0], 0.7),
    AffineSet(AffineSubspace(np.array([1.0, 0.0]), np.array([[0.0], [1.0]]))),
    Singleton([0.1, 0.2]),
]


@pytest.mark.parametrize("set_", _SETS, ids=lambda s: type(s).__name__)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=50, deadline=None)
def test_projector_is_firmly_nonexpansive(set_, seed):
    # ||Px - Py||^2 <= <Px - Py, x - y> characterizes projections onto convex sets
    rng = np.random.default_rng(seed)
    x, y = rng.uniform(-5.0, 5.0, size=(2, 2))
    px, py = set_.project(x), set_.project(y)
    gap = float((px - py) @ (px - py)) - float((px - py) @ (x - y))
    assert gap <= 1e-10


@pytest.mark.parametrize("set_", _SETS, ids=lambda s: type(s).__name__)
def test_projection_is_idempotent(set_):
    rng = np.random.default_rng(11)
    for _ in range(20):
        p = set_.project(rng.uniform(-5.0, 5.0, size=2))
        assert set_.contains(p, tol=1e-9)
        np.testing.assert_allclose(set_.project(p), p, atol=1e-9)
