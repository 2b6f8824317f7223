"""Tests of the independent reference on the README examples.

Run with ``python3 -m pytest mdvbench/test_reference.py``.
"""

import numpy as np

from reference import halfspace_translation_mdv, least_norm_displacement, reference_mdv


def _reflection(u):
    return {"affine": {"M": (-np.eye(2)).tolist(), "b": [-u[0], -u[1]]}}


def test_two_reflections():
    r1, r2 = _reflection([1.0, 0.0]), _reflection([0.0, 1.0])
    np.testing.assert_allclose(reference_mdv({"compose": [r1, r2]}, 2), [-1.0, 1.0], atol=1e-15)
    np.testing.assert_allclose(reference_mdv({"compose": [r2, r1]}, 2), [1.0, -1.0], atol=1e-15)


def test_halfspace_push():
    onto = {"projector": {"halfspace": {"normal": [1.0, 0.0], "offset": 0.0}}}
    into = {"affine": {"M": np.eye(2).tolist(), "b": [-1.0, 0.0]}}
    for order in ([onto, into], [into, onto]):
        np.testing.assert_allclose(reference_mdv({"compose": order}, 2), [1.0, 0.0])
    np.testing.assert_allclose(halfspace_translation_mdv([1.0, 0.0], [-1.0, 0.0]), [1.0, 0.0])


def test_translation_pointing_into_halfspace_has_fixed_points():
    np.testing.assert_allclose(halfspace_translation_mdv([1.0, 0.0], [1.0, 2.0]), [0.0, -2.0])
    np.testing.assert_allclose(halfspace_translation_mdv([1.0, 1.0], [1.0, 1.0]), [0.0, 0.0])


def test_bounded_factor_and_singleton_combo_give_zero():
    box = {"projector": {"box": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]}}}
    push = {"affine": {"M": np.eye(2).tolist(), "b": [5.0, 0.0]}}
    np.testing.assert_array_equal(reference_mdv({"compose": [box, push]}, 2), [0.0, 0.0])
    half = {"projector": {"halfspace": {"normal": [0.0, 1.0], "offset": 0.0}}}
    point = {"projector": {"singleton": {"point": [0.0, 0.5]}}}
    combo = {"combo": {"weights": [0.5, 0.5], "parts": [half, point]}}
    np.testing.assert_array_equal(reference_mdv(combo, 2), [0.0, 0.0])


def test_no_reference_for_unknown_nonaffine_pipeline():
    h1 = {"projector": {"halfspace": {"normal": [0.0, 1.0], "offset": 0.0}}}
    h2 = {"projector": {"halfspace": {"normal": [1.0, 0.0], "offset": 0.0}}}
    assert reference_mdv({"compose": [h1, h2]}, 2) is None


def test_pure_translation_and_rotation():
    np.testing.assert_allclose(least_norm_displacement(np.eye(3), [1.0, 2.0, 3.0]), [-1.0, -2.0, -3.0])
    c, s = np.cos(0.3), np.sin(0.3)
    rot = np.array([[c, -s], [s, c]])
    np.testing.assert_allclose(least_norm_displacement(rot, [1.0, 2.0]), [0.0, 0.0], atol=1e-15)
