import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modwrench.geometry import (
    E1,
    E3,
    cross,
    rotation_about_axis,
    wrench,
)

SQRT2 = np.sqrt(2.0)


def test_zero_angle_is_identity():
    assert np.allclose(rotation_about_axis(E3, 0.0), np.eye(3))


def test_quarter_turn_about_x():
    R = rotation_about_axis(E1, np.pi / 2)
    assert np.allclose(R @ E3, [0.0, -1.0, 0.0], atol=1e-12)


def test_diagonal_axis_eighth_turn():
    # hand evaluation of cos(a)*e3 + sin(a)*(axis x e3) with axis (1,1,0)/sqrt(2)
    axis = np.array([1.0, 1.0, 0.0]) / SQRT2
    R = rotation_about_axis(axis, np.pi / 4)
    assert np.allclose(R @ E3, [0.5, -0.5, SQRT2 / 2], atol=1e-12)


def test_rotation_rejects_non_unit_axis():
    with pytest.raises(ValueError):
        rotation_about_axis(np.array([1.0, 1.0, 0.0]), 0.3)


def test_rotation_rejects_nonfinite():
    with pytest.raises(ValueError):
        rotation_about_axis(E3, np.nan)
    with pytest.raises(ValueError):
        rotation_about_axis(np.array([np.inf, 0, 0]), 0.0)


def test_cross_basis_identities():
    assert np.allclose(cross([1, 0, 0], [0, 0, 1]), [0, -1, 0])
    assert np.allclose(cross([0, 1, 0], [0, 0, 1]), [1, 0, 0])


@st.composite
def unit_vectors(draw):
    v = np.array([draw(st.floats(-1, 1)) for _ in range(3)])
    n = np.linalg.norm(v)
    if n < 1e-3:
        v = np.array([1.0, 0.0, 0.0])
        n = 1.0
    return v / n


@given(unit_vectors(), st.floats(-2 * np.pi, 2 * np.pi))
@settings(max_examples=200)
def test_rotation_times_inverse_is_identity(axis, angle):
    R = rotation_about_axis(axis, angle) @ rotation_about_axis(axis, -angle)
    assert np.max(np.abs(R - np.eye(3))) < 1e-10


@given(unit_vectors(), st.floats(-2 * np.pi, 2 * np.pi))
@settings(max_examples=200)
def test_rotation_is_proper(axis, angle):
    R = rotation_about_axis(axis, angle)
    assert np.max(np.abs(R.T @ R - np.eye(3))) <= 1e-12
    assert abs(np.linalg.det(R) - 1.0) <= 1e-12


@given(st.lists(st.floats(-1e3, 1e3), min_size=6, max_size=6))
@settings(max_examples=200)
def test_cross_product_orthogonality(vals):
    a = np.array(vals[:3])
    b = np.array(vals[3:])
    c = cross(a, b)
    scale = max(1.0, np.abs(a).max() * np.abs(b).max())
    assert abs(a @ c) <= 1e-12 * scale * 10
    assert abs(b @ c) <= 1e-12 * scale * 10


@given(st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=3))
@settings(max_examples=100)
def test_self_cross_is_zero(vals):
    a = np.array(vals)
    assert np.allclose(cross(a, a), 0.0)


def test_wrench_stacking():
    w = wrench([1, 2, 3], [4, 5, 6])
    assert w.shape == (6,)
    assert np.allclose(w, [1, 2, 3, 4, 5, 6])
    with pytest.raises(ValueError):
        wrench([1, 2], [3, 4, 5, 6])

