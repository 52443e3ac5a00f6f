"""Small 3D linear-algebra helpers shared across the package.

Conventions: 3-vectors and 3x3 rotation matrices are plain float64 numpy
arrays; a wrench is a 6-vector with force in components 0:3 (N) and torque
in components 3:6 (N*m); a rotor input vector stacks one thrust per rotor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Tolerances:
    """Numerical tolerances used by geometric predicates."""

    orthonormality: float = 1e-12
    geometric: float = 1e-9


DEFAULT_TOLERANCES = Tolerances()

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])
E3 = np.array([0.0, 0.0, 1.0])


def wrench(force, torque) -> np.ndarray:
    """Stack a force and a torque 3-vector into a 6-vector."""
    force = np.asarray(force, dtype=float)
    torque = np.asarray(torque, dtype=float)
    if force.shape != (3,) or torque.shape != (3,):
        raise ValueError("wrench needs a 3-vector force and a 3-vector torque")
    return np.concatenate([force, torque])


def validate_finite(arr: np.ndarray, name: str = "array") -> np.ndarray:
    arr = np.asarray(arr, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


def validate_input_vector(u) -> np.ndarray:
    """Check a structure-level rotor input: finite, length a positive multiple of 4."""
    u = validate_finite(u, "input vector")
    if u.ndim != 1 or u.size == 0 or u.size % 4 != 0:
        raise ValueError("input vector length must be a positive multiple of 4")
    return u


def cross(a, b) -> np.ndarray:
    """Right-handed cross product of two 3-vectors."""
    return np.cross(np.asarray(a, dtype=float), np.asarray(b, dtype=float))


def rotation_about_axis(axis, angle: float, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Proper rotation by `angle` (rad) about a unit 3-vector `axis` (Rodrigues)."""
    axis = validate_finite(axis, "axis")
    if axis.shape != (3,):
        raise ValueError("axis must be a 3-vector")
    if abs(np.linalg.norm(axis) - 1.0) > tol.geometric:
        raise ValueError("axis must have unit norm")
    if not np.isfinite(angle):
        raise ValueError("angle must be finite")
    c, s = np.cos(angle), np.sin(angle)
    k = np.array([
        [0.0, -axis[2], axis[1]],
        [axis[2], 0.0, -axis[0]],
        [-axis[1], axis[0], 0.0],
    ])
    return c * np.eye(3) + s * k + (1.0 - c) * np.outer(axis, axis)


def is_rotation(matrix: np.ndarray, tol: Tolerances = DEFAULT_TOLERANCES) -> bool:
    """True iff `matrix` is orthonormal with determinant +1 within tolerance."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.shape != (3, 3) or not np.all(np.isfinite(matrix)):
        return False
    if np.max(np.abs(matrix.T @ matrix - np.eye(3))) > tol.orthonormality:
        return False
    return abs(np.linalg.det(matrix) - 1.0) <= tol.orthonormality
