"""Wrench stacking helper.

A wrench is a 6-vector: force in components 0:3 (N), torque in 3:6 (N*m).
"""

from __future__ import annotations

import numpy as np


def wrench(force, torque) -> np.ndarray:
    """Stack a force and a torque 3-vector into a 6-vector."""
    force = np.asarray(force, dtype=float)
    torque = np.asarray(torque, dtype=float)
    if force.shape != (3,) or torque.shape != (3,):
        raise ValueError("wrench needs a 3-vector force and a 3-vector torque")
    return np.concatenate([force, torque])
