"""Reference computations made apart from the program under test.

Nothing here imports modwrench.  The configuration matrix is rebuilt from
the geometry the paper states (rotors on the module diagonals, tilted by
+/-eta about them, alternating spin), polyominoes are enumerated by plain
set growth, and every LP verdict comes from scipy's HiGHS solver.  scipy is
imported lazily so that it never loads before the timed passes end.
"""

from __future__ import annotations

import itertools

import numpy as np

# OEIS A001168: fixed polyominoes with k cells, k = 1..8.
A001168 = (1, 2, 6, 19, 63, 216, 760, 2725)

_DIAGONALS = np.array([[1.0, 1.0, 0.0], [-1.0, 1.0, 0.0],
                       [-1.0, -1.0, 0.0], [1.0, -1.0, 0.0]]) / np.sqrt(2.0)
_TILT_SIGNS = (1.0, -1.0, 1.0, -1.0)
_SPIN_SIGNS = (1.0, -1.0, 1.0, -1.0)


def configuration_matrix(cells, eta, side_length=0.4, arm_length=0.14, c_tau=0.01):
    """6 x 4n thrust-to-wrench map; modules in sorted cell order, positions about the COM."""
    cells = sorted(cells)
    centers = np.array([[ix * side_length, iy * side_length, 0.0] for ix, iy in cells])
    com = centers.mean(axis=0)
    e3 = np.array([0.0, 0.0, 1.0])
    cols = []
    for center in centers:
        for d, tilt, spin in zip(_DIAGONALS, _TILT_SIGNS, _SPIN_SIGNS):
            angle = tilt * eta
            # Rotating e3 about an axis orthogonal to it (Rodrigues, d . e3 = 0).
            direction = np.cos(angle) * e3 + np.sin(angle) * np.cross(d, e3)
            position = center - com + arm_length * d
            torque = np.cross(position, direction) + spin * c_tau * direction
            cols.append(np.concatenate([direction, torque]))
    return np.column_stack(cols)


def fixed_polyominoes(max_cells):
    """Translation classes of 4-connected cell sets, as {k: sorted list of cell tuples}."""
    level = {((0, 0),)}
    out = {1: sorted(level)}
    for k in range(2, max_cells + 1):
        nxt = set()
        for poly in level:
            cells = set(poly)
            for ix, iy in poly:
                for nb in ((ix + 1, iy), (ix - 1, iy), (ix, iy + 1), (ix, iy - 1)):
                    if nb not in cells:
                        grown = cells | {nb}
                        x0 = min(c[0] for c in grown)
                        y0 = min(c[1] for c in grown)
                        nxt.add(tuple(sorted((x - x0, y - y0) for x, y in grown)))
        out[k] = sorted(nxt)
        level = nxt
    return out


def binary_images(A, f_max):
    """A @ u for every u in {0, f_max}^n, one row per pattern."""
    n = A.shape[1]
    bits = np.array(list(itertools.product((0.0, 1.0), repeat=n)))
    return f_max * bits @ A.T


def support(A, f_max, normals):
    """Support function of the zonotope {A u : 0 <= u <= f_max} at each row of `normals`."""
    return f_max * np.maximum(normals @ A, 0.0).sum(axis=1)


def feasible_input(A, w, f_max):
    """An in-box u with A u = w from HiGHS, or None when HiGHS finds none."""
    from scipy.optimize import linprog

    n = A.shape[1]
    res = linprog(np.zeros(n), A_eq=A, b_eq=w, bounds=[(0.0, f_max)] * n, method="highs")
    return res.x if res.status == 0 else None


def max_magnitude(A, w, f_max):
    """Largest lam with A u = lam * w/|w| and 0 <= u <= f_max (HiGHS)."""
    from scipy.optimize import linprog

    n = A.shape[1]
    w_hat = np.asarray(w, dtype=float) / np.linalg.norm(w)
    c = np.zeros(n + 1)
    c[-1] = -1.0
    res = linprog(c, A_eq=np.hstack([A, -w_hat[:, None]]), b_eq=np.zeros(A.shape[0]),
                  bounds=[(0.0, f_max)] * n + [(0.0, None)], method="highs")
    if res.status != 0:
        raise RuntimeError(f"reference LP ended with status {res.status}: {res.message}")
    return float(res.x[-1])
