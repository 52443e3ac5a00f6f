"""Modules on a planar docking lattice and the thrust-to-wrench map.

A structure is a 4-connected set of lattice cells, one module per cell, all
module frames aligned with the structure frame.  Each module carries four
rotors on its diagonals, tilted by +/-eta about the arm axes with alternating
sign so that uniform thrust produces zero net torque.

Rotor j of a module sits at arm_length * delta_j, delta_j a row of
ROTOR_DIAGONALS, with tilt eta_j = +eta, -eta, +eta, -eta.  Its thrust
direction is e3 rotated about delta_j by eta_j; since delta_j is
perpendicular to e3 the Rodrigues formula reduces to

    d_j = (sin(eta_j) * delta_jy, -sin(eta_j) * delta_jx, cos(eta)).

A module in cell c puts rotor j at p = arm_length * delta_j + o, with
o = c * side_length - COM, and column k of the configuration matrix is

    A[:, k] = [d_j ; p x d_j + spin_j * c_tau * d_j].
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Rotor diagonals in module-local frame, in fixed within-module order.
ROTOR_DIAGONALS = np.array([
    [1.0, 1.0, 0.0],
    [-1.0, 1.0, 0.0],
    [-1.0, -1.0, 0.0],
    [1.0, -1.0, 0.0],
]) / np.sqrt(2.0)

# Spin alternates +,-,+,- within each module.
SPIN_SIGNS = (1, -1, 1, -1)

# Attachable-face directions in canonical order.
DIRECTIONS = (("+x", (1, 0)), ("-x", (-1, 0)), ("+y", (0, 1)), ("-y", (0, -1)))


class StructureError(ValueError):
    """Invalid module parameters or cell layout."""


@dataclass(frozen=True)
class ModuleParams:
    """Physical parameters shared by every module in a structure.

    eta: rotor tilt about each arm diagonal (rad), alternating sign around
    the module; side_length: cell/cuboid side (m); arm_length: center-to-rotor
    distance along the diagonal (m); c_tau: drag-torque per unit thrust
    (N*m/N); f_max: per-rotor thrust limit (N).
    """

    eta: float = np.pi / 4
    side_length: float = 0.4
    arm_length: float = 0.14
    c_tau: float = 0.01
    f_max: float = 1.0

    def __post_init__(self):
        if not all(np.isfinite([self.eta, self.side_length, self.arm_length, self.c_tau, self.f_max])):
            raise StructureError("module parameters must be finite")
        if self.side_length <= 0 or self.arm_length <= 0:
            raise StructureError("side_length and arm_length must be positive")
        if self.arm_length * np.sqrt(2.0) >= self.side_length:
            raise StructureError("rotors must fit inside the cell footprint (arm_length*sqrt(2) < side_length)")
        if self.f_max <= 0:
            raise StructureError("f_max must be positive")
        if self.c_tau < 0:
            raise StructureError("c_tau must be nonnegative")
        if abs(self.eta) >= np.pi / 2:
            raise StructureError("|eta| must be below pi/2")


def _as_cells(cells) -> frozenset:
    out = set()
    for c in cells:
        ix, iy = c
        if ix != int(ix) or iy != int(iy):
            raise StructureError(f"cell coordinates must be integers, got {c!r}")
        out.add((int(ix), int(iy)))
    return frozenset(out)


def is_connected(cells) -> bool:
    """True iff the cells form a single 4-connected component (empty set: False)."""
    cells = set(cells)
    if not cells:
        return False
    seen = set()
    stack = [next(iter(cells))]
    while stack:
        c = stack.pop()
        if c in seen:
            continue
        seen.add(c)
        ix, iy = c
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nb = (ix + dx, iy + dy)
            if nb in cells and nb not in seen:
                stack.append(nb)
    return seen == cells


def canonical_form(cells) -> tuple:
    """Cells translated so min x = min y = 0, sorted; equal iff sets are translates."""
    cells = tuple(sorted(_as_cells(cells)))
    if not cells:
        raise StructureError("cell set must be nonempty")
    # A translation keeps the order, so the result needs no second sort.
    x0 = cells[0][0]
    y0 = min(y for _, y in cells)
    return tuple((x - x0, y - y0) for x, y in cells)


@dataclass(frozen=True)
class StructureConfig:
    """A connected set of occupied lattice cells plus shared module parameters."""

    cells: frozenset = field(default_factory=frozenset)
    params: ModuleParams = field(default_factory=ModuleParams)

    def __post_init__(self):
        cells = _as_cells(self.cells)
        object.__setattr__(self, "cells", cells)
        if not cells:
            raise StructureError("structure must contain at least one cell")
        if not is_connected(cells):
            raise StructureError("cells must form one 4-connected component")

    @property
    def n_modules(self) -> int:
        return len(self.cells)

    def sorted_cells(self) -> list:
        return sorted(self.cells)


def center_of_mass(config: StructureConfig) -> np.ndarray:
    """Mean of occupied cell centers in meters; z = 0."""
    cells = config.sorted_cells()
    l = config.params.side_length
    mx = sum(c[0] for c in cells) / len(cells)
    my = sum(c[1] for c in cells) / len(cells)
    return np.array([mx * l, my * l, 0.0])


def configuration_matrix(config: StructureConfig) -> np.ndarray:
    """6 x 4n map from rotor thrusts to the total wrench in the structure frame.

    Columns run module by module in sorted cell order and, within a module,
    in ROTOR_DIAGONALS order; the module docstring gives the formula.
    """
    params = config.params
    sin_tilt = np.sin(params.eta * np.array([1.0, -1.0, 1.0, -1.0]))
    # At eta = 0 a zero sine times a negative component gives -0.0; "+ 0.0"
    # makes it +0.0 so that `modwrench matrix` prints "0", not "-0".
    direction = np.column_stack([
        sin_tilt * ROTOR_DIAGONALS[:, 1],
        sin_tilt * -ROTOR_DIAGONALS[:, 0],
        np.full(4, np.cos(params.eta)),
    ]) + 0.0
    cells = np.array(config.sorted_cells(), dtype=float)
    offsets = np.column_stack([cells * params.side_length, np.zeros(len(cells))])
    offsets -= center_of_mass(config)
    positions = (params.arm_length * ROTOR_DIAGONALS[None] + offsets[:, None]).reshape(-1, 3)
    D = np.tile(direction, (len(cells), 1))
    drag = np.tile(SPIN_SIGNS, len(cells)) * params.c_tau
    columns = np.hstack([D, np.cross(positions, D) + drag[:, None] * D])
    # A C-ordered copy: a BLAS product sums in an order that follows the
    # layout, and allocation reports carry those sums to the last bit.
    return columns.T.copy()


def is_torque_balanced(A: np.ndarray, tol: float = 1e-10) -> bool:
    """True iff uniform thrust on all rotors produces zero net torque.

    The net torque |A[3:] 1| is compared with `tol` times the summed norms
    of the torque columns, the scale of its round-off, so the verdict does
    not change with the lattice's length scale.
    """
    torques = np.asarray(A, dtype=float)[3:, :]
    scale = float(np.linalg.norm(torques, axis=0).sum())
    return float(np.linalg.norm(torques.sum(axis=1))) <= tol * scale


def attachable_surfaces(config: StructureConfig) -> list[tuple[tuple[int, int], str]]:
    """Free vertical faces as (cell, direction) pairs, in canonical order."""
    cells = config.cells
    out = []
    for cell in config.sorted_cells():
        for name, (dx, dy) in DIRECTIONS:
            if (cell[0] + dx, cell[1] + dy) not in cells:
                out.append((cell, name))
    return out

