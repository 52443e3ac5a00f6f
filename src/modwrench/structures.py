"""Modules on a planar docking lattice and the thrust-to-wrench map.

A structure is a 4-connected set of lattice cells, one module per cell, all
module frames aligned with the structure frame.  Each module carries four
rotors on its diagonals, tilted by +/-eta about the arm axes with alternating
sign so that uniform thrust produces zero net torque.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import E3, cross, rotation_about_axis

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


@dataclass(frozen=True)
class RotorSpec:
    """One rotor: position and orientation in the structure frame, plus spin sign."""

    position: np.ndarray
    orientation: np.ndarray
    spin_sign: int

    def thrust_direction(self) -> np.ndarray:
        return self.orientation @ E3


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
    return _canonical_sorted(cells)


def _canonical_sorted(cells: tuple) -> tuple:
    """canonical_form of a nonempty sorted tuple of integer cells, unchecked.

    A translation keeps the order, so the result needs no sort.
    """
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

    def canonical(self) -> tuple:
        return canonical_form(self.cells)


def center_of_mass(config: StructureConfig) -> np.ndarray:
    """Mean of occupied cell centers in meters; z = 0."""
    cells = config.sorted_cells()
    l = config.params.side_length
    mx = sum(c[0] for c in cells) / len(cells)
    my = sum(c[1] for c in cells) / len(cells)
    return np.array([mx * l, my * l, 0.0])


def module_rotor_layout(params: ModuleParams) -> list[RotorSpec]:
    """The four rotors of one module in module-local coordinates.

    Rotor j sits at arm_length * d_j on the diagonals d_1..d_4, tilted about
    its own diagonal by eta, -eta, eta, -eta; spin signs alternate +,-,+,-.
    """
    rotors = []
    for j in range(4):
        axis = ROTOR_DIAGONALS[j]
        angle = params.eta if j % 2 == 0 else -params.eta
        rotors.append(RotorSpec(
            position=params.arm_length * axis,
            orientation=rotation_about_axis(axis, angle),
            spin_sign=SPIN_SIGNS[j],
        ))
    return rotors


def rotor_configuration(config: StructureConfig) -> list[RotorSpec]:
    """All rotors of a structure, positions relative to the structure COM.

    Modules are visited in sorted cell order; within a module the rotor
    order follows the fixed diagonal order.
    """
    params = config.params
    com = center_of_mass(config)
    local = module_rotor_layout(params)
    rotors = []
    for ix, iy in config.sorted_cells():
        center = np.array([ix * params.side_length, iy * params.side_length, 0.0])
        offset = center - com
        for spec in local:
            rotors.append(RotorSpec(
                position=spec.position + offset,
                orientation=spec.orientation,
                spin_sign=spec.spin_sign,
            ))
    return rotors


def build_configuration_matrix(rotors: list[RotorSpec], c_tau: float) -> np.ndarray:
    """6 x 4n map from rotor thrusts to the total wrench in the structure frame.

    Column k stacks the rotor thrust direction over the torque arm
    p_k x dir_k plus the signed drag term c_tau * dir_k.
    """
    cols = []
    for spec in rotors:
        direction = spec.thrust_direction()
        torque = cross(spec.position, direction) + spec.spin_sign * c_tau * direction
        cols.append(np.concatenate([direction, torque]))
    return np.column_stack(cols)


def configuration_matrix(config: StructureConfig) -> np.ndarray:
    """Configuration matrix of a structure (convenience wrapper)."""
    return build_configuration_matrix(rotor_configuration(config), config.params.c_tau)


def is_torque_balanced(A: np.ndarray, tol: float = 1e-10) -> bool:
    """True iff uniform thrust on all rotors produces zero net torque."""
    A = np.asarray(A, dtype=float)
    return float(np.linalg.norm(A[3:, :] @ np.ones(A.shape[1]))) <= tol


def attachable_surfaces(config: StructureConfig) -> list[tuple[tuple[int, int], str]]:
    """Free vertical faces as (cell, direction) pairs, in canonical order."""
    cells = config.cells
    out = []
    for cell in config.sorted_cells():
        for name, (dx, dy) in DIRECTIONS:
            if (cell[0] + dx, cell[1] + dy) not in cells:
                out.append((cell, name))
    return out

