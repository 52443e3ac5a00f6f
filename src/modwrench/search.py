"""Minimum-module configuration search for a task requirement.

Two strategies: breadth-first exhaustive growth over all attachable
surfaces (smallest module count guaranteed over the reachable designs), and
a centrosymmetric variant that docks module pairs mirrored through the
center of mass, keeping the COM fixed and torque balance automatic at the
cost of only reaching odd module counts from a single-module seed.

Designs are deduplicated by their translation-canonical cell form; all
iteration orders are sorted, so results are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import hull, lp
from .structures import (
    StructureConfig,
    StructureError,
    attachable_surfaces,
    canonical_form,
    center_of_mass,
    configuration_matrix,
    is_torque_balanced,
    surface_free_cell,
)


class AsymmetricSeedError(StructureError):
    """Seed of the symmetric search is not centrosymmetric about its COM."""


@dataclass(frozen=True)
class SearchOptions:
    n_max: int = 7                      # budget of modules added to the seed
    method: str = "exhaustive"          # "exhaustive" | "heuristic"
    checker: str = "lp"                 # "lp" | "hull"
    torque_balance_tol: float = 1e-10

    def __post_init__(self):
        if self.n_max < 0:
            raise ValueError("n_max must be nonnegative")
        if self.method not in ("exhaustive", "heuristic"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.checker not in ("lp", "hull"):
            raise ValueError(f"unknown checker {self.checker!r}")


@dataclass(frozen=True)
class SearchResult:
    config: StructureConfig
    modules_total: int
    evaluations: int
    satisfied: bool
    com_shift: np.ndarray = field(default_factory=lambda: np.zeros(3))


def _make_checker(task, checker: str):
    task = np.atleast_2d(np.asarray(task, dtype=float))
    if checker == "lp":
        def check(config: StructureConfig) -> bool:
            A = configuration_matrix(config)
            ok, _ = lp.satisfies_task(A, task, config.params.f_max)
            return ok
    else:
        def check(config: StructureConfig) -> bool:
            A = configuration_matrix(config)
            return hull.satisfies_task_hull(A, task, config.params.f_max)
    return check


def expand_one(config: StructureConfig) -> list[StructureConfig]:
    """All designs adding one module on an attachable surface, deduplicated.

    Children that are translates of each other collapse to one; the list is
    ordered by canonical form.
    """
    children = {}
    for surface in attachable_surfaces(config):
        cells = set(config.cells)
        cells.add(surface_free_cell(surface))
        key = canonical_form(cells)
        rep = tuple(sorted(cells))
        if key not in children or rep < children[key]:
            children[key] = rep
    return [StructureConfig(frozenset(children[k]), config.params)
            for k in sorted(children)]


def _expand_level(level: dict, params) -> dict:
    """Grow every design of a level by one module; dedup across the level.

    `level` maps canonical forms to absolute cell tuples; representatives
    keep the lexicographically smallest absolute placement.
    """
    nxt = {}
    for key in sorted(level):
        config = StructureConfig(frozenset(level[key]), params)
        for surface in attachable_surfaces(config):
            cells = set(config.cells)
            cells.add(surface_free_cell(surface))
            ck = canonical_form(cells)
            rep = tuple(sorted(cells))
            if ck not in nxt or rep < nxt[ck]:
                nxt[ck] = rep
    return nxt


def exhaustive_search(initial: StructureConfig, task, opts: SearchOptions | None = None) -> SearchResult:
    """Breadth-first search over all connected growths of the initial design.

    Levels are indexed by the number of added modules; within a level the
    designs are checked in canonical order and the first satisfying one is
    returned, so the result has the smallest reachable module count.
    """
    opts = opts or SearchOptions()
    A0 = configuration_matrix(initial)
    if not is_torque_balanced(A0, opts.torque_balance_tol):
        raise StructureError("initial design must be torque-balanced")
    check = _make_checker(task, opts.checker)
    com0 = center_of_mass(initial)
    evaluations = 0
    level = {initial.canonical(): tuple(sorted(initial.cells))}
    for added in range(opts.n_max + 1):
        for key in sorted(level):
            config = StructureConfig(frozenset(level[key]), initial.params)
            evaluations += 1
            if check(config):
                return SearchResult(config, config.n_modules, evaluations, True,
                                    center_of_mass(config) - com0)
        if added < opts.n_max:
            level = _expand_level(level, initial.params)
    return SearchResult(initial, initial.n_modules, evaluations, False, np.zeros(3))


def _reflection_center(config: StructureConfig):
    """Twice the mean cell index, or None when it is not a lattice point."""
    cells = config.sorted_cells()
    sx = 2.0 * sum(c[0] for c in cells) / len(cells)
    sy = 2.0 * sum(c[1] for c in cells) / len(cells)
    if abs(sx - round(sx)) > 1e-9 or abs(sy - round(sy)) > 1e-9:
        return None
    return int(round(sx)), int(round(sy))


def is_centrosymmetric(config: StructureConfig) -> bool:
    """True iff the cell set maps to itself under point reflection through its COM."""
    center = _reflection_center(config)
    if center is None:
        return False
    sx, sy = center
    cells = config.cells
    return all((sx - ix, sy - iy) in cells for ix, iy in cells)


def generate_config_symmetry(seed: StructureConfig, n_levels: int) -> list[list[StructureConfig]]:
    """Levels of centrosymmetric growths of a centrosymmetric seed.

    Each level adds one mirrored pair of modules per attachable surface of
    each design of the previous level: a module at the surface's free cell
    and one at the point reflection of that cell through the seed COM.
    Pairs whose mirror cell is occupied or coincides with the primary cell
    are skipped.  Every emitted design keeps the seed's center of mass.
    """
    if not is_centrosymmetric(seed):
        raise AsymmetricSeedError("seed cell set must be centrosymmetric about its COM")
    sx, sy = _reflection_center(seed)
    levels: list[list[StructureConfig]] = []
    current = {seed.canonical(): tuple(sorted(seed.cells))}
    for _ in range(n_levels):
        nxt = {}
        for key in sorted(current):
            config = StructureConfig(frozenset(current[key]), seed.params)
            for surface in attachable_surfaces(config):
                cell = surface_free_cell(surface)
                mirror = (sx - cell[0], sy - cell[1])
                if mirror == cell or mirror in config.cells:
                    continue
                cells = set(config.cells)
                cells.update((cell, mirror))
                ck = canonical_form(cells)
                if ck not in nxt:
                    nxt[ck] = tuple(sorted(cells))
        levels.append([StructureConfig(frozenset(nxt[k]), seed.params)
                       for k in sorted(nxt)])
        current = nxt
    return levels


def heuristic_search(initial: StructureConfig, task, opts: SearchOptions | None = None) -> SearchResult:
    """Search over centrosymmetric growths only; module count grows by 2 per level.

    The budget semantics match the exhaustive search: levels are explored
    while the number of added modules stays within n_max.
    """
    opts = opts or SearchOptions()
    A0 = configuration_matrix(initial)
    if not is_torque_balanced(A0, opts.torque_balance_tol):
        raise StructureError("initial design must be torque-balanced")
    if not is_centrosymmetric(initial):
        raise AsymmetricSeedError("seed cell set must be centrosymmetric about its COM")
    check = _make_checker(task, opts.checker)
    com0 = center_of_mass(initial)
    evaluations = 1
    if check(initial):
        return SearchResult(initial, initial.n_modules, evaluations, True, np.zeros(3))
    n_levels = opts.n_max // 2
    for level in generate_config_symmetry(initial, n_levels):
        for config in level:
            evaluations += 1
            if check(config):
                return SearchResult(config, config.n_modules, evaluations, True,
                                    center_of_mass(config) - com0)
    return SearchResult(initial, initial.n_modules, evaluations, False, np.zeros(3))


def run_search(initial: StructureConfig, task, opts: SearchOptions) -> SearchResult:
    """Dispatch on opts.method."""
    if opts.method == "heuristic":
        return heuristic_search(initial, task, opts)
    return exhaustive_search(initial, task, opts)
