"""Minimum-module configuration search for a task requirement.

Two strategies: breadth-first exhaustive growth over all attachable
surfaces (smallest module count guaranteed over the reachable designs), and
a centrosymmetric variant that docks module pairs mirrored through the
center of mass, keeping the COM fixed and torque balance automatic at the
cost of only reaching odd module counts from a single-module seed.

Both are one level loop over one growth function.  `_grow` adds a free
neighbour cell to every design of a level, and with a center also its
point reflection, on sorted tuples of integer cells; a neighbour of a
connected set stays connected, so no design is validated until it is
checked.  Levels are grown lazily, one step (1 or 2 modules) at a time,
and no further than the search goes.  A level of more than
MAX_LEVEL_CELLS cells, summed over its designs, raises hull.CapacityError
rather than exhaust memory.

Both searches skip whole levels with a force-only module-count bound.  All
modules share one orientation, so the force rows of every n-module design
are one module's 3 x 4 force block F1 repeated n times, and its force set
is n Z(F1) whatever the layout, Z(F1) being the zonotope of F1 under the
thrust box.  One facet test of the task forces against Z(F1) gives the
fewest modules that can hold them; a level with fewer modules is skipped
without a matrix build or a check.  Skipped designs still count in
`evaluations`, and skipped levels are still grown, so the counts and result
files are the same as with every design checked.

On a task of two or more wrenches, each search also keeps the unit
normals that separated a failing wrench from the wrench set of a design it
checked: the LP's dual at the first short wrench, or the hull's most
violated facet.  By weak duality a normal n rules out the wrench w for any
design whose support value h_A(n) = f_max * sum_i max(0, n . a_i) falls
short of n . w by more than the checker's band, so every design is first
tested against the kept normals, two small matrix products, and fails there
without a solve or a hull build when one rules it out (Gouttefarde & Krut,
ARK 2010, for the support-function form of the facets).  Such a design
would fail its check anyway, so `evaluations` and the results do not
change.

Designs are deduplicated by their translation-canonical cell form and
represented by their smallest absolute placement; all iteration orders are
sorted, so results are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from . import hull, lp
from .structures import (
    DIRECTIONS,
    ModuleParams,
    StructureConfig,
    StructureError,
    _canonical_sorted,
    center_of_mass,
    configuration_matrix,
    is_torque_balanced,
)

# Cells, summed over its designs, one search level may hold; memory goes
# with cells.  From one module, 135,268 designs of 11 cells pass.
MAX_LEVEL_CELLS = 2 ** 21


class AsymmetricSeedError(StructureError):
    """Seed of the symmetric search is not centrosymmetric about its COM."""


@dataclass(frozen=True)
class SearchOptions:
    n_max: int = 7                      # budget of modules added to the seed
    method: str = "exhaustive"          # "exhaustive" | "heuristic"
    checker: str = "lp"                 # "lp" | "hull"

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


class _SeparatingNormals:
    """Unit normals that separated a task wrench from the wrench set of an earlier design.

    A unit normal n rules out a wrench w for any design A whose support
    value h_A(n) = f_max * sum_i max(0, n . a_i) falls short of n . w by
    more than the checker's band, since every wrench the checker accepts
    lies within that band of the wrench set.
    """

    def __init__(self, task):
        self.task = task
        self.normals = np.zeros((0, task.shape[1]))

    def rejects(self, A, f_max: float, band) -> bool:
        """True iff some cached normal rules out some task wrench for A, beyond `band`."""
        support = f_max * np.maximum(self.normals @ A, 0.0).sum(axis=1)
        return bool((self.normals @ self.task.T - support[:, None] > band).any())

    def add(self, normal) -> None:
        self.normals = np.vstack([self.normals, normal])


def _make_checker(task, checker: str):
    """Task check of one search; a task of two or more wrenches shares a normal cache.

    A design the cached normals rule out fails without a solve or a hull
    build.  Every other design gets a full check, and when it fails, the
    normal that separates its failing wrench joins the cache.  A one-wrench
    task keeps the plain check.
    """
    task = np.atleast_2d(np.asarray(task, dtype=float))
    if task.shape[0] == 1:
        if checker == "lp":
            return lambda config: lp.satisfies_task(
                configuration_matrix(config), task, config.params.f_max)[0]
        return lambda config: hull.satisfies_task_hull(
            configuration_matrix(config), task, config.params.f_max)
    cache = _SeparatingNormals(task)
    if checker == "lp":
        # The LP accepts a wrench up to lp.BOUNDARY_TOL short of its
        # capacity, measured in range(A), which may leave lp.RANGE_TOL * |w|
        # off the wrench set; it accepts the zero wrench outright.
        norms = np.linalg.norm(task, axis=1)
        tol, extra = lp.BOUNDARY_TOL, np.where(norms < lp.ZERO_WRENCH_TOL, np.inf, lp.RANGE_TOL * norms)
    else:
        tol, extra = _SKIP_BAND, 0.0

    def check(config: StructureConfig) -> bool:
        A = configuration_matrix(config)
        f_max = config.params.f_max
        if cache.rejects(A, f_max, tol * f_max * float(np.linalg.norm(A, axis=0).max()) + extra):
            return False
        if checker == "lp":
            hit = lp.separating_normal(A, task, f_max)
        else:
            hit = hull.separating_normal_hull(A, task, f_max)
        if hit is not None:
            cache.add(hit[1])
        return hit is None
    return check


# Facet excess of a task force over a level's force set n Z(F1) that both
# checkers reject, per unit of f_max * max|a_i|.  The LP accepts a wrench up
# to lp.BOUNDARY_TOL short of its capacity, the hull up to hull.GEOMETRY_TOL
# beyond its own facets.  A force facet normal of Z(F1) need not be a facet
# normal of the design's hull; along it the hull's band opens by the sum of
# the facet weights that make it up, under 5 on every design of up to 4
# modules.  The factor of 100 covers both with room.
_SKIP_BAND = 100.0 * max(lp.BOUNDARY_TOL, hull.GEOMETRY_TOL)


def force_module_bound(params: ModuleParams, task, band=0.0) -> float:
    """Fewest modules, as a real number, whose common force set holds every task force.

    The force set of every n-module design is n Z(F1).  A force f is in it
    iff f lies in range(F1) and n_k . f <= n h_k on every facet k of Z(F1),
    so n_min(f) = max_k (n_k . f) / h_k over the facets with h_k > 0.  It is
    infinite when f leaves range(F1) or when n_k . f > 0 on a facet with
    h_k = 0; both infinite cases forgive the membership tolerance of Z(F1).
    `band`, a scalar or one value per wrench, is subtracted from every facet
    excess and forgives that much more.  Returns max_f n_min(f); no design
    with fewer modules can meet the task.
    """
    F1 = configuration_matrix(StructureConfig(frozenset({(0, 0)}), params))[:3]
    zonotope = hull.construct_hull(F1, params.f_max)
    forces = np.atleast_2d(np.asarray(task, dtype=float))[:, :3]
    band = np.broadcast_to(np.asarray(band, dtype=float), forces.shape[:1])
    y = forces @ zonotope.basis
    excess = y @ zonotope.normals.T - band[:, None]
    bounded = zonotope.offsets > 0
    n_min = (excess[:, bounded] / zonotope.offsets[bounded]).max(axis=1, initial=-np.inf)
    off_range = np.linalg.norm(forces - y @ zonotope.basis.T, axis=1) > band + zonotope.tol
    n_min[off_range | (excess[:, ~bounded] > zonotope.tol).any(axis=1)] = np.inf
    return float(n_min.max(initial=0.0))


def _skip_bound(initial: StructureConfig, task, n_max: int) -> float:
    """force_module_bound with the band of the largest design the search reaches.

    Any rotor of an N-module design lies within (N - 1) side lengths plus
    the arm of the center of mass, which bounds max|a_i|.  On a
    rank-deficient A the LP also projects away up to lp.RANGE_TOL * |w|.
    """
    p = initial.params
    reach = (initial.n_modules + n_max - 1) * p.side_length + p.arm_length + p.c_tau
    task = np.atleast_2d(np.asarray(task, dtype=float))
    band = (_SKIP_BAND * p.f_max * np.hypot(1.0, reach)
            + lp.RANGE_TOL * np.linalg.norm(task, axis=1))
    return force_module_bound(p, task, band)


def _grow(level: list, center=None) -> list:
    """Every design one step larger than a design of `level`, deduplicated.

    `level` holds sorted tuples of integer cells.  Each design gains a free
    neighbour cell; with `center`, twice the seed COM in cells, it gains the
    point reflection of that cell too, unless the mirror is the cell itself
    or occupied.  Translates collapse to the smallest absolute placement,
    and the result is ordered by canonical form.  Raises hull.CapacityError
    once the new level passes MAX_LEVEL_CELLS cells in all.
    """
    size = len(level[0]) + (1 if center is None else 2)
    grown = {}
    for cells in level:
        occupied = set(cells)
        for ix, iy in cells:
            for _, (dx, dy) in DIRECTIONS:
                cell = (ix + dx, iy + dy)
                if cell in occupied:
                    continue
                added = {cell}
                if center is not None:
                    mirror = (center[0] - cell[0], center[1] - cell[1])
                    if mirror == cell or mirror in occupied:
                        continue
                    added.add(mirror)
                rep = tuple(sorted(occupied | added))
                key = _canonical_sorted(rep)
                if key not in grown or rep < grown[key]:
                    grown[key] = rep
        if len(grown) * size > MAX_LEVEL_CELLS:
            raise hull.CapacityError(
                f"a search level of {size}-module designs holds more than "
                f"{MAX_LEVEL_CELLS} cells in all")
    return [grown[key] for key in sorted(grown)]


def _levels(seed: StructureConfig, center=None):
    """The seed's level, then each grown level in turn, lazily."""
    level = [tuple(seed.sorted_cells())]
    while True:
        yield level
        level = _grow(level, center)


def expand_one(config: StructureConfig) -> list[StructureConfig]:
    """All designs adding one module on an attachable surface, deduplicated.

    Children that are translates of each other collapse to one; the list is
    ordered by canonical form.
    """
    return [StructureConfig(frozenset(cells), config.params)
            for cells in _grow([tuple(config.sorted_cells())])]


def _reflection_center(config: StructureConfig):
    """Twice the COM in cells if the cell set maps to itself through the COM, else None."""
    cells, n = config.cells, config.n_modules
    sx, sy = (2 * sum(c[k] for c in cells) for k in (0, 1))
    if sx % n or sy % n:
        return None
    sx, sy = sx // n, sy // n
    return (sx, sy) if all((sx - ix, sy - iy) in cells for ix, iy in cells) else None


def is_centrosymmetric(config: StructureConfig) -> bool:
    """True iff the cell set maps to itself under point reflection through its COM."""
    return _reflection_center(config) is not None


def _symmetry_center(seed: StructureConfig):
    """_reflection_center of a seed; AsymmetricSeedError when there is none."""
    center = _reflection_center(seed)
    if center is None:
        raise AsymmetricSeedError("seed cell set must be centrosymmetric about its COM")
    return center


def generate_config_symmetry(seed: StructureConfig, n_levels: int) -> list[list[StructureConfig]]:
    """Levels of centrosymmetric growths of a centrosymmetric seed.

    Each level adds one mirrored pair of modules per attachable surface of
    each design of the previous level: a module at the surface's free cell
    and one at the point reflection of that cell through the seed COM.
    Pairs whose mirror cell is occupied or coincides with the primary cell
    are skipped.  Every emitted design keeps the seed's center of mass.
    """
    levels = islice(_levels(seed, _symmetry_center(seed)), 1, n_levels + 1)
    return [[StructureConfig(frozenset(cells), seed.params) for cells in level]
            for level in levels]


def _search(initial: StructureConfig, task, opts: SearchOptions, symmetric: bool) -> SearchResult:
    """The level loop of both searches.

    Levels are indexed by the number of added modules, one per level, or
    one mirrored pair per level when `symmetric`; they are explored while
    that number stays within opts.n_max.  Within a level the designs are
    checked in canonical order and the first satisfying one is returned, so
    the result has the smallest reachable module count.  Levels below the
    force-only bound are counted but not checked.
    """
    if not is_torque_balanced(configuration_matrix(initial)):
        raise StructureError("initial design must be torque-balanced")
    center = _symmetry_center(initial) if symmetric else None
    check = _make_checker(task, opts.checker)
    bound = _skip_bound(initial, task, opts.n_max)
    com0 = center_of_mass(initial)
    evaluations = 0
    added = range(0, opts.n_max + 1, 2 if symmetric else 1)
    for n_added, level in zip(added, _levels(initial, center)):
        if initial.n_modules + n_added < bound:
            evaluations += len(level)
            continue
        for cells in level:
            config = StructureConfig(frozenset(cells), initial.params)
            evaluations += 1
            if check(config):
                return SearchResult(config, config.n_modules, evaluations, True,
                                    center_of_mass(config) - com0)
    return SearchResult(initial, initial.n_modules, evaluations, False, np.zeros(3))


def exhaustive_search(initial: StructureConfig, task, opts: SearchOptions | None = None) -> SearchResult:
    """Breadth-first search over all connected growths of the initial design.

    The result has the smallest module count reachable within opts.n_max
    added modules.
    """
    return _search(initial, task, opts or SearchOptions(), symmetric=False)


def heuristic_search(initial: StructureConfig, task, opts: SearchOptions | None = None) -> SearchResult:
    """Search over centrosymmetric growths only; module count grows by 2 per level.

    The budget semantics match the exhaustive search: levels are explored
    while the number of added modules stays within n_max.
    """
    return _search(initial, task, opts or SearchOptions(), symmetric=True)


def run_search(initial: StructureConfig, task, opts: SearchOptions) -> SearchResult:
    """Dispatch on opts.method."""
    if opts.method == "heuristic":
        return heuristic_search(initial, task, opts)
    return exhaustive_search(initial, task, opts)
