"""Brute-force references for the wrench-set tests.

The binary-image oracle enumerates the image A u of every on/off thrust
pattern and prunes the points that are convex combinations of the others,
each with a two-phase feasibility LP; the facet construction in
`modwrench.hull` is tested against the vertex set it leaves.  Phase 1 runs
`modwrench.lp._simplex` with an absolute ratio-test tie band of 1e-12.
Neither is fast, and nothing in the package uses them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from modwrench.hull import CapacityError
from modwrench.lp import _simplex

# Equality-constraint residual accepted as feasible, per unit of system size.
FEASIBILITY_TOL = 1e-8

# A point within this L1 equality residual of the hull of the remaining
# points is treated as redundant by the oracle; published so oracle
# comparisons are deterministic.
REDUNDANCY_TOL = 1e-8

# Brute-force binary enumeration guard.
MAX_ENUM_COLUMNS = 20


def _phase1(A, b, lower, upper):
    """Minimal L1 equality violation with all variables started at lower bounds.

    Each row gets a +1 and a -1 artificial slack so violations in either
    direction can be absorbed; the minimum of their sum is the true L1
    residual.  Returns (residual, x_ext, basis, A_ext), where the last 2m
    entries of x_ext are the artificials and A_ext = [A | I | -I].
    """
    m, n = A.shape
    resid = b - A @ lower
    A_ext = np.hstack([A, np.eye(m), -np.eye(m)]) if m else A.reshape(0, n)
    lo_ext = np.concatenate([lower, np.zeros(2 * m)])
    hi_ext = np.concatenate([upper, np.full(2 * m, np.inf)])
    c1 = np.zeros(n + 2 * m)
    c1[n:] = -1.0
    basis = np.where(resid >= 0.0, np.arange(n, n + m), np.arange(n + m, n + 2 * m))
    basis = basis.astype(int)
    at_upper = np.zeros(n + 2 * m, dtype=bool)
    x = _simplex(A_ext, b, c1, lo_ext, hi_ext, basis, at_upper, 1e-12)
    residual = max(float(np.sum(x[n:])), 0.0)
    return residual, x, basis, A_ext


def equality_feasibility(eq_matrix, eq_rhs, lower, upper, want_dual: bool = False):
    """Minimal L1 violation of eq_matrix @ x = eq_rhs over the box, with witness.

    Returns (residual, x), or (residual, x, y) with the final dual vector
    when `want_dual` is set (used for pricing in column generation).
    A residual within FEASIBILITY_TOL of the system's size means the system
    is feasible and x is a feasible point (up to that tolerance).
    """
    A = np.asarray(eq_matrix, dtype=float)
    b = np.asarray(eq_rhs, dtype=float)
    lo = np.asarray(lower, dtype=float)
    hi = np.asarray(upper, dtype=float)
    residual, x, basis, A_ext = _phase1(A, b, lo, hi)
    n = A.shape[1]
    if not want_dual:
        return residual, x[:n]
    m = A.shape[0]
    if m == 0:
        return residual, x[:n], np.zeros(0)
    c1 = np.zeros(n + 2 * m)
    c1[n:] = -1.0
    y = c1[basis] @ np.linalg.inv(A_ext[:, basis])
    return residual, x[:n], y


@dataclass(frozen=True)
class VertexHull:
    """Irredundant vertex set of a point set; vertices are lex-sorted."""

    vertices: np.ndarray  # (k, 6)
    dimension: int        # affine dimension of the vertex set

    def __post_init__(self):
        v = np.atleast_2d(np.asarray(self.vertices, dtype=float))
        object.__setattr__(self, "vertices", v)

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]


def _affine_dimension(points: np.ndarray) -> int:
    if points.shape[0] <= 1:
        return 0
    deltas = points[1:] - points[0]
    return int(np.linalg.matrix_rank(deltas, tol=1e-9))


def _unique_rows(points: np.ndarray) -> np.ndarray:
    return np.unique(points, axis=0)


def enumerate_binary_images(A, f_max: float) -> np.ndarray:
    """Images of every on/off thrust pattern: all 2^cols products A @ u.

    The brute-force oracle for the facet construction; guarded because the
    point count doubles per column.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    cols = A.shape[1]
    if cols > MAX_ENUM_COLUMNS:
        raise CapacityError(
            f"binary enumeration of {cols} columns would produce 2**{cols} points; "
            f"the limit is {MAX_ENUM_COLUMNS} columns"
        )
    scaled = float(f_max) * A.T  # (cols, 6)
    total = 1 << cols
    out = np.empty((total, A.shape[0]))
    chunk = 1 << 16
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        bits = ((idx[:, None] >> np.arange(cols)[None, :]) & 1).astype(float)
        out[start : start + idx.size] = bits @ scaled
    return out


def _in_hull_residual(points: np.ndarray, x: np.ndarray) -> float:
    """Minimal L1 violation of expressing x as a convex combination of points.

    For large point sets the LP is solved by column generation: a small
    working set of candidate points is grown using the dual certificate
    until either a combination within tolerance is found or no point can
    improve the residual, so the result equals the full solve.
    """
    k = points.shape[0]
    cols = np.vstack([points.T, np.ones((1, k))])
    rhs = np.concatenate([x, [1.0]])

    def solve(idx):
        sub = cols[:, idx]
        return equality_feasibility(
            sub, rhs, np.zeros(len(idx)), np.full(len(idx), np.inf), want_dual=True)

    if k <= 32:
        residual, _, _ = solve(np.arange(k))
        return residual
    near = np.argsort(((points - x) ** 2).sum(axis=1), kind="stable")[:16]
    work = set(near.tolist())
    for dim in range(points.shape[1]):
        work.add(int(np.argmax(points[:, dim])))
        work.add(int(np.argmin(points[:, dim])))
    work = sorted(work)
    for _ in range(k):
        residual, _, y = solve(np.array(work))
        if residual <= REDUNDANCY_TOL:
            return residual  # feasible on a subset is feasible on the full set
        scores = -(y @ cols)
        scores[work] = 0.0
        improving = np.nonzero(scores > 1e-9)[0]
        if improving.size == 0:
            return residual  # dual-certified optimal over all points
        take = improving[np.argsort(scores[improving], kind="stable")[::-1][:8]]
        work = sorted(set(work) | set(take.tolist()))
    residual, _, _ = solve(np.arange(k))  # unreachable in practice
    return residual


# Fixed direction battery used to certify clear vertices without an LP.
_N_CERTIFY_DIRECTIONS = 384
_CERTIFY_SEED = 20230517
# Largest point-by-direction projection the certification may allocate.
_CERTIFY_BYTES = 256 << 20


def _certified_extremes(points: np.ndarray) -> np.ndarray:
    """Mark points that are unique maximizers of some direction by a clear gap.

    Such a point cannot be a convex combination of the others (the gap along
    the certifying direction dwarfs REDUNDANCY_TOL), so the per-point LP can
    be skipped for it.  Purely an exactness-preserving fast path.  Raises
    CapacityError when the projection, n x (n + 384 + 2 dim) at most, would
    exceed _CERTIFY_BYTES.
    """
    n, dim = points.shape
    certified = np.zeros(n, dtype=bool)
    if n < 3:
        return certified
    if 8 * n * (n + _N_CERTIFY_DIRECTIONS + 2 * dim) > _CERTIFY_BYTES:
        raise CapacityError(
            f"certifying {n} points would need a {n} x {n + _N_CERTIFY_DIRECTIONS + 2 * dim} "
            f"projection; the limit is {_CERTIFY_BYTES >> 20} MiB")
    rng = np.random.default_rng(_CERTIFY_SEED)
    dirs = rng.normal(size=(_N_CERTIFY_DIRECTIONS, dim))
    # Outward rays from the centroid reach most true vertices directly.
    rays = points - points.mean(axis=0)
    norms = np.linalg.norm(rays, axis=1)
    rays = rays[norms > 1e-12] / norms[norms > 1e-12, None]
    dirs = np.vstack([dirs / np.linalg.norm(dirs, axis=1, keepdims=True),
                      rays, np.eye(dim), -np.eye(dim)])
    gap = 1e-5 * max(1.0, float(np.max(np.abs(points))))
    proj = points @ dirs.T
    top = np.argmax(proj, axis=0)
    col = np.arange(proj.shape[1])
    best = proj[top, col]
    proj[top, col] = -np.inf
    second = np.max(proj, axis=0)
    clear = best - second > gap
    certified[top[clear]] = True
    return certified


def prune_redundant(points) -> VertexHull:
    """Keep only points that are not convex combinations of the other kept points.

    The hull of the output equals the hull of the input; each candidate is
    tested with a feasibility LP at REDUNDANCY_TOL (clear extreme points are
    certified without one).  Output rows stay in lexicographic order, which
    makes the result deterministic.  Raises CapacityError for point sets
    whose certification would exceed its memory budget: 5,599 or more
    points in six dimensions.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[0] == 0:
        raise ValueError("cannot prune an empty point set")
    points = _unique_rows(points)
    keep = np.ones(points.shape[0], dtype=bool)
    certified = _certified_extremes(points)
    for i in range(points.shape[0]):
        if points.shape[0] == 1 or certified[i]:
            continue
        others = points[keep & (np.arange(points.shape[0]) != i)]
        if others.shape[0] == 0:
            continue
        if _in_hull_residual(others, points[i]) <= REDUNDANCY_TOL:
            keep[i] = False
    vertices = points[keep]
    return VertexHull(vertices, _affine_dimension(vertices))
