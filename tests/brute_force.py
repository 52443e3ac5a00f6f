"""Brute-force references for the wrench-set tests.

The binary-image oracle enumerates the image A u of every on/off thrust
pattern and prunes the points that are convex combinations of the others;
the facet construction in `modwrench.hull` is tested against the vertex set
it leaves.  Each convex-combination test is one non-negative least-squares
solve (Lawson & Hanson's NNLS, `scipy.optimize.nnls`), so the oracle shares
no solver with the LP route it is compared with.  Neither is fast, and
nothing in the package uses them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import nnls

from modwrench.hull import CapacityError

# A point is treated as redundant when sqrt(d + 1) times the L2 residual of
# its best convex combination of the remaining points is within this; that
# bounds the L1 residual, so the test is no looser than an L1 one at the
# same tolerance.  Published so oracle comparisons are deterministic.
REDUNDANCY_TOL = 1e-8

# Brute-force binary enumeration guard.
MAX_ENUM_COLUMNS = 20


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
    """Least L2 residual of (x, 1) against [points^T; 1] t over t >= 0.

    It is 0 exactly when x is a convex combination of the points.
    """
    cols = np.vstack([points.T, np.ones((1, points.shape[0]))])
    return float(nnls(cols, np.append(x, 1.0))[1])


# Fixed direction battery used to certify clear vertices without a solve.
_N_CERTIFY_DIRECTIONS = 384
_CERTIFY_SEED = 20230517
# Largest point-by-direction projection the certification may allocate.
_CERTIFY_BYTES = 256 << 20


def _certified_extremes(points: np.ndarray) -> np.ndarray:
    """Mark points that are unique maximizers of some direction by a clear gap.

    Such a point cannot be a convex combination of the others (the gap along
    the certifying direction dwarfs REDUNDANCY_TOL), so the per-point solve can
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
    tested with one NNLS solve at REDUNDANCY_TOL (clear extreme points are
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
        if np.sqrt(points.shape[1] + 1) * _in_hull_residual(others, points[i]) <= REDUNDANCY_TOL:
            keep[i] = False
    vertices = points[keep]
    return VertexHull(vertices, _affine_dimension(vertices))
