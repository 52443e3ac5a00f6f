"""Reachable wrench sets as facet-represented zonotopes.

The wrench set of a thrust box under the configuration matrix A is the
zonotope {A u : 0 <= u <= f_max}, the Minkowski sum of the segments
[0, f_max a_i].  Its facets have a closed form (Gouttefarde & Krut,
"Characterization of parallel manipulator available wrench set facets",
ARK 2010): within range(A), of rank r, every facet normal is orthogonal to
r - 1 linearly independent columns, and the facet offset along a unit
normal n is the support value h(n) = f_max * sum_i max(0, n . a_i).  The
hull keeps those normals and offsets in the coordinates of an orthonormal
basis Q of range(A), which also covers the flat wrench sets of a single
module (rank 4) and of a bar (rank 5).  A wrench w is inside iff its
residual off range(A) is within tolerance and N Q^T w <= h; the vertex set
is derived from the facets only when it is read.  No LP is solved here;
the tests check the facets against a brute-force oracle that enumerates
every on/off thrust pattern and prunes its images by LP.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Relative geometric tolerance.  Times max|a_i| it decides ranks and which
# columns lie in a facet hyperplane; times f_max * max|a_i| it is the
# membership tolerance, so verdicts do not change when f_max and the task
# are rescaled together.
GEOMETRY_TOL = 1e-9

# Column subsets per batched SVD; bounds the transient memory of a build.
_SUBSET_CHUNK = 1 << 14

# Vertex patterns are int64 bit codes, one bit per column.
_MAX_CODE_COLUMNS = 62


class CapacityError(RuntimeError):
    """Raised when an enumeration would exceed the supported problem size."""


@dataclass(frozen=True, eq=False)
class WrenchHull:
    """Facets of the zonotope {A u : 0 <= u <= f_max}.

    Facet k is {w : normals[k] . (basis.T @ w) <= offsets[k]}.  Row j of
    `signs` is the side of every column of A relative to the hyperplane of
    facets j and j + n_facets/2 (normals of opposite sign), 0 for the
    columns lying in it.
    """

    A: np.ndarray        # (6, m) configuration matrix
    f_max: float
    basis: np.ndarray    # (6, r) orthonormal basis of range(A)
    normals: np.ndarray  # (f, r) unit facet normals in basis coordinates
    offsets: np.ndarray  # (f,) support values f_max * sum_i max(0, n . a_i)
    signs: np.ndarray    # (f/2, m) int8 column sides per facet hyperplane
    tol: float           # membership tolerance, GEOMETRY_TOL * f_max * max|a_i|

    @property
    def dimension(self) -> int:
        return self.basis.shape[1]

    @property
    def n_facets(self) -> int:
        return self.normals.shape[0]

    @cached_property
    def vertices(self) -> np.ndarray:
        """Lex-sorted vertices, each the image of an on/off thrust pattern."""
        m = self.A.shape[1]
        if m > _MAX_CODE_COLUMNS:
            raise CapacityError(
                f"vertex enumeration of {m} columns exceeds the limit of {_MAX_CODE_COLUMNS}")
        codes = _facet_codes(self.A, np.arange(m), self.dimension, self.signs,
                             _geometry_tol(self.A), {})
        bits = ((codes[:, None] >> np.arange(m)) & 1).astype(float)
        return np.unique(bits @ (float(self.f_max) * self.A.T), axis=0)

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]


def _geometry_tol(A: np.ndarray) -> float:
    return GEOMETRY_TOL * float(np.linalg.norm(A, axis=0).max())


def _distinct(normals, quality, B, tol):
    """One normal per hyperplane, the one of highest quality.

    Normals are told apart by the set of columns of B they are orthogonal
    to (within tol): that set spans the hyperplane, so it identifies it.
    """
    order = np.argsort(-quality, kind="stable")
    normals, quality = normals[order], quality[order]
    packed = np.packbits(np.abs(normals @ B) <= tol, axis=1)
    _, first = np.unique(packed.view(np.dtype((np.void, packed.shape[1]))).ravel(),
                         return_index=True)
    first.sort()
    return normals[first], quality[first]


def _hyperplanes(B: np.ndarray, tol: float):
    """Distinct hyperplanes spanned by columns of B, and the side of each column.

    B (r, m) has full row rank.  Every r - 1 linearly independent columns
    span a hyperplane through the origin; their null vectors come from one
    batched SVD per chunk of subsets, and each hyperplane keeps the normal
    of its best-conditioned spanning subset.  Returns unit normals (h, r) and
    the int8 signs (h, m) of n . b_i, 0 where |n . b_i| <= tol.
    """
    r, m = B.shape
    if r == 0:
        return np.zeros((0, 0)), np.zeros((0, m), dtype=np.int8)
    if r == 1:
        normals = np.ones((1, 1))
    else:
        found, quality = [], []
        subsets = itertools.combinations(range(m), r - 1)
        while (chunk := np.array(list(itertools.islice(subsets, _SUBSET_CHUNK)), dtype=np.intp)).size:
            U, s, _ = np.linalg.svd(B[:, chunk].transpose(1, 0, 2))
            spanning = s[:, -1] > tol
            n, q = _distinct(U[spanning, :, -1], s[spanning, -1], B, tol)
            found.append(n)
            quality.append(q)
        normals = found[0] if len(found) == 1 else _distinct(
            np.concatenate(found), np.concatenate(quality), B, tol)[0]
    proj = normals @ B
    signs = np.sign(proj).astype(np.int8)
    signs[np.abs(proj) <= tol] = 0
    return normals, signs


def _facet_codes(G, cols, rank, signs, tol, memo):
    """Vertex bit codes of the zonotope of columns `cols` of G, from its facets.

    Row s of `signs` is a facet hyperplane of the rank-`rank` zonotope: the
    facet on its positive side is the sum of the columns with s > 0 plus the
    zonotope of the columns with s == 0 (of rank `rank` - 1), likewise on the
    negative side, and every vertex lies on a facet.  Bit i of a code is set
    when column i is on.  A rank-0 zonotope is the origin.
    """
    if rank == 0:
        return np.zeros(1, dtype=np.int64)
    weights = np.left_shift(1, cols.astype(np.int64))
    parts = []
    for s, positive, negative in zip(signs, (signs > 0) @ weights, (signs < 0) @ weights):
        inner = _vertex_codes(G, cols[s == 0], rank - 1, tol, memo)
        parts += [positive | inner, negative | inner]
    return np.unique(np.concatenate(parts))


def _vertex_codes(G, cols, rank, tol, memo):
    """Vertex bit codes of the rank-`rank` zonotope of columns `cols` of G, memoised on `cols`."""
    weights = np.left_shift(1, cols.astype(np.int64))
    key = int(weights.sum())
    if key not in memo:
        if rank == len(cols):  # independent columns: every on/off pattern is a vertex
            memo[key] = ((np.arange(1 << rank)[:, None] >> np.arange(rank)) & 1) @ weights
        else:
            sub = G[:, cols]
            basis = np.linalg.svd(sub, full_matrices=False)[0][:, :rank]
            _, signs = _hyperplanes(basis.T @ sub, tol)
            memo[key] = _facet_codes(G, cols, rank, signs, tol, memo)
    return memo[key]


def construct_hull(A, f_max: float) -> WrenchHull:
    """Closed-form facets of the reachable wrench set of A under 0 <= u <= f_max.

    Each hyperplane spanned by r - 1 independent columns bounds the zonotope
    on both sides, so it gives the facet pair +n, -n.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if A.shape[1] == 0:
        raise ValueError("configuration matrix needs at least one column")
    tol = _geometry_tol(A)
    U, s, _ = np.linalg.svd(A, full_matrices=False)
    basis = U[:, s > tol]  # orthonormal basis of range(A)
    B = basis.T @ A
    normals, signs = _hyperplanes(B, tol)
    normals = np.vstack([normals, -normals])
    proj = normals @ B
    offsets = float(f_max) * np.where(np.vstack([signs, -signs]) > 0, proj, 0.0).sum(axis=1)
    return WrenchHull(A, float(f_max), basis, normals, offsets, signs, float(f_max) * tol)


def _inside(hull: WrenchHull, W) -> np.ndarray:
    """Membership of each row of W: on range(A) and below every facet, within hull.tol."""
    W = np.atleast_2d(np.asarray(W, dtype=float))
    y = W @ hull.basis
    residual = np.linalg.norm(W - y @ hull.basis.T, axis=1)
    below = np.all(y @ hull.normals.T <= hull.offsets + hull.tol, axis=1)
    return (residual <= hull.tol) & below


def hull_contains(hull: WrenchHull, w) -> bool:
    """True iff the wrench w lies in the hull (within hull.tol)."""
    return bool(_inside(hull, w)[0])


def satisfies_task_hull(A, task, f_max: float) -> bool:
    """Build the wrench hull once, then test every task wrench against it."""
    return bool(_inside(construct_hull(A, f_max), task).all())


def separating_normal_hull(A, task, f_max: float):
    """satisfies_task_hull's verdict, with a unit normal that separates a failing wrench.

    Returns None when the hull holds every task wrench, else (i, n): wrench
    i fails and n . w_i > h(n).  A wrench off range(A) gives its residual
    direction; otherwise n is the most violated facet normal, mapped back
    to six coordinates through the hull's basis.
    """
    h = construct_hull(A, f_max)
    W = np.atleast_2d(np.asarray(task, dtype=float))
    y = W @ h.basis
    off = W - y @ h.basis.T
    off_norm = np.linalg.norm(off, axis=1)
    if (off_norm > h.tol).any():
        i = int(np.argmax(off_norm))
        return i, off[i] / off_norm[i]
    excess = y @ h.normals.T - (h.offsets + h.tol)
    i, k = np.unravel_index(np.argmax(excess), excess.shape)
    if excess[i, k] <= 0.0:
        return None
    return int(i), h.basis @ h.normals[k]
