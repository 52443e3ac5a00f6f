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
residual off range(A) is within tolerance and N Q^T w <= h.  The vertex
set is derived when read, from the facets' column signs alone, with no SVD
and no tolerance: a facet is the sum of the columns on its positive side
plus the zonotope of those in its hyperplane, whose own facets lie in its
maximal proper intersections with the other hyperplanes (the flats of the
column matroid, as in Ferrez, Fukuda & Liebling 2005), and every vertex
lies on a facet.  No LP is solved here; the tests check the facets against
a brute-force oracle that enumerates every on/off thrust pattern and
prunes its images by non-negative least squares.
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
        weights = np.left_shift(1, np.arange(m, dtype=np.int64))
        zero, pos, neg = (test(self.signs, 0) @ weights for test in (np.equal, np.greater, np.less))
        codes = _vertex_codes((1 << m) - 1, self.dimension, zero, np.arange(len(zero)), pos, neg, {})
        bits = ((codes[:, None] >> np.arange(m)) & 1).astype(float)
        return np.unique(bits @ (float(self.f_max) * self.A.T), axis=0)

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]


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


def _vertex_codes(cols, rank, facets, rows, pos, neg, memo):
    """Vertex bit codes of the rank-`rank` zonotope of the columns in bit mask `cols`.

    facets[k] masks the columns of cols in its k-th facet hyperplane, and
    the hull's sign row rows[k] sides the rest.  Every vertex lies on a facet:
    the sum of the columns in cols & pos[rows[k]] (or neg) plus the zonotope
    of facets[k], whose own facets lie in its maximal proper intersections
    with the other facets[j], on the same sign rows.  Bit i of a code is set
    when column i is on; `memo` maps each facet mask to its codes.
    """
    if not len(facets):
        return np.zeros(1, dtype=np.int64)
    inner = []
    for f in map(int, facets):
        if f not in memo:
            if f.bit_count() == rank - 1:  # independent columns: every on/off pattern is a vertex
                bits = np.array([1 << i for i in range(f.bit_length()) if f >> i & 1], dtype=np.int64)
                memo[f] = ((np.arange(1 << len(bits))[:, None] >> np.arange(len(bits))) & 1) @ bits
            else:
                cut = np.sort(facets & f)
                cut = cut[np.concatenate(([True], cut[1:] != cut[:-1])) & (cut != f)]
                cut = cut[((cut[:, None] & cut) == cut[:, None]).sum(axis=1) == 1]
                first = np.argmax((facets & f) == cut[:, None], axis=1)
                memo[f] = _vertex_codes(f, rank - 1, cut, rows[first], pos, neg, memo)
        inner.append(memo[f])
    sizes = [len(c) for c in inner]
    inner = np.concatenate(inner)
    codes = np.sort(np.concatenate([np.repeat(pos[rows] & cols, sizes) | inner,
                                    np.repeat(neg[rows] & cols, sizes) | inner]))
    return codes[np.concatenate(([True], codes[1:] != codes[:-1]))]  # np.unique's hash is 3x slower


def construct_hull(A, f_max: float) -> WrenchHull:
    """Closed-form facets of the reachable wrench set of A under 0 <= u <= f_max.

    Each hyperplane spanned by r - 1 independent columns bounds the zonotope
    on both sides, so it gives the facet pair +n, -n.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if A.shape[1] == 0:
        raise ValueError("configuration matrix needs at least one column")
    tol = GEOMETRY_TOL * float(np.linalg.norm(A, axis=0).max())
    U, s, _ = np.linalg.svd(A, full_matrices=False)
    basis = U[:, s > tol]  # orthonormal basis of range(A)
    B = basis.T @ A
    normals, signs = _hyperplanes(B, tol)
    normals = np.vstack([normals, -normals])
    proj = normals @ B
    offsets = float(f_max) * np.where(np.vstack([signs, -signs]) > 0, proj, 0.0).sum(axis=1)
    return WrenchHull(A, float(f_max), basis, normals, offsets, signs, float(f_max) * tol)


def _excess(hull: WrenchHull, W):
    """Per row of W: residual off range(A), its norm, facet excess y N^T - (h + tol)."""
    W = np.atleast_2d(np.asarray(W, dtype=float))
    if not np.isfinite(np.linalg.norm(W, axis=1)).all():
        raise ValueError("task wrenches must have finite norms")
    y = W @ hull.basis
    off = W - y @ hull.basis.T
    return off, np.linalg.norm(off, axis=1), y @ hull.normals.T - (hull.offsets + hull.tol)


def hull_contains(hull: WrenchHull, w) -> bool:
    """True iff the wrench w lies in the hull (within hull.tol)."""
    _, off_norm, excess = _excess(hull, w)
    return bool(off_norm[0] <= hull.tol and (excess[0] <= 0.0).all())


def separating_normal_hull(A, task, f_max: float):
    """The hull's verdict on a task, with a unit normal that separates a failing wrench.

    Returns None when the hull holds every task wrench, else (i, n): wrench
    i fails and n . w_i > h(n).  A wrench off range(A) gives its residual
    direction; otherwise n is the most violated facet normal, mapped back
    to six coordinates through the hull's basis.
    """
    h = construct_hull(A, f_max)
    off, off_norm, excess = _excess(h, task)
    if (off_norm > h.tol).any():
        i = int(np.argmax(off_norm))
        return i, off[i] / off_norm[i]
    i, k = np.unravel_index(np.argmax(excess), excess.shape)
    if excess[i, k] <= 0.0:
        return None
    return int(i), h.basis @ h.normals[k]
