import functools
import gc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from modwrench.hull import (
    CapacityError,
    construct_hull,
    hull_contains,
    satisfies_task_hull,
    separating_normal_hull,
)
from modwrench.lp import satisfies_task, satisfies_wrench, separating_normal, task_verdicts
from modwrench.structures import ModuleParams, StructureConfig, configuration_matrix

from brute_force import REDUNDANCY_TOL, _in_hull_residual, enumerate_binary_images, prune_redundant

SQRT2 = np.sqrt(2.0)
BAR3 = {(0, 0), (1, 0), (2, 0)}
BLOCK = {(0, 0), (1, 0), (0, 1), (1, 1)}


def vertex_sets_match(v1, v2, tol=1e-8):
    """Equality of two vertex sets up to row reordering."""
    v1 = np.atleast_2d(v1)
    v2 = np.atleast_2d(v2)
    if v1.shape != v2.shape:
        return False
    d = np.linalg.norm(v1[:, None, :] - v2[None, :, :], axis=2)
    return bool(max(d.min(axis=1).max(), d.min(axis=0).max()) <= tol)


def module_matrix(cells={(0, 0)}, **params):
    cfg = StructureConfig(frozenset(cells), ModuleParams(**params))
    return configuration_matrix(cfg)


class TestEnumerate:
    def test_single_column(self):
        g = np.array([[1.0, 0, 0, 0, 0, 0.5]]).T
        pts = enumerate_binary_images(g, 2.0)
        assert vertex_sets_match(np.sort(pts, axis=0), np.sort(np.vstack([np.zeros(6), 2.0 * g[:, 0]]), axis=0))

    def test_single_module_count_and_max_z(self):
        A = module_matrix(eta=np.pi / 4)
        pts = enumerate_binary_images(A, 1.0)
        assert pts.shape == (16, 6)
        assert pts[:, 2].max() == pytest.approx(4 * np.cos(np.pi / 4), abs=1e-12)

    def test_zero_column_adds_nothing(self):
        A = module_matrix()
        extended = np.hstack([A, np.zeros((6, 1))])
        base = {tuple(np.round(p, 10)) for p in enumerate_binary_images(A, 1.0)}
        ext = {tuple(np.round(p, 10)) for p in enumerate_binary_images(extended, 1.0)}
        assert base == ext

    def test_capacity_guard(self):
        A = np.zeros((6, 21))
        with pytest.raises(CapacityError, match="2\\*\\*21"):
            enumerate_binary_images(A, 1.0)


class TestPrune:
    def test_midpoint_removed(self):
        g = np.array([1.0, 2, 3, 0, 0, 0])
        pts = np.vstack([np.zeros(6), g, 0.5 * g])
        h = prune_redundant(pts)
        assert vertex_sets_match(h.vertices, np.vstack([np.zeros(6), g]))
        assert h.dimension == 1

    def test_cube_centroid_removed(self):
        corners = enumerate_binary_images(np.vstack([np.eye(3), np.zeros((3, 3))]), 1.0)
        centroid = corners.mean(axis=0, keepdims=True)
        h = prune_redundant(np.vstack([corners, centroid]))
        assert h.n_vertices == 8
        assert vertex_sets_match(h.vertices, np.unique(corners, axis=0))

    def test_parallelogram_keeps_all_four(self):
        # independent columns: all four binary images are extreme
        A = np.zeros((6, 2))
        A[0, 0] = 1.0
        A[1, 1] = 1.0
        A[2, :] = 0.3
        pts = enumerate_binary_images(A, 1.0)
        h = prune_redundant(pts)
        assert h.n_vertices == 4
        assert h.dimension == 2

    def test_single_point(self):
        h = prune_redundant(np.zeros((1, 6)))
        assert h.n_vertices == 1
        assert h.dimension == 0

    def test_nnls_verdict_matches_highs(self):
        # Random 6-D point sets of 2-40 points, queried at convex combinations
        # of them and at points beyond a supporting plane (or, for a few
        # points, off their affine hull).  The oracle's NNLS residual r must
        # bound HiGHS's least L1 residual, r <= L1 <= sqrt(7) r, and give its
        # verdict at REDUNDANCY_TOL.
        rng = np.random.default_rng(11)
        verdicts = {True: 0, False: 0}
        for _ in range(60):
            k = int(rng.integers(2, 41))
            points = rng.normal(size=(k, 6)) * rng.uniform(0.1, 10.0)
            n = rng.normal(size=6)
            n /= np.linalg.norm(n)
            queries = [rng.dirichlet(np.full(k, 0.5)) @ points,
                       points[np.argmax(points @ n)] + rng.uniform(1e-3, 1.0) * n]
            for x in queries:
                cols = np.vstack([points.T, np.ones((1, k))])
                ref = linprog(np.r_[np.zeros(k), np.ones(14)],
                              A_eq=np.hstack([cols, np.eye(7), -np.eye(7)]), b_eq=np.r_[x, 1.0],
                              bounds=[(0, None)] * (k + 14), method="highs")
                assert ref.status == 0
                r = _in_hull_residual(points, x)
                assert r <= ref.fun + 1e-9 and ref.fun <= np.sqrt(7) * r + 1e-9
                inside = np.sqrt(7) * r <= REDUNDANCY_TOL
                assert inside == (ref.fun <= REDUNDANCY_TOL)
                verdicts[inside] += 1
        assert verdicts == {True: 60, False: 60}

    def test_certification_memory_budget(self):
        # 2^13 points would need a 563 MB projection; the budget is 256 MiB.
        points = np.random.default_rng(0).normal(size=(1 << 13, 6))
        with pytest.raises(CapacityError, match="MiB"):
            prune_redundant(points)


class TestMinkowskiMerge:
    """Minkowski sums of segments, built from their generators."""

    def test_identity_element(self):
        g = np.array([0.0, 1, 0, 0, 0, 0])
        merged = construct_hull(np.column_stack([g, np.zeros(6)]), 1.0)
        assert vertex_sets_match(merged.vertices, np.vstack([np.zeros(6), g]))

    def test_orthogonal_segments_make_square(self):
        e1 = np.zeros(6); e1[0] = 1.0
        e2 = np.zeros(6); e2[1] = 1.0
        merged = construct_hull(np.column_stack([e1, e2]), 1.0)
        expected = np.vstack([np.zeros(6), e1, e2, e1 + e2])
        assert vertex_sets_match(merged.vertices, np.unique(expected, axis=0))

    def test_parallel_segments_collapse(self):
        g = np.array([1.0, 1, 0, 0, 0, 0])
        merged = construct_hull(np.column_stack([g, g]), 1.0)
        assert vertex_sets_match(merged.vertices, np.vstack([np.zeros(6), 2 * g]))


class TestConstructHull:
    def test_single_column_base_case(self):
        g = np.array([[0.1, 0, 0.9, 0, 0.02, 0]]).T
        h = construct_hull(g, 1.5)
        assert h.n_vertices == 2

    def test_zero_columns_rejected(self):
        with pytest.raises(ValueError):
            construct_hull(np.zeros((6, 0)), 1.0)

    def test_single_module_matches_oracle(self):
        A = module_matrix(eta=np.pi / 4)
        h = construct_hull(A, 1.0)
        oracle = prune_redundant(enumerate_binary_images(A, 1.0))
        assert vertex_sets_match(h.vertices, oracle.vertices)

    def test_two_modules_match_oracle(self):
        A = module_matrix(cells={(0, 0), (0, 1)})
        h = construct_hull(A, 1.0)
        oracle = prune_redundant(enumerate_binary_images(A, 1.0))
        assert vertex_sets_match(h.vertices, oracle.vertices)

    def test_random_matrices_match_oracle(self):
        # generator-level equivalence, independent of any module geometry
        rng = np.random.default_rng(123)
        for _ in range(8):
            cols = int(rng.integers(2, 7))
            A = rng.normal(size=(6, cols))
            f_max = float(rng.uniform(0.5, 2.0))
            h = construct_hull(A, f_max)
            oracle = prune_redundant(enumerate_binary_images(A, f_max))
            assert vertex_sets_match(h.vertices, oracle.vertices)

    def test_scaling_in_f_max(self):
        A = module_matrix()
        h1 = construct_hull(A, 1.0)
        h2 = construct_hull(A, 2.0)
        assert vertex_sets_match(h2.vertices, 2.0 * h1.vertices)

    def test_origin_always_contained(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            A = rng.normal(size=(6, 5))
            h = construct_hull(A, 1.0)
            assert hull_contains(h, np.zeros(6))


class TestContainment:
    def test_boundary_vertex(self):
        A = module_matrix(eta=np.pi / 4)
        h = construct_hull(A, 1.0)
        assert hull_contains(h, np.array([0, 0, 4 * np.cos(np.pi / 4), 0, 0, 0]))
        assert not hull_contains(h, np.array([0, 0, 4 * np.cos(np.pi / 4) + 0.01, 0, 0, 0]))

    def test_outside_segment(self):
        g = np.array([0.0, 0, 1, 0, 0, 0])
        h = construct_hull(g[:, None], 1.0)
        assert not hull_contains(h, 2 * g)

    def test_interior_points(self):
        A = module_matrix(cells={(0, 0), (1, 0)})
        h = construct_hull(A, 1.0)
        rng = np.random.default_rng(2)
        for _ in range(20):
            u = rng.uniform(0, 1, size=8)
            assert hull_contains(h, A @ u)


class TestTaskSatisfaction:
    def test_zero_task(self):
        A = module_matrix()
        assert satisfies_task_hull(A, np.zeros((1, 6)), 1.0)

    def test_vertical_threshold(self):
        A = module_matrix(eta=np.pi / 4)
        assert satisfies_task_hull(A, np.array([[0, 0, 2 * SQRT2, 0, 0, 0]]), 1.0)
        assert not satisfies_task_hull(A, np.array([[0, 0, 3.0, 0, 0, 0]]), 1.0)


class TestSeparatingNormal:
    @pytest.mark.parametrize("f_max", [1e-6, 1.0, 1e6])
    @pytest.mark.parametrize("cells", [{(0, 0)}, BAR3, {(0, 0), (1, 0), (0, 1)}],
                             ids=["module", "bar", "L"])
    def test_verdict_and_normal(self, cells, f_max):
        # Images of random thrusts pass; scaled past a vertex, or moved off
        # range(A) on the flat sets of the module and the bar, they fail.
        A = module_matrix(cells, f_max=f_max)
        rng = np.random.default_rng(len(cells))
        inside = rng.uniform(0.0, 1.0, size=(4, A.shape[1])) @ (f_max * A.T)
        outside = 1.01 * f_max * A.sum(axis=1)
        off = inside[0] + 1e-3 * f_max * np.linalg.svd(A)[0][:, -1]
        tasks = [inside, np.vstack([inside, outside]), np.vstack([outside, inside])]
        if np.linalg.matrix_rank(A) < 6:
            tasks.append(np.vstack([inside, off]))
        for task in tasks:
            hit = separating_normal_hull(A, task, f_max)
            assert (hit is None) == satisfies_task_hull(A, task, f_max)
            if hit is not None:
                i, n = hit
                assert not satisfies_task_hull(A, task[i:i + 1], f_max)
                assert abs(np.linalg.norm(n) - 1.0) <= 1e-12
                assert n @ task[i] > f_max * np.maximum(n @ A, 0.0).sum()
        assert separating_normal_hull(A, tasks[0], f_max) is None


class TestFacets:
    @pytest.mark.parametrize("cells, facets, vertices", [
        ({(0, 0)}, 8, 16),
        ({(0, 0), (1, 0)}, 88, 178),
        (BAR3, 266, 656),
        ({(0, 0), (1, 0), (0, 1)}, 508, 1590),
        (BLOCK, 1672, 6420),
        ({(0, 0), (1, 0), (2, 0), (1, 1)}, 1604, 5250),  # T
        ({(0, 0), (1, 0), (1, 1), (2, 1)}, 2152, 6820),  # S
        ({(0, 0), (1, 0), (2, 0), (0, 1)}, 1808, 5380),  # L
        ({(0, 0), (1, 0), (2, 0), (3, 0)}, 680, 1666),
    ])
    def test_facet_and_vertex_counts(self, cells, facets, vertices):
        h = construct_hull(module_matrix(cells), 1.0)
        assert h.n_facets == facets
        assert h.n_vertices == vertices


def test_vertex_enumeration_leaves_no_reference_cycle():
    # A recursion that refers to itself through a closure keeps its memo
    # alive until the collector runs, which raises the peak memory.
    A = module_matrix(BLOCK)
    gc.collect()
    gc.disable()
    try:
        assert construct_hull(A, 1.0).n_vertices == 6420
        assert gc.collect() == 0
    finally:
        gc.enable()


@st.composite
def degenerate_generators(draw):
    """6 x m matrices, m <= 8, of rank at most 1-6, with repeated directions.

    Every column after the first is drawn free or as a zero column, a
    duplicate, a scaled copy or an antiparallel copy of an earlier one.
    """
    rank, m = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    G = rng.normal(size=(6, rank)) @ rng.normal(size=(rank, m))
    for j in range(1, m):
        kind = draw(st.sampled_from(["free", "zero", "duplicate", "scaled", "antiparallel"]))
        source = G[:, draw(st.integers(0, j - 1))]
        scale = draw(st.sampled_from([0.25, 0.5, 2.0, 3.0]))
        G[:, j] = {"free": G[:, j], "zero": 0.0, "duplicate": source,
                   "scaled": scale * source, "antiparallel": -scale * source}[kind]
    return G


E1, E2 = np.eye(6)[:, 0], np.eye(6)[:, 1]


@given(G=degenerate_generators())
@example(G=np.column_stack([E1, np.zeros(6), E2]))  # a zero column
@example(G=np.zeros((6, 3)))
@example(G=np.array([[0.3, -1.0, 0.0, 0.2, 0.0, 0.5]]).T)  # one column
@example(G=np.column_stack([E1 + E2, -2.0 * (E1 + E2)]))  # an antiparallel pair
@settings(max_examples=80, deadline=None)
def test_degenerate_generators_match_oracle(G):
    vertices = construct_hull(G, 1.0).vertices
    assert vertex_sets_match(vertices, prune_redundant(enumerate_binary_images(G, 1.0)).vertices)


@pytest.fixture(scope="module")
def block_hull():
    A = module_matrix(BLOCK)
    return A, construct_hull(A, 1.0)


class TestBlockVerticesAgainstFacets:
    def test_vertices_attain_the_support_function(self, block_hull):
        A, h = block_hull
        rng = np.random.default_rng(11)
        normals = np.vstack([rng.normal(size=(200, 6)), h.normals @ h.basis.T])
        support = np.maximum(normals @ A, 0.0).sum(axis=1)
        assert np.allclose((h.vertices @ normals.T).max(axis=0), support, rtol=0, atol=1e-12)

    def test_tight_facets_have_full_rank_at_every_vertex(self, block_hull):
        _, h = block_hull
        assert h.dimension == 6
        slack = h.offsets[None, :] - (h.vertices @ h.basis) @ h.normals.T
        assert slack.min() >= -h.tol
        for row in slack:
            tight = h.normals[np.abs(row) <= 1e-9]
            assert np.linalg.matrix_rank(tight, tol=1e-9) == h.dimension


def banded_wrench(A, inside, margin, coeffs, direction):
    """A wrench at relative depth `margin` inside or outside the f_max = 1 set of A.

    Inside: A u with every u_i in [margin, 1 - margin].  Outside: pushed along
    the unit normal n from the support point of n by margin * (sum|n . a_i| + 1).
    """
    if inside:
        return A @ (margin + (1 - 2 * margin) * np.asarray(coeffs[: A.shape[1]]))
    n = np.asarray(direction) / np.linalg.norm(direction)
    proj = n @ A
    return A @ (proj > 0) + margin * (np.abs(proj).sum() + 1.0) * n


SCALE_MATRICES = [module_matrix(cells) for cells in ({(0, 0)}, BAR3, BLOCK)]


@functools.cache
def scaled_hull(structure, f_max):
    return construct_hull(SCALE_MATRICES[structure], f_max)


wrench_strategies = dict(
    structure=st.integers(0, len(SCALE_MATRICES) - 1),
    k=st.sampled_from([1e-6, 1e6]),
    inside=st.booleans(),
    coeffs=st.lists(st.floats(0.0, 1.0), min_size=16, max_size=16),
    direction=st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6).filter(
        lambda d: np.linalg.norm(d) > 0.1),
)


@given(log_margin=st.floats(-4.0, np.log10(0.5)), **wrench_strategies)
@settings(max_examples=100, deadline=None)
def test_hull_verdicts_invariant_under_joint_scaling(log_margin, structure, k, inside, coeffs, direction):
    w = banded_wrench(SCALE_MATRICES[structure], inside, 10.0 ** log_margin, coeffs, direction)
    for f_max in (1.0, k):
        assert hull_contains(scaled_hull(structure, f_max), f_max * w) == inside


@given(log_margin=st.floats(-4.0, np.log10(0.5)), **wrench_strategies)
@settings(max_examples=60, deadline=None)
def test_lp_verdicts_invariant_under_joint_scaling(log_margin, structure, k, inside, coeffs, direction):
    A = SCALE_MATRICES[structure]
    w = banded_wrench(A, inside, 10.0 ** log_margin, coeffs, direction)
    for f_max in (1.0, k):
        assert satisfies_wrench(A, f_max * w, f_max) == inside


@given(log_margin=st.floats(-4.0, np.log10(0.5)), **wrench_strategies)
@settings(max_examples=60, deadline=None)
def test_task_verdicts_invariant_under_joint_scaling(log_margin, structure, k, inside, coeffs, direction):
    # A second, interior row sends the task through the batched solve.
    A = SCALE_MATRICES[structure]
    task = np.array([banded_wrench(A, inside, 10.0 ** log_margin, coeffs, direction),
                     banded_wrench(A, True, 0.25, coeffs[::-1], direction)])
    for f_max in (1.0, k):
        assert task_verdicts(A, f_max * task, f_max).tolist() == [inside, True]


def lp_and_hull_verdicts(A, w, f_max):
    """The verdict on w of every LP route and of the hull."""
    return [satisfies_wrench(A, w, f_max), *task_verdicts(A, [w, w], f_max),
            separating_normal(A, [w, w], f_max) is None,
            hull_contains(construct_hull(A, f_max), w)]


@pytest.mark.parametrize("f_max", [1e-6, 1.0, 1e6])
def test_ratio_test_ties_scale_with_f_max(f_max):
    # Outside the wrench set.  An absolute tie band would break a tie at
    # f_max = 1e-6 that releases a pinned artificial, and the LP routes
    # would say inside.
    w = banded_wrench(SCALE_MATRICES[0], False, 1e-3, None, [0, 1e-6, 0, 0, 0, 1])
    assert lp_and_hull_verdicts(SCALE_MATRICES[0], f_max * w, f_max) == [False] * 5


@pytest.mark.parametrize("f_max", [1e-13, 1.0, 1e6])
def test_zero_wrench_cut_scales_with_f_max(f_max):
    # A module cannot push down.  An absolute cut would pass |w| = 1e-13 as
    # the zero wrench.
    w = np.array([0, 0, -f_max, 0, 0, 0])
    assert lp_and_hull_verdicts(SCALE_MATRICES[0], w, f_max) == [False] * 5


# The wrench map of a 180 degree turn about z: R_z(pi) on force and torque.
HALF_TURN = np.diag([-1.0, -1.0, 1.0, -1.0, -1.0, 1.0])


@pytest.mark.parametrize("cells", [{(0, 0)}, {(0, 0), (1, 0)}, {(0, 0), (1, 0), (0, 1)}, BAR3],
                         ids=["1", "1x2", "L", "1x3"])
def test_half_turn_of_the_lattice_maps_verdicts(cells):
    # (x, y) -> (-x, -y) turns every module by pi about z.  The module is
    # symmetric under that turn, so the columns of T A are those of the
    # turned design, and a wrench w is reachable iff T w is.
    A = module_matrix(cells)
    B = module_matrix({(-x, -y) for x, y in cells})
    TA = HALF_TURN @ A
    perm = np.abs(TA[:, :, None] - B[:, None, :]).max(axis=0).argmin(axis=1)
    assert sorted(perm) == list(range(A.shape[1]))
    assert np.allclose(TA, B[:, perm], rtol=0.0, atol=1e-12)

    rng = np.random.default_rng(len(cells))
    inside = np.arange(12) % 2 == 0
    task = np.array([banded_wrench(A, ok, rng.uniform(0.05, 0.3), rng.uniform(size=16),
                                   rng.normal(size=6)) for ok in inside])
    turned = task @ HALF_TURN.T
    assert task_verdicts(A, task, 1.0).tolist() == inside.tolist()
    assert task_verdicts(B, turned, 1.0).tolist() == inside.tolist()
    hull_a, hull_b = construct_hull(A, 1.0), construct_hull(B, 1.0)
    assert [hull_contains(hull_b, w) for w in turned] == inside.tolist()
    assert [hull_contains(hull_a, w) for w in task] == inside.tolist()
    for rows in (task, task[inside]):
        turned_rows = rows @ HALF_TURN.T
        assert satisfies_task(A, rows, 1.0) == satisfies_task(B, turned_rows, 1.0)
        assert satisfies_task_hull(A, rows, 1.0) == satisfies_task_hull(B, turned_rows, 1.0)
