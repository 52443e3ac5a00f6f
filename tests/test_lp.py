import numpy as np
import pytest
from scipy.optimize import linprog

from modwrench import lp as lp_module
from modwrench.lp import (
    max_force_zero_torque,
    max_lambda,
    max_lambda_many,
    satisfies_task,
    satisfies_wrench,
    separating_normal,
    task_verdicts,
)
from modwrench.structures import ModuleParams, StructureConfig, configuration_matrix

from brute_force import enumerate_binary_images

SQRT2 = np.sqrt(2.0)


def single_module_matrix(eta=np.pi / 4, c_tau=0.01):
    cfg = StructureConfig(frozenset({(0, 0)}), ModuleParams(eta=eta, c_tau=c_tau))
    return configuration_matrix(cfg)


def highs_max_lambda(A, w, f_max):
    """max lambda s.t. A u = lambda w, 0 <= u <= f_max, by scipy's HiGHS."""
    n = A.shape[1]
    ref = linprog(np.r_[np.zeros(n), -1.0], A_eq=np.hstack([A, -w[:, None]]),
                  b_eq=np.zeros(A.shape[0]), bounds=[(0, f_max)] * n + [(0, None)],
                  method="highs")
    assert ref.status == 0
    return -ref.fun


class TestMaxLambda:
    def test_against_highs(self):
        # Structures of 1-4 modules (the single module has rank 4, the 1x3
        # bar rank 5) and random 6 x n matrices, some of rank n < 6; the
        # directions are random, in range(A), and off range(A).
        rng = np.random.default_rng(42)
        shapes = [{(0, 0)}, {(0, 0), (1, 0)}, {(0, 0), (1, 0), (2, 0)}, {(0, 0), (1, 0), (0, 1)},
                  {(0, 0), (1, 0), (0, 1), (1, 1)}, {(0, 0), (1, 0), (2, 0), (1, 1)}]
        matrices = [configuration_matrix(StructureConfig(frozenset(c))) for c in shapes]
        matrices += [rng.normal(size=(6, int(rng.integers(2, 13)))) for _ in range(12)]
        positive = off_range = 0
        for A in matrices:
            n = A.shape[1]
            f_max = float(rng.uniform(0.5, 3.0))
            U = np.hstack([rng.uniform(0, 1, size=(n, 2)), rng.uniform(-1, 1, size=(n, 2))])
            W = np.vstack([rng.normal(size=(4, 6)), (A @ U).T])
            W[:2, 2] = 4 * np.abs(W[:2, 2])
            W /= np.linalg.norm(W, axis=1, keepdims=True)
            scale = f_max * np.linalg.norm(A, axis=0).max()
            rank = np.linalg.matrix_rank(A)
            for w in W:
                lam, u = max_lambda(A, w, f_max)
                assert lam == pytest.approx(highs_max_lambda(A, w, f_max), abs=1e-7 * scale)
                assert np.abs(A @ u - lam * w).max() <= 1e-8
                assert u.min() >= -1e-9 and u.max() <= f_max + 1e-9
                positive += lam > 0
                off_range += np.linalg.matrix_rank(np.column_stack([A, w])) > rank
        assert positive >= 40 and off_range >= 20

    def test_vertical_force_bound(self):
        A = single_module_matrix()
        lam, u = max_lambda(A, np.array([0, 0, 1.0, 0, 0, 0]), 1.0)
        assert lam == pytest.approx(2 * SQRT2, abs=1e-9)
        assert np.allclose(u, 1.0, atol=1e-9)

    def test_unreachable_direction_gives_zero(self):
        # flat module, no drag: nothing can pull downward
        A = single_module_matrix(eta=0.0, c_tau=0.0)
        pts = enumerate_binary_images(A, 1.0)
        assert np.all(pts[:, 2] >= -1e-12)  # oracle: no binary image points down
        lam, _ = max_lambda(A, np.array([0, 0, -1.0, 0, 0, 0]), 1.0)
        assert lam == pytest.approx(0.0, abs=1e-9)

    def test_doubling_f_max_doubles_lambda(self):
        A = single_module_matrix()
        rng = np.random.default_rng(3)
        for _ in range(5):
            w = rng.normal(size=6)
            w /= np.linalg.norm(w)
            lam1, _ = max_lambda(A, w, 1.0)
            lam2, _ = max_lambda(A, w, 2.0)
            assert lam2 == pytest.approx(2 * lam1, abs=1e-8)

    def test_monotone_in_f_max(self):
        A = single_module_matrix()
        rng = np.random.default_rng(4)
        for _ in range(5):
            w = rng.normal(size=6)
            w /= np.linalg.norm(w)
            lams = [max_lambda(A, w, f)[0] for f in (0.5, 1.0, 1.5, 2.0)]
            assert all(b >= a - 1e-9 for a, b in zip(lams, lams[1:]))

    def test_near_range_direction_on_a_bar(self):
        # The 1x3 bar has rank 5.  This wrench leaves range(A) by about 1e-9
        # of its norm; solving with all six dependent rows made the simplex
        # pivot on round-off and raise "singular simplex basis".
        A = configuration_matrix(StructureConfig(frozenset({(0, 0), (1, 0), (2, 0)})))
        n = np.array([0, 0, 0, 1e-9, 0.25, 0])
        n /= np.linalg.norm(n)
        w = A @ (n @ A > 0) + 0.39 * (np.abs(n @ A).sum() + 1.0) * n
        ref = linprog(np.zeros(A.shape[1]), A_eq=A, b_eq=w, bounds=[(0, 1)] * A.shape[1],
                      method="highs")
        assert ref.status == 2  # infeasible
        assert not satisfies_wrench(A, w, 1.0)
        lam, u = max_lambda(A, w / np.linalg.norm(w), 1.0)
        assert lam < np.linalg.norm(w)
        assert np.all(u >= 0) and np.all(u <= 1.0)

    def test_rejects_non_unit_direction(self):
        A = single_module_matrix()
        with pytest.raises(ValueError):
            max_lambda(A, np.array([0, 0, 2.0, 0, 0, 0]), 1.0)

    def test_norm_identity_of_returned_input(self):
        # the optimum satisfies lambda = |A u*| because the direction is unit
        rng = np.random.default_rng(9)
        cfg = StructureConfig(frozenset({(0, 0), (1, 0)}))
        A = configuration_matrix(cfg)
        for _ in range(10):
            w = rng.normal(size=6)
            w /= np.linalg.norm(w)
            lam, u = max_lambda(A, w, 1.0)
            assert lam == pytest.approx(np.linalg.norm(A @ u), abs=1e-8)


class TestSatisfies:
    def test_zero_wrench(self):
        A = single_module_matrix()
        assert satisfies_wrench(A, np.zeros(6), 1.0)

    def test_threshold_flip(self):
        A = single_module_matrix()
        assert satisfies_wrench(A, np.array([0, 0, 2.8, 0, 0, 0]), 1.0)
        assert not satisfies_wrench(A, np.array([0, 0, 2.9, 0, 0, 0]), 1.0)

    def test_binary_images_are_feasible(self):
        A = single_module_matrix()
        for w in enumerate_binary_images(A, 1.0):
            assert satisfies_wrench(A, w, 1.0)

    def test_task_all_binary_points(self):
        A = single_module_matrix()
        ok, failing = satisfies_task(A, enumerate_binary_images(A, 1.0), 1.0)
        assert ok and failing is None

    def test_task_zero_rows(self):
        A = single_module_matrix()
        ok, failing = satisfies_task(A, np.zeros((2, 6)), 1.0)
        assert ok and failing is None

    def test_task_reports_smallest_failing_index(self):
        A = single_module_matrix()
        task = np.zeros((4, 6))
        task[2, 2] = 50.0  # infeasible
        task[3, 2] = 60.0  # also infeasible, but later
        ok, failing = satisfies_task(A, task, 1.0)
        assert not ok and failing == 2

    def test_scaled_past_vertex_fails(self):
        A = single_module_matrix()
        v = np.asarray(A @ np.ones(4))  # extreme along z
        assert satisfies_wrench(A, v, 1.0)
        assert not satisfies_wrench(A, 1.01 * v, 1.0)

    @pytest.mark.parametrize("f_max", [1.0, 1e-6])
    def test_boundary_band_scales_with_f_max(self, f_max):
        # 2x2 block: a vertical wrench 1e-5 beyond capacity fails at any
        # f_max, one 1e-5 short of it passes.
        cells = {(0, 0), (1, 0), (0, 1), (1, 1)}
        A = configuration_matrix(StructureConfig(frozenset(cells)))
        cap = 16 * np.cos(np.pi / 4) * f_max
        assert not satisfies_wrench(A, np.array([0, 0, cap * (1 + 1e-5), 0, 0, 0]), f_max)
        assert satisfies_wrench(A, np.array([0, 0, cap * (1 - 1e-5), 0, 0, 0]), f_max)


# 1 module (rank 4), 1x3 bar (rank 5), 2x2 block, 2x3 plus one cell, 2x4.
BATCH_STRUCTURES = [
    {(0, 0)},
    {(0, 0), (1, 0), (2, 0)},
    {(0, 0), (1, 0), (0, 1), (1, 1)},
    {(x, y) for x in range(3) for y in range(2)} | {(3, 0)},
    {(x, y) for x in range(4) for y in range(2)},
]


def mixed_task(A, f_max, seed):
    """Wrenches inside, outside, off range(A), zero, repeated and at binary images."""
    rng = np.random.default_rng(seed)
    n = A.shape[1]
    inside = f_max * A @ rng.uniform(0.1, 0.9, size=(n, 2))
    normals = rng.normal(size=(2, 6))
    outside = [A @ (f_max * (nv @ A > 0)) + 0.3 * f_max * (np.abs(nv @ A).sum() + 1.0) * nv
               for nv in normals / np.linalg.norm(normals, axis=1, keepdims=True)]
    binary = f_max * A @ np.vstack([np.ones(n), rng.integers(0, 2, size=n)]).T
    rows = [inside[:, 0], outside[0], np.zeros(6), binary[:, 0], inside[:, 1],
            outside[1], binary[:, 1], inside[:, 0]]
    Q = np.linalg.svd(A)[0]
    if np.linalg.matrix_rank(A) < 6:
        rows.insert(2, inside[:, 1] + 1e-3 * f_max * np.linalg.norm(A) * Q[:, -1])
    return np.array(rows)


def per_wrench(A, task, f_max):
    """The per-wrench loop satisfies_task used to run."""
    for i, w in enumerate(task):
        if not satisfies_wrench(A, w, f_max):
            return False, i
    return True, None


class TestMaxLambdaMany:
    @pytest.mark.parametrize("f_max", [1e-6, 1.0, 1e6])
    @pytest.mark.parametrize("cells", BATCH_STRUCTURES, ids=len)
    def test_matches_scalar_solve_row_by_row(self, cells, f_max):
        A = configuration_matrix(StructureConfig(frozenset(cells), ModuleParams(f_max=f_max)))
        scale = f_max * np.linalg.norm(A, axis=0).max()
        task = mixed_task(A, f_max, seed=len(cells))
        W = task[np.linalg.norm(task, axis=1) > 0]
        W = W / np.linalg.norm(W, axis=1, keepdims=True)
        lam, U = max_lambda_many(A, W, f_max)
        ref = np.array([max_lambda(A, w, f_max)[0] for w in W])
        assert np.abs(lam - ref).max() <= 1e-9 * scale
        assert (ref > 0).sum() >= 5
        if np.linalg.matrix_rank(A) < 6:
            assert lam[2] == 0.0 and not U[2].any()  # the row off range(A)
        assert U.min() >= -1e-9 * f_max and U.max() <= f_max * (1 + 1e-9)
        assert np.abs(U @ A.T - lam[:, None] * W).max() <= 1e-9 * scale
        assert satisfies_task(A, task, f_max) == per_wrench(A, task, f_max)
        assert satisfies_task(A, task[::-1], f_max) == per_wrench(A, task[::-1], f_max)

    def test_verdicts_cover_both_outcomes(self):
        A = configuration_matrix(StructureConfig(frozenset(BATCH_STRUCTURES[2])))
        task = mixed_task(A, 1.0, seed=4)
        verdicts = task_verdicts(A, task, 1.0)
        assert verdicts.tolist() == [satisfies_wrench(A, w, 1.0) for w in task]
        assert verdicts.any() and not verdicts.all()
        assert satisfies_task(A, task[verdicts], 1.0) == (True, None)

    @pytest.mark.parametrize("f_max", [1e-6, 1.0, 1e6])
    @pytest.mark.parametrize("cells", BATCH_STRUCTURES, ids=len)
    def test_scalar_matches_batch(self, cells, f_max):
        # Same start, same pricing: a batch ends on the scalar lambda.  One
        # row alone takes the scalar kernel, so the batch holds two copies.
        A = configuration_matrix(StructureConfig(frozenset(cells), ModuleParams(f_max=f_max)))
        scale = f_max * np.linalg.norm(A, axis=0).max()
        task = mixed_task(A, f_max, seed=len(cells))
        W = np.vstack([task[np.linalg.norm(task, axis=1) > 0],
                       np.random.default_rng(len(cells)).normal(size=(8, 6))])
        W /= np.linalg.norm(W, axis=1, keepdims=True)
        for w in W:
            assert abs(max_lambda(A, w, f_max)[0] - max_lambda_many(A, [w, w], f_max)[0][0]) \
                <= 1e-12 * scale

    def test_one_batch_against_highs(self):
        A = configuration_matrix(StructureConfig(frozenset(BATCH_STRUCTURES[3])))
        W = np.random.default_rng(5).normal(size=(12, 6))
        W[:, 2] = np.abs(W[:, 2]) * 4
        W /= np.linalg.norm(W, axis=1, keepdims=True)
        lam, _ = max_lambda_many(A, W, 1.0)
        for w, got in zip(W, lam):
            assert got == pytest.approx(highs_max_lambda(A, w, 1.0), abs=1e-7)

    def test_rejects_bad_directions(self):
        A = single_module_matrix()
        with pytest.raises(ValueError):
            max_lambda_many(A, np.array([[0, 0, 1.0, 0, 0, 0], [0, 0, 2.0, 0, 0, 0]]), 1.0)
        with pytest.raises(ValueError):
            max_lambda_many(A, np.eye(3), 1.0)
        with pytest.raises(ValueError):
            max_lambda_many(A, np.eye(6), 0.0)


def early_exit_tasks(A, f_max, seed):
    """Tasks that pass, fail on their first row, fail on their last row, and leave range(A).

    One task fails on a last row only 1e-6 beyond the capacity along it;
    that row alone, and a passing row alone, are one-row tasks.
    """
    task = mixed_task(A, f_max, seed)
    ok = task_verdicts(A, task, f_max)
    passing, failing = task[ok], task[~ok]
    w_hat = passing[0] / np.linalg.norm(passing[0])
    tight = (1 + 1e-6) * max_lambda(A, w_hat, f_max)[0] * w_hat
    tasks = [task, task[::-1], passing, np.vstack([failing[:1], passing]),
             np.vstack([passing, failing[-1:]]), np.vstack([passing, tight]),
             passing[:1], tight[None]]
    if np.linalg.matrix_rank(A) < 6:
        tasks.append(np.vstack([passing, task[2:3], passing[:1]]))  # task[2] is off range(A)
    return tasks


class TestSeparatingNormal:
    @pytest.mark.parametrize("f_max", [1e-6, 1.0, 1e6])
    @pytest.mark.parametrize("cells", BATCH_STRUCTURES, ids=len)
    def test_verdict_and_normal_match_the_full_solve(self, cells, f_max):
        A = configuration_matrix(StructureConfig(frozenset(cells), ModuleParams(f_max=f_max)))
        outcomes = []
        for task in early_exit_tasks(A, f_max, seed=len(cells)):
            verdicts = task_verdicts(A, task, f_max)
            hit = separating_normal(A, task, f_max)
            assert (hit is None) == verdicts.all()
            outcomes.append(hit is None)
            if hit is not None:
                i, n = hit
                assert not verdicts[i]
                assert abs(np.linalg.norm(n) - 1.0) <= 1e-12
                assert n @ task[i] > f_max * np.maximum(n @ A, 0.0).sum()
        assert any(outcomes) and not all(outcomes)

    def test_returns_the_off_range_row(self):
        A = configuration_matrix(StructureConfig(frozenset(BATCH_STRUCTURES[1])))
        task = mixed_task(A, 1.0, seed=3)
        passing = task[task_verdicts(A, task, 1.0)]
        i, n = separating_normal(A, np.vstack([passing, task[2:3]]), 1.0)
        assert i == len(passing)
        assert np.abs(n @ A).max() <= 1e-12  # the residual direction is orthogonal to range(A)

    def test_stops_and_settles_before_the_full_solve(self, monkeypatch):
        # With a refactorization at every pivot, the inverses count the
        # batch's pivots.  A first row that points down fails at once; a task
        # that passes settles each row as soon as its lambda reaches |w|.
        A = configuration_matrix(StructureConfig(frozenset(BATCH_STRUCTURES[3])))
        task = mixed_task(A, 1.0, seed=4)
        passing = task[task_verdicts(A, task, 1.0)]
        monkeypatch.setattr(lp_module, "_REFACTOR_EVERY", 1)
        inverses = []
        inv = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda a: inverses.append(len(a)) or inv(a))
        for task, want in ((np.vstack([-passing[:1], passing]), (0,)), (passing, None)):
            inverses.clear()
            hit = separating_normal(A, task, 1.0)
            assert (hit if hit is None else hit[:1]) == want
            early = len(inverses)
            inverses.clear()
            task_verdicts(A, task, 1.0)
            assert 0 < early < len(inverses)


class TestZeroTorqueForce:
    def test_vertical_matches_wrench_route(self):
        A = single_module_matrix()
        assert max_force_zero_torque(A, np.array([0, 0, 1.0]), 1.0) == pytest.approx(
            2 * SQRT2, abs=1e-9)
        lam, _ = max_lambda(A, np.array([0, 0, 1.0, 0, 0, 0]), 1.0)
        assert max_force_zero_torque(A, np.array([0, 0, 1.0]), 1.0) == pytest.approx(
            lam, abs=1e-12)

    def test_flat_module_has_no_lateral_force(self):
        A = single_module_matrix(eta=0.0)
        assert max_force_zero_torque(A, np.array([1.0, 0, 0]), 1.0) == pytest.approx(
            0.0, abs=1e-9)
