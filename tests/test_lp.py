import numpy as np
import pytest
from scipy.optimize import linprog

from modwrench.hull import enumerate_binary_images
from modwrench.lp import (
    LpProblem,
    equality_feasibility,
    max_force_zero_torque,
    max_lambda,
    satisfies_task,
    satisfies_wrench,
    solve_lp,
)
from modwrench.structures import ModuleParams, StructureConfig, configuration_matrix

SQRT2 = np.sqrt(2.0)


def single_module_matrix(eta=np.pi / 4, c_tau=0.01):
    cfg = StructureConfig(frozenset({(0, 0)}), ModuleParams(eta=eta, c_tau=c_tau))
    return configuration_matrix(cfg)


class TestSolveLp:
    def test_box_only(self):
        sol = solve_lp(LpProblem(np.array([1.0]), np.zeros((0, 1)), np.zeros(0),
                                 np.array([0.0]), np.array([1.0])))
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(1.0)
        assert sol.x[0] == pytest.approx(1.0)

    def test_coupled_maximum(self):
        sol = solve_lp(LpProblem(np.array([1.0, 1.0]), np.array([[1.0, -1.0]]),
                                 np.array([0.0]), np.zeros(2), np.ones(2)))
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(2.0)
        assert np.allclose(sol.x, [1.0, 1.0])

    def test_infeasible(self):
        sol = solve_lp(LpProblem(np.array([1.0]), np.array([[0.0]]), np.array([1.0]),
                                 np.array([0.0]), np.array([1.0])))
        assert sol.status == "infeasible"

    def test_unbounded(self):
        sol = solve_lp(LpProblem(np.array([1.0]), np.zeros((0, 1)), np.zeros(0),
                                 np.array([0.0]), np.array([np.inf])))
        assert sol.status == "unbounded"

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            solve_lp(LpProblem(np.array([1.0, 2.0]), np.array([[1.0]]),
                               np.array([0.0]), np.zeros(2), np.ones(2)))

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            solve_lp(LpProblem(np.array([1.0]), np.zeros((0, 1)), np.zeros(0),
                               np.array([1.0]), np.array([0.0])))

    def test_against_scipy_on_random_problems(self):
        rng = np.random.default_rng(42)
        solved = 0
        for _ in range(120):
            m = int(rng.integers(1, 6))
            n = int(rng.integers(m, 12))
            A = rng.normal(size=(m, n))
            c = rng.normal(size=n)
            lo = np.zeros(n)
            hi = rng.uniform(0.5, 3.0, size=n)
            # rhs from a random interior point half the time, random otherwise
            if rng.random() < 0.5:
                b = A @ (rng.uniform(0, 1, size=n) * hi)
            else:
                b = rng.normal(size=m)
            sol = solve_lp(LpProblem(c, A, b, lo, hi))
            ref = linprog(-c, A_eq=A, b_eq=b, bounds=list(zip(lo, hi)), method="highs")
            if ref.status == 2:
                assert sol.status == "infeasible"
            else:
                assert ref.status == 0
                assert sol.status == "optimal"
                assert sol.objective == pytest.approx(-ref.fun, abs=1e-7)
                assert np.max(np.abs(A @ sol.x - b)) < 1e-8
                assert np.all(sol.x >= lo - 1e-9) and np.all(sol.x <= hi + 1e-9)
                solved += 1
        assert solved > 20

    def test_feasibility_residual_matches_scipy(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            m, n = 4, 9
            A = rng.normal(size=(m, n))
            b = rng.normal(size=m) * 2
            lo, hi = np.zeros(n), np.ones(n)
            residual, x = equality_feasibility(A, b, lo, hi)
            # scipy reference: minimize L1 residual via slack variables
            c = np.concatenate([np.zeros(n), np.ones(2 * m)])
            A_eq = np.hstack([A, np.eye(m), -np.eye(m)])
            bounds = [(0, 1)] * n + [(0, None)] * 2 * m
            ref = linprog(c, A_eq=A_eq, b_eq=b, bounds=bounds, method="highs")
            assert ref.status == 0
            assert residual == pytest.approx(ref.fun, abs=1e-8)
            if residual <= 1e-8:
                assert np.max(np.abs(A @ x - b)) < 1e-7


class TestMaxLambda:
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
