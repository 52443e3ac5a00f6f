import numpy as np
import pytest

from modwrench.allocation import (
    evaluate_task_trace,
    generate_random_task,
    min_norm_allocation,
    truncate_input,
)
from modwrench.lp import BOUNDARY_TOL, SolverError, max_lambda, satisfies_wrench, task_capacity
from modwrench.structures import ModuleParams, StructureConfig, configuration_matrix

SQRT2 = np.sqrt(2.0)
BAR3 = {(0, 0), (1, 0), (2, 0)}
L_TROMINO = {(0, 0), (1, 0), (0, 1)}


def module_matrix(cells={(0, 0)}, **params):
    cfg = StructureConfig(frozenset(cells), ModuleParams(**params))
    return configuration_matrix(cfg)


class TestMinNormAllocation:
    def test_zero_wrench_gives_zero_input(self):
        A = module_matrix()
        assert np.allclose(min_norm_allocation(A, np.zeros(6)), 0.0)

    def test_uniform_preimage_of_vertical_wrench(self):
        A = module_matrix(eta=np.pi / 4)
        w = np.array([0, 0, 2 * SQRT2, 0, 0, 0])
        u = min_norm_allocation(A, w)
        assert np.allclose(u, 1.0, atol=1e-9)
        assert np.allclose(A @ u, w, atol=1e-9)

    def test_exact_on_row_space(self):
        A = module_matrix(cells={(0, 0), (1, 0)})
        rng = np.random.default_rng(8)
        for _ in range(10):
            w = A @ rng.uniform(-1, 1, size=8)
            u = min_norm_allocation(A, w)
            assert np.linalg.norm(A @ u - w) < 1e-9

    def test_minimum_norm_among_preimages(self):
        A = module_matrix(cells={(0, 0), (1, 0)})
        w = A @ np.full(8, 0.7)
        u = min_norm_allocation(A, w)
        # perturbing along the nullspace cannot shrink the norm
        _, _, vt = np.linalg.svd(A)
        null = vt[np.linalg.matrix_rank(A, tol=1e-9):]
        rng = np.random.default_rng(1)
        for _ in range(10):
            n = null.T @ rng.normal(size=null.shape[0])
            assert np.linalg.norm(u) <= np.linalg.norm(u + n) + 1e-12


class TestTruncate:
    def test_inside_box_untouched(self):
        u, sat = truncate_input(np.full(4, 0.5), 1.0)
        assert not sat and np.allclose(u, 0.5)

    def test_clamps_and_flags(self):
        u, sat = truncate_input(np.array([1.2, -0.1, 0.5, 0.5]), 1.0)
        assert sat
        assert np.allclose(u, [1.0, 0.0, 0.5, 0.5])

    def test_boundary_values_are_legal(self):
        u, sat = truncate_input(np.array([1.0, 0.0, 1.0, 0.0]), 1.0)
        assert not sat and np.allclose(u, [1.0, 0.0, 1.0, 0.0])


class TestTaskTrace:
    def test_zero_task(self):
        A = module_matrix()
        report = evaluate_task_trace(A, np.zeros((1, 6)), 1.0)
        assert report.max_error == pytest.approx(0.0, abs=1e-12)
        assert not report.any_saturated

    def test_huge_wrench_saturates(self):
        A = module_matrix(eta=np.pi / 4)
        report = evaluate_task_trace(A, np.array([[0, 0, 100.0, 0, 0, 0]]), 1.0)
        row = report.rows[0]
        assert row.saturated
        assert row.achieved[2] == pytest.approx(2 * SQRT2, abs=1e-9)
        assert report.any_saturated

    def test_achieved_is_matrix_times_input(self):
        A = module_matrix(cells={(0, 0), (0, 1)})
        task = generate_random_task(5, seed=3)
        for row in evaluate_task_trace(A, task, 1.0).rows:
            assert np.allclose(row.achieved, A @ row.input, atol=1e-14)
            assert np.all(row.input >= 0) and np.all(row.input <= 1.0)

    def test_uniform_full_thrust_wrench_exact(self):
        A = module_matrix(cells={(0, 0), (1, 0)})
        w = A @ np.full(8, 1.0)
        report = evaluate_task_trace(A, w[None, :], 1.0)
        assert report.max_error < 1e-9
        assert not report.any_saturated

    def test_infeasible_wrench_shows_saturation_or_error(self):
        A = module_matrix()
        rng = np.random.default_rng(12)
        found = 0
        for _ in range(30):
            w = rng.normal(size=6) * 2
            if not satisfies_wrench(A, w, 1.0):
                found += 1
                row = evaluate_task_trace(A, w[None, :], 1.0).rows[0]
                assert row.saturated or row.error > 1e-9
        assert found > 5

    def test_fallback_gives_in_box_exact_inputs_for_feasible_wrenches(self):
        A = module_matrix(cells={(0, 0), (1, 0)})
        rng = np.random.default_rng(4)
        task = np.array([A @ rng.uniform(0, 1, size=8) for _ in range(10)])
        report = evaluate_task_trace(A, task, 1.0, fallback=True)
        assert report.max_error <= 1e-6
        assert not report.any_saturated


def vertex_probes(A, count=4, seed=3):
    """Wrenches around the f_max = 1 wrench set of A, and where the pushed vertices are.

    Per unit normal n in range(A): the vertex A [n . A > 0], that vertex
    pushed 2e-9 * max|a_i| outward along n, the wrench along n 0.5e-9 *
    max|a_i| beyond the capacity lambda* there (inside the boundary band),
    and 1.05 times the vertex; then four images of interior
    thrusts and the zero wrench.  Returns (rows, pushed, banded), the last
    two being row indices.
    """
    rng = np.random.default_rng(seed)
    Q = np.linalg.svd(A, full_matrices=False)[0][:, :np.linalg.matrix_rank(A)]
    push = 2e-9 * np.linalg.norm(A, axis=0).max()
    rows, pushed, banded = [], [], []
    for _ in range(count):
        n = Q @ (Q.T @ rng.normal(size=6))
        n /= np.linalg.norm(n)
        vertex = A @ (n @ A > 0)
        pushed.append(len(rows) + 1)
        banded.append(len(rows) + 2)
        beyond = (max_lambda(A, n, 1.0)[0] + 0.25 * push) * n
        rows += [vertex, vertex + push * n, beyond, 1.05 * vertex]
    rows += [A @ rng.uniform(0.05, 0.95, A.shape[1]) for _ in range(4)] + [np.zeros(6)]
    return np.array(rows), pushed, banded


class TestFallback:
    @pytest.mark.parametrize("cells", [{(0, 0)}, BAR3, L_TROMINO], ids=["module", "bar", "L"])
    def test_rows_follow_task_verdicts(self, cells):
        # A row is reproduced in the box exactly when the capacity check
        # accepts it, to round-off beyond its shortfall |w| - lambda*, which
        # the boundary band bounds; a rejected row misses by more than the
        # allocate command's bound.  The vertices pushed out by 2e-9 are
        # rejected, those pushed out by 0.5e-9 accepted, and the same rows
        # pass at every joint scale.
        A = module_matrix(cells)
        task, pushed, banded = vertex_probes(A)
        outcomes = []
        for k in (2.0 ** -3, 1.0, 2.0 ** 3):
            scale = k * np.linalg.norm(A, axis=0).max()
            verdicts, lam, _ = task_capacity(A, k * task, k)
            report = evaluate_task_trace(A, k * task, k, fallback=True)
            for row, ok, lam_i in zip(report.rows, verdicts, lam):
                assert np.all(row.input >= 0.0) and np.all(row.input <= k)
                if ok:
                    shortfall = max(0.0, np.linalg.norm(row.desired) - lam_i)
                    assert shortfall <= BOUNDARY_TOL * scale
                    assert not row.saturated and row.error <= shortfall + 1e-12 * scale
                else:
                    assert row.saturated or row.error > 1e-6 * scale
            assert not verdicts[pushed].any() and verdicts[banded].all()
            outcomes.append((verdicts.tolist(), [row.saturated for row in report.rows]))
        assert outcomes[0] == outcomes[1] == outcomes[2]

    @pytest.mark.parametrize("f_max", [1e-6, 1.0, 1e6])
    @pytest.mark.parametrize("cells", [{(0, 0), (1, 0)}, L_TROMINO], ids=["1x2", "L"])
    def test_in_box_wrenches_read_unsaturated_at_every_scale(self, cells, f_max):
        # Images of thrusts with many components on a bound.  The capacity
        # solve puts such a component on the bound up to round-off, which
        # grows with f_max, so the saturation band must grow with it.
        A = module_matrix(cells, f_max=f_max)
        rng = np.random.default_rng(0)
        U = f_max * np.clip(rng.uniform(-0.3, 1.3, size=(200, A.shape[1])), 0.0, 1.0)
        report = evaluate_task_trace(A, U @ A.T, f_max, fallback=True)
        assert not report.any_saturated
        assert report.max_error <= 1e-12 * f_max * np.linalg.norm(A, axis=0).max()

    def test_rows_the_batched_solve_stalls_on(self):
        # Three vertices of the L pushed 1e-8 outward, on which the batched
        # solve hits its iteration limit, beside an interior wrench.  The
        # fallback solves the rows alone and rejects the pushed ones; the
        # interior one is still reproduced.
        A = module_matrix(L_TROMINO)
        N = np.random.default_rng(0).normal(size=(100, 6))
        N /= np.linalg.norm(N, axis=1)[:, None]
        task = np.array([A @ (n @ A > 0) + 1e-8 * n for n in N[[3, 45, 67]]]
                        + [A @ np.full(12, 0.5)])
        with pytest.raises(SolverError):
            task_capacity(A, task, 1.0)
        report = evaluate_task_trace(A, task, 1.0, fallback=True)
        scale = np.linalg.norm(A, axis=0).max()
        for row in report.rows[:3]:
            assert row.saturated or row.error > 1e-6 * scale
        assert not report.rows[3].saturated and report.rows[3].error <= 1e-12 * scale


class TestRandomTask:
    def test_shapes_and_ranges(self):
        task = generate_random_task(80, half_range=0.5, fz_scale=30.0, seed=0)
        assert task.shape == (80, 6)
        others = np.delete(task, 2, axis=1)
        assert np.all(np.abs(others) < 0.5)
        assert np.all(np.abs(task[:, 2]) < 15.0)
        assert np.abs(task[:, 2]).max() > 0.5  # scaling actually applied

    def test_unit_scale_keeps_range(self):
        task = generate_random_task(50, half_range=0.5, fz_scale=1.0, seed=1)
        assert np.all(np.abs(task) < 0.5)

    def test_seed_determinism(self):
        a = generate_random_task(20, seed=7)
        b = generate_random_task(20, seed=7)
        assert np.array_equal(a, b)
        c = generate_random_task(20, seed=8)
        assert not np.array_equal(a, c)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            generate_random_task(0)
        with pytest.raises(ValueError):
            generate_random_task(5, half_range=0.0)
