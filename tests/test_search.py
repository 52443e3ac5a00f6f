import dataclasses
import hashlib
import math

import numpy as np
import pytest

from modwrench import hull, lp, search
from modwrench.allocation import generate_random_task
from modwrench.hull import satisfies_task_hull
from modwrench.search import (
    AsymmetricSeedError,
    SearchOptions,
    exhaustive_search,
    expand_one,
    force_module_bound,
    generate_config_symmetry,
    heuristic_search,
    is_centrosymmetric,
)
from modwrench.structures import (
    DIRECTIONS,
    ModuleParams,
    StructureConfig,
    attachable_surfaces,
    canonical_form,
    center_of_mass,
    configuration_matrix,
    is_torque_balanced,
)

from brute_force import enumerate_binary_images

SQRT2 = np.sqrt(2.0)
L_TROMINO = {(0, 0), (1, 0), (0, 1)}


def make_config(cells, **params):
    return StructureConfig(frozenset(cells), ModuleParams(**params))


def z_task(fz):
    return np.array([[0.0, 0.0, fz, 0.0, 0.0, 0.0]])


def dedup_oracle(config):
    """Reference child count: grow on every surface, quotient by translation."""
    keys = set()
    for (ix, iy), name in attachable_surfaces(config):
        dx, dy = dict(DIRECTIONS)[name]
        keys.add(canonical_form(config.cells | {(ix + dx, iy + dy)}))
    return keys


class TestExpandOne:
    def test_single_module_children(self):
        cfg = make_config({(0, 0)})
        oracle = dedup_oracle(cfg)
        children = expand_one(cfg)
        assert len(children) == len(oracle) == 2
        assert {c.canonical() for c in children} == oracle

    def test_domino_children(self):
        cfg = make_config({(0, 0), (1, 0)})
        oracle = dedup_oracle(cfg)
        children = expand_one(cfg)
        assert len(attachable_surfaces(cfg)) == 6
        assert len(children) == len(oracle) == 5
        assert {c.canonical() for c in children} == oracle

    def test_ring_includes_hole_filling_child(self):
        ring = {(x, y) for x in range(3) for y in range(3)} - {(1, 1)}
        cfg = make_config(ring)
        filled = canonical_form(ring | {(1, 1)})
        assert filled in {c.canonical() for c in expand_one(cfg)}

    def test_children_sorted_by_canonical_form(self):
        children = expand_one(make_config({(0, 0), (1, 0)}))
        keys = [c.canonical() for c in children]
        assert keys == sorted(keys)


class TestExhaustive:
    def test_zero_task_returns_initial(self):
        cfg = make_config({(0, 0)})
        res = exhaustive_search(cfg, z_task(0.0), SearchOptions(n_max=3))
        assert res.satisfied
        assert res.modules_total == 1
        assert res.evaluations == 1
        assert np.allclose(res.com_shift, 0.0)

    def test_needs_two_modules(self):
        # single module tops out at 2*sqrt(2) < 3; two reach 4*sqrt(2)
        cfg = make_config({(0, 0)})
        res = exhaustive_search(cfg, z_task(3.0), SearchOptions(n_max=3))
        assert res.satisfied
        assert res.modules_total == 2

    def test_unreachable_task_reports_failure(self):
        cfg = make_config({(0, 0)})
        res = exhaustive_search(cfg, z_task(1000.0), SearchOptions(n_max=2))
        assert not res.satisfied
        assert res.modules_total == 1
        assert res.evaluations > 0

    def test_module_counts_match_capacity_oracle(self):
        # capacity of m torque-balanced modules along +z is m * 4 * f_max * cos(eta)
        cfg = make_config({(0, 0)})
        from modwrench.lp import max_force_zero_torque
        caps = {}
        for m in range(1, 5):
            bar = make_config({(i, 0) for i in range(m)})
            caps[m] = max_force_zero_torque(configuration_matrix(bar), np.array([0, 0, 1.0]), 1.0)
        for fz in (1.0, 2.5, 4.0, 7.0, 10.0):
            want = next(m for m in sorted(caps) if caps[m] >= fz - 1e-9)
            res = exhaustive_search(cfg, z_task(fz), SearchOptions(n_max=4))
            assert res.satisfied and res.modules_total == want

    def test_every_checked_design_connected_and_balanced(self):
        cfg = make_config({(0, 0)})
        res = exhaustive_search(cfg, z_task(5.0), SearchOptions(n_max=3))
        assert res.satisfied
        assert is_torque_balanced(configuration_matrix(res.config), 1e-10)


class TestSymmetryGenerator:
    def test_single_module_level_one_is_two_bars(self):
        levels = generate_config_symmetry(make_config({(0, 0)}), 1)
        forms = {c.canonical() for c in levels[0]}
        assert forms == {
            canonical_form({(0, 0), (1, 0), (2, 0)}),
            canonical_form({(0, 0), (0, 1), (0, 2)}),
        }

    def test_bar_grows_to_longer_bar(self):
        bar = make_config({(-1, 0), (0, 0), (1, 0)})
        levels = generate_config_symmetry(bar, 1)
        forms = {c.canonical() for c in levels[0]}
        assert canonical_form({(i, 0) for i in range(5)}) in forms

    def test_com_preserved_and_symmetric(self):
        seed = make_config({(0, 0)})
        com0 = center_of_mass(seed)
        for level in generate_config_symmetry(seed, 3):
            for cfg in level:
                assert np.allclose(center_of_mass(cfg), com0, atol=1e-12)
                assert is_centrosymmetric(cfg)

    def test_module_counts_grow_by_two(self):
        levels = generate_config_symmetry(make_config({(0, 0)}), 3)
        for k, level in enumerate(levels, start=1):
            assert all(c.n_modules == 1 + 2 * k for c in level)

    def test_all_emitted_designs_torque_balanced(self):
        for level in generate_config_symmetry(make_config({(0, 0)}), 3):
            for cfg in level:
                assert is_torque_balanced(configuration_matrix(cfg), 1e-10)

    def test_asymmetric_seed_rejected(self):
        lshape = make_config({(0, 0), (1, 0), (0, 1)})
        with pytest.raises(AsymmetricSeedError):
            generate_config_symmetry(lshape, 1)

    def test_ring_never_fills_its_center(self):
        # The free centre (1, 1) is its own mirror, so no pair can add it.
        ring = make_config({(x, y) for x in range(3) for y in range(3)} - {(1, 1)})
        com0 = center_of_mass(ring)
        levels = generate_config_symmetry(ring, 2)
        assert [len(level) for level in levels] == [6, 25]
        for k, level in enumerate(levels, start=1):
            for cfg in level:
                assert cfg.n_modules == 8 + 2 * k
                assert (1, 1) not in cfg.cells
                assert is_centrosymmetric(cfg)
                assert np.allclose(center_of_mass(cfg), com0, atol=1e-12)


def grown_levels(seed, count, center=None):
    """The first `count` levels grown from a seed cell set, as sorted cell tuples."""
    level, levels = [tuple(sorted(seed))], []
    for _ in range(count):
        level = search._grow(level, center)
        levels.append(level)
    return levels


def level_digest(levels):
    return hashlib.sha256(repr(levels).encode()).hexdigest()


class TestGrowth:
    # The representatives set the result bytes, and the golden files cover
    # only the default experiment.  The digests hash the absolute cells of
    # every representative of every level, as the two growth loops that
    # `_grow` replaced produced them.

    def test_level_sizes_count_fixed_polyominoes(self):
        # OEIS A001168: fixed polyominoes of n cells, n = 1 .. 8.
        sizes = [1] + [len(level) for level in grown_levels({(0, 0)}, 7)]
        assert sizes == [1, 2, 6, 19, 63, 216, 760, 2725]

    @pytest.mark.parametrize("seed, digest", [
        ({(0, 0)}, "0490f4511b99611b3a34952b698395ee9c9f9710d64c9ae7576b476a2f68c2a8"),
        (L_TROMINO, "f2dbda97b5df24daf431bf827e8138d2bf91f97cc2cd7d609be402e4e2ffb81f"),
        ({(5, 7), (5, 8)}, "c7b5dedabd6d39f5e7f5798dd16f966e56f52e72f854a04dbd4abac23b7d255e"),
    ])
    def test_exhaustive_levels_pinned(self, seed, digest):
        assert level_digest(grown_levels(seed, 6)) == digest

    @pytest.mark.parametrize("seed, digest", [
        ({(0, 0)}, "6a3360ef4080724db2377fe1b8bc6d8f1975c9df10412a7c4d39e63de961b367"),
        ({(0, 0), (1, 0), (2, 0)}, "ea9f9d7fbbecf28749ea687052457a90a1e8464d533828f4edcbac6a884670d7"),
        ({(0, 0), (1, 0), (0, 1), (1, 1)}, "da7363da24dd4637504fc074b27b3bc3f5527a557bfb6af12bde2d054e8f0d6d"),
        ({(0, 0), (1, 0)}, "894696473f34f7045a878f4147f9bc4826afb3872b4848f09b916aaaae077f5e"),
        ({(3, -2)}, "bbb9f6db99d005c0f9a099bb752459645089dc96178fff265310c57d674e00b1"),
    ])
    def test_symmetric_levels_pinned(self, seed, digest):
        levels = generate_config_symmetry(make_config(seed), 5)
        assert level_digest([[tuple(c.sorted_cells()) for c in level] for level in levels]) == digest

    def test_oversized_level_raises_on_both_searches(self, monkeypatch):
        # The upward-only rotors cannot push down, so every level is skipped
        # and grown.  Cells per level: 63 x 5 = 315, then 216 x 6 = 1,296;
        # symmetric 86 x 9 = 774, then 316 x 11 = 3,476.  A 40-cell bar
        # grows 81 designs of 41 cells, 3,321 cells, in one level.
        monkeypatch.setattr(search, "MAX_LEVEL_CELLS", 1000)
        seed, task = make_config({(0, 0)}), z_task(-1.0)
        assert exhaustive_search(seed, task, SearchOptions(n_max=4)).evaluations == 91
        with pytest.raises(hull.CapacityError):
            exhaustive_search(seed, task, SearchOptions(n_max=5))
        assert heuristic_search(seed, task, SearchOptions(n_max=9)).evaluations == 120
        with pytest.raises(hull.CapacityError):
            heuristic_search(seed, task, SearchOptions(n_max=10))
        with pytest.raises(hull.CapacityError):
            exhaustive_search(make_config({(x, 0) for x in range(40)}), task, SearchOptions(n_max=1))

    def test_levels_past_the_answer_are_not_grown(self, monkeypatch):
        # Both answers lie within one level; the next levels, 6 x 3 and
        # 7 x 5 cells, would pass the limit.
        monkeypatch.setattr(search, "MAX_LEVEL_CELLS", 10)
        seed = make_config({(0, 0)})
        assert exhaustive_search(seed, z_task(3.0), SearchOptions(n_max=8)).modules_total == 2
        assert heuristic_search(seed, z_task(3.0), SearchOptions(n_max=8)).modules_total == 3


class TestHeuristic:
    def test_zero_task_one_evaluation(self):
        res = heuristic_search(make_config({(0, 0)}), z_task(0.0), SearchOptions(n_max=4))
        assert res.satisfied and res.evaluations == 1 and res.modules_total == 1

    def test_needs_three_modules(self):
        res = heuristic_search(make_config({(0, 0)}), z_task(3.0), SearchOptions(n_max=6))
        assert res.satisfied
        assert res.modules_total == 3
        assert np.allclose(res.com_shift, 0.0, atol=1e-12)

    def test_com_shift_always_zero(self):
        for fz in (0.0, 2.0, 5.0, 8.0):
            res = heuristic_search(make_config({(0, 0)}), z_task(fz),
                                   SearchOptions(n_max=6))
            assert np.allclose(res.com_shift, 0.0, atol=1e-12)

    def test_asymmetric_seed_rejected(self):
        lshape = make_config({(0, 0), (1, 0), (0, 1)})
        with pytest.raises(AsymmetricSeedError):
            heuristic_search(lshape, z_task(1.0), SearchOptions(n_max=2))

    def test_budget_respected(self):
        res = heuristic_search(make_config({(0, 0)}), z_task(1000.0),
                               SearchOptions(n_max=4))
        assert not res.satisfied


class TestCrossMethod:
    def test_exhaustive_never_needs_more_modules(self):
        rng = np.random.default_rng(31)
        seed = make_config({(0, 0)})
        for _ in range(6):
            task = np.zeros((2, 6))
            task[0, 2] = rng.uniform(0.5, 7.0)
            task[1, :2] = rng.uniform(-0.4, 0.4, size=2)
            task[1, 2] = rng.uniform(0.5, 4.0)
            exh = exhaustive_search(seed, task, SearchOptions(n_max=3))
            heu = heuristic_search(seed, task, SearchOptions(n_max=6))
            if exh.satisfied and heu.satisfied:
                assert exh.modules_total <= heu.modules_total

    def test_checkers_agree(self):
        seed = make_config({(0, 0)})
        task = z_task(3.0)
        lp_res = exhaustive_search(seed, task, SearchOptions(n_max=2, checker="lp"))
        hull_res = exhaustive_search(seed, task, SearchOptions(n_max=2, checker="hull"))
        assert lp_res.satisfied == hull_res.satisfied
        assert lp_res.modules_total == hull_res.modules_total
        assert lp_res.config.cells == hull_res.config.cells

    def test_determinism(self):
        seed = make_config({(0, 0)})
        task = z_task(4.2)
        a = exhaustive_search(seed, task, SearchOptions(n_max=3))
        b = exhaustive_search(seed, task, SearchOptions(n_max=3))
        assert a.config.cells == b.config.cells
        assert a.evaluations == b.evaluations
        ha = heuristic_search(seed, task, SearchOptions(n_max=6))
        hb = heuristic_search(seed, task, SearchOptions(n_max=6))
        assert ha.config.cells == hb.config.cells
        assert ha.evaluations == hb.evaluations


class TestOptions:
    def test_invalid_options(self):
        with pytest.raises(ValueError):
            SearchOptions(n_max=-1)
        with pytest.raises(ValueError):
            SearchOptions(checker="oracle")

    def test_method_is_not_an_option(self):
        # The function called picks the method; an option could only disagree.
        with pytest.raises(TypeError):
            exhaustive_search(make_config({(0, 0)}), z_task(0.0), SearchOptions(method="heuristic"))


def vertical_capacity(eta=np.pi / 4, f_max=1.0):
    """Largest vertical force of one module (criterion 3's analytic value)."""
    return 4.0 * f_max * np.cos(eta)


def ladder_tasks(n_max, seed=0):
    """One vertical wrench per step c = 1 .. n_max + 2, strictly inside ((c-1) cap, c cap)."""
    rng = np.random.default_rng(seed)
    return [z_task(vertical_capacity() * (c - 1 + rng.uniform(0.05, 0.95)))
            for c in range(1, n_max + 3)]


def random_tasks(count, seed):
    """Small tasks with lift of a few modules plus modest lateral force and torque."""
    rng = np.random.default_rng(seed)
    tasks = []
    for _ in range(count):
        task = rng.uniform(-1.0, 1.0, size=(4, 6)) * [0.5, 0.5, 0.0, 0.05, 0.05, 0.05]
        task[:, 2] = rng.uniform(0.5, 10.0, size=4)
        tasks.append(task)
    return tasks


def levels_up_to(n_modules):
    """Every fixed polyomino of at most n_modules cells, grouped by size."""
    levels = [[make_config({(0, 0)})]]
    while len(levels) < n_modules:
        children = {c.canonical(): c for cfg in levels[-1] for c in expand_one(cfg)}
        levels.append([children[k] for k in sorted(children)])
    return levels


def same_result(a, b):
    return (a.config == b.config and a.modules_total == b.modules_total
            and a.evaluations == b.evaluations and a.satisfied == b.satisfied
            and np.array_equal(a.com_shift, b.com_shift))


class TestForceBound:
    @pytest.mark.parametrize("eta", [np.pi / 4, 0.3, 0.0])
    @pytest.mark.parametrize("f_max", [1.0, 2.5e-3])
    def test_vertical_task_needs_analytic_count(self, eta, f_max):
        rng = np.random.default_rng(7)
        for fz in vertical_capacity(eta, f_max) * rng.uniform(0.05, 9.0, size=20):
            expected = math.ceil(fz / vertical_capacity(eta, f_max))
            assert math.ceil(force_module_bound(ModuleParams(eta=eta, f_max=f_max), z_task(fz))) == expected

    def test_default_experiment_task_needs_six(self):
        task = generate_random_task(80, half_range=0.5, fz_scale=30.0, seed=55539)
        task[:, 2] = np.abs(task[:, 2])
        assert math.ceil(force_module_bound(ModuleParams(), task)) == 6

    def test_unreachable_forces_are_infinite(self):
        assert force_module_bound(ModuleParams(), z_task(-1.0)) == np.inf
        sideways = np.array([[0.5, 0.0, 3.0, 0.0, 0.0, 0.0]])
        assert force_module_bound(ModuleParams(eta=0.0), sideways) == np.inf
        assert force_module_bound(ModuleParams(eta=0.0), z_task(3.0)) == pytest.approx(0.75)

    def test_zero_task_needs_nothing(self):
        assert force_module_bound(ModuleParams(), np.zeros((2, 6))) == 0.0

    def test_designs_below_the_bound_fail_both_checkers(self):
        # Random tasks, plus forces 1e-6 beyond n Z(F1) at each vertex of
        # Z(F1), where the bound is tight.
        levels = levels_up_to(4)
        F1 = configuration_matrix(levels[0][0])[:3]
        tasks = random_tasks(4, seed=5)
        for n in (1, 2, 3):
            task = np.zeros((16, 6))
            task[:, :3] = n * (1 + 1e-6) * enumerate_binary_images(F1, 1.0)
            tasks += [task[i:i + 1] for i in (1, 5, 10, 15)]
        skipped = 0
        for task in tasks:
            bound = force_module_bound(ModuleParams(), task)
            for level in levels:
                if level[0].n_modules >= bound:
                    break
                for cfg in level:
                    A = configuration_matrix(cfg)
                    assert not lp.satisfies_task(A, task, 1.0)[0]
                    assert not satisfies_task_hull(A, task, 1.0)
                    skipped += 1
        assert skipped > 4 * (1 + 3 + 9)  # the tight tasks alone skip 52 designs


def run_both(tasks, checker, n_max=3):
    """Exhaustive search with budget n_max and heuristic search with n_max + 1, per task."""
    seed = make_config({(0, 0)})
    return [(exhaustive_search(seed, t, SearchOptions(n_max=n_max, checker=checker)),
             heuristic_search(seed, t, SearchOptions(n_max=n_max + 1, checker=checker)))
            for t in tasks]


class TestSearchWithForceBound:

    @pytest.mark.parametrize("checker", ["lp", "hull"])
    def test_results_equal_checking_every_design(self, checker, monkeypatch):
        # The last ladder step needs 5 modules, beyond both budgets; the
        # hull route leaves it out to keep its 28 builds off the clock.
        tasks = ladder_tasks(3) + random_tasks(3, seed=11)
        if checker == "hull":
            tasks = tasks[:3] + tasks[-1:]
        bounded = run_both(tasks, checker)
        monkeypatch.setattr(search, "force_module_bound", lambda *args, **kwargs: 0.0)
        unbounded = run_both(tasks, checker)
        for (ea, ha), (eb, hb) in zip(bounded, unbounded):
            assert same_result(ea, eb) and same_result(ha, hb)

    def test_unsatisfiable_step_runs_no_lp(self, monkeypatch):
        # Both tasks go through separating_normal, the one-wrench task on the
        # scalar solve and the longer one batched; neither may run on a
        # skipped level.
        calls = []
        for name in ("max_lambda", "max_lambda_many", "separating_normal"):
            solve = getattr(lp, name)
            monkeypatch.setattr(lp, name,
                                lambda *a, solve=solve, **k: calls.append(1) or solve(*a, **k))
        seed = make_config({(0, 0)})
        symmetric = 1 + sum(len(level) for level in generate_config_symmetry(seed, 3))
        cap = vertical_capacity()
        for task in (z_task(7.5 * cap), np.vstack([z_task(7.5 * cap), z_task(0.5 * cap)])):
            res = exhaustive_search(seed, task, SearchOptions(n_max=6))
            assert not res.satisfied and res.evaluations == 1067
            res = heuristic_search(seed, task, SearchOptions(n_max=6))
            assert not res.satisfied and res.evaluations == symmetric
        assert calls == []


def capacity_along(A, f_max, rng):
    """Capacities lambda* of A along two random unit directions with lift; returns (lambda*, W)."""
    W = rng.uniform(-1.0, 1.0, size=(2, 6)) * [0.3, 0.3, 0.0, 0.02, 0.02, 0.02]
    W[:, 2] = 1.0
    W /= np.linalg.norm(W, axis=1, keepdims=True)
    lam, _ = lp.max_lambda_many(A, W, f_max)
    assert (lam > 0).all()
    return lam, W



def tight_tasks(f_max, seed):
    """Two-wrench tasks 1e-6 beyond the capacity of the L tromino and of the 2x2 block."""
    rng = np.random.default_rng(seed)
    tasks = []
    for cells in (L_TROMINO, {(0, 0), (1, 0), (0, 1), (1, 1)}):
        lam, W = capacity_along(configuration_matrix(make_config(cells, f_max=f_max)), f_max, rng)
        tasks.append((1 + 1e-6) * lam[:, None] * W)
    return tasks


def torque_task(torque, seed):
    """Four wrenches with lift of 2-9 N and lateral torques up to `torque`.

    Torques of 0.6 N m and more make many designs of a level fail, which is
    where the normal cache rejects designs.
    """
    rng = np.random.default_rng(seed)
    task = rng.uniform(-1.0, 1.0, size=(4, 6)) * [0.5, 0.5, 0.0, torque, torque, torque]
    task[:, 2] = rng.uniform(2.0, 9.0, size=4)
    return task


_UNIT_HULLS = {}
_construct_hull = hull.construct_hull


def scaled_hull(A, f_max):
    """construct_hull(A, f_max) from one build per matrix at f_max = 1.

    Only the offsets and the membership tolerance depend on f_max, as one
    product with it, so the result is the same bit for bit.
    """
    unit = _UNIT_HULLS.get(A.tobytes())
    if unit is None:
        unit = _UNIT_HULLS[A.tobytes()] = _construct_hull(A, 1.0)
    return dataclasses.replace(unit, f_max=float(f_max), offsets=f_max * unit.offsets,
                               tol=f_max * unit.tol)


class TestSeparatingNormalCache:
    @pytest.mark.parametrize("f_max", [1e-6, 1.0, 1e6])
    def test_cached_rejections_fail_both_routes(self, f_max, monkeypatch):
        # Every fixed polyomino of up to 4 cells goes through each checker
        # twice: the first sweep fills the cache, the second meets every
        # cached normal.  Matrices and hulls are built once per design.
        designs = [make_config(cfg.cells, f_max=f_max) for level in levels_up_to(4) for cfg in level]
        matrices = {cfg.cells: configuration_matrix(cfg) for cfg in designs}
        monkeypatch.setattr(search, "configuration_matrix", lambda cfg: matrices[cfg.cells])
        monkeypatch.setattr(hull, "construct_hull", scaled_hull)
        rejected = {}
        rejects = search._SeparatingNormals.rejects

        def spy(self, A, f, band):
            hit = rejects(self, A, f, band)
            if hit:
                rejected[A.tobytes()] = A
            return hit

        monkeypatch.setattr(search._SeparatingNormals, "rejects", spy)
        tasks = [f_max * torque_task(1.0, seed) for seed in (0, 2)] + tight_tasks(f_max, seed=23)
        from_other_designs = {}
        for task in tasks:
            rejected.clear()
            for checker in ("lp", "hull"):
                check = search._make_checker(task, checker)
                for cfg in designs:
                    check(cfg)
                from_other_designs[checker] = from_other_designs.get(checker, 0) + len(rejected)
                for cfg in designs:
                    check(cfg)
            assert rejected
            for A in rejected.values():
                assert not lp.satisfies_task(A, task, f_max)[0]
                assert not satisfies_task_hull(A, task, f_max)
        assert from_other_designs["lp"] > 0 and from_other_designs["hull"] > 0

    @pytest.mark.parametrize("checker", ["lp", "hull"])
    @pytest.mark.parametrize("f_max", [1e-6, 1.0, 1e6])
    def test_band_keeps_a_design_the_checker_accepts(self, checker, f_max, monkeypatch):
        # The task lies half the checker's tolerance beyond the L tromino's
        # wrench set, so the checker accepts the L.  A cached normal that
        # supports the L right there must not reject it.
        L = make_config(L_TROMINO, f_max=f_max)
        A = configuration_matrix(L)
        lam, W = capacity_along(A, f_max, np.random.default_rng(29))
        module, name = (lp, "separating_normal") if checker == "lp" else (hull, "separating_normal_hull")
        separate = getattr(module, name)
        tol = lp.BOUNDARY_TOL if checker == "lp" else hull.GEOMETRY_TOL
        tol *= f_max * np.linalg.norm(A, axis=0).max()
        task = (lam + 0.5 * tol)[:, None] * W
        assert separate(A, task, f_max) is None
        _, normal = separate(A, (1 + 1e-6) * task, f_max)
        check = search._make_checker(task, checker)
        monkeypatch.setattr(module, name, lambda *args: (0, normal))
        assert not check(make_config({(0, 0)}, f_max=f_max))  # caches the normal
        monkeypatch.setattr(module, name, separate)
        assert check(L)

    @pytest.mark.parametrize("checker", ["lp", "hull"])
    def test_results_equal_without_the_cache(self, checker, monkeypatch):
        # Each checker gets a satisfied and an unsatisfied exhaustive search
        # in which the cache rejects designs, then a one-wrench task on which
        # it rejects designs too.  The hull route stops at 3 modules, with 40%
        # less lift, to keep its builds off the clock.
        if checker == "lp":
            tasks, n_max = [torque_task(0.6, 2), torque_task(1.0, 2)], 3
        else:
            tasks, n_max = [torque_task(t, 3) * [1, 1, 0.6, 1, 1, 1] for t in (0.3, 1.0)], 2
        tasks.append(tasks[1][2:3])
        hits = []
        rejects = search._SeparatingNormals.rejects

        def spy(self, *args):
            hits.append(rejects(self, *args))
            return hits[-1]

        monkeypatch.setattr(search._SeparatingNormals, "rejects", spy)
        cached = run_both(tasks[:-1], checker, n_max)
        assert any(hits)
        hits.clear()
        cached += run_both(tasks[-1:], checker, n_max)
        assert any(hits)
        monkeypatch.setattr(search._SeparatingNormals, "add", lambda self, normal: None)
        uncached = run_both(tasks, checker, n_max)
        for (ea, ha), (eb, hb) in zip(cached, uncached):
            assert same_result(ea, eb) and same_result(ha, hb)
