import hashlib
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from modwrench import search
from modwrench.cli import main
from modwrench.fileio import read_hull_vertices, read_search_result, read_task, write_structure, write_task
from modwrench.structures import ModuleParams, StructureConfig, configuration_matrix

from brute_force import enumerate_binary_images, prune_redundant

SQRT2 = np.sqrt(2.0)


@pytest.fixture
def single_module_file(tmp_path):
    path = tmp_path / "single.txt"
    write_structure(path, StructureConfig(frozenset({(0, 0)})))
    return str(path)


@pytest.fixture
def flat_module_file(tmp_path):
    path = tmp_path / "flat.txt"
    write_structure(path, StructureConfig(frozenset({(0, 0)}), ModuleParams(eta=0.0)))
    return str(path)


def write_task_file(tmp_path, rows, name="task.txt"):
    path = tmp_path / name
    write_task(path, np.asarray(rows, dtype=float))
    return str(path)


def run_module(*args):
    """`python -m modwrench` with args, as a subprocess, so a traceback would show."""
    return subprocess.run([sys.executable, "-m", "modwrench", *args],
                          capture_output=True, text=True)


class TestMatrix:
    def test_flat_module_force_rows(self, flat_module_file, capsys):
        assert main(["matrix", flat_module_file]) == 0
        rows = [line.split() for line in capsys.readouterr().out.strip().splitlines()]
        A = np.array([[float(v) for v in row] for row in rows])
        assert A.shape == (6, 4)
        assert np.allclose(A[0, :], 0) and np.allclose(A[1, :], 0)
        assert np.allclose(A[2, :], 1)

    def test_malformed_number_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("eta = oops\nside_length = 0.4\narm_length = 0.14\n"
                        "c_tau = 0.01\nf_max = 1\ncells:\n0 0\n")
        assert main(["matrix", str(path)]) == 2
        assert "eta" in capsys.readouterr().err

    def test_non_utf8_file_exits_2(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"\xff\xfe")
        for args in (["matrix", str(path)], ["check", str(path), str(path)],
                     ["search", str(path), str(path)]):
            proc = run_module(*args)
            assert proc.returncode == 2
            assert "UTF-8" in proc.stderr and "Traceback" not in proc.stderr

    def test_disconnected_exits_3(self, tmp_path, capsys):
        path = tmp_path / "gap.txt"
        path.write_text("eta = pi/4\nside_length = 0.4\narm_length = 0.14\n"
                        "c_tau = 0.01\nf_max = 1\ncells:\n0 0\n2 0\n")
        assert main(["matrix", str(path)]) == 3
        assert "connected" in capsys.readouterr().err


class TestCheck:
    def test_zero_task_satisfied(self, single_module_file, tmp_path, capsys):
        task = write_task_file(tmp_path, [[0, 0, 0, 0, 0, 0]])
        assert main(["check", single_module_file, task]) == 0
        assert "SATISFIED" in capsys.readouterr().out

    def test_heavy_task_unsatisfied(self, single_module_file, tmp_path, capsys):
        task = write_task_file(tmp_path, [[0, 0, 3.0, 0, 0, 0]])
        assert main(["check", single_module_file, task]) == 1
        assert "UNSATISFIED" in capsys.readouterr().out

    def test_methods_agree(self, single_module_file, tmp_path, capsys):
        task = write_task_file(tmp_path, [[0, 0, 2.5, 0, 0, 0], [0.1, 0, 1.0, 0, 0, 0]])
        rc_lp = main(["check", single_module_file, task, "--method", "lp"])
        out_lp = capsys.readouterr().out
        rc_hull = main(["check", single_module_file, task, "--method", "hull"])
        out_hull = capsys.readouterr().out
        assert rc_lp == rc_hull
        assert out_lp == out_hull

    def test_parse_error_exits_2(self, single_module_file, tmp_path):
        bad = tmp_path / "bad_task.txt"
        bad.write_text("1 2 3\n")
        assert main(["check", single_module_file, str(bad)]) == 2

    def test_missing_task_file_exits_2(self, single_module_file, tmp_path):
        proc = run_module("check", single_module_file, str(tmp_path / "missing.txt"))
        assert proc.returncode == 2
        assert "missing.txt" in proc.stderr and "Traceback" not in proc.stderr


class TestSearch:
    def test_zero_task_echoes_initial(self, single_module_file, tmp_path, capsys):
        task = write_task_file(tmp_path, [[0, 0, 0, 0, 0, 0]])
        out = tmp_path / "res.txt"
        assert main(["search", single_module_file, task, "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "satisfied: yes" in stdout
        assert "evaluations: 1" in stdout
        meta, cfg = read_search_result(out)
        assert cfg.cells == frozenset({(0, 0)})

    def test_budget_zero_unsatisfiable_exits_1(self, single_module_file, tmp_path):
        task = write_task_file(tmp_path, [[0, 0, 3.0, 0, 0, 0]])
        assert main(["search", single_module_file, task, "--n-max", "0"]) == 1

    def test_negative_budget_exits_2(self, single_module_file, tmp_path):
        task = write_task_file(tmp_path, [[0, 0, 3.0, 0, 0, 0]])
        proc = run_module("search", single_module_file, task, "--n-max", "-1")
        assert proc.returncode == 2
        assert "--n-max" in proc.stderr and "Traceback" not in proc.stderr

    def test_missing_structure_file_exits_2(self, tmp_path):
        task = write_task_file(tmp_path, [[0, 0, 3.0, 0, 0, 0]])
        proc = run_module("search", str(tmp_path / "missing.txt"), task)
        assert proc.returncode == 2
        assert "missing.txt" in proc.stderr and "Traceback" not in proc.stderr

    def test_level_limit_exits_5(self, single_module_file, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(search, "MAX_LEVEL_CELLS", 100)
        task = write_task_file(tmp_path, [[0, 0, -1.0, 0, 0, 0]])
        assert main(["search", single_module_file, task, "--n-max", "5"]) == 5
        assert "100 cells" in capsys.readouterr().err

    def test_heuristic_requires_symmetric_seed(self, tmp_path):
        seed = tmp_path / "l.txt"
        write_structure(seed, StructureConfig(frozenset({(0, 0), (1, 0), (0, 1)})))
        task = write_task_file(tmp_path, [[0, 0, 0, 0, 0, 0]])
        assert main(["search", str(seed), task, "--method", "heuristic"]) == 4

    def test_large_lattice_searches_as_it_checks(self, tmp_path, capsys):
        # A side of 1e6 leaves 6e-10 of round-off in the L's net torque;
        # the design is still a valid lattice structure, so search takes it.
        seed = tmp_path / "l_big.txt"
        write_structure(seed, StructureConfig(frozenset({(0, 0), (1, 0), (0, 1)}),
                                              ModuleParams(side_length=1e6)))
        task = write_task_file(tmp_path, [[0, 0, 2.0, 0, 0, 0]])
        assert main(["check", str(seed), task]) == 0
        capsys.readouterr()
        assert main(["search", str(seed), task, "--n-max", "0"]) == 0
        assert "modules: 3" in capsys.readouterr().out

    def test_result_round_trips(self, single_module_file, tmp_path):
        task = write_task_file(tmp_path, [[0, 0, 3.0, 0, 0, 0]])
        out = tmp_path / "res.txt"
        assert main(["search", single_module_file, task, "--out", str(out)]) == 0
        meta, cfg = read_search_result(out)
        assert meta["satisfied"] == "true"
        assert int(meta["modules_total"]) == len(cfg.cells) == 2

    def test_experiment_scale_run(self, single_module_file, tmp_path, capsys):
        # 80-wrench seeded task with upward-folded vertical force; both
        # methods must land inside the 7-added-modules budget
        from modwrench.allocation import generate_random_task
        raw = generate_random_task(80, half_range=0.5, fz_scale=30.0, seed=55539)
        raw[:, 2] = np.abs(raw[:, 2])
        task = write_task_file(tmp_path, raw, name="big.txt")
        out_e = tmp_path / "exh.txt"
        out_h = tmp_path / "heu.txt"
        assert main(["search", single_module_file, task, "--method", "exhaustive",
                     "--n-max", "7", "--out", str(out_e)]) == 0
        capsys.readouterr()
        assert main(["search", single_module_file, task, "--method", "heuristic",
                     "--n-max", "7", "--out", str(out_h)]) == 0
        assert "com_shift: 0 0 0" in capsys.readouterr().out
        meta_e, _ = read_search_result(out_e)
        meta_h, _ = read_search_result(out_h)
        assert int(meta_e["modules_total"]) <= int(meta_h["modules_total"])


class TestHull:
    def test_single_module_vertex_count_matches_oracle(self, single_module_file, tmp_path):
        out = tmp_path / "h.txt"
        assert main(["hull", single_module_file, "--out", str(out)]) == 0
        vertices = read_hull_vertices(out)
        cfg = StructureConfig(frozenset({(0, 0)}))
        A = configuration_matrix(cfg)
        oracle = prune_redundant(enumerate_binary_images(A, 1.0))
        assert vertices.shape == oracle.vertices.shape
        assert np.array_equal(vertices, oracle.vertices)

    @pytest.mark.parametrize("cells, vertices", [
        ({(0, 0), (1, 0), (0, 1), (1, 1)}, 6420),
        ({(i, 0) for i in range(5)}, 3472),
    ])
    def test_largest_structures_export(self, cells, vertices, tmp_path, capsys):
        # the 2x2 block and the 20-column 1x5 bar, the hull export limit
        path = tmp_path / "s.txt"
        write_structure(path, StructureConfig(frozenset(cells)))
        out = tmp_path / "h.txt"
        assert main(["hull", str(path), "--out", str(out)]) == 0
        assert capsys.readouterr().out.startswith(f"{vertices} vertices")
        assert read_hull_vertices(out).shape == (vertices, 6)

    @pytest.mark.parametrize("cells, digest", [
        ({(0, 0), (1, 0), (0, 1), (1, 1)}, "7edfff4dd9e999da0b87d920b73374c79b558355b8cf444644396ea81babd569"),
        ({(i, 0) for i in range(5)}, "ea6870079f1d783da8b7891e0ee985719f575c9bc50a68585ae843a8770f4f7e"),
        ({(0, 0), (1, 0), (0, 1)}, "d1586b4b56fddb5563d65302643431fb9d1e23d401da51a5309db473c61b2958"),
    ], ids=["2x2", "1x5", "L3"])
    def test_export_bytes_pinned(self, cells, digest, tmp_path):
        # The vertex set and its formatting, with default ModuleParams: a
        # change to the vertex derivation must not move a single byte.
        path = tmp_path / "s.txt"
        write_structure(path, StructureConfig(frozenset(cells)))
        out = tmp_path / "h.txt"
        assert main(["hull", str(path), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_capacity_exceeded_exits_5(self, tmp_path, capsys):
        big = tmp_path / "big.txt"
        write_structure(big, StructureConfig(frozenset((i, 0) for i in range(6))))
        assert main(["hull", str(big), "--out", str(tmp_path / "h.txt")]) == 5
        assert "limit" in capsys.readouterr().err


class TestGenTask:
    def test_defaults_ranges(self, tmp_path):
        out = tmp_path / "t.txt"
        assert main(["gen-task", "--seed", "1", "--out", str(out)]) == 0
        task = read_task(out)
        assert task.shape == (80, 6)
        assert np.all(np.abs(task[:, 2]) < 15.0)
        assert np.all(np.abs(np.delete(task, 2, axis=1)) < 0.5)

    def test_same_seed_byte_identical(self, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        main(["gen-task", "--seed", "9", "--out", str(a)])
        main(["gen-task", "--seed", "9", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_count_one(self, tmp_path):
        out = tmp_path / "t.txt"
        assert main(["gen-task", "--count", "1", "--seed", "0", "--out", str(out)]) == 0
        assert read_task(out).shape == (1, 6)

    def test_unwritable_output_exits_2(self, tmp_path):
        out = tmp_path / "none" / "t.txt"
        proc = run_module("gen-task", "--out", str(out))
        assert proc.returncode == 2
        assert "none" in proc.stderr and "Traceback" not in proc.stderr
        assert not out.parent.exists()

    @pytest.mark.parametrize("option, value", [("--count", "0"), ("--count", "-2"),
                                               ("--half-range", "-1"), ("--half-range", "inf"),
                                               ("--fz-scale", "nan"), ("--fz-scale", "inf")])
    def test_invalid_value_exits_2(self, option, value, tmp_path):
        out = tmp_path / "t.txt"
        proc = run_module("gen-task", option, value, "--out", str(out))
        assert proc.returncode == 2
        assert option in proc.stderr and "Traceback" not in proc.stderr
        assert not out.exists()


class TestAllocate:
    def test_zero_task_ok(self, single_module_file, tmp_path):
        task = write_task_file(tmp_path, [[0, 0, 0, 0, 0, 0]])
        assert main(["allocate", single_module_file, task]) == 0

    def test_infeasible_wrench_flags_saturation(self, single_module_file, tmp_path, capsys):
        task = write_task_file(tmp_path, [[0, 0, 100.0, 0, 0, 0]])
        assert main(["allocate", single_module_file, task]) == 1
        assert "saturated: yes" in capsys.readouterr().out

    def test_fallback_on_feasible_wrenches(self, tmp_path):
        cfg = StructureConfig(frozenset({(0, 0), (1, 0)}))
        sf = tmp_path / "two.txt"
        write_structure(sf, cfg)
        A = configuration_matrix(cfg)
        rng = np.random.default_rng(3)
        task = write_task_file(tmp_path, [A @ rng.uniform(0, 1, 8) for _ in range(5)])
        assert main(["allocate", str(sf), task, "--fallback"]) == 0

    @pytest.mark.parametrize("rows", [1, 2], ids=["alone", "batched"])
    def test_fallback_agrees_with_check_near_a_vertex(self, rows, tmp_path):
        # A vertex of the L pushed 2e-9 outward, alone (the scalar solve) or
        # beside an interior wrench (the batched one): check rejects it, so
        # the fallback must not reproduce it either.
        cfg = StructureConfig(frozenset({(0, 0), (1, 0), (0, 1)}))
        sf = tmp_path / "l.txt"
        write_structure(sf, cfg)
        A = configuration_matrix(cfg)
        n = np.random.default_rng(3).normal(size=6)
        n /= np.linalg.norm(n)
        task = write_task_file(tmp_path, [A @ (n @ A > 0) + 2e-9 * n, A @ np.full(12, 0.5)][:rows])
        assert main(["check", str(sf), task]) == 1
        assert main(["allocate", str(sf), task, "--fallback"]) == 1

    def test_fallback_answers_rows_the_batched_solve_stalls_on(self, tmp_path):
        # Vertices of the L pushed 1e-8 outward, on which the batched solve
        # hits its iteration limit: the report still covers every row.
        cfg = StructureConfig(frozenset({(0, 0), (1, 0), (0, 1)}))
        sf = tmp_path / "l.txt"
        write_structure(sf, cfg)
        A = configuration_matrix(cfg)
        N = np.random.default_rng(0).normal(size=(100, 6))
        N /= np.linalg.norm(N, axis=1)[:, None]
        task = write_task_file(tmp_path, [A @ (n @ A > 0) + 1e-8 * n for n in N[[3, 45, 67]]])
        report = tmp_path / "report.txt"
        assert main(["allocate", str(sf), task, "--fallback", "--out", str(report)]) == 1
        assert len([line for line in report.read_text().splitlines()
                    if not line.startswith("#")]) == 3

    @pytest.mark.parametrize("wrench, fallback", [
        ([0, 0, 8.5, 0, 0, 0], True),     # three times the vertical capacity
        ([0.05, 0, 2, 0, 0, 0], False),   # off range(A), unsaturated
        ([0.05, 0, 2, 0, 0, 0], True),
    ])
    def test_scale_invariant_verdict(self, wrench, fallback, tmp_path):
        outcomes = []
        for k in (1e-9, 1.0):
            sf = tmp_path / f"one_{k}.txt"
            write_structure(sf, StructureConfig(frozenset({(0, 0)}), ModuleParams(f_max=k)))
            task = write_task_file(tmp_path, [np.array(wrench) * k], name=f"task_{k}.txt")
            report = tmp_path / f"report_{k}.txt"
            rc = main(["allocate", str(sf), task, "--out", str(report)] + ["--fallback"] * fallback)
            saturated = [line.split()[6] for line in report.read_text().splitlines()
                         if not line.startswith("#")]
            outcomes.append((rc, saturated))
        assert outcomes[0] == outcomes[1]
        assert outcomes[1][0] == 1


class TestSolverFailure:
    # A wrench just outside a vertex of the L tromino's wrench set, on which
    # the scalar simplex hits its iteration limit.
    STALL = ("0.5000000002138213 2.5000000005415326 3.5355339058659703 "
             "-0.2807190951319842 -0.1692809045037418 0.22525721507017643\n")

    def test_stalled_solve_exits_6(self, tmp_path, capsys):
        structure = tmp_path / "l.txt"
        write_structure(structure, StructureConfig(frozenset({(0, 0), (1, 0), (0, 1)})))
        task = tmp_path / "stall.txt"
        task.write_text(self.STALL)
        for command in ("check", "search"):
            assert main([command, str(structure), str(task)]) == 6
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error:") and "iteration limit" in err[0]
        # The fallback leaves the stalled row to the pseudoinverse, which saturates.
        assert main(["allocate", str(structure), str(task), "--fallback"]) == 1


class TestEntryPoint:
    def test_module_invocation(self, single_module_file):
        proc = subprocess.run([sys.executable, "-m", "modwrench", "matrix", single_module_file],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert len(proc.stdout.strip().splitlines()) == 6


GOLDEN = pathlib.Path(__file__).parent / "data"


class TestGoldenResults:
    """The default experiment's search output, pinned across versions.

    tests/data holds the result files and stdout of `search --n-max 7` from
    a single module on the seed-55539 task (f_z folded upward), with f_max
    and the task both scaled by k = 2^j.  The k = 1 files are also what
    scripts/run_task_search.py writes with its defaults.
    """

    @pytest.mark.parametrize("j", [-3, 0, 3])
    @pytest.mark.parametrize("method", ["exhaustive", "heuristic"])
    def test_search_bytes(self, method, j, tmp_path, capsys):
        from modwrench.allocation import generate_random_task
        k = 2.0 ** j
        task = generate_random_task(80, half_range=0.5, fz_scale=30.0, seed=55539)
        task[:, 2] = np.abs(task[:, 2])
        seed = tmp_path / "seed.txt"
        write_structure(seed, StructureConfig(frozenset({(0, 0)}), ModuleParams(f_max=k)))
        out = tmp_path / "result.txt"
        capsys.readouterr()
        assert main(["search", str(seed), write_task_file(tmp_path, k * task), "--method", method,
                     "--n-max", "7", "--out", str(out)]) == 0
        assert capsys.readouterr().out == (GOLDEN / f"stdout_{method}_k{j}.txt").read_text()
        assert out.read_bytes() == (GOLDEN / f"result_{method}_k{j}.txt").read_bytes()
