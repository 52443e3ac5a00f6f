import numpy as np
import pytest

from modwrench.allocation import evaluate_task_trace, generate_random_task
from modwrench.fileio import (
    ParseError,
    format_task,
    parse_angle,
    parse_structure,
    parse_task,
    read_hull_vertices,
    read_search_result,
    read_structure,
    read_task,
    write_hull,
    write_search_result,
    write_structure,
    write_task,
)
from modwrench.hull import construct_hull
from modwrench.search import SearchOptions, exhaustive_search
from modwrench.structures import ModuleParams, StructureConfig, configuration_matrix

from brute_force import prune_redundant

STRUCTURE_TEXT = """\
# comment line
eta = pi/4
side_length = 0.4
arm_length = 0.14
c_tau = 0.01
f_max = 1.0
cells:
0 0
1 0
"""


class TestAngles:
    @pytest.mark.parametrize("text,value", [
        ("0.5", 0.5),
        ("pi/4", np.pi / 4),
        ("-pi/6", -np.pi / 6),
        ("pi", np.pi),
        ("3*pi/4", 3 * np.pi / 4),
        ("2pi", 2 * np.pi),
    ])
    def test_parse(self, text, value):
        assert parse_angle(text) == pytest.approx(value, abs=1e-15)

    def test_reject_garbage(self):
        with pytest.raises(ValueError):
            parse_angle("pie/4")
        for zero in ("pi/0", "pi/0.0", "-3*pi/00"):
            with pytest.raises(ValueError, match="cannot parse angle"):
                parse_angle(zero)


class TestStructureFiles:
    def test_parse_basic(self):
        cfg = parse_structure(STRUCTURE_TEXT)
        assert cfg.cells == frozenset({(0, 0), (1, 0)})
        assert cfg.params.eta == pytest.approx(np.pi / 4, abs=0)

    def test_round_trip(self, tmp_path):
        cfg = StructureConfig(frozenset({(0, 0), (0, 1), (1, 1)}),
                              ModuleParams(eta=0.3, side_length=0.5, arm_length=0.2,
                                           c_tau=0.02, f_max=1.5))
        path = tmp_path / "s.txt"
        write_structure(path, cfg)
        back = read_structure(path)
        assert back.cells == cfg.cells
        assert back.params == cfg.params

    def test_malformed_number_names_line_and_field(self):
        text = STRUCTURE_TEXT.replace("c_tau = 0.01", "c_tau = zz")
        with pytest.raises(ParseError, match=r"line 5.*c_tau"):
            parse_structure(text)

    def test_unknown_field(self):
        with pytest.raises(ParseError, match="unknown field"):
            parse_structure("mass = 1\n" + STRUCTURE_TEXT)

    def test_missing_field(self):
        text = STRUCTURE_TEXT.replace("arm_length = 0.14\n", "")
        with pytest.raises(ParseError, match="arm_length"):
            parse_structure(text)

    def test_bad_cell_row(self):
        with pytest.raises(ParseError, match="two integers"):
            parse_structure(STRUCTURE_TEXT + "3 4 5\n")

    @pytest.mark.parametrize("text, match", [
        (STRUCTURE_TEXT.replace("f_max = 1.0", "f_max 1.0"), "line 6: expected 'key = value'"),
        (STRUCTURE_TEXT + "1 x\n", "line 10: malformed cell coordinate"),
        (STRUCTURE_TEXT.split("cells:")[0], "missing 'cells:' section"),
        (STRUCTURE_TEXT.split("0 0")[0], "'cells:' section is empty"),
        (STRUCTURE_TEXT.replace("pi/4", "pi/0"), "line 2: malformed number for field 'eta'"),
    ], ids=["stray line", "cell coordinate", "no cells", "empty cells", "zero divisor"])
    def test_malformed_layout(self, text, match):
        with pytest.raises(ParseError, match=match):
            parse_structure(text)

    def test_disconnected_cells_are_structure_errors(self):
        from modwrench.structures import StructureError
        text = STRUCTURE_TEXT + "5 5\n"
        with pytest.raises(StructureError):
            parse_structure(text)


class TestTaskFiles:
    def test_round_trip(self, tmp_path):
        task = generate_random_task(10, seed=5)
        path = tmp_path / "t.txt"
        write_task(path, task)
        assert np.array_equal(read_task(path), task)

    def test_wrong_arity(self):
        with pytest.raises(ParseError, match="6 numbers"):
            parse_task("1 2 3\n")

    def test_malformed_number(self):
        with pytest.raises(ParseError, match="malformed"):
            parse_task("1 2 3 4 5 potato\n")

    @pytest.mark.parametrize("row", ["0 0 nan 0 0 0", "0 0 inf 0 0 0", "0 0 2e154 0 0 0"])
    def test_norm_must_be_finite(self, row):
        # |w| overflows past ~1.34e154, where every component is still finite.
        with pytest.raises(ParseError, match="line 2: wrench norm must be finite"):
            parse_task("0 0 1 0 0 0\n" + row + "\n")

    def test_empty_rejected(self):
        with pytest.raises(ParseError, match="no wrench rows"):
            parse_task("# only a comment\n")

    def test_format_is_stable(self):
        task = generate_random_task(5, seed=9)
        assert format_task(task) == format_task(task)


class TestResultFiles:
    def test_search_result_round_trip(self, tmp_path):
        seed = StructureConfig(frozenset({(0, 0)}))
        task = np.array([[0, 0, 3.0, 0, 0, 0]])
        res = exhaustive_search(seed, task, SearchOptions(n_max=2))
        path = tmp_path / "r.txt"
        write_search_result(path, res, "exhaustive", "lp")
        meta, cfg = read_search_result(path)
        assert cfg.cells == res.config.cells
        assert meta["satisfied"] == "true"
        assert int(meta["modules_total"]) == res.modules_total
        assert int(meta["evaluations"]) == res.evaluations

    def test_hull_file_idempotent_under_reprune(self, tmp_path):
        cfg = StructureConfig(frozenset({(0, 0)}))
        A = configuration_matrix(cfg)
        h = construct_hull(A, 1.0)
        path = tmp_path / "h.txt"
        write_hull(path, h, cfg.n_modules, 1.0, cfg.params.eta)
        back = read_hull_vertices(path)
        assert np.array_equal(back, h.vertices)  # repr round-trips exactly
        repruned = prune_redundant(back)
        assert np.array_equal(repruned.vertices, h.vertices)

    def test_allocation_report_format(self, tmp_path):
        cfg = StructureConfig(frozenset({(0, 0)}))
        A = configuration_matrix(cfg)
        report = evaluate_task_trace(A, np.zeros((2, 6)), 1.0)
        from modwrench.fileio import format_allocation_report
        text = format_allocation_report(report)
        rows = [l for l in text.splitlines() if not l.startswith("#")]
        assert len(rows) == 2
        assert all(len(r.split()) == 8 for r in rows)
