"""The three benchmark workloads: set-up, one timed pass, and independent checks.

Each workload builds its inputs from the benchmark seed with numpy alone and
writes them with its own formatter, so the program only ever receives
generated inputs.  `run_pass` times one whole round of the same operations;
everything it keeps for checking is read after the clock stops.  `verify`
runs once, after the timed passes, and compares the kept outputs with
`oracle`, which does not import the program.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracle

ETA = math.pi / 4


@dataclass
class PassResult:
    seconds: float
    attempted: int
    failed: int
    phases: dict = field(default_factory=dict)
    bytes_written: int = 0


def write_structure(path, cells, f_max):
    lines = [f"eta = {ETA!r}", "side_length = 0.4", "arm_length = 0.14", "c_tau = 0.01",
             f"f_max = {f_max!r}", "cells:"] + [f"{ix} {iy}" for ix, iy in sorted(cells)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_task(path, task):
    rows = [" ".join(repr(float(v)) for v in w) for w in task]
    Path(path).write_text("# fx fy fz tx ty tz\n" + "\n".join(rows) + "\n", encoding="utf-8")


# Largest zero-torque vertical force of one module at f_max = 1 (criterion 3).
VERTICAL_CAPACITY = 4.0 * math.cos(ETA)


class Experiment:
    """The paper's default experiment through `modwrench.cli.main`, with files.

    The task is the fixed seed-55539 task (80 wrenches, f_z scaled by 30 and
    folded upward).  The benchmark seed picks an exact power-of-two scale k
    applied to both f_max and the task: by the scale invariance every
    verdict, search order and pivot stays the same, so each seed does the
    same work on different numbers.
    """

    TASK_SEED = 55539
    N_MAX = 7
    METHODS = ("exhaustive", "heuristic")

    def __init__(self, mw, seed, workdir):
        self.cli = mw.cli
        self.dir = Path(workdir)
        self.scale = 2.0 ** int(np.random.default_rng(seed).integers(-3, 4))
        base = np.random.default_rng(self.TASK_SEED).uniform(-0.5, 0.5, size=(80, 6))
        base[:, 2] = np.abs(30.0 * base[:, 2])
        self.task = self.scale * base
        self.f_max = self.scale
        self.seed_file = self.dir / "seed.txt"
        self.task_file = self.dir / "task.txt"
        write_structure(self.seed_file, [(0, 0)], f_max=self.f_max)
        write_task(self.task_file, self.task)
        self.first = None
        self.mismatched_passes = 0

    def _command(self, argv):
        """Exit code and output of one CLI call; -1 when it raises."""
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                code = self.cli.main([str(a) for a in argv])
        except Exception:
            traceback.print_exc()
            code = -1
        return code, out.getvalue()

    def run_pass(self):
        d, phases, log, failed, attempted = self.dir, {}, [], 0, 0
        written = []
        t0 = time.perf_counter()
        for method in self.METHODS:
            result = d / f"result_{method}.txt"
            ts = time.perf_counter()
            code, out = self._command(["search", self.seed_file, self.task_file, "--method", method,
                                       "--n-max", self.N_MAX, "--out", result])
            phases[f"search_{method}_s"] = time.perf_counter() - ts
            attempted += 1
            failed += code not in (0, 1)
            log.append((f"search {method}", code, out))
            written.append(result)
            if code != 0:
                continue
            for mode in ("fallback", "plain"):
                report = d / f"allocation_{method}_{mode}.txt"
                ts = time.perf_counter()
                code, out = self._command(["allocate", result, self.task_file, "--out", report]
                                          + (["--fallback"] if mode == "fallback" else []))
                phases[f"allocate_{mode}_s"] = phases.get(f"allocate_{mode}_s", 0.0) + time.perf_counter() - ts
                attempted += 1
                failed += code not in (0, 1)
                log.append((f"allocate {method} {mode}", code, out))
                written.append(report)
        seconds = time.perf_counter() - t0
        snapshot = {"log": log, "files": {p.name: p.read_bytes() for p in written}}
        if self.first is None:
            self.first = snapshot
        elif snapshot != self.first:
            self.mismatched_passes += 1
        return PassResult(seconds, attempted, failed, phases,
                          sum(len(b) for b in snapshot["files"].values()))

    def figures(self, passes):
        evaluations = sum(int(_meta(self.first["files"][f"result_{m}.txt"])["evaluations"])
                          for m in self.METHODS)
        search_s = _median([p.phases["search_exhaustive_s"] + p.phases["search_heuristic_s"] for p in passes])
        wrenches = len(self.task) * sum(f"allocation_{m}_fallback.txt" in self.first["files"]
                                        for m in self.METHODS)
        return {
            "search_exhaustive_s": (_median([p.phases["search_exhaustive_s"] for p in passes]), "s"),
            "search_heuristic_s": (_median([p.phases["search_heuristic_s"] for p in passes]), "s"),
            "designs_per_s": (evaluations / search_s, "1/s"),
            "allocate_wrenches_per_s": (wrenches / _median([p.phases["allocate_fallback_s"] for p in passes]), "1/s"),
        }

    def verify(self):
        problems = []
        if self.mismatched_passes:
            problems.append(f"{self.mismatched_passes} passes wrote output that differs from the first pass")
        files, codes = self.first["files"], {name: code for name, code, _ in self.first["log"]}
        metas, designs = {}, {}
        for method in self.METHODS:
            if codes.get(f"search {method}") != 0:
                problems.append(f"{method} search found no design (exit {codes.get(f'search {method}')})")
                return problems
            metas[method] = _meta(files[f"result_{method}.txt"])
            designs[method] = _cells(files[f"result_{method}.txt"])
            if int(metas[method]["modules_total"]) != len(designs[method]):
                problems.append(f"{method}: modules_total disagrees with the cell list")
        shift = [float(v) for v in metas["heuristic"]["com_shift"].split()]
        if any(v != 0.0 for v in shift):
            problems.append(f"heuristic COM shift is {shift}, not 0")
        m_ex, m_heur = len(designs["exhaustive"]), len(designs["heuristic"])
        if m_ex > m_heur:
            problems.append(f"exhaustive design has {m_ex} modules, heuristic {m_heur}")

        tol = 1e-6 * self.scale
        for method, cells in designs.items():
            A = oracle.configuration_matrix(cells, ETA)
            for i, w in enumerate(self.task):
                u = oracle.feasible_input(A, w, self.f_max)
                if (u is None or u.min() < -1e-9 * self.f_max or u.max() > self.f_max * (1 + 1e-9)
                        or np.abs(A @ u - w).max() > tol):
                    problems.append(f"{method} design has no in-box input for wrench {i}")
                    break
            problems += self._check_reports(method, A)

        polys = oracle.fixed_polyominoes(m_ex - 1) if m_ex > 1 else {}
        norms = np.linalg.norm(self.task, axis=1)
        last = 0
        for k, shapes in polys.items():
            for cells in shapes:
                A = oracle.configuration_matrix(cells, ETA)
                order = [last] + [i for i in range(len(self.task)) if i != last]
                hit = next((i for i in order
                            if oracle.max_magnitude(A, self.task[i], self.f_max) < norms[i] * (1 - 1e-7)), None)
                if hit is None:
                    problems.append(f"smaller design {cells} is feasible for the whole task")
                else:
                    last = hit
        return problems

    def _check_reports(self, method, A):
        problems = []
        for mode in ("fallback", "plain"):
            rows = _report_rows(self.first["files"][f"allocation_{method}_{mode}.txt"])
            if len(rows) != len(self.task) or not np.array_equal(rows[:, :6], self.task):
                problems.append(f"{method} {mode} report does not list the task wrenches")
                continue
            if mode == "fallback":
                bad = np.nonzero((rows[:, 6] != 0) | (rows[:, 7] > 1e-6 * self.scale))[0]
            else:
                # Pseudoinverse, clamp into the box, measure the miss.
                u = np.clip(np.linalg.pinv(A, rcond=1e-10) @ self.task.T, 0.0, self.f_max)
                error = np.linalg.norm(A @ u - self.task.T, axis=0)
                bad = np.nonzero(np.abs(error - rows[:, 7]) > 1e-9 * self.scale + 1e-6 * error)[0]
            if bad.size:
                problems.append(f"{method} {mode} report rows {bad[:5].tolist()} are wrong")
        return problems


class Ladder:
    """Exhaustive searches from one module for single vertical wrenches.

    Step c draws f_z strictly inside ((c-1) cap, c cap), cap being one
    module's vertical capacity, for c = 1 .. n_max + 2; the last step asks
    for more than n_max + 1 modules can give, so that search evaluates every
    fixed polyomino up to n_max + 1 cells.
    """

    N_MAX = 6

    def __init__(self, mw, seed, workdir):
        self.search = mw.search
        self.seed_config = mw.structures.StructureConfig(frozenset({(0, 0)}), mw.structures.ModuleParams())
        self.options = mw.search.SearchOptions(n_max=self.N_MAX)
        rng = np.random.default_rng(seed)
        self.fz = [VERTICAL_CAPACITY * (c - 1 + rng.uniform(0.05, 0.95)) for c in range(1, self.N_MAX + 3)]
        self.tasks = [np.array([[0.0, 0.0, fz, 0.0, 0.0, 0.0]]) for fz in self.fz]
        self.first = None
        self.mismatched_passes = 0

    def run_pass(self):
        outcomes, failed = [], 0
        t0 = time.perf_counter()
        for task in self.tasks:
            try:
                r = self.search.exhaustive_search(self.seed_config, task, self.options)
            except Exception:
                traceback.print_exc()
                failed += 1
                outcomes.append(None)
                continue
            outcomes.append((r.satisfied, r.modules_total, r.evaluations, tuple(r.config.sorted_cells())))
        seconds = time.perf_counter() - t0
        if self.first is None:
            self.first = outcomes
        elif outcomes != self.first:
            self.mismatched_passes += 1
        return PassResult(seconds, len(self.tasks), failed, {"search_exhaustive_s": seconds})

    def figures(self, passes):
        evaluations = sum(o[2] for o in self.first if o)
        search_s = _median([p.phases["search_exhaustive_s"] for p in passes])
        return {"search_exhaustive_s": (search_s, "s"), "designs_per_s": (evaluations / search_s, "1/s")}

    def verify(self):
        problems = []
        if self.mismatched_passes:
            problems.append(f"{self.mismatched_passes} passes gave results that differ from the first pass")
        cumulative = np.cumsum(oracle.A001168)
        limit = self.N_MAX + 1
        for fz, outcome in zip(self.fz, self.first):
            if outcome is None:
                continue
            satisfied, modules, evaluations, cells = outcome
            need = math.ceil(fz / VERTICAL_CAPACITY)
            if need > limit:
                if satisfied or evaluations != cumulative[limit - 1]:
                    problems.append(f"f_z={fz:.4f}: expected no design after {cumulative[limit - 1]} "
                                    f"evaluations, got satisfied={satisfied} after {evaluations}")
                continue
            expected_evals = (cumulative[need - 2] if need > 1 else 0) + 1
            if not satisfied or modules != need or len(cells) != need or evaluations != expected_evals:
                problems.append(f"f_z={fz:.4f}: expected {need} modules after {expected_evals} "
                                f"evaluations, got {modules} after {evaluations} (satisfied={satisfied})")
        return problems


# Structures of the check workload.  LP route: 1 to 8 modules.  Hull route:
# 1 module, 1x2, 2x1, the 1x3 bar, and the 2x2 block, which is built in a
# child process under an address-space cap.  The 3-cell L stays out of the
# hull route: its 7-10 s build would make a pass so long that a run holds
# two or three passes, too few for a steady fastest pass.
LP_SHAPES = {
    "m1": [(0, 0)],
    "1x2": [(0, 0), (1, 0)],
    "L3": [(0, 0), (1, 0), (0, 1)],
    "2x2": [(0, 0), (1, 0), (0, 1), (1, 1)],
    "P5": [(0, 0), (1, 0), (0, 1), (1, 1), (0, 2)],
    "2x3": [(x, y) for x in range(3) for y in range(2)],
    "2x3+1": [(x, y) for x in range(3) for y in range(2)] + [(1, 2)],
    "2x4": [(x, y) for x in range(4) for y in range(2)],
}
HULL_SHAPES = {
    "m1": [(0, 0)],
    "1x2": [(0, 0), (1, 0)],
    "2x1": [(0, 0), (0, 1)],
    "1x3": [(0, 0), (1, 0), (2, 0)],
}
CAPPED_SHAPES = {"2x2": [(0, 0), (1, 0), (0, 1), (1, 1)]}
CAP_BYTES = 3 << 30
CHILD_TIMEOUT_S = 120
WRENCHES_PER_STRUCTURE = 32
# Outside the boundary band: an inside wrench is A u with every u_i in
# [0.1, 0.9] f_max, so it sits at least 0.1 f_max sum|n.a_i| inside every
# supporting plane n; an outside wrench sits at least 0.05 f_max (sum|n.a_i| + 1)
# beyond one supporting plane.
INSIDE_LO, INSIDE_HI = 0.1, 0.9
OUTSIDE_LO, OUTSIDE_HI = 0.05, 0.5


def banded_wrenches(A, f_max, count, rng):
    """Half inside, half outside the reachable set, clear of its boundary; returns (W, labels)."""
    n = A.shape[1]
    half = count // 2
    beta = rng.beta(0.3, 0.3, size=(half, n))
    inside = (f_max * (INSIDE_LO + (INSIDE_HI - INSIDE_LO) * beta)) @ A.T
    normals = rng.normal(size=(count - half, 6))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    support_points = (f_max * (normals @ A > 0)) @ A.T
    width = f_max * (np.abs(normals @ A).sum(axis=1) + 1.0)
    push = rng.uniform(OUTSIDE_LO, OUTSIDE_HI, size=count - half) * width
    outside = support_points + push[:, None] * normals
    W = np.vstack([inside, outside])
    labels = np.array([True] * half + [False] * (count - half))
    order = rng.permutation(count)
    return W[order], labels[order]


class Check:
    """Seeded inside/outside wrenches on fixed structures, LP route and hull route."""

    def __init__(self, mw, seed, workdir):
        self.mw = mw
        self.dir = Path(workdir)
        rng = np.random.default_rng(seed)
        self.f_max = 1.0
        params = mw.structures.ModuleParams()
        self.cases = []  # (route, name, cells, config, W, labels)
        for route, shapes in (("lp", LP_SHAPES), ("hull", HULL_SHAPES), ("capped", CAPPED_SHAPES)):
            for name, cells in shapes.items():
                A = oracle.configuration_matrix(cells, ETA)
                W, labels = banded_wrenches(A, self.f_max, WRENCHES_PER_STRUCTURE, rng)
                config = mw.structures.StructureConfig(frozenset(cells), params)
                self.cases.append((route, name, cells, config, W, labels))
                if route == "capped":
                    write_structure(self.dir / f"{name}.txt", cells, f_max=self.f_max)
                    np.save(self.dir / f"{name}_wrenches.npy", W)
        self.first = None
        self.vertices = {}
        self.mismatched_passes = 0
        self.failures = []

    def _capped_child(self, name):
        """Build and query in a child under an address-space cap; returns (result, error)."""
        out = self.dir / f"{name}_result.json"
        out.unlink(missing_ok=True)
        cmd = [sys.executable, str(Path(__file__).with_name("capped_hull.py")), str(CAP_BYTES),
               str(self.dir / f"{name}.txt"), str(self.dir / f"{name}_wrenches.npy"), str(out)]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None, f"timed out after {CHILD_TIMEOUT_S} s"
        if proc.returncode != 0:
            last = (proc.stdout.strip().splitlines() or ["(no output)"])[-1]
            return None, f"exit {proc.returncode}: {last}"
        result = json.loads(out.read_text(encoding="utf-8"))
        self.vertices.setdefault(name, np.load(self.dir / f"{name}_vertices.npy"))
        return result, None

    def run_pass(self):
        s = self.mw.structures
        lp, hull = self.mw.lp, self.mw.hull
        verdicts, phases, failed = {}, {"lp_s": 0.0, "hull_build_s": 0.0, "hull_query_s": 0.0,
                                         "hull_wrenches": 0}, 0
        hulls = {}
        t0 = time.perf_counter()
        for route, name, _, config, W, _ in self.cases:
            key = f"{route}:{name}"
            ts = time.perf_counter()
            try:
                if route == "lp":
                    A = s.configuration_matrix(config)
                    verdicts[key] = [lp.satisfies_wrench(A, w, self.f_max) for w in W]
                    phases["lp_s"] += time.perf_counter() - ts
                elif route == "hull":
                    A = s.configuration_matrix(config)
                    hulls[key] = hull.construct_hull(A, self.f_max)
                    tb = time.perf_counter()
                    verdicts[key] = [hull.hull_contains(hulls[key], w) for w in W]
                    phases["hull_build_s"] += tb - ts
                    phases["hull_query_s"] += time.perf_counter() - tb
                    phases["hull_wrenches"] += len(W)
                else:
                    result, error = self._capped_child(name)
                    if result is None:
                        failed += 1
                        self.failures.append(f"{key}: {error}")
                        continue
                    verdicts[key] = result["verdicts"]
                    phases["hull_build_s"] += result["build_s"]
                    phases["hull_query_s"] += result["query_s"]
                    phases["hull_wrenches"] += len(W)
            except Exception:
                traceback.print_exc()
                failed += 1
                self.failures.append(f"{key}: raised")
        seconds = time.perf_counter() - t0
        verdicts = {k: [bool(v) for v in vs] for k, vs in verdicts.items()}
        for key, h in hulls.items():
            self.vertices.setdefault(key.split(":")[1], h.vertices)
        if self.first is None:
            self.first = verdicts
        elif verdicts != self.first:
            self.mismatched_passes += 1
        return PassResult(seconds, len(self.cases), failed, phases)

    def figures(self, passes):
        lp_wrenches = sum(len(W) for route, *_, W, _ in self.cases if route == "lp")
        return {
            "check_lp_wrenches_per_s": (lp_wrenches / _median([p.phases["lp_s"] for p in passes]), "1/s"),
            "hull_build_s": (_median([p.phases["hull_build_s"] for p in passes]), "s"),
            "check_hull_wrenches_per_s": (_median([p.phases["hull_wrenches"] / p.phases["hull_query_s"]
                                                   for p in passes]), "1/s"),
        }

    def verify(self):
        problems = []
        if self.mismatched_passes:
            problems.append(f"{self.mismatched_passes} passes gave verdicts that differ from the first pass")
        for route, name, cells, _, W, labels in self.cases:
            A = oracle.configuration_matrix(cells, ETA)
            reference = np.array([oracle.feasible_input(A, w, self.f_max) is not None for w in W])
            if not np.array_equal(reference, labels):
                problems.append(f"{route}:{name}: reference LP disagrees with the wrench construction")
            got = self.first.get(f"{route}:{name}")
            if got is not None and not np.array_equal(np.array(got), reference):
                bad = np.nonzero(np.array(got) != reference)[0]
                problems.append(f"{route}:{name}: verdicts differ from the reference on wrenches {bad[:5].tolist()}")
            if route != "lp" and name in self.vertices:
                images = oracle.binary_images(A, self.f_max)
                for v in self.vertices[name]:
                    if np.abs(images - v).max(axis=1).min() > 1e-9:
                        problems.append(f"{route}:{name}: hull vertex {v} is not a binary image")
                        break
        return problems


WORKLOADS = {"experiment": Experiment, "ladder": Ladder, "check": Check}


def _median(values):
    return float(np.median(values))


def _meta(text: bytes):
    meta = {}
    for line in text.decode().splitlines():
        if line.startswith("#") and "=" in line:
            key, _, value = line[1:].partition("=")
            meta[key.strip()] = value.strip()
    return meta


def _cells(text: bytes):
    lines = text.decode().splitlines()
    start = lines.index("cells:") + 1
    return [tuple(int(v) for v in line.split()) for line in lines[start:] if line.strip()]


def _report_rows(text: bytes):
    return np.array([[float(v) for v in line.split()] for line in text.decode().splitlines()
                     if line.strip() and not line.startswith("#")])
