"""Command-line front end.

Subcommands: matrix, check, search, hull, gen-task, allocate.  Exit codes
are stable API: 0 success/satisfied, 1 unsatisfied/saturated/no result
within budget, 2 parse error (a malformed file or argument, or a file that
cannot be read or written), 3 invalid structure, 4 non-centrosymmetric
seed for the heuristic search, 5 capacity exceeded (a hull too large to
build or export, or a search level of too many cells), 6 solver failure
(the capacity LP gave up: iteration limit, singular basis or unbounded
step).
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import allocation, fileio, hull, lp, search
from .search import AsymmetricSeedError, SearchOptions
from .structures import StructureError, configuration_matrix

EXIT_OK = 0
EXIT_UNSATISFIED = 1
EXIT_PARSE = 2
EXIT_STRUCTURE = 3
EXIT_ASYMMETRIC = 4
EXIT_CAPACITY = 5
EXIT_SOLVER = 6

# Column budget accepted by the hull export (5 modules).
HULL_COLUMN_CAPACITY = 20


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def cmd_matrix(args) -> int:
    config = fileio.read_structure(args.structure)
    A = configuration_matrix(config)
    for row in A:
        print(" ".join(_fmt(v) for v in row))
    return EXIT_OK


def cmd_check(args) -> int:
    config = fileio.read_structure(args.structure)
    task = fileio.read_task(args.task)
    A = configuration_matrix(config)
    f_max = config.params.f_max
    if args.method == "hull":
        h = hull.construct_hull(A, f_max)
        verdicts = [hull.hull_contains(h, w) for w in task]
    else:
        verdicts = lp.task_capacity(A, task, f_max)[0]
    for i, ok in enumerate(verdicts):
        print(f"wrench {i}: {'ok' if ok else 'INFEASIBLE'}")
    satisfied = all(verdicts)
    print("SATISFIED" if satisfied else "UNSATISFIED")
    return EXIT_OK if satisfied else EXIT_UNSATISFIED


def cmd_search(args) -> int:
    config = fileio.read_structure(args.structure)
    task = fileio.read_task(args.task)
    run = search.heuristic_search if args.method == "heuristic" else search.exhaustive_search
    result = run(config, task, SearchOptions(n_max=args.n_max, checker=args.checker))
    if args.out:
        fileio.write_search_result(args.out, result, args.method, args.checker)
    shift = " ".join(_fmt(v) for v in result.com_shift)
    print(f"satisfied: {'yes' if result.satisfied else 'no'}")
    print(f"modules: {result.modules_total}")
    print(f"evaluations: {result.evaluations}")
    print(f"com_shift: {shift}")
    print(f"cells: {' '.join(f'{ix},{iy}' for ix, iy in result.config.sorted_cells())}")
    return EXIT_OK if result.satisfied else EXIT_UNSATISFIED


def cmd_hull(args) -> int:
    config = fileio.read_structure(args.structure)
    A = configuration_matrix(config)
    if A.shape[1] > HULL_COLUMN_CAPACITY:
        raise hull.CapacityError(
            f"structure has {A.shape[1]} rotor columns; the hull export "
            f"limit is {HULL_COLUMN_CAPACITY}")
    h = hull.construct_hull(A, config.params.f_max)
    fileio.write_hull(args.out, h, config.n_modules, config.params.f_max,
                      config.params.eta)
    print(f"{h.n_vertices} vertices (dimension {h.dimension}) -> {args.out}")
    return EXIT_OK


def cmd_gen_task(args) -> int:
    task = allocation.generate_random_task(
        args.count, half_range=args.half_range, fz_scale=args.fz_scale, seed=args.seed)
    if not all(math.isfinite(sum(v * v for v in row)) for row in task.tolist()):
        raise fileio.ParseError("--half-range and --fz-scale give a wrench of non-finite norm")
    fileio.write_task(args.out, task)
    print(f"{task.shape[0]} wrenches -> {args.out}")
    return EXIT_OK


def cmd_allocate(args) -> int:
    config = fileio.read_structure(args.structure)
    task = fileio.read_task(args.task)
    A = configuration_matrix(config)
    report = allocation.evaluate_task_trace(A, task, config.params.f_max,
                                            fallback=args.fallback)
    if args.out:
        fileio.write_allocation_report(args.out, report)
    else:
        print(fileio.format_allocation_report(report), end="")
    # The error bound is relative to f_max * max|a_i|, like lp's tolerances.
    scale = config.params.f_max * float(np.linalg.norm(A, axis=0).max())
    ok = not report.any_saturated and report.max_error <= 1e-6 * scale
    print(f"max_error: {report.max_error:.3e}  saturated: "
          f"{'yes' if report.any_saturated else 'no'}")
    return EXIT_OK if ok else EXIT_UNSATISFIED


def _checked(kind, accept, what):
    """argparse type: `kind` of the text, rejected with `what` unless `accept` holds."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            pass
        else:
            if accept(value):
                return value
        raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
    return parse


_nonnegative_int = _checked(int, lambda v: v >= 0, "a nonnegative integer")
_positive_int = _checked(int, lambda v: v > 0, "a positive integer")
_half_range = _checked(float, lambda v: 0 < 2 * v < math.inf, "a positive number whose double is finite")
_finite_float = _checked(float, math.isfinite, "a finite number")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modwrench",
        description="Wrench-set analysis and configuration search for "
                    "modular multi-rotor structures.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("matrix", help="print the 6 x 4n configuration matrix")
    p.add_argument("structure")
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("check", help="check whether a structure satisfies a task")
    p.add_argument("structure")
    p.add_argument("task")
    p.add_argument("--method", choices=("lp", "hull"), default="lp")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("search", help="search for a minimum-module design")
    p.add_argument("structure")
    p.add_argument("task")
    p.add_argument("--method", choices=("exhaustive", "heuristic"), default="exhaustive")
    p.add_argument("--n-max", type=_nonnegative_int, default=7, dest="n_max")
    p.add_argument("--checker", choices=("lp", "hull"), default="lp")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("hull", help="export the feasible-wrench hull vertices")
    p.add_argument("structure")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_hull)

    p = sub.add_parser("gen-task", help="generate a seeded random task file")
    p.add_argument("--count", type=_positive_int, default=80)
    p.add_argument("--half-range", type=_half_range, default=0.5, dest="half_range")
    p.add_argument("--fz-scale", type=_finite_float, default=30.0, dest="fz_scale")
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_task)

    p = sub.add_parser("allocate", help="pseudoinverse allocation trace over a task")
    p.add_argument("structure")
    p.add_argument("task")
    p.add_argument("--fallback", action="store_true",
                   help="take each feasible wrench's input from the capacity LP before "
                        "falling back to the pseudoinverse")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_allocate)
    return parser


# Typed errors and their exit codes, matched in order: AsymmetricSeedError
# is a StructureError, so it comes first.
_ERROR_EXITS = (
    (fileio.ParseError, EXIT_PARSE),
    (AsymmetricSeedError, EXIT_ASYMMETRIC),
    (hull.CapacityError, EXIT_CAPACITY),
    (lp.SolverError, EXIT_SOLVER),
    (StructureError, EXIT_STRUCTURE),
    (OSError, EXIT_PARSE),
)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except tuple(kind for kind, _ in _ERROR_EXITS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _ERROR_EXITS if isinstance(exc, kind))


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
