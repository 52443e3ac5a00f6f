#!/usr/bin/env python3
"""End-to-end experiment: random task -> both searches -> allocation trace.

Generates a seeded random task (vertical force scaled up to emulate gravity
compensation), searches for minimum-module configurations with both the
exhaustive and the centrosymmetric strategy, then replays the task through
the allocator on the found designs.  Writes the task, result and report
files into --out-dir.
"""

import argparse
import pathlib
import time

import numpy as np

from modwrench.allocation import evaluate_task_trace, generate_random_task
from modwrench.fileio import write_allocation_report, write_search_result, write_task
from modwrench.search import SearchOptions, exhaustive_search, heuristic_search
from modwrench.structures import ModuleParams, StructureConfig, configuration_matrix


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=55539)
    parser.add_argument("--count", type=int, default=80)
    parser.add_argument("--fz-scale", type=float, default=30.0)
    parser.add_argument("--n-max", type=int, default=7)
    parser.add_argument("--eta", type=float, default=np.pi / 4)
    parser.add_argument("--f-max", type=float, default=1.0)
    parser.add_argument("--no-gravity-bias", action="store_true",
                        help="keep the raw two-sided vertical force draws "
                             "(upward-tilted rotors cannot push down, so "
                             "such tasks are typically unsatisfiable)")
    parser.add_argument("--out-dir", default="experiment_out")
    args = parser.parse_args()
    if args.n_max < 0:
        parser.error(f"--n-max must be nonnegative, got {args.n_max}")

    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    task = generate_random_task(args.count, half_range=0.5, fz_scale=args.fz_scale,
                                seed=args.seed)
    if not args.no_gravity_bias:
        task[:, 2] = np.abs(task[:, 2])
    write_task(out / "task.txt", task)
    print(f"task: {len(task)} wrenches, fz in [{task[:, 2].min():.2f}, "
          f"{task[:, 2].max():.2f}] N")

    seed_cfg = StructureConfig(frozenset({(0, 0)}),
                               ModuleParams(eta=args.eta, f_max=args.f_max))
    for method, fn in (("exhaustive", exhaustive_search), ("heuristic", heuristic_search)):
        t0 = time.perf_counter()
        res = fn(seed_cfg, task, SearchOptions(n_max=args.n_max, method=method))
        dt = time.perf_counter() - t0
        write_search_result(out / f"result_{method}.txt", res, method, "lp")
        print(f"{method}: satisfied={res.satisfied} modules={res.modules_total} "
              f"evaluations={res.evaluations} com_shift={res.com_shift} ({dt:.1f}s)")
        if res.satisfied:
            A = configuration_matrix(res.config)
            report = evaluate_task_trace(A, task, args.f_max, fallback=True)
            write_allocation_report(out / f"allocation_{method}.txt", report)
            print(f"  allocation (fallback): max error {report.max_error:.2e}, "
                  f"saturated={report.any_saturated}")
    print(f"files written to {out}/")


if __name__ == "__main__":
    main()
