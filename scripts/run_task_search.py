#!/usr/bin/env python3
"""End-to-end experiment: random task -> both searches -> allocation trace.

Generates a seeded random task of 80 wrenches (vertical force scaled by 30
and folded upward to emulate gravity compensation), searches from one
default module for minimum-module configurations with both the exhaustive
and the centrosymmetric strategy, then replays the task through the
allocator on the found designs.  Writes the task, result and report files
into --out-dir.
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
    parser.add_argument("--n-max", type=int, default=7)
    parser.add_argument("--out-dir", default="experiment_out")
    args = parser.parse_args()
    if args.n_max < 0:
        parser.error(f"--n-max must be nonnegative, got {args.n_max}")

    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    task = generate_random_task(80, half_range=0.5, fz_scale=30.0, seed=args.seed)
    task[:, 2] = np.abs(task[:, 2])
    write_task(out / "task.txt", task)
    print(f"task: {len(task)} wrenches, fz in [{task[:, 2].min():.2f}, "
          f"{task[:, 2].max():.2f}] N")

    seed_cfg = StructureConfig(frozenset({(0, 0)}), ModuleParams())
    for method, fn in (("exhaustive", exhaustive_search), ("heuristic", heuristic_search)):
        t0 = time.perf_counter()
        res = fn(seed_cfg, task, SearchOptions(n_max=args.n_max))
        dt = time.perf_counter() - t0
        write_search_result(out / f"result_{method}.txt", res, method, "lp")
        print(f"{method}: satisfied={res.satisfied} modules={res.modules_total} "
              f"evaluations={res.evaluations} com_shift={res.com_shift} ({dt:.1f}s)")
        if res.satisfied:
            A = configuration_matrix(res.config)
            report = evaluate_task_trace(A, task, seed_cfg.params.f_max, fallback=True)
            write_allocation_report(out / f"allocation_{method}.txt", report)
            print(f"  allocation (fallback): max error {report.max_error:.2e}, "
                  f"saturated={report.any_saturated}")
    print(f"files written to {out}/")


if __name__ == "__main__":
    main()
