#!/usr/bin/env python3
"""modwrench benchmark: one workload, timed from outside the package.

    python3 perfbench/run.py --workload experiment|ladder|check --seed N \
        --seconds S --trace 0|1

Run from the repository root.  The package is imported from ./src.  The run
sets up its inputs from the seed, repeats whole passes of the workload for
about S seconds, checks every output against references computed
apart from the program, and prints as its last line one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones; with --trace 1 the run alternates untraced and
traced passes, reports the per-layer figures of the traced ones and writes
every span to .perfbench_out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 7

# Units of the per-layer metrics, in the order BENCHMARK.json lists them.
PER_LAYER_UNITS = {
    "structures.matrix_builds": "count", "structures.matrix_s": "s",
    "geometry.rotations": "count",
    "lp.max_lambda_solves": "count", "lp.max_lambda_s": "s", "lp.max_lambda_us_per_solve": "us",
    "lp.feasibility_solves": "count", "lp.feasibility_s": "s",
    "search.designs_evaluated": "count",
    **{f"search.designs_level.{n}": "count" for n in range(1, 9)},
    "search.check_s": "s", "search.self_s": "s", "search.solves_per_rejection": "solves/design",
    **{f"hull.build_s.m{n}": "s" for n in (1, 2, 3)},
    **{f"hull.vertices.m{n}": "count" for n in (1, 2, 3)},
    "hull.prune_calls": "count", "hull.feasibility_solves_per_query": "solves/query",
    "hull.contains_us_per_query": "us", "hull.failed_builds": "count",
    "allocation.trace_s": "s", "allocation.us_per_wrench": "us", "allocation.fallback_solves": "count",
    "fileio.read_s": "s", "fileio.write_s": "s", "fileio.bytes_written": "B",
    "cli.self_s": "s",
    "trace.spans": "count", "trace.overhead_pct": "%",
}


def blas_threads():
    """OpenBLAS thread count of the numpy build, or None when it cannot be read."""
    import ctypes
    import glob

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def environment():
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
    }


def import_package():
    import modwrench
    import modwrench.cli  # noqa: F401  the package namespace does not load the CLI

    return modwrench


def setup_sample(workload, seed, index):
    """Wall time of one fresh interpreter that imports the package and sets up the inputs."""
    workdir = OUT / f"setup-{workload}-{seed}-{os.getpid()}-{index}"
    cmd = [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(seed),
           "--setup-only", str(workdir)]
    t0 = time.perf_counter()
    subprocess.run(cmd, check=True)
    elapsed = time.perf_counter() - t0
    shutil.rmtree(workdir, ignore_errors=True)
    return elapsed


def make_workload(name, seed, workdir):
    import workloads

    workdir.mkdir(parents=True, exist_ok=True)
    return workloads.WORKLOADS[name](import_package(), seed, workdir)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("experiment", "ladder", "check"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", default=None, metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "modwrench" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}/modwrench; run from a modwrench checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]

    if args.setup_only:
        make_workload(args.workload, args.seed, Path(args.setup_only))
        return 0

    workdir = OUT / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir):
    # Set-up samples are spread over the run, one before each pass, so that
    # their median does not hang on the machine's load in a single moment.
    # A traced run reports no set-up time and takes no samples.
    samples = 0 if args.trace else SETUP_SAMPLES
    setup = [setup_sample(args.workload, args.seed, 0)] if samples else []
    workload = make_workload(args.workload, args.seed, workdir)
    tracer = None
    if args.trace:
        import modwrench
        from tracer import PassSpans, Tracer

        tracer = Tracer(modwrench)
    passes, traced, untraced, layer = [], [], [], []
    t0 = time.perf_counter()
    # A pass starts only while at least half the last pass's time is left, so
    # a run ends near --seconds however long its passes are.
    while (len(passes) < (1 if tracer is None else 2)
           or args.seconds - (time.perf_counter() - t0) >= passes[-1].seconds / 2):
        if passes and len(setup) < samples:
            setup.append(setup_sample(args.workload, args.seed, len(setup)))
        tracing = tracer is not None and len(passes) % 2 == 1
        if tracing:
            lo = len(tracer)
            tracer.install()
            try:
                result = workload.run_pass()
            finally:
                tracer.uninstall()
            traced.append(result)
            spans = PassSpans(tracer, lo, len(tracer)).metrics()
            spans["hull.failed_builds"] = result.failed if args.workload == "check" else 0
            spans["fileio.bytes_written"] = result.bytes_written
            layer.append(spans)
        else:
            result = workload.run_pass()
            untraced.append(result)
        passes.append(result)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while len(setup) < samples:
        setup.append(setup_sample(args.workload, args.seed, len(setup)))

    problems = workload.verify()
    for line in problems + getattr(workload, "failures", [])[:1]:
        print(f"# {line}", file=sys.stderr)
    print("# env " + json.dumps(environment()))
    print(f"# passes: {len(untraced)} untraced, {len(traced)} traced")
    print("# pass seconds: " + " ".join(f"{p.seconds:.4f}" for p in passes))

    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "fastest_pass_s": (min(p.seconds for p in passes), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        for name, (value, unit) in workload.figures(passes).items():
            print(f"# figure {name} = {value:.6g} {unit}")
    else:
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"trace-{args.workload}-{args.seed}.npz"
        tracer.save(trace_file)
        print(f"# {len(tracer)} spans -> {trace_file.relative_to(ROOT)}")
        # Counts repeat on every pass; median_low keeps them whole numbers.
        metrics = {name: ((statistics.median_low if unit in ("count", "B") else statistics.median)(
                              m[name] for m in layer), unit)
                   for name, unit in PER_LAYER_UNITS.items() if name != "trace.overhead_pct"}
        base = min(p.seconds for p in untraced)
        overhead = min(p.seconds for p in traced) - base
        metrics["trace.overhead_pct"] = (100.0 * overhead / base, "%")

    print(json.dumps({
        "correct": not problems,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
