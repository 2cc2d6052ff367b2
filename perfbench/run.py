"""Run one benchmark workload against the grafn sources of this checkout.

    python3 perfbench/run.py --workload cora-shape --seed 0 --seconds 20 --trace 0

Prints the environment, every metric by name with its unit and sample
count, the loss-history digests and any failed check, then, as the last
line, one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones, with --trace 1 the per-layer
ones. The full report also goes to .perfbench_out/<workload>-trace<0|1>.json
and, when traced, the spans to .perfbench_out/<workload>.spans.npz.
Exits with 2, printing no result, when the checkout has no grafn sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def import_grafn() -> str | None:
    """Make this checkout's src/grafn the grafn that gets imported; returns
    what went wrong, or None."""
    if not os.path.isfile(os.path.join(SRC, "grafn", "__init__.py")):
        return f"no grafn sources under {SRC}"
    sys.path.insert(0, SRC)
    import grafn

    if os.path.dirname(os.path.dirname(os.path.abspath(grafn.__file__))) != SRC:
        return f"imported grafn from {grafn.__file__}, not from {SRC}"
    return None


def blas_threads() -> str:
    """The thread count of the OpenBLAS that numpy loaded, as grafn runs
    with it; OPENBLAS_NUM_THREADS when the library cannot be asked."""
    import ctypes
    import glob

    import numpy

    for path in glob.glob(os.path.join(os.path.dirname(numpy.__file__) + ".libs", "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, name):
                return str(getattr(lib, name)())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def report(run, env: dict) -> dict:
    metrics = run.metrics()
    return {
        "workload": run.wl.name,
        "seed": run.seed,
        "seconds": run.seconds,
        "trace": int(run.trace),
        "environment": env,
        "metrics": {name: {"value": v, "unit": u, "samples": n}
                    for name, (v, u, n) in metrics.items()},
        "attempted": run.attempted,
        "failed": run.failed,
        "failures": run.failures,
        "loss_digests": {str(seed): d for seed, d in sorted(run.digests.items())},
        "wall_times": run.times,
        "calibrations": [c for _, c in run.calibrations],
    }


def print_report(rep: dict) -> None:
    print(f"perfbench {rep['workload']} seed={rep['seed']} seconds={rep['seconds']} "
          f"trace={rep['trace']}")
    print("environment: " + ", ".join(f"{k} {v}" for k, v in rep["environment"].items()))
    for name, m in rep["metrics"].items():
        print(f"  {name:34s} {m['value']:14.6g} {m['unit']:6s} n={m['samples']}")
    for seed, digest in rep["loss_digests"].items():
        print(f"  loss-history digest, config seed {seed}: {digest}")
    for problem in rep["failures"]:
        print(f"  FAILED: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    problem = import_grafn()
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    env = environment()
    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(workdir)
    os.makedirs(out_dir, exist_ok=True)
    try:
        run = workloads.run(workloads.WORKLOADS[args.workload], args.seed, args.seconds,
                            bool(args.trace), ROOT, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rep = report(run, env)
    print_report(rep)
    stem = os.path.join(out_dir, f"{args.workload}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(rep, fh, indent=1)
    if args.trace:
        tracing.save_tables(os.path.join(out_dir, f"{args.workload}.spans.npz"), run.tables)
    chosen = workloads.PER_LAYER if args.trace else workloads.END_TO_END
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": rep["metrics"][name]["value"], "unit": unit}
                    for name, unit in chosen.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
