"""One benchmark repetition, run by ``run.py`` in a fresh process.

    python3 perfbench/worker.py --workload canonical --seed 1 --trace 0 \
        --size full --result result.json

The clock starts before pdnet is imported and stops at the workload's last
output; the correctness checks run after it. Times are read from
``speed.SpeedClock``, in seconds at the reference speed of the core; the
raw wall time is kept as well. numpy is imported before the clock starts,
because the speed clock needs it. The result, including the per-layer
summary of a traced repetition, is written once at the end.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import numpy  # noqa: F401  (imported before the clock starts)

import speed
import tracer as tracing
import workloads


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas,
        "threads": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full")
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    clock = speed.SpeedClock()
    tracer = tracing.Tracer(clock) if args.trace else tracing.NullTracer()
    params = workloads.PARAMS[args.workload][args.size]
    clock.start()
    raw_t0 = time.perf_counter()
    t0 = clock()
    for module in workloads.IMPORTS[args.workload]:
        importlib.import_module(module)
    import_s = clock() - t0
    try:
        out = workloads.WORKLOADS[args.workload](
            sys.modules["pdnet"], params, args.seed, tracer, Path.cwd(), clock)
    finally:
        clock.stop()

    result = {
        "wall_s": out["end"] - t0,
        "raw_wall_s": out["raw_end"] - raw_t0,
        "slowdown": clock.slowdown(),
        "import_s": import_s,
        "setup_s": out["setup_s"],
        "run_s": out["run_s"],
        "agent_steps": out["agent_steps"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": out["ops"],
        "environment": environment(),
    }
    if args.trace:
        layers = tracer.layer_metrics()
        layers["pdnet.import_s"] = import_s
        layers["cli.artifact_bytes"] = out.get("artifact_bytes", 0)
        result["layers"] = layers
        result["missing"] = {metric: tracer.missing_for(metric)
                             for metric in layers if layers[metric] is None}
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
