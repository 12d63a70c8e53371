"""Median cost of one metric record, with and without a reference optimum.

    PYTHONPATH=src python3 tools/time_records.py

For n in {10^2, 2 * 10^3, 10^4} agents (logistic, d = 5, l = u = 0.1, on a
Watts-Strogatz(n, 20, 0.02) graph with lazy Metropolis weights), runs the
deterministic variant for 20 steps and then times ``metrics.compute_record``
on its final states, as the engine calls it at the horizon (with the
horizon directions and the t = 0 normalizers), 15 times each way. BLAS and
OpenMP are pinned to one thread before numpy is imported.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import math  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

import pdnet  # noqa: E402
from pdnet import engine, metrics  # noqa: E402

SIZES = (100, 2000, 10_000)
STEPS = 20
REPEATS = 15


def record_costs(n: int) -> tuple[float, float]:
    """Median seconds per record at n agents: (with, without) a reference."""
    problem = pdnet.build_logistic_problem(
        pdnet.generate_dataset(n=n, d=5, seed=1), l=0.1, u=0.1)
    weights = pdnet.lazy_metropolis(
        pdnet.generate_watts_strogatz(n, 20, 0.02, seed=7))
    reference = pdnet.reference_optimum(problem, iterations=2000)
    cfg = pdnet.RunConfig(iterations=STEPS, eta=1.0, seed=1)
    trace = pdnet.run(problem, weights, cfg)
    states, cfg = trace.final_states, trace.config
    grad_x, grad_lam = engine._directions(problem, states, cfg)

    def median_cost(ref) -> float:
        fgaps, gnorms = metrics.initial_normalizers(
            problem, trace.initial_states, ref)
        # only the rate bound, which needs the reference, reads sigma2
        sigma2 = math.nan if ref is None else weights.sigma2
        costs = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            metrics.compute_record(problem, states, STEPS, cfg.eta, sigma2,
                                   ref=ref, initial_fgaps=fgaps,
                                   initial_gnorms=gnorms, grad_x_rows=grad_x,
                                   grad_lambda_rows=grad_lam)
            costs.append(time.perf_counter() - start)
        return statistics.median(costs)

    return median_cost(reference), median_cost(None)


def main() -> None:
    print(f"{'n':>6} {'with reference':>16} {'without':>12}")
    for n in SIZES:
        with_ref, without = record_costs(n)
        print(f"{n:>6} {with_ref * 1e3:>13.3f} ms {without * 1e3:>9.3f} ms")


if __name__ == "__main__":
    main()
