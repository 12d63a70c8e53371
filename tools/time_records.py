"""Median cost per metric record, one snapshot at a time and chunked.

    PYTHONPATH=src python3 tools/time_records.py

For n in {10^2, 2 * 10^3, 10^4} agents (logistic, d = 5, l = u = 0.1, on a
Watts-Strogatz(n, 20, 0.02) graph with lazy Metropolis weights, with a
reference optimum), steps the deterministic variant by hand for 20 steps
and keeps the snapshots of the last steps, as many as a run puts in one
chunk (``metrics.snapshots_per_chunk``). It then
times ``metrics.compute_record`` on them, 15 times each way: one call per
snapshot, as a run computed records before they were chunked, and one
call for the chunk, as a run computes them now. BLAS and OpenMP are
pinned to one thread before numpy is imported.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import statistics  # noqa: E402
import time  # noqa: E402

import pdnet  # noqa: E402
from pdnet import engine, metrics  # noqa: E402

SIZES = (100, 2000, 10_000)
STEPS = 20
REPEATS = 15


def record_costs(n: int) -> tuple[int, float, float]:
    """(records per chunk, median seconds per record one snapshot at a
    time, median seconds per record chunked) at n agents."""
    problem = pdnet.build_logistic_problem(
        pdnet.generate_dataset(n=n, d=5, seed=1), l=0.1, u=0.1)
    weights = pdnet.lazy_metropolis(
        pdnet.generate_watts_strogatz(n, 20, 0.02, seed=7))
    reference = pdnet.reference_optimum(problem, iterations=2000)
    cfg = engine.resolve_config(pdnet.RunConfig(eta=1.0, seed=1), problem)
    states = engine.initial_states(problem, cfg)
    fgaps, gnorms = metrics.initial_normalizers(problem, states, reference)
    per_chunk = metrics.snapshots_per_chunk(states)
    snapshots = []
    for t in range(STEPS):
        snapshots.append(metrics.Snapshot(
            t, states, *engine._directions(problem, states, cfg, t)))
        states = engine.step(states, problem, weights, t, cfg)
    snapshots = snapshots[-per_chunk:]

    def median_cost(chunks) -> float:
        costs = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            for chunk in chunks:
                metrics.compute_record(
                    problem, chunk, cfg.eta, weights.sigma2, ref=reference,
                    initial_fgaps=fgaps, initial_gnorms=gnorms)
            costs.append((time.perf_counter() - start) / len(snapshots))
        return statistics.median(costs)

    return (len(snapshots), median_cost([[s] for s in snapshots]),
            median_cost([snapshots]))


def main() -> None:
    print(f"{'n':>6} {'per chunk':>9} {'one at a time':>15} {'chunked':>12}")
    for n in SIZES:
        per_chunk, one, chunked = record_costs(n)
        print(f"{n:>6} {per_chunk:>9} {one * 1e3:>12.3f} ms "
              f"{chunked * 1e3:>9.3f} ms  ({one / chunked:.2f}x)")


if __name__ == "__main__":
    main()
