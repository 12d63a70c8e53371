"""Median cost per metric record, one snapshot at a time and chunked, and
of its consensus diameter.

    PYTHONPATH=src python3 tools/time_records.py

For n in {10^2, 2 * 10^3, 10^4} agents (logistic, d = 5, l = u = 0.1, on a
Watts-Strogatz(n, 20, 0.02) graph with lazy Metropolis weights, with a
reference optimum), steps the deterministic variant by hand for 20 steps
and keeps the snapshots of the last steps, as many as a run puts in one
chunk (``metrics.snapshots_per_chunk``). It then
times ``metrics.compute_record`` on them, 15 times each way: one call per
snapshot, as a run computed records before they were chunked, and one
call for the chunk, as a run computes them now; and
``metrics.outputs_diameter`` on the chunk's stacked iterates, as
``compute_record`` calls it. A last table takes the same instance at
n = 10^5 without a reference, stepped from the origin, and gives the
median seconds of the diameter of the iterates at t = 1, 2, 10 and 20
(``DIAMETER_REPEATS`` calls each). BLAS and OpenMP are pinned to one
thread before numpy is imported.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import statistics  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import pdnet  # noqa: E402
from pdnet import engine, metrics  # noqa: E402

SIZES = (100, 2000, 10_000)
STEPS = 20
REPEATS = 15
DIAMETER_N = 100_000
DIAMETER_TIMES = (1, 2, 10, 20)
DIAMETER_REPEATS = 5


def _instance(n: int):
    """The logistic problem, its weights and the resolved deterministic
    config at n agents."""
    problem = pdnet.build_logistic_problem(
        pdnet.generate_dataset(n=n, d=5, seed=1), l=0.1, u=0.1)
    weights = pdnet.lazy_metropolis(
        pdnet.generate_watts_strogatz(n, 20, 0.02, seed=7))
    return problem, weights, engine.resolve_config(
        pdnet.RunConfig(eta=1.0, seed=1), problem)


def _median_seconds(call, repeats: int) -> float:
    costs = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        costs.append(time.perf_counter() - start)
    return statistics.median(costs)


def record_costs(n: int) -> tuple[int, float, float, float]:
    """(records per chunk, median seconds per record one snapshot at a
    time, chunked, and of the chunk's diameters) at n agents."""
    problem, weights, cfg = _instance(n)
    reference = pdnet.reference_optimum(problem, iterations=2000)
    states = engine.initial_states(problem, cfg)
    fgaps, gnorms = metrics.initial_normalizers(problem, states, reference)
    per_chunk = metrics.snapshots_per_chunk(states)
    snapshots = []
    for t in range(STEPS):
        snapshots.append(metrics.Snapshot(
            t, states, *engine._directions(problem, states, cfg, t)))
        states = engine.step(states, problem, weights, t, cfg)
    snapshots = snapshots[-per_chunk:]
    points = np.stack([s.states.x for s in snapshots])

    def records(chunks):
        for chunk in chunks:
            metrics.compute_record(
                problem, chunk, cfg.eta, weights.sigma2, ref=reference,
                initial_fgaps=fgaps, initial_gnorms=gnorms)

    count = len(snapshots)
    return (count,
            _median_seconds(lambda: records([[s] for s in snapshots]),
                            REPEATS) / count,
            _median_seconds(lambda: records([snapshots]), REPEATS) / count,
            _median_seconds(lambda: metrics.outputs_diameter(points),
                            REPEATS) / count)


def diameter_costs(n: int = DIAMETER_N) -> dict[int, float]:
    """t -> median seconds of the consensus diameter of the iterates at t,
    for t in DIAMETER_TIMES, of a reference-free run from the origin."""
    problem, weights, cfg = _instance(n)
    states = engine.initial_states(problem, cfg)
    costs = {}
    for t in range(max(DIAMETER_TIMES)):
        states = engine.step(states, problem, weights, t, cfg)
        if t + 1 in DIAMETER_TIMES:
            points = states.x[None]
            costs[t + 1] = _median_seconds(
                lambda: metrics.outputs_diameter(points), DIAMETER_REPEATS)
    return costs


def main() -> None:
    print(f"{'n':>6} {'per chunk':>9} {'one at a time':>15} {'chunked':>12} "
          f"{'diameter':>11}")
    for n in SIZES:
        per_chunk, one, chunked, diameter = record_costs(n)
        print(f"{n:>6} {per_chunk:>9} {one * 1e3:>12.3f} ms "
              f"{chunked * 1e3:>9.3f} ms {diameter * 1e3:>8.3f} ms  "
              f"({one / chunked:.2f}x)")
    print(f"\ndiameter per record at n = {DIAMETER_N}, no reference:")
    for t, seconds in diameter_costs().items():
        print(f"  t = {t:>2}: {seconds * 1e3:8.1f} ms")


if __name__ == "__main__":
    main()
