"""Median seconds of a run's set-up phases, records and consensus
diameter, by agent count.

    PYTHONPATH=src python3 tools/timings.py

Every table takes one instance: the logistic problem on
``generate_dataset(n, d=5, seed=1)`` over Watts-Strogatz(n, 20, 0.02,
seed 7) with lazy Metropolis weights. BLAS and OpenMP are pinned to one
thread before numpy is imported. Each figure is the median of ``REPEATS``
calls (``REPEATS_LARGE`` at n = 10^5).

- Set-up, for n in ``SIZES``: the dataset; each graph family, namely the
  Watts-Strogatz graph, the 8-connected lattice on the grid of ``GRIDS``,
  and Erdos-Renyi(n, 0.06) and the one-bridge barbell up to n = 2000 only,
  as their edge counts grow as n^2; the ``GraphTopology`` constructor on
  the Watts-Strogatz edges; both weight schemes on that graph; sigma2 of
  its lazy Metropolis matrix, up to n = 10^4; and the reference solve
  (``iterations=10_000``) at l = u = 1.0, where the ball binds as in the
  benchmark's ``cli_sweep`` (``reference``), and at l = u = 0.1, where
  only the box binds as in ``canonical`` (``reference_box``).
- Records, up to n = 10^4, at l = u = 0.1 with a reference: a
  deterministic run of ``STEPS`` steps that records every step. Per
  record, ``trace.records_s / len(trace.records)``, the run's own timer
  that the CLI writes to the manifest's ``derived.timings.records_s``;
  and ``metrics.outputs_diameter`` of the run's final iterates.
- The diameter at n = 10^5 without a reference, of the iterates at t = 1,
  2, 10 and 20 of a run from the origin stepped with ``engine.step``
  (``DIAMETER_REPEATS`` calls each).
- ``import pdnet`` and ``import pdnet.cli``: the median over
  ``IMPORT_REPEATS`` fresh processes of the wall seconds of ``python -c
  "import pdnet"`` (or ``pdnet.cli``), interpreter start included, and of
  its peak RSS.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import pdnet  # noqa: E402
from pdnet import engine, graphs, metrics  # noqa: E402

SIZES = (100, 2000, 10_000, 100_000)
GRIDS = {100: (10, 10), 2000: (40, 50), 10_000: (100, 100),
         100_000: (250, 400)}
#: largest n for the families with n^2 edges, and for sigma2
DENSE_FAMILY_MAX_N = 2000
SIGMA2_MAX_N = 10_000
STEPS = 20
DIAMETER_TIMES = (1, 2, 10, 20)
REPEATS = 9
REPEATS_LARGE = 3
DIAMETER_REPEATS = 5
IMPORT_REPEATS = 7


def median_seconds(call, repeats: int) -> float:
    costs = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        costs.append(time.perf_counter() - start)
    return statistics.median(costs)


def instance(n: int):
    """The dataset, the Watts-Strogatz graph, its lazy Metropolis weights
    and the logistic problem at l = u = 0.1, at n agents."""
    data = pdnet.generate_dataset(n=n, d=5, seed=1)
    ws = graphs.generate_watts_strogatz(n, 20, 0.02, seed=7)
    return (data, ws, graphs.lazy_metropolis(ws),
            pdnet.build_logistic_problem(data, 0.1, 0.1))


def phase_costs(n: int) -> dict[str, float | None]:
    """Median seconds of each set-up phase at n agents; None where skipped."""
    repeats = REPEATS if n < 100_000 else REPEATS_LARGE
    dense = n <= DENSE_FAMILY_MAX_N
    data, ws, lazy, in_box = instance(n)
    in_ball = pdnet.build_logistic_problem(data, 1.0, 1.0)
    calls = {
        "dataset": lambda: pdnet.generate_dataset(n=n, d=5, seed=1),
        "watts_strogatz": lambda: graphs.generate_watts_strogatz(
            n, 20, 0.02, seed=7),
        "lattice8": lambda: graphs.generate_lattice8(*GRIDS[n]),
        "erdos_renyi": (lambda: graphs.generate_erdos_renyi(n, 0.06, seed=7))
        if dense else None,
        "barbell": (lambda: graphs.generate_barbell(n)) if dense else None,
        "topology": lambda: graphs.GraphTopology(n, ws.edge_array),
        "lazy_metropolis": lambda: graphs.lazy_metropolis(ws),
        "laplacian": lambda: graphs.laplacian_weights(ws),
        # the solve itself: ``sigma2`` is cached on the matrix after one read
        "sigma2": (lambda: graphs._second_singular_value(lazy))
        if n <= SIGMA2_MAX_N else None,
        "reference": lambda: pdnet.reference_optimum(in_ball, 10_000),
        "reference_box": lambda: pdnet.reference_optimum(in_box, 10_000),
    }
    return {name: None if call is None else median_seconds(call, repeats)
            for name, call in calls.items()}


def record_costs(n: int) -> tuple[int, float, float]:
    """(records of the run, median seconds per record by the run's own
    timer, median seconds of the diameter of its final iterates) at n
    agents."""
    _, _, weights, problem = instance(n)
    reference = pdnet.reference_optimum(problem, iterations=2000)
    cfg = pdnet.RunConfig(iterations=STEPS, seed=1, record_every=1)
    traces = [pdnet.run(problem, weights, cfg, reference)
              for _ in range(REPEATS)]
    points = traces[0].final_states.x[None]
    return (len(traces[0].records),
            statistics.median(t.records_s / len(t.records) for t in traces),
            median_seconds(lambda: metrics.outputs_diameter(points), REPEATS))


def diameter_costs(n: int = SIZES[-1]) -> dict[int, float]:
    """t -> median seconds of the consensus diameter of the iterates at t,
    for t in DIAMETER_TIMES, of a reference-free run from the origin."""
    _, _, weights, problem = instance(n)
    cfg = pdnet.RunConfig(seed=1)
    states = engine.initial_states(problem, cfg)
    costs = {}
    for t in range(max(DIAMETER_TIMES)):
        states = engine.step(states, problem, weights, t, cfg)
        if t + 1 in DIAMETER_TIMES:
            points = states.x[None]
            costs[t + 1] = median_seconds(
                lambda: metrics.outputs_diameter(points), DIAMETER_REPEATS)
    return costs


def import_cost(module: str) -> tuple[float, float]:
    """Median wall seconds and peak RSS (MB) of ``python -c "import
    <module>"`` over IMPORT_REPEATS fresh processes."""
    # the child's own peak, VmHWM: Linux carries the parent's peak into the
    # child's ru_maxrss across fork and exec
    code = (f"import {module}\n"
            "status = open('/proc/self/status').read()\n"
            "print(status.split('VmHWM:')[1].split()[0])\n")
    seconds, rss = [], []
    for _ in range(IMPORT_REPEATS):
        start = time.perf_counter()
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True).stdout
        seconds.append(time.perf_counter() - start)
        rss.append(int(out) / 1024.0)  # in kB
    return statistics.median(seconds), statistics.median(rss)


def main() -> None:
    rows = {n: phase_costs(n) for n in SIZES}
    print(f"{'phase (s)':<16}" + "".join(f"{n:>12}" for n in SIZES))
    for name in rows[SIZES[0]]:
        cells = ("-" if rows[n][name] is None else f"{rows[n][name]:.5f}"
                 for n in SIZES)
        print(f"{name:<16}" + "".join(f"{c:>12}" for c in cells))
    print(f"\n{'n':>6} {'records':>8} {'per record':>13} {'diameter':>11}")
    for n in SIZES[:-1]:
        count, per_record, diameter = record_costs(n)
        print(f"{n:>6} {count:>8} {per_record * 1e3:>10.3f} ms "
              f"{diameter * 1e3:>8.3f} ms")
    print(f"\ndiameter at n = {SIZES[-1]}, no reference:")
    for t, seconds in diameter_costs().items():
        print(f"  t = {t:>2}: {seconds * 1e3:8.1f} ms")
    print()
    for module in ("pdnet", "pdnet.cli"):
        seconds, rss = import_cost(module)
        print(f"{'import ' + module:<16}{seconds:>12.5f}  s, peak RSS "
              f"{rss:.1f} MB (fresh process, any n)")


if __name__ == "__main__":
    main()
