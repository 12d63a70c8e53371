"""Median seconds of each set-up phase of a run, by agent count.

    PYTHONPATH=src python3 tools/time_setup.py

For n in {10^2, 2 * 10^3, 10^4, 10^5} agents, times: the dataset
(logistic, d = 5, seed 1); each graph family, namely Watts-Strogatz(n, 20,
0.02, seed 7), the 8-connected lattice on the grid of ``GRIDS``, and
Erdos-Renyi(n, 0.06) and the one-bridge barbell up to n = 2000 only, as
their edge counts grow as n^2; the ``GraphTopology`` constructor on the
Watts-Strogatz edges; both weight schemes on that graph; and sigma2 of its
lazy Metropolis matrix, up to n = 10^4; and the reference solve
(``iterations=10_000``) on that dataset at l = u = 1.0, where the ball
binds as in the benchmark's ``cli_sweep`` (``reference``), and at
l = u = 0.1, where only the box binds as in ``canonical``
(``reference_box``). Each figure is the median of
``REPEATS`` calls (``REPEATS_LARGE`` at n = 10^5). BLAS and OpenMP are
pinned to one thread before numpy is imported. Two last rows give
``import pdnet`` and ``import pdnet.cli`` in a fresh process: the median
over ``IMPORT_REPEATS`` processes of the wall seconds of ``python -c
"import pdnet"`` (or ``pdnet.cli``), interpreter start included, and of
its peak RSS.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import pdnet  # noqa: E402
from pdnet import graphs  # noqa: E402

SIZES = (100, 2000, 10_000, 100_000)
GRIDS = {100: (10, 10), 2000: (40, 50), 10_000: (100, 100),
         100_000: (250, 400)}
#: largest n for the families with n^2 edges, and for sigma2
DENSE_FAMILY_MAX_N = 2000
SIGMA2_MAX_N = 10_000
REPEATS = 9
REPEATS_LARGE = 3
IMPORT_REPEATS = 7


def median_seconds(call, repeats: int) -> float:
    costs = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        costs.append(time.perf_counter() - start)
    return statistics.median(costs)


def phase_costs(n: int) -> dict[str, float | None]:
    """Median seconds of each phase at n agents; None where skipped."""
    repeats = REPEATS if n < 100_000 else REPEATS_LARGE
    dense = n <= DENSE_FAMILY_MAX_N
    ws = graphs.generate_watts_strogatz(n, 20, 0.02, seed=7)
    lazy = graphs.lazy_metropolis(ws)
    data = pdnet.generate_dataset(n=n, d=5, seed=1)
    in_ball = pdnet.build_logistic_problem(data, 1.0, 1.0)
    in_box = pdnet.build_logistic_problem(data, 0.1, 0.1)
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


def import_cost(module: str) -> tuple[float, float]:
    """Median wall seconds and peak RSS (MB) of ``python -c "import
    <module>"`` over IMPORT_REPEATS fresh processes."""
    code = ("import resource\n"
            f"import {module}\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
    seconds, rss = [], []
    for _ in range(IMPORT_REPEATS):
        start = time.perf_counter()
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True).stdout
        seconds.append(time.perf_counter() - start)
        rss.append(int(out) / 1024.0)  # ru_maxrss is in KB on Linux
    return statistics.median(seconds), statistics.median(rss)


def main() -> None:
    rows = {n: phase_costs(n) for n in SIZES}
    names = list(rows[SIZES[0]])
    print(f"{'phase (s)':<16}" + "".join(f"{n:>12}" for n in SIZES))
    for name in names:
        cells = ("-" if rows[n][name] is None else f"{rows[n][name]:.5f}"
                 for n in SIZES)
        print(f"{name:<16}" + "".join(f"{c:>12}" for c in cells))
    for module in ("pdnet", "pdnet.cli"):
        seconds, rss = import_cost(module)
        print(f"{'import ' + module:<16}{seconds:>12.5f}  s, peak RSS "
              f"{rss:.1f} MB (fresh process, any n)")


if __name__ == "__main__":
    main()
