"""Workload bodies, run once per fresh worker process.

Each workload drives pdnet from the outside, as a user would: the two
library workloads follow the README quickstart through ``pdnet.*``, and
``cli_sweep`` calls ``pdnet.cli.main`` in-process. A workload reads its
timings from the ``clock`` it is given and returns them with one entry
per op (a run, or a sweep leg) holding the values that the correctness
gate compares and the invariants that failed.

Only the standard library is imported here; pdnet is imported by the
worker inside the timed region.
"""

from __future__ import annotations

import csv
import json
import math
import time
from pathlib import Path

DEFAULT_SEED = 1

#: Workload parameters at full size and at the toy size of the self-test.
PARAMS = {
    "canonical": {
        "full": dict(n=100, d=5, box=0.1, k=20, theta=0.02,
                     reference_iterations=40_000, T=2000, record_every=10),
        "toy": dict(n=20, d=3, box=0.1, k=4, theta=0.02,
                    reference_iterations=2_000, T=200, record_every=10),
    },
    "large_n": {
        "full": dict(n=2000, d=5, box=0.1, k=20, theta=0.02, T=20,
                     record_every=10),
        "toy": dict(n=200, d=5, box=0.1, k=20, theta=0.02, T=20,
                    record_every=10),
    },
    "cli_sweep": {
        "full": dict(n=100, values="0.5,1,2", box=1.0,
                     reference_iterations=10_000, T=1000, record_every=100),
        "toy": dict(n=20, values="0.5,1,2", box=1.0,
                    reference_iterations=1_000, T=200, record_every=20),
    },
}

#: Ops per repetition, so a crashed worker still counts its ops as failed.
OPS_PER_REP = {"canonical": 3, "large_n": 1, "cli_sweep": 3}

CANONICAL_VARIANTS = ("deterministic", "stochastic", "centralized_unregularized")

CERTIFICATE_LIMIT = 1e-4


def seeds(seed: int) -> dict[str, int]:
    """Data, graph and run seeds; the default seed gives the paper's 1, 7, 1."""
    return {"data": seed, "graph": seed + 6, "run": seed}


def check_run(pdnet, problem, trace, reference) -> list[str]:
    """Invariants that hold on every seed; returns the ones that failed."""
    import numpy as np

    bad = []
    if trace.aborted:
        bad.append(f"aborted: {trace.aborted}")
    last = trace.records[-1]
    if last.t != trace.config.iterations:
        bad.append(f"last record at t={last.t}, expected {trace.config.iterations}")
    if reference is not None and not reference.residual <= CERTIFICATE_LIMIT:
        bad.append(f"reference certificate {reference.residual:.3e} > "
                   f"{CERTIFICATE_LIMIT:g}")
    functional = pdnet.violation_functional(problem, trace.final_states)
    if not math.isclose(last.violation_sq, functional, rel_tol=1e-9,
                        abs_tol=1e-15):
        bad.append(f"violation_sq {last.violation_sq!r} != "
                   f"violation_functional {functional!r}")
    norms = np.linalg.norm(trace.final_states.x, axis=1)
    if np.any(norms > problem.radius * (1.0 + 1e-12)):
        bad.append(f"final iterate outside the ball: {norms.max()!r} > "
                   f"{problem.radius!r}")
    if np.any(trace.final_states.lam < 0.0):
        bad.append("negative final dual")
    return bad


def _run_values(trace, reference) -> dict[str, float | None]:
    last = trace.records[-1]
    values = {"eps_G": last.eps, "delta_G": last.delta,
              "violation_sq": last.violation_sq,
              "consensus_diameter": last.consensus_diameter}
    if reference is not None:
        values.update(f_star=reference.f_star, certificate=reference.residual)
    return values


def canonical(pdnet, p: dict, seed: int, tracer, out_root: Path,
              clock) -> dict:
    """README quickstart: reference solve, then three T-step runs."""
    s = seeds(seed)
    tracer.install()
    t0 = clock()
    data = pdnet.generate_dataset(n=p["n"], d=p["d"], seed=s["data"])
    problem = pdnet.build_logistic_problem(data, l=p["box"], u=p["box"])
    reference = pdnet.reference_optimum(problem,
                                        iterations=p["reference_iterations"])
    graph = pdnet.generate_watts_strogatz(p["n"], p["k"], p["theta"],
                                          seed=s["graph"])
    weights = pdnet.lazy_metropolis(graph)
    setup_s = clock() - t0

    traces, run_s = [], 0.0
    for variant in CANONICAL_VARIANTS:
        cfg = pdnet.RunConfig(variant=variant, iterations=p["T"], eta=1.0,
                              seed=s["run"], record_every=p["record_every"])
        t = clock()
        if variant == "centralized_unregularized":
            trace = pdnet.run_centralized_unregularized(problem, cfg,
                                                        reference=reference)
        else:
            trace = pdnet.run(problem, weights, cfg, reference=reference)
        run_s += clock() - t
        traces.append(trace)
    end, raw_end = clock(), time.perf_counter()

    ops = [{"name": variant, "values": _run_values(trace, reference),
            "violations": check_run(pdnet, problem, trace, reference)}
           for variant, trace in zip(CANONICAL_VARIANTS, traces)]
    return {"end": end, "raw_end": raw_end, "setup_s": setup_s, "run_s": run_s,
            "agent_steps": len(traces) * p["n"] * p["T"], "ops": ops}


def large_n(pdnet, p: dict, seed: int, tracer, out_root: Path,
            clock) -> dict:
    """One deterministic run on a large sparse graph, without a reference."""
    s = seeds(seed)
    tracer.install()
    t0 = clock()
    data = pdnet.generate_dataset(n=p["n"], d=p["d"], seed=s["data"])
    problem = pdnet.build_logistic_problem(data, l=p["box"], u=p["box"])
    graph = pdnet.generate_watts_strogatz(p["n"], p["k"], p["theta"],
                                          seed=s["graph"])
    weights = pdnet.lazy_metropolis(graph)
    setup_s = clock() - t0

    cfg = pdnet.RunConfig(variant="deterministic", iterations=p["T"], eta=1.0,
                          seed=s["run"], record_every=p["record_every"])
    t = clock()
    trace = pdnet.run(problem, weights, cfg)
    end, raw_end = clock(), time.perf_counter()
    ops = [{"name": "deterministic", "values": _run_values(trace, None),
            "violations": check_run(pdnet, problem, trace, None)}]
    return {"end": end, "raw_end": raw_end, "setup_s": setup_s, "run_s": end - t,
            "agent_steps": p["n"] * p["T"], "ops": ops}


def _last_csv_row(path: Path) -> dict[str, str]:
    with path.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    return rows[-1]


def cli_sweep(pdnet, p: dict, seed: int, tracer, out_root: Path,
              clock) -> dict:
    """``pdnet sweep --param eta`` on a barbell graph, in-process."""
    s = seeds(seed)
    # time the run calls the CLI makes, and keep their traces for the gate
    runs = []
    engine_run = pdnet.engine.run

    def timed_run(problem, weights, cfg, *args, **kwargs):
        t = clock()
        trace = engine_run(problem, weights, cfg, *args, **kwargs)
        runs.append((t, clock(), problem, trace))
        return trace

    pdnet.engine.run = timed_run
    tracer.install()

    argv = ["sweep", "--param", "eta", "--values", p["values"],
            "--threads", "1", "--record-every", str(p["record_every"]),
            "--out", "sweep"]
    for key, value in (("graph.family", "barbell"), ("problem.n", p["n"]),
                       ("graph.n", p["n"]), ("problem.l", p["box"]),
                       ("problem.u", p["box"]),
                       ("reference.iterations", p["reference_iterations"]),
                       ("run.T", p["T"]), ("problem.data_seed", s["data"]),
                       ("graph.seed", s["graph"]), ("run.seed", s["run"])):
        argv += ["--set", f"{key}={value}"]
    t0 = clock()
    code = pdnet.cli.main(argv)
    end, raw_end = clock(), time.perf_counter()

    sweep_dir = out_root / "sweep"
    with (sweep_dir / "summary.csv").open(newline="") as fh:
        summary = list(csv.DictReader(fh))
    legs = p["values"].split(",")
    ops = []
    for i, value in enumerate(legs):
        leg_dir = sweep_dir / f"leg_eta_{value}"
        row = summary[i] if i < len(summary) else {}
        bad = [] if code == 0 else [f"pdnet sweep exited with {code}"]
        if row.get("status") != "ok":
            bad.append(f"leg status {row.get('status')!r}")
        values = {}
        if i < len(runs):
            _, _, problem, trace = runs[i]
            ref = json.loads((leg_dir / "reference.json").read_text())
            reference = pdnet.ReferenceSolution.from_json_dict(ref)
            bad += check_run(pdnet, problem, trace, reference)
            values = _run_values(trace, reference)
            last = _last_csv_row(leg_dir / "trace.csv")
            written = {"eps_G": (row.get("eps_final"), last["eps_G"]),
                       "delta_G": (row.get("delta_final"), last["delta_G"]),
                       "violation_sq": (row.get("violation_final"),
                                        last["violation_sq"])}
            for key, texts in written.items():
                for text in texts:
                    if text is None or not _same(float(text), values[key]):
                        bad.append(f"artifact {key} {text!r} != run {values[key]!r}")
        else:
            bad.append("leg made no run call")
        ops.append({"name": f"eta={value}", "values": values, "violations": bad})

    first_run = runs[0][0] if runs else end
    artifact_bytes = sum(f.stat().st_size for f in out_root.rglob("*")
                         if f.is_file())
    return {"end": end, "raw_end": raw_end, "setup_s": first_run - t0,
            "run_s": sum(b - a for a, b, _, _ in runs),
            "agent_steps": sum(pr.n_agents * tr.config.iterations
                               for _, _, pr, tr in runs),
            "ops": ops, "artifact_bytes": artifact_bytes}


def _same(a: float, b: float) -> bool:
    return (math.isnan(a) and math.isnan(b)) or a == b


WORKLOADS = {"canonical": canonical, "large_n": large_n, "cli_sweep": cli_sweep}

#: Modules a workload imports, all inside the timed region.
IMPORTS = {"canonical": ("pdnet",), "large_n": ("pdnet",),
           "cli_sweep": ("pdnet", "pdnet.cli")}
