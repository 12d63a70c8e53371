"""Command line entry point: generate-graph, run, sweep, verify.

All commands are driven by the flat dotted-key config (file plus --set
overrides). Every run directory receives a manifest that reproduces the
run exactly; traces are CSV. Each run solves its reference optimum
afresh, as the exact solve takes milliseconds. Exit codes: 0 success,
1 verification failure, 2 configuration error (or an allocation that
fails), 3 runtime divergence.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import math
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from . import __version__, config as cfgmod, engine, metrics, problems, verify
from .config import ConfigError
from .engine import EngineError
from .graphs import GraphError, WeightMatrixError, spectral_gap
from .problems import ProblemError, ReferenceError

OUTPUT_ROOT_ENV = "PDNET_OUTPUT_ROOT"

#: Thread-count variables recorded in the manifest's environment block.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_DIVERGED = 3

#: Errors reported as one ``error:`` line with exit 2. MemoryError is
#: among them: a size below what a numpy array can hold may still be more
#: than the host can allocate.
_CONFIG_ERRORS = (ConfigError, GraphError, WeightMatrixError, ProblemError,
                  EngineError, ReferenceError, OSError, MemoryError)


def _error_text(exc: BaseException) -> str:
    return str(exc) or type(exc).__name__


def _add_common(parser: argparse.ArgumentParser, record_every: bool) -> None:
    parser.add_argument("--config", help="flat key=value configuration file")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override one configuration key (repeatable)")
    parser.add_argument("--out", help="output directory (overrides output_dir)")
    if record_every:
        parser.add_argument("--record-every", help="metric sampling stride override")


def _load_config(args) -> dict:
    """The config file, then --set, --out and --record-every, typed alike."""
    entries = cfgmod.read_config_file(args.config) if args.config else {}
    overrides = list(args.set)
    if args.out:
        overrides.append(f"output_dir={args.out}")
    if getattr(args, "record_every", None) is not None:
        overrides.append(f"run.record_every={args.record_every}")
    return cfgmod.apply_overrides(cfgmod.parse_config(entries), overrides)


def _output_root() -> Path:
    return Path(os.environ.get(OUTPUT_ROOT_ENV, "."))


def _resolve_out_dir(config: dict) -> Path:
    out = Path(str(config["output_dir"]))
    return out if out.is_absolute() else _output_root() / out


def _write_atomic(path: Path, text: str) -> None:
    """Write ``text`` to a temporary file beside ``path``, then rename it
    into place, so a failed write leaves neither a partial artifact nor
    the temporary file."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _float_csv(values) -> str:
    return ",".join(repr(float(v)) for v in values)


# ---------------------------------------------------------------------------
# generate-graph
# ---------------------------------------------------------------------------

def cmd_generate_graph(args) -> int:
    config = _load_config(args)
    g = cfgmod.build_graph(config)
    w = cfgmod.build_weights(config, g)
    out_dir = _resolve_out_dir(config)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_atomic(out_dir / "graph_edges.txt", g.to_edgelist_text())
    _write_atomic(out_dir / "weight_matrix.csv", w.to_csv_text())
    gap = spectral_gap(w)
    report = {
        "family": config["graph.family"],
        "scheme": config["weights.scheme"],
        "n": g.n,
        "edge_count": len(g.edge_array),
        "sigma2": w.sigma2,
        "spectral_gap": gap,
        "bound_71n2": 71.0 * g.n ** 2,
        "bound_margin": 71.0 * g.n ** 2 - 1.0 / gap if gap > 0 else float("-inf"),
    }
    _write_atomic(out_dir / "spectral_report.json",
                  json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"graph written to {out_dir} (n={g.n}, edges={len(g.edge_array)}, "
          f"gap={gap:.6g})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def _write_xhat(path: Path, trace: engine.Trace) -> None:
    avg = trace.final_states.averages()
    dim = trace.final_states.x.shape[1]
    header = "agent," + ",".join(f"x_{k + 1}" for k in range(dim))
    lines = [header]
    if avg is not None:
        lines += [f"{i}," + _float_csv(row) for i, row in enumerate(avg)]
    _write_atomic(path, "\n".join(lines) + "\n")


def _rate_fits(trace: engine.Trace, horizon: int) -> dict[str, metrics.RateFit | None]:
    """Decay exponents of eps and violation_sq over t in [max(10, T/100), T].

    A column whose fit is undefined (too few or nonpositive records) maps
    to None.
    """
    fits = {}
    for column in ("eps", "violation_sq"):
        try:
            fits[column] = metrics.rate_fit(trace, column,
                                            (max(10, horizon // 100), horizon))
        except metrics.MetricError:
            fits[column] = None
    return fits


def execute_run(config: dict, out_dir: Path):
    """Build everything from a config, run, and persist all artifacts.

    Returns the trace and its ``_rate_fits``. The manifest's
    ``derived.timings`` holds the wall seconds of the reference solve,
    of building the graph and weights, of the run, and of the run's
    records, so it differs between reruns while the other artifacts do
    not.
    """
    p = cfgmod.build_problem(config)
    start = time.perf_counter()
    ref = problems.reference_optimum(
        p, iterations=int(config["reference.iterations"]))
    timings = {"reference_s": time.perf_counter() - start, "build_s": 0.0}
    run_cfg = cfgmod.build_run_config(config)
    w = None  # the centralized baseline reads no mixing matrix
    if run_cfg.variant == engine.CENTRALIZED_UNREGULARIZED:
        graph_info = {"family": None, "nodes": 1, "edges": 0, "sigma2": 0.0,
                      "sigma2_method": None}
    else:
        start = time.perf_counter()
        g = cfgmod.build_graph(config)
        w = cfgmod.build_weights(config, g)
        graph_info = {"family": config["graph.family"], "nodes": g.n,
                      "edges": len(g.edge_array), "sigma2": w.sigma2,
                      "sigma2_method": w.sigma2_method}
        timings["build_s"] = time.perf_counter() - start
    start = time.perf_counter()
    trace = engine.run(p, w, run_cfg, reference=ref)
    timings["run_s"] = time.perf_counter() - start
    timings["records_s"] = trace.records_s

    out_dir.mkdir(parents=True, exist_ok=True)
    _write_atomic(out_dir / "trace.csv", trace.to_csv_text())
    _write_xhat(out_dir / "xhat.csv", trace)
    _write_atomic(out_dir / "reference.json",
                  json.dumps(ref.to_json_dict(), sort_keys=True) + "\n")
    fits = _rate_fits(trace, int(config["run.T"]))
    manifest = {
        "package_version": __version__,
        "config": config,
        "environment": _environment(),
        "derived": {
            "graph": graph_info,
            "resolved_eta": trace.config.eta,
            "resolved_step_scale": trace.config.step_scale,
            "f_star": ref.f_star,
            "reference_residual": ref.residual,
            "reference_method": ref.method,
            "aborted": trace.aborted,
            "warnings": trace.warnings,
            "timings": timings,
            "rate_fits": {
                column: None if fit is None else {"exponent": fit.exponent,
                                                  "r2": fit.r2}
                for column, fit in fits.items()},
        },
    }
    _write_atomic(out_dir / "manifest.json",
                  json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return trace, fits


def _environment() -> dict[str, str | None]:
    """Interpreter and library versions plus the BLAS thread settings."""
    env = {"python": platform.python_version(), "numpy": np.__version__,
           "scipy": scipy.__version__}
    for var in BLAS_THREAD_VARS:
        env[var] = os.environ.get(var)
    return env


def cmd_run(args) -> int:
    config = _load_config(args)
    out_dir = _resolve_out_dir(config)
    trace, _ = execute_run(config, out_dir)
    last = trace.records[-1]
    print(f"run complete: t={last.t} eps_G={last.eps:.6g} "
          f"delta_G={last.delta:.6g} violation_sq={last.violation_sq:.6g} "
          f"-> {out_dir}")
    if trace.aborted:
        print(f"run aborted: {trace.aborted}", file=sys.stderr)
        return EXIT_DIVERGED
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

#: Sweep parameter -> the config keys its value sets. ``r`` is typed as
#: run.eta is, then sets run.eta = T^-r.
SWEEP_PARAMS = {"eta": ("run.eta",), "n": ("problem.n", "graph.n"),
                "T": ("run.T",), "graph.family": ("graph.family",),
                "variant": ("run.variant",), "r": ("run.eta",)}


def _apply_sweep_value(config: dict, param: str, raw: str) -> dict:
    if param not in SWEEP_PARAMS:
        raise ConfigError(f"sweep parameter must be one of "
                          f"{', '.join(SWEEP_PARAMS)}")
    out = cfgmod.apply_overrides(config,
                                 [f"{key}={raw}" for key in SWEEP_PARAMS[param]])
    if param == "r":
        try:
            out["run.eta"] = math.pow(out["run.T"], -out["run.eta"])
        except (OverflowError, ValueError):
            raise ConfigError(f"r = {raw}: T^-r is undefined or overflows") from None
    return out


def _leg_summary(param: str, value: str, config: dict,
                 out_dir: Path) -> dict[str, object]:
    row: dict[str, object] = {"param": param, "value": value,
                              "dir": out_dir.name, "status": "ok"}
    try:
        trace, fits = execute_run(config, out_dir)
        if trace.aborted:
            row["status"] = f"diverged: {trace.aborted}"
        last = trace.records[-1]
        row["eps_final"] = last.eps
        row["delta_final"] = last.delta
        row["violation_final"] = last.violation_sq
        for column, key in (("eps", "eps_rate"), ("violation_sq", "viol_rate")):
            row[key] = float("nan") if fits[column] is None else fits[column].exponent
    except _CONFIG_ERRORS as exc:
        row["status"] = f"error: {_error_text(exc)}"
        for key in ("eps_final", "delta_final", "violation_final",
                    "eps_rate", "viol_rate"):
            row[key] = float("nan")
    return row


def _run_leg(packed):
    param, value, config, out_dir = packed
    return _leg_summary(param, value, config, Path(out_dir))


def cmd_sweep(args) -> int:
    config = _load_config(args)
    values = [v for v in args.values.split(",") if v]
    if not values:
        raise ConfigError("sweep needs a nonempty --values list")
    base_dir = _resolve_out_dir(config)

    legs = []
    for value in values:
        leg_config = _apply_sweep_value(config, args.param, value)
        leg_dir = base_dir / f"leg_{args.param.replace('.', '_')}_{value}"
        leg_config["output_dir"] = str(leg_dir)
        legs.append((args.param, value, leg_config, str(leg_dir)))
    base_dir.mkdir(parents=True, exist_ok=True)

    workers = min(args.threads, len(legs))
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(workers) as pool:
            rows = list(pool.map(_run_leg, legs))
    else:
        rows = [_run_leg(leg) for leg in legs]

    columns = ("param", "value", "dir", "status", "eps_final", "delta_final",
               "violation_final", "eps_rate", "viol_rate")
    lines = [",".join(columns)]
    for row in rows:
        rendered = []
        for col in columns:
            val = row.get(col, "")
            if isinstance(val, float):
                rendered.append(repr(val))
            else:
                rendered.append(str(val).replace(",", ";"))
        lines.append(",".join(rendered))
    _write_atomic(base_dir / "summary.csv", "\n".join(lines) + "\n")
    print(f"sweep complete: {len(rows)} legs -> {base_dir / 'summary.csv'}")
    failed = [r for r in rows if r["status"] != "ok"]
    for row in failed:
        print(f"  leg {row['value']}: {row['status']}", file=sys.stderr)
    return EXIT_OK if not failed else EXIT_DIVERGED


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    results = verify.full_checks() if args.level == "full" else verify.quick_checks()
    width = max(len(r.name) for r in results)
    failures = 0
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        line = f"{r.name:<{width}}  {status}"
        if r.detail:
            line += f"  ({r.detail})"
        print(line)
        failures += 0 if r.ok else 1
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return EXIT_OK if failures == 0 else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdnet",
        description="Distributed regularized primal-dual experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_graph = sub.add_parser("generate-graph",
                             help="write edge list, weights, spectral report")
    _add_common(p_graph, record_every=False)
    p_graph.set_defaults(func=cmd_generate_graph)

    p_run = sub.add_parser("run", help="execute one configured run")
    _add_common(p_run, record_every=True)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run one leg per parameter value")
    _add_common(p_sweep, record_every=True)
    p_sweep.add_argument("--threads", type=int, default=1,
                         help="parallel sweep legs (processes)")
    p_sweep.add_argument("--param", required=True,
                         help=f"one of {', '.join(SWEEP_PARAMS)}")
    p_sweep.add_argument("--values", required=True,
                         help="comma separated values, typed as --set values")
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="run invariant/theory suites")
    p_verify.add_argument("level", choices=("quick", "full"), nargs="?",
                          default="quick")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CONFIG_ERRORS as exc:
        print(f"error: {_error_text(exc)}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
