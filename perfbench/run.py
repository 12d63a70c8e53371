"""pdnet benchmark: run workloads, check their outputs, print metrics.

    python3 perfbench/run.py --workload canonical --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all

Runs the workload in fresh worker processes, one after another (a closed
loop with one client), until ``--seconds`` is spent; each repetition gets
a fresh output root, so the CLI's reference cache starts cold as on a
user's first run. BLAS and OpenMP are pinned to one thread. Times are
in reference seconds: each worker scales its wall time by the speed of
its core, sampled every 30 ms (see ``speed.py``). Every op's
outputs go through the correctness gate. The last line printed is one
JSON object: medians of the end-to-end metrics (``--trace 0``) or of the
per-layer metrics (``--trace 1``), named and with units as in
BENCHMARK.json. A ``--trace 1`` run alternates untraced and traced
repetitions and reports the difference as the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_tmp"
EXPECTED = HERE / "expected.json"
PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: stop starting repetitions past this, so a run ends within 180 s
HARD_LIMIT_S = 165.0
#: stored outputs must match this closely (reordered sums pass)
REL_TOL = 1e-6
ABS_TOL = 1e-12


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def run_worker(name: str, seed: int, traced: bool, size: str,
               timeout: float) -> dict | None:
    """One repetition in a fresh process and output root; None if it failed."""
    SCRATCH.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=SCRATCH))
    env = dict(os.environ, PDNET_OUTPUT_ROOT=str(tmp),
               PYTHONPATH=os.pathsep.join(
                   p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH"))
                   if p))
    env.update(dict.fromkeys(PINNED_THREADS, "1"))
    result = tmp / "result.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name,
           "--seed", str(seed), "--trace", str(int(traced)), "--size", size,
           "--result", str(result)]
    try:
        proc = subprocess.run(cmd, cwd=tmp, env=env, capture_output=True,
                              text=True, timeout=max(timeout, 1.0))
        if proc.returncode != 0 or not result.exists():
            print(f"# worker failed ({proc.returncode}): "
                  f"{proc.stderr.strip()[-2000:]}", file=sys.stderr)
            return None
        return json.loads(result.read_text())
    except subprocess.TimeoutExpired:
        print(f"# worker timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _matches(got, want) -> bool:
    if want is None or got is None:
        return (want is None or math.isnan(want)) and (got is None or math.isnan(got))
    return math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def gate(name: str, reps: list, expected: dict | None) -> tuple[int, int, list[str]]:
    """Count ops and failed ops; a crashed repetition fails all its ops."""
    attempted = failed = 0
    messages = []
    for rep in reps:
        if rep is None:
            attempted += workloads.OPS_PER_REP[name]
            failed += workloads.OPS_PER_REP[name]
            messages.append("repetition crashed")
            continue
        for op in rep["ops"]:
            problems = list(op["violations"])
            if expected is not None:
                want = expected.get(op["name"])
                if want is None:
                    problems.append("no stored expectation")
                else:
                    problems += [
                        f"{key} = {op['values'].get(key)!r}, stored {value!r}"
                        for key, value in want.items()
                        if not _matches(op["values"].get(key), value)]
            attempted += 1
            if problems:
                failed += 1
                messages.append(f"{op['name']}: " + "; ".join(problems))
    return attempted, failed, messages


def measure(name: str, seed: int, seconds: float, traced: bool, size: str,
            expected: dict | None) -> dict:
    """Repetitions until the time budget is spent; medians and gate counts."""
    start = time.perf_counter()
    reps: list[tuple[bool, dict | None]] = []
    durations = []
    while True:
        mode = traced and len(reps) % 2 == 1  # traced runs alternate with plain
        t = time.perf_counter()
        left = HARD_LIMIT_S - (t - start)
        reps.append((mode, run_worker(name, seed, mode, size, left)))
        durations.append(time.perf_counter() - t)
        elapsed = time.perf_counter() - start
        if (len(reps) >= (2 if traced else 1)
                and elapsed + max(durations) > min(seconds, HARD_LIMIT_S)):
            break

    attempted, failed, messages = gate(name, [r for _, r in reps], expected)
    plain = [r for m, r in reps if not m and r is not None]
    with_trace = [r for m, r in reps if m and r is not None]
    if not plain or (traced and not with_trace):
        raise BenchError(f"{name}: every repetition failed")
    for mode, rep in reps:
        if rep is not None:
            print(f"# {name} rep traced={int(mode)}: wall {rep['wall_s']:.3f} s, "
                  f"setup {rep['setup_s']:.3f} s, run {rep['run_s']:.3f} s "
                  f"(reference seconds; raw wall {rep['raw_wall_s']:.3f} s, "
                  f"core slowdown {rep['slowdown']:.2f}x), "
                  f"peak rss {rep['peak_rss_mb']:.1f} MB")
    for message in messages:
        print(f"# {name} FAILED {message}")
    return {"attempted": attempted, "failed": failed, "plain": plain,
            "traced": with_trace, "reps": reps}


def end_to_end(plain: list[dict]) -> dict[str, float]:
    return {
        "wall_s": statistics.median(r["wall_s"] for r in plain),
        "setup_s": statistics.median(r["setup_s"] for r in plain),
        "agent_steps_per_s": statistics.median(
            r["agent_steps"] / r["run_s"] for r in plain),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }


def per_layer(reps: list[tuple[bool, dict | None]]) -> tuple[dict, dict]:
    """Per-layer medians (a measured sample each); None where hooks are missing.

    The tracing overhead pairs each traced repetition with the plain one
    just before it, so slow drift in machine load cancels.
    """
    traced = [r for m, r in reps if m and r is not None]
    values, missing = {}, {}
    for metric in traced[0]["layers"]:
        samples = [r["layers"][metric] for r in traced]
        if any(v is None for v in samples):
            values[metric] = None
            missing[metric] = traced[0]["missing"].get(metric, [])
        else:
            values[metric] = statistics.median_low(samples)
    pairs = [(a[1], b[1]) for a, b in zip(reps[::2], reps[1::2])
             if a[1] is not None and b[1] is not None]
    if not pairs:
        raise BenchError("no plain repetition with a traced one after it")
    values["bench.trace_overhead_pct"] = statistics.median(
        100.0 * (t["wall_s"] - p["wall_s"]) / p["wall_s"] for p, t in pairs)
    return values, missing


def load_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {"run_seconds": spec["run_seconds"],
            "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def report(name: str, seed: int, seconds: float, traced: bool, size: str,
           expected_path: Path, spec: dict) -> dict:
    expected = None
    if seed == workloads.DEFAULT_SEED:
        stored = json.loads(expected_path.read_text())
        expected = stored.get(f"{name}/{size}")
    result = measure(name, seed, seconds, traced, size, expected)
    env = result["plain"][0]["environment"]
    print(f"# {name}: seed {seed} ({workloads.seeds(seed)}), size {size}, "
          f"{len(result['plain'])} plain + {len(result['traced'])} traced reps, "
          f"stored outputs {'compared' if expected is not None else 'not compared'}")
    print(f"# environment: {json.dumps(env, sort_keys=True)} commit {git_commit()}")
    if traced:
        values, missing = per_layer(result["reps"])
        units = spec["per_layer"]
    else:
        values, missing = end_to_end(result["plain"]), {}
        units = spec["end_to_end"]
    metrics = {}
    for metric, unit in units.items():
        if metric not in values:
            values[metric], missing[metric] = None, ["not produced by the worker"]
        metrics[metric] = {"value": values[metric], "unit": unit}
        if values[metric] is None:
            metrics[metric]["missing"] = missing[metric]
    print(f"# {name}: ops {result['attempted']}, ops_failed {result['failed']}")
    for metric, entry in metrics.items():
        print(f"# {name} {metric} = {entry['value']} {entry['unit']}")
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all",
                        choices=("all",) + tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="time budget per workload (default: BENCHMARK.json "
                             "run_seconds); at least one repetition")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help="toy is the self-test's small instance")
    parser.add_argument("--expected", type=Path, default=EXPECTED,
                        help="stored outputs for the default seed")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "pdnet" / "__init__.py").is_file():
        print(f"error: no pdnet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be nonnegative", file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    names = tuple(workloads.WORKLOADS) if args.workload == "all" else (args.workload,)
    try:
        results = {name: report(name, args.seed, seconds, bool(args.trace),
                                args.size, args.expected, spec)
                   for name in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if SCRATCH.is_dir() and not any(SCRATCH.iterdir()):
            SCRATCH.rmdir()
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": entry
                        for name, r in results.items()
                        for metric, entry in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
