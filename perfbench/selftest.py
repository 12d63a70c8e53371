"""Self-test of the benchmark on toy-size instances (about 15 s).

    python3 perfbench/selftest.py

For every workload it checks that an untraced run reports every
end-to-end metric of BENCHMARK.json with its unit and no failed op, on
the default seed and on another; that a traced run reports every
per-layer metric and that the step-cost layers add up to the run time;
and that a perturbed stored expectation turns exactly one op into a
failure. Last, it checks that the benchmark exits nonzero, printing no
result, in a copy that holds only BENCHMARK.json and the benchmark.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import workloads


def bench(*argv: str) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--size", "toy", "--seconds", "0", *argv])
    if code != 0:
        raise AssertionError(f"run.py {' '.join(argv)} exited with {code}")
    return json.loads(out.getvalue().strip().splitlines()[-1])


def check_units(result: dict, units: dict[str, str]) -> None:
    assert set(result["metrics"]) == set(units), sorted(result["metrics"])
    for name, unit in units.items():
        entry = result["metrics"][name]
        assert entry["unit"] == unit, (name, entry)
        assert isinstance(entry["value"], (int, float)), (name, entry)


def perturbed_expectations(name: str, scratch: Path) -> Path:
    stored = json.loads(run.EXPECTED.read_text())
    ops = stored[f"{name}/toy"]
    first = ops[next(iter(ops))]
    key = max(first, key=lambda k: abs(first[k] or 0.0))
    first[key] *= 1.0 + 1e-4
    path = scratch / f"expected-{name}.json"
    path.write_text(json.dumps(stored))
    return path


def stripped_copy_fails(scratch: Path) -> None:
    copy = scratch / "stripped"
    shutil.copytree(run.HERE, copy / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", copy)
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "canonical",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=copy, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0, proc.stdout
    assert "correct" not in proc.stdout, proc.stdout


def main() -> int:
    spec = run.load_spec()
    run.SCRATCH.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.SCRATCH))
    try:
        for name in workloads.WORKLOADS:
            for seed in (workloads.DEFAULT_SEED, workloads.DEFAULT_SEED + 1):
                result = bench("--workload", name, "--seed", str(seed))
                check_units(result, spec["end_to_end"])
                assert result["correct"] and result["failed"] == 0, result
                assert result["attempted"] == workloads.OPS_PER_REP[name], result

            traced = bench("--workload", name, "--trace", "1")
            check_units(traced, spec["per_layer"])
            gap = traced["metrics"]["bench.layer_sum_gap_pct"]["value"]
            assert abs(gap) < 1.0, f"{name}: step layers miss {gap:.3f}% of run time"

            broken = bench("--workload", name, "--expected",
                           str(perturbed_expectations(name, scratch)))
            assert not broken["correct"] and broken["failed"] == 1, broken
            print(f"{name}: ok")
        stripped_copy_fails(scratch)
        print("stripped copy: exits nonzero without a result")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        if not any(run.SCRATCH.iterdir()):
            run.SCRATCH.rmdir()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
