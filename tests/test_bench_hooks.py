"""The benchmark's call surface must exist in the package.

The tracer wraps pdnet callables by attribute and reports a layer's
metrics as null when a hook point is gone, so a rename would otherwise
only show up as missing benchmark numbers. The workloads call pdnet by
name as a user would, so a removed name would only show up as failed
benchmark ops.
"""

import importlib.util
import time
from pathlib import Path

import pytest

import pdnet
import pdnet.cli  # noqa: F401  (the cli_sweep workload calls pdnet.cli.main)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_hook_points_resolve():
    tracer = load_perfbench("tracer")
    missing = [f"{module}.{attr}"
               for points in tracer.HOOKS.values() for module, attr in points
               if getattr(tracer._resolve(module), attr, None) is None]
    assert missing == []


@pytest.mark.parametrize("name", ["canonical", "large_n", "cli_sweep"])
def test_benchmark_workloads_run_clean_at_toy_size(name, tmp_path, monkeypatch):
    # untraced and in-process; the values are not compared with the stored
    # expectations, only the invariants every op must keep
    workloads = load_perfbench("workloads")
    tracer = load_perfbench("tracer")
    monkeypatch.setenv("PDNET_OUTPUT_ROOT", str(tmp_path))
    # cli_sweep replaces pdnet.engine.run with a timing wrapper; this
    # restores the original afterwards
    monkeypatch.setattr(pdnet.engine, "run", pdnet.engine.run)
    result = workloads.WORKLOADS[name](
        pdnet, workloads.PARAMS[name]["toy"], 1, tracer.NullTracer(),
        tmp_path, time.perf_counter)
    ops = result["ops"]
    assert len(ops) == workloads.OPS_PER_REP[name]
    assert {op["name"]: op["violations"] for op in ops} == {
        op["name"]: [] for op in ops}
