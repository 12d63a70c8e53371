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
from scipy import sparse

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


def expected_weights(workloads, name):
    """The mixing matrix a toy workload builds, made here without tracing."""
    p = workloads.PARAMS[name]["toy"]
    graph_seed = workloads.seeds(1)["graph"]
    if name == "cli_sweep":
        from pdnet import config as cfgmod
        config = cfgmod.apply_overrides(cfgmod.parse_config(), [
            "graph.family=barbell", f"problem.n={p['n']}",
            f"graph.seed={graph_seed}"])
        return cfgmod.build_weights(config, cfgmod.build_graph(config))
    return pdnet.lazy_metropolis(pdnet.generate_watts_strogatz(
        p["n"], p["k"], p["theta"], seed=graph_seed))


@pytest.mark.parametrize("name,steps", [("canonical", 600), ("large_n", 20),
                                        ("cli_sweep", 600)])
def test_traced_workloads_count_each_step_once(name, steps, tmp_path,
                                               monkeypatch):
    # the traced path the benchmark measures: every hook point resolves, no
    # run span nests in another (which would count its steps twice), and
    # the notes read the real matrix; no timing is compared
    workloads = load_perfbench("workloads")
    tracer = load_perfbench("tracer")
    nnz = expected_weights(workloads, name).csr.nnz
    # the tracer has no uninstall: put every hook point (and the run that
    # cli_sweep wraps) back at teardown
    for points in tracer.HOOKS.values():
        for module_path, attr in points:
            owner = tracer._resolve(module_path)
            monkeypatch.setattr(owner, attr, getattr(owner, attr))
    monkeypatch.setenv("PDNET_OUTPUT_ROOT", str(tmp_path))
    traced = tracer.Tracer(time.perf_counter)
    result = workloads.WORKLOADS[name](
        pdnet, workloads.PARAMS[name]["toy"], 1, traced, tmp_path,
        time.perf_counter)
    assert traced.missing == {}
    spans = traced.spans
    nested = [span for span in spans if span[0] == "engine.run"
              and span[3] >= 0 and spans[span[3]][0] == "engine.run"]
    assert nested == []
    layers = traced.layer_metrics()
    assert layers["engine.steps"] == steps
    assert layers["graphs.w_nnz"] == nnz
    assert [op["violations"] for op in result["ops"]] == [
        [] for _ in result["ops"]]


def test_sparse_graph_makes_no_dense_matrix(monkeypatch):
    # in the paper's iteration each agent mixes with its neighbours only,
    # so a 1%-dense graph's W never needs its 2000 x 2000 dense form: not
    # to build or validate the weights, not for the tracer's weights note,
    # and not for a run that reads no reference (and so no sigma2)
    def no_dense(self, *args, **kwargs):
        raise AssertionError("W was expanded to a dense n x n array")

    monkeypatch.setattr(sparse.csr_array, "toarray", no_dense)
    w = pdnet.lazy_metropolis(pdnet.generate_watts_strogatz(2000, 20, 0.02,
                                                            seed=7))
    note = load_perfbench("tracer")._NOTES["graphs.weights"](w)
    assert "csr" not in vars(w)  # the note builds no scipy matrix
    assert note == w.entries.nnz == w.csr.nnz
    for array in (w.indptr, w.indices, w.data):
        assert not array.flags.writeable
    problem = pdnet.build_logistic_problem(
        pdnet.generate_dataset(2000, 5, seed=1), 0.1, 0.1)
    trace = pdnet.run(problem, w, pdnet.RunConfig(iterations=20))
    assert trace.aborted is None and trace.records[-1].t == 20
