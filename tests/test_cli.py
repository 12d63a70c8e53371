"""CLI commands, config round-trips, artifacts, and exit codes."""

import csv
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy

import pdnet
from pdnet import cli, config as cfgmod, graphs
from pdnet.config import ConfigError


SMALL_RUN = [
    "--set", "problem.n=12", "--set", "graph.n=12", "--set", "graph.k=4",
    "--set", "run.T=60", "--set", "run.record_every=10",
    "--set", "reference.iterations=2000",
]


@pytest.fixture()
def out_root(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path))
    return tmp_path


def test_overflowing_box_margins_exit_2(out_root, capsys):
    # the square of the constraint-norm bound overflows: rejected while the
    # problem is built, before numpy could warn about an overflow
    argv = ["run", "--out", "big", "--set", "problem.l=1e300",
            "--set", "problem.n=6", "--set", "graph.n=6", "--set", "graph.k=2",
            "--set", "run.T=20"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.main(argv)
    assert code == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert "overflow" in lines[0]
    assert captured.out == ""


def test_config_file_and_overrides(tmp_path):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(
        "# comment\nproblem.family = hinge\nrun.T = 500  # trailing\n")
    entries = cfgmod.read_config_file(cfg_file)
    config = cfgmod.parse_config(entries)
    assert config["problem.family"] == "hinge"
    assert config["run.T"] == 500
    config = cfgmod.apply_overrides(config, ["run.eta=0.25"])
    assert config["run.eta"] == 0.25
    # a key whose default is None is an optional float
    for raw, value in (("0.5", 0.5), ("none", None), ("", None)):
        config = cfgmod.apply_overrides(config, [f"run.step_scale={raw}"])
        assert config["run.step_scale"] == value


@pytest.mark.parametrize("key,value", [
    ("problem.n", 2.5), ("problem.d", 2.5), ("problem.data_seed", 2.5),
    ("graph.n", 2.5), ("graph.k", 2.5), ("graph.seed", 2.5),
    ("graph.n", True), ("run.T", 2.5), ("run.seed", 2.5),
    ("run.record_every", 2.5), ("run.T", True)])
def test_builders_pass_counts_uncast(key, value):
    # a mapping that skipped parse_config gets the module's error for 2.5,
    # not a silent 2 from an int() cast in the builder
    config = {**cfgmod.parse_config(), key: value}
    message = re.escape(f"{value!r} is not an integer")
    problem = pdnet.build_logistic_problem(
        pdnet.generate_dataset(4, 2, seed=1), 0.5, 0.5)
    if key.startswith("problem."):
        with pytest.raises(pdnet.problems.ProblemError, match=message):
            cfgmod.build_dataset(config)
    elif key == "graph.n":
        # graph.n is never cast or used: it can only equal problem.n
        with pytest.raises(ConfigError, match=re.escape(
                f"graph.n = {value!r} must equal problem.n = 100")):
            cfgmod.build_graph(config)
    elif key.startswith("graph."):
        with pytest.raises(graphs.GraphError, match=message):
            cfgmod.build_graph(config)
    else:
        run_cfg = cfgmod.build_run_config(config)
        assert getattr(run_cfg, {"run.T": "iterations", "run.seed": "seed",
                                 "run.record_every": "record_every"}[key]) is value
        with pytest.raises(pdnet.engine.EngineError, match=message):
            pdnet.engine.resolve_config(run_cfg, problem)


def test_config_rejects_unknown_key():
    with pytest.raises(ConfigError):
        cfgmod.parse_config({"nope.key": 1})


def test_config_roundtrip_identity():
    config = cfgmod.parse_config({"run.eta": "0.5", "problem.family": "hinge",
                                  "run.monitor_bounds": "true"})
    # through a manifest-style JSON embedding
    assert cfgmod.parse_config(json.loads(json.dumps(config))) == config


def test_generate_graph_artifacts(out_root):
    code = cli.main(["generate-graph", "--out", "latt", "--set", "problem.n=12",
                     "--set", "graph.family=lattice8",
                     "--set", "graph.rows=3", "--set", "graph.cols=4"])
    assert code == 0
    out = out_root / "latt"
    report = json.loads((out / "spectral_report.json").read_text())
    assert report["n"] == 12
    assert 0 < report["spectral_gap"] < 1
    assert report["bound_margin"] > 0
    first_bytes = (out / "graph_edges.txt").read_bytes()
    assert cli.main(["generate-graph", "--out", "latt2", "--set", "problem.n=12",
                     "--set", "graph.family=lattice8",
                     "--set", "graph.rows=3", "--set", "graph.cols=4"]) == 0
    assert (out_root / "latt2" / "graph_edges.txt").read_bytes() == first_bytes


@pytest.mark.parametrize("sets", [
    [],
    ["problem.n=12", "graph.family=lattice8", "graph.rows=3", "graph.cols=4",
     "weights.scheme=laplacian"],
    ["graph.family=barbell", "problem.n=40", "graph.bridges=3"],
])
def test_weight_matrix_csv_lists_the_stored_entries(out_root, sets):
    argv = ["generate-graph", "--out", "wm"]
    for item in sets:
        argv += ["--set", item]
    assert cli.main(argv) == 0
    config = cfgmod.apply_overrides(cfgmod.parse_config(), sets)
    w = cfgmod.build_weights(config, cfgmod.build_graph(config))
    text = (out_root / "wm" / "weight_matrix.csv").read_text()
    assert text == w.to_csv_text()
    header, *lines = text.splitlines()
    assert header == "i,j,w"
    i, j, v = zip(*(line.split(",") for line in lines))
    assert np.array_equal(np.array(i, dtype=np.int64), graphs._row_ids(w))
    assert np.array_equal(np.array(j, dtype=np.int64), w.csr.indices)
    assert np.array(v, dtype=float).tobytes() == w.csr.data.tobytes()


def test_weight_matrix_csv_holds_o_nnz_bytes(out_root):
    # WS(5000, 20, 0.02): a header plus one line per stored entry, n of
    # them on the diagonal and two per edge
    assert cli.main(["generate-graph", "--out", "ws5000",
                     "--set", "problem.n=5000", "--set", "graph.k=20",
                     "--set", "graph.theta=0.02"]) == 0
    out = out_root / "ws5000"
    edges = json.loads((out / "spectral_report.json").read_text())["edge_count"]
    path = out / "weight_matrix.csv"
    assert len(path.read_text().splitlines()) == 1 + 5000 + 2 * edges
    assert path.stat().st_size < 5e6


def test_generate_graph_bad_family(out_root):
    code = cli.main(["generate-graph", "--set", "graph.family=mystery"])
    assert code == cli.EXIT_CONFIG


def test_run_writes_artifacts_and_manifest_roundtrip(out_root):
    code = cli.main(["run", "--out", "r1", *SMALL_RUN])
    assert code == 0
    out = out_root / "r1"
    manifest = json.loads((out / "manifest.json").read_text())
    assert cfgmod.parse_config(manifest["config"]) == manifest["config"]
    assert manifest["derived"]["graph"]["nodes"] == 12
    assert manifest["derived"]["reference_method"] == "projected-gradient"
    assert manifest["derived"]["graph"]["sigma2_method"] == "eigvalsh"
    env = manifest["environment"]
    assert env["python"] == ".".join(map(str, sys.version_info[:3]))
    assert env["numpy"] == np.__version__
    assert set(env) == {"python", "numpy", "scipy", *cli.BLAS_THREAD_VARS}
    assert env["scipy"] == scipy.__version__
    for var in cli.BLAS_THREAD_VARS:
        assert env[var] == os.environ.get(var)
    trace = (out / "trace.csv").read_text()
    assert trace.splitlines()[1].startswith("0,1.0,1.0,")
    xhat = (out / "xhat.csv").read_text().splitlines()
    assert len(xhat) == 1 + 12
    ref = json.loads((out / "reference.json").read_text())
    assert "f_star" in ref and ref["residual"] >= 0
    timings = manifest["derived"]["timings"]
    assert set(timings) == {"reference_s", "build_s", "run_s", "records_s"}
    assert all(value > 0.0 for value in timings.values())
    assert timings["records_s"] < timings["run_s"]


def test_centralized_manifest_times_no_graph(out_root):
    assert cli.main(["run", "--out", "c", *SMALL_RUN,
                     "--set", "run.variant=centralized_unregularized"]) == 0
    manifest = json.loads((out_root / "c" / "manifest.json").read_text())
    assert manifest["derived"]["timings"]["build_s"] == 0.0


def test_failed_artifact_write_leaves_no_partial_file(monkeypatch, out_root):
    out = out_root / "atomic"
    out.mkdir()
    (out / "trace.csv").write_text("previous run\n")
    real_replace = os.replace

    def fail_on_trace(src, dst):
        assert Path(src).exists()  # the temporary file was written
        if Path(dst).name == "trace.csv":
            raise OSError("disk full")
        real_replace(src, dst)

    monkeypatch.setattr(cli.os, "replace", fail_on_trace)
    assert cli.main(["run", "--out", "atomic", *SMALL_RUN]) == cli.EXIT_CONFIG
    assert (out / "trace.csv").read_text() == "previous run\n"
    assert sorted(p.name for p in out.iterdir()) == ["trace.csv"]


def test_run_is_byte_deterministic(out_root):
    assert cli.main(["run", "--out", "a", *SMALL_RUN,
                     "--set", "run.variant=stochastic"]) == 0
    assert cli.main(["run", "--out", "b", *SMALL_RUN,
                     "--set", "run.variant=stochastic"]) == 0
    a = (out_root / "a" / "trace.csv").read_bytes()
    b = (out_root / "b" / "trace.csv").read_bytes()
    assert a == b


def test_run_zero_iterations(out_root):
    code = cli.main(["run", "--out", "z", *SMALL_RUN, "--set", "run.T=0"])
    assert code == 0
    lines = (out_root / "z" / "trace.csv").read_text().splitlines()
    assert len(lines) == 2 and lines[1].startswith("0,")
    xhat = (out_root / "z" / "xhat.csv").read_text().splitlines()
    assert len(xhat) == 1  # empty average reported as header only


def test_run_mismatched_sizes_exits_2(out_root, capsys):
    code = cli.main(["run", "--set", "problem.n=10", "--set", "graph.n=12",
                     "--set", "graph.k=4", "--set", "run.T=5",
                     "--set", "reference.iterations=100"])
    assert code == cli.EXIT_CONFIG
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert lines[0] == ("error: graph.n = 12 must equal problem.n = 10 "
                        "(one agent per node)")


#: a graph.n, and a lattice8 grid, that disagree with problem.n = 12, and
#: the error line each gives
MISMATCHES = [
    (["graph.n=13"], "graph.n = 13 must equal problem.n = 12"),
    (["graph.family=lattice8", "graph.rows=3", "graph.cols=5"],
     "graph.rows x graph.cols = 3 x 5 must equal problem.n = 12")]

#: SMALL_RUN without its graph.n
SMALL_RUN_BARE = SMALL_RUN[:2] + SMALL_RUN[4:]


@pytest.fixture()
def no_work(monkeypatch):
    """Every dataset, reference, graph and sigma2 call, recorded."""
    calls = []
    for owner, name in [(pdnet.problems, "generate_dataset"),
                        (pdnet.problems, "reference_optimum"),
                        (graphs, "generate_watts_strogatz"),
                        (graphs, "generate_erdos_renyi"),
                        (graphs, "generate_lattice8"),
                        (graphs, "generate_barbell"),
                        (graphs, "_second_singular_value")]:
        def spy(*args, _name=name, _call=getattr(owner, name), **kwargs):
            calls.append(_name)
            return _call(*args, **kwargs)
        monkeypatch.setattr(owner, name, spy)
    return calls


@pytest.mark.parametrize("sets,message", MISMATCHES, ids=["graph.n", "lattice8"])
@pytest.mark.parametrize("command", [
    ["run"], ["run", "--set", "run.variant=centralized_unregularized"],
    ["generate-graph"], ["sweep", "--param", "eta", "--values", "0.5,1.0"],
    ["sweep", "--param", "T", "--values", "10,20"]])
def test_agent_count_mismatch_exits_2_before_any_work(out_root, capsys,
                                                      no_work, command, sets,
                                                      message):
    argv = [*command, "--out", "mm", *SMALL_RUN]
    for item in sets:
        argv += ["--set", item]
    assert cli.main(argv) == cli.EXIT_CONFIG
    lines = capsys.readouterr().err.splitlines()
    assert lines == [f"error: {message} (one agent per node)"]
    assert no_work == []
    assert not (out_root / "mm").exists()


@pytest.mark.parametrize("param,values", [
    ("n", "12,13"), ("graph.family", "watts_strogatz,lattice8")])
def test_sweep_checks_every_leg_before_any_leg_runs(out_root, capsys, no_work,
                                                   param, values):
    # the first leg is sound; the second's agent counts disagree
    assert cli.main(["sweep", "--out", "sw", *SMALL_RUN, "--param", param,
                     "--values", values]) == cli.EXIT_CONFIG
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and "must equal problem.n" in lines[0], lines
    assert no_work == []
    assert not (out_root / "sw").exists()


def test_graph_n_unset_or_equal_gives_the_same_artifacts(out_root):
    assert cli.main(["run", "--out", "unset", *SMALL_RUN_BARE]) == 0
    assert cli.main(["run", "--out", "equal", *SMALL_RUN]) == 0
    for name in ("trace.csv", "xhat.csv", "reference.json"):
        assert ((out_root / "unset" / name).read_bytes()
                == (out_root / "equal" / name).read_bytes())
    for run, graph_n in (("unset", None), ("equal", 12)):
        config = json.loads((out_root / run / "manifest.json").read_text()
                            )["config"]
        assert config["graph.n"] == graph_n
        assert cfgmod.parse_config(config) == config


def test_sweep_n_sets_problem_n_only(out_root):
    assert cli.main(["sweep", "--out", "swn", *SMALL_RUN_BARE, "--param", "n",
                     "--values", "10,14"]) == 0
    for n in (10, 14):
        manifest = json.loads(
            (out_root / "swn" / f"leg_n_{n}" / "manifest.json").read_text())
        assert manifest["config"]["problem.n"] == n
        assert manifest["config"]["graph.n"] is None
        assert manifest["derived"]["graph"]["nodes"] == n


@pytest.mark.parametrize("override",
                         ["run.T=abc", "run.T=1e4", "run.eta=x", "problem.l=",
                          "problem.l=nan", "problem.u=inf"])
def test_run_unparsable_value_exits_2(override, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(pdnet.__file__).parents[1]))
    env[cli.OUTPUT_ROOT_ENV] = str(tmp_path)
    proc = subprocess.run([sys.executable, "-m", "pdnet.cli", "run",
                           "--set", override], capture_output=True, text=True,
                          env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == cli.EXIT_CONFIG
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1


def test_run_invalid_step_scale_exits_2(out_root):
    code = cli.main(["run", *SMALL_RUN, "--set", "run.step_scale=1.0",
                     "--set", "run.eta=2.0"])
    assert code == cli.EXIT_CONFIG


def test_centralized_run(out_root):
    code = cli.main(["run", "--out", "cent", *SMALL_RUN,
                     "--set", "run.variant=centralized_unregularized"])
    assert code == 0
    manifest = json.loads((out_root / "cent" / "manifest.json").read_text())
    assert manifest["derived"]["resolved_eta"] == 0.0
    assert manifest["derived"]["graph"]["nodes"] == 1


@pytest.mark.parametrize("setting", ["run.variant=stochastic",
                                     "run.init=random_feasible"])
@pytest.mark.parametrize("seed,code", [(2 ** 64 - 1, 0), (2 ** 64, 2)])
def test_run_seed_must_fit_64_bits(setting, seed, code, out_root, capsys):
    # both settings key Philox streams with the seed
    argv = ["run", "--out", "seed", *SMALL_RUN, "--set", "run.T=5",
            "--set", "reference.iterations=100", "--set", setting,
            "--set", f"run.seed={seed}"]
    assert cli.main(argv) == code
    if code == cli.EXIT_CONFIG:
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        assert f"seed {2 ** 64} is not an integer in [0, {2 ** 64})" in lines[0]


def test_sweep_legs_and_summary(out_root):
    code = cli.main(["sweep", "--out", "sw", *SMALL_RUN,
                     "--param", "eta", "--values", "0.5,1.0"])
    assert code == 0
    summary = (out_root / "sw" / "summary.csv").read_text().splitlines()
    assert summary[0].startswith("param,value,dir,status")
    assert len(summary) == 3
    assert (out_root / "sw" / "leg_eta_0.5" / "trace.csv").exists()
    assert (out_root / "sw" / "leg_eta_1.0" / "manifest.json").exists()


def test_sweep_thread_count_does_not_change_bytes(out_root):
    argv = ["sweep", *SMALL_RUN, "--param", "T", "--values", "30,60"]
    assert cli.main([*argv, "--out", "s1", "--threads", "1"]) == 0
    assert cli.main([*argv, "--out", "s2", "--threads", "2"]) == 0
    for leg in ("leg_T_30", "leg_T_60"):
        a = (out_root / "s1" / leg / "trace.csv").read_bytes()
        b = (out_root / "s2" / leg / "trace.csv").read_bytes()
        assert a == b
    assert ((out_root / "s1" / "summary.csv").read_text()
            == (out_root / "s2" / "summary.csv").read_text())


def test_sweep_starts_no_more_processes_than_legs(monkeypatch, out_root):
    pools = []

    class SerialPool:
        def __init__(self, workers):
            pools.append(workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor",
                        SerialPool)
    assert cli.main(["sweep", "--out", "cap", *SMALL_RUN, "--param", "T",
                     "--values", "30,60", "--threads", "64"]) == 0
    assert pools == [2]


def test_sweep_runs_every_variant_through_engine_run(monkeypatch, out_root):
    from pdnet import engine, problems
    variants = ["deterministic", "stochastic", "centralized_unregularized"]
    library_run, calls = engine.run, []

    def counted(p, w, cfg, **kwargs):
        calls.append(cfg.variant)
        return library_run(p, w, cfg, **kwargs)

    monkeypatch.setattr(engine, "run", counted)
    assert cli.main(["sweep", "--out", "v", *SMALL_RUN, "--param", "variant",
                     "--values", ",".join(variants), "--threads", "1"]) == 0
    assert calls == variants
    config = cfgmod.apply_overrides(cfgmod.parse_config(), SMALL_RUN[1::2])
    p = cfgmod.build_problem(config)
    ref = problems.reference_optimum(p, iterations=config["reference.iterations"])
    w = cfgmod.build_weights(config, cfgmod.build_graph(config))
    for variant in variants:
        run_cfg = cfgmod.build_run_config({**config, "run.variant": variant})
        text = library_run(p, w, run_cfg, reference=ref).to_csv_text()
        leg = out_root / "v" / f"leg_variant_{variant}" / "trace.csv"
        assert leg.read_bytes() == text.encode()


def test_sweep_empty_values_exits_2(out_root):
    assert cli.main(["sweep", "--param", "eta", "--values", ""]) \
        == cli.EXIT_CONFIG


def test_sweep_unknown_param_exits_2(out_root, capsys):
    # the config keys that eta, T and variant set are not parameters
    for param in ("banana", "run.eta", "run.T", "run.variant"):
        assert cli.main(["sweep", "--param", param, "--values", "1"]) \
            == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "one of eta, n, T, graph.family, variant, r\n" in err, err


@pytest.mark.parametrize("extra,param,values", [
    ([], "eta", "0.5,abc"), ([], "T", "30,1.5"), ([], "n", "12,x"),
    ([], "r", "0.25,-400"), (["--set", "run.T=0"], "r", "1"),
    (["--set", "run.T=-4"], "r", "0.5")])
def test_sweep_bad_value_exits_2_before_any_leg(out_root, capsys, extra,
                                                param, values):
    code = cli.main(["sweep", "--out", "bad", *SMALL_RUN, *extra,
                     "--param", param, f"--values={values}"])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert not (out_root / "bad").exists()


@pytest.mark.parametrize("argv", [
    ["verify", "quick", "--set", "run.T=5"],
    ["verify", "quick", "--config", "missing.cfg"],
    ["run", "--threads", "2"],
    ["generate-graph", "--record-every", "5"],
    ["generate-graph", "--threads", "2"],
])
def test_subcommand_rejects_options_it_does_not_read(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == cli.EXIT_CONFIG
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["abc", "0", "1.5"])
def test_record_every_is_typed_as_its_config_key(out_root, capsys, value):
    code = cli.main(["run", *SMALL_RUN, "--record-every", value])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err


@pytest.mark.parametrize("key", ["problem.n", "problem.d", "graph.n"])
def test_size_no_array_can_hold_exits_2(out_root, capsys, key):
    code = cli.main(["run", *SMALL_RUN, "--set", f"{key}={10 ** 20}"])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err


def test_allocation_failure_exits_2(monkeypatch, out_root, capsys):
    # a size numpy accepts but the host cannot allocate; the generator is
    # stubbed so that no large allocation is attempted
    def unallocatable(n, d, seed=0):
        raise MemoryError(f"Unable to allocate {n * d * 8} bytes")

    monkeypatch.setattr(pdnet.problems, "generate_dataset", unallocatable)
    code = cli.main(["run", *SMALL_RUN, "--set", "problem.n=1000000000000",
                     "--set", "graph.n=1000000000000"])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: Unable to allocate 40000000000000 bytes"]


def test_sigma2_failure_above_the_dense_cap_exits_2(monkeypatch, out_root,
                                                    capsys):
    from scipy.sparse import linalg

    def no_convergence(*args, **kwargs):
        raise linalg.ArpackNoConvergence("no convergence", [], [])

    monkeypatch.setattr(linalg, "eigsh", no_convergence)
    assert cli.main(["generate-graph", "--out", "big",
                     "--set", "problem.n=600"]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: sigma_2 of the "
                                               "600x600 weight matrix"), err
    assert not (out_root / "big").exists()


def test_sweep_continues_past_failing_leg(out_root):
    code = cli.main(["sweep", "--out", "swf", *SMALL_RUN,
                     "--param", "graph.family", "--values",
                     "watts_strogatz,unknown_family"])
    assert code == cli.EXIT_DIVERGED
    lines = (out_root / "swf" / "summary.csv").read_text().splitlines()
    assert len(lines) == 3
    assert "error" in lines[2]
    assert (out_root / "swf" / "leg_graph_family_watts_strogatz"
            / "trace.csv").exists()


def test_sweep_r_parameter_sets_eta(out_root):
    code = cli.main(["sweep", "--out", "swr", *SMALL_RUN,
                     "--param", "r", "--values", "0.25"])
    assert code == 0
    manifest = json.loads(
        (out_root / "swr" / "leg_r_0.25" / "manifest.json").read_text())
    assert manifest["config"]["run.eta"] == pytest.approx(60 ** -0.25)


def test_generate_graph_barbell_gap_below_small_world(out_root):
    assert cli.main(["generate-graph", "--out", "bar",
                     "--set", "graph.family=barbell",
                     "--set", "graph.n=100"]) == 0
    assert cli.main(["generate-graph", "--out", "ws"]) == 0
    bar = json.loads((out_root / "bar" / "spectral_report.json").read_text())
    ws = json.loads((out_root / "ws" / "spectral_report.json").read_text())
    assert bar["spectral_gap"] < ws["spectral_gap"]


def test_manifest_reproduces_run_exactly(out_root):
    assert cli.main(["run", "--out", "orig", *SMALL_RUN,
                     "--set", "run.variant=stochastic"]) == 0
    manifest = json.loads((out_root / "orig" / "manifest.json").read_text())
    config = cfgmod.parse_config(manifest["config"])
    cli.execute_run(config, out_root / "replay")
    assert ((out_root / "orig" / "trace.csv").read_bytes()
            == (out_root / "replay" / "trace.csv").read_bytes())
    assert ((out_root / "orig" / "xhat.csv").read_bytes()
            == (out_root / "replay" / "xhat.csv").read_bytes())


def test_run_divergence_exits_3(monkeypatch, out_root):
    from pdnet import engine

    def explode(states, p, w, t, cfg, gx, glam, work):
        raise engine.DivergenceError("forced blow-up for the exit-code test")

    monkeypatch.setattr(engine, "_advance", explode)
    code = cli.main(["run", "--out", "boom", *SMALL_RUN])
    assert code == cli.EXIT_DIVERGED
    manifest = json.loads((out_root / "boom" / "manifest.json").read_text())
    assert "blow-up" in manifest["derived"]["aborted"]
    # the partial trace is still persisted
    assert (out_root / "boom" / "trace.csv").exists()


def test_sweep_divergent_leg_exits_3(monkeypatch, out_root, capsys):
    from pdnet import engine

    def explode(states, p, w, t, cfg, gx, glam, work):
        raise engine.DivergenceError("forced blow-up for the exit-code test")

    monkeypatch.setattr(engine, "_advance", explode)
    code = cli.main(["sweep", "--out", "boom", *SMALL_RUN, "--param", "eta",
                     "--values", "0.5,1.0", "--threads", "1"])
    assert code == cli.EXIT_DIVERGED
    with (out_root / "boom" / "summary.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    status = "diverged: forced blow-up for the exit-code test"
    assert [row["status"] for row in rows] == [status, status]
    # the t = 0 record is still summarized
    assert [float(row["eps_final"]) for row in rows] == [1.0, 1.0]
    err = capsys.readouterr().err.splitlines()
    assert err == [f"  leg 0.5: {status}", f"  leg 1.0: {status}"]


def test_verify_full_passes(capsys, out_root):
    assert cli.main(["verify", "full"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert sum("  PASS" in line for line in out) == 12
    assert out[-1] == "12/12 checks passed"


def test_verify_quick_passes(capsys, out_root):
    assert cli.main(["verify", "quick"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_verify_reports_failure_with_exit_1(monkeypatch, capsys, out_root):
    from pdnet import verify as vf

    def rigged():
        return [vf.CheckResult(name="rigged", ok=False, detail="forced")]

    monkeypatch.setattr(vf, "quick_checks", rigged)
    assert cli.main(["verify", "quick"]) == cli.EXIT_VERIFY_FAILED
    assert "FAIL" in capsys.readouterr().out
