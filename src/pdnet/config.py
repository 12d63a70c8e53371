"""Flat dotted-key experiment configuration.

Configs are flat ``section.key = value`` maps, read from a file and/or
``--set`` overrides, typed against the defaults below. The same mapping is
embedded verbatim in run manifests, so config -> manifest -> config is the
identity and any output directory can reproduce its run.
"""

from __future__ import annotations

from pathlib import Path

from . import engine, graphs, problems

#: Canonical keys with their default (and type-defining) values. A None
#: default means unset, and OPTIONAL gives the type of a set value.
DEFAULTS: dict[str, object] = {
    "problem.family": "logistic",
    "problem.n": 100,
    "problem.d": 5,
    "problem.l": 0.1,
    "problem.u": 0.1,
    "problem.data_seed": 1,
    "graph.family": "watts_strogatz",
    "graph.n": None,
    "graph.k": 20,
    "graph.theta": 0.02,
    "graph.p": 0.06,
    "graph.rows": 10,
    "graph.cols": 10,
    "graph.bridges": 1,
    "graph.seed": 7,
    "weights.scheme": "lazy_metropolis",
    "run.variant": "deterministic",
    "run.T": 10_000,
    "run.eta": 1.0,
    "run.step_scale": None,
    "run.seed": 1,
    "run.init": "origin",
    "run.record_every": 10,
    "run.monitor_bounds": False,
    "reference.iterations": 10_000,
    "output_dir": "run",
}

#: The keys that may be unset, with the type of a set value. graph.n is
#: the node count, which is the agent count problem.n (see agent_count).
OPTIONAL = {"graph.n": int, "run.step_scale": float}


class ConfigError(ValueError):
    """Malformed configuration input."""


def _coerce(key: str, raw) -> object:
    if key not in DEFAULTS:
        raise ConfigError(f"unknown configuration key {key!r}")
    default = DEFAULTS[key]
    if isinstance(default, bool):
        if isinstance(raw, bool):
            return raw
        text = str(raw).lower()
        if text in ("1", "true", "yes", "on"):
            return True
        if text in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"{key}: expected a boolean, got {raw!r}")
    kind = OPTIONAL.get(key, type(default))
    if key in OPTIONAL and (
            raw is None or (isinstance(raw, str) and raw.lower() in ("", "none"))):
        return None
    try:
        if kind is int:
            return int(str(raw))
        if kind is float:
            return float(raw)
    except ValueError:
        expected = "an integer" if kind is int else "a number"
        raise ConfigError(f"{key}: expected {expected}, got {raw!r}") from None
    return str(raw)


def parse_config(entries: dict | None = None) -> dict[str, object]:
    """Typed config from a raw mapping, filling defaults."""
    merged = dict(DEFAULTS)
    for key, raw in (entries or {}).items():
        merged[key] = _coerce(key, raw)
    return merged


def read_config_file(path: str | Path) -> dict[str, object]:
    """Parse ``key = value`` lines; '#' starts a comment."""
    entries: dict[str, str] = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in text.split("=", 1))
        entries[key] = value
    return entries


def apply_overrides(config: dict[str, object],
                    overrides: list[str]) -> dict[str, object]:
    out = dict(config)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, value = (part.strip() for part in item.split("=", 1))
        out[key] = _coerce(key, value)
    return out


def agent_count(config: dict) -> int:
    """problem.n, the one agent count: each agent holds one data point and
    sits on one graph node. Raises ConfigError, naming both values, when
    graph.n is set to another value or, for lattice8, when graph.rows x
    graph.cols differs from it."""
    n = config["problem.n"]
    if config["graph.n"] is not None and config["graph.n"] != n:
        raise ConfigError(f"graph.n = {config['graph.n']!r} must equal "
                          f"problem.n = {n!r} (one agent per node)")
    if config["graph.family"] == "lattice8":
        rows, cols = config["graph.rows"], config["graph.cols"]
        if rows * cols != n:
            raise ConfigError(f"graph.rows x graph.cols = {rows!r} x {cols!r} "
                              f"must equal problem.n = {n!r} (one agent per node)")
    return n


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def build_dataset(config: dict) -> problems.SyntheticDataset:
    return problems.generate_dataset(config["problem.n"], config["problem.d"],
                                     seed=config["problem.data_seed"])


def build_problem(config: dict) -> problems.ProblemSpec:
    family = config["problem.family"]
    data = build_dataset(config)
    if family == "logistic":
        return problems.build_logistic_problem(data, config["problem.l"],
                                               config["problem.u"])
    if family == "hinge":
        return problems.build_hinge_problem(data, config["problem.l"],
                                            config["problem.u"])
    raise ConfigError(f"unknown problem family {family!r}")


def build_graph(config: dict) -> graphs.GraphTopology:
    family = config["graph.family"]
    n = agent_count(config)
    if family == "watts_strogatz":
        return graphs.generate_watts_strogatz(
            n, config["graph.k"], float(config["graph.theta"]),
            seed=config["graph.seed"])
    if family == "erdos_renyi":
        return graphs.generate_erdos_renyi(n, float(config["graph.p"]),
                                           seed=config["graph.seed"])
    if family == "lattice8":
        return graphs.generate_lattice8(config["graph.rows"],
                                        config["graph.cols"])
    if family == "barbell":
        return graphs.generate_barbell(n, config["graph.bridges"])
    raise ConfigError(f"unknown graph family {family!r}")


def build_weights(config: dict,
                  g: graphs.GraphTopology) -> graphs.ConsensusMatrix:
    scheme = config["weights.scheme"]
    if scheme == "lazy_metropolis":
        return graphs.lazy_metropolis(g)
    if scheme == "laplacian":
        return graphs.laplacian_weights(g)
    raise ConfigError(f"unknown weight scheme {scheme!r}")


def build_run_config(config: dict) -> engine.RunConfig:
    return engine.RunConfig(
        variant=str(config["run.variant"]),
        iterations=config["run.T"],
        eta=float(config["run.eta"]),
        step_scale=config["run.step_scale"],
        seed=config["run.seed"],
        init=str(config["run.init"]),
        record_every=config["run.record_every"],
        monitor_bounds=bool(config["run.monitor_bounds"]),
    )

