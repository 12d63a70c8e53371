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
#: default means optional float.
DEFAULTS: dict[str, object] = {
    "problem.family": "logistic",
    "problem.n": 100,
    "problem.d": 5,
    "problem.l": 0.1,
    "problem.u": 0.1,
    "problem.data_seed": 1,
    "graph.family": "watts_strogatz",
    "graph.n": 100,
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
    try:
        if default is None:
            if raw is None or (isinstance(raw, str) and raw.lower() in ("", "none")):
                return None
            return float(raw)
        if isinstance(default, int):
            return int(str(raw))
        if isinstance(default, float):
            return float(raw)
    except ValueError:
        kind = "an integer" if isinstance(default, int) else "a number"
        raise ConfigError(f"{key}: expected {kind}, got {raw!r}") from None
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
    if family == "watts_strogatz":
        return graphs.generate_watts_strogatz(
            config["graph.n"], config["graph.k"],
            float(config["graph.theta"]), seed=config["graph.seed"])
    if family == "erdos_renyi":
        return graphs.generate_erdos_renyi(
            config["graph.n"], float(config["graph.p"]),
            seed=config["graph.seed"])
    if family == "lattice8":
        return graphs.generate_lattice8(config["graph.rows"],
                                        config["graph.cols"])
    if family == "barbell":
        return graphs.generate_barbell(config["graph.n"],
                                       config["graph.bridges"])
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

