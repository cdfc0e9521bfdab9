"""Experiment configuration: JSON file schema, defaults, and builders.

Every field has a default, so an empty file (or no file) yields a runnable
configuration. Unknown keys, values whose type does not match the field's
default and numbers that are not finite floats are rejected with the offending key named,
which catches typos before a long run burns its budget.
"""

from __future__ import annotations

import json
import os
import sys
import threading
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from pathlib import Path

from .engine import RunConfig
from .errors import ConfigError
from .guidance import LLM_TIMEOUT, LlmEndpoint
from .objectives import FAMILIES, BenchmarkSpec, make_spec
from .scheduler import PcgConfig
from .topology import CommGraph, build_explicit, build_random_connected, build_ring
from .wsn import WsnObjectiveSet, gen_measurements, gen_scenario


def _check_seed(key: str, seed: int) -> None:
    # numpy's SeedSequence takes no negative entropy; fail before any run.
    if seed < 0:
        raise ConfigError(f"{key} must be >= 0, got {seed}")


@dataclass
class GraphSpec:
    kind: str = "ring"
    # Only a random graph reads edge_prob and seed, only an explicit one the
    # edges; null means not given.
    edge_prob: float | None = None
    seed: int | None = None
    edges: list | None = None

    def __post_init__(self):
        if self.kind not in ("ring", "random", "explicit"):
            raise ConfigError(f"graph.kind must be ring|random|explicit, got {self.kind!r}")
        if self.kind == "explicit" and self.edges is None:
            raise ConfigError("graph.kind explicit needs graph.edges")
        if self.kind != "explicit" and self.edges is not None:
            raise ConfigError(f"graph.edges goes only with graph.kind explicit, not {self.kind!r}")
        for name in ("edge_prob", "seed"):
            if self.kind != "random" and getattr(self, name) is not None:
                raise ConfigError(f"graph.{name} goes only with graph.kind random, not {self.kind!r}")
        if self.kind == "random":
            self.edge_prob = 0.3 if self.edge_prob is None else self.edge_prob
            self.seed = 0 if self.seed is None else self.seed
            _check_seed("graph.seed", self.seed)


@dataclass
class ObjectiveSpec:
    num_agents: int = 20
    dim: int = 10
    hetero_sigma: float = 0.0
    bound: float = 100.0
    suite_seed: int = 0

    def __post_init__(self):
        _check_seed("objective.suite_seed", self.suite_seed)


@dataclass
class WsnSpec:
    num_sensors: int = 8
    num_targets: int = 1
    noise_sigma: float = 0.0

    def __post_init__(self):
        # The sweep runs target counts 1..num_targets: with none it would run nothing.
        if self.num_sensors < 1 or self.num_targets < 1:
            raise ConfigError("wsn.num_sensors and wsn.num_targets must be >= 1")


# Where the LLM endpoint comes from when the config leaves it out.
ENV_LLM_URL = "LACMAS_LLM_URL"
ENV_LLM_MODEL = "LACMAS_LLM_MODEL"


@dataclass
class GuidanceSpec:
    llm_url: str | None = None
    llm_model: str | None = None
    llm_timeout: float = LLM_TIMEOUT

    def __post_init__(self):
        # A timeout of zero or less fails every request, so each refresh would
        # silently fall back to the heuristic answer; one above TIMEOUT_MAX
        # makes the socket raise OverflowError at the first request.
        if not 0 < self.llm_timeout <= threading.TIMEOUT_MAX:
            raise ConfigError(
                f"guidance.llm_timeout must lie in (0, {threading.TIMEOUT_MAX:.0f}], "
                f"got {self.llm_timeout}"
            )


@dataclass
class ExperimentConfig:
    variant: str = "full"
    provider: str = "heuristic"
    master_seed: int = 0
    num_runs: int = 25
    max_iterations: int = 5000
    convergence_threshold: float = 1e-7
    log_every: int = 10
    output_dir: str = "results"
    suite: list[str] = field(default_factory=lambda: list(FAMILIES))
    graph: GraphSpec = field(default_factory=GraphSpec)
    objective: ObjectiveSpec = field(default_factory=ObjectiveSpec)
    wsn: WsnSpec = field(default_factory=WsnSpec)
    pcg: PcgConfig = field(default_factory=PcgConfig)
    guidance: GuidanceSpec = field(default_factory=GuidanceSpec)

    def __post_init__(self):
        _check_seed("master_seed", self.master_seed)
        if self.num_runs < 1:
            raise ConfigError("num_runs must be positive")
        # Path("") is the working directory.
        if not self.output_dir:
            raise ConfigError("output_dir (--out) must name a directory, got ''")
        if not self.suite:
            raise ConfigError("suite must name at least one family")
        for fam in self.suite:
            if fam not in FAMILIES:
                raise ConfigError(f"unknown suite family {fam!r}; choices: {FAMILIES}")
        # A repeated family's runs would overwrite the first one's traces.
        if len(set(self.suite)) < len(self.suite):
            raise ConfigError(f"suite names a family twice: {self.suite}")


_NESTED = {
    f.name: f.default_factory for f in fields(ExperimentConfig) if is_dataclass(f.default_factory)
}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite_number(value) -> bool:
    # Also false for NaN, and for an int too large to become a float.
    return (_is_int(value) or isinstance(value, float)) and abs(value) <= sys.float_info.max


def _is_edge_list(value) -> bool:
    return isinstance(value, list) and all(
        isinstance(edge, list) and len(edge) == 2 and all(_is_int(k) for k in edge)
        for edge in value
    )


# Keys whose default is None: the test a non-null value must pass, and what
# the error message says it must be.
_OPTIONAL = {
    "graph.edge_prob": (_is_finite_number, "a finite number"),
    "graph.seed": (_is_int, "an integer"),
    "graph.edges": (_is_edge_list, "a list of [a, b] integer pairs"),
    "guidance.llm_url": (lambda v: isinstance(v, str), "a string"),
    "guidance.llm_model": (lambda v: isinstance(v, str), "a string"),
}


def _checked(value, default, key: str):
    """`value` if its type matches `default`'s, else a ConfigError naming `key`.

    An int passes where a float is expected; a bool does not pass as a number,
    and NaN, infinity (both accepted by Python's JSON reader) and integers
    beyond the float range not at all. A None default accepts null or what
    the key's `_OPTIONAL` test passes.
    """
    if default is None:
        valid, expected = _OPTIONAL[key]
        if value is not None and not valid(value):
            raise ConfigError(f"{key} must be {expected} or null, got {value!r}")
        return value
    accepted = (int, float) if isinstance(default, float) else type(default)
    if isinstance(value, bool) is not isinstance(default, bool) or not isinstance(value, accepted):
        raise ConfigError(
            f"{key} must be {type(default).__name__}, got {type(value).__name__} {value!r}"
        )
    # Also false for NaN, and for an int too large to become a float.
    if isinstance(value, (int, float)) and not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{key} must be a finite number, got {value!r:.30}")
    return value


def checked_field(spec, name: str, value, key: str):
    """`value` for field `name` of dataclass `spec`, checked against the
    field's default as a config file's value is; errors name `key`."""
    f = next(f for f in fields(spec) if f.name == name)
    return _checked(value, f.default if f.default is not MISSING else f.default_factory(), key)


def _from_dict(cls, data: dict, context: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{context}: expected an object, got {type(data).__name__}")
    known = {f.name for f in fields(cls)}
    kwargs = {}
    for key, value in data.items():
        if key not in known:
            raise ConfigError(f"unknown configuration key {context}{key!r}")
        if key in _NESTED and cls is ExperimentConfig:
            kwargs[key] = _from_dict(_NESTED[key], value, context=f"{key}.")
        else:
            kwargs[key] = checked_field(cls, key, value, context + key)
    return cls(**kwargs)


def config_from_dict(data: dict) -> ExperimentConfig:
    return _from_dict(ExperimentConfig, data, context="")


def load_config(path: str | Path | None) -> ExperimentConfig:
    if path is None:
        return ExperimentConfig()
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    return config_from_dict(data)


# -- builders -------------------------------------------------------------------


def build_graph(cfg: ExperimentConfig, num_agents: int) -> CommGraph:
    g = cfg.graph
    if num_agents == 1:
        return build_explicit(1, [])
    if g.kind == "ring":
        return build_ring(num_agents)
    if g.kind == "random":
        return build_random_connected(num_agents, g.edge_prob, g.seed)
    edges = [(int(a), int(b)) for a, b in (g.edges or [])]
    return build_explicit(num_agents, edges)


def build_benchmark(cfg: ExperimentConfig, family: str) -> BenchmarkSpec:
    o = cfg.objective
    return make_spec(
        family,
        num_agents=o.num_agents,
        dim=o.dim,
        hetero_sigma=o.hetero_sigma,
        seed=o.suite_seed,
        bound=o.bound,
    )


def build_wsn_objective(cfg: ExperimentConfig, num_targets: int, seed: int) -> WsnObjectiveSet:
    w = cfg.wsn
    scenario = gen_scenario(
        num_sensors=w.num_sensors,
        num_targets=num_targets,
        seed=seed,
        noise_sigma=w.noise_sigma,
    )
    phi = gen_measurements(scenario, seed=seed)
    return WsnObjectiveSet(scenario=scenario, phi=phi)


def build_run_config(
    cfg: ExperimentConfig, objective, graph, master_seed: int, **overrides
) -> RunConfig:
    """The RunConfig of one seeded run of `cfg`. Every RunConfig field that
    `cfg` has under the same name is copied; the built objective and graph,
    the seed and the resolved LLM endpoint replace the rest. Keyword
    `overrides` replace RunConfig fields before RunConfig checks them, so
    every setting a caller changes is checked like one read from the file."""
    shared = {f.name: getattr(cfg, f.name) for f in fields(RunConfig) if hasattr(cfg, f.name)}
    run = {**shared, "objective": objective, "graph": graph, "master_seed": master_seed, **overrides}
    asks_llm = run["provider"] == "llm" and run["variant"] != "baseline"
    return RunConfig(**{"llm": _llm_endpoint(cfg.guidance, asks_llm), **run})


def seeded_runs(cfg: ExperimentConfig, objective, **overrides) -> list[RunConfig]:
    """The `cfg.num_runs` seeded runs of `cfg` on `objective`: run k has seed
    `cfg.master_seed + k`, and all share one graph. `overrides` go to
    build_run_config."""
    graph = build_graph(cfg, objective.num_agents)
    return [
        build_run_config(cfg, objective, graph, cfg.master_seed + k, **overrides)
        for k in range(cfg.num_runs)
    ]


def wsn_runs(cfg: ExperimentConfig) -> list[tuple[int, WsnObjectiveSet, RunConfig]]:
    """The WSN sweep of `cfg` as (num_targets, objective, RunConfig) triples:
    every target count from 1 to `cfg.wsn.num_targets`, and for each, run k
    with seed `cfg.master_seed + k` for both its scenario and its run, for
    `k < cfg.num_runs`. All share one graph. Every run is built, and so
    checked, before any of them runs."""
    graph = build_graph(cfg, cfg.wsn.num_sensors)
    runs = []
    for nt in range(1, cfg.wsn.num_targets + 1):
        for k in range(cfg.num_runs):
            seed = cfg.master_seed + k
            objective = build_wsn_objective(cfg, nt, seed)
            runs.append((nt, objective, build_run_config(cfg, objective, graph, seed)))
    return runs


def _llm_endpoint(g: GuidanceSpec, asks_llm: bool) -> LlmEndpoint | None:
    """The configured LLM endpoint, None if there is none. The config's URL and
    model win; the environment fills only a missing one; the timeout is
    always the config's. A URL the endpoint rejects is a ConfigError naming
    where it came from, if the run `asks_llm`; a run that never asks gets
    None instead."""
    url = g.llm_url or os.environ.get(ENV_LLM_URL)
    model = g.llm_model or os.environ.get(ENV_LLM_MODEL)
    if not url or not model:
        return None
    try:
        return LlmEndpoint(base_url=url, model=model, timeout=g.llm_timeout)
    except ConfigError as exc:
        if not asks_llm:
            return None
        source = "guidance.llm_url" if g.llm_url else ENV_LLM_URL
        raise ConfigError(f"{source}: {exc}") from None
