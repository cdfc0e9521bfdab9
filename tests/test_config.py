import json
import re
import threading
from dataclasses import fields
from pathlib import Path

import pytest

from lacmas.config import (
    ExperimentConfig,
    build_benchmark,
    build_graph,
    build_run_config,
    build_wsn_objective,
    config_from_dict,
    floored_means,
    load_config,
    seeded_runs,
    wsn_runs,
)
from lacmas.engine import RunConfig
from lacmas.errors import ConfigError
from lacmas.guidance import LlmEndpoint
from lacmas.topology import build_random_connected


def test_empty_config_is_runnable():
    cfg = ExperimentConfig()
    objective = build_benchmark(cfg, "sphere")
    graph = build_graph(cfg, objective.num_agents)
    run_cfg = build_run_config(cfg, objective, graph, master_seed=0)
    assert run_cfg.max_iterations > 0
    assert run_cfg.graph.num_agents == objective.num_agents


def test_load_without_file_gives_defaults():
    cfg = load_config(None)
    assert cfg.variant == "full"
    assert cfg.num_runs == 25
    assert len(cfg.suite) == 10


def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigError, match="unknow"):
        config_from_dict({"variantt": "full"})


def test_unknown_nested_key_names_the_key():
    with pytest.raises(ConfigError, match="horizon_X"):
        config_from_dict({"pcg": {"horizon_X": 5}})


def test_unknown_suite_family_rejected():
    with pytest.raises(ConfigError, match="unknown suite family"):
        config_from_dict({"suite": ["spheres"]})


def test_bad_graph_kind_rejected():
    with pytest.raises(ConfigError):
        config_from_dict({"graph": {"kind": "torus"}})


def test_nested_values_applied():
    cfg = config_from_dict(
        {
            "objective": {"num_agents": 6, "dim": 4, "hetero_sigma": 1.5},
            "pcg": {"horizon_T": 99},
        }
    )
    assert cfg.objective.num_agents == 6
    assert cfg.pcg.horizon_T == 99


def test_load_config_file_roundtrip(tmp_path):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({"variant": "coop", "master_seed": 5}))
    cfg = load_config(path)
    assert cfg.variant == "coop"
    assert cfg.master_seed == 5


def test_invalid_json_rejected(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    with pytest.raises(ConfigError):
        load_config(path)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.json")


def test_build_graph_variants():
    cfg = config_from_dict({"graph": {"kind": "random", "edge_prob": 0.5, "seed": 3}})
    g = build_graph(cfg, 8)
    assert g.num_agents == 8
    cfg2 = config_from_dict({"graph": {"kind": "explicit", "edges": [[0, 1], [1, 2]]}})
    g2 = build_graph(cfg2, 3)
    assert g2.neighbor_lists[1] == (0, 2)


def test_random_graph_defaults():
    # A random graph given neither key samples with edge_prob 0.3 and seed 0.
    cfg = config_from_dict({"graph": {"kind": "random"}})
    assert (cfg.graph.edge_prob, cfg.graph.seed) == (0.3, 0)
    assert build_graph(cfg, 8) == build_random_connected(8, 0.3, 0)


def test_empty_output_dir_rejected():
    with pytest.raises(ConfigError, match="output_dir"):
        config_from_dict({"output_dir": ""})


def test_build_wsn_objective_dimensions():
    cfg = config_from_dict({"wsn": {"num_sensors": 5, "num_targets": 3}})
    obj = build_wsn_objective(cfg, num_targets=2, seed=1)
    assert obj.num_agents == 5
    assert obj.dim == 6


def test_llm_endpoint_built_from_guidance_spec():
    cfg = config_from_dict(
        {"guidance": {"llm_url": "http://localhost:11434", "llm_model": "test"}}
    )
    objective = build_benchmark(cfg, "sphere")
    graph = build_graph(cfg, objective.num_agents)
    run_cfg = build_run_config(cfg, objective, graph, master_seed=0)
    assert run_cfg.llm is not None
    assert run_cfg.llm.base_url == "http://localhost:11434"


def _llm_run_config(data):
    cfg = config_from_dict({"provider": "llm", **data})
    objective = build_benchmark(cfg, "sphere")
    return build_run_config(cfg, objective, build_graph(cfg, objective.num_agents), master_seed=0)


def test_llm_timeout_comes_from_config_with_endpoint_from_env(monkeypatch):
    # The environment's endpoint used to come with the default 30 s timeout.
    monkeypatch.setenv("LACMAS_LLM_URL", "http://env:1")
    monkeypatch.setenv("LACMAS_LLM_MODEL", "env-model")
    run_cfg = _llm_run_config({"guidance": {"llm_timeout": 1.5}})
    assert run_cfg.llm == LlmEndpoint(base_url="http://env:1", model="env-model", timeout=1.5)


def test_llm_config_url_wins_over_env(monkeypatch):
    # A config URL without a model used to be replaced by the environment's URL.
    monkeypatch.setenv("LACMAS_LLM_URL", "http://env:1")
    monkeypatch.setenv("LACMAS_LLM_MODEL", "env-model")
    run_cfg = _llm_run_config({"guidance": {"llm_url": "http://cfg:2"}})
    assert run_cfg.llm == LlmEndpoint(base_url="http://cfg:2", model="env-model", timeout=30.0)
    run_cfg = _llm_run_config({"guidance": {"llm_model": "cfg-model"}})
    assert run_cfg.llm == LlmEndpoint(base_url="http://env:1", model="cfg-model", timeout=30.0)


@pytest.mark.parametrize("timeout", [0, 0.0, -1])
def test_non_positive_llm_timeout_rejected(timeout):
    # Such a timeout fails every request, so every refresh fell back silently.
    with pytest.raises(ConfigError, match="guidance.llm_timeout"):
        config_from_dict({"guidance": {"llm_timeout": timeout}})


def test_llm_timeout_up_to_the_thread_limit_accepted():
    # The socket takes any timeout up to threading.TIMEOUT_MAX, and no more.
    limit = threading.TIMEOUT_MAX
    assert config_from_dict({"guidance": {"llm_timeout": limit}}).guidance.llm_timeout == limit
    with pytest.raises(ConfigError, match="guidance.llm_timeout"):
        config_from_dict({"guidance": {"llm_timeout": limit * 2}})


def test_llm_without_endpoint_rejected(monkeypatch):
    monkeypatch.delenv("LACMAS_LLM_URL", raising=False)
    monkeypatch.setenv("LACMAS_LLM_MODEL", "env-model")
    with pytest.raises(ConfigError, match="llm_url"):
        _llm_run_config({})


# A non-default value of every field ExperimentConfig and RunConfig share.
# objective and graph share only the name: the file holds a spec, the run a
# built objective and graph.
SHARED_FIELD_CASES = {
    "variant": {"variant": "coop"},
    "provider": {"provider": "llm", "guidance": {"llm_url": "http://cfg:2", "llm_model": "m"}},
    "max_iterations": {"max_iterations": 77},
    "convergence_threshold": {"convergence_threshold": 1e-3},
    "master_seed": {"master_seed": 9},
    "log_every": {"log_every": 3},
    "pcg": {"pcg": {"horizon_T": 99}},
}


def test_every_shared_field_has_a_case():
    shared = {f.name for f in fields(ExperimentConfig)} & {f.name for f in fields(RunConfig)}
    assert shared - {"objective", "graph"} == set(SHARED_FIELD_CASES)


@pytest.mark.parametrize("name", SHARED_FIELD_CASES)
def test_shared_field_reaches_the_run_config(name):
    cfg = config_from_dict(SHARED_FIELD_CASES[name])
    assert getattr(cfg, name) != getattr(ExperimentConfig(), name)
    objective = build_benchmark(cfg, "sphere")
    graph = build_graph(cfg, objective.num_agents)
    run_cfg = build_run_config(cfg, objective, graph, master_seed=cfg.master_seed)
    assert getattr(run_cfg, name) == getattr(cfg, name)


def test_heuristic_values_are_not_guidance_keys():
    with pytest.raises(ConfigError, match="stall_eps"):
        config_from_dict({"guidance": {"stall_eps": 0.01}})


@pytest.mark.parametrize(
    "key, value", [("rho_ext", 0.2), ("rho_1", 0.2), ("rho_2", 0.6), ("alphas", [0.2, 0.5, 0.9])]
)
def test_schedule_ratios_are_not_pcg_keys(key, value):
    # They are constants of scheduler.py; horizon_T is the one pcg key.
    with pytest.raises(ConfigError, match=f"unknown configuration key pcg.'{key}'"):
        config_from_dict({"pcg": {key: value}})


def test_int_accepted_where_float_expected():
    cfg = config_from_dict({"convergence_threshold": 1, "objective": {"bound": 50}})
    assert cfg.convergence_threshold == 1
    assert cfg.objective.bound == 50


def test_build_run_config_overrides_are_validated():
    cfg = ExperimentConfig()
    objective = build_benchmark(cfg, "sphere")
    graph = build_graph(cfg, objective.num_agents)
    run_cfg = build_run_config(cfg, objective, graph, master_seed=0, variant="baseline")
    assert run_cfg.variant == "baseline"
    with pytest.raises(ConfigError, match="max_iterations"):
        build_run_config(cfg, objective, graph, master_seed=0, max_iterations=0)


def test_every_none_default_has_a_type_check():
    from lacmas.config import _NESTED, _OPTIONAL

    none_keys = {
        f"{section}.{f.name}"
        for section, cls in _NESTED.items()
        for f in fields(cls)
        if f.default is None
    }
    none_keys |= {f.name for f in fields(ExperimentConfig) if f.default is None}
    assert none_keys == set(_OPTIONAL)


# -- presets ---------------------------------------------------------------------
# Each preset under configs/ builds every one of its runs, so a typo in a
# preset fails here in well under a second instead of in the acceptance gate
# or a long run.

PRESETS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))


def test_presets_are_found():
    assert PRESETS


@pytest.mark.parametrize("path", PRESETS, ids=lambda p: p.stem)
def test_preset_builds_every_run(path):
    cfg = load_config(path)
    if path.stem == "wsn_sweep":
        # Targets x seeds, as `lacmas wsn` builds them.
        runs = wsn_runs(cfg)
        assert len(runs) == cfg.wsn.num_targets * cfg.num_runs
    else:
        # Families x seeds, as `lacmas run` and `lacmas suite` build them.
        runs = [
            run_cfg
            for family in cfg.suite
            for run_cfg in seeded_runs(cfg, build_benchmark(cfg, family))
        ]
        assert len(runs) == len(cfg.suite) * cfg.num_runs


def test_readme_configuration_example_loads():
    # The documented schema is the code's: the README's JSON example, with its
    # `//` comments stripped, loads through config_from_dict.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Configuration", 1)[1]
    example = section.split("```json\n", 1)[1].split("```", 1)[0]
    data = json.loads(re.sub(r"\s+//[^\n]*", "", example))
    config_from_dict(data)
    # It shows every section and top-level key.
    assert set(data) == {f.name for f in fields(ExperimentConfig)}


def test_wsn_sweep_floors_errors_before_ordering():
    # Criterion 9 floors errors at 1e-3: sub-threshold depths are floor noise,
    # and unfloored they would order 1 target (1e-9) after 2 targets (1e-12).
    means = floored_means({1: [1e-9, 1e-5], 2: [1e-12], 3: [0.5, 1e-4]})
    assert means == {1: 1e-3, 2: 1e-3, 3: (0.5 + 1e-3) / 2}
