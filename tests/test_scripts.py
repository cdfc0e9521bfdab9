"""The experiment scripts under scripts/: each imports, exposes main() and
reproduces the acceptance criterion it is named after.

Importing runs nothing (each script guards on __main__), but it does resolve
every lacmas name the script uses, so a script broken by a name the package
dropped fails here instead of at its next run.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from lacmas.cli import EXIT_OK, main
from lacmas.config import build_benchmark, build_graph, build_run_config, config_from_dict
from lacmas.engine import run

SCRIPTS_DIR = Path(__file__).resolve().parent.parent / "scripts"
SCRIPTS = sorted(SCRIPTS_DIR.glob("*.py"))


def load(path):
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_scripts_are_found():
    assert SCRIPTS


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.stem)
def test_script_imports_and_exposes_main(path):
    assert callable(load(path).main)


def test_ablation_desk_runs_criterion_6_instances():
    # Criterion 6 (tests/test_acceptance.py): the first six suite families,
    # 10 agents, D=10, homogeneous, suite seed 3, 10 seeds, 1500 rounds.
    config = load(SCRIPTS_DIR / "ablation_desk.py").CONFIG
    assert config["suite"] == [
        "sphere", "elliptic", "schwefel_1_2", "rosenbrock", "rastrigin", "ackley"
    ]
    assert config["objective"] == {
        "num_agents": 10, "dim": 10, "hetero_sigma": 0.0, "suite_seed": 3
    }
    assert (config["num_runs"], config["max_iterations"]) == (10, 1500)


def test_suite_table_has_criterion_6_fitness_reading(tmp_path):
    # Criterion 6 compares final_best_agent_value; the table must carry its mean.
    data = {"objective": {"num_agents": 4, "dim": 3}, "max_iterations": 30, "num_runs": 2}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "out"
    argv = ["suite", "--config", str(path), "--suite", "sphere", "--variants", "full",
            "--out", str(out)]
    assert main(argv) == EXIT_OK
    header, row = (out / "ablation.csv").read_text().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    cfg = config_from_dict(data)
    objective = build_benchmark(cfg, "sphere")
    graph = build_graph(cfg, objective.num_agents)
    bests = [
        run(build_run_config(cfg, objective, graph, seed, stop_at_convergence=False))
        .final_best_agent_value
        for seed in range(2)
    ]
    assert float(cells["mean_best_agent_value"]) == sum(bests) / 2


def test_wsn_sweep_floors_errors_before_ordering():
    # Criterion 9 floors errors at 1e-3: sub-threshold depths are floor noise,
    # and unfloored they would order 1 target (1e-9) after 2 targets (1e-12).
    sweep = load(SCRIPTS_DIR / "wsn_sweep.py")
    means = sweep.floored_means({1: [1e-9, 1e-5], 2: [1e-12], 3: [0.5, 1e-4]})
    assert means == {1: 1e-3, 2: 1e-3, 3: (0.5 + 1e-3) / 2}
