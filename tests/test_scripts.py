"""The experiment scripts under scripts/ and the presets under configs/.

Each script imports and exposes main(); a script broken by a name the package
dropped fails here instead of at its next run. Each preset builds every one of
its runs, so a typo in a preset fails here in well under a second instead of
in the acceptance gate or a long run.
"""

import json
from pathlib import Path

import pytest

from lacmas.cli import EXIT_OK, main
from lacmas.config import build_benchmark, config_from_dict, load_config, seeded_runs
from lacmas.engine import run

REPO = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((REPO / "scripts").glob("*.py"))
PRESETS = sorted((REPO / "configs").glob("*.json"))


def test_scripts_are_found():
    assert SCRIPTS


def test_presets_are_found():
    assert PRESETS


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.stem)
def test_script_imports_and_exposes_main(path, load_script):
    assert callable(load_script(path.stem).main)


@pytest.mark.parametrize("path", PRESETS, ids=lambda p: p.stem)
def test_preset_builds_every_run(path, load_script):
    cfg = load_config(path)
    if path.stem == "wsn_sweep":
        # Targets x seeds, as the sweep script builds them.
        runs = load_script("wsn_sweep").sweep_runs(cfg)
        assert len(runs) == cfg.wsn.num_targets * cfg.num_runs
    else:
        # Families x seeds, as `lacmas run` and `lacmas suite` build them.
        runs = [
            run_cfg
            for family in cfg.suite
            for run_cfg in seeded_runs(cfg, build_benchmark(cfg, family))
        ]
        assert len(runs) == len(cfg.suite) * cfg.num_runs


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
    run_cfgs = seeded_runs(cfg, build_benchmark(cfg, "sphere"), stop_at_convergence=False)
    bests = [run(run_cfg).final_best_agent_value for run_cfg in run_cfgs]
    assert float(cells["mean_best_agent_value"]) == sum(bests) / 2


def test_wsn_sweep_floors_errors_before_ordering(load_script):
    # Criterion 9 floors errors at 1e-3: sub-threshold depths are floor noise,
    # and unfloored they would order 1 target (1e-9) after 2 targets (1e-12).
    sweep = load_script("wsn_sweep")
    means = sweep.floored_means({1: [1e-9, 1e-5], 2: [1e-12], 3: [0.5, 1e-4]})
    assert means == {1: 1e-3, 2: 1e-3, 3: (0.5 + 1e-3) / 2}
