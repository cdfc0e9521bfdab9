#!/usr/bin/env python3
"""Localization error versus target count on the preset configs/wsn_sweep.json:
every target count from 1 to its `wsn.num_targets`, `num_runs` seeds each.

Run k of a target count uses seed `master_seed + k` both for the scenario
(`wsn.seed`) and for the run. Writes err_by_targets.csv under the preset's
output_dir and prints the mean final error per target count. As in acceptance
criterion 9, errors are floored at the success threshold 1e-3 before the means
are ordered: depths below it are all "solved", and their differences are
numerical floor noise.
"""

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from lacmas.config import build_graph, build_run_config, build_wsn_objective, load_config
from lacmas.engine import run
from lacmas.wsn import system_error

PRESET = Path(__file__).resolve().parent.parent / "configs" / "wsn_sweep.json"
SUCCESS_ERROR = 1e-3


def sweep_runs(cfg):
    """(num_targets, objective, RunConfig) of every run of the sweep, built,
    and so checked, before any of them runs."""
    runs = []
    for nt in range(1, cfg.wsn.num_targets + 1):
        for k in range(cfg.num_runs):
            seed = cfg.master_seed + k
            cfg_k = replace(cfg, wsn=replace(cfg.wsn, num_targets=nt, seed=seed))
            objective = build_wsn_objective(cfg_k)
            graph = build_graph(cfg_k, objective.num_agents)
            runs.append((nt, objective, build_run_config(cfg_k, objective, graph, seed)))
    return runs


def sweep(cfg) -> dict[int, list[float]]:
    """Final system error of every run, by target count, in seed order."""
    errors = {}
    for nt, objective, run_cfg in sweep_runs(cfg):
        report = run(run_cfg)
        err = system_error(objective.scenario, objective.phi, report.final_states)
        errors.setdefault(nt, []).append(err)
    return errors


def floored_means(errors: dict[int, list[float]]) -> dict[int, float]:
    """Mean error per target count, each error floored at SUCCESS_ERROR."""
    return {nt: float(np.mean(np.maximum(errs, SUCCESS_ERROR))) for nt, errs in errors.items()}


def main() -> int:
    cfg = load_config(PRESET)
    errors = sweep(cfg)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    lines = ["num_targets,seed,final_err"]
    for nt, errs in errors.items():
        lines += [f"{nt},{cfg.master_seed + k},{err!r}" for k, err in enumerate(errs)]
    (out / "err_by_targets.csv").write_text("\n".join(lines) + "\n")
    hits = sum(e < SUCCESS_ERROR for e in errors[1])
    print(f"single-target runs below {SUCCESS_ERROR:g}: {hits}/{len(errors[1])}")
    means = floored_means(errors)
    for nt, mean in means.items():
        print(f"targets={nt}: mean final err (floored at {SUCCESS_ERROR:g}) {mean:.3e}")
    counts = list(means)
    trend_ok = all(means[a] <= means[b] for a, b in zip(counts, counts[1:]))
    print(f"floored error non-decreasing in target count: {trend_ok}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
