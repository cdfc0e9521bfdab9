#!/usr/bin/env python3
"""Localization error versus target count: 8 sensors, 1-3 targets, 10 seeds
each, noiseless measurements, full variant.

Writes results/wsn_sweep/err_by_targets.csv and prints the mean final error
per target count. As in acceptance criterion 9, errors are floored at the
success threshold 1e-3 before the means are ordered: depths below it are all
"solved", and their differences are numerical floor noise.
"""

import sys
from pathlib import Path

import numpy as np

from lacmas.engine import RunConfig, run
from lacmas.topology import build_ring
from lacmas.wsn import WsnObjectiveSet, gen_measurements, gen_scenario, system_error

SEEDS = range(10)
TARGET_COUNTS = (1, 2, 3)
BUDGET = 3000
SUCCESS_ERROR = 1e-3


def floored_means(errors: dict[int, list[float]]) -> dict[int, float]:
    """Mean error per target count, each error floored at SUCCESS_ERROR."""
    return {nt: float(np.mean(np.maximum(errs, SUCCESS_ERROR))) for nt, errs in errors.items()}


def main() -> int:
    out = Path("results/wsn_sweep")
    out.mkdir(parents=True, exist_ok=True)
    graph = build_ring(8)
    lines = ["num_targets,seed,final_err"]
    errors = {}
    for nt in TARGET_COUNTS:
        errs = []
        for seed in SEEDS:
            scenario = gen_scenario(num_sensors=8, num_targets=nt, seed=seed, noise_sigma=0.0)
            phi = gen_measurements(scenario, seed=seed)
            objective = WsnObjectiveSet(scenario=scenario, phi=phi)
            cfg = RunConfig(
                objective=objective, graph=graph, variant="full",
                master_seed=seed, max_iterations=BUDGET,
            )
            report = run(cfg)
            err = system_error(scenario, phi, report.final_states)
            errs.append(err)
            lines.append(f"{nt},{seed},{err!r}")
        errors[nt] = errs
    (out / "err_by_targets.csv").write_text("\n".join(lines) + "\n")
    hits = sum(e < SUCCESS_ERROR for e in errors[1])
    print(f"single-target runs below {SUCCESS_ERROR:g}: {hits}/{len(errors[1])}")
    means = floored_means(errors)
    for nt in TARGET_COUNTS:
        print(f"targets={nt}: mean final err (floored at {SUCCESS_ERROR:g}) {means[nt]:.3e}")
    trend_ok = all(means[a] <= means[b] for a, b in zip(TARGET_COUNTS, TARGET_COUNTS[1:]))
    print(f"floored error non-decreasing in target count: {trend_ok}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
