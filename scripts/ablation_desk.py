#!/usr/bin/env python3
"""Desk-scale ablation table: four variants on six benchmark functions,
10 agents, dimension 10, 10 seeds, fixed budget.

The instances are those of acceptance criterion 6, which compares the coop
variant's mean_comm_cost and the full variant's mean_best_agent_value against
the baseline's. Thin wrapper over the `suite` subcommand; writes
results/ablation/ablation.csv.
"""

import json
import sys
import tempfile

from lacmas.cli import main as cli_main

CONFIG = {
    "objective": {"num_agents": 10, "dim": 10, "hetero_sigma": 0.0, "suite_seed": 3},
    "num_runs": 10,
    "max_iterations": 1500,
    "suite": ["sphere", "elliptic", "schwefel_1_2", "rosenbrock", "rastrigin", "ackley"],
}


def main() -> int:
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        json.dump(CONFIG, fh)
        path = fh.name
    return cli_main(
        [
            "suite",
            "--config", path,
            "--variants", "baseline,coop,act,full",
            "--out", "results/ablation",
        ]
    )


if __name__ == "__main__":
    sys.exit(main())
