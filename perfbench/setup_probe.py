"""Time one workload's set-up in a fresh process and print it as JSON.

Set-up is importing lacmas (numpy and requests included), then building the
workload's objectives, graphs and RunConfigs and running its first engine run
up to the start of the first round. The run is stopped there by making the
first call of AgentSwarm.divergence, which opens every round, raise.

    python3 perfbench/setup_probe.py --workload consensus_ref --seed 0
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

t0 = time.perf_counter()
import lacmas.engine  # noqa: E402
import lacmas.objectives  # noqa: E402,F401
import lacmas.topology  # noqa: E402,F401
import lacmas.wsn  # noqa: E402,F401

t1 = time.perf_counter()

import argparse  # noqa: E402

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402
from lacmas.swarm import AgentSwarm  # noqa: E402


class _FirstRound(Exception):
    pass


def _stop(self):
    raise _FirstRound


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()

    t2 = time.perf_counter()
    jobs = workloads.BUILDERS[args.workload](args.seed, None)
    AgentSwarm.divergence = _stop
    try:
        lacmas.engine.run(jobs[0].config)
    except _FirstRound:
        pass
    else:
        sys.exit("engine.run finished without starting a round")
    t3 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "build_s": t3 - t2}))


if __name__ == "__main__":
    main()
