"""Golden trajectory pins: the same seeds must give byte-identical traces.

Every case runs the engine with the heuristic provider and compares what the
run produced with tests/data/golden_traces.json: the SHA-256 of the
write_trace_csv bytes (logged every round), the SHA-256 of the xi-norm trace,
the final best-agent and mean-local fitness, the convergence round and the
guidance call counts. Criterion 7 and the CLI determinism test compare two
runs of one build; this file compares a build with the recorded one, and the
guided cases also under the compensated float sum() of Python 3.12 and later.

The grid runs to a fixed budget past a short horizon, so collapse kicks, the
late-stage refocus and both guidance gates all run. The data was recorded with
numpy 2.4.6 on x86-64; another numpy, libm or BLAS build may round differently.
A change that moves trajectories on purpose regenerates the data and says why
in CHANGES.md:

    PYTHONPATH=src python tests/test_golden_traces.py --regenerate
"""

from __future__ import annotations

import builtins
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from lacmas.engine import RunConfig, run, write_trace_csv
from lacmas.objectives import make_spec
from lacmas.scheduler import PcgConfig
from lacmas.topology import build_ring
from lacmas.wsn import WsnObjectiveSet, gen_measurements, gen_scenario

DATA = Path(__file__).resolve().parent / "data" / "golden_traces.json"

NUM_AGENTS = 6
DIM = 4
MAX_ITERATIONS = 200
HORIZON_T = 80
FAMILIES = ("sphere", "rastrigin", "rosenbrock", "rotated_elliptic", "wsn")
VARIANTS = ("baseline", "full")
SEEDS = (0, 1)


def _objective(family: str):
    if family == "wsn":
        scenario = gen_scenario(num_sensors=NUM_AGENTS, num_targets=1, seed=3)
        return WsnObjectiveSet(scenario=scenario, phi=gen_measurements(scenario, seed=3))
    # Homogeneous sphere reaches consensus inside the budget, so converged_at
    # is pinned as a round; the heterogeneous families pin it as None.
    sigma = 0.0 if family == "sphere" else 2.0
    return make_spec(family, NUM_AGENTS, DIM, hetero_sigma=sigma, seed=3)


def _config(family: str, variant: str, seed: int) -> RunConfig:
    return RunConfig(
        objective=_objective(family),
        graph=build_ring(NUM_AGENTS),
        variant=variant,
        master_seed=seed,
        max_iterations=MAX_ITERATIONS,
        stop_at_convergence=False,
        log_every=1,
        pcg=PcgConfig(horizon_T=HORIZON_T),
    )


CASES = {
    f"{family}-{variant}-seed{seed}": (family, variant, seed)
    for family in FAMILIES
    for variant in VARIANTS
    for seed in SEEDS
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def fingerprint(case: str, scratch: Path) -> dict:
    report = run(_config(*CASES[case]))
    assert not report.aborted, report.fault
    csv = scratch / f"{case}.csv"
    write_trace_csv(report, csv)
    return {
        "trace_csv_sha256": _sha256(csv.read_bytes()),
        "xi_norm_sha256": _sha256(np.asarray(report.xi_norm_trace, dtype="<f8").tobytes()),
        "final_best_agent_value": report.final_best_agent_value,
        "final_mean_local_fitness": report.final_mean_local_fitness,
        "converged_at": report.converged_at,
        "act_calls": report.act_calls,
        "coop_calls": report.coop_calls,
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(DATA.read_text())


def test_data_covers_the_grid(golden):
    assert set(golden) == set(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_trace_matches_golden(case, golden, tmp_path):
    assert fingerprint(case, tmp_path) == golden[case]


def compensated_sum(original):
    """builtin sum as Python 3.12 and later compute a sum of floats, with
    Neumaier's compensated summation; any other input goes to `original`."""

    def total(iterable, /, *args, **kwargs):
        items = list(iterable)
        if args or kwargs or not items or not all(type(x) is float for x in items):
            return original(items, *args, **kwargs)
        result = compensation = 0.0
        for x in items:
            t = result + x
            if abs(result) >= abs(x):
                compensation += (result - t) + x
            else:
                compensation += (x - t) + result
            result = t
        # Added only when finite, so an overflowed sum does not become NaN.
        if compensation and math.isfinite(compensation):
            result += compensation
        return result

    return total


@pytest.mark.parametrize("case", sorted(case for case in CASES if "-full-" in case))
def test_guided_trace_holds_under_compensated_float_sums(case, golden, tmp_path, monkeypatch):
    # The pins must not depend on the Python version: from 3.12 on, sum() of
    # floats compensates its rounding, and the guided runs' weight
    # projection moved under it while it summed with sum().
    monkeypatch.setattr(builtins, "sum", compensated_sum(builtins.sum))
    assert fingerprint(case, tmp_path) == golden[case]


def _regenerate() -> None:
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        data = {case: fingerprint(case, Path(tmp)) for case in sorted(CASES)}
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(data)} cases to {DATA}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: python tests/test_golden_traces.py --regenerate")
    _regenerate()
