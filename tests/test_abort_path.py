"""Abort-path pins: a non-finite state mid-round stops the run the same way.

A wrapper around AgentSwarm.step_particles makes agent 2's velocities NaN in a
chosen round of a 4-agent sphere ring, a real non-finite state for the batched
Population.step to find. Every agent draws in that round, but the round commits
whole or not at all: no agent moves, no agent takes values, and the run stops.
So the report is the state after the last complete round, the same as that of
the run capped at the faulting round, and its best value, final states and
trace CSV match the recorded ones in tests/data/abort_path.json. A change that
moves these on purpose regenerates the data and says why in CHANGES.md:

    PYTHONPATH=src python tests/test_abort_path.py --regenerate
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from lacmas.engine import RunConfig, run, write_trace_csv
from lacmas.objectives import make_spec
from lacmas.scheduler import PcgConfig
from lacmas.swarm import AgentSwarm, Population
from lacmas.topology import build_ring

DATA = Path(__file__).resolve().parent / "data" / "abort_path.json"

FAULTY_AGENT = 2
FAULT_ROUNDS = (0, 5)


def _config() -> RunConfig:
    return RunConfig(
        objective=make_spec("sphere", num_agents=4, dim=3, hetero_sigma=0.0, seed=11),
        graph=build_ring(4),
        variant="full",
        master_seed=3,
        max_iterations=60,
        log_every=1,
        pcg=PcgConfig(horizon_T=100),
    )


def _faulting_step(fault_round: int):
    """step_particles that makes FAULTY_AGENT's velocities NaN on its
    fault_round-th call (one call per agent-round, so the call count is the
    round) before it draws."""
    original = AgentSwarm.step_particles
    calls = {"n": 0}

    def step(self, *args, **kwargs):
        if self.agent_id == FAULTY_AGENT:
            if calls["n"] == fault_round:
                self.population.velocities[self.agent_id] = np.nan
            calls["n"] += 1
        return original(self, *args, **kwargs)

    return step


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def fingerprint(fault_round: int, scratch: Path, monkeypatch) -> dict:
    monkeypatch.setattr(AgentSwarm, "step_particles", _faulting_step(fault_round))
    report, _ = _run_recording_tells(monkeypatch)
    assert report.aborted
    return _report_digest(report, scratch / f"abort-round{fault_round}.csv")


def _report_digest(report, csv: Path) -> dict:
    write_trace_csv(report, csv)
    return {
        "final_best_agent_value": report.final_best_agent_value,
        "final_states_sha256": _sha256(_states_bytes(report)),
        "trace_csv_sha256": _sha256(csv.read_bytes()),
    }


def _states_bytes(report) -> bytes:
    return report.final_states.astype("<f8").tobytes()


def _run_recording_tells(monkeypatch):
    """Run the config; return the report and, in order, the agent id of every
    row each batched tell takes."""
    original = Population.tell
    told: list[int] = []

    def tell(self, values):
        told.extend(range(len(self.positions)))
        return original(self, values)

    monkeypatch.setattr(Population, "tell", tell)
    return run(_config()), told


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(DATA.read_text())


def test_data_covers_the_rounds(pinned):
    assert set(pinned) == {f"round{r}" for r in FAULT_ROUNDS}


@pytest.mark.parametrize("fault_round", FAULT_ROUNDS)
def test_abort_matches_pinned_report(fault_round, pinned, tmp_path, monkeypatch):
    assert fingerprint(fault_round, tmp_path, monkeypatch) == pinned[f"round{fault_round}"]


@pytest.mark.parametrize("fault_round", FAULT_ROUNDS)
def test_abort_tells_exactly_the_agents_that_stepped(fault_round, monkeypatch):
    # Every agent at set-up and in each full round, and none in the faulting
    # round, whose step moved no agent: a tell in that round fails.
    monkeypatch.setattr(AgentSwarm, "step_particles", _faulting_step(fault_round))
    report, told = _run_recording_tells(monkeypatch)
    assert report.aborted
    assert told == [0, 1, 2, 3] * (fault_round + 1)


@pytest.mark.parametrize("fault_round", (1, 5, 20))
def test_abort_reports_the_run_capped_at_its_fault_round(fault_round, tmp_path, monkeypatch):
    # A faulting round leaves no trace in the report: it is what the same run
    # stopped by its iteration cap just before that round reports.
    capped = run(replace(_config(), max_iterations=fault_round))
    monkeypatch.setattr(AgentSwarm, "step_particles", _faulting_step(fault_round))
    aborted = run(_config())
    assert aborted.aborted and not capped.aborted
    assert aborted.final_best_agent_value == capped.final_best_agent_value
    assert _states_bytes(aborted) == _states_bytes(capped)
    assert aborted.xi_norm_trace == capped.xi_norm_trace
    write_trace_csv(aborted, tmp_path / "aborted.csv")
    write_trace_csv(capped, tmp_path / "capped.csv")
    assert (tmp_path / "aborted.csv").read_bytes() == (tmp_path / "capped.csv").read_bytes()


@pytest.mark.parametrize("fault_round", FAULT_ROUNDS)
def test_a_non_finite_step_aborts_like_the_pinned_fault(fault_round, monkeypatch):
    # The run names the faulty agent and stops in the faulting round, before
    # that round reaches fusion, the histories or the trace.
    monkeypatch.setattr(AgentSwarm, "step_particles", _faulting_step(fault_round))
    report = run(_config())
    assert report.aborted
    assert report.fault == f"non-finite particle state for agent {FAULTY_AGENT}"
    assert report.stop_reason == "numerical_fault"
    assert len(report.disagreement_trace) == fault_round
    assert list(report.logged_rounds) == list(range(fault_round))
    assert len(report.logged_fitness) == fault_round


SWARM_METHODS = (
    "divergence",
    "step_particles",
    "representative_state",
    "inject_fused_state",
)
# Each swarm row view and the Population array it must stay a row of.
ROW_VIEWS = ("positions", "best_values", "last_values", "draws")
# The Population's (N,) arrays each swarm reads or writes its entry of.
SHARED_ARRAYS = ("spread_sums", "worst", "best_seen")


def test_swarm_arrays_stay_population_rows(monkeypatch):
    # A swarm that rebinds one of its arrays instead of writing in place
    # would drop out of the batched tell, picks and rebase without any
    # error. The 110 rounds cover kicks, the horizon-100 rebase and injection.
    calls = {name: 0 for name in (*SWARM_METHODS, "rebase", "select", "inject", "attract")}
    callers = {name: [] for name in SWARM_METHODS}
    populations: list[Population] = []
    swarms: list[AgentSwarm] = []

    def assert_rows_shared(swarm):
        population, i = populations[-1], swarm.agent_id
        assert swarm.population is population
        for view in ROW_VIEWS:
            assert np.shares_memory(getattr(swarm, view), getattr(population, view)[i]), (view, i)
        # divergence reads entry i of the population's one batched reduction,
        # and inject_fused_state the particle the batched inject picked.
        for name in SHARED_ARRAYS:
            assert getattr(swarm, name) is getattr(population, name), (name, i)

    def checked(name):
        original = getattr(AgentSwarm, name)

        def method(self, *args, **kwargs):
            result = original(self, *args, **kwargs)
            calls[name] += 1
            callers[name].append(self.agent_id)
            assert_rows_shared(self)
            return result

        return method

    population_init, swarm_init = Population.__init__, AgentSwarm.__init__
    tell, rebase = Population.tell, Population.rebase

    def checked_population_init(self, *args, **kwargs):
        population_init(self, *args, **kwargs)
        populations.append(self)

    def checked_swarm_init(self, *args, **kwargs):
        swarm_init(self, *args, **kwargs)
        swarms.append(self)

    def checked_tell(self, *args, **kwargs):
        tell(self, *args, **kwargs)
        for swarm in swarms:
            assert_rows_shared(swarm)

    def checked_rebase(self):
        rebase(self)
        calls["rebase"] += 1
        for swarm in swarms:
            assert_rows_shared(swarm)

    def counted(name):
        original = getattr(Population, name)

        def method(self, *args, **kwargs):
            original(self, *args, **kwargs)
            calls[name] += 1

        return method

    for name in SWARM_METHODS:
        monkeypatch.setattr(AgentSwarm, name, checked(name))
    monkeypatch.setattr(Population, "__init__", checked_population_init)
    monkeypatch.setattr(AgentSwarm, "__init__", checked_swarm_init)
    monkeypatch.setattr(Population, "tell", checked_tell)
    monkeypatch.setattr(Population, "rebase", checked_rebase)
    for name in ("select", "inject", "attract"):
        monkeypatch.setattr(Population, name, counted(name))
    rounds = 110
    report = run(replace(_config(), max_iterations=rounds))
    assert not report.aborted and len(report.disagreement_trace) == rounds
    assert all(calls.values()), calls
    # One batched regime gate and one batched injection pass per round. The
    # benchmark harness counts the per-agent seams: one divergence, draw and
    # injection per agent and round, in agent order, and one
    # representative_state per agent at set-up.
    for name in ("select", "inject", "attract"):
        assert calls[name] == rounds, name
    for name in ("divergence", "step_particles", "inject_fused_state"):
        assert calls[name] == 4 * rounds, name
        assert callers[name] == [0, 1, 2, 3] * rounds, name
    assert calls["representative_state"] == 4
    assert callers["representative_state"] == [0, 1, 2, 3]
    assert len(populations) == 1 and populations[0].kicking.any()
    assert [swarm.agent_id for swarm in swarms] == [0, 1, 2, 3]


def _regenerate() -> None:
    import tempfile

    data = {}
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        for r in FAULT_ROUNDS:
            data[f"round{r}"] = fingerprint(r, Path(tmp), mp)
            mp.undo()
    DATA.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(data)} cases to {DATA}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: python tests/test_abort_path.py --regenerate")
    _regenerate()
