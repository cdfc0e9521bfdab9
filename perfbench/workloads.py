"""Benchmark workloads: inputs derived from the workload seed, and the output check.

A workload is a fixed list of engine runs (jobs). One pass over the list is a
*unit*; the benchmark repeats units back to back in one process (a closed
loop) until its time is up, so every repetition sees identical inputs.

Why these two (see BENCHMARK.json for the one-line versions):

- consensus_ref is the paper's reference run (sphere, N=20, D=10, ring). Time
  goes to the swarm step and local evaluation; cooperation and guidance are
  under 2% of it. Runs stop at consensus, so slower convergence shows as wall
  time here.
- wsn_llm is the only workload that evaluates the WSN localisation objectives
  and that takes guidance over HTTP (from the in-process stub in
  llm_stub.py), including parse failures and heuristic fallback.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from lacmas.engine import RunConfig, RunReport, write_trace_csv
from lacmas.guidance import LlmEndpoint
from lacmas.objectives import make_spec
from lacmas.topology import build_ring
from lacmas.wsn import WsnObjectiveSet, WsnScenario, gen_measurements, gen_scenario, system_error
from llm_stub import DELAY_S

CONVERGENCE_THRESHOLD = 1e-7
# Twice the worst single-target error seen over 90 workload seeds (8.8e-3):
# with the stub, a few seeds end on a consensus plateau above 1e-3.
WSN_SINGLE_TARGET_MAX_ERROR = 2e-2
ERROR_FLOOR = 1e-300

# Spans every workload must record (see spans.py); the rest are per workload.
COMMON_SPANS = (
    "engine.run",
    "engine.history_append",
    "swarm.step_particles",
    "swarm.inject_fused_state",
    "swarm.divergence",
    "swarm.representative_state",
    "scheduler.gates",
    "guidance.advise_act",
    "guidance.advise_coop",
    "cooperation.build_descriptor",
    "cooperation.project_weights",
    "cooperation.assemble_mixing_matrix",
    "analysis.check_admissibility",
)
_SUITE_SPANS = ("objectives.eval_local_batch", "objectives.eval_global")
_WSN_SPANS = ("wsn.eval_local_batch", "wsn.eval_global", "guidance.llm_advise", "guidance.parse")


@dataclass(frozen=True)
class Job:
    """One engine run of a workload unit, with what its output check needs."""

    label: str
    config: RunConfig
    must_converge: bool = False
    scenario: WsnScenario | None = None
    phi: np.ndarray | None = None
    max_error: float | None = None


@dataclass(frozen=True)
class Outcome:
    """What one engine run produced, reduced to what the benchmark reports."""

    label: str
    seconds: float
    kernel_s: float  # host-speed kernel time around the run (hostspeed.py)
    sleep_s: float  # part of `seconds` spent in the LLM stub's fixed delay
    rounds: int
    agent_rounds: int
    converged_at: int | None
    comm_to_consensus: int
    final_error: float
    act_calls: int
    coop_calls: int
    fallbacks: int
    digest: str
    problems: tuple[str, ...]


def _derive(seed: int, tag: int, count: int) -> list[int]:
    """`count` instance or master seeds derived from the workload seed."""
    return [int(s) for s in np.random.SeedSequence([seed, tag]).generate_state(count)]


def consensus_ref(seed: int, llm_url: str | None) -> list[Job]:
    spec = make_spec("sphere", num_agents=20, dim=10, hetero_sigma=0.0, seed=7)
    graph = build_ring(20)
    return [
        Job(
            label=f"master{m}",
            config=RunConfig(
                objective=spec,
                graph=graph,
                variant="full",
                provider="heuristic",
                master_seed=m,
                max_iterations=5000,
                convergence_threshold=CONVERGENCE_THRESHOLD,
            ),
            must_converge=True,
        )
        for m in _derive(seed, 1, 4)
    ]


def wsn_llm(seed: int, llm_url: str | None) -> list[Job]:
    instance, master = _derive(seed, 3, 2)
    graph = build_ring(8)
    endpoint = LlmEndpoint(base_url=llm_url or "http://127.0.0.1:9", model="stub", timeout=10.0)
    jobs = []
    for targets in (1, 2, 3):
        scenario = gen_scenario(num_sensors=8, num_targets=targets, seed=instance, noise_sigma=0.0)
        phi = gen_measurements(scenario, seed=instance)
        config = RunConfig(
            objective=WsnObjectiveSet(scenario=scenario, phi=phi),
            graph=graph,
            variant="full",
            provider="llm",
            llm=endpoint,
            master_seed=master,
            max_iterations=600,
            convergence_threshold=CONVERGENCE_THRESHOLD,
            stop_at_convergence=False,
        )
        jobs.append(
            Job(
                label=f"targets{targets}",
                config=config,
                scenario=scenario,
                phi=phi,
                max_error=WSN_SINGLE_TARGET_MAX_ERROR if targets == 1 else None,
            )
        )
    return jobs


BUILDERS = {"consensus_ref": consensus_ref, "wsn_llm": wsn_llm}
USES_LLM = {"wsn_llm"}


def expected_spans(workload: str) -> tuple[str, ...]:
    extra = _WSN_SPANS if workload == "wsn_llm" else _SUITE_SPANS
    return COMMON_SPANS + extra


def trace_digest(report: RunReport, scratch: Path) -> str:
    """SHA-256 of the bytes write_trace_csv produces for this report."""
    write_trace_csv(report, scratch)
    return hashlib.sha256(scratch.read_bytes()).hexdigest()


def check(job: Job, report: RunReport, seconds: float, kernel_s: float, scratch: Path) -> Outcome:
    """Reduce one run to an Outcome, listing every way its output is wrong."""
    problems = []
    if report.aborted:
        problems.append(f"aborted: {report.fault}")
    if report.admissibility_violations:
        problems.append(f"{report.admissibility_violations} admissibility violations")
    if job.must_converge and report.converged_at is None:
        problems.append("did not reach consensus")
    if job.scenario is not None:
        error = system_error(job.scenario, job.phi, report.final_states)
    else:
        error = report.final_fitness_mean_state
    finite = {
        "final_error": error,
        "final_fitness_mean_state": report.final_fitness_mean_state,
        "final_mean_local_fitness": report.final_mean_local_fitness,
        "final_best_agent_value": report.final_best_agent_value,
        "final_disagreement": report.disagreement_trace[-1] if report.disagreement_trace else math.nan,
    }
    problems += [f"{name} is not finite" for name, v in finite.items() if not math.isfinite(v)]
    if job.max_error is not None and not error < job.max_error:
        problems.append(f"error {error:.3e} >= {job.max_error:g}")
    rounds = len(report.disagreement_trace)
    # Every guidance call of an llm run waits once for the stub's delay.
    sleep_s = DELAY_S * (report.act_calls + report.coop_calls) if job.config.provider == "llm" else 0.0
    return Outcome(
        label=job.label,
        seconds=seconds,
        kernel_s=kernel_s,
        sleep_s=sleep_s,
        rounds=rounds,
        agent_rounds=rounds * job.config.objective.num_agents,
        converged_at=report.converged_at,
        comm_to_consensus=report.comm_cost_at_convergence,
        final_error=error,
        act_calls=report.act_calls,
        coop_calls=report.coop_calls,
        fallbacks=report.provider_fallbacks,
        digest=trace_digest(report, scratch),
        problems=tuple(problems),
    )


def outcome_metrics(outcomes: list[Outcome]) -> dict[str, tuple[float, str]]:
    """The consensus-quality figures of one unit (identical in every repetition),
    as (value, unit). A run that never reached consensus counts the rounds and
    scalars it spent, as RunReport.comm_cost_at_convergence does."""
    rounds = [o.converged_at + 1 if o.converged_at is not None else o.rounds for o in outcomes]
    errors = [math.log10(max(o.final_error, ERROR_FLOOR)) for o in outcomes]
    return {
        "rounds_to_consensus_p50": (float(np.median(rounds)), "rounds"),
        "comm_scalars_to_consensus_p50": (
            float(np.median([o.comm_to_consensus for o in outcomes])),
            "scalars",
        ),
        "converged_frac": (sum(o.converged_at is not None for o in outcomes) / len(outcomes), "ratio"),
        "final_error_log10_p50": (float(np.median(errors)), "log10"),
    }
