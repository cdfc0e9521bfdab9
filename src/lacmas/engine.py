"""Round-synchronous run loop.

`RunState(config)` sets a run up in the rounds' error state: the provider,
one Population holding every agent's swarm rows and seeded generator, the
initial evaluation (one eval_local_batch call per agent, stacked into one
tell, then one attract of the representative_states) and the uniform mixing
matrix. Each round then runs the seven PHASES over that state, in order:

1. `_step`: Population.refocus at the horizon T; one Population.spread pass
   sums every agent's squared particle offsets in one reduction; in agent
   order each agent reads its divergence from those sums and draws its step's
   uniforms, kicks included, from its own generator; one Population.select
   gates every regime and one Population.step moves all;
2. `_evaluate`: one batch call scores every agent's proposals on its local
   objective, one tell takes the values back, and agents publish states;
3. `_guide_act`: at an open inner gate, one refresh_act call takes every
   agent's request, and its answers reset the (d, c) pairs in agent order;
4. `_guide_coop`: at an open outer gate, one refresh_coop call takes every
   agent's request, built from one build_descriptor call, and its answers
   re-weight the mixing matrix in agent order;
5. `_fuse_inject`: every agent fuses the published states under its weights,
   and the fused states, scored in one more batch call, go back in: one
   Population.inject moves every agent's worst particle onto its fused state,
   each agent in agent order records its fused state's value there, and one
   Population.attract sets every attractor;
6. `_bookkeep`: the fault check, one AgentHistory append of the round's raw
   records and the round's disagreement, stored for every round;
7. `_trace`: the convergence test and, on a sampled round, its index and
   global fitness. These are the trace CSV's stored columns; write_trace_csv
   derives `comm_cost`, `stage` and the gates from the round index.

A non-finite particle state stops the run in `_step`, with nothing committed, so
the report holds the state after the last complete round; a non-finite best
value or divergence stops it in `_bookkeep`, before it reaches the history,
and the report's final states are still the last complete round's (the set-up
states if round 0 faults).
RunReport is the run's only accumulator; its `phase_ns` times set-up, each
phase and `_finish`. Serial agent order plus per-agent RNG streams derived
from the master seed make runs bit-reproducible with the heuristic provider.
"""

from __future__ import annotations

import math
import time
from array import array
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import Protocol

import numpy as np

from . import scheduler
from .cooperation import (
    assemble_mixing_matrix,
    build_descriptor,
    check_admissibility,
    project_weights,
)
from .errors import ConfigError, ContractError, RunAborted
from .guidance import (
    ACT_WINDOW,
    C_DEFAULT,
    COOP_WINDOW,
    D_DEFAULT,
    ActRequest,
    CoopRequest,
    HeuristicProvider,
    LlmEndpoint,
    LlmProvider,
)
from .scheduler import PcgConfig
from .swarm import POPULATION, AgentSwarm, Population, box_span
from .topology import CommGraph

VARIANTS = ("baseline", "act", "coop", "full")
_ACT_VARIANTS = ("act", "full")
_COOP_VARIANTS = ("coop", "full")
_GUIDED_VARIANTS = ("act", "coop", "full")

DESCRIPTOR_SCALARS = 2  # fitness / divergence means per exchange

_sum = np.add.reduce
# Set-up and rounds yield inf or NaN on overflow and invalid operations, which
# the rounds report as a numerical fault; numpy's warnings would only repeat it.
_FAULTS_AS_VALUES = {"over": "ignore", "invalid": "ignore"}


class ObjectiveSet(Protocol):
    num_agents: int
    dim: int

    @property
    def lower(self) -> np.ndarray: ...

    @property
    def upper(self) -> np.ndarray: ...

    def eval_local_batch(self, agent: int, xs: np.ndarray) -> np.ndarray: ...

    def eval_all(self, xs: np.ndarray) -> np.ndarray:
        """(N, M, D) -> (N, M): row block i evaluated on agent i's objective."""
        ...

    def eval_global(self, x: np.ndarray) -> float: ...


# -- metrics -------------------------------------------------------------------


def disagreement(states: np.ndarray) -> float:
    """Mean squared deviation of agent states from their mean; 0 iff consensus."""
    states = np.asarray(states, dtype=float)
    n = len(states)
    # sum / n is what ndarray.mean computes, without its Python wrapper.
    d = states - _sum(states, axis=0) / n
    return float(_sum(d * d, axis=None) / n)


def comm_cost_per_round(graph: CommGraph, dim: int) -> int:
    """Scalars on the wire per round: a state vector plus a descriptor pair
    per directed edge."""
    return graph.num_directed_edges() * (dim + DESCRIPTOR_SCALARS)


# -- history -------------------------------------------------------------------


class AgentHistory:
    """The raw records of the last ACT_WINDOW rounds, from which a gate's reader
    derives its window statistics. A record is (best_seen, divergences, fused):
    a copy of Population.best_seen, which tell and injection write in place,
    and the round's own (N,) divergences and (N, D) fused states, never written."""

    def __init__(self):
        self.records = deque(maxlen=ACT_WINDOW)

    def append(self, best_seen: np.ndarray, divergences: np.ndarray, fused: np.ndarray) -> None:
        """Record the next round."""
        self.records.append((best_seen.copy(), divergences, fused))

    def recent(self, window: int) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """The records of the most recent min(window, len) rounds, oldest first."""
        if window < 1:
            # An unchecked 0 would read as an empty window, not a bad request.
            raise ContractError(f"history window must be >= 1, got {window}")
        return list(self.records)[-window:]


def local_disagreement(fused: np.ndarray, graph: CommGraph) -> np.ndarray:
    """Each agent's mean distance to its neighbors' fused states in each of
    w rounds, (w, N, D) -> (w, N); a lone agent has none and reads 0."""
    rounds, n = fused.shape[:2]
    src, dst = graph.edges
    # take gathers the rows fused[:, src] would, at about half the cost.
    e = fused.take(src, 1) - fused.take(dst, 1)
    norms = np.sqrt(_sum(e * e, axis=-1)).ravel()
    # Round k's edges go to bins k * N + src, each adding its edges in edge
    # order, as one round's bincount over src does.
    bins = (src + n * np.arange(rounds)[:, None]).ravel()
    sums = np.bincount(bins, weights=norms, minlength=rounds * n)
    return sums.reshape(rounds, n) / np.maximum(np.bincount(src, minlength=n), 1)


# -- configuration and report ----------------------------------------------------


@dataclass
class RunConfig:
    objective: ObjectiveSet
    graph: CommGraph
    variant: str = "full"
    provider: str = "heuristic"
    max_iterations: int = 5000
    convergence_threshold: float = 1e-7
    # When False the run continues to the iteration cap after the disagreement
    # threshold is first crossed; the crossing is still recorded, which keeps
    # cost-to-convergence and fixed-budget fitness comparable across variants.
    stop_at_convergence: bool = True
    master_seed: int = 0
    log_every: int = 10
    pcg: PcgConfig = field(default_factory=PcgConfig)
    llm: LlmEndpoint | None = None
    record_matrices: bool = False

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.provider not in ("heuristic", "llm"):
            raise ConfigError(f"provider must be heuristic or llm, got {self.provider!r}")
        # A baseline run consults no guidance, so it needs no endpoint.
        if self.provider == "llm" and self.llm is None and self.variant in _GUIDED_VARIANTS:
            raise ConfigError(
                "provider 'llm' needs guidance.llm_url and guidance.llm_model, "
                "or LACMAS_LLM_URL and LACMAS_LLM_MODEL in the environment"
            )
        # range() and SeedSequence take only integers, a fractional log_every
        # would sample every ceil(log_every) rounds, and True would count as 1.
        for key in ("max_iterations", "log_every", "master_seed"):
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ConfigError(f"{key} must be an integer, got {value!r}")
        if self.max_iterations < 1:
            raise ConfigError("max_iterations must be positive")
        # inf would converge at round 0, True would read as 1.0, and a string
        # or None would fail mid-run; the chained test fails NaN too.
        threshold = self.convergence_threshold
        real = isinstance(threshold, (int, float, np.integer, np.floating))
        if isinstance(threshold, bool) or not real or not 0 < threshold < math.inf:
            raise ConfigError(
                f"convergence_threshold must be a finite positive number, got {threshold!r}"
            )
        if self.log_every < 1:
            raise ConfigError("log_every must be positive")
        if self.master_seed < 0:
            raise ConfigError(f"master_seed must be >= 0, got {self.master_seed}")
        if self.graph.num_agents != self.objective.num_agents:
            raise ConfigError(
                f"graph has {self.graph.num_agents} agents, "
                f"objective has {self.objective.num_agents}"
            )
        # Population's own box check, made here so that a bad box fails when
        # the run is built, before a command writes anything.
        box_span(self.objective.lower, self.objective.upper)


@dataclass
class RunReport:
    """What one run produced. The round phases update it in place, so it is
    the run's only accumulator; `_finish` sets the final-state fields. Each
    per-round fact is stored once, in a float64 or int64 column; costs and
    the schedule follow from a round's index, `round_cost` and `pcg`."""

    variant: str
    master_seed: int
    pcg: PcgConfig
    round_cost: int
    disagreement_trace: array = field(default_factory=partial(array, "d"))
    xi_norm_trace: array = field(default_factory=partial(array, "d"))
    logged_rounds: array = field(default_factory=partial(array, "q"))
    logged_fitness: array = field(default_factory=partial(array, "d"))
    converged_at: int | None = None
    final_states: np.ndarray | None = None
    final_mean_state: np.ndarray | None = None
    final_fitness_mean_state: float = math.nan
    final_mean_local_fitness: float = math.nan
    final_best_agent_value: float = math.nan
    act_calls: int = 0
    coop_calls: int = 0
    provider_fallbacks: int = 0
    admissibility_violations: int = 0
    max_row_deviation: float = 0.0
    gate_int_iterations: list[int] = field(default_factory=list)
    # Nanoseconds in set-up ("start"), in each phase of PHASES and in "finish".
    phase_ns: dict[str, int] = field(default_factory=dict)
    stop_reason: str | None = None  # converged, max_iterations or numerical_fault
    aborted: bool = False
    fault: str | None = None
    matrices: list[np.ndarray] | None = None

    @property
    def comm_cost_total(self) -> int:
        """Scalars on the wire over every completed round."""
        return len(self.disagreement_trace) * self.round_cost

    @property
    def comm_cost_at_convergence(self) -> int:
        """Scalars on the wire up to the first threshold crossing, or in all."""
        conv = self.converged_at
        return self.comm_cost_total if conv is None else (conv + 1) * self.round_cost

    @property
    def wall_clock(self) -> float:
        """Seconds from the start of set-up to the end of the run."""
        return sum(self.phase_ns.values()) / 1e9


CSV_HEADER = "iteration,global_fitness_mean_state,disagreement,comm_cost,stage,gate_int,gate_ext"


def write_trace_csv(report: RunReport, path) -> None:
    """Emit the sampled trace; float fields use shortest-roundtrip repr so
    identical runs produce identical bytes. Round t's disagreement comes from
    the per-round trace, and its cost to date, stage and gates from t."""
    lines = [f"# master_seed={report.master_seed} variant={report.variant}", CSV_HEADER]
    pcg, cost, dis = report.pcg, report.round_cost, report.disagreement_trace
    for t, fitness in zip(report.logged_rounds, report.logged_fitness):
        lines.append(
            f"{t},{fitness!r},{dis[t]!r},{(t + 1) * cost},{scheduler.stage(t, pcg)},"
            f"{int(scheduler.gate_int(t, pcg))},{int(scheduler.gate_ext(t, pcg))}"
        )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def summarize(report: RunReport) -> str:
    conv = report.converged_at if report.converged_at is not None else "none"
    lines = [
        f"variant={report.variant} seed={report.master_seed}",
        f"converged_at={conv}",
        f"stop_reason={report.stop_reason}",
        f"final_fitness_mean_state={report.final_fitness_mean_state!r}",
        f"final_mean_local_fitness={report.final_mean_local_fitness!r}",
        f"final_best_agent_value={report.final_best_agent_value!r}",
        f"final_disagreement={report.disagreement_trace[-1]!r}" if report.disagreement_trace else "final_disagreement=nan",
        f"comm_cost_total={report.comm_cost_total}",
        f"comm_cost_at_convergence={report.comm_cost_at_convergence}",
        f"act_calls={report.act_calls} coop_calls={report.coop_calls} fallbacks={report.provider_fallbacks}",
        f"admissibility_violations={report.admissibility_violations}",
        f"wall_clock_s={report.wall_clock:.3f}",
    ]
    if report.aborted:
        lines.append(f"aborted=true fault={report.fault}")
    return "\n".join(lines)


# -- run loop -------------------------------------------------------------------


class RunState:
    """One run's set-up and everything its rounds carry: the provider, the
    population after the initial evaluation, the history and the mixing
    matrix. Within a round, each phase leaves on it what later phases read
    (divergences, fused states)."""

    @np.errstate(**_FAULTS_AS_VALUES)
    def __init__(self, config: RunConfig):
        self.config = config
        self.objective, self.graph = obj, graph = config.objective, config.graph
        self.n = n = obj.num_agents
        guided_llm = config.provider == "llm" and config.variant in _GUIDED_VARIANTS
        self.provider = LlmProvider(endpoint=config.llm) if guided_llm else HeuristicProvider()
        self.population = population = Population(
            n, POPULATION, obj.lower, obj.upper, (D_DEFAULT, C_DEFAULT), config.master_seed
        )
        swarms = [AgentSwarm(population, i) for i in range(n)]
        # The initial values enter the records through tell, as every round's
        # do. Each agent's representative state then seeds its attractor and
        # is its published state before the first round.
        population.tell([obj.eval_local_batch(i, x) for i, x in enumerate(population.positions)])
        self.reps = np.array([swarm.representative_state() for swarm in swarms])
        population.attract(self.reps)
        # The last completed round's fused states; before one, the initial reps.
        self.prev = self.reps
        # A round's per-agent calls, bound once and made in agent order.
        self.divergence_calls = [swarm.divergence for swarm in swarms]
        self.draw_calls = [swarm.step_particles for swarm in swarms]
        self.inject_calls = [swarm.inject_fused_state for swarm in swarms]

        self.history = AgentHistory()
        # The mixing matrix is the only copy of the cooperation weights. It starts
        # uniform and changes only on cooperation refreshes, which verify it again.
        self.matrix = assemble_mixing_matrix(graph)
        self.adm = check_admissibility(self.matrix, graph)
        matrices = [] if config.record_matrices else None
        round_cost = comm_cost_per_round(graph, obj.dim)
        self.report = RunReport(
            config.variant, config.master_seed, config.pcg, round_cost, matrices=matrices
        )


def _step(state: RunState, t: int) -> bool:
    """Adaptive swarm execution: the refocus at the horizon, spread,
    divergences, draws, one select, one step."""
    population = state.population
    if t == state.config.pcg.horizon_T:
        population.refocus()
    # The positions the last round's injection left, as every agent reads them.
    population.spread()
    state.divergences = divergences = np.array([d() for d in state.divergence_calls])
    for draw in state.draw_calls:
        draw()
    population.select(divergences)
    bad = population.step()
    if bad is None:
        return False
    state.report.aborted = True
    state.report.fault = f"non-finite particle state for agent {bad}"
    return True


def _evaluate(state: RunState, t: int) -> bool:
    """One objective call for all agents' rows; publish representatives."""
    population = state.population
    population.tell(state.objective.eval_all(population.positions))
    state.reps = population.representatives()
    return False


def _guide_act(state: RunState, t: int) -> bool:
    """At an open inner gate, act guidance refreshes every agent's (d, c)."""
    config, history = state.config, state.history
    if scheduler.gate_int(t, config.pcg) and config.variant in _ACT_VARIANTS:
        report, population = state.report, state.population
        report.gate_int_iterations.append(t)
        # Best fitness and local disagreement, per agent, oldest first.
        bests, _, fused = map(np.array, zip(*history.recent(ACT_WINDOW)))
        iterations = range(t - len(bests), t)  # one record per round
        fitness, local_dis = bests.T.tolist(), local_disagreement(fused, state.graph).T.tolist()
        coefficients = population.coefficients.tolist()
        # Each request reads only its own agent's pair, so all are built
        # before any answer applies; the answers apply in agent order.
        reqs = [
            ActRequest(t, d, c, tuple(zip(iterations, fitness[i], local_dis[i])))
            for i, (d, c) in enumerate(coefficients)
        ]
        for i, out in enumerate(state.provider.refresh_act(reqs)):
            population.coefficients[i] = out.d, out.c
        report.act_calls += len(reqs)
    return False


def _guide_coop(state: RunState, t: int) -> bool:
    """At an open outer gate, cooperation guidance re-weights every agent's
    row of the mixing matrix: projection, assembly and admissibility."""
    config, history, graph = state.config, state.history, state.graph
    if scheduler.gate_ext(t, config.pcg) and config.variant in _COOP_VARIANTS:
        # A fresh copy, so matrices recorded in earlier rounds stay as they were.
        state.matrix = matrix = state.matrix.copy()
        # Each agent's (avg fitness, avg divergence), computed once for all.
        stats = list(map(tuple, build_descriptor(history, COOP_WINDOW).tolist()))
        # A lone agent asks nothing and keeps its row.
        nbr_lists = graph.neighbor_lists
        agents = [i for i in range(state.n) if nbr_lists[i]]
        reqs = [
            CoopRequest(tuple(nbr_lists[i]), tuple(stats[k] for k in nbr_lists[i]))
            for i in agents
        ]
        for i, out in zip(agents, state.provider.refresh_coop(reqs)):
            matrix[i] = project_weights(out.raw_weights, graph, i)
        state.report.coop_calls += len(reqs)
        state.adm = check_admissibility(matrix, graph)
    return False


def _fuse_inject(state: RunState, t: int) -> bool:
    """Every agent fuses the published states under its weights; the fused
    states, scored in one batch call, go back into the populations."""
    report, adm, reps = state.report, state.adm, state.reps
    state.fused = fused = state.matrix @ reps
    if not adm.passed:
        report.admissibility_violations += 1
    report.max_row_deviation = max(report.max_row_deviation, adm.max_row_deviation)
    if report.matrices is not None:
        report.matrices.append(state.matrix)
    if report.disagreement_trace:
        # np.linalg.norm's Frobenius norm, without its wrapper.
        drift = (reps - state.prev).ravel()
        report.xi_norm_trace.append(math.sqrt(drift.dot(drift)))
    fused_values = state.objective.eval_all(fused[:, None, :])[:, 0].tolist()
    population = state.population
    population.inject(fused)
    for inject, value in zip(state.inject_calls, fused_values):
        inject(value)
    population.attract(fused)
    return False


def _bookkeep(state: RunState, t: int) -> bool:
    """Round metrics, the fault check and one history append."""
    fused, divergences, report = state.fused, state.divergences, state.report
    bests = state.population.best_seen
    finite = np.isfinite(bests) & np.isfinite(divergences)
    if not np.logical_and.reduce(finite):
        # Caught here, a run whose values overflow stops as a numerical
        # fault instead of failing later in a descriptor's range checks.
        bad = int(np.argmin(finite))
        report.aborted = True
        report.fault = (
            f"non-finite best value {float(bests[bad])!r} or divergence "
            f"{float(divergences[bad])!r} for agent {bad} in round {t}"
        )
        return True
    state.history.append(bests, divergences, fused)
    report.disagreement_trace.append(disagreement(fused))
    # fused is a fresh product every round and is never written to.
    state.prev = fused
    return False


def _trace(state: RunState, t: int) -> bool:
    """The sampled round's global fitness and the convergence test."""
    config, report = state.config, state.report
    dis = report.disagreement_trace[-1]
    hit_threshold = dis < config.convergence_threshold and report.converged_at is None
    stopping = hit_threshold and config.stop_at_convergence
    if t % config.log_every == 0 or stopping or t == config.max_iterations - 1:
        mean_state = _sum(state.fused, axis=0) / state.n
        report.logged_rounds.append(t)
        report.logged_fitness.append(state.objective.eval_global(mean_state))
    if hit_threshold:
        report.converged_at = t
    return stopping


# Each phase takes (state, t) and returns True only when the run stops after it.
PHASES = (_step, _evaluate, _guide_act, _guide_coop, _fuse_inject, _bookkeep, _trace)
PHASE_KEYS = ("start", *(phase.__name__[1:] for phase in PHASES), "finish")


def _finish(state: RunState) -> None:
    """The final-state fields of the report."""
    report, obj = state.report, state.objective
    # The last completed round's fused states, or the set-up reps before one;
    # a round that aborts never moves prev.
    report.final_states = final_states = state.prev
    report.final_mean_state = mean_state = final_states.mean(axis=0)
    if not report.aborted:
        report.final_fitness_mean_state = obj.eval_global(mean_state)
        report.final_mean_local_fitness = float(obj.eval_all(final_states[:, None, :]).mean())
    report.final_best_agent_value = float(state.population.best_seen.min())
    report.provider_fallbacks = getattr(state.provider, "fallback_count", 0)


@np.errstate(**_FAULTS_AS_VALUES)
def run(config: RunConfig) -> RunReport:
    """Execute one seeded run to convergence or the iteration cap."""
    clock = time.perf_counter_ns
    begin = clock()
    state = RunState(config)
    mark = clock()
    spent = [mark - begin] + [0] * len(PHASES) + [0]
    phases = tuple(enumerate(PHASES, 1))
    report, stop_reason = state.report, "max_iterations"
    for t in range(config.max_iterations):
        for k, phase in phases:
            stop = phase(state, t)
            now = clock()
            spent[k] += now - mark
            mark = now
            if stop:
                break
        if stop:
            stop_reason = "numerical_fault" if report.aborted else "converged"
            break
    report.stop_reason = stop_reason
    _finish(state)
    spent[-1] = clock() - mark
    report.phase_ns = dict(zip(PHASE_KEYS, spent))
    return report


def run_batch(configs) -> list[RunReport]:
    """Run each config in order. The first aborted run ends the batch with
    RunAborted, and the configs after it never run."""
    reports = []
    for index, config in enumerate(configs):
        reports.append(run(config))
        if reports[-1].aborted:
            raise RunAborted(index, reports[-1])
    return reports
