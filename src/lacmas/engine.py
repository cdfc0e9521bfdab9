"""Round-synchronous run loop.

`RunState(config)` sets a run up: the provider, every agent's generator and
swarm rows in one Population, the initial evaluation and the uniform mixing
matrix. Each round then runs the seven PHASES over that state, in order:

1. `_step`: every agent reads its particle divergence and draws its step's
   uniforms, kicks included, from its own generator, in agent order; one
   Population.select gates every regime and one Population.step moves all;
2. `_evaluate`: one batch call scores every agent's proposals on its local
   objective, one tell takes the values back, and agents publish states;
3. `_guide_act`: at an open inner gate, one refresh_act call takes every
   agent's request, and its answers reset the (d, c) pairs in agent order;
4. `_guide_coop`: at an open outer gate, one refresh_coop call takes every
   agent's request, built from one build_descriptor call, and its answers
   re-weight the mixing matrix in agent order;
5. `_fuse_inject`: every agent fuses the published states under its weights,
   and the fused states, scored in one more batch call, go back in;
6. `_bookkeep`: metrics, the fault check and one AgentHistory append;
7. `_trace`: the sampled trace row and the convergence test.

A non-finite particle state stops the run after `_evaluate`; a non-finite best
value or divergence stops it in `_bookkeep`, before it reaches the history.
RunReport is the run's only accumulator; its `phase_ns` times set-up, each
phase and `_finish`. Serial agent order plus per-agent RNG streams derived
from the master seed make runs bit-reproducible with the heuristic provider.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from . import scheduler
from .cooperation import assemble_mixing_matrix, build_descriptor, project_weights
from .analysis import check_admissibility
from .errors import ConfigError, ContractError
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

DESCRIPTOR_SCALARS = 3  # fitness / divergence / state-delta means per exchange

_sum = np.add.reduce


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
    """Scalars on the wire per round: a state vector plus a descriptor triple
    per directed edge."""
    return graph.num_directed_edges() * (dim + DESCRIPTOR_SCALARS)


# -- history -------------------------------------------------------------------


class AgentHistory:
    """Every agent's published statistics over the last W = ACT_WINDOW rounds,
    the furthest back any reader looks.

    `values[i, f]` holds agent i's statistic f (FIELDS order) and
    `iterations` the round of each slot. The k-th appended round goes to
    slots k % W and k % W + W, so every window of recent rounds is one
    contiguous, oldest-first slice of the last axis, and a mean along it
    rounds like np.mean over the same records in a list.
    """

    FIELDS = ("best_fitness", "divergence", "state_delta", "local_disagreement")

    def __init__(self, num_agents: int):
        self.values = np.zeros((num_agents, len(self.FIELDS), 2 * ACT_WINDOW))
        self.iterations = np.zeros(2 * ACT_WINDOW, dtype=int)
        self._count = 0

    def append(self, t: int, cols) -> None:
        """Record round t: `cols` holds one (N,) array per field, in FIELDS order."""
        if self._count and t <= self.iterations[self._slot]:
            raise ConfigError("history iterations must be strictly increasing")
        self._count += 1
        slot, col = self._slot, np.array(cols).T
        self.values[:, :, slot] = self.values[:, :, slot + ACT_WINDOW] = col
        self.iterations[slot] = self.iterations[slot + ACT_WINDOW] = t

    @property
    def _slot(self) -> int:
        """The latest round's slot in the lower copy."""
        return (self._count - 1) % ACT_WINDOW

    def recent(self, window: int) -> tuple[np.ndarray, np.ndarray]:
        """The iterations (w,) and values (N, 4, w) of the most recent
        w = min(window, len) rounds, oldest first, as views."""
        if window < 1:
            # An unchecked 0 would read as an empty window, not a bad request.
            raise ContractError(f"history window must be >= 1, got {window}")
        end = self._slot + ACT_WINDOW + 1
        span = slice(end - min(window, len(self)), end)
        return self.iterations[span], self.values[:, :, span]

    def __len__(self) -> int:
        return min(self._count, ACT_WINDOW)


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
        if self.max_iterations < 1:
            raise ConfigError("max_iterations must be positive")
        if self.convergence_threshold <= 0:
            raise ConfigError("convergence_threshold must be positive")
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


@dataclass(frozen=True)
class TraceRow:
    iteration: int
    global_fitness_mean_state: float
    disagreement: float
    comm_cost: int
    stage: int
    gate_int: int
    gate_ext: int


@dataclass
class RunReport:
    """What one run produced. The round phases update it in place, so it is
    the run's only accumulator; `_finish` sets the final-state fields."""

    variant: str
    master_seed: int
    rows: list[TraceRow] = field(default_factory=list)
    disagreement_trace: list[float] = field(default_factory=list)
    xi_norm_trace: list[float] = field(default_factory=list)
    comm_cost_total: int = 0
    comm_cost_at_convergence: int = 0
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
    aborted: bool = False
    fault: str | None = None
    matrices: list[np.ndarray] | None = None

    @property
    def wall_clock(self) -> float:
        """Seconds from the start of set-up to the end of the run."""
        return sum(self.phase_ns.values()) / 1e9


CSV_HEADER = "iteration,global_fitness_mean_state,disagreement,comm_cost,stage,gate_int,gate_ext"


def write_trace_csv(report: RunReport, path) -> None:
    """Emit the sampled trace; float fields use shortest-roundtrip repr so
    identical runs produce identical bytes."""
    lines = [f"# master_seed={report.master_seed} variant={report.variant}", CSV_HEADER]
    for r in report.rows:
        lines.append(
            f"{r.iteration},{r.global_fitness_mean_state!r},{r.disagreement!r},"
            f"{r.comm_cost},{r.stage},{r.gate_int},{r.gate_ext}"
        )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def summarize(report: RunReport) -> str:
    conv = report.converged_at if report.converged_at is not None else "none"
    lines = [
        f"variant={report.variant} seed={report.master_seed}",
        f"converged_at={conv}",
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
    agents' generators and population after the initial evaluation, the
    history and the mixing matrix. Within a round, each phase leaves on it what
    later phases read (divergences, committed rows, gates, fused states)."""

    def __init__(self, config: RunConfig):
        self.config = config
        self.objective, self.graph = obj, graph = config.objective, config.graph
        self.n = n = obj.num_agents
        guided_llm = config.provider == "llm" and config.variant in _GUIDED_VARIANTS
        self.provider = LlmProvider(endpoint=config.llm) if guided_llm else HeuristicProvider()
        agent_seqs = np.random.SeedSequence(config.master_seed).spawn(n)
        rngs = [np.random.Generator(np.random.PCG64(seq)) for seq in agent_seqs]
        self.population = population = Population(
            POPULATION, obj.dim, obj.lower, obj.upper, rngs, (D_DEFAULT, C_DEFAULT)
        )
        swarms = [AgentSwarm(population, i) for i in range(n)]
        for i, swarm in enumerate(swarms):
            swarm.evaluate_initial(obj.eval_local_batch(i, swarm.positions))
        # A round's per-agent calls, bound once and made in agent order.
        self.divergence_calls = [swarm.divergence for swarm in swarms]
        self.draw_calls = [swarm.step_particles for swarm in swarms]
        self.inject_calls = [swarm.inject_fused_state for swarm in swarms]

        self.history = AgentHistory(n)
        self.round_cost = comm_cost_per_round(graph, obj.dim)
        # Directed-edge arrays for vectorized local-disagreement means; a lone
        # agent has no edges and a local disagreement of 0.
        self.edge_src, self.edge_dst = graph.edges
        self.degrees = np.maximum(np.bincount(self.edge_src, minlength=n), 1)
        self.reps = population.representatives()
        # The last completed round's fused states; before one, the initial reps.
        self.prev = self.reps.copy()
        # The mixing matrix is the only copy of the cooperation weights. It starts
        # uniform and changes only on cooperation refreshes, which verify it again.
        self.matrix = assemble_mixing_matrix(graph)
        self.adm = check_admissibility(self.matrix, graph)
        matrices = [] if config.record_matrices else None
        self.report = RunReport(config.variant, config.master_seed, matrices=matrices)


def _step(state: RunState, t: int) -> bool:
    """Adaptive swarm execution: divergences, draws, one select, one step."""
    # Past the scheduling horizon each attractor follows its agent's own
    # best instead of the fused state, and the personal-best pull switches
    # on: the consensus coupling noise stops limiting local refinement,
    # which is what lets personal bests close in on their local optima.
    # Fused states keep entering through the particle channel.
    population, horizon = state.population, state.config.pcg.horizon_T
    state.late_stage = late_stage = t >= horizon
    if t == horizon:
        population.rebase()
    state.divergences = divergences = np.array([d() for d in state.divergence_calls])
    for draw in state.draw_calls:
        draw()
    population.select(divergences, late_stage)
    # It commits the rows below the first whose new state is not finite.
    state.committed = population.step(record_pull=late_stage)
    return False


def _evaluate(state: RunState, t: int) -> bool:
    """One objective call for all agents' rows; publish representatives."""
    population, committed = state.population, state.committed
    # The committed rows still take their values, so an abort leaves them as
    # evaluated; the other rows hold their last (finite) positions, untold.
    population.tell(state.objective.eval_all(population.positions), upto=committed)
    state.reps[:committed] = population.representatives(upto=committed)
    if committed < state.n:
        state.report.aborted = True
        state.report.fault = f"non-finite particle state for agent {committed}"
        return True
    return False


def _guide_act(state: RunState, t: int) -> bool:
    """At an open inner gate, act guidance refreshes every agent's (d, c)."""
    config, history = state.config, state.history
    state.gate_int = scheduler.gate_int(t, config.pcg)
    if state.gate_int and config.variant in _ACT_VARIANTS and len(history):
        report, population = state.report, state.population
        report.gate_int_iterations.append(t)
        iterations, values = history.recent(ACT_WINDOW)
        iterations = iterations.tolist()
        # Best fitness and local disagreement, per agent.
        fitness, local_dis = values[:, 0].tolist(), values[:, 3].tolist()
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
    state.gate_ext = scheduler.gate_ext(t, config.pcg)
    if state.gate_ext and config.variant in _COOP_VARIANTS and len(history):
        # A fresh copy, so matrices recorded in earlier rounds stay as they were.
        state.matrix = matrix = state.matrix.copy()
        # Each agent's (avg fitness, avg divergence), computed once for all.
        stats = list(zip(*build_descriptor(history, COOP_WINDOW)[:, :2].T.tolist()))
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
    late_stage = state.late_stage
    for inject, fused_state, value in zip(state.inject_calls, fused, fused_values):
        inject(fused_state, value, late_stage)
    return False


def _bookkeep(state: RunState, t: int) -> bool:
    """Round metrics, the fault check and one history append."""
    fused, divergences, report = state.fused, state.divergences, state.report
    diffs = fused - state.prev
    state_deltas = np.sqrt(_sum(diffs * diffs, axis=1))
    # take gathers the rows fused[edges] would, at about half the cost.
    e = fused.take(state.edge_src, 0) - fused.take(state.edge_dst, 0)
    edge_norms = np.sqrt(_sum(e * e, axis=1))
    local_dis = np.bincount(state.edge_src, weights=edge_norms, minlength=state.n) / state.degrees
    bests = state.population.agent_bests()
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
    state.history.append(t, (bests, divergences, state_deltas, local_dis))
    report.disagreement_trace.append(disagreement(fused))
    report.comm_cost_total += state.round_cost
    # fused is a fresh product every round and is never written to.
    state.prev = fused
    return False


def _trace(state: RunState, t: int) -> bool:
    """The sampled trace row and the convergence test."""
    config, report = state.config, state.report
    dis = report.disagreement_trace[-1]
    hit_threshold = dis < config.convergence_threshold and report.converged_at is None
    stopping = hit_threshold and config.stop_at_convergence
    if t % config.log_every == 0 or stopping or t == config.max_iterations - 1:
        mean_state = _sum(state.fused, axis=0) / state.n
        report.rows.append(
            TraceRow(
                iteration=t,
                global_fitness_mean_state=state.objective.eval_global(mean_state),
                disagreement=dis,
                comm_cost=report.comm_cost_total,
                stage=scheduler.stage(t, config.pcg),
                gate_int=int(state.gate_int),
                gate_ext=int(state.gate_ext),
            )
        )
    if hit_threshold:
        report.converged_at = t
    return stopping


# Each phase takes (state, t) and returns True only when the run stops after it.
PHASES = (_step, _evaluate, _guide_act, _guide_coop, _fuse_inject, _bookkeep, _trace)
PHASE_KEYS = ("start", *(phase.__name__[1:] for phase in PHASES), "finish")


def _finish(state: RunState) -> None:
    """The final-state fields of the report."""
    report, obj = state.report, state.objective
    # A completed round leaves its fused states in prev.
    final_states = state.prev if report.disagreement_trace else state.reps.copy()
    report.final_states = final_states
    report.final_mean_state = mean_state = final_states.mean(axis=0)
    if not report.aborted:
        report.final_fitness_mean_state = obj.eval_global(mean_state)
        report.final_mean_local_fitness = float(obj.eval_all(final_states[:, None, :]).mean())
    report.final_best_agent_value = float(state.population.agent_bests().min())
    report.provider_fallbacks = getattr(state.provider, "fallback_count", 0)
    conv = report.converged_at
    cost = report.comm_cost_total if conv is None else (conv + 1) * state.round_cost
    report.comm_cost_at_convergence = cost


# Overflow and invalid operations yield inf or NaN values, which the round loop
# reports as a numerical fault; numpy's warnings would only repeat it.
@np.errstate(over="ignore", invalid="ignore")
def run(config: RunConfig) -> RunReport:
    """Execute one seeded run to convergence or the iteration cap."""
    clock = time.perf_counter_ns
    begin = clock()
    state = RunState(config)
    mark = clock()
    spent = [mark - begin] + [0] * len(PHASES) + [0]
    phases = tuple(enumerate(PHASES, 1))
    for t in range(config.max_iterations):
        for k, phase in phases:
            stop = phase(state, t)
            now = clock()
            spent[k] += now - mark
            mark = now
            if stop:
                break
        if stop:
            break
    _finish(state)
    spent[-1] = clock() - mark
    state.report.phase_ns = dict(zip(PHASE_KEYS, spent))
    return state.report
