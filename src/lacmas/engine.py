"""Round-synchronous run loop.

Each round has two phases. In phase one every agent reads its particle
divergence, selects the active regime coefficient and draws its step's random
numbers, kick uniforms included, from its own generator in one call
(step_particles, per agent and in agent order); then one Population.step
moves every agent's particles on the stacked arrays and hands unused kick
draws back, so each stream is consumed as before. One batch call evaluates
every agent's proposals on its own local objective, and one batched tell takes
the values back, after which every agent publishes a representative state
plus trajectory statistics. At the barrier, guidance refreshes fire if their
gates are open, every agent fuses the published neighborhood states under its
cooperation weights, and the fused states, scored in one more batch call, are
injected back into the populations. Metrics and the admissibility check run
once per round, and one append records every agent's statistics in the
stacked AgentHistory, from which a cooperation refresh takes all descriptors
in one build_descriptor call. A non-finite best value or divergence aborts the
run before it reaches the history.

Serial agent order plus per-agent RNG streams derived from the master seed
make runs bit-reproducible with the heuristic provider.
"""

from __future__ import annotations

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
from .swarm import AgentSwarm, Population, SwarmParams
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
    swarm: SwarmParams = field(default_factory=SwarmParams)
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
    variant: str
    master_seed: int
    rows: list[TraceRow]
    disagreement_trace: list[float]
    xi_norm_trace: list[float]
    comm_cost_total: int
    comm_cost_at_convergence: int
    converged_at: int | None
    final_states: np.ndarray
    final_mean_state: np.ndarray
    final_fitness_mean_state: float
    final_mean_local_fitness: float
    final_best_agent_value: float
    act_calls: int
    coop_calls: int
    provider_fallbacks: int
    admissibility_violations: int
    max_row_deviation: float
    gate_int_iterations: list[int]
    wall_clock: float
    aborted: bool = False
    fault: str | None = None
    matrices: list[np.ndarray] | None = None


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


def _make_provider(config: RunConfig):
    if config.provider == "llm" and config.variant in _GUIDED_VARIANTS:
        return LlmProvider(endpoint=config.llm)
    return HeuristicProvider()


# Overflow and invalid operations yield inf or NaN values, which the round loop
# reports as a numerical fault; numpy's warnings would only repeat it.
@np.errstate(over="ignore", invalid="ignore")
def run(config: RunConfig) -> RunReport:
    """Execute one seeded run to convergence or the iteration cap."""
    start = time.perf_counter()
    obj, graph = config.objective, config.graph
    n, dim = obj.num_agents, obj.dim
    provider = _make_provider(config)

    agent_seqs = np.random.SeedSequence(config.master_seed).spawn(n)
    population = Population(
        dim,
        obj.lower,
        obj.upper,
        config.swarm,
        [np.random.Generator(np.random.PCG64(seq)) for seq in agent_seqs],
        coefficients=(D_DEFAULT, C_DEFAULT),
    )
    swarms = [AgentSwarm(population, i) for i in range(n)]
    for i, swarm in enumerate(swarms):
        swarm.evaluate_initial(obj.eval_local_batch(i, swarm.positions))

    history = AgentHistory(n)
    round_cost = comm_cost_per_round(graph, dim)
    # Directed-edge arrays for vectorized local-disagreement means; a lone
    # agent has no edges and a local disagreement of 0.
    edge_src, edge_dst = graph.edges
    degrees = np.maximum(np.bincount(edge_src, minlength=n), 1)

    reps = population.representatives()
    divergences = np.empty(n)
    consensus_prev = reps.copy()
    fused_prev: np.ndarray | None = None

    rows: list[TraceRow] = []
    dis_trace: list[float] = []
    xi_trace: list[float] = []
    matrices: list[np.ndarray] | None = [] if config.record_matrices else None
    comm_cost = 0
    act_calls = coop_calls = 0
    adm_violations = 0
    max_row_dev = 0.0
    gate_int_hits: list[int] = []
    converged_at: int | None = None
    aborted = False
    fault: str | None = None
    t = -1

    # The mixing matrix is the only copy of the cooperation weights. It starts
    # uniform and changes only on cooperation refreshes, which verify it again.
    matrix = assemble_mixing_matrix(graph)
    adm = check_admissibility(matrix, graph)

    for t in range(config.max_iterations):
        # Phase 1: local adaptive swarm steps; publish representatives.
        # Past the scheduling horizon each attractor follows its agent's own
        # best instead of the fused state, and the personal-best pull switches
        # on: the consensus coupling noise stops limiting local refinement,
        # which is what lets personal bests close in on their local optima.
        # Fused states keep entering through the particle channel.
        late_stage = t >= config.pcg.horizon_T
        if t == config.pcg.horizon_T:
            population.rebase()
        for i, swarm in enumerate(swarms):
            div = swarm.divergence()
            divergences[i] = div
            active = swarm.select_coefficient(div)
            if late_stage:
                # Late-stage stabilization: no expansion past the horizon.
                active = min(active, 1.0)
            swarm.step_particles(active)
        # One update moves every agent; it commits the rows below the first
        # whose new state is not finite.
        committed = population.step(record_pull=late_stage)
        if committed < n:
            aborted, fault = True, f"non-finite particle state for agent {committed}"
        # One objective call for all agents' rows. The committed ones still
        # take their values, so an abort leaves them as evaluated; the other
        # rows hold their last (finite) positions and are not told.
        population.tell(obj.eval_all(population.positions), upto=committed)
        reps[:committed] = population.representatives(upto=committed)
        if aborted:
            break

        # Phase 2: guidance refreshes, weighted fusion, bookkeeping.
        g_int = scheduler.gate_int(t, config.pcg)
        g_ext = scheduler.gate_ext(t, config.pcg)

        if g_int and config.variant in _ACT_VARIANTS and len(history):
            gate_int_hits.append(t)
            iterations, values = history.recent(ACT_WINDOW)
            iterations = iterations.tolist()
            # Best fitness and local disagreement, per agent.
            fitness, local_dis = values[:, 0].tolist(), values[:, 3].tolist()
            for i in range(n):
                d, c = population.coefficients[i]
                req = ActRequest(
                    iteration=t,
                    current_d=d,
                    current_c=c,
                    trajectory=tuple(zip(iterations, fitness[i], local_dis[i])),
                )
                out = provider.advise_act(req)
                act_calls += 1
                population.coefficients[i] = (out.d, out.c)

        if g_ext and config.variant in _COOP_VARIANTS and len(history):
            # A fresh copy, so matrices recorded in earlier rounds stay as they were.
            matrix = matrix.copy()
            # Each agent's (avg fitness, avg divergence), computed once for all.
            stats = list(zip(*build_descriptor(history, COOP_WINDOW)[:, :2].T.tolist()))
            for i in range(n):
                nbrs = graph.neighbor_lists[i]
                if not nbrs:
                    continue
                req = CoopRequest(
                    neighbor_ids=tuple(nbrs),
                    neighbor_stats=tuple(stats[k] for k in nbrs),
                )
                out = provider.advise_coop(req)
                coop_calls += 1
                matrix[i] = project_weights(out.raw_weights, graph, i)
            adm = check_admissibility(matrix, graph)

        fused = matrix @ reps
        if not adm.passed:
            adm_violations += 1
        max_row_dev = max(max_row_dev, adm.max_row_deviation)
        if matrices is not None:
            matrices.append(matrix)

        if fused_prev is not None:
            xi_trace.append(float(np.linalg.norm(reps - fused_prev)))

        fused_values = obj.eval_all(fused[:, None, :])[:, 0].tolist()
        for swarm, state, value in zip(swarms, fused, fused_values):
            swarm.inject_fused_state(state, value, refocus=late_stage)

        diffs = fused - consensus_prev
        state_deltas = np.sqrt(_sum(diffs * diffs, axis=1))
        e = fused[edge_src] - fused[edge_dst]
        edge_norms = np.sqrt(_sum(e * e, axis=1))
        local_dis = np.bincount(edge_src, weights=edge_norms, minlength=n) / degrees
        bests = population.agent_bests()
        finite = np.isfinite(bests) & np.isfinite(divergences)
        if not np.logical_and.reduce(finite):
            # Caught here, a run whose values overflow stops as a numerical
            # fault instead of failing later in a descriptor's range checks.
            bad = int(np.argmin(finite))
            aborted = True
            fault = (
                f"non-finite best value {float(bests[bad])!r} or divergence "
                f"{float(divergences[bad])!r} for agent {bad} in round {t}"
            )
            break
        history.append(t, (bests, divergences, state_deltas, local_dis))

        dis = disagreement(fused)
        dis_trace.append(dis)
        comm_cost += round_cost
        # fused is a fresh product every round and is never written to.
        consensus_prev = fused_prev = fused

        hit_threshold = dis < config.convergence_threshold and converged_at is None
        stopping = hit_threshold and config.stop_at_convergence
        last_round = t == config.max_iterations - 1
        if t % config.log_every == 0 or stopping or last_round:
            rows.append(
                TraceRow(
                    iteration=t,
                    global_fitness_mean_state=obj.eval_global(_sum(fused, axis=0) / n),
                    disagreement=dis,
                    comm_cost=comm_cost,
                    stage=scheduler.stage(t, config.pcg),
                    gate_int=int(g_int),
                    gate_ext=int(g_ext),
                )
            )
        if hit_threshold:
            converged_at = t
            if config.stop_at_convergence:
                break

    if fused_prev is not None:
        final_states = fused_prev
    else:
        final_states = reps.copy()
    mean_state = final_states.mean(axis=0)
    fallbacks = getattr(provider, "fallback_count", 0)
    if converged_at is not None:
        cost_at_conv = (converged_at + 1) * round_cost
    else:
        cost_at_conv = comm_cost

    return RunReport(
        variant=config.variant,
        master_seed=config.master_seed,
        rows=rows,
        disagreement_trace=dis_trace,
        xi_norm_trace=xi_trace,
        comm_cost_total=comm_cost,
        comm_cost_at_convergence=cost_at_conv,
        converged_at=converged_at,
        final_states=final_states,
        final_mean_state=mean_state,
        final_fitness_mean_state=obj.eval_global(mean_state) if not aborted else float("nan"),
        final_mean_local_fitness=float(obj.eval_all(final_states[:, None, :]).mean())
        if not aborted
        else float("nan"),
        final_best_agent_value=float(population.agent_bests().min()),
        act_calls=act_calls,
        coop_calls=coop_calls,
        provider_fallbacks=fallbacks,
        admissibility_violations=adm_violations,
        max_row_deviation=max_row_dev,
        gate_int_iterations=gate_int_hits,
        wall_clock=time.perf_counter() - start,
        aborted=aborted,
        fault=fault,
        matrices=matrices,
    )
