import hashlib
import json
import os
import pickle
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import lacmas
from lacmas import engine, guidance, scheduler
from lacmas.config import build_benchmark, seeded_runs
from lacmas.engine import (
    PHASES,
    AgentHistory,
    RunConfig,
    RunState,
    _trace,
    comm_cost_per_round,
    disagreement,
    run,
    run_batch,
    write_trace_csv,
)
from lacmas.errors import ConfigError, ContractError, RunAborted
from lacmas.guidance import ACT_WINDOW, LlmEndpoint
from lacmas.objectives import make_spec
from lacmas.scheduler import PcgConfig
from lacmas.swarm import AgentSwarm
from lacmas.topology import build_explicit, build_ring


def small_config(spec, graph, **kw):
    defaults = dict(
        objective=spec,
        graph=graph,
        variant="full",
        master_seed=3,
        max_iterations=60,
        log_every=5,
        pcg=PcgConfig(horizon_T=100),
    )
    defaults.update(kw)
    return RunConfig(**defaults)


class CountingObjective:
    """Wraps a benchmark spec and counts offline-global evaluations."""

    def __init__(self, spec):
        self.spec = spec
        self.global_calls = 0

    @property
    def num_agents(self):
        return self.spec.num_agents

    @property
    def dim(self):
        return self.spec.dim

    @property
    def lower(self):
        return self.spec.lower

    @property
    def upper(self):
        return self.spec.upper

    def eval_local_batch(self, agent, xs):
        return self.spec.eval_local_batch(agent, xs)

    def eval_all(self, xs):
        return self.spec.eval_all(xs)

    def eval_global(self, x):
        self.global_calls += 1
        return self.spec.eval_global(x)


# -- metric operations ----------------------------------------------------------


def test_disagreement_zero_for_identical_states():
    states = np.tile(np.array([1.0, 2.0]), (5, 1))
    assert disagreement(states) == 0.0


def test_disagreement_one_dimensional_pair():
    assert disagreement(np.array([[0.0], [2.0]])) == pytest.approx(1.0)


def test_disagreement_three_states_exact():
    states = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 3.0]])
    assert disagreement(states) == pytest.approx(8.0 / 3.0)


def test_comm_cost_ring4_dim5():
    # 8 directed edges, 5 + 2 scalars each.
    assert comm_cost_per_round(build_ring(4), 5) == 56


# -- history ---------------------------------------------------------------------


def append(h, fit=1.0, n=1):
    """One round's records for each of the n agents: best value `fit`,
    divergence 0 and a fused state at the origin."""
    h.append(np.full(n, fit), np.zeros(n), np.zeros((n, 2)))


def test_history_capacity_bound():
    h = AgentHistory()
    for t in range(50):
        append(h, fit=float(t))
    assert len(h.records) == ACT_WINDOW
    assert [bests.tolist() for bests, _, _ in h.recent(5)] == [[45.0], [46.0], [47.0], [48.0], [49.0]]


def test_history_recent_window_order():
    h = AgentHistory()
    for t in range(10):
        append(h, fit=float(t), n=2)
    records = h.recent(4)
    assert len(records) == 4
    assert [bests.tolist() for bests, _, _ in records] == [[t, t] for t in (6.0, 7.0, 8.0, 9.0)]


@pytest.mark.parametrize("window", [0, -2])
def test_history_recent_rejects_empty_window(window):
    # A window of 0 would read as an empty slice, not as a bad request.
    h = AgentHistory()
    for _ in range(5):
        append(h)
    with pytest.raises(ContractError):
        h.recent(window)


# -- run loop ---------------------------------------------------------------------


def test_single_agent_converges_immediately():
    spec = make_spec("sphere", num_agents=1, dim=3, hetero_sigma=0.0, seed=0)
    graph = build_explicit(1, [])
    report = run(small_config(spec, graph))
    assert report.converged_at == 0
    assert report.disagreement_trace[-1] == 0.0
    assert report.comm_cost_total == 0


def test_identical_seeds_produce_identical_csv(tmp_path, sphere_small, ring4):
    paths = []
    for name in ("a.csv", "b.csv"):
        report = run(small_config(sphere_small, ring4))
        p = tmp_path / name
        write_trace_csv(report, p)
        paths.append(p)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_different_seeds_differ(sphere_small, ring4):
    r1 = run(small_config(sphere_small, ring4, master_seed=1))
    r2 = run(small_config(sphere_small, ring4, master_seed=2))
    assert r1.disagreement_trace != r2.disagreement_trace


def test_baseline_never_calls_guidance(sphere_small, ring4):
    report = run(small_config(sphere_small, ring4, variant="baseline"))
    assert report.act_calls == 0
    assert report.coop_calls == 0


def test_act_only_gating(sphere_small, ring4):
    report = run(small_config(sphere_small, ring4, variant="act"))
    assert report.act_calls > 0
    assert report.coop_calls == 0


def test_coop_only_gating(sphere_small, ring4):
    report = run(small_config(sphere_small, ring4, variant="coop"))
    assert report.act_calls == 0
    assert report.coop_calls > 0


def test_full_calls_both(sphere_small, ring4):
    report = run(small_config(sphere_small, ring4, variant="full"))
    assert report.act_calls > 0
    assert report.coop_calls > 0


def stub_model(prompt):
    """A stand-in LLM whose answer is a fixed function of the prompt: a
    (d, c) pair, a weight list of the asked length, or, for one prompt in
    four, no answer at all."""
    h = hashlib.sha256(prompt.encode()).digest()
    if h[0] % 4 == 0:
        return "I cannot tell."
    asked = re.search(r"Number of neighbors: (\d+)", prompt)
    if asked:
        return "[" + ", ".join(f"{0.1 + b / 600:.4f}" for b in h[1 : 1 + int(asked.group(1))]) + "]"
    return f"({0.5 + h[1] / 510:.4f}, {1.0 + h[2] / 320:.4f})"


def llm_config(spec, graph, url):
    endpoint = LlmEndpoint(base_url=url, model="m", timeout=5.0)
    return small_config(spec, graph, provider="llm", llm=endpoint)


def test_llm_run_is_the_same_at_any_send_ahead_depth(
    tmp_path, sphere_small, ring4, stub_server, monkeypatch
):
    # Answers apply in agent order, so sending requests ahead changes
    # neither the trace nor the counts.
    stub_server.reply = stub_model
    counts, traces = [], []
    for depth in (guidance.IN_FLIGHT, 1):
        monkeypatch.setattr(guidance, "IN_FLIGHT", depth)
        report = run(llm_config(sphere_small, ring4, stub_server.url))
        counts.append((report.act_calls, report.coop_calls, report.provider_fallbacks))
        traces.append(csv_sha256(report, tmp_path / f"depth{depth}.csv"))
    assert counts[0] == counts[1] and traces[0] == traces[1]
    act_calls, coop_calls, fallbacks = counts[0]
    assert act_calls > 0 and coop_calls > 0
    assert 0 < fallbacks < act_calls + coop_calls
    assert len(stub_server.payloads) == 2 * (act_calls + coop_calls)


def test_guided_llm_run_starts_no_thread(sphere_small, ring4, stub_server):
    stub_server.reply = stub_model
    before = threading.active_count()
    report = run(llm_config(sphere_small, ring4, stub_server.url))
    assert report.act_calls > 0
    assert threading.active_count() == before


def test_act_calls_only_at_gate_iterations(sphere_small, ring4):
    cfg = small_config(sphere_small, ring4, variant="act")
    report = run(cfg)
    expected = [t for t in range(cfg.max_iterations) if scheduler.gate_int(t, cfg.pcg)]
    assert report.gate_int_iterations == expected
    assert report.act_calls == len(expected) * 4
    assert len(expected) <= 2


def test_comm_cost_accrues_per_round(tmp_path, sphere_small, ring4):
    report = run(small_config(sphere_small, ring4, max_iterations=10, convergence_threshold=1e-30))
    per_round = comm_cost_per_round(ring4, sphere_small.dim)
    assert report.comm_cost_total == report.comm_cost_at_convergence == 10 * per_round
    costs = [row["comm_cost"] for row in trace_rows(report, tmp_path / "trace.csv")]
    assert costs == sorted(costs) and costs[-1] == report.comm_cost_total


def test_rows_bill_state_and_descriptor_pair_and_act_windows_are_consecutive(
    tmp_path, monkeypatch, sphere_small, ring4
):
    # Each directed edge carries a D-vector plus the two descriptor means the
    # cooperation prompt sends, and the act window holds rounds t - w ... t - 1.
    seen = []
    refresh_act = guidance.HeuristicProvider.refresh_act

    def recording(provider, reqs):
        seen.extend(reqs)
        return refresh_act(provider, reqs)

    monkeypatch.setattr(guidance.HeuristicProvider, "refresh_act", recording)
    cfg = small_config(
        sphere_small, ring4, max_iterations=60, log_every=1, convergence_threshold=1e-30
    )
    report = run(cfg)
    edges, dim = ring4.num_directed_edges(), sphere_small.dim
    rows = trace_rows(report, tmp_path / "trace.csv")
    assert [row["iteration"] for row in rows] == list(range(60))
    for row in rows:
        assert row["comm_cost"] == (row["iteration"] + 1) * edges * (dim + 2)
    assert report.gate_int_iterations and len(seen) == report.act_calls
    for req in seen:
        w = min(req.iteration, ACT_WINDOW)
        assert [r[0] for r in req.trajectory] == list(range(req.iteration - w, req.iteration))


def test_trace_rows_sampled_by_log_every(tmp_path, sphere_small, ring4):
    report = run(
        small_config(sphere_small, ring4, max_iterations=20, log_every=7, convergence_threshold=1e-30)
    )
    assert list(report.logged_rounds) == [0, 7, 14, 19]
    rows = trace_rows(report, tmp_path / "trace.csv")
    assert [row["iteration"] for row in rows] == [0, 7, 14, 19]
    # The disagreement column is the per-round trace at the sampled rounds.
    assert [row["disagreement"] for row in rows] == [report.disagreement_trace[t] for t in (0, 7, 14, 19)]
    assert [row["global_fitness_mean_state"] for row in rows] == list(report.logged_fitness)


def test_gate_flags_match_scheduler(tmp_path, sphere_small, ring4):
    # With T = 100, the 30 rounds hold the act refresh at 20, the cooperation
    # refreshes at 10 and 20 and the step from stage 1 to 2 at 20.
    cfg = small_config(sphere_small, ring4, max_iterations=30, log_every=1, convergence_threshold=1e-30)
    state = RunState(cfg)
    coop_rounds = []
    for t in range(cfg.max_iterations):
        coop_calls = state.report.coop_calls
        assert not any(phase(state, t) for phase in PHASES)
        if state.report.coop_calls > coop_calls:
            coop_rounds.append(t)
    report = state.report
    rows = trace_rows(report, tmp_path / "trace.csv")
    assert [row["iteration"] for row in rows] == list(range(30))
    # The written flags mark the rounds whose guidance ran, and the stages
    # are the scheduler's.
    assert [row["iteration"] for row in rows if row["gate_int"]] == report.gate_int_iterations == [20]
    assert [row["iteration"] for row in rows if row["gate_ext"]] == coop_rounds == [10, 20]
    assert all(row["gate_int"] in (0, 1) and row["gate_ext"] in (0, 1) for row in rows)
    assert [row["stage"] for row in rows] == [scheduler.stage(t, cfg.pcg) for t in range(30)]
    assert {row["stage"] for row in rows} == {1, 2}


def test_reported_best_improves_with_budget(sphere_small, ring4):
    # Same seed, longer run: the all-time agent best can only improve.
    short = run(small_config(sphere_small, ring4, max_iterations=5, convergence_threshold=1e-30))
    long = run(small_config(sphere_small, ring4, max_iterations=50, convergence_threshold=1e-30))
    assert long.final_best_agent_value <= short.final_best_agent_value
    assert np.isfinite(long.final_fitness_mean_state)


def test_global_objective_used_only_for_reporting(sphere_small, ring4):
    counting = CountingObjective(sphere_small)
    report = run(small_config(counting, ring4, max_iterations=25, convergence_threshold=1e-30))
    # One offline evaluation per sampled trace row plus the final summary.
    assert list(report.logged_rounds) == [0, 5, 10, 15, 20, 24]
    assert counting.global_calls == len(report.logged_fitness) + 1


def test_admissibility_clean_across_run(sphere_small, ring4):
    report = run(small_config(sphere_small, ring4, max_iterations=40))
    assert report.admissibility_violations == 0
    assert report.max_row_deviation <= 1e-9


def test_recorded_matrices_replay(sphere_small, ring4):
    from lacmas.cooperation import check_admissibility

    cfg = small_config(sphere_small, ring4, max_iterations=15, convergence_threshold=1e-30)
    cfg.record_matrices = True
    report = run(cfg)
    assert report.matrices is not None
    assert len(report.matrices) == 15
    assert all(check_admissibility(m, ring4).passed for m in report.matrices)


def test_numerical_fault_aborts_with_flag(sphere_small, ring4, monkeypatch):
    original = AgentSwarm.step_particles

    def step(self, *args, **kwargs):
        if self.agent_id == 1:
            self.population.velocities[1] = np.nan
        return original(self, *args, **kwargs)

    monkeypatch.setattr(AgentSwarm, "step_particles", step)
    report = run(small_config(sphere_small, ring4))
    assert report.aborted
    assert report.fault == "non-finite particle state for agent 1"
    assert len(report.disagreement_trace) == len(report.logged_rounds) == 0
    assert report.comm_cost_total == report.comm_cost_at_convergence == 0


def test_batch_reports_give_the_traces_of_separate_runs(tmp_path, sphere_small, ring4):
    configs = [
        small_config(sphere_small, ring4, variant=variant, master_seed=seed)
        for variant in ("baseline", "full")
        for seed in (3, 4)
    ]
    for k, report in enumerate(run_batch(configs)):
        write_trace_csv(report, tmp_path / f"batch{k}.csv")
        write_trace_csv(run(configs[k]), tmp_path / f"single{k}.csv")
        assert (tmp_path / f"batch{k}.csv").read_bytes() == (tmp_path / f"single{k}.csv").read_bytes()


def test_batch_ends_at_its_first_aborted_run(sphere_small, ring4, monkeypatch):
    # Positions near 1e155 overflow the squared distances in the first round.
    overflowing = make_spec("sphere", num_agents=4, dim=3, hetero_sigma=0.0, seed=11, bound=1e155)
    configs = [
        small_config(sphere_small, ring4),
        small_config(overflowing, ring4),
        small_config(sphere_small, ring4, master_seed=4),
    ]
    calls = []

    def counted(config):
        calls.append((config, run(config)))
        return calls[-1][1]

    monkeypatch.setattr(engine, "run", counted)
    with pytest.raises(RunAborted) as caught:
        run_batch(configs)
    # The third config never reached engine.run.
    assert [id(config) for config, _ in calls] == [id(config) for config in configs[:2]]
    assert caught.value.index == 1
    assert caught.value.report is calls[1][1]
    assert caught.value.report.fault.startswith("non-finite best value")


def test_round_0_bookkeep_abort_reports_the_set_up_states(ring4):
    # Positions near 1e155 overflow the divergence in round 0, which stops in
    # _bookkeep after _evaluate has published that round's states: the report
    # must hold the states before the faulting round, the set-up reps.
    overflowing = make_spec("sphere", num_agents=4, dim=2, hetero_sigma=0.0, seed=0, bound=1e155)
    config = small_config(overflowing, ring4, master_seed=0, max_iterations=20)
    report = run(config)
    assert report.fault.endswith("divergence inf for agent 0 in round 0")
    assert report.stop_reason == "numerical_fault"
    assert not report.disagreement_trace
    # Set-up runs under run's error state, so it warns no more than run does.
    reps = RunState(config).reps
    assert report.final_states.tobytes() == reps.tobytes()


def test_graph_objective_size_mismatch_rejected(sphere_small):
    with pytest.raises(ConfigError):
        small_config(sphere_small, build_ring(5))


def test_unknown_variant_rejected(sphere_small, ring4):
    with pytest.raises(ConfigError):
        small_config(sphere_small, ring4, variant="extreme")


@pytest.mark.parametrize("key", ["convergence_threshold", "log_every"])
def test_nan_threshold_or_log_interval_rejected(sphere_small, ring4, key):
    # NaN fails no `<=` test: a NaN threshold let a run reach consensus and
    # still report converged_at=None.
    with pytest.raises(ConfigError, match=key):
        small_config(sphere_small, ring4, **{key: float("nan")})


@pytest.mark.parametrize(
    "key, value",
    [
        ("max_iterations", float("nan")),
        ("max_iterations", 2.5),
        ("max_iterations", True),
        ("master_seed", 1.5),
        ("master_seed", False),
        ("log_every", 2.5),
        ("log_every", np.True_),
    ],
)
def test_non_integer_counts_and_seeds_rejected(sphere_small, ring4, key, value):
    # Unchecked, a float failed mid-run in range() or SeedSequence, log_every
    # 2.5 sampled every third round, and True ran one round.
    with pytest.raises(ConfigError, match=f"{key} must be an integer"):
        small_config(sphere_small, ring4, **{key: value})


@pytest.mark.parametrize("value", [float("inf"), True, "1e-7", None], ids=repr)
def test_non_finite_or_non_number_threshold_rejected(sphere_small, ring4, value):
    # Unchecked, inf converged at round 0, True ran with a threshold of 1.0,
    # and a string or None failed mid-run with a TypeError.
    with pytest.raises(ConfigError, match="convergence_threshold must be"):
        small_config(sphere_small, ring4, convergence_threshold=value)


def test_numpy_integer_counts_and_seeds_accepted(sphere_small, ring4):
    numpy_ints = dict(max_iterations=np.int64(20), log_every=np.int32(5), master_seed=np.uint64(3))
    report = run(small_config(sphere_small, ring4, **numpy_ints))
    plain = run(small_config(sphere_small, ring4, max_iterations=20))
    assert list(report.logged_rounds) == [0, 5, 10, 15, 19]
    assert report.disagreement_trace == plain.disagreement_trace


def nan_first_initial_value(spec, monkeypatch):
    """Make agent 0's first initial value NaN."""
    spec_type, original = type(spec), type(spec).eval_local_batch

    def eval_local_batch(self, agent, xs):
        values = np.array(original(self, agent, xs))
        if agent == 0:
            values[0] = np.nan
        return values

    monkeypatch.setattr(spec_type, "eval_local_batch", eval_local_batch)


def test_a_nan_initial_value_never_enters_the_records(sphere_small, ring4, monkeypatch):
    # Set-up values go through tell like every round's, so a NaN stays out
    # of the records and of best_seen. As a record, it used to hide the
    # agent's other initial records from its reported best.
    nan_first_initial_value(sphere_small, monkeypatch)
    population = RunState(small_config(sphere_small, ring4)).population
    assert population.best_values[0, 0] == np.inf and population.last_values[0, 0] == np.inf
    assert population.best_seen[0] == population.best_values[0, 1:].min()
    assert np.isfinite(population.best_seen).all()


def test_a_nan_initial_value_is_never_the_published_state(sphere_small, ring4, monkeypatch):
    # argmin returns a NaN's index: a NaN latest value used to seed agent 0's
    # attractor and its first published state at particle 0.
    nan_first_initial_value(sphere_small, monkeypatch)
    state = RunState(small_config(sphere_small, ring4))
    population = state.population
    lowest = population.positions[0, population.best_values[0].argmin()]
    assert population.best_values[0].argmin() != 0
    assert np.array_equal(population.attractors[0], lowest)
    assert np.array_equal(state.reps[0], lowest)


def test_weights_hold_between_refreshes(sphere_small, ring4):
    # With T = 100, refreshes land on {10, 20, ...}; the mixing matrix
    # recorded between refreshes must be constant.
    cfg = small_config(sphere_small, ring4, variant="coop", max_iterations=16, convergence_threshold=1e-30)
    cfg.record_matrices = True
    report = run(cfg)
    m = report.matrices
    for t in range(0, 9):
        assert np.array_equal(m[t], m[0])
    assert not np.array_equal(m[10], m[0])
    for t in range(10, 16):
        assert np.array_equal(m[t], m[10])


def test_recorded_matrices_are_pinned(sphere_small, ring4):
    # A coop run past the refreshes at rounds 10 and 20 (T = 100). A refresh
    # that wrote into a matrix recorded in an earlier round, or a projection
    # that rounded differently, changes the digest.
    cfg = small_config(
        sphere_small, ring4, variant="coop", max_iterations=25,
        convergence_threshold=1e-30, record_matrices=True,
    )
    report = run(cfg)
    stacked = np.stack(report.matrices)
    assert stacked.shape == (25, 4, 4)
    assert report.coop_calls == 8
    assert (
        hashlib.sha256(stacked.tobytes()).hexdigest()
        == "6a80b1f47bbd71349c7c5e61238216ef1036160d60d10d8101528437cf953b2d"
    )


def test_local_disagreement_mean_of_distances(monkeypatch, sphere_small):
    # Unequal degrees (1, 3, 2, 2), so a wrong divisor shows. Every act
    # request's trajectory carries, per round, the agent's mean distance from
    # its neighbors' fused states in that round, by the loop formula.
    graph = build_explicit(4, [(0, 1), (1, 2), (2, 3), (1, 3)])
    fused_by_round = []
    requests = []
    append, refresh_act = AgentHistory.append, guidance.HeuristicProvider.refresh_act

    def spy_append(history, bests, divergences, fused):
        fused_by_round.append(fused.copy())
        append(history, bests, divergences, fused)

    def spy_refresh(provider, reqs):
        requests.append(reqs)
        return refresh_act(provider, reqs)

    monkeypatch.setattr(AgentHistory, "append", spy_append)
    monkeypatch.setattr(guidance.HeuristicProvider, "refresh_act", spy_refresh)
    config = small_config(
        sphere_small, graph, max_iterations=40, stop_at_convergence=False, pcg=PcgConfig(horizon_T=50)
    )
    run(config)
    # One append per round. The inner gates at rounds 10 and 30 read 10
    # rounds and a full, wrapped window of ACT_WINDOW rounds.
    assert len(fused_by_round) == 40
    lengths = [[len(req.trajectory) for req in reqs] for reqs in requests]
    assert lengths == [[10] * 4, [ACT_WINDOW] * 4]
    for reqs in requests:
        for i, req in enumerate(reqs):
            for t, _, local_dis in req.trajectory:
                states = fused_by_round[t]
                expected = np.mean(
                    [np.linalg.norm(states[i] - states[k]) for k in graph.neighbor_lists[i]]
                )
                assert expected > 0
                assert local_dis == pytest.approx(expected, rel=1e-12)


def test_xi_trace_measures_rep_deviation(sphere_small, ring4):
    report = run(small_config(sphere_small, ring4, max_iterations=30, convergence_threshold=1e-30))
    assert len(report.xi_norm_trace) == 29
    assert all(x >= 0 for x in report.xi_norm_trace)


# -- phases ----------------------------------------------------------------------

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_traces.json"


def golden_sphere_config(**kw):
    """The golden case sphere-full-seed0 (tests/test_golden_traces.py)."""
    defaults = dict(
        objective=make_spec("sphere", 6, 4, hetero_sigma=0.0, seed=3),
        graph=build_ring(6),
        variant="full",
        master_seed=0,
        max_iterations=200,
        stop_at_convergence=False,
        log_every=1,
        pcg=PcgConfig(horizon_T=80),
    )
    defaults.update(kw)
    return RunConfig(**defaults)


def drive(config):
    """Set-up and PHASES driven by hand; returns the report and the phase
    after which the run stopped, None at the iteration cap."""
    state = RunState(config)
    for t in range(config.max_iterations):
        stopped_by = next((phase for phase in PHASES if phase(state, t)), None)
        if stopped_by is not None:
            return state.report, stopped_by
    return state.report, None


def csv_sha256(report, path):
    write_trace_csv(report, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def trace_rows(report, path):
    """The rows write_trace_csv writes for the report, as dicts of numbers."""
    write_trace_csv(report, path)
    comment, header, *lines = path.read_text().splitlines()
    assert comment.startswith("# master_seed=") and header == engine.CSV_HEADER
    floats = {"global_fitness_mean_state", "disagreement"}
    keys = header.split(",")
    return [
        {key: (float if key in floats else int)(v) for key, v in zip(keys, line.split(","))}
        for line in lines
    ]


def test_phase_ns_has_every_phase_in_order(sphere_small, ring4):
    report = run(small_config(sphere_small, ring4))
    assert list(report.phase_ns) == [
        "start", "step", "evaluate", "guide_act", "guide_coop",
        "fuse_inject", "bookkeep", "trace", "finish",
    ]
    assert all(ns >= 0 for ns in report.phase_ns.values())
    assert report.wall_clock == sum(report.phase_ns.values()) / 1e9


def test_phase_ns_accounts_for_the_whole_run(sphere_small, ring4):
    cfg = small_config(sphere_small, ring4, max_iterations=300, stop_at_convergence=False)
    start = time.perf_counter()
    report = run(cfg)
    outside = time.perf_counter() - start
    assert len(report.disagreement_trace) == 300
    assert report.wall_clock == pytest.approx(outside, rel=0.05)


def test_phases_driven_by_hand_give_the_run_trace(tmp_path):
    cfg = golden_sphere_config()
    by_hand, stopped_by = drive(cfg)
    assert stopped_by is None
    digest = csv_sha256(by_hand, tmp_path / "by_hand.csv")
    assert digest == csv_sha256(run(cfg), tmp_path / "run.csv")
    golden = json.loads(GOLDEN.read_text())["sphere-full-seed0"]
    assert digest == golden["trace_csv_sha256"]


def test_convergence_stops_the_run_after_trace(tmp_path):
    # Trace rows pinned from the build before the round was split into phases,
    # with comm_cost billed at D + 2 scalars per directed edge.
    report, stopped_by = drive(golden_sphere_config(stop_at_convergence=True))
    assert stopped_by is _trace
    assert report.converged_at == 154 == report.logged_rounds[-1]
    assert list(report.logged_rounds) == list(range(155)) and len(report.disagreement_trace) == 155
    assert (
        csv_sha256(report, tmp_path / "trace.csv")
        == "027b830b3fdd110061e8a42f8c97132b67df08e9880c9e4f663f5295fb561036"
    )


@pytest.mark.parametrize(
    "kw, converged_at, reason",
    [
        (dict(stop_at_convergence=True), 154, "converged"),
        # Crossing the threshold without stopping runs on to the cap.
        (dict(), 154, "max_iterations"),
        (dict(max_iterations=100), None, "max_iterations"),
    ],
)
def test_stop_reason_names_where_the_loop_ended(kw, converged_at, reason):
    report = run(golden_sphere_config(**kw))
    assert (report.converged_at, report.stop_reason) == (converged_at, reason)
    assert f"\nstop_reason={reason}\n" in engine.summarize(report)


def test_desk_report_stores_columns_and_pickles_small(tmp_path, load_preset):
    # A 1500-round desk run (rastrigin, seed 0, run to the cap): with float64
    # columns its report pickles to about 28 KB, against 37.2 KB for lists of
    # floats and one object per logged row.
    cfg = load_preset("desk")
    objective = build_benchmark(cfg, "rastrigin")
    run_cfg = seeded_runs(cfg, objective, stop_at_convergence=False)[0]
    report = run(run_cfg)
    assert run_cfg.master_seed == 0 and len(report.disagreement_trace) == 1500
    columns = (report.disagreement_trace, report.xi_norm_trace, report.logged_fitness)
    assert [c.typecode for c in columns] == ["d", "d", "d"]
    assert report.logged_rounds.typecode == "q" and len(report.logged_rounds) == 151
    data = pickle.dumps(report)
    assert len(data) < 36_400
    # The pickled report writes the same trace: the columns, the per-round
    # cost and the schedule travel with it.
    assert csv_sha256(pickle.loads(data), tmp_path / "b.csv") == csv_sha256(report, tmp_path / "a.csv")


def test_a_run_does_not_import_numpy_ma():
    # np.median's first call imports numpy.ma, milliseconds inside the round
    # that starts the first kick; the kick-start median must not pay that.
    src = str(Path(lacmas.__file__).resolve().parents[1])
    code = """
import sys
from lacmas.engine import PHASES, RunConfig, RunState
from lacmas.objectives import make_spec
from lacmas.topology import build_ring

spec = make_spec("sphere", num_agents=4, dim=3, hetero_sigma=0.0, seed=0)
state = RunState(RunConfig(objective=spec, graph=build_ring(4), max_iterations=30))
for t in range(30):
    for phase in PHASES:
        assert not phase(state, t)
print(state.population.kicking.any(), "numpy.ma" in sys.modules)
"""
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    # A kick started, and numpy.ma stayed out.
    assert done.stdout.split() == ["True", "False"]
