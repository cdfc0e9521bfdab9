import hashlib
import json
import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import lacmas
from lacmas import guidance, scheduler
from lacmas.engine import (
    PHASES,
    AgentHistory,
    RunConfig,
    RunState,
    _trace,
    comm_cost_per_round,
    disagreement,
    run,
    write_trace_csv,
)
from lacmas.errors import ConfigError, ContractError
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
        pcg=PcgConfig(horizon_T=40, rho_ext=0.25, rho_1=0.2, rho_2=0.6),
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
    # 8 directed edges, 5 + 3 scalars each.
    assert comm_cost_per_round(build_ring(4), 5) == 64


# -- history ---------------------------------------------------------------------


def append(h, t, fit=1.0, n=1):
    """One round of constant statistics for each of the n agents."""
    h.append(t, np.array([[fit], [0.0], [0.0], [0.0]]).repeat(n, axis=1))


def test_history_capacity_bound():
    h = AgentHistory(1)
    for t in range(50):
        append(h, t)
    assert len(h) == ACT_WINDOW
    assert h.recent(5)[0].tolist()[-1] == 49


def test_history_rejects_nonincreasing_iterations():
    h = AgentHistory(1)
    append(h, 3)
    with pytest.raises(ConfigError):
        append(h, 3)


def test_history_recent_window_order():
    h = AgentHistory(2)
    for t in range(10):
        append(h, t, fit=float(t), n=2)
    iterations, values = h.recent(4)
    assert iterations.tolist() == [6, 7, 8, 9]
    assert values.shape == (2, 4, 4)
    assert values[:, 0].tolist() == [[6.0, 7.0, 8.0, 9.0]] * 2


@pytest.mark.parametrize("window", [0, -2])
def test_history_recent_rejects_empty_window(window):
    # A window of 0 would read as an empty slice, not as a bad request.
    h = AgentHistory(1)
    for t in range(5):
        append(h, t)
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


def test_comm_cost_accrues_per_round(sphere_small, ring4):
    report = run(small_config(sphere_small, ring4, max_iterations=10, convergence_threshold=1e-30))
    per_round = comm_cost_per_round(ring4, sphere_small.dim)
    assert report.comm_cost_total == 10 * per_round
    costs = [row.comm_cost for row in report.rows]
    assert costs == sorted(costs)


def test_trace_rows_sampled_by_log_every(sphere_small, ring4):
    report = run(
        small_config(sphere_small, ring4, max_iterations=20, log_every=7, convergence_threshold=1e-30)
    )
    assert [row.iteration for row in report.rows] == [0, 7, 14, 19]


def test_gate_flags_match_scheduler(sphere_small, ring4):
    cfg = small_config(sphere_small, ring4, max_iterations=30, log_every=1, convergence_threshold=1e-30)
    report = run(cfg)
    for row in report.rows:
        assert row.gate_int == int(scheduler.gate_int(row.iteration, cfg.pcg))
        assert row.gate_ext == int(scheduler.gate_ext(row.iteration, cfg.pcg))
        assert row.stage == scheduler.stage(row.iteration, cfg.pcg)


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
    assert counting.global_calls == len(report.rows) + 1


def test_admissibility_clean_across_run(sphere_small, ring4):
    report = run(small_config(sphere_small, ring4, max_iterations=40))
    assert report.admissibility_violations == 0
    assert report.max_row_deviation <= 1e-9


def test_recorded_matrices_replay(sphere_small, ring4):
    from lacmas.analysis import check_admissibility

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
            self.velocities[...] = np.nan
        return original(self, *args, **kwargs)

    monkeypatch.setattr(AgentSwarm, "step_particles", step)
    report = run(small_config(sphere_small, ring4))
    assert report.aborted
    assert report.fault == "non-finite particle state for agent 1"
    assert report.disagreement_trace == []


def test_graph_objective_size_mismatch_rejected(sphere_small):
    with pytest.raises(ConfigError):
        small_config(sphere_small, build_ring(5))


def test_unknown_variant_rejected(sphere_small, ring4):
    with pytest.raises(ConfigError):
        small_config(sphere_small, ring4, variant="extreme")


def test_weights_hold_between_refreshes(sphere_small, ring4):
    # With rho_ext = 0.25 and T = 40, refreshes land on {10, 20, ...}; the
    # mixing matrix recorded between refreshes must be constant.
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
    # A coop run past the refreshes at rounds 10 and 20 (rho_ext = 0.25,
    # T = 40). A refresh that wrote into a matrix recorded in an earlier round,
    # or a projection that rounded differently, changes the digest.
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
    # Unequal degrees (1, 3, 2, 2), so a wrong divisor shows.
    graph = build_explicit(4, [(0, 1), (1, 2), (2, 3), (1, 3)])
    rounds = []
    append = AgentHistory.append

    def spy(history, t, cols):
        rounds.append((t, np.array(cols)))
        append(history, t, cols)

    monkeypatch.setattr(AgentHistory, "append", spy)
    report = run(small_config(sphere_small, graph, max_iterations=30, stop_at_convergence=False))
    states = report.final_states
    # One append per round, every agent's statistics in FIELDS order.
    assert [t for t, _ in rounds] == list(range(30))
    t, cols = rounds[-1]
    assert cols.shape == (len(AgentHistory.FIELDS), 4)
    local_dis = cols[AgentHistory.FIELDS.index("local_disagreement")]
    for i in range(4):
        expected = np.mean(
            [np.linalg.norm(states[i] - states[k]) for k in graph.neighbor_lists[i]]
        )
        assert expected > 0
        assert local_dis[i] == pytest.approx(expected, rel=1e-12)


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
    # Trace rows pinned from the build before the round was split into phases.
    report, stopped_by = drive(golden_sphere_config(stop_at_convergence=True))
    assert stopped_by is _trace
    assert report.converged_at == 154 == report.rows[-1].iteration
    assert len(report.rows) == 155
    assert (
        csv_sha256(report, tmp_path / "trace.csv")
        == "4327f20e0a7e427c08a1749fc026eace9576759a5018d7670c96b8497791ab6d"
    )


def test_a_run_does_not_import_numpy_ma():
    # np.median's first call imports numpy.ma, milliseconds inside the round
    # that starts the first kick; the kick-start median must not pay that.
    src = str(Path(lacmas.__file__).resolve().parents[1])
    code = """
import sys
import lacmas.swarm as swarm
from lacmas.engine import RunConfig, run
from lacmas.objectives import make_spec
from lacmas.topology import build_ring

medians = []
median = swarm._median

def counted(values):
    medians.append(values)
    return median(values)

swarm._median = counted
spec = make_spec("sphere", num_agents=4, dim=3, hetero_sigma=0.0, seed=0)
run(RunConfig(objective=spec, graph=build_ring(4), max_iterations=30))
print(len(medians) > 0, "numpy.ma" in sys.modules)
"""
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    # A kick started, and numpy.ma stayed out.
    assert done.stdout.split() == ["True", "False"]
