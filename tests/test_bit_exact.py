"""Bit-exactness of the batched bookkeeping against the per-agent rules.

The history keeps each round's raw records, and a reader derives its window:
the act refresh's local disagreement in one batched pass, the descriptor's
means from an (N, 2, w) copy. Both must give the bits of the per-round
pipeline and (N, 3, 2W) ring they replace, and the means those of np.mean over
a list of records per agent, for every window length, on graphs with unequal
degrees or a lone agent, and with the window short or wrapped, or the traces
move. A recorded window must not follow later in-place writes of best_seen.
The kick-scale factor table replaces a math.exp per agent and round, and the
set-up's one draw per agent its two Generator.uniform calls. The act rule's
quartiles come from one sort in place of two np.percentile calls. So must
the batched regime gate against the per-agent one, the step's folded draw
table against its four separate draw operations, and the spread pass with each
agent's row reduce, the xi-norm and the kick-start median against the numpy
calls they replace. Every round of a run driven by hand must read the
divergences of the positions it starts from. The batched injection, one
Population.inject, the per-agent values and one Population.attract, must
leave every array as the per-agent injection did.
"""

from __future__ import annotations

import copy
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lacmas.cooperation import build_descriptor
from lacmas.engine import PHASES, AgentHistory, RunConfig, RunState, local_disagreement
from lacmas.guidance import (
    ACT_WINDOW,
    C_DEFAULT,
    C_RANGE,
    C_STEP,
    D_DEFAULT,
    D_RANGE,
    D_STEP,
    DECAY,
    STALL_EPS,
    ActGuidance,
    ActRequest,
    _sorted_percentile,
    heuristic_advise_act,
)
from lacmas.objectives import make_spec
from lacmas.scheduler import PcgConfig
from lacmas.swarm import (
    D1,
    D2,
    INIT_VELOCITY_FRAC,
    KICK_ADAPT_RATE,
    KICK_TARGET_RATE,
    MODULATION_HIGH,
    MODULATION_LOW,
    PULL_ATTRACTOR,
    PULL_PBEST,
    AgentSwarm,
    Population,
    _median,
)
from lacmas.topology import build_explicit, build_random_connected, build_ring
from lacmas.wsn import WsnObjectiveSet, gen_measurements, gen_scenario

value = st.floats(-1e100, 1e100, allow_nan=False)
nonnegative = st.floats(0.0, 1e100, allow_nan=False)
coordinate = st.one_of(st.floats(-1e200, 1e200), st.floats(-1e-3, 1e-3))


class RingHistory:
    """AgentHistory as it was before it kept raw records: each round's
    (best fitness, divergence, local disagreement) per agent, written to slots
    k % W and k % W + W of an (N, 3, 2W) ring, so that every window is one
    contiguous, oldest-first slice of the last axis."""

    def __init__(self, num_agents):
        self.values = np.zeros((num_agents, 3, 2 * ACT_WINDOW))
        self.count = 0

    def append(self, cols):
        self.count += 1
        slot = (self.count - 1) % ACT_WINDOW
        self.values[:, :, slot] = self.values[:, :, slot + ACT_WINDOW] = np.array(cols).T

    def recent(self, window):
        end = (self.count - 1) % ACT_WINDOW + ACT_WINDOW + 1
        return self.values[:, :, end - min(window, self.count, ACT_WINDOW):end]


def per_round_local_disagreement(fused, graph):
    """The local disagreement every round's bookkeeping computed before the
    act refresh derived it: one gather, row norms and bincount per round."""
    src, dst = graph.edges
    degrees = np.maximum(np.bincount(src, minlength=graph.num_agents), 1)
    e = fused.take(src, 0) - fused.take(dst, 0)
    edge_norms = np.sqrt(np.add.reduce(e * e, axis=1))
    return np.bincount(src, weights=edge_norms, minlength=graph.num_agents) / degrees


@st.composite
def graphs(draw):
    """A ring, a random graph, or an explicit one: a random spanning tree plus
    random extra edges, so degrees differ, down to a lone agent."""
    kind = draw(st.sampled_from(["ring", "random", "explicit"]))
    if kind == "ring":
        return build_ring(draw(st.integers(3, 6)))
    if kind == "random":
        n, prob, seed = draw(st.integers(2, 6)), draw(st.floats(0.0, 1.0)), draw(st.integers(0, 99))
        return build_random_connected(n, prob, seed)
    n = draw(st.integers(1, 6))
    tree = [(i, draw(st.integers(0, i - 1))) for i in range(1, n)]
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    extra = draw(st.lists(st.sampled_from(pairs), max_size=3)) if pairs else []
    return build_explicit(n, tree + extra)


@st.composite
def recorded_runs(draw):
    """(graph, rounds): each round is (best values, divergences, fused states)
    of one of up to three times the window of consecutive rounds."""
    graph = draw(graphs())
    n, dim = graph.num_agents, draw(st.integers(1, 4))
    elements = draw(st.sampled_from([st.floats(-1e3, 1e3), coordinate]))
    rounds = [
        (
            np.array(draw(st.lists(value, min_size=n, max_size=n))),
            np.array(draw(st.lists(nonnegative, min_size=n, max_size=n))),
            draw(arrays(float, (n, dim), elements=elements)),
        )
        for _ in range(draw(st.integers(1, 3 * ACT_WINDOW)))
    ]
    return graph, rounds


def same_bits(got, expected):
    got, expected = np.asarray(got), np.asarray(expected)
    return got.shape == expected.shape and got.tobytes() == expected.tobytes()


@settings(max_examples=80, deadline=None)
@given(recorded_runs())
def test_act_windows_and_descriptors_match_the_per_round_ring(case):
    graph, rounds = case
    history, ring = AgentHistory(), RingHistory(graph.num_agents)
    # Entries near 1e200 overflow an edge's squares, as they would the ring's.
    with np.errstate(over="ignore", invalid="ignore"):
        for bests, divergences, fused in rounds:
            history.append(bests, divergences, fused)
            ring.append((bests, divergences, per_round_local_disagreement(fused, graph)))
        assert len(history) == min(len(rounds), ACT_WINDOW)

        for window in range(1, ACT_WINDOW + 1):
            expected = ring.recent(window)
            records = history.recent(window)
            # The act refresh's trajectory columns, (N, w) each.
            fitness = np.array([record[0] for record in records]).T
            fused = np.array([record[2] for record in records])
            assert same_bits(fitness, expected[:, 0])
            assert same_bits(local_disagreement(fused, graph).T, expected[:, 2])
            descriptor = expected[:, :2].sum(axis=2) / expected.shape[2]
            assert same_bits(build_descriptor(history, window), descriptor)


@settings(max_examples=60, deadline=None)
@given(recorded_runs())
def test_history_windows_and_descriptors_match_record_lists(case):
    graph, rounds = case
    history = AgentHistory()
    for record in rounds:
        history.append(*record)
    for window in range(1, ACT_WINDOW + 1):
        kept = rounds[-window:]
        # The same records, oldest first; a record's fused states are the
        # round's own array, its best values a copy.
        records = history.recent(window)
        assert len(records) == min(window, ACT_WINDOW, len(rounds))
        for (bests, divergences, fused), expected in zip(records, kept):
            assert same_bits(bests, expected[0]) and bests is not expected[0]
            assert divergences is expected[1] and fused is expected[2]
        means = build_descriptor(history, window)
        for f in range(2):
            for i in range(graph.num_agents):
                assert means[i, f] == float(np.mean([r[f][i] for r in kept]))


def test_a_recorded_window_keeps_its_values_when_best_seen_is_written():
    population = new_population(3, 2, [np.random.default_rng(i) for i in range(2)])
    population.tell(np.full((2, 3), 5.0))
    history = AgentHistory()
    history.append(population.best_seen, np.zeros(2), np.zeros((2, 2)))
    # tell and the injected value both lower best_seen in place.
    population.tell(np.full((2, 3), 4.0))
    population.inject(np.zeros((2, 2)))
    AgentSwarm(population, 1).inject_fused_state(1.0)
    assert population.best_seen.tolist() == [4.0, 1.0]
    assert history.recent(1)[0][0].tolist() == [5.0, 5.0]
    assert build_descriptor(history, 1)[:, 0].tolist() == [5.0, 5.0]


def new_population(p, dim, rngs, bound=1.0):
    box = np.full(dim, -bound), np.full(dim, bound)
    return Population(p, dim, *box, rngs, (D_DEFAULT, C_DEFAULT))


def wsn_box():
    scenario = gen_scenario(num_sensors=6, num_targets=2, seed=8)
    objective = WsnObjectiveSet(scenario=scenario, phi=gen_measurements(scenario, seed=8))
    return objective.lower, objective.upper


@pytest.mark.parametrize("box", [(np.full(4, -5.0), np.full(4, 5.0)), wsn_box()], ids=["uniform", "wsn"])
@pytest.mark.parametrize("seed", range(20))
def test_set_up_draw_matches_two_uniform_calls(box, seed):
    lower, upper = box
    dim, p = len(lower), 7
    seqs = np.random.SeedSequence(seed).spawn(3)
    rngs = [np.random.Generator(np.random.PCG64(seq)) for seq in seqs]
    population = Population(p, dim, lower, upper, rngs, (D_DEFAULT, C_DEFAULT))
    vmax = INIT_VELOCITY_FRAC * (upper - lower)
    for i, seq in enumerate(seqs):
        rng = np.random.Generator(np.random.PCG64(seq))
        positions = rng.uniform(lower, upper, size=(p, dim))
        velocities = rng.uniform(-vmax, vmax, size=(p, dim))
        assert same_bits(population.positions[i], positions)
        assert same_bits(population.velocities[i], velocities)
        assert rngs[i].bit_generator.state == rng.bit_generator.state


@settings(max_examples=60, deadline=None)
@given(p=st.integers(1, 12), data=st.data())
def test_tell_kick_scale_matches_the_math_exp_rule(p, data):
    n = 4
    adapt, target = KICK_ADAPT_RATE, KICK_TARGET_RATE
    rngs = [np.random.default_rng(i) for i in range(n)]
    population = new_population(p, 1, rngs, bound=10.0)
    # Every table entry is the per-agent factor of its success count.
    assert population.kick_factors.tolist() == [
        math.exp(adapt * (k / p - target)) for k in range(p + 1)
    ]
    successes = data.draw(st.lists(st.integers(0, p), min_size=n, max_size=n))
    kicking = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    sigmas = data.draw(st.lists(st.floats(1e-12, 40.0), min_size=n, max_size=n))
    population.kicking[:] = kicking
    population.kick_sigma[:] = sigmas
    population.best_values[:] = 0.0
    # Particle j of agent i improves iff j < successes[i].
    values = np.where(np.arange(p) < np.array(successes)[:, None], -1.0, 1.0)
    population.tell(values)
    expected = [
        min(sigma * math.exp(adapt * (k / p - target)), population.span_mean) if kick else sigma
        for sigma, k, kick in zip(sigmas, successes, kicking)
    ]
    assert population.kick_sigma.tolist() == expected


magnitude = st.floats(1e-300, 1e300)
entry = st.one_of(st.just(0.0), magnitude, magnitude.map(lambda x: -x))
finite_windows = st.one_of(
    st.lists(entry, min_size=1, max_size=ACT_WINDOW),
    # Drawn from a pool of at most three values, so most windows hold ties.
    st.lists(entry, min_size=1, max_size=3).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=ACT_WINDOW)
    ),
)
infinite = st.sampled_from([math.inf, -math.inf])


def with_one_of(entries):
    """A finite window, or one with an entry drawn from `entries` put in at random."""

    @st.composite
    def windows(draw):
        window = draw(finite_windows)
        if draw(st.booleans()):
            window[draw(st.integers(0, len(window) - 1))] = draw(entries)
        return window

    return windows()


act_windows = with_one_of(st.one_of(infinite, st.just(math.nan)))


def numpy_act_rule(req: ActRequest) -> ActGuidance:
    """The act rule with np.mean and np.percentile, as first written."""
    fitness = [f for (_, f, _) in req.trajectory]
    disagreement = [g for (_, _, g) in req.trajectory]
    improvement = (fitness[0] - fitness[-1]) / max(abs(fitness[0]), 1e-12)
    g_mean = float(np.mean(disagreement))
    g_low = float(np.percentile(disagreement, 25))
    g_high = float(np.percentile(disagreement, 75))
    d, c = req.current_d, req.current_c
    if improvement < STALL_EPS and g_mean <= g_low:
        c = c + C_STEP
    elif improvement < STALL_EPS and g_mean >= g_high:
        d = d + D_STEP
    else:
        d = d + DECAY * (D_DEFAULT - d)
        c = c + DECAY * (C_DEFAULT - c)
    return ActGuidance(d=d, c=c)


@settings(max_examples=300, deadline=None)
@given(with_one_of(infinite))
def test_sorted_quartiles_match_np_percentile(window):
    # An infinite entry makes inf - inf and inf * 0 in both rules: NaN alike.
    ordered = sorted(window)
    for q in (25, 75):
        got = _sorted_percentile(ordered, q / 100)
        with np.errstate(invalid="ignore"):
            expected = float(np.percentile(window, q))
        assert got.hex() == expected.hex()


@settings(max_examples=300, deadline=None)
@given(
    disagreement=act_windows,
    data=st.data(),
    d=st.floats(*D_RANGE),
    c=st.floats(*C_RANGE),
)
def test_act_rule_matches_the_numpy_percentile_rule(disagreement, data, d, c):
    n = len(disagreement)
    # Few fitness values, so stalled windows (improvement 0) are common.
    fitness = data.draw(st.lists(st.sampled_from([1.0, 0.5, 1e-9, 3e5]), min_size=n, max_size=n))
    req = ActRequest(
        iteration=n,
        current_d=d,
        current_c=c,
        trajectory=tuple(zip(range(n), fitness, disagreement)),
    )
    with np.errstate(invalid="ignore"):
        got, expected = heuristic_advise_act(req), numpy_act_rule(req)
    assert (got.d.hex(), got.c.hex()) == (expected.d.hex(), expected.c.hex())


def per_agent_gate(div, d, c, d1, d2, late_stage):
    """One agent's regime gate and the engine's late-stage cap, as first written."""
    if div < d1:
        active = c
    elif div <= d2:
        active = 1.0
    else:
        active = d
    if late_stage:
        # Late-stage stabilization: no expansion past the horizon.
        active = min(active, 1.0)
    return active


@settings(max_examples=200, deadline=None)
@given(late_stage=st.booleans(), data=st.data())
def test_select_matches_the_per_agent_gate(late_stage, data):
    n = data.draw(st.integers(1, 8))
    edges = st.sampled_from([D1, D2, 0.0, math.inf, math.nan])
    divergences = data.draw(
        st.lists(st.one_of(edges, st.floats(0.0, 1e300)), min_size=n, max_size=n)
    )
    coefficients = data.draw(
        st.lists(st.tuples(st.floats(*D_RANGE), st.floats(*C_RANGE)), min_size=n, max_size=n)
    )
    rngs = [np.random.default_rng(i) for i in range(n)]
    population = new_population(2, 1, rngs)
    population.coefficients[:] = coefficients
    population.select(np.array(divergences), late_stage)
    expected = [
        per_agent_gate(div, d, c, D1, D2, late_stage)
        for div, (d, c) in zip(divergences, coefficients)
    ]
    assert [a.hex() for a in population.active.tolist()] == [e.hex() for e in expected]


unit = st.one_of(st.just(0.0), st.just(1.0 - 2.0**-53), st.floats(0.0, 1.0, exclude_max=True))


@settings(max_examples=150, deadline=None)
@given(
    p=st.integers(1, 5),
    dim=st.integers(1, 4),
    sigma=st.floats(0.0, 10.0),
    active=st.floats(0.0, 2.0),
    data=st.data(),
)
def test_folded_draw_table_matches_the_four_draw_operations(p, dim, sigma, active, data):
    population = new_population(p, dim, [np.random.default_rng(0)])
    pd = p * dim
    row = np.array(data.draw(st.lists(unit, min_size=3 * pd + p, max_size=3 * pd + p)))
    population.draws[0] = row
    population.kick_sigma[:] = sigma
    population.active[:] = active
    population.step(record_pull=True)

    # The parent's step: scale the first L entries, add the low end to delta,
    # then 2u - 1 on the kick before its scale.
    main = row[: 2 * pd + p] * np.concatenate([
        np.full(pd, MODULATION_HIGH - MODULATION_LOW),
        np.full(pd, PULL_PBEST),
        np.full(p, PULL_ATTRACTOR),
    ])
    delta = main[:pd]
    delta += MODULATION_LOW
    kick = row[2 * pd + p :].copy()
    kick *= 2.0
    kick -= 1.0
    kick *= population.kick_sigma[0] * active
    # Byte equality tells -0.0 from 0.0.
    assert population.draws[0].tobytes() == np.concatenate([main, kick]).tobytes()


def parent_divergence(x):
    """AgentSwarm.divergence as first written."""
    n = len(x)
    centroid = np.add.reduce(x, axis=0)
    centroid /= n
    d = np.subtract(x, centroid)
    d *= d
    return float(np.add.reduce(d, axis=None) / n)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(3, 4), p=st.integers(1, 24), dim=st.integers(1, 24), data=st.data())
def test_divergence_and_xi_norm_match_the_numpy_calls(n, p, dim, data):
    # Mixed in row by row, entries near 1e200 overflow nearly every row's
    # squares, so half the examples keep to entries whose squares stay finite.
    elements = data.draw(st.sampled_from([st.floats(-1e3, 1e3), coordinate]))
    positions = data.draw(arrays(float, (n, p, dim), elements=elements, fill=st.nothing()))
    # Distinct rows, so a row that reduces another agent's squares fails.
    assume(len(set(map(tuple, positions.reshape(n, -1).tolist()))) == n)
    population = new_population(p, dim, [np.random.default_rng(i) for i in range(n)])
    population.positions[...] = positions
    with np.errstate(over="ignore", invalid="ignore"):
        # One spread pass, then every agent's row, as a round reads them.
        population.spread()
        for i, x in enumerate(population.positions):
            got = AgentSwarm(population, i).divergence()
            assert got.hex() == parent_divergence(x).hex()

        # The engine's xi-norm, rows of states against rows of fused states.
        x = population.positions[-1]
        fused = x[::-1].copy()
        drift = (x - fused).ravel()
        assert math.sqrt(drift.dot(drift)).hex() == float(np.linalg.norm(x - fused)).hex()


@pytest.mark.parametrize("p, dim", [(10, 4), (10, 13), (100, 100)])
def test_batched_row_sums_match_the_per_row_sum(p, dim):
    # P * D of 40, 130 and 10000: below numpy's 128-element pairwise block,
    # just past it, and past its 8192-element buffer. Rows differ in scale.
    rng = np.random.default_rng(p * dim)
    population = new_population(p, dim, [np.random.default_rng(i) for i in range(3)])
    population.positions[...] = rng.standard_normal((3, p, dim)) * [[[1e-3]], [[1.0]], [[1e5]]]
    population.spread()
    for i, x in enumerate(population.positions):
        assert AgentSwarm(population, i).divergence().hex() == parent_divergence(x).hex()


def test_a_divergence_read_before_the_first_spread_is_nan():
    population = new_population(3, 2, [np.random.default_rng(i) for i in range(2)])
    assert all(math.isnan(AgentSwarm(population, i).divergence()) for i in range(2))


def test_each_round_reads_the_divergences_of_its_start_positions():
    # Horizon 3 puts the rebase inside the rounds driven, and every round
    # from 0 on ends by injecting the fused states.
    spec = make_spec("sphere", num_agents=4, dim=3, hetero_sigma=0.0, seed=11)
    config = RunConfig(spec, build_ring(4), max_iterations=8, pcg=PcgConfig(horizon_T=3))
    state = RunState(config)
    for t in range(config.max_iterations):
        expected = [parent_divergence(x).hex() for x in state.population.positions]
        for phase in PHASES:
            assert not phase(state, t)
        assert [d.hex() for d in state.divergences.tolist()] == expected


distance = st.one_of(st.floats(0.0, 1e300), st.just(math.inf))


@settings(max_examples=300, deadline=None)
@given(st.lists(distance, min_size=1, max_size=12))
@example([2.0, 0.5, 1.0])
@example([0.1, 0.2])
@example([3.0, math.inf])
@example([math.inf, 1.0, math.inf])
def test_kick_start_median_matches_np_median(distances):
    # Odd and even counts, ties and infinite distances alike.
    assert _median(distances).hex() == float(np.median(distances)).hex()


def parent_inject_fused_state(population, i, fused, value, refocus):
    """AgentSwarm.inject_fused_state as first written, on agent i's rows."""
    if math.isnan(value):
        value = math.inf
    positions, velocities = population.positions[i], population.velocities[i]
    best_positions, best_values = population.best_positions[i], population.best_values[i]
    best_seen = population.best_seen
    worst = best_values.argmax()
    positions[worst] = best_positions[worst] = fused
    velocities[worst].fill(0.0)
    best_values[worst] = population.last_values[i, worst] = value
    if value < best_seen[i]:
        best_seen[i] = value
    population.attractors[i] = best_positions[best_values.argmin()] if refocus else fused


def assert_injections_agree(records, seen, values, refocus, p=4, dim=3):
    """Inject fused states and values into two copies of a population whose
    best records are `records` and best_seen `seen`, batched and as first
    written; every array must come out with the same bytes."""
    n = len(values)
    population = new_population(p, dim, [np.random.default_rng(i) for i in range(n)])
    population.best_values[...] = records
    population.last_values[...] = np.asarray(records) + 1.0
    population.best_seen[...] = seen
    population.best_positions[...] = -population.positions
    population.velocities[...] = 1.0
    fused = np.random.default_rng(n).uniform(-1.0, 1.0, (n, dim))
    reference = copy.deepcopy(population)

    population.inject(fused)
    for i, value in enumerate(values):
        AgentSwarm(population, i).inject_fused_state(value)
    population.attract(fused, refocus)
    for i, (row, value) in enumerate(zip(fused, values)):
        parent_inject_fused_state(reference, i, row, value, refocus)

    for name in ("positions", "velocities", "best_positions", "best_values",
                 "last_values", "attractors", "best_seen"):
        assert getattr(population, name).tobytes() == getattr(reference, name).tobytes(), name


INJECT_CASES = {
    # NaN values are kept as +inf, also in the refocus pick.
    "nan values": ([[1.0, 5.0, 2.0, 0.5], [3.0, 3.0, 1.0, 0.0]], [0.0, 0.0], [math.nan, 0.25]),
    # Tied worst records: the lowest index takes the fused state.
    "tied worst": ([[4.0, 1.0, 4.0, 4.0], [math.inf, 2.0, math.inf, 1.0]], [1.0, 1.0], [2.0, 3.0]),
    # Below every record, the value is the new best record and best_seen.
    "below every record": ([[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]], [1.0, 5.0], [-7.0, 0.5]),
    # -0.0 < 0.0 is false, so best_seen keeps its 0.0; np.minimum stores -0.0.
    "zero on zero": ([[0.0, 2.0, 0.0, 1.0], [3.0, 0.0, 0.0, 0.0]], [0.0, 0.0], [-0.0, 0.0]),
}


@pytest.mark.parametrize("refocus", [False, True])
@pytest.mark.parametrize("case", sorted(INJECT_CASES))
def test_batched_injection_matches_the_per_agent_injection(case, refocus):
    records, seen, values = INJECT_CASES[case]
    assert_injections_agree(records, seen, values, refocus)


record = st.sampled_from([0.0, -0.0, 1.0, 2.5, math.inf])
injected = st.sampled_from([0.0, -0.0, -1.0, 1.0, 2.5, math.inf, math.nan])


@settings(max_examples=200, deadline=None)
@given(refocus=st.booleans(), data=st.data())
def test_batched_injection_matches_on_drawn_records(refocus, data):
    # Records from a pool of five, so ties, signed zeros and all-inf rows are common.
    n = data.draw(st.integers(1, 4))
    p = data.draw(st.integers(1, 5))
    records = data.draw(arrays(float, (n, p), elements=record))
    seen = np.minimum.reduce(records, axis=1)
    values = data.draw(st.lists(injected, min_size=n, max_size=n))
    assert_injections_agree(records, seen, values, refocus, p=p)
