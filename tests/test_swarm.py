import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lacmas.errors import ContractError
from lacmas.guidance import C_DEFAULT, D_DEFAULT
from lacmas.swarm import (
    D1,
    D2,
    KICK_VELOCITY_EPS,
    MODULATION_HIGH,
    MODULATION_LOW,
    PULL_ATTRACTOR,
    PULL_PBEST,
    AgentSwarm,
    Population,
    box_span,
)


def new_population(p, dim, lower, upper, rngs):
    """A fresh Population of p particles per agent, not yet evaluated."""
    box = np.full(dim, lower), np.full(dim, upper)
    return Population(p, dim, *box, rngs, (D_DEFAULT, C_DEFAULT))


def new_swarm(dim, lower, upper, p, rng_seed):
    """The swarm of a fresh one-agent Population, not yet evaluated."""
    population = new_population(p, dim, lower, upper, [np.random.default_rng(rng_seed)])
    return AgentSwarm(population, 0)


def make_swarm(positions, rng_seed=0, lower=-100.0, upper=100.0):
    positions = np.asarray(positions, dtype=float)
    p, dim = positions.shape
    swarm = new_swarm(dim, lower, upper, p, rng_seed)
    swarm.population.positions[0] = positions
    swarm.population.velocities[0] = 0.0
    set_up(swarm.population)
    return swarm


def sphere_batch(xs):
    return np.sum(xs * xs, axis=-1)


def set_up(population):
    """The engine's set-up: one tell of the initial sphere values, then each
    attractor seeded from its agent's representative state."""
    population.tell(sphere_batch(population.positions))
    population.attractors[...] = population.representatives()


def step(swarm, active_coeff):
    """One ask/tell round on the sphere: draw, update, evaluate, take the values."""
    population = swarm.population
    assert step_all(population, [swarm], active_coeff) is None
    population.tell(sphere_batch(population.positions))


def step_all(population, swarms, active_coeff, record_pull=True):
    """Every swarm draws, then one batched update with every agent's active
    coefficient set to active_coeff; returns what Population.step does."""
    population.active[...] = active_coeff
    for swarm in swarms:
        swarm.step_particles()
    return population.step(record_pull)


def best_value(swarm):
    return float(swarm.population.best_seen[swarm.agent_id])


def mean_squared_distance(points, center):
    return float(np.mean(np.sum((np.asarray(points) - center) ** 2, axis=1)))


def divergence(swarm):
    """The engine's reading: one spread pass over the population, then the
    swarm's own row."""
    swarm.population.spread()
    return swarm.divergence()


def inject(population, fused, values, refocus=False):
    """The engine's fold of the (N, D) fused states: one batched pass, each
    agent's value recorded in agent order, then the attractors."""
    population.inject(fused)
    for i, value in enumerate(values):
        AgentSwarm(population, i).inject_fused_state(value)
    population.attract(fused, refocus)


def inject_one(swarm, fused):
    """Fold one agent's fused state, scored on the sphere, into its swarm."""
    fused = fused[None, :]
    inject(swarm.population, fused, sphere_batch(fused).tolist())


# The divergence measures spread about the centroid, and the mean squared
# distance from any other center is strictly larger: matching it pins the
# centroid the divergence used.


def test_centroid_of_identical_particles():
    points = [[3.0, -1.0]] * 4
    swarm = make_swarm(points)
    assert divergence(swarm) == pytest.approx(mean_squared_distance(points, [3.0, -1.0]))


def test_centroid_symmetric_pair():
    points = [[0.0, 0.0], [2.0, 2.0]]
    swarm = make_swarm(points)
    assert divergence(swarm) == pytest.approx(mean_squared_distance(points, [1.0, 1.0]))


def test_centroid_three_particles():
    points = [[0.0, 0.0], [2.0, 0.0], [1.0, 3.0]]
    swarm = make_swarm(points)
    assert divergence(swarm) == pytest.approx(mean_squared_distance(points, [1.0, 1.0]))


def test_divergence_zero_for_identical_positions():
    swarm = make_swarm([[5.0, 5.0]] * 3)
    assert divergence(swarm) == 0.0


def test_divergence_one_dimensional_pair():
    swarm = make_swarm([[-1.0], [1.0]])
    assert divergence(swarm) == pytest.approx(1.0)


def test_divergence_three_particles_exact():
    # Centroid (1,1); squared distances 2, 2, 4; mean 8/3.
    swarm = make_swarm([[0.0, 0.0], [2.0, 0.0], [1.0, 3.0]])
    assert divergence(swarm) == pytest.approx(8.0 / 3.0)


def test_divergence_nonnegative_random():
    rng = np.random.default_rng(3)
    swarm = make_swarm(rng.uniform(-50, 50, size=(8, 4)))
    assert divergence(swarm) >= 0.0


@pytest.mark.parametrize(
    "div,expected",
    [(D1 / 2, "w2"), (D1, "w0"), (2.5, "w0"), (4.0, "w0"), (D2, "w0"), (D2 + 0.5, "w1")],
)
def test_select_coefficient_regimes(div, expected):
    population, _ = make_population(1, p=2)
    population.coefficients[0] = (0.6, 1.5)
    value = {"w1": 0.6, "w0": 1.0, "w2": 1.5}[expected]
    # Past the horizon the gate caps every coefficient at 1.0.
    for late_stage, gated in ((False, value), (True, min(value, 1.0))):
        population.select(np.array([div]), late_stage)
        assert population.active[0] == gated


def test_step_with_zero_coefficients_freezes_positions():
    # Every particle sits on its personal best and the attractor, so neither
    # pull moves it, and coefficient 0 zeroes the modulated term and the kick.
    swarm = make_swarm([[1.0, 2.0]] * 3)
    population = swarm.population
    population.velocities[0] = 1.0
    before = population.positions[0].copy()
    step(swarm, 0.0)
    assert np.array_equal(population.positions[0], before)
    assert np.all(population.velocities[0] == 0.0)


def test_degenerate_modulation_is_identity():
    # A draw row with every delta uniform at u gives delta = 1, and zero pull
    # uniforms give no pull; kick scale 0 marks no particle dead.
    swarm = make_swarm([[1.0, 1.0], [2.0, -2.0]])
    population = swarm.population
    population.velocities[0] = [[0.5, -0.5], [1.0, 0.25]]
    population.kick_sigma[0] = 0.0
    u = (1.0 - MODULATION_LOW) / (MODULATION_HIGH - MODULATION_LOW)
    population.draws[0] = 0.0
    population.draws[0, : population.delta[0].size] = u
    population.active[0] = 1.0
    before_v = population.velocities[0].copy()
    before_x = population.positions[0].copy()
    assert population.step(record_pull=True) is None
    assert np.array_equal(population.delta[0], np.ones((2, 2)))
    assert np.array_equal(population.velocities[0], before_v)
    assert np.array_equal(population.positions[0], before_x + before_v)


def test_step_is_deterministic_for_fixed_seed():
    def run_once():
        swarm = new_swarm(4, -10.0, 10.0, 6, 99)
        set_up(swarm.population)
        for _ in range(20):
            step(swarm, 1.1)
        return swarm.population.positions[0].copy(), swarm.population.best_values[0].copy()

    p1, b1 = run_once()
    p2, b2 = run_once()
    assert np.array_equal(p1, p2)
    assert np.array_equal(b1, b2)


def test_representative_single_particle():
    swarm = make_swarm([[4.0, 2.0]])
    assert np.allclose(swarm.representative_state(), [4.0, 2.0])


def test_representative_picks_lowest_latest_value():
    swarm = make_swarm([[1.0], [2.0]])
    swarm.population.last_values[0] = [5.0, 3.0]
    assert np.allclose(swarm.representative_state(), [2.0])


def test_representative_tie_breaks_to_lower_index():
    swarm = make_swarm([[1.0], [2.0]])
    swarm.population.last_values[0] = [3.0, 3.0]
    assert np.allclose(swarm.representative_state(), [1.0])


def test_inject_sets_attractor_and_replaces_worst():
    swarm = make_swarm([[1.0, 0.0], [5.0, 5.0]])
    population = swarm.population
    population.velocities[0] = 1.0
    fused = np.array([0.5, 0.5])
    inject_one(swarm, fused)
    assert np.array_equal(population.attractors[0], fused)
    assert np.array_equal(population.positions[0, 1], fused)
    assert np.array_equal(population.best_positions[0, 1], fused)
    assert np.all(population.velocities[0, 1] == 0.0)
    # The other particle keeps its state.
    assert np.array_equal(population.positions[0, 0], [1.0, 0.0])
    assert np.all(population.velocities[0, 0] == 1.0)
    value = sphere_batch(fused[None, :])[0]
    assert population.best_values[0, 1] == population.last_values[0, 1] == value


def test_inject_onto_best_duplicates_it():
    swarm = make_swarm([[1.0, 0.0], [5.0, 5.0]])
    best = swarm.population.positions[0, 0].copy()
    inject_one(swarm, best)
    assert np.array_equal(swarm.population.positions[0, 1], best)


def test_inject_dimension_mismatch_rejected():
    # The batched pass takes one (D,) row per agent and nothing else: a wrong
    # dimension, a missing agent axis or an extra agent fails before any write.
    swarm = make_swarm([[1.0, 0.0]])
    population = swarm.population
    before = population.positions.copy()
    for shape in [(1, 3), (2,), (2, 2)]:
        with pytest.raises(ContractError):
            population.inject(np.zeros(shape))
    assert np.array_equal(population.positions, before)


def test_a_value_recorded_before_any_inject_raises():
    # Until inject picks a particle, the seam has no particle to record on.
    swarm = make_swarm([[1.0, 0.0], [5.0, 5.0]])
    with pytest.raises(IndexError):
        swarm.inject_fused_state(0.0)


def test_positions_stay_in_bounds():
    swarm = new_swarm(3, -2.0, 2.0, 5, 7)
    set_up(swarm.population)
    for _ in range(200):
        step(swarm, 1.5)
        assert np.all(swarm.population.positions >= -2.0)
        assert np.all(swarm.population.positions <= 2.0)


def test_reported_best_is_monotone():
    swarm = new_swarm(4, -50.0, 50.0, 8, 21)
    set_up(swarm.population)
    best = best_value(swarm)
    for _ in range(300):
        step(swarm, 1.0)
        now = best_value(swarm)
        assert now <= best
        best = now


def test_rebase_keeps_reported_best_monotone():
    swarm = new_swarm(3, -10.0, 10.0, 5, 2)
    set_up(swarm.population)
    for _ in range(50):
        step(swarm, 1.0)
    before = best_value(swarm)
    population = swarm.population
    population.rebase()
    assert best_value(swarm) <= before
    assert np.array_equal(population.best_positions, population.positions)


def test_velocity_contracts_without_attraction():
    # With a sub-unit coefficient and no pulls, the modulated velocity should
    # trend downward in magnitude over many steps. Ten one-particle agents
    # whose personal bests and attractors follow their particles feel no
    # pull, and kick scale 0 marks no particle dead.
    rngs = [np.random.default_rng(5 + i) for i in range(10)]
    population = new_population(1, 5, -1e9, 1e9, rngs)
    swarms = [AgentSwarm(population, i) for i in range(10)]
    velocities = population.velocities
    velocities[:, 0] = np.random.default_rng(6).uniform(-1, 1, size=(10, 5))
    population.kick_sigma[:] = 0.0
    norms = []
    for _ in range(1000):
        population.best_positions[...] = population.positions
        population.attractors[...] = population.positions[:, 0]
        step_all(population, swarms, 0.9)
        norms.append(float(np.mean(np.linalg.norm(velocities[:, 0], axis=1))))
    first = np.mean(norms[:100])
    last = np.mean(norms[-100:])
    assert last < first


def test_divergence_zero_iff_positions_equal():
    swarm = make_swarm([[1.0, 2.0], [1.0, 2.0], [1.0, 2.0]])
    assert divergence(swarm) == 0.0
    swarm.population.positions[0, 0, 0] += 1e-3
    assert divergence(swarm) > 0.0


def test_step_proposes_and_tell_takes_the_values():
    swarm = make_swarm([[1.0, 1.0], [4.0, -2.0], [-3.0, 0.5]])
    population = swarm.population
    population.velocities[0] = [[-1.0, -1.0], [10.0, 0.0], [0.0, 0.0]]
    best_before = population.best_values[0].copy()
    before = population.positions[0].copy()
    assert step_all(population, [swarm], 1.0) is None
    proposed = population.positions[0].copy()
    assert not np.array_equal(proposed, before)
    values = sphere_batch(proposed)
    population.tell(values[None, :])
    assert np.array_equal(population.last_values[0], values)
    assert np.array_equal(population.best_values[0], np.minimum(best_before, values))
    improved = values < best_before
    assert np.array_equal(population.best_positions[0][improved], proposed[improved])


def make_population(n, p=4, dim=3, seed=0):
    """An n-agent Population, set up as the engine does, and its swarms."""
    rngs = [np.random.default_rng(seed + i) for i in range(n)]
    population = new_population(p, dim, -10.0, 10.0, rngs)
    set_up(population)
    return population, [AgentSwarm(population, i) for i in range(n)]


def test_tell_rejects_a_wrongly_shaped_batch():
    population, _ = make_population(2)
    with pytest.raises(ContractError):
        population.tell(np.zeros((1, 4)))


def test_batched_picks_match_each_swarm():
    population, swarms = make_population(4)
    for _ in range(5):
        step_all(population, swarms, 1.2)
        population.tell(sphere_batch(population.positions))
    reps = population.representatives()
    for i, swarm in enumerate(swarms):
        assert np.array_equal(reps[i], swarm.representative_state())
        # With no injection or rebase, no record was ever overwritten.
        assert population.best_seen[i] == population.best_values[i].min()


def test_rebase_matches_the_per_agent_rule_on_a_kicked_population():
    # Every record is reset to the latest evaluation, and best_seen, already
    # the minimum of every record held, stays as it was.
    population, swarms = make_population(6, p=5, dim=2, seed=4)

    def run_rounds(k):
        for _ in range(k):
            step_all(population, swarms, 1.0)
            population.tell(sphere_batch(population.positions))

    run_rounds(30)
    population.rebase()
    run_rounds(200)
    assert population.kicking.any()
    # Some agent's best record is about to be overwritten by a worse value.
    records = population.best_values.min(axis=1)
    assert (records >= population.best_seen).all()
    assert (population.last_values.min(axis=1) > records).any()

    seen = population.best_seen.copy()
    positions, last_values = population.positions.copy(), population.last_values.copy()
    population.rebase()
    assert np.array_equal(population.best_seen, seen)
    assert np.array_equal(population.best_positions, positions)
    assert np.array_equal(population.best_values, last_values)


VALUES = st.one_of(st.floats(-10.0, 10.0), st.sampled_from([math.inf, -math.inf, math.nan]))


@settings(max_examples=200, deadline=None)
@given(p=st.sampled_from([1, 2, 5]), data=st.data())
def test_best_seen_is_the_running_minimum_of_every_record(p, data):
    # Brute force: every value that enters a record is in the records right
    # after the call that wrote it, so their snapshots hold them all.
    n, dim = 2, 2
    population = new_population(p, dim, -1.0, 1.0, [np.random.default_rng(i) for i in range(n)])
    held = [[math.inf] for _ in range(n)]
    previous = population.best_seen.copy()
    for op in data.draw(st.lists(st.sampled_from(["tell", "inject", "rebase"]), max_size=12)):
        if op == "tell":
            values = data.draw(st.lists(VALUES, min_size=n * p, max_size=n * p))
            population.tell(np.reshape(values, (n, p)))
        elif op == "inject":
            values = data.draw(st.lists(VALUES, min_size=n, max_size=n))
            inject(population, np.zeros((n, dim)), values, data.draw(st.booleans()))
        else:
            population.rebase()
        for i in range(n):
            held[i].extend(population.best_values[i].tolist())
        expected = [min(v for v in values if not math.isnan(v)) for values in held]
        assert population.best_seen.tolist() == expected
        assert (population.best_seen <= previous).all()
        previous = population.best_seen.copy()


def reference_step(population, i, active, record_pull):
    """Agent i's step written from the update rule in the module docstring,
    one agent at a time: v <- w (delta . v) + c_p r1 . (pbest - x)
    + c_a r2 . (attr - x), a kick for dead particles, x <- clamp(x + v).
    Returns False, and commits nothing, when the new state is not finite."""
    rng = population.rngs[i]
    x, v = population.positions[i], population.velocities[i]
    pbest, attractor = population.best_positions[i], population.attractors[i]
    u = rng.random(2 * x.size + x.shape[0])
    delta = (MODULATION_HIGH - MODULATION_LOW) * u[: x.size].reshape(x.shape)
    delta += MODULATION_LOW
    r1 = PULL_PBEST * u[x.size : 2 * x.size].reshape(x.shape)
    r2 = PULL_ATTRACTOR * u[2 * x.size :].reshape(x.shape[0], 1)

    v = v * delta * active
    if record_pull:
        v = v + (pbest - x) * r1
    v = v + (attractor - x) * r2

    sigma = population.kick_sigma[i]
    dead = np.sum(v * v, axis=1) < (KICK_VELOCITY_EPS * sigma) ** 2
    if dead.any():
        if not population.kicking[i]:
            best = pbest[population.best_values[i].argmin()]
            spread = float(np.median(np.linalg.norm(x - best, axis=1)))
            sigma = max(min(sigma, spread), population.kick_floor)
            population.kick_sigma[i] = sigma
            population.kicking[i] = True
        kick = rng.uniform(-1.0, 1.0, size=x.shape) * (sigma * active)
        v = np.where(dead[:, None], v + kick, v)

    raw = x + v
    new = np.minimum(np.maximum(raw, population.lower), population.upper)
    v = np.where(raw != new, 0.0, v)
    if not np.isfinite(new.sum() + v.sum()):
        return False
    population.positions[i] = new
    population.velocities[i] = v
    return True


def assert_same_state(population, reference):
    assert np.array_equal(population.positions, reference.positions)
    assert np.array_equal(population.velocities, reference.velocities)
    assert np.array_equal(population.kick_sigma, reference.kick_sigma)
    assert np.array_equal(population.kicking, reference.kicking)
    for rng, ref_rng in zip(population.rngs, reference.rngs):
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def freeze(population, particle):
    """Put `particle` of every agent on its attractor, as its personal best,
    at rest: no pull moves it, so its velocity stays 0 and it is dead."""
    population.positions[:, particle] = population.attractors
    population.best_positions[:, particle] = population.attractors
    population.velocities[:, particle] = 0.0


@pytest.mark.parametrize("record_pull", [True, False])
def test_batched_step_matches_the_per_agent_rule(record_pull):
    n, p, dim = 5, 6, 4
    population, swarms = make_population(n, p=p, dim=dim, seed=8)
    for i in range(n):
        population.coefficients[i] = (0.5 + 0.1 * i, 1.1 + 0.15 * i)
        population.attractors[i] = np.linspace(-3.0, 3.0, dim) * (i - 2)
    # Particle 0 of every agent sits on the upper wall and keeps pushing into it.
    population.positions[:, 0] = 10.0
    population.velocities[:, 0] = 4.0
    # Kick scale 0 keeps agents 2 and 4 out of collapse recovery until their
    # scale is restored, so their kicks start partway through.
    start_sigma = population.kick_sigma[0]
    population.kick_sigma[2] = population.kick_sigma[4] = 0.0
    reference = copy.deepcopy(population)
    walls = 0
    started = {}

    for round_ in range(40):
        if round_ in (6, 15):
            i = 2 if round_ == 6 else 4
            population.kick_sigma[i] = reference.kick_sigma[i] = start_sigma
        if round_ in (0, 6, 15):
            # Particle 1 dies in every agent whose kick scale is not 0.
            freeze(population, 1)
            freeze(reference, 1)
        coefficients = population.coefficients.tolist()
        actives = [(d, 1.0, c)[(round_ + i) % 3] for i, (d, c) in enumerate(coefficients)]
        population.active[:] = actives
        for swarm in swarms:
            swarm.step_particles()
        assert population.step(record_pull) is None
        assert all(reference_step(reference, i, actives[i], record_pull) for i in range(n))
        assert_same_state(population, reference)
        walls += np.count_nonzero(np.abs(population.positions) == 10.0)
        for i in np.flatnonzero(population.kicking):
            started.setdefault(int(i), round_)
        population.tell(sphere_batch(population.positions))
        reference.tell(sphere_batch(reference.positions))

    # Clamps happened, and every agent kicked: 2 and 4 only once restored.
    assert walls > 0
    assert sorted(started) == list(range(n))
    assert started[2] >= 6 and started[4] >= 15


def test_a_non_finite_row_moves_no_row():
    # The round commits whole or not at all: step names the first row whose
    # new state is not finite, and every row keeps its position.
    population, swarms = make_population(4)
    population.velocities[[1, 3]] = np.nan
    before = population.positions.copy()
    assert step_all(population, swarms, 1.0) == 1
    assert np.array_equal(population.positions, before)


# The step's working buffers: the draw buffer, which step scales in place,
# its views, and the scratch the new state is built in.
WORK_BUFFERS = {"draws", "delta", "pull_pbest", "pull_attractor", "kick", "scratch", "moved", "proposed"}


def one_dead_particle(nan_row=None):
    """Four agents, set up. Row 0's particles sit within 0.03 of its
    attractor, as their own personal bests, so its kick scale would be seeded
    below its start; particle 1 rests on the attractor, so no pull moves it
    and it is dead. Row nan_row's velocities are NaN."""
    population, swarms = make_population(4)
    offsets = np.linspace(-0.01, 0.01, population.positions[0].size).reshape(4, 3)
    population.positions[0] = population.attractors[0] + offsets
    population.positions[0, 1] = population.attractors[0]
    population.best_positions[0] = population.positions[0]
    population.velocities[0, 1] = 0.0
    if nan_row is not None:
        population.velocities[nan_row] = np.nan
    return population, swarms


def test_a_faulting_step_commits_nothing():
    # Row 2's velocities are NaN. Row 0's collapse recovery would start and
    # set its kick scale, and rows 1 and 3, with no dead particle, would step
    # their generators back over the kick draws. A faulting step does none of
    # it: every array but its working buffers, and every generator, is as it
    # was before the call.
    population, swarms = one_dead_particle(nan_row=2)
    population.active[...] = 1.0
    for swarm in swarms:
        swarm.step_particles()
    before = copy.deepcopy(population)
    assert population.step(record_pull=True) == 2
    state = {k for k, v in vars(population).items() if isinstance(v, np.ndarray)} - WORK_BUFFERS
    assert {"positions", "velocities", "kick_sigma", "kicking", "best_seen"} <= state
    for name in sorted(state):
        assert getattr(population, name).tobytes() == getattr(before, name).tobytes(), name
    for rng, old in zip(population.rngs, before.rngs):
        assert rng.bit_generator.state == old.bit_generator.state

    # Without the NaN row the same round commits all three.
    population, swarms = one_dead_particle()
    states = [copy.deepcopy(rng) for rng in population.rngs]
    assert step_all(population, swarms, 1.0) is None
    assert population.kicking.tolist() == [True, False, False, False]
    assert population.kick_sigma[0] < before.kick_sigma[0]
    for i in (1, 3):
        states[i].random(population.draws.shape[1] - population.kick[i].size)
        assert population.rngs[i].bit_generator.state == states[i].bit_generator.state


@pytest.mark.parametrize("sigma, kicked", [(0.0, False), (1e6, True)])
def test_step_draws_the_kick_only_for_dead_particles(sigma, kicked):
    # Held at 0, the kick scale marks no particle dead, so every agent steps
    # its generator back over the kick uniforms; held at 1e6, far above any
    # speed in the box, it marks every particle dead, so every agent keeps
    # them. Either way the streams and states match the per-agent reference,
    # which draws a kick only when it needs one.
    n, p, dim = 4, 5, 3
    population, swarms = make_population(n, p=p, dim=dim, seed=2)
    reference = copy.deepcopy(population)
    main = 2 * p * dim + p
    per_round = main + p * dim if kicked else main
    counters = [copy.deepcopy(rng) for rng in population.rngs]
    for _ in range(12):
        population.kick_sigma[:] = reference.kick_sigma[:] = sigma
        assert step_all(population, swarms, 1.1) is None
        assert all(reference_step(reference, i, 1.1, True) for i in range(n))
        for rng in counters:
            rng.random(per_round)
        assert_same_state(population, reference)
        assert [rng.bit_generator.state for rng in population.rngs] == [
            rng.bit_generator.state for rng in counters
        ]
        assert population.kicking.all() == kicked
        population.tell(sphere_batch(population.positions))
        reference.tell(sphere_batch(reference.positions))


@pytest.mark.parametrize("lower, upper", [([1, 0], [0, 0]), ([0, 0], [1, 0]), ([0, 2], [1, 1])])
def test_box_needs_positive_widths(lower, upper):
    # Unchecked, an inverted width came back as a negative span, and a zero
    # width left no points to draw from.
    with pytest.raises(ContractError, match="positive widths"):
        box_span(lower, upper)


def test_population_needs_pcg64_generators():
    rngs = [np.random.Generator(np.random.MT19937(0))]
    with pytest.raises(ContractError):
        new_population(3, 2, -1.0, 1.0, rngs)
