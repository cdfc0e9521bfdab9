import numpy as np
import pytest

from lacmas.errors import ContractError
from lacmas.swarm import AgentSwarm, SwarmParams


def make_swarm(positions, rng_seed=0, params=None, lower=-100.0, upper=100.0):
    positions = np.asarray(positions, dtype=float)
    p, dim = positions.shape
    params = params or SwarmParams(population=p)
    swarm = AgentSwarm(
        agent_id=0,
        dim=dim,
        lower=np.full(dim, lower),
        upper=np.full(dim, upper),
        params=params,
        rng=np.random.default_rng(rng_seed),
    )
    swarm.positions = positions.copy()
    swarm.velocities = np.zeros_like(positions)
    evaluate_initial(swarm)
    return swarm


def sphere_batch(xs):
    return np.sum(xs * xs, axis=1)


def evaluate_initial(swarm):
    swarm.evaluate_initial(sphere_batch(swarm.positions))


def step(swarm, active_coeff):
    """One ask/tell round on the sphere: propose, evaluate, take the values."""
    swarm.tell(sphere_batch(swarm.step_particles(active_coeff)))


def inject(swarm, fused):
    swarm.inject_fused_state(fused, sphere_batch(fused[None, :])[0])


def quiet_params(p):
    """No attraction, no kicks: isolates the modulated-velocity term."""
    return SwarmParams(
        population=p, pull_pbest=0.0, pull_attractor=0.0, kick_velocity_eps=0.0
    )


def test_centroid_of_identical_particles():
    swarm = make_swarm([[3.0, -1.0]] * 4)
    assert np.allclose(swarm.centroid(), [3.0, -1.0])


def test_centroid_symmetric_pair():
    swarm = make_swarm([[0.0, 0.0], [2.0, 2.0]])
    assert np.allclose(swarm.centroid(), [1.0, 1.0])


def test_centroid_three_particles():
    swarm = make_swarm([[0.0, 0.0], [2.0, 0.0], [1.0, 3.0]])
    assert np.allclose(swarm.centroid(), [1.0, 1.0])


def test_divergence_zero_for_identical_positions():
    swarm = make_swarm([[5.0, 5.0]] * 3)
    assert swarm.divergence() == 0.0


def test_divergence_one_dimensional_pair():
    swarm = make_swarm([[-1.0], [1.0]])
    assert swarm.divergence() == pytest.approx(1.0)


def test_divergence_three_particles_exact():
    # Centroid (1,1); squared distances 2, 2, 4; mean 8/3.
    swarm = make_swarm([[0.0, 0.0], [2.0, 0.0], [1.0, 3.0]])
    assert swarm.divergence() == pytest.approx(8.0 / 3.0)


def test_divergence_nonnegative_random():
    rng = np.random.default_rng(3)
    swarm = make_swarm(rng.uniform(-50, 50, size=(8, 4)))
    assert swarm.divergence() >= 0.0


@pytest.mark.parametrize(
    "div,expected",
    [(0.5, "w2"), (1.0, "w0"), (2.5, "w0"), (4.0, "w0"), (10.0, "w1")],
)
def test_select_coefficient_regimes(div, expected):
    params = SwarmParams(population=2, d1=1.0, d2=4.0)
    swarm = make_swarm([[0.0], [1.0]], params=params)
    swarm.set_coefficients(0.6, 1.0, 1.5)
    value = swarm.select_coefficient(div)
    assert value == {"w1": 0.6, "w0": 1.0, "w2": 1.5}[expected]


def test_step_with_zero_coefficients_freezes_positions():
    params = quiet_params(3)
    swarm = make_swarm([[1.0, 2.0], [3.0, 4.0], [-5.0, 0.5]], params=params)
    swarm.velocities = np.ones((3, 2))
    before = swarm.positions.copy()
    step(swarm, 0.0)
    assert np.array_equal(swarm.positions, before)
    assert np.all(swarm.velocities == 0.0)


def test_degenerate_modulation_is_identity():
    params = SwarmParams(
        population=2,
        pull_pbest=0.0,
        pull_attractor=0.0,
        modulation_low=1.0,
        modulation_high=1.0,
        kick_velocity_eps=0.0,
    )
    swarm = make_swarm([[1.0, 1.0], [2.0, -2.0]], params=params)
    swarm.velocities = np.array([[0.5, -0.5], [1.0, 0.25]])
    before_v = swarm.velocities.copy()
    before_x = swarm.positions.copy()
    step(swarm, 1.0)
    assert np.allclose(swarm.velocities, before_v)
    assert np.allclose(swarm.positions, before_x + before_v)


def test_step_is_deterministic_for_fixed_seed():
    def run_once():
        swarm = AgentSwarm(
            agent_id=0,
            dim=4,
            lower=np.full(4, -10.0),
            upper=np.full(4, 10.0),
            params=SwarmParams(population=6),
            rng=np.random.default_rng(99),
        )
        evaluate_initial(swarm)
        for _ in range(20):
            step(swarm, 1.1)
        return swarm.positions.copy(), swarm.best_values.copy()

    p1, b1 = run_once()
    p2, b2 = run_once()
    assert np.array_equal(p1, p2)
    assert np.array_equal(b1, b2)


def test_representative_single_particle():
    swarm = make_swarm([[4.0, 2.0]])
    assert np.allclose(swarm.representative_state(), [4.0, 2.0])


def test_representative_picks_lowest_latest_value():
    swarm = make_swarm([[1.0], [2.0]])
    swarm.last_values = np.array([5.0, 3.0])
    assert np.allclose(swarm.representative_state(), [2.0])


def test_representative_tie_breaks_to_lower_index():
    swarm = make_swarm([[1.0], [2.0]])
    swarm.last_values = np.array([3.0, 3.0])
    assert np.allclose(swarm.representative_state(), [1.0])


def test_representative_requires_evaluation():
    swarm = AgentSwarm(
        agent_id=0,
        dim=2,
        lower=np.full(2, -1.0),
        upper=np.full(2, 1.0),
        params=SwarmParams(population=2),
        rng=np.random.default_rng(0),
    )
    with pytest.raises(ContractError):
        swarm.representative_state()


def test_inject_sets_attractor_and_replaces_worst():
    swarm = make_swarm([[1.0, 0.0], [5.0, 5.0]])
    fused = np.array([0.5, 0.5])
    inject(swarm, fused)
    assert np.array_equal(swarm.local_attractor, fused)
    assert np.array_equal(swarm.positions[1], fused)
    assert np.all(swarm.velocities[1] == 0.0)
    assert swarm.best_values[1] == pytest.approx(sphere_batch(fused[None, :])[0])


def test_inject_onto_best_duplicates_it():
    swarm = make_swarm([[1.0, 0.0], [5.0, 5.0]])
    best = swarm.positions[0].copy()
    inject(swarm, best)
    assert np.array_equal(swarm.positions[1], best)


def test_inject_dimension_mismatch_rejected():
    swarm = make_swarm([[1.0, 0.0]])
    with pytest.raises(ContractError):
        inject(swarm, np.zeros(3))


def test_positions_stay_in_bounds():
    params = SwarmParams(population=5)
    swarm = AgentSwarm(
        agent_id=0,
        dim=3,
        lower=np.full(3, -2.0),
        upper=np.full(3, 2.0),
        params=params,
        rng=np.random.default_rng(7),
    )
    evaluate_initial(swarm)
    for _ in range(200):
        step(swarm, 1.5)
        assert np.all(swarm.positions >= -2.0)
        assert np.all(swarm.positions <= 2.0)


def test_reported_best_is_monotone():
    swarm = AgentSwarm(
        agent_id=0,
        dim=4,
        lower=np.full(4, -50.0),
        upper=np.full(4, 50.0),
        params=SwarmParams(population=8),
        rng=np.random.default_rng(21),
    )
    evaluate_initial(swarm)
    best = swarm.best_value()
    for _ in range(300):
        step(swarm, 1.0)
        now = swarm.best_value()
        assert now <= best
        best = now


def test_rebase_keeps_reported_best_monotone():
    swarm = AgentSwarm(
        agent_id=0,
        dim=3,
        lower=np.full(3, -10.0),
        upper=np.full(3, 10.0),
        params=SwarmParams(population=5),
        rng=np.random.default_rng(2),
    )
    evaluate_initial(swarm)
    for _ in range(50):
        step(swarm, 1.0)
    before = swarm.best_value()
    swarm.rebase_records()
    assert swarm.best_value() <= before
    assert np.array_equal(swarm.best_positions, swarm.positions)


def test_velocity_contracts_without_attraction():
    # With a sub-unit coefficient and no pulls, the modulated velocity should
    # trend downward in magnitude over many steps.
    params = quiet_params(10)
    swarm = AgentSwarm(
        agent_id=0,
        dim=5,
        lower=np.full(5, -1e9),
        upper=np.full(5, 1e9),
        params=params,
        rng=np.random.default_rng(5),
    )
    evaluate_initial(swarm)
    swarm.velocities = np.random.default_rng(6).uniform(-1, 1, size=(10, 5))
    norms = []
    for _ in range(1000):
        step(swarm, 0.9)
        norms.append(float(np.mean(np.linalg.norm(swarm.velocities, axis=1))))
    first = np.mean(norms[:100])
    last = np.mean(norms[-100:])
    assert last < first


def test_divergence_zero_iff_positions_equal():
    swarm = make_swarm([[1.0, 2.0], [1.0, 2.0], [1.0, 2.0]])
    assert swarm.divergence() == 0.0
    swarm.positions[0, 0] += 1e-3
    assert swarm.divergence() > 0.0


def test_step_proposes_and_tell_takes_the_values():
    swarm = make_swarm([[1.0, 1.0], [4.0, -2.0], [-3.0, 0.5]])
    swarm.velocities = np.array([[-1.0, -1.0], [10.0, 0.0], [0.0, 0.0]])
    best_before = swarm.best_values.copy()
    proposed = swarm.step_particles(1.0)
    assert np.array_equal(proposed, swarm.positions)
    values = sphere_batch(proposed)
    swarm.tell(values)
    assert np.array_equal(swarm.last_values, values)
    assert np.array_equal(swarm.best_values, np.minimum(best_before, values))
    improved = values < best_before
    assert np.array_equal(swarm.best_positions[improved], proposed[improved])
