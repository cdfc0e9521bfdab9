import numpy as np
import pytest

from lacmas import wsn
from lacmas.errors import ConfigError, ContractError
from lacmas.wsn import WsnObjectiveSet, WsnScenario, gen_measurements, gen_scenario, system_error


def manual_scenario(sensor, target):
    return WsnScenario(
        sensor_positions=np.asarray(sensor, dtype=float),
        true_targets=np.asarray(target, dtype=float),
    )


def test_rss_at_reference_distance_is_p0():
    # D0 = 1 and P0 = -40.
    scn = manual_scenario([[0.0, 0.0, 0.0]], [[1.0, 0.0, 0.0]])
    phi = gen_measurements(scn, seed=0)
    assert phi[0, 0] == pytest.approx(-40.0)


def test_rss_at_ten_reference_distances():
    # 10 * n_p * log10(10) = 30 below the reference level for n_p = 3.
    scn = manual_scenario([[0.0, 0.0, 0.0]], [[10.0, 0.0, 0.0]])
    phi = gen_measurements(scn, seed=0)
    assert phi[0, 0] == pytest.approx(-70.0)


def test_measurements_deterministic_per_seed():
    scn = gen_scenario(num_sensors=5, num_targets=2, seed=4, noise_sigma=1.0)
    a = gen_measurements(scn, seed=9)
    b = gen_measurements(scn, seed=9)
    assert np.array_equal(a, b)
    c = gen_measurements(scn, seed=10)
    assert not np.array_equal(a, c)


def test_noiseless_measurements_have_no_noise():
    scn = gen_scenario(num_sensors=4, num_targets=1, seed=2, noise_sigma=0.0)
    assert np.array_equal(gen_measurements(scn, 1), gen_measurements(scn, 2))


def test_local_objective_zero_at_truth_for_every_sensor():
    scn = gen_scenario(num_sensors=6, num_targets=2, seed=7, noise_sigma=0.0)
    obj = WsnObjectiveSet(scenario=scn, phi=gen_measurements(scn, seed=7))
    truth = scn.true_targets.ravel()
    for i in range(6):
        assert obj.eval_local_batch(i, truth[None])[0] == pytest.approx(0.0, abs=1e-18)


def test_local_objective_nonnegative():
    scn = gen_scenario(num_sensors=4, num_targets=1, seed=3, noise_sigma=0.5)
    obj = WsnObjectiveSet(scenario=scn, phi=gen_measurements(scn, seed=3))
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.uniform(0, 50, size=3)
        assert obj.eval_local_batch(0, x[None])[0] >= 0.0


def test_single_sensor_residual_squared():
    # Truth at distance D0 gives phi = P0; a candidate at distance 10*D0
    # predicts P0 - 30, so the squared residual is 900.
    scn = manual_scenario([[0.0, 0.0, 0.0]], [[1.0, 0.0, 0.0]])
    obj = WsnObjectiveSet(scenario=scn, phi=gen_measurements(scn, seed=0))
    candidate = np.array([10.0, 0.0, 0.0])
    assert obj.eval_local_batch(0, candidate[None])[0] == pytest.approx(900.0)


def test_system_error_zero_at_truth():
    scn = gen_scenario(num_sensors=5, num_targets=1, seed=6, noise_sigma=0.0)
    phi = gen_measurements(scn, seed=6)
    states = np.tile(scn.true_targets.ravel(), (5, 1))
    assert system_error(scn, phi, states) == pytest.approx(0.0, abs=1e-18)


def test_system_error_of_identical_states_is_global_value():
    scn = gen_scenario(num_sensors=5, num_targets=1, seed=6, noise_sigma=0.0)
    phi = gen_measurements(scn, seed=6)
    x = np.array([10.0, 20.0, 5.0])
    states = np.tile(x, (5, 1))
    obj = WsnObjectiveSet(scenario=scn, phi=phi)
    assert system_error(scn, phi, states) == pytest.approx(obj.eval_global(x))


@pytest.mark.parametrize("targets", [1, 3])
def test_global_objective_is_mean_of_locals(targets):
    # eval_global evaluates all sensors at once; the per-sensor loop is
    # the reference and the arithmetic is the same, so the match is exact.
    scn = gen_scenario(num_sensors=6, num_targets=targets, seed=2, noise_sigma=0.5)
    phi = gen_measurements(scn, seed=2)
    obj = WsnObjectiveSet(scenario=scn, phi=phi)
    rng = np.random.default_rng(8)
    for _ in range(5):
        x = rng.uniform(0.0, 50.0, size=scn.dim)
        mean = float(np.mean([obj.eval_local_batch(i, x[None])[0] for i in range(6)]))
        assert obj.eval_global(x) == mean


def test_system_error_permutation_invariant():
    scn = gen_scenario(num_sensors=4, num_targets=1, seed=1, noise_sigma=0.0)
    phi = gen_measurements(scn, seed=1)
    rng = np.random.default_rng(5)
    states = rng.uniform(5, 45, size=(4, 3))
    base = system_error(scn, phi, states)
    assert system_error(scn, phi, states[::-1]) == pytest.approx(base)


def test_scenario_respects_min_distance():
    scn = gen_scenario(num_sensors=10, num_targets=3, seed=0)
    dists = np.linalg.norm(
        scn.true_targets[None, :, :] - scn.sensor_positions[:, None, :], axis=2
    )
    assert dists.min() > wsn.D0 / 100.0


def test_degenerate_geometry_rejected(monkeypatch):
    # A reference distance far larger than the area makes separation impossible.
    monkeypatch.setattr(wsn, "D0", 1e5)
    with pytest.raises(ConfigError):
        gen_scenario(num_sensors=4, num_targets=1, seed=0)


def test_decision_vector_length_checked():
    scn = gen_scenario(num_sensors=3, num_targets=2, seed=0)
    obj = WsnObjectiveSet(scenario=scn, phi=gen_measurements(scn, seed=0))
    with pytest.raises(ContractError):
        obj.eval_local_batch(0, np.zeros(3)[None])


def test_objective_set_adapter_shapes():
    scn = gen_scenario(num_sensors=6, num_targets=2, seed=8)
    phi = gen_measurements(scn, seed=8)
    obj = WsnObjectiveSet(scenario=scn, phi=phi)
    assert obj.num_agents == 6
    assert obj.dim == 6
    assert obj.lower.shape == (6,)
    values = obj.eval_local_batch(0, np.tile(scn.true_targets.ravel(), (3, 1)))
    assert np.allclose(values, 0.0)
    assert obj.eval_global(scn.true_targets.ravel()) == pytest.approx(0.0, abs=1e-18)


@pytest.mark.parametrize("targets", [1, 2, 3])
@pytest.mark.parametrize("m", [1, 10])
def test_eval_all_matches_local_batches_exactly(targets, m):
    scn = gen_scenario(num_sensors=8, num_targets=targets, seed=4)
    obj = WsnObjectiveSet(scenario=scn, phi=gen_measurements(scn, seed=4))
    rng = np.random.default_rng(targets)
    xs = rng.uniform(obj.lower, obj.upper, size=(8, m, obj.dim))
    values = obj.eval_all(xs)
    assert values.shape == (8, m)
    for i in range(8):
        assert np.array_equal(values[i], obj.eval_local_batch(i, xs[i])), i


@pytest.mark.parametrize("shape", [(8, 2, 3), (7, 2, 6), (8, 6)])
def test_eval_all_rejects_wrong_shape(shape):
    scn = gen_scenario(num_sensors=8, num_targets=2, seed=4)
    obj = WsnObjectiveSet(scenario=scn, phi=gen_measurements(scn, seed=4))
    with pytest.raises(ContractError):
        obj.eval_all(np.zeros(shape))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_point_rejected(bad):
    # Unchecked, a NaN point scored NaN and an inf point inf, silently.
    scn = gen_scenario(num_sensors=4, num_targets=2, seed=2)
    obj = WsnObjectiveSet(scenario=scn, phi=gen_measurements(scn, seed=2))
    with pytest.raises(ContractError, match="non-finite"):
        obj.eval_local_batch(0, np.full((1, obj.dim), bad))
    xs = np.full((4, 2, obj.dim), 10.0)
    xs[3, 1, 5] = bad
    with pytest.raises(ContractError, match="non-finite"):
        obj.eval_all(xs)
    with pytest.raises(ContractError, match="non-finite"):
        obj.eval_global(np.full(obj.dim, bad))


@pytest.mark.parametrize("sensor", [-1, 4])
def test_sensor_index_out_of_range_rejected(sensor):
    scn = gen_scenario(num_sensors=4, num_targets=1, seed=0)
    obj = WsnObjectiveSet(scenario=scn, phi=gen_measurements(scn, seed=0))
    with pytest.raises(ContractError, match="out of range"):
        obj.eval_local_batch(sensor, np.full((1, 3), 10.0))


@pytest.mark.parametrize("shape", [(3, 3), (4, 6), (4,), (1, 4, 3)])
def test_system_error_rejects_wrongly_shaped_states(shape):
    scn = gen_scenario(num_sensors=4, num_targets=1, seed=0)
    with pytest.raises(ContractError, match="agent states"):
        system_error(scn, gen_measurements(scn, seed=0), np.full(shape, 10.0))


def test_eval_global_rejects_a_batch():
    scn = gen_scenario(num_sensors=4, num_targets=1, seed=0)
    obj = WsnObjectiveSet(scenario=scn, phi=gen_measurements(scn, seed=0))
    with pytest.raises(ContractError, match=r"expected one \(3,\) point, got \(2, 3\)"):
        obj.eval_global(np.full((2, 3), 10.0))


def test_eval_global_rejects_a_wrong_length_point():
    # Checked only by ndim, a (5,) point failed deep in eval_all with a
    # batch-shape message; BenchmarkSpec.eval_global's message names it.
    scn = gen_scenario(num_sensors=4, num_targets=1, seed=0)
    obj = WsnObjectiveSet(scenario=scn, phi=gen_measurements(scn, seed=0))
    with pytest.raises(ContractError, match=r"expected one \(3,\) point, got \(5,\)"):
        obj.eval_global(np.full(5, 10.0))
