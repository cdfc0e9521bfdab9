import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lacmas.errors import ContractError
from lacmas.objectives import FAMILIES, make_spec


def finite_difference_gradient(f, x, h=1e-5):
    """Central-difference oracle, independent of any analytic structure."""
    g = np.zeros_like(x)
    for j in range(len(x)):
        e = np.zeros_like(x)
        e[j] = h
        g[j] = (f(x + e) - f(x - e)) / (2 * h)
    return g


def test_sphere_zero_at_origin():
    spec = make_spec("sphere", num_agents=3, dim=5, hetero_sigma=0.0, seed=0)
    assert spec.eval_local_batch(0, np.zeros(5)[None])[0] == 0.0


def test_sphere_sum_of_ones_equals_dim():
    spec = make_spec("sphere", num_agents=3, dim=7, hetero_sigma=0.0, seed=0)
    assert spec.eval_local_batch(1, np.ones(7)[None])[0] == pytest.approx(7.0)


def test_rastrigin_zero_at_shift():
    spec = make_spec("rastrigin", num_agents=4, dim=6, hetero_sigma=2.0, seed=5)
    for i in range(4):
        assert spec.eval_local_batch(i, spec.shifts[i][None])[0] == pytest.approx(0.0, abs=1e-9)


def test_global_equals_local_in_homogeneous_mode():
    spec = make_spec("ackley", num_agents=5, dim=4, hetero_sigma=0.0, seed=2)
    x = np.array([1.0, -2.0, 0.5, 3.0])
    assert spec.eval_global(x) == pytest.approx(spec.eval_local_batch(0, x[None])[0], rel=1e-12)


def test_two_agent_sphere_midpoint_value():
    # Agents shifted to +e1 and -e1; the average objective at 0 is (1+1)/2.
    spec = make_spec("sphere", num_agents=2, dim=3, hetero_sigma=0.0, seed=0)
    shifts = np.zeros((2, 3))
    shifts[0, 0] = 1.0
    shifts[1, 0] = -1.0
    spec = type(spec)(
        family="sphere",
        dim=3,
        num_agents=2,
        shifts=shifts,
    )
    assert spec.eval_global(np.zeros(3)) == pytest.approx(1.0)


def test_sphere_global_minimizer_is_mean_shift():
    spec = make_spec("sphere", num_agents=6, dim=4, hetero_sigma=5.0, seed=9)
    mean_shift = spec.shifts.mean(axis=0)
    grad = finite_difference_gradient(spec.eval_global, mean_shift)
    assert np.linalg.norm(grad) <= 1e-6


def test_global_is_mean_of_locals():
    # eval_global evaluates all agents at once; the per-agent loop is the
    # reference and the arithmetic is the same, so the match is exact.
    rng = np.random.default_rng(0)
    for family in FAMILIES:
        spec = make_spec(family, num_agents=7, dim=5, hetero_sigma=3.0, seed=4)
        for _ in range(5):
            x = rng.uniform(-50, 50, size=5)
            mean = float(np.mean([spec.eval_local_batch(i, x[None])[0] for i in range(7)]))
            assert spec.eval_global(x) == mean, family


@pytest.mark.parametrize("bound", [0.0, -5.0, float("nan")])
def test_non_positive_bound_rejected(bound):
    # A bound of 0 leaves the box no width, where a run "converged" at round
    # 0, and a negative one failed only as a shift outside the box.
    with pytest.raises(ContractError, match="bound must be positive"):
        make_spec("sphere", num_agents=4, dim=2, hetero_sigma=0.0, seed=0, bound=bound)


def test_global_rejects_bad_point():
    spec = make_spec("sphere", num_agents=3, dim=4, hetero_sigma=0.0, seed=0)
    with pytest.raises(ContractError):
        spec.eval_global(np.zeros(3))
    with pytest.raises(ContractError):
        spec.eval_global(np.full(4, np.nan))


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("hetero_sigma", [0.0, 3.0])
@pytest.mark.parametrize("m", [1, 10])
def test_eval_all_matches_local_batches_exactly(family, hetero_sigma, m):
    # Row block i of eval_all is agent i's batch; the per-agent call is the
    # reference and the arithmetic is the same, so the match is bit for bit.
    spec = make_spec(family, num_agents=6, dim=10, hetero_sigma=hetero_sigma, seed=2)
    xs = np.random.default_rng(5).uniform(-100, 100, size=(6, m, 10))
    values = spec.eval_all(xs)
    assert values.shape == (6, m)
    for i in range(6):
        assert np.array_equal(values[i], spec.eval_local_batch(i, xs[i])), i


@pytest.mark.parametrize(
    "shape", [(3, 2, 5), (2, 2, 4), (4, 2, 4), (3, 4), (3, 1, 2, 4)]
)
def test_eval_all_rejects_wrong_shape(shape):
    spec = make_spec("sphere", num_agents=3, dim=4, hetero_sigma=0.0, seed=0)
    with pytest.raises(ContractError):
        spec.eval_all(np.zeros(shape))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_eval_all_rejects_non_finite_point(bad):
    spec = make_spec("rotated_elliptic", num_agents=3, dim=4, hetero_sigma=1.0, seed=0)
    xs = np.zeros((3, 2, 4))
    xs[2, 1, 3] = bad
    with pytest.raises(ContractError):
        spec.eval_all(xs)


def test_suite_has_ten_specs_with_requested_shape():
    suite = [make_spec(fam, num_agents=20, dim=100, hetero_sigma=5.0, seed=1) for fam in FAMILIES]
    assert len(suite) == 10
    assert [s.family for s in suite] == list(FAMILIES)
    assert all(s.num_agents == 20 and s.dim == 100 for s in suite)


def test_zero_hetero_sigma_gives_homogeneous_specs():
    suite = [make_spec(fam, num_agents=5, dim=8, hetero_sigma=0.0, seed=3) for fam in FAMILIES]
    assert all(np.all(s.shifts == s.shifts[0]) for s in suite)


def test_suite_generation_is_deterministic():
    a = [make_spec(fam, num_agents=5, dim=8, hetero_sigma=4.0, seed=17) for fam in FAMILIES]
    b = [make_spec(fam, num_agents=5, dim=8, hetero_sigma=4.0, seed=17) for fam in FAMILIES]
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.shifts, sb.shifts)


def test_dimension_mismatch_rejected():
    spec = make_spec("sphere", num_agents=2, dim=4, hetero_sigma=0.0, seed=0)
    with pytest.raises(ContractError):
        spec.eval_local_batch(0, np.zeros(5)[None])


def test_nan_input_rejected():
    spec = make_spec("sphere", num_agents=2, dim=4, hetero_sigma=0.0, seed=0)
    with pytest.raises(ContractError):
        spec.eval_local_batch(0, np.array([0.0, np.nan, 0.0, 0.0])[None])


@pytest.mark.parametrize("family", FAMILIES)
def test_base_function_zero_at_origin_and_nonnegative(family):
    spec = make_spec(family, num_agents=2, dim=6, hetero_sigma=0.0, seed=8)
    at_shift = spec.eval_local_batch(0, spec.shifts[0][None])[0]
    assert at_shift == pytest.approx(0.0, abs=1e-9)
    rng = np.random.default_rng(123)
    for _ in range(50):
        x = rng.uniform(-100, 100, size=6)
        assert spec.eval_local_batch(0, x[None])[0] >= 0.0


@settings(max_examples=30, deadline=None)
@given(
    family=st.sampled_from(FAMILIES),
    dim=st.integers(1, 12),
    x=st.lists(st.floats(-90, 90), min_size=1, max_size=12),
)
def test_local_evaluation_is_finite_and_pure(family, dim, x):
    spec = make_spec(family, num_agents=3, dim=dim, hetero_sigma=2.0, seed=6)
    x = np.resize(np.asarray(x, dtype=float), dim)
    first = spec.eval_local_batch(1, x[None])[0]
    second = spec.eval_local_batch(1, x[None])[0]
    assert np.isfinite(first)
    assert first == second
