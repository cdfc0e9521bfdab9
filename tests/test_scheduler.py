import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lacmas.errors import ConfigError
from lacmas.scheduler import (
    ALPHAS,
    RHO_1,
    RHO_2,
    PcgConfig,
    calibrate_horizon,
    gate_ext,
    gate_int,
    stage,
)

REF = PcgConfig(horizon_T=100)


def exact_ext_set(cfg: PcgConfig, t_max: int) -> set[int]:
    """Enumeration oracle in exact rational arithmetic."""
    interval = Fraction(1, 10) * cfg.horizon_T
    out = set()
    m = 1
    while True:
        val = math.ceil(interval * m)
        if val > t_max:
            break
        out.add(val)
        m += 1
    return out


def test_gate_ext_matches_exact_enumeration():
    expected = exact_ext_set(REF, 400)
    assert expected == {10 * k for k in range(1, 41)}
    fired = {t for t in range(401) if gate_ext(t, REF)}
    assert fired == expected


@settings(max_examples=200, deadline=None)
@given(horizon=st.integers(1, 10**6), data=st.data())
def test_gate_ext_matches_exact_enumeration_at_any_horizon(horizon, data):
    cfg = PcgConfig(horizon_T=horizon)
    t_max = 3 * horizon + 50
    expected = exact_ext_set(cfg, t_max)
    # Every grid point and both its neighbours, the first rounds, the rounds
    # around T and a sample of the rest: a full sweep of a large T is too long.
    ts = {u for p in expected for u in (p - 1, p, p + 1)} | set(range(60))
    ts |= {horizon - 1, horizon, horizon + 1}
    ts |= set(data.draw(st.lists(st.integers(0, t_max), max_size=50)))
    assert {t for t in ts if t <= t_max and gate_ext(t, cfg)} == expected & ts


def test_gate_ext_never_fires_at_zero():
    for cfg in (REF, PcgConfig(horizon_T=7)):
        assert not gate_ext(0, cfg)


@pytest.mark.parametrize("horizon", [1, 3, 5, 10])
def test_gate_ext_fires_every_round_for_a_step_of_one_round_or_less(horizon):
    # The grid's step, T / 10, is at most one round.
    cfg = PcgConfig(horizon_T=horizon)
    assert not gate_ext(0, cfg)
    assert all(gate_ext(t, cfg) for t in range(1, 200))


def test_gate_ext_continues_past_horizon():
    assert gate_ext(200, REF)
    assert not gate_ext(15, REF)


def test_gate_int_fires_exactly_twice():
    fired = [t for t in range(300) if gate_int(t, REF)]
    assert fired == [20, 60]


def test_gate_int_deactivated_from_horizon_on():
    # ceil(T / 5) and ceil(3T / 5) are (1, 1) at T = 1 and (1, 2) at T = 2:
    # a point at T never fires.
    for horizon, fired in [(1, []), (2, [1])]:
        cfg = PcgConfig(horizon_T=horizon)
        assert [t for t in range(1000) if gate_int(t, cfg)] == fired


def test_stage_reference_breakpoints():
    assert stage(10, REF) == 1
    assert stage(30, REF) == 2
    assert stage(70, REF) == 3
    assert stage(95, REF) == 4
    assert [t for t in range(1, 500) if stage(t, REF) > stage(t - 1, REF)] == [20, 50, 90]


def test_stage_zero_is_one():
    assert stage(0, REF) == 1


def test_stage_is_nondecreasing():
    values = [stage(t, REF) for t in range(500)]
    assert values == sorted(values)
    assert set(values) == {1, 2, 3, 4}


def test_config_ordering_validated():
    # The ordering PcgConfig used to check on its ratios holds for the
    # constants; the horizon is the one setting left to check.
    assert 0 < RHO_1 < RHO_2 < 1
    assert 0 < ALPHAS[0] < ALPHAS[1] < ALPHAS[2] <= 1
    with pytest.raises(ConfigError):
        PcgConfig(horizon_T=0)


def test_calibrate_log_linear_trace():
    # disagreement(t) = 10^(-t/10) crosses 1e-7 at exactly t = 70.
    trace = [10.0 ** (-t / 10.0) for t in range(40)]
    assert calibrate_horizon(trace, threshold=1e-7, default_T=500) == 70


def test_calibrate_flat_trace_returns_default():
    assert calibrate_horizon([1.0] * 50, threshold=1e-7, default_T=321) == 321


def test_calibrate_growing_trace_returns_default():
    trace = [1.0 + 0.1 * t for t in range(50)]
    assert calibrate_horizon(trace, threshold=1e-7, default_T=200) == 200


def test_calibrate_clamps_to_probe_length():
    # Already below threshold before the probe ends: crossing < len(trace).
    trace = [10.0 ** (-t) for t in range(30)]
    assert calibrate_horizon(trace, threshold=1e-7, default_T=500) == 30


def test_calibrate_short_trace_returns_default():
    assert calibrate_horizon([1.0, 0.5], threshold=1e-7, default_T=77) == 77


def test_calibrate_upper_clamp():
    trace = [10.0 ** (-t / 1e5) for t in range(60)]
    assert calibrate_horizon(trace, threshold=1e-7, default_T=10) == 100


@settings(max_examples=60, deadline=None)
@given(horizon=st.integers(1, 400))
def test_gate_int_properties(horizon):
    cfg = PcgConfig(horizon_T=horizon)
    fired = [t for t in range(3 * horizon) if gate_int(t, cfg)]
    assert len(fired) <= 2
    assert all(t < horizon for t in fired)


@settings(max_examples=60, deadline=None)
@given(horizon=st.integers(2, 300), t=st.integers(0, 1000))
def test_stage_partitions_time(horizon, t):
    cfg = PcgConfig(horizon_T=horizon)
    assert stage(t, cfg) in (1, 2, 3, 4)


def fresh_schedule(horizon: int, t_max: int) -> tuple[list[bool], list[bool], list[int]]:
    """gate_int, gate_ext and stage for t in [0, t_max], from the paper's
    ratios in exact rational arithmetic."""
    grid = exact_ext_set(PcgConfig(horizon_T=horizon), t_max)
    points = (math.ceil(Fraction(1, 5) * horizon), math.ceil(Fraction(3, 5) * horizon))
    breakpoints = [math.ceil(Fraction(a, 10) * horizon) for a in (2, 5, 9)]
    ts = range(t_max + 1)
    internal = [t < horizon and t in points for t in ts]
    external = [t in grid for t in ts]
    stages = [1 + sum(t >= b for b in breakpoints) for t in ts]
    return internal, external, stages


@settings(max_examples=100, deadline=None)
@given(horizon=st.integers(1, 1000))
def test_gates_and_stage_match_a_fresh_recomputation(horizon):
    cfg = PcgConfig(horizon_T=horizon)
    t_max = 3 * horizon
    internal, external, stages = fresh_schedule(horizon, t_max)
    ts = range(t_max + 1)
    assert [gate_int(t, cfg) for t in ts] == internal
    assert [gate_ext(t, cfg) for t in ts] == external
    assert [stage(t, cfg) for t in ts] == stages
