import dataclasses
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lacmas.errors import ConfigError
from lacmas.scheduler import PcgConfig, _ceil, calibrate_horizon, gate_ext, gate_int, stage

REF = PcgConfig(horizon_T=100, rho_ext=0.1, rho_1=0.2, rho_2=0.6, alphas=(0.2, 0.5, 0.9))


def exact_ext_set(cfg: PcgConfig, t_max: int) -> set[int]:
    """Enumeration oracle in exact rational arithmetic."""
    interval = Fraction(cfg.rho_ext).limit_denominator(10**6) * cfg.horizon_T
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


def test_gate_ext_never_fires_at_zero():
    for cfg in (REF, PcgConfig(horizon_T=7, rho_ext=0.03)):
        assert not gate_ext(0, cfg)


@pytest.mark.parametrize("rho_ext", [5e-324, 1e-300, 0.5 / 500, 1 / 500])
def test_gate_ext_fires_every_round_for_a_step_of_one_round_or_less(rho_ext):
    # With a subnormal step, t / interval does not fit a float.
    cfg = PcgConfig(horizon_T=500, rho_ext=rho_ext)
    assert not gate_ext(0, cfg)
    assert all(gate_ext(t, cfg) for t in range(1, 200))


def test_gate_ext_continues_past_horizon():
    assert gate_ext(200, REF)
    assert not gate_ext(15, REF)


def test_gate_int_fires_exactly_twice():
    fired = [t for t in range(300) if gate_int(t, REF)]
    assert fired == [20, 60]


def test_gate_int_deactivated_from_horizon_on():
    cfg = PcgConfig(horizon_T=100, rho_ext=0.1, rho_1=0.2, rho_2=0.99)
    # ceil(0.99 * 100) = 99 fires, but anything at or past T never does.
    assert gate_int(99, cfg)
    for t in range(100, 1000):
        assert not gate_int(t, cfg)


def test_stage_reference_breakpoints():
    assert stage(10, REF) == 1
    assert stage(30, REF) == 2
    assert stage(70, REF) == 3
    assert stage(95, REF) == 4
    assert REF.stage_breakpoints == (20, 50, 90)


def test_stage_zero_is_one():
    assert stage(0, REF) == 1


def test_stage_is_nondecreasing():
    values = [stage(t, REF) for t in range(500)]
    assert values == sorted(values)
    assert set(values) == {1, 2, 3, 4}


def test_config_ordering_validated():
    with pytest.raises(ConfigError):
        PcgConfig(rho_1=0.6, rho_2=0.2)
    with pytest.raises(ConfigError):
        PcgConfig(alphas=(0.5, 0.2, 0.9))
    with pytest.raises(ConfigError):
        PcgConfig(rho_ext=0.0)
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
@given(
    horizon=st.integers(2, 400),
    rho_ext=st.floats(0.01, 1.5),
    rho_pair=st.tuples(st.floats(0.01, 0.98), st.floats(0.01, 0.98)).filter(
        lambda p: p[0] < p[1]
    ),
)
def test_gate_int_properties(horizon, rho_ext, rho_pair):
    cfg = PcgConfig(horizon_T=horizon, rho_ext=rho_ext, rho_1=rho_pair[0], rho_2=rho_pair[1])
    fired = [t for t in range(3 * horizon) if gate_int(t, cfg)]
    assert len(fired) <= 2
    assert all(t < horizon for t in fired)


@settings(max_examples=60, deadline=None)
@given(horizon=st.integers(2, 300), t=st.integers(0, 1000))
def test_stage_partitions_time(horizon, t):
    cfg = PcgConfig(horizon_T=horizon)
    assert stage(t, cfg) in (1, 2, 3, 4)


@st.composite
def pcg_configs(draw):
    ratio = st.floats(0.01, 0.99)
    rho_1, rho_2 = sorted(draw(st.lists(ratio, min_size=2, max_size=2, unique=True)))
    alphas = sorted(draw(st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3, unique=True)))
    return PcgConfig(
        horizon_T=draw(st.integers(1, 300)),
        rho_ext=draw(st.floats(0.01, 1.5)),
        rho_1=rho_1,
        rho_2=rho_2,
        alphas=tuple(alphas),
    )


def fresh_schedule(cfg: PcgConfig, t_max: int) -> tuple[list[bool], list[bool], list[int]]:
    """gate_int, gate_ext and stage for t in [0, t_max], every ceiling
    recomputed from the config's fields, nothing cached."""
    horizon = cfg.horizon_T
    interval = cfg.rho_ext * horizon
    grid, m = set(), 1
    while (point := _ceil(m * interval)) <= t_max:
        grid.add(point)
        m += 1
    ts = range(t_max + 1)
    internal = [
        t < horizon and t in (_ceil(cfg.rho_1 * horizon), _ceil(cfg.rho_2 * horizon)) for t in ts
    ]
    external = [t >= 1 and t in grid for t in ts]
    stages = [1 + sum(t >= _ceil(a * horizon) for a in cfg.alphas) for t in ts]
    return internal, external, stages


@settings(max_examples=100, deadline=None)
@given(pcg_configs())
def test_gates_and_stage_match_a_fresh_recomputation(cfg):
    t_max = 3 * cfg.horizon_T
    internal, external, stages = fresh_schedule(cfg, t_max)
    ts = range(t_max + 1)
    assert [gate_int(t, cfg) for t in ts] == internal
    assert [gate_ext(t, cfg) for t in ts] == external
    assert [stage(t, cfg) for t in ts] == stages


@pytest.mark.parametrize(
    "horizon, rho_ext",
    [
        # Decimal ratios whose products land on or near integers.
        (100, 0.1), (100, 0.3), (70, 0.7), (37, 0.13), (500, 0.35), (3, 1.1),
        # Steps of one round or less: every round from 1 on.
        (100, 0.01), (100, 0.007), (1, 0.5), (3, 0.3333333333333333),
    ],
)
def test_gate_ext_matches_a_fresh_grid(horizon, rho_ext):
    cfg = PcgConfig(horizon_T=horizon, rho_ext=rho_ext)
    t_max = 4 * horizon + 50
    _, external, _ = fresh_schedule(cfg, t_max)
    # Queried backwards first, so the grid is built by the largest query and
    # then read; a fresh instance then builds it round by round, as a run does.
    backwards = [gate_ext(t, cfg) for t in reversed(range(t_max + 1))]
    assert backwards[::-1] == external
    fresh = PcgConfig(horizon_T=horizon, rho_ext=rho_ext)
    assert [gate_ext(t, fresh) for t in range(t_max + 1)] == external


@settings(max_examples=60, deadline=None)
@given(pcg_configs(), st.integers(1, 300))
def test_cached_ceilings_stay_with_their_instance(cfg, horizon):
    twin = dataclasses.replace(cfg)
    before = (hash(cfg), cfg == twin)
    # Reading the ceilings caches them on cfg alone.
    cached = (cfg.int_refresh_points, cfg.stage_breakpoints)
    assert (hash(cfg), cfg == twin) == before == (hash(twin), True)
    moved = dataclasses.replace(cfg, horizon_T=horizon)
    assert moved.int_refresh_points == (_ceil(cfg.rho_1 * horizon), _ceil(cfg.rho_2 * horizon))
    assert moved.stage_breakpoints == tuple(_ceil(a * horizon) for a in cfg.alphas)
    assert (cfg.int_refresh_points, cfg.stage_breakpoints) == cached
