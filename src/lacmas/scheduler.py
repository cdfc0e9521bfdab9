"""Phased guidance scheduling.

Two binary gates decide when guidance refreshes happen, both anchored to a
characteristic horizon T estimated by a short pre-run probe:

  - the cooperation gate fires on the recurring grid {ceil(m * rho_ext * T)},
    m >= 1, and keeps firing past T;
  - the internal-action gate fires at exactly two points, ceil(rho1 * T) and
    ceil(rho2 * T), and is deactivated from T onwards.

The stage index is a reporting-only summary of how refresh emphasis shifts
over the run; the gates are the sole behavioral triggers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .errors import ConfigError

# Snap tolerance for ceilings of ratio*T products, so grids specified with
# decimal ratios (0.1 * 100, ...) land on the intended integers.
_CEIL_EPS = 1e-9


def _ceil(value: float) -> int:
    return math.ceil(value - _CEIL_EPS * max(1.0, abs(value)))


class _Grid:
    """The points ceil(m * step), m >= 1, of a step above one round. They are
    computed in order as far as a query needs and kept, so a run asks each
    ceiling once; the points never decrease, so a point at or past t decides
    whether t is one of them. Extending is not thread-safe: query it from one
    thread, as the round loop does."""

    __slots__ = ("step", "points", "m", "last")

    def __init__(self, step: float):
        self.step, self.points, self.m, self.last = step, set(), 0, 0

    def __contains__(self, t: int) -> bool:
        while self.last < t:
            self.m += 1
            self.last = _ceil(self.m * self.step)
            self.points.add(self.last)
        return t in self.points


@dataclass(frozen=True)
class PcgConfig:
    horizon_T: int = 500
    rho_ext: float = 0.1
    rho_1: float = 0.2
    rho_2: float = 0.6
    alphas: tuple[float, float, float] = (0.2, 0.5, 0.9)

    def __post_init__(self):
        if self.horizon_T < 1:
            raise ConfigError("horizon_T must be a positive integer")
        # The cooperation grid is ceil(m * rho_ext * T): its step must be a
        # finite positive number.
        if not 0 < self.rho_ext * self.horizon_T < math.inf:
            raise ConfigError("rho_ext must be positive, with rho_ext * horizon_T finite")
        if not 0 < self.rho_1 < self.rho_2 < 1:
            raise ConfigError("need 0 < rho_1 < rho_2 < 1")
        a1, a2, a3 = self.alphas
        if not 0 < a1 < a2 < a3 <= 1:
            raise ConfigError("need 0 < alpha_1 < alpha_2 < alpha_3 <= 1")

    # Read by the gates and stage every round; the config is frozen, so each
    # ceiling is computed once per instance.
    @cached_property
    def int_refresh_points(self) -> tuple[int, int]:
        return (_ceil(self.rho_1 * self.horizon_T), _ceil(self.rho_2 * self.horizon_T))

    @cached_property
    def stage_breakpoints(self) -> tuple[int, int, int]:
        return tuple(_ceil(a * self.horizon_T) for a in self.alphas)

    @cached_property
    def ext_grid(self) -> _Grid | None:
        """The cooperation grid, None when its step is at most one round: then
        every round from 1 on is on it (and for a tiny step, enumerating it
        would never reach the round asked)."""
        interval = self.rho_ext * self.horizon_T
        return None if interval <= 1 else _Grid(interval)


def gate_ext(t: int, cfg: PcgConfig) -> bool:
    """True iff t lies on the cooperation-refresh grid {ceil(m*rho_ext*T)}, m >= 1."""
    if t < 1:
        return False
    grid = cfg.ext_grid
    return grid is None or t in grid


def gate_int(t: int, cfg: PcgConfig) -> bool:
    """True at the two internal refresh points, and never at or after T."""
    if t >= cfg.horizon_T:
        return False
    return t in cfg.int_refresh_points


def stage(t: int, cfg: PcgConfig) -> int:
    """Stage index in {1, 2, 3, 4}; diagnostics only."""
    if t < 0:
        raise ConfigError("t must be nonnegative")
    t1, t2, t3 = cfg.stage_breakpoints
    if t < t1:
        return 1
    if t < t2:
        return 2
    if t < t3:
        return 3
    return 4


def calibrate_horizon(
    probe_trace: list[float],
    threshold: float = 1e-7,
    default_T: int = 500,
) -> int:
    """Estimate the optimization horizon from a probe run's disagreement trace.

    Fits log(disagreement) linearly over the second half of the probe and
    extrapolates the iteration at which it crosses `threshold`. A flat or
    growing trace, or a probe too short to fit, falls back to default_T. The
    result is clamped to [len(probe_trace), 10 * default_T]: a coarse estimate
    is all the gating needs.
    """
    n = len(probe_trace)
    if n < 10:
        return default_T
    half = [(t, d) for t, d in enumerate(probe_trace) if t >= n // 2 and d > 0 and math.isfinite(d)]
    if len(half) < 2:
        return default_T
    ts = [t for t, _ in half]
    logs = [math.log(d) for _, d in half]
    t_mean = sum(ts) / len(ts)
    l_mean = sum(logs) / len(logs)
    sxx = sum((t - t_mean) ** 2 for t in ts)
    if sxx == 0:
        return default_T
    slope = sum((t - t_mean) * (l - l_mean) for t, l in zip(ts, logs)) / sxx
    if slope >= 0:
        return default_T
    intercept = l_mean - slope * t_mean
    crossing = (math.log(threshold) - intercept) / slope
    return int(min(max(_ceil(crossing), n), 10 * default_T))
