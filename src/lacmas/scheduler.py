"""Phased guidance scheduling.

Two binary gates decide when guidance refreshes happen, both anchored to a
characteristic horizon T estimated by a short pre-run probe:

  - the cooperation gate fires on the recurring grid {ceil(m * RHO_EXT * T)},
    m >= 1, and keeps firing past T;
  - the internal-action gate fires at exactly two points, ceil(RHO_1 * T) and
    ceil(RHO_2 * T), and is deactivated from T onwards.

The stage index is a reporting-only summary of how refresh emphasis shifts
over the run: it steps up at ceil(alpha * T) for each alpha in ALPHAS. The
gates are the sole behavioral triggers.

T is the schedule's one setting (`PcgConfig.horizon_T`). The ratios around it
are fixed parts of the method, held as exact fractions, so every gate point
and breakpoint is an integer ceiling computed exactly, with no float rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConfigError

# The schedule's ratios of the horizon T: the cooperation grid's step, the two
# internal refresh points and the three stage breakpoints.
RHO_EXT = Fraction(1, 10)
RHO_1, RHO_2 = Fraction(1, 5), Fraction(3, 5)
ALPHAS = (Fraction(1, 5), Fraction(1, 2), Fraction(9, 10))


def _ceil_of(ratio: Fraction, horizon: int) -> int:
    """ceil(ratio * horizon), in integer arithmetic."""
    return -(-ratio.numerator * horizon // ratio.denominator)


@dataclass(frozen=True)
class PcgConfig:
    """The schedule's one setting, the horizon T."""

    horizon_T: int = 500

    def __post_init__(self):
        if self.horizon_T < 1:
            raise ConfigError("horizon_T must be a positive integer")


def gate_ext(t: int, cfg: PcgConfig) -> bool:
    """True iff t lies on the cooperation-refresh grid {ceil(m*RHO_EXT*T)}, m >= 1."""
    # With the step s = p*T/q, t >= 1 is ceil(m*s) for some m >= 1 iff the
    # largest m with m*s <= t, floor(t/s), has m*s > t - 1; times q, exactly.
    step, q = RHO_EXT.numerator * cfg.horizon_T, RHO_EXT.denominator
    return t >= 1 and (q * t // step) * step > q * (t - 1)


def gate_int(t: int, cfg: PcgConfig) -> bool:
    """True at the two internal refresh points, and never at or after T."""
    horizon = cfg.horizon_T
    return t < horizon and t in (_ceil_of(RHO_1, horizon), _ceil_of(RHO_2, horizon))


def stage(t: int, cfg: PcgConfig) -> int:
    """Stage index in {1, 2, 3, 4}; diagnostics only."""
    if t < 0:
        raise ConfigError("t must be nonnegative")
    return 1 + sum(t >= _ceil_of(alpha, cfg.horizon_T) for alpha in ALPHAS)


# Snap tolerance for the ceiling of a fitted crossing, so a crossing that is
# an integer up to rounding (70.00000000001) lands on that integer.
_CEIL_EPS = 1e-9


def _ceil(value: float) -> int:
    return math.ceil(value - _CEIL_EPS * max(1.0, abs(value)))


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
