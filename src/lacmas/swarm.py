"""Per-agent adaptive particle population.

Each agent runs a small swarm whose velocity update is a stochastically
modulated multiplicative term scaled by a regime coefficient, plus attraction
toward the particle's personal best and toward the agent's local attractor
(the last fused consensus state):

    v <- w * (delta (.) v) + c_p * r1 (.) (pbest - x) + c_a * r2 (.) (attr - x)
    x <- clamp(x + v)

The active coefficient w is selected from (w1, w0, w2) by the current particle
divergence: a concentrated population gets the escape coefficient w2, a widely
spread one the damping coefficient w1, and the middle band the neutral w0.
delta is drawn element-wise uniform on [modulation_low, modulation_high], so
w < 1 contracts the modulated term in the mean-square sense and w near the top
of its range lets occasional large kicks through.

The swarm never calls an objective. step_particles proposes new positions, the
caller evaluates them (the engine does all agents in one batch) and hands the
values back through tell; evaluate_initial and inject_fused_state likewise
take values.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, NumericalFault

_LOG_MAX = math.log(sys.float_info.max)
_SQRT_MAX = math.sqrt(sys.float_info.max)


@dataclass(frozen=True)
class SwarmParams:
    population: int = 10
    pull_pbest: float = 0.8
    pull_attractor: float = 0.8
    modulation_low: float = -0.5
    modulation_high: float = 1.5
    # Fraction of the full box span; 0.05 of [-B, B] is the [-B/10, B/10] start.
    init_velocity_frac: float = 0.05
    d1: float = 1.0
    d2: float = 10.0
    # Attractor gain r2 drawn per component or once per particle. The scalar
    # mode lets a particle take near-zero-drag steps with positive probability,
    # which keeps personal-best refinement unbiased in high dimension.
    attractor_gain: str = "scalar"  # scalar | elementwise
    # Collapse recovery: a particle whose velocity has died gets a fresh kick.
    # The multiplicative modulation cannot re-expand a population from zero
    # velocity on its own, so this is what keeps refinement going instead of
    # freezing at the scale where the swarm first collapsed. The kick scale
    # adapts to the personal-best success rate (expand while improvements are
    # frequent, contract when they dry up), which makes it track the distance
    # to the local optimum without knowing it.
    kick_velocity_eps: float = 1e-3
    kick_adapt_rate: float = 0.3
    kick_target_rate: float = 0.2

    def __post_init__(self):
        if self.population < 1:
            raise ContractError("population must be >= 1")
        if not self.d1 < self.d2:
            raise ContractError(f"need d1 < d2, got ({self.d1}, {self.d2})")
        if self.init_velocity_frac < 0:
            raise ContractError(f"init_velocity_frac must be >= 0, got {self.init_velocity_frac}")
        if not 0 <= self.kick_target_rate <= 1:
            raise ContractError(f"kick_target_rate must lie in [0, 1], got {self.kick_target_rate}")
        # The success rate minus the target lies in [-1, 1], so this keeps the
        # kick-scale factor exp(rate * (success - target)) finite.
        if not 0 <= self.kick_adapt_rate < _LOG_MAX:
            raise ContractError(
                f"kick_adapt_rate must lie in [0, {_LOG_MAX:.1f}), got {self.kick_adapt_rate}"
            )
        if self.attractor_gain not in ("scalar", "elementwise"):
            raise ContractError(f"bad attractor_gain mode {self.attractor_gain!r}")


class AgentSwarm:
    """State and dynamics of one agent's particle population."""

    def __init__(
        self,
        agent_id: int,
        dim: int,
        lower: np.ndarray,
        upper: np.ndarray,
        params: SwarmParams,
        rng: np.random.Generator,
        coefficients: tuple[float, float, float] = (0.7, 1.0, 1.3),
    ):
        self.agent_id = agent_id
        self.dim = dim
        self.lower = np.asarray(lower, dtype=float)
        self.upper = np.asarray(upper, dtype=float)
        self.params = params
        self.rng = rng
        # (w1, w0, w2): damping, neutral, escape.
        self.w1, self.w0, self.w2 = coefficients

        p = params.population
        span = self.upper - self.lower
        vmax = params.init_velocity_frac * span
        self._span_mean = float(span.mean())
        self._kick_floor = 1e-12 * self._span_mean
        self.kick_sigma = float(params.init_velocity_frac * self._span_mean)
        # Generator.uniform needs a finite width for both draws below, and the
        # dead-velocity test squares kick_velocity_eps * kick_sigma, where
        # kick_sigma never exceeds the larger of its start and the mean span.
        if not (np.isfinite(span).all() and math.isfinite(2 * float(vmax.max()))):
            raise ContractError("the box and the initial velocity range must have finite widths")
        if params.kick_velocity_eps * max(self.kick_sigma, self._span_mean) >= _SQRT_MAX:
            raise ContractError(
                f"kick_velocity_eps times the box span must be below {_SQRT_MAX:.3g}"
            )
        self.positions = rng.uniform(self.lower, self.upper, size=(p, dim))
        self.velocities = rng.uniform(-vmax, vmax, size=(p, dim))
        self.best_positions = self.positions.copy()
        self.best_values = np.full(p, np.inf)
        self.last_values = np.full(p, np.inf)
        self.local_attractor = np.zeros(dim)
        self._kicking = False
        self._evaluated = False
        # All-time agent best, kept apart from the working records so that
        # reported fitness stays monotone even when records are re-based.
        self.best_seen_value = float("inf")
        # One uniform draw per step covers delta, r1 and r2 in that order.
        # Scaling it by this vector gives (hi - lo) * u, c_p * r1 and c_a * r2
        # with the same roundings as Generator.uniform followed by the pull
        # products, so the stream and the arithmetic match three separate draws.
        self._r2_shape = (p, 1) if params.attractor_gain == "scalar" else (p, dim)
        self._draw_scale = np.concatenate([
            np.full(p * dim, params.modulation_high - params.modulation_low),
            np.full(p * dim, params.pull_pbest),
            np.full(math.prod(self._r2_shape), params.pull_attractor),
        ])

    # -- setup -------------------------------------------------------------

    def evaluate_initial(self, values: np.ndarray) -> None:
        """Take the scores of the freshly initialized population and seed the
        attractor."""
        self.best_values = np.array(values, dtype=float)
        self.best_positions = self.positions.copy()
        self.last_values = self.best_values.copy()
        self._evaluated = True
        self._track_best_seen()
        self.local_attractor = self.representative_state()

    def _track_best_seen(self) -> None:
        best = float(self.best_values.min())
        if best < self.best_seen_value:
            self.best_seen_value = best

    def set_coefficients(self, w1: float, w0: float, w2: float) -> None:
        self.w1, self.w0, self.w2 = w1, w0, w2

    # -- observations --------------------------------------------------------

    def centroid(self) -> np.ndarray:
        n = len(self.positions)
        if n == 0:
            raise ContractError("empty population")
        # sum / n is what ndarray.mean computes, without its Python wrapper.
        return self.positions.sum(axis=0) / n

    def divergence(self) -> float:
        """Mean squared distance of the particles from their centroid."""
        d = self.positions - self.centroid()
        return float((d * d).sum() / len(d))

    def select_coefficient(self, div: float) -> float:
        """Regime gate: escape below d1, neutral on [d1, d2], damping above d2."""
        if div < self.params.d1:
            return self.w2
        if div <= self.params.d2:
            return self.w0
        return self.w1

    def best_value(self) -> float:
        """All-time best objective value seen by this agent (monotone)."""
        return min(self.best_seen_value, float(self.best_values.min()))

    def best_record_state(self) -> np.ndarray:
        """Position of the best current record (the elitist anchor)."""
        return self.best_positions[self.best_values.argmin()].copy()

    def rebase_records(self) -> None:
        """Replace every particle's record with its latest evaluation.

        Used once at the refocus transition: records accumulated while the
        population tracked the fused state can sit far from where the search
        has moved, and pulling toward them again would undo the tracking.
        """
        self._track_best_seen()
        self.best_positions = self.positions.copy()
        self.best_values = self.last_values.copy()

    def representative_state(self) -> np.ndarray:
        """Position of the particle that evaluated best in the latest sweep
        (ties to the lowest index).

        Publishing the freshest best point rather than the all-time record
        keeps the published state anchored to where the agent is searching
        now. On objectives with degenerate minimum sets an all-time record
        pins to the first point found and consensus could never re-anchor it;
        the per-sweep best follows the attractor instead.
        """
        if not self._evaluated:
            raise ContractError("representative_state before any evaluation")
        return self.positions[self.last_values.argmin()].copy()

    # -- dynamics ------------------------------------------------------------

    def step_particles(self, active_coeff: float, record_pull: bool = True) -> np.ndarray:
        """One velocity/position update of the whole population; returns the
        new (P, D) positions, which the caller evaluates and passes to tell.

        Clamped components get their velocity zeroed so the multiplicative
        modulation cannot wind up against a wall. With record_pull=False the
        personal-best term is suppressed (the consensus-tracking phase),
        leaving the attractor as the only directed pull; the same random draws
        are consumed either way so the stream stays aligned.
        """
        p = self.params
        shape = self.positions.shape
        pd = self.positions.size
        draws = self.rng.random(len(self._draw_scale))
        draws *= self._draw_scale
        delta = draws[:pd].reshape(shape)
        delta += p.modulation_low
        pull_pbest = draws[pd:2 * pd].reshape(shape)
        pull_attractor = draws[2 * pd:].reshape(self._r2_shape)

        v = self.velocities
        v *= delta
        v *= active_coeff
        if record_pull:
            v += pull_pbest * (self.best_positions - self.positions)
        v += pull_attractor * (self.local_attractor - self.positions)

        if p.kick_velocity_eps > 0 and self.kick_sigma > 0:
            dead = (v * v).sum(axis=1) < (p.kick_velocity_eps * self.kick_sigma) ** 2
            if dead.any():
                if not self._kicking:
                    # Seed the recovery scale from where the collapse happened.
                    abest = self.best_positions[self.best_values.argmin()]
                    spread = float(np.median(np.linalg.norm(self.positions - abest, axis=1)))
                    self.kick_sigma = max(min(self.kick_sigma, spread), self._kick_floor)
                    self._kicking = True
                # The active regime coefficient scales the kick: the escape
                # coefficient widens recovery jumps, the damping one narrows
                # them, so coefficient guidance steers escape strength.
                kick = self.rng.uniform(-1.0, 1.0, shape) * (self.kick_sigma * active_coeff)
                v[dead] += kick[dead]

        raw = self.positions + v
        new = np.maximum(raw, self.lower)
        np.minimum(new, self.upper, out=new)
        v[raw != new] = 0.0

        total = float(new.sum()) + float(v.sum())
        if not math.isfinite(total):
            raise NumericalFault(f"non-finite particle state for agent {self.agent_id}")

        self.positions = new
        return new

    def tell(self, values: np.ndarray) -> None:
        """Take the (P,) values of the positions the last step proposed.

        Personal bests update greedily, and once collapse recovery has started
        the kick scale adapts to the success rate.
        """
        # A copy: the caller's array may be a row of a batch it reuses.
        self.last_values = np.array(values, dtype=float)
        improved = values < self.best_values
        np.copyto(self.best_positions, self.positions, where=improved[:, None])
        np.copyto(self.best_values, values, where=improved)

        if self._kicking:
            # Success-rate step-size control, active once collapse recovery has
            # started; holds at the initialization scale before that.
            p = self.params
            rate = np.count_nonzero(improved) / len(improved)
            self.kick_sigma *= math.exp(p.kick_adapt_rate * (rate - p.kick_target_rate))
            self.kick_sigma = min(self.kick_sigma, self._span_mean)

        self._evaluated = True

    def inject_fused_state(self, fused: np.ndarray, value: float, refocus: bool = False) -> None:
        """Fold the fused consensus state back into the population.

        The attractor moves to the fused point and the worst particle is
        teleported there with zero velocity; its personal best is reset to
        `value`, the fused state's local evaluation, so stale records cannot
        shadow the consensus state. With refocus=True (late stage) the
        attractor follows the agent's own best instead, while the particle
        channel stays open.
        """
        fused = np.asarray(fused, dtype=float)
        if fused.shape != (self.dim,):
            raise ContractError(f"fused state has shape {fused.shape}, expected ({self.dim},)")
        worst = self.best_values.argmax()
        # best_value() is the min of best_seen_value and the records, so
        # overwriting the worst record can lower it only when that record is
        # below best_seen_value; fold the records in first in that case.
        if self.best_values[worst] < self.best_seen_value:
            self._track_best_seen()
        self.positions[worst] = fused
        self.velocities[worst] = 0.0
        self.best_positions[worst] = fused
        self.best_values[worst] = value
        self.last_values[worst] = value
        if refocus:
            self.local_attractor = self.best_record_state()
        else:
            self.local_attractor = fused.copy()
