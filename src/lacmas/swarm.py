"""Per-agent adaptive particle population.

Each agent runs a small swarm whose velocity update is a stochastically
modulated multiplicative term scaled by a regime coefficient, plus attraction
toward the particle's personal best and toward the agent's local attractor
(the last fused consensus state):

    v <- w * (delta (.) v) + c_p * r1 (.) (pbest - x) + c_a * r2 (.) (attr - x)
    x <- clamp(x + v)

The active coefficient w is selected from the agent's (d, c) pair by the
current particle divergence: a concentrated population gets the escape
coefficient c, a widely spread one the damping coefficient d, and the middle
band the neutral 1.0. delta is drawn element-wise uniform on [MODULATION_LOW,
MODULATION_HIGH], so w < 1 contracts the modulated term in the mean-square
sense and w near the top of its range lets occasional large kicks through.

The swarm never calls an objective. All swarm state lives in one Population of
stacked (N, P, D), (N, P), (N, 2) and (N,) arrays. AgentSwarm.step_particles,
per agent as each has its own generator, fills its row of one draw buffer with
a single call, kick uniforms included; one Population.select gates every
agent's coefficient, and one Population.step moves every row and steps back
the generator of each agent that needed no kick, so every stream is consumed
exactly as if the kick were drawn only when a particle is dead. The caller
evaluates the positions in one batch and hands the values to Population.tell.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import ContractError

_SQRT_MAX = math.sqrt(sys.float_info.max)
# What ndarray.sum calls, without its Python wrapper: same reduction, same bits.
_sum = np.add.reduce


# The method's constants, none of them a setting: particles per agent, the
# pull gains c_p and c_a, delta's interval and the regime gate's divergence
# thresholds.
POPULATION = 10
PULL_PBEST = 0.8
PULL_ATTRACTOR = 0.8
MODULATION_LOW = -0.5
MODULATION_HIGH = 1.5
D1 = 1.0
D2 = 10.0
# Fraction of the full box span; 0.05 of [-B, B] is the [-B/10, B/10] start.
INIT_VELOCITY_FRAC = 0.05
# Collapse recovery: a particle whose velocity has died gets a fresh kick.
# The multiplicative modulation cannot re-expand a population from zero
# velocity on its own, so this is what keeps refinement going instead of
# freezing at the scale where the swarm first collapsed. The kick scale
# adapts to the personal-best success rate (expand while improvements are
# frequent, contract when they dry up), which makes it track the distance
# to the local optimum without knowing it.
KICK_VELOCITY_EPS = 1e-3
KICK_ADAPT_RATE = 0.3
KICK_TARGET_RATE = 0.2


def _median(values: list[float]) -> float:
    """np.median of a list of non-NaN floats, bit for bit: the middle entry,
    or (a + b) / 2 of the two middle ones. np.median's first call imports
    numpy.ma, which costs milliseconds inside a round."""
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


# An overflowing width or mean is what the checks below reject.
@np.errstate(over="ignore")
def box_span(lower, upper) -> np.ndarray:
    """The widths upper - lower of a box a population can be drawn in, else a
    ContractError. Generator.uniform needs a finite width for the position
    and velocity draws, and the dead-velocity test squares
    KICK_VELOCITY_EPS * kick_sigma, where kick_sigma never exceeds the mean
    span. RunConfig checks its objective's box with it too, so a bad box
    fails before a run is set up."""
    span = np.asarray(upper, dtype=float) - np.asarray(lower, dtype=float)
    if not np.isfinite(span).all():
        raise ContractError("the box must have finite widths")
    if KICK_VELOCITY_EPS * float(span.mean()) >= _SQRT_MAX:
        raise ContractError(
            f"the box's mean span must be below {_SQRT_MAX / KICK_VELOCITY_EPS:.3g}"
        )
    return span


class Population:
    """Every agent's swarm state, stacked; the only owner of it.

    Row i of each array is agent i's: positions, velocities and personal-best
    positions as (N, P, D), best and latest values as (N, P), attractors as
    (N, D). Per agent it also keeps the all-time best value `best_seen`, the
    kick scale `kick_sigma` and whether collapse recovery runs (`kicking`) as
    (N,) arrays, the (d, c) regime pairs as the (N, 2) array `coefficients`
    and the gated coefficient of the next step as `active`. It also holds the
    PCG64 generators, the box and the step's scratch, stacked like the state.
    """

    def __init__(
        self,
        particles: int,
        dim: int,
        lower: np.ndarray,
        upper: np.ndarray,
        rngs: list[np.random.Generator],
        coefficients: tuple[float, float],
    ):
        n, p = len(rngs), particles
        if not all(isinstance(rng.bit_generator, np.random.PCG64) for rng in rngs):
            # Population.step steps a stream back by PCG64's exact jump-ahead.
            raise ContractError("every agent generator must run on PCG64")
        self.rngs = rngs
        self.lower = np.asarray(lower, dtype=float)
        self.upper = np.asarray(upper, dtype=float)
        span = box_span(self.lower, self.upper)
        vmax = INIT_VELOCITY_FRAC * span
        self.span_mean = float(span.mean())
        self.kick_floor = 1e-12 * self.span_mean
        kick_sigma = float(INIT_VELOCITY_FRAC * self.span_mean)

        self.positions = np.empty((n, p, dim))
        self.velocities = np.empty((n, p, dim))
        for i, rng in enumerate(rngs):
            self.positions[i] = rng.uniform(self.lower, self.upper, size=(p, dim))
            self.velocities[i] = rng.uniform(-vmax, vmax, size=(p, dim))
        self.best_positions = self.positions.copy()
        self.best_values = np.full((n, p), np.inf)
        self.last_values = np.full((n, p), np.inf)
        self.attractors = np.zeros((n, dim))
        # All-time agent bests, kept apart from the working records so that
        # reported fitness stays monotone even when records are re-based.
        self.best_seen = np.full(n, np.inf)
        # Set once an agent's collapse recovery starts; it never stops again.
        self.kicking = np.zeros(n, dtype=bool)
        self.kick_sigma = np.full(n, kick_sigma)
        self.coefficients = np.array([coefficients] * n, dtype=float)

        # Row i of `draws` is agent i's one uniform draw per round: delta, r1,
        # r2, then the kick. r2 is one gain per particle, not per component,
        # which lets a particle take near-zero-drag steps with positive
        # probability and keeps personal-best refinement unbiased in high
        # dimension. Times `draw_scale` plus `draw_offset` (x + -0.0 is x, bit
        # for bit) a row holds lo + (hi - lo) * u, c_p * r1, c_a * r2 and the
        # kick's 2u - 1, rounded as Generator.uniform and the products round
        # them. An agent with no dead particle hands its P * D kick uniforms
        # back: one float64 uniform is one PCG64 step and the period is 2**128,
        # so advancing by 2**128 - P * D steps its stream back to where it was.
        pd, main = p * dim, 2 * p * dim + p
        width = MODULATION_HIGH - MODULATION_LOW
        parts = [pd, pd, p, pd]
        self.draw_scale = np.repeat([width, PULL_PBEST, PULL_ATTRACTOR, 2.0], parts)
        self.draw_offset = np.repeat([MODULATION_LOW, -0.0, -0.0, -1.0], parts)
        self.draws = np.empty((n, main + pd))
        self.delta = self.draws[:, :pd].reshape(n, p, dim)
        self.pull_pbest = self.draws[:, pd:2 * pd].reshape(n, p, dim)
        self.pull_attractor = self.draws[:, 2 * pd:main].reshape(n, p, 1)
        self.kick = self.draws[:, main:].reshape(n, p, dim)
        self.rewind = 2**128 - pd
        # The kick-scale factor exp(rate * (k / P - target)) of each success
        # count k, as tell's per-agent rule computed it.
        self.kick_factors = np.array([
            math.exp(KICK_ADAPT_RATE * (k / p - KICK_TARGET_RATE))
            for k in range(p + 1)
        ])
        self.active = np.ones(n)
        self.scratch = np.empty((n, p, dim))
        self.proposed = np.empty((n, p, dim))
        # The divergence's scratch, shared by every agent: a centroid, the
        # count P as an array (a ufunc divides by it with the bits of / P,
        # without converting a scalar), a (P, D) spread and its flat view.
        spread = np.empty((p, dim))
        self.divergence_scratch = (np.empty(dim), np.full(dim, float(p)), spread, spread.ravel())
        self.row_index = np.arange(n)

    def select(self, divergences: np.ndarray, late_stage: bool) -> None:
        """Set every agent's `active` coefficient from its (N,) divergence:
        escape c below D1, neutral 1.0 on [D1, D2], damping d above D2 or at
        NaN. Late-stage stabilization caps it at 1.0 past the horizon."""
        d, c = self.coefficients.T
        np.copyto(self.active, d)
        np.copyto(self.active, 1.0, where=divergences <= D2)
        np.copyto(self.active, c, where=divergences < D1)
        if late_stage:
            np.minimum(self.active, 1.0, out=self.active)

    def step(self, record_pull: bool) -> int:
        """Move every row by the draws its step_particles recorded and the
        coefficients select gated; return how many rows were committed.

        Clamped components get zero velocity, so modulation cannot wind up at
        a wall. record_pull=False (consensus tracking) drops the personal-best
        pull; its draws are consumed anyway. Each row without a dead particle
        steps its generator back over the unused kick draws. Rows from the
        first non-finite one on keep their positions.
        """
        x, v, scratch = self.positions, self.velocities, self.scratch
        draws = self.draws
        draws *= self.draw_scale
        draws += self.draw_offset

        v *= self.delta
        v *= self.active[:, None, None]
        if record_pull:
            pull = np.subtract(self.best_positions, x, out=scratch)
            pull *= self.pull_pbest
            v += pull
        pull = np.subtract(self.attractors[:, None], x, out=scratch)
        pull *= self.pull_attractor
        v += pull

        # A limit of 0 (eps or kick scale 0) marks no particle dead.
        sigmas = self.kick_sigma
        speed2 = _sum(np.multiply(v, v, out=scratch), axis=2)
        limits = np.square(KICK_VELOCITY_EPS * sigmas)
        dead = speed2 < limits[:, None]
        dying = np.logical_or.reduce(dead, axis=1)
        # dying > kicking is dying & ~kicking: agents whose recovery starts now.
        for i in (dying > self.kicking).nonzero()[0].tolist():
            # Seed the recovery scale from where the collapse happened.
            abest = self.best_positions[i, self.best_values[i].argmin()]
            spread = _median(np.linalg.norm(x[i] - abest, axis=1).tolist())
            sigmas[i] = max(min(float(sigmas[i]), spread), self.kick_floor)
        self.kicking |= dying
        for i in (~dying).nonzero()[0].tolist():
            self.rngs[i].bit_generator.advance(self.rewind)
        # The active regime coefficient scales the kick: the escape
        # coefficient widens recovery jumps, the damping one narrows them, so
        # coefficient guidance steers escape strength. Only dead entries take it.
        self.kick *= (sigmas * self.active)[:, None, None]
        np.add(v, self.kick, out=v, where=dead[:, :, None])

        raw = np.add(x, v, out=scratch)
        new = np.maximum(raw, self.lower, out=self.proposed)
        np.minimum(new, self.upper, out=new)
        np.putmask(v, raw != new, 0.0)

        # Sums along contiguous (P * D) rows round like per-agent sums.
        n = len(x)
        flat = (n, -1)
        total = _sum(new.reshape(flat), axis=1) + _sum(v.reshape(flat), axis=1)
        finite = np.isfinite(total)
        committed = n if np.logical_and.reduce(finite) else int(finite.argmin())
        x[:committed] = new[:committed]
        return committed

    def tell(self, values: np.ndarray, upto: int | None = None) -> None:
        """Take the (N, P) values of the positions the swarms last proposed.

        Only rows below `upto` (all rows by default) are taken: a round cut
        short by a fault tells just the agents that stepped. Personal bests
        update greedily, and the kick scale of every told agent in collapse
        recovery adapts to its success rate.
        """
        values = np.asarray(values, dtype=float)
        if values.shape != self.best_values.shape:
            raise ContractError(
                f"values have shape {values.shape}, expected {self.best_values.shape}"
            )
        rows = slice(upto)
        values = values[rows]
        best = self.best_values[rows]
        self.last_values[rows] = values
        improved = values < best
        np.copyto(self.best_positions[rows], self.positions[rows], where=improved[:, :, None])
        np.copyto(best, values, where=improved)

        # Success-rate step-size control; holds at the initialization scale
        # until an agent's collapse recovery starts.
        sigmas = self.kick_sigma[rows]
        scaled = sigmas * self.kick_factors[_sum(improved, axis=1, dtype=np.intp)]
        np.minimum(scaled, self.span_mean, out=sigmas, where=self.kicking[rows])

    def representatives(self, upto: int | None = None) -> np.ndarray:
        """Each agent's representative state (see AgentSwarm.representative_state)
        for rows below `upto`, as a new (upto, D) array."""
        picks = self.last_values[:upto].argmin(axis=1)
        return self.positions[self.row_index[:upto], picks]

    def agent_bests(self) -> np.ndarray:
        """Each agent's all-time best value (N,), monotone across rebases."""
        records = np.minimum.reduce(self.best_values, axis=1)
        # Python's min(best_seen, record): the record only where strictly lower.
        return np.where(records < self.best_seen, records, self.best_seen)

    def rebase(self) -> None:
        """Replace every particle's record with its latest evaluation.

        Used once at the refocus transition: records accumulated while the
        populations tracked the fused states can sit far from where the search
        has moved, and pulling toward them again would undo the tracking. The
        records are folded into best_seen first, so agent_bests stays monotone.
        """
        self.best_seen[...] = self.agent_bests()
        self.best_positions[...] = self.positions
        self.best_values[...] = self.last_values


class AgentSwarm:
    """Dynamics of agent `agent_id`'s swarm, on its Population row.

    Holds its generator and views of its rows, built once and never rebound,
    so every write lands in the Population; its scalars are read and written
    there too.
    """

    __slots__ = (
        "population", "agent_id", "rng", "positions", "velocities",
        "best_positions", "best_values", "last_values", "attractor", "draws",
        "divergence_scratch",
    )

    def __init__(self, population: Population, agent_id: int):
        self.population = population
        self.agent_id = agent_id
        self.rng = population.rngs[agent_id]
        self.positions = population.positions[agent_id]
        self.velocities = population.velocities[agent_id]
        self.best_positions = population.best_positions[agent_id]
        self.best_values = population.best_values[agent_id]
        self.last_values = population.last_values[agent_id]
        self.attractor = population.attractors[agent_id]
        self.draws = population.draws[agent_id]
        self.divergence_scratch = population.divergence_scratch

    # -- setup -------------------------------------------------------------

    def evaluate_initial(self, values: np.ndarray) -> None:
        """Take the scores of the freshly initialized population and seed the
        attractor."""
        self.best_values[...] = values
        self.best_positions[...] = self.positions
        self.last_values[...] = self.best_values
        self._track_best_seen()
        self.attractor[...] = self.representative_state()

    def _track_best_seen(self) -> None:
        best = float(self.best_values.min())
        best_seen = self.population.best_seen
        if best < best_seen[self.agent_id]:
            best_seen[self.agent_id] = best

    # -- observations --------------------------------------------------------

    def divergence(self) -> float:
        """Mean squared distance of the particles from their centroid."""
        x = self.positions
        centroid, counts, spread, squares = self.divergence_scratch
        # sum / n is what ndarray.mean computes, without its Python wrapper;
        # the flat sum rounds like the sum over the whole (P, D) block.
        _sum(x, 0, None, centroid)
        np.divide(centroid, counts, centroid)
        np.subtract(x, centroid, spread)
        np.multiply(squares, squares, squares)
        return float(_sum(squares)) / len(x)

    def representative_state(self) -> np.ndarray:
        """Position of the particle that evaluated best in the latest sweep
        (ties to the lowest index).

        Publishing the freshest best point rather than the all-time record
        keeps the published state anchored to where the agent is searching
        now. On objectives with degenerate minimum sets an all-time record
        pins to the first point found and consensus could never re-anchor it;
        the per-sweep best follows the attractor instead.
        """
        return self.positions[self.last_values.argmin()].copy()

    # -- dynamics ------------------------------------------------------------

    def step_particles(self) -> None:
        """Draw this agent's uniforms for a step, kick included, into its row
        of Population.draws with one generator call; Population.step then
        moves every agent that drew."""
        self.rng.random(out=self.draws)

    def inject_fused_state(self, fused: np.ndarray, value: float, refocus: bool = False) -> None:
        """Fold the fused consensus state, a (D,) array, back into the population.

        The attractor moves to the fused point and the worst particle is
        teleported there with zero velocity; its personal best is reset to
        `value`, the fused state's local evaluation, so stale records cannot
        shadow the consensus state. With refocus=True (late stage) the
        attractor follows the agent's own best record instead, while the
        particle channel stays open.
        """
        if fused.shape != self.attractor.shape:
            raise ContractError(
                f"fused state has shape {fused.shape}, expected {self.attractor.shape}"
            )
        best_values = self.best_values
        worst = best_values.argmax()
        # The reported best is the min of best_seen and the records, so
        # overwriting the worst record can lower it only when that record is
        # below best_seen; fold the records in first in that case.
        if best_values[worst] < self.population.best_seen[self.agent_id]:
            self._track_best_seen()
        self.positions[worst] = self.best_positions[worst] = fused
        self.velocities[worst] = 0.0
        best_values[worst] = self.last_values[worst] = value
        self.attractor[...] = self.best_positions[best_values.argmin()] if refocus else fused
