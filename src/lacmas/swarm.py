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
stacked (N, P, D), (N, P), (N, 2) and (N,) arrays. One Population.spread
squares every particle's offset from its agent's centroid and sums each
agent's squares in one reduction, and each AgentSwarm.divergence only reads
its own sum. Per agent, as each has its own generator,
AgentSwarm.step_particles fills its row of one draw buffer with a single
call, kick uniforms included; one Population.select gates every
agent's coefficient, and one Population.step moves every row, or commits
nothing if any row's new state is not finite, and steps back the generator of
each agent that needed no kick, so every stream is consumed exactly as if the
kick were drawn only when a particle is dead. The caller evaluates the
positions, at set-up with one call per agent and in each round in one batch,
and hands the values to Population.tell. The fused states go back the same
way: one Population.inject moves every agent's worst particle onto its fused
state, each AgentSwarm.inject_fused_state records only its own agent's value,
and one Population.attract sets every attractor.
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
    ContractError. A width must be positive: an empty or inverted box has no
    points to draw. Generator.uniform needs a finite width for the position
    and velocity draws, and the dead-velocity test squares
    KICK_VELOCITY_EPS * kick_sigma, where kick_sigma never exceeds the mean
    span. RunConfig checks its objective's box with it too, so a bad box
    fails before a run is set up."""
    span = np.asarray(upper, dtype=float) - np.asarray(lower, dtype=float)
    if not np.isfinite(span).all():
        raise ContractError("the box must have finite widths")
    if not (span > 0).all():
        raise ContractError("the box must have positive widths")
    if KICK_VELOCITY_EPS * float(span.mean()) >= _SQRT_MAX:
        raise ContractError(
            f"the box's mean span must be below {_SQRT_MAX / KICK_VELOCITY_EPS:.3g}"
        )
    return span


class Population:
    """Every agent's swarm state, stacked; the only owner of it.

    Row i of each array is agent i's: positions, velocities and personal-best
    positions as (N, P, D), best and latest values as (N, P), attractors as
    (N, D). No record or latest value is NaN: a NaN value is kept as +inf.
    Per agent it also keeps `best_seen`, the lowest value its records have
    ever held, the kick scale `kick_sigma` and whether collapse recovery runs
    (`kicking`) as (N,) arrays, the (d, c) regime pairs as the (N, 2) array
    `coefficients` and the gated coefficient of the next step as `active`.
    It also holds the PCG64 generators, the box, the scratch the step and the
    spread pass share, the spread pass's buffers and its (N,) row sums
    `spread_sums`, and the (N,) particle indices `worst` that inject picked,
    stacked like the state.
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
        # The step's new velocities and positions, committed only when finite.
        self.moved = np.empty((n, p, dim))
        self.proposed = np.empty((n, p, dim))
        # The spread pass's buffers; a ufunc divides by the count array with
        # the bits of / P, without converting a scalar. Its squares go to
        # `scratch`, as only their row sums outlive the pass.
        self.centroids = np.empty((n, 1, dim))
        self.counts = np.full((n, 1, dim), float(p))
        # NaN until the first pass, so a divergence read before it fails the
        # round's finiteness check instead of returning stale memory.
        self.spread_sums = np.full(n, np.nan)
        self.row_index = np.arange(n)
        # One past the last particle until the first inject, so a value
        # recorded before it raises IndexError instead of landing on particle 0.
        self.worst = np.full(n, p, dtype=np.intp)

    def spread(self) -> None:
        """Square every particle's offset from its agent's centroid and sum
        each agent's squares into `spread_sums`, whose entry i
        AgentSwarm.divergence divides by P."""
        x, centroids, squares = self.positions, self.centroids, self.scratch
        # sum / P is what ndarray.mean computes, without its Python wrapper;
        # the axis-1 sum adds the P particles in the order a (P, D) sum does.
        _sum(x, 1, None, centroids, True)
        np.divide(centroids, self.counts, centroids)
        np.subtract(x, centroids, squares)
        np.multiply(squares, squares, squares)
        # Each contiguous P * D row reduces as its own flat sum does, bit for bit.
        _sum(squares.reshape(len(x), -1), 1, None, self.spread_sums)

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

    def step(self, record_pull: bool) -> int | None:
        """Move every row by the draws its step_particles recorded and the
        coefficients select gated.

        Clamped components get zero velocity, so modulation cannot wind up at
        a wall. record_pull=False (consensus tracking) drops the personal-best
        pull; its draws are consumed anyway. Each row without a dead particle
        steps its generator back over the unused kick draws; both per-agent
        scans, for recovery starts and for rows to step back, run only when
        some agent can need them. The new state is built aside and commits
        whole: if any row's is not finite, no position, velocity, kick scale,
        `kicking` flag or generator moves and the first such row is returned,
        else None. Only the draw buffer, scaled in place, and scratch change.
        """
        x, scratch = self.positions, self.scratch
        draws = self.draws
        draws *= self.draw_scale
        draws += self.draw_offset

        v = np.multiply(self.velocities, self.delta, out=self.moved)
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
        # dying > kicking is dying & ~kicking: agents whose recovery starts
        # now. Recovery never stops, so once every agent kicks there are none.
        # (all() of a short list costs less than the ndarray method.)
        kicking = self.kicking
        starting = () if all(kicking.tolist()) else (dying > kicking).nonzero()[0].tolist()
        if starting:
            sigmas = sigmas.copy()
        for i in starting:
            # Seed the recovery scale from where the collapse happened.
            abest = self.best_positions[i, self.best_values[i].argmin()]
            spread = _median(np.linalg.norm(x[i] - abest, axis=1).tolist())
            sigmas[i] = max(min(float(sigmas[i]), spread), self.kick_floor)
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
        flat = (len(x), -1)
        total = _sum(new.reshape(flat), axis=1) + _sum(v.reshape(flat), axis=1)
        finite = np.isfinite(total)
        if not np.logical_and.reduce(finite):
            return int(finite.argmin())
        x[...] = new
        self.velocities[...] = v
        if starting:
            self.kick_sigma[...] = sigmas
        kicking |= dying
        # Most rounds every agent has a dead particle, and none steps back.
        if not all(dying.tolist()):
            for i in (~dying).nonzero()[0].tolist():
                self.rngs[i].bit_generator.advance(self.rewind)
        return None

    def tell(self, values: np.ndarray) -> None:
        """Take the (N, P) values of the positions the swarms last proposed.

        A NaN value is kept as +inf. Personal bests update greedily and
        best_seen follows them; the kick scale of every agent in collapse
        recovery adapts to its success rate.
        """
        values = np.asarray(values, dtype=float)
        best = self.best_values
        if values.shape != best.shape:
            raise ContractError(f"values have shape {values.shape}, expected {best.shape}")
        np.fmin(values, np.inf, out=self.last_values)
        improved = values < best
        np.copyto(self.best_positions, self.positions, where=improved[:, :, None])
        np.copyto(best, values, where=improved)
        np.minimum(self.best_seen, np.minimum.reduce(best, axis=1), out=self.best_seen)

        # Success-rate step-size control; holds at the initialization scale
        # until an agent's collapse recovery starts.
        sigmas = self.kick_sigma
        scaled = sigmas * self.kick_factors[_sum(improved, axis=1, dtype=np.intp)]
        np.minimum(scaled, self.span_mean, out=sigmas, where=self.kicking)

    def representatives(self) -> np.ndarray:
        """Each agent's representative state (see AgentSwarm.representative_state),
        as a new (N, D) array."""
        return self.positions[self.row_index, self.last_values.argmin(axis=1)]

    def inject(self, fused: np.ndarray) -> None:
        """Fold the (N, D) fused consensus states back in, the batched half.

        Each agent's worst particle, its highest record (ties to the lowest
        index), is teleported onto its fused state, as position and personal
        best, with zero velocity; the picks stay in `worst`. Then each
        AgentSwarm.inject_fused_state, in agent order, records its fused
        state's value there, and attract sets the attractors.
        """
        if fused.shape != self.attractors.shape:
            raise ContractError(
                f"fused states have shape {fused.shape}, expected {self.attractors.shape}"
            )
        picks = self.row_index, self.best_values.argmax(axis=1, out=self.worst)
        self.positions[picks] = self.best_positions[picks] = fused
        self.velocities[picks] = 0.0

    def attract(self, fused: np.ndarray, refocus: bool) -> None:
        """Set every attractor to its agent's fused state, or with refocus=True
        (late stage) to its best record, while the particle channel stays
        open. Run after the values are recorded, which the refocus pick reads."""
        if refocus:
            fused = self.best_positions[self.row_index, self.best_values.argmin(axis=1)]
        self.attractors[...] = fused

    def rebase(self) -> None:
        """Replace every particle's record with its latest evaluation.

        Used once at the refocus transition: records accumulated while the
        populations tracked the fused states can sit far from where the search
        has moved, and pulling toward them again would undo the tracking.
        No latest value lies below best_seen, so best_seen stays as it is.
        """
        self.best_positions[...] = self.positions
        self.best_values[...] = self.last_values


class AgentSwarm:
    """Dynamics of agent `agent_id`'s swarm, on its Population row.

    Holds its generator and views of its rows, built once and never rebound,
    so every write lands in the Population; its scalars are read and written
    in the Population's (N,) arrays.
    """

    __slots__ = (
        "population", "agent_id", "rng", "positions", "best_values", "last_values",
        "draws", "spread_sums", "worst", "best_seen",
    )

    def __init__(self, population: Population, agent_id: int):
        self.population = population
        self.agent_id = agent_id
        self.rng = population.rngs[agent_id]
        self.positions = population.positions[agent_id]
        self.best_values = population.best_values[agent_id]
        self.last_values = population.last_values[agent_id]
        self.draws = population.draws[agent_id]
        self.spread_sums = population.spread_sums
        self.worst = population.worst
        self.best_seen = population.best_seen

    # -- observations --------------------------------------------------------

    def divergence(self) -> float:
        """Mean squared distance of the particles from their centroid, as of
        the last Population.spread: its row sum over P."""
        return self.spread_sums.item(self.agent_id) / len(self.positions)

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

    def inject_fused_state(self, value: float) -> None:
        """Record `value`, the local evaluation of this agent's fused state
        (+inf if NaN), as the personal best and latest value of the particle
        the last Population.inject moved there, so stale records cannot
        shadow the consensus state; best_seen takes `value` if it is lower.
        """
        if math.isnan(value):
            value = math.inf
        i = self.agent_id
        worst = self.worst.item(i)
        self.best_values[worst] = self.last_values[worst] = value
        # A scalar test, not np.minimum, which would store -0.0 over 0.0.
        if value < self.best_seen.item(i):
            self.best_seen[i] = value
