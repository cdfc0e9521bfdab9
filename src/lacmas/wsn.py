"""Distributed multi-target localization from received signal strength.

Each sensor observes one RSS value per target under a log-distance path-loss
model and owns the squared mismatch between its measurements and the model
prediction at a candidate target layout. The decision vector concatenates the
3-D target positions; the system-level error is the average local objective at
the mean agent state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ContractError
from .objectives import checked_points

_sum = np.add.reduce

# RSS is P0 at distance D0 and falls 10 * PATH_LOSS_EXP per decade; AREA is the deployment box.
P0 = -40.0
D0 = 1.0
PATH_LOSS_EXP = 3.0
AREA = (50.0, 50.0, 20.0)
_PLACEMENT_RETRIES = 50

# A WSN run whose final error is below this has solved its task; acceptance
# criterion 9 counts the single-target runs below it.
SUCCESS_ERROR = 1e-3


@dataclass(frozen=True)
class WsnScenario:
    sensor_positions: np.ndarray  # (n, 3)
    true_targets: np.ndarray  # (N_t, 3)
    noise_sigma: float = 0.0

    def __post_init__(self):
        if self.sensor_positions.ndim != 2 or self.sensor_positions.shape[1] != 3:
            raise ContractError("sensor_positions must be (n, 3)")
        if self.true_targets.ndim != 2 or self.true_targets.shape[1] != 3:
            raise ContractError("true_targets must be (N_t, 3)")
        if len(self.sensor_positions) < 1 or len(self.true_targets) < 1:
            raise ContractError("need at least one sensor and one target")
        if self.noise_sigma < 0:
            raise ContractError("noise_sigma must be nonnegative")

    @property
    def num_sensors(self) -> int:
        return len(self.sensor_positions)

    @property
    def num_targets(self) -> int:
        return len(self.true_targets)

    @property
    def dim(self) -> int:
        return 3 * self.num_targets


def gen_scenario(
    num_sensors: int, num_targets: int, seed: int, noise_sigma: float = 0.0
) -> WsnScenario:
    """Jittered-grid sensor placement plus uniform interior targets.

    Regenerates the target draw (bounded retries) until every sensor-target
    distance clears D0/100, then freezes the geometry.
    """
    if num_sensors < 1 or num_targets < 1:
        raise ConfigError("need at least one sensor and one target")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x57534E]))
    area_arr = np.asarray(AREA, dtype=float)

    side = int(np.ceil(np.sqrt(num_sensors)))
    gx, gy = np.meshgrid(np.arange(side), np.arange(side))
    cells = np.stack([gx.ravel(), gy.ravel()], axis=1)[:num_sensors].astype(float)
    spacing = area_arr[:2] / side
    xy = (cells + 0.5) * spacing + rng.uniform(-0.2, 0.2, size=(num_sensors, 2)) * spacing
    z = rng.uniform(0.0, area_arr[2] * 0.25, size=(num_sensors, 1))
    sensors = np.hstack([xy, z])

    min_allowed = D0 / 100.0
    for _ in range(_PLACEMENT_RETRIES):
        targets = rng.uniform(0.15 * area_arr, 0.85 * area_arr, size=(num_targets, 3))
        dists = np.linalg.norm(targets[None, :, :] - sensors[:, None, :], axis=2)
        if dists.min() > min_allowed:
            return WsnScenario(sensors, targets, noise_sigma)
    raise ConfigError("degenerate geometry: could not separate sensors from targets")


def rss_model(distances: np.ndarray) -> np.ndarray:
    """Predicted RSS at the given distances (floored at D0/100)."""
    d = np.maximum(np.asarray(distances, dtype=float), D0 / 100.0)
    return P0 - 10.0 * PATH_LOSS_EXP * np.log10(d / D0)


def gen_measurements(scn: WsnScenario, seed: int) -> np.ndarray:
    """RSS matrix phi of shape (n_sensors, N_t); deterministic per seed."""
    dists = np.linalg.norm(scn.true_targets[None, :, :] - scn.sensor_positions[:, None, :], axis=2)
    if dists.min() <= D0 / 100.0:
        raise ContractError("sensor co-located with a target")
    phi = rss_model(dists)
    if scn.noise_sigma > 0:
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0x505F49]))
        phi = phi + rng.normal(0.0, scn.noise_sigma, size=phi.shape)
    return phi


def _mismatch(phi: np.ndarray, layouts: np.ndarray, sensors: np.ndarray) -> np.ndarray:
    """Squared RSS mismatch summed over targets: `phi` (measurements) and
    `sensors` (positions) broadcast against the (..., N_t, 3) `layouts`. The
    distances are norms over the last axis, computed as np.linalg.norm does."""
    d = layouts - sensors
    residual = phi - rss_model(np.sqrt(_sum(d * d, axis=-1)))
    return _sum(residual * residual, axis=-1)


def system_error(scn: WsnScenario, phi: np.ndarray, agent_states: np.ndarray) -> float:
    """Estimation error at the mean agent state (one state per sensor)."""
    states = np.asarray(agent_states, dtype=float)
    if states.shape != (scn.num_sensors, scn.dim):
        raise ContractError(
            f"expected ({scn.num_sensors}, {scn.dim}) agent states, got {states.shape}"
        )
    return WsnObjectiveSet(scn, phi).eval_global(states.mean(axis=0))


def floored_means(errors: dict[int, list[float]]) -> dict[int, float]:
    """Mean final error per target count, each error floored at SUCCESS_ERROR:
    depths below it are all "solved", and their differences are numerical
    floor noise, so they must not order one target count after another."""
    return {nt: float(np.mean(np.maximum(errs, SUCCESS_ERROR))) for nt, errs in errors.items()}


@dataclass(frozen=True)
class WsnObjectiveSet:
    """The localization task as the engine's objective set: one local
    objective per sensor-agent, reading each decision vector as N_t 3-D targets."""

    scenario: WsnScenario
    phi: np.ndarray = field(repr=False)

    @property
    def num_agents(self) -> int:
        return self.scenario.num_sensors

    @property
    def dim(self) -> int:
        return self.scenario.dim

    @property
    def lower(self) -> np.ndarray:
        return np.zeros(self.dim)

    @property
    def upper(self) -> np.ndarray:
        return np.tile(np.asarray(AREA, dtype=float), self.scenario.num_targets)

    def eval_local_batch(self, agent: int, xs: np.ndarray) -> np.ndarray:
        """Squared RSS mismatch of sensor `agent` at each row of an (M, dim)
        batch of candidate layouts."""
        scn = self.scenario
        if not 0 <= agent < scn.num_sensors:
            raise ContractError(f"sensor index {agent} out of range")
        layouts = checked_points(xs, 2, scn.dim).reshape(-1, scn.num_targets, 3)
        return _mismatch(self.phi[agent], layouts, scn.sensor_positions[agent])

    def eval_all(self, xs: np.ndarray) -> np.ndarray:
        """Every sensor at once: row block i of an (n, M, dim) batch goes to
        sensor i, giving (n, M) values equal bit for bit to
        eval_local_batch(i, xs[i])."""
        scn = self.scenario
        xs = checked_points(xs, 3, scn.dim)
        if len(xs) != scn.num_sensors:
            raise ContractError(f"expected ({scn.num_sensors}, M, {scn.dim}) batch, got {xs.shape}")
        layouts = xs.reshape(*xs.shape[:2], scn.num_targets, 3)
        return _mismatch(self.phi[:, None, :], layouts, scn.sensor_positions[:, None, None, :])

    def eval_global(self, x: np.ndarray) -> float:
        """Average local objective; the offline estimation-error functional."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 1:
            raise ContractError("global objective takes one decision vector")
        every_sensor = x[None, None, :].repeat(self.scenario.num_sensors, axis=0)
        return float(self.eval_all(every_sensor).mean())
