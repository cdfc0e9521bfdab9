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

DEFAULT_P0 = -40.0
DEFAULT_D0 = 1.0
DEFAULT_PATH_LOSS_EXP = 3.0
DEFAULT_AREA = (50.0, 50.0, 20.0)
_PLACEMENT_RETRIES = 50


@dataclass(frozen=True)
class WsnScenario:
    sensor_positions: np.ndarray  # (n, 3)
    true_targets: np.ndarray  # (N_t, 3)
    p0: float = DEFAULT_P0
    d0: float = DEFAULT_D0
    path_loss_exp: float = DEFAULT_PATH_LOSS_EXP
    noise_sigma: float = 0.0
    area: tuple[float, float, float] = DEFAULT_AREA

    def __post_init__(self):
        if self.sensor_positions.ndim != 2 or self.sensor_positions.shape[1] != 3:
            raise ContractError("sensor_positions must be (n, 3)")
        if self.true_targets.ndim != 2 or self.true_targets.shape[1] != 3:
            raise ContractError("true_targets must be (N_t, 3)")
        if len(self.sensor_positions) < 1 or len(self.true_targets) < 1:
            raise ContractError("need at least one sensor and one target")
        if self.d0 <= 0 or self.path_loss_exp <= 0:
            raise ContractError("d0 and path-loss exponent must be positive")
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
    num_sensors: int,
    num_targets: int,
    seed: int,
    noise_sigma: float = 0.0,
    area: tuple[float, float, float] = DEFAULT_AREA,
    p0: float = DEFAULT_P0,
    d0: float = DEFAULT_D0,
    path_loss_exp: float = DEFAULT_PATH_LOSS_EXP,
) -> WsnScenario:
    """Jittered-grid sensor placement plus uniform interior targets.

    Regenerates the target draw (bounded retries) until every sensor-target
    distance clears d0/100, then freezes the geometry.
    """
    if num_sensors < 1 or num_targets < 1:
        raise ConfigError("need at least one sensor and one target")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x57534E]))
    area_arr = np.asarray(area, dtype=float)

    side = int(np.ceil(np.sqrt(num_sensors)))
    gx, gy = np.meshgrid(np.arange(side), np.arange(side))
    cells = np.stack([gx.ravel(), gy.ravel()], axis=1)[:num_sensors].astype(float)
    spacing = area_arr[:2] / side
    xy = (cells + 0.5) * spacing + rng.uniform(-0.2, 0.2, size=(num_sensors, 2)) * spacing
    z = rng.uniform(0.0, area_arr[2] * 0.25, size=(num_sensors, 1))
    sensors = np.hstack([xy, z])

    min_allowed = d0 / 100.0
    for _ in range(_PLACEMENT_RETRIES):
        targets = rng.uniform(0.15 * area_arr, 0.85 * area_arr, size=(num_targets, 3))
        dists = np.linalg.norm(targets[None, :, :] - sensors[:, None, :], axis=2)
        if dists.min() > min_allowed:
            return WsnScenario(
                sensor_positions=sensors,
                true_targets=targets,
                p0=p0,
                d0=d0,
                path_loss_exp=path_loss_exp,
                noise_sigma=noise_sigma,
                area=area,
            )
    raise ConfigError("degenerate geometry: could not separate sensors from targets")


def rss_model(scn: WsnScenario, distances: np.ndarray) -> np.ndarray:
    """Predicted RSS at the given distances (floored at d0/100)."""
    d = np.maximum(np.asarray(distances, dtype=float), scn.d0 / 100.0)
    return scn.p0 - 10.0 * scn.path_loss_exp * np.log10(d / scn.d0)


def gen_measurements(scn: WsnScenario, seed: int) -> np.ndarray:
    """RSS matrix phi of shape (n_sensors, N_t); deterministic per seed."""
    dists = np.linalg.norm(
        scn.true_targets[None, :, :] - scn.sensor_positions[:, None, :], axis=2
    )
    if dists.min() <= scn.d0 / 100.0:
        raise ContractError("sensor co-located with a target")
    phi = rss_model(scn, dists)
    if scn.noise_sigma > 0:
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0x505F49]))
        phi = phi + rng.normal(0.0, scn.noise_sigma, size=phi.shape)
    return phi


def decode_targets(scn: WsnScenario, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != scn.dim:
        raise ContractError(f"decision vector must have dimension {scn.dim}")
    return x.reshape(*x.shape[:-1], scn.num_targets, 3)


def local_objective_batch(
    scn: WsnScenario, phi: np.ndarray, sensor: int, xs: np.ndarray
) -> np.ndarray:
    """Squared RSS mismatch of sensor `sensor` at each row of an (M, dim) batch
    of candidate layouts."""
    if not 0 <= sensor < scn.num_sensors:
        raise ContractError(f"sensor index {sensor} out of range")
    layouts = decode_targets(scn, checked_points(xs, 2, scn.dim))  # (M, N_t, 3)
    return _mismatch(scn, phi[sensor], layouts, scn.sensor_positions[sensor])


def all_local_objectives(scn: WsnScenario, phi: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Every sensor's objective at once: row block i of an (n, M, dim) batch
    goes to sensor i, giving (n, M) values equal bit for bit to
    local_objective_batch(scn, phi, i, xs[i])."""
    xs = checked_points(xs, 3, scn.dim)
    if len(xs) != scn.num_sensors:
        raise ContractError(f"expected ({scn.num_sensors}, M, {scn.dim}) batch, got {xs.shape}")
    layouts = decode_targets(scn, xs)  # (n, M, N_t, 3)
    return _mismatch(scn, phi[:, None, :], layouts, scn.sensor_positions[:, None, None, :])


def _mismatch(
    scn: WsnScenario, phi: np.ndarray, layouts: np.ndarray, sensors: np.ndarray
) -> np.ndarray:
    """Squared RSS mismatch summed over targets: `phi` (measurements) and
    `sensors` (positions) broadcast against the (..., N_t, 3) `layouts`."""
    residual = phi - rss_model(scn, _norm_last_axis(layouts - sensors))
    return _sum(residual * residual, axis=-1)


def global_objective(scn: WsnScenario, phi: np.ndarray, x: np.ndarray) -> float:
    """Average local objective; the offline estimation-error functional."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ContractError("global objective takes one decision vector")
    every_sensor = x[None, None, :].repeat(scn.num_sensors, axis=0)
    return float(all_local_objectives(scn, phi, every_sensor).mean())


def _norm_last_axis(d: np.ndarray) -> np.ndarray:
    """Euclidean norm over the last axis, computed as np.linalg.norm does."""
    return np.sqrt(_sum(d * d, axis=-1))


def system_error(scn: WsnScenario, phi: np.ndarray, agent_states: np.ndarray) -> float:
    """Estimation error at the mean agent state (one state per sensor)."""
    states = np.asarray(agent_states, dtype=float)
    if states.shape != (scn.num_sensors, scn.dim):
        raise ContractError(
            f"expected ({scn.num_sensors}, {scn.dim}) agent states, got {states.shape}"
        )
    return global_objective(scn, phi, states.mean(axis=0))


@dataclass(frozen=True)
class WsnObjectiveSet:
    """Adapter exposing the localization task through the engine's objective
    interface (one local objective per sensor-agent)."""

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
        return np.tile(np.asarray(self.scenario.area, dtype=float), self.scenario.num_targets)

    def eval_local_batch(self, agent: int, xs: np.ndarray) -> np.ndarray:
        return local_objective_batch(self.scenario, self.phi, agent, xs)

    def eval_all(self, xs: np.ndarray) -> np.ndarray:
        return all_local_objectives(self.scenario, self.phi, xs)

    def eval_global(self, x: np.ndarray) -> float:
        return global_objective(self.scenario, self.phi, x)
