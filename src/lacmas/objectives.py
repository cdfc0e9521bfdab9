"""Distributed black-box benchmark suite.

Each agent i owns a local objective f_i(x) = g(x - o_i), where g is one of ten
base families and o_i is the agent's shift vector. The global objective is the
average of the locals; it exists for offline evaluation only and is never
handed to an agent during optimization.

Base families are normalized so that g(0) = 0 and g(z) >= 0 everywhere; all
"shifted" structure lives in the per-spec / per-agent shift vectors, which
keeps the analytic-optimum oracle for the sphere exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError

_sum = np.add.reduce

FAMILIES = (
    "sphere",
    "elliptic",
    "schwefel_1_2",
    "rosenbrock",
    "rastrigin",
    "ackley",
    "griewank",
    "rotated_rastrigin",
    "rotated_elliptic",
    "shifted_rosenbrock",
)

_ROTATED = {"rotated_rastrigin", "rotated_elliptic"}
# Families whose suite entry carries a nonzero base shift o*; the others keep
# their optimum pinned to the origin (before per-agent heterogeneity).
_BASE_SHIFTED = {"shifted_rosenbrock", "rotated_rastrigin", "rotated_elliptic"}

DEFAULT_BOUND = 100.0
_BASE_SHIFT_HALF_WIDTH = 20.0


@dataclass(frozen=True)
class BenchmarkSpec:
    """One distributed benchmark instance.

    shifts is an (N, D) array whose row i is agent i's shift: the base shift
    o* for every agent of a homogeneous instance, o* + eta_i with eta_i
    componentwise uniform in [-hetero_sigma, +hetero_sigma] for a
    heterogeneous one.
    """

    family: str
    dim: int
    num_agents: int
    shifts: np.ndarray
    bound: float = DEFAULT_BOUND
    rotation: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        # The box is [-bound, bound]: zero leaves it no width, a negative
        # bound turns it inside out, and either makes every shift look wrong.
        if not self.bound > 0:
            raise ContractError(f"bound must be positive, got {self.bound!r}")
        if self.family not in FAMILIES:
            raise ContractError(f"unknown family {self.family!r}")
        if self.shifts.shape != (self.num_agents, self.dim):
            raise ContractError(
                f"shifts shape {self.shifts.shape} != ({self.num_agents}, {self.dim})"
            )
        if np.abs(self.shifts).max(initial=0.0) > self.bound:
            raise ContractError("shift outside box bounds")

    @property
    def lower(self) -> np.ndarray:
        return np.full(self.dim, -self.bound)

    @property
    def upper(self) -> np.ndarray:
        return np.full(self.dim, self.bound)

    def eval_local_batch(self, agent: int, xs: np.ndarray) -> np.ndarray:
        """f_i evaluated row-wise over an (M, D) batch."""
        if not 0 <= agent < self.num_agents:
            raise ContractError(f"agent index {agent} out of range")
        z = checked_points(xs, 2, self.dim) - self.shifts[agent]
        if self.rotation is not None:
            z = z @ self.rotation.T
        return _FAMILY_FUNCTIONS[self.family](z)

    def eval_all(self, xs: np.ndarray) -> np.ndarray:
        """Every agent at once: row block i of an (N, M, D) batch goes to f_i,
        giving (N, M) values equal bit for bit to eval_local_batch(i, xs[i])."""
        xs = checked_points(xs, 3, self.dim)
        n, m, d = xs.shape
        if n != self.num_agents:
            raise ContractError(f"expected {self.num_agents} row blocks, got {n}")
        z = xs - self.shifts[:, None, :]
        if self.rotation is not None:
            # One (M, D) product per agent, the shape eval_local_batch uses: a
            # single stacked product may round differently inside BLAS.
            rot_t = self.rotation.T
            z = np.stack([z_i @ rot_t for z_i in z])
        return _FAMILY_FUNCTIONS[self.family](z.reshape(n * m, d)).reshape(n, m)

    def eval_global(self, x: np.ndarray) -> float:
        """Average of the local objectives; offline metric only."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ContractError(f"expected one ({self.dim},) point, got {x.shape}")
        return float(self.eval_all(x[None, None, :].repeat(self.num_agents, axis=0)).mean())


def checked_points(xs: np.ndarray, ndim: int, dim: int) -> np.ndarray:
    """xs as a float array of ndim axes whose last one is dim, all finite.

    Every objective checks its evaluation points through this, so a NaN or
    inf point raises instead of scoring NaN or inf.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != ndim or xs.shape[-1] != dim:
        raise ContractError(f"expected a {ndim}-axis batch of {dim}-vectors, got {xs.shape}")
    if not math.isfinite(float(_sum(xs, axis=None))):
        raise ContractError("non-finite evaluation point")
    return xs


# Base functions g: (M, D) -> (M,), each with g(0) = 0 and g >= 0. Row sums and
# products call the ufunc reductions that ndarray.sum and .prod wrap.

def _sphere(z):
    return _sum(z * z, axis=1)


def _elliptic(z):
    d = z.shape[1]
    if d == 1:
        return z[:, 0] ** 2
    coef = 1e6 ** (np.arange(d) / (d - 1))
    return _sum(coef * z * z, axis=1)


def _schwefel_1_2(z):
    partial = np.cumsum(z, axis=1)
    return _sum(partial * partial, axis=1)


def _rosenbrock(z):
    # Optimum moved to the origin: substitute y = z + 1 in the classic valley.
    if z.shape[1] == 1:
        return z[:, 0] ** 2
    y = z + 1.0
    return _sum(100.0 * (y[:, 1:] - y[:, :-1] ** 2) ** 2 + (y[:, :-1] - 1.0) ** 2, axis=1)


def _rastrigin(z):
    return _sum(z * z - 10.0 * np.cos(2.0 * np.pi * z) + 10.0, axis=1)


def _ackley(z):
    d = z.shape[1]
    a = -20.0 * np.exp(-0.2 * np.sqrt(_sum(z * z, axis=1) / d))
    b = -np.exp(_sum(np.cos(2.0 * np.pi * z), axis=1) / d)
    return a + b + 20.0 + np.e


def _griewank(z):
    d = z.shape[1]
    s = _sum(z * z, axis=1) / 4000.0
    p = np.multiply.reduce(np.cos(z / np.sqrt(np.arange(1, d + 1))), axis=1)
    return s - p + 1.0


# Family name -> base function g; the rotated and shifted variants reuse the
# plain function on their transformed argument.
_FAMILY_FUNCTIONS = {
    "sphere": _sphere,
    "elliptic": _elliptic,
    "schwefel_1_2": _schwefel_1_2,
    "rosenbrock": _rosenbrock,
    "rastrigin": _rastrigin,
    "ackley": _ackley,
    "griewank": _griewank,
    "rotated_rastrigin": _rastrigin,
    "rotated_elliptic": _elliptic,
    "shifted_rosenbrock": _rosenbrock,
}


def random_rotation(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Orthogonal matrix from the QR factorization of a Gaussian sample."""
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


def make_spec(
    family: str,
    num_agents: int,
    dim: int,
    hetero_sigma: float,
    seed: int,
    bound: float = DEFAULT_BOUND,
) -> BenchmarkSpec:
    """Build one benchmark instance; deterministic for a fixed seed."""
    if family not in FAMILIES:
        raise ContractError(f"unknown family {family!r}")
    if num_agents < 1 or dim < 1:
        raise ContractError("num_agents and dim must be positive")
    # 2 * hetero_sigma is the width of the uniform draw below.
    if not 0 <= 2 * hetero_sigma < math.inf:
        raise ContractError(f"hetero_sigma must be nonnegative and finite, got {hetero_sigma}")

    rng = np.random.default_rng(np.random.SeedSequence([seed, FAMILIES.index(family)]))
    if family in _BASE_SHIFTED:
        base = rng.uniform(-_BASE_SHIFT_HALF_WIDTH, _BASE_SHIFT_HALF_WIDTH, size=dim)
    else:
        base = np.zeros(dim)
    if hetero_sigma > 0:
        eta = rng.uniform(-hetero_sigma, hetero_sigma, size=(num_agents, dim))
        shifts = base + eta
    else:
        shifts = np.tile(base, (num_agents, 1))
    rotation = random_rotation(dim, rng) if family in _ROTATED else None
    return BenchmarkSpec(
        family=family,
        dim=dim,
        num_agents=num_agents,
        shifts=shifts,
        bound=bound,
        rotation=rotation,
    )
