"""Neighbor descriptors and the mixing matrix: assembly, weight projection
and the admissibility check.

Cooperation weights live on the closed neighborhood of each agent (neighbors
plus self), and the mixing matrix is their only copy: row i holds agent i's
weights. Whatever a guidance provider proposes, project_weights turns it into
a nonnegative, graph-compatible row that sums to one, so the mixing matrix is
admissible at every iteration by construction; check_admissibility verifies
it. The engine fuses the published states as matrix @ states. The other
consensus condition, an effective perturbation (the residual between
consecutive stacked states and their mixed predecessors) that decays on a
converging run, is measured by the engine as RunReport.xi_norm_trace.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import reduce
from operator import add

import numpy as np

from .errors import ContractError
from .topology import CommGraph

ROW_SUM_TOL = 1e-12
ROW_SUM_CHECK_TOL = 1e-9


def build_descriptor(history, window: int) -> np.ndarray:
    """Every agent's descriptor: the means of its fitness and divergence over
    the most recent `window` rounds, as an (N, 2) array.

    `history` is an engine.AgentHistory. The means reduce the contiguous,
    oldest-first last axis of an (N, 2, w) copy, rounding like np.mean.
    """
    records = history.recent(window)
    count = len(records)
    if not count:
        raise ContractError("descriptor requires a non-empty history")
    values = np.array([record[:2] for record in records]).transpose(2, 1, 0).copy()
    means = values.sum(axis=2) / count
    if not np.isfinite(means).all():
        raise ContractError("descriptor means must be finite")
    if (means[:, 1] < 0).any():
        raise ContractError("divergence means must be nonnegative")
    return means


def project_weights(raw: Sequence[float], graph: CommGraph, owner: int) -> np.ndarray:
    """Project a guidance answer onto the feasible simplex for `owner`.

    `raw` lists one weight per neighbor in graph.neighbor_lists[owner]
    order, then the self weight, as CoopGuidance.raw_weights does. Negatives
    and non-finite values clamp to zero. A degenerate all-zero row falls back
    to the uniform distribution so information keeps flowing. Returns the
    owner's dense row of the mixing matrix, zero off its closed neighborhood.
    """
    nbrs = graph.neighbor_lists[owner]
    if len(raw) != len(nbrs) + 1:
        raise ContractError(
            f"agent {owner} needs {len(nbrs) + 1} raw weights (neighbors, then self), "
            f"got {len(raw)}"
        )
    proposed = dict(zip((*nbrs, owner), raw))
    members = graph.neighborhoods[owner]
    # Left-to-right float sums in ascending agent order: numpy's pairwise sum
    # groups the additions differently and can change the last bit of a row,
    # and builtin sum() compensates its rounding from Python 3.12 on.
    clamped = []
    for k in members:
        w = proposed[k]
        clamped.append(float(w) if math.isfinite(w) and w >= 0 else 0.0)
    total = reduce(add, clamped, 0.0)
    if math.isinf(total):
        # Finite weights near the float limit overflow their sum; rescaled by
        # the largest, they keep their proportions instead of all becoming 0.
        top = max(clamped)
        clamped = [w / top for w in clamped]
        total = reduce(add, clamped, 0.0)
    if abs(total - 1.0) <= ROW_SUM_TOL:
        # Already on the feasible simplex: return unchanged (idempotence).
        weights = clamped
    elif total <= 0.0:
        weights = [1.0 / len(members)] * len(members)
    else:
        weights = [w / total for w in clamped]
        # Absorb rounding so the row-sum invariant holds exactly enough.
        drift = reduce(add, weights, 0.0) - 1.0
        if drift != 0.0:
            weights[weights.index(max(weights))] -= drift
    row = np.zeros(graph.num_agents)
    row[list(members)] = weights
    return row


def assemble_mixing_matrix(graph: CommGraph) -> np.ndarray:
    """The uniform N x N matrix a run starts from: row i spreads equal weight
    over agent i's closed neighborhood."""
    m = np.eye(graph.num_agents)
    m[graph.edges] = 1.0
    return m / m.sum(axis=1, keepdims=True)


@dataclass(frozen=True)
class AdmissibilityReport:
    max_row_deviation: float
    min_entry: float
    first_violation: tuple[int, int] | None  # first entry off the pattern, row-major

    @property
    def passed(self) -> bool:
        return (
            self.max_row_deviation <= ROW_SUM_CHECK_TOL
            and self.min_entry >= 0.0
            and self.first_violation is None
        )


# A row sum that overflows, or adds inf to -inf, reads inf or NaN and fails the check.
@np.errstate(over="ignore", invalid="ignore")
def check_admissibility(matrix: np.ndarray, graph: CommGraph) -> AdmissibilityReport:
    """Verify nonnegativity, row sums, and graph compatibility of a mixing matrix."""
    a = np.asarray(matrix, dtype=float)
    n = graph.num_agents
    if a.shape != (n, n):
        raise ContractError(f"matrix shape {a.shape} does not match {n} agents")
    off = a != 0.0
    off[graph.edges] = False
    np.fill_diagonal(off, False)
    offenders = np.argwhere(off)
    first_violation = tuple(map(int, offenders[0])) if len(offenders) else None
    return AdmissibilityReport(
        max_row_deviation=float(np.abs(a.sum(axis=1) - 1.0).max()),
        min_entry=float(a.min()),
        first_violation=first_violation,
    )
