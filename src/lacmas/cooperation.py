"""Neighbor descriptors, weight projection, and mixing-matrix assembly.

Cooperation weights live on the closed neighborhood of each agent (neighbors
plus self). Whatever a guidance provider proposes, project_weights turns it
into a nonnegative, graph-compatible row that sums to one, so the assembled
mixing matrix is admissible at every iteration by construction. The engine
fuses the published states as matrix @ states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .topology import CommGraph

ROW_SUM_TOL = 1e-12


@dataclass(frozen=True)
class NeighborDescriptor:
    """Window means of a neighbor's published trajectory statistics."""

    avg_fitness: float
    avg_divergence: float
    avg_state_delta: float

    def __post_init__(self):
        for name in ("avg_fitness", "avg_divergence", "avg_state_delta"):
            if not math.isfinite(getattr(self, name)):
                raise ContractError(f"{name} must be finite")
        if self.avg_divergence < 0 or self.avg_state_delta < 0:
            raise ContractError("divergence and state-delta means must be nonnegative")


@dataclass(frozen=True)
class CooperationWeights:
    """One row of the mixing matrix: weights over the owner's closed neighborhood."""

    owner: int
    entries: dict[int, float]

    def __post_init__(self):
        total = sum(self.entries.values())
        if any(w < 0 for w in self.entries.values()):
            raise ContractError("negative cooperation weight")
        if abs(total - 1.0) > ROW_SUM_TOL:
            raise ContractError(f"row sum {total!r} != 1")

    def weight(self, k: int) -> float:
        return self.entries.get(k, 0.0)


def build_descriptor(history, window: int) -> NeighborDescriptor:
    """Summarize the most recent `window` records of a neighbor's history.

    `history` is any object exposing recent(window) -> list of records with
    best_fitness / divergence / state_delta fields (see engine.AgentHistory).
    """
    records = history.recent(window)
    if not records:
        raise ContractError("descriptor requires a non-empty history")
    return NeighborDescriptor(
        avg_fitness=float(np.mean([r.best_fitness for r in records])),
        avg_divergence=float(np.mean([r.divergence for r in records])),
        avg_state_delta=float(np.mean([r.state_delta for r in records])),
    )


def project_weights(raw: dict[int, float], graph: CommGraph, owner: int) -> CooperationWeights:
    """Project arbitrary raw weights onto the feasible simplex for `owner`.

    Keys outside the closed neighborhood are dropped, missing keys count as
    zero, negatives and non-finite values clamp to zero. A degenerate all-zero
    row falls back to the uniform distribution so information keeps flowing.
    """
    members = graph.closed_neighborhood(owner)
    clamped = {}
    for k in members:
        w = raw.get(k, 0.0)
        if not math.isfinite(w) or w < 0:
            w = 0.0
        clamped[k] = float(w)
    total = sum(clamped.values())
    if abs(total - 1.0) <= ROW_SUM_TOL:
        # Already on the feasible simplex: return unchanged (idempotence).
        entries = clamped
    elif total <= 0.0:
        u = 1.0 / len(members)
        entries = {k: u for k in members}
    else:
        entries = {k: w / total for k, w in clamped.items()}
        # Absorb rounding so the row-sum invariant holds exactly enough.
        drift = sum(entries.values()) - 1.0
        if drift != 0.0:
            top = max(entries, key=entries.get)
            entries[top] -= drift
    return CooperationWeights(owner=owner, entries=entries)


def assemble_mixing_matrix(all_weights: list[CooperationWeights], graph: CommGraph) -> np.ndarray:
    """Dense N x N matrix whose row i holds agent i's cooperation weights."""
    n = graph.num_agents
    if len(all_weights) != n:
        raise ContractError(f"expected {n} weight rows, got {len(all_weights)}")
    matrix = np.zeros((n, n))
    for i, row in enumerate(all_weights):
        if row.owner != i:
            raise ContractError(f"row {i} owned by agent {row.owner}")
        for k, w in row.entries.items():
            matrix[i, k] = w
    return matrix


def uniform_weights(graph: CommGraph, owner: int) -> CooperationWeights:
    members = graph.closed_neighborhood(owner)
    u = 1.0 / len(members)
    return CooperationWeights(owner=owner, entries={k: u for k in members})
