"""Runtime verification of the consensus-preservation conditions.

The check is a diagnostic over snapshots: the mixing matrix must stay
nonnegative, row-stochastic, and zero off the graph pattern. The other
condition, an effective perturbation (the residual between consecutive stacked
states and their mixed predecessors) that decays on a converging run, is
measured by the engine as RunReport.xi_norm_trace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .topology import CommGraph

ROW_SUM_CHECK_TOL = 1e-9


@dataclass(frozen=True)
class AdmissibilityReport:
    row_stochastic: bool
    max_row_deviation: float
    nonnegative: bool
    min_entry: float
    graph_compatible: bool
    first_violation: tuple[int, int] | None

    @property
    def passed(self) -> bool:
        return self.row_stochastic and self.nonnegative and self.graph_compatible


def check_admissibility(matrix: np.ndarray, graph: CommGraph) -> AdmissibilityReport:
    """Verify nonnegativity, row sums, and graph compatibility of a mixing matrix."""
    a = np.asarray(matrix, dtype=float)
    n = graph.num_agents
    if a.shape != (n, n):
        raise ContractError(f"matrix shape {a.shape} does not match {n} agents")

    row_dev = float(np.abs(a.sum(axis=1) - 1.0).max())
    min_entry = float(a.min())

    first_violation = None
    offenders = np.argwhere((~graph.allowed) & (a != 0.0))
    if len(offenders):
        first_violation = (int(offenders[0][0]), int(offenders[0][1]))

    return AdmissibilityReport(
        row_stochastic=row_dev <= ROW_SUM_CHECK_TOL,
        max_row_deviation=row_dev,
        nonnegative=min_entry >= 0.0,
        min_entry=min_entry,
        graph_compatible=first_violation is None,
        first_violation=first_violation,
    )
