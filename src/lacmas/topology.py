"""Fixed communication graphs for the agent network.

The graph is built once, validated, and never mutated afterwards; only the
cooperation weights on top of it adapt during a run. Neighbor sets exclude the
node itself; the self-term is reintroduced at fusion time.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class CommGraph:
    """Undirected connected graph over agents 0..num_agents-1.

    neighbor_lists[i] is the sorted tuple of agents adjacent to i, never
    containing i itself.
    """

    num_agents: int
    neighbor_lists: tuple[tuple[int, ...], ...]

    def neighbors(self, i: int) -> tuple[int, ...]:
        return self.neighbor_lists[i]

    def closed_neighborhood(self, i: int) -> tuple[int, ...]:
        """Neighbors of i plus i itself, sorted."""
        return tuple(sorted((*self.neighbor_lists[i], i)))

    def num_directed_edges(self) -> int:
        return sum(len(nbrs) for nbrs in self.neighbor_lists)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violation: str | None = None


def build_ring(n: int) -> CommGraph:
    """Ring of n agents; each agent i is adjacent to (i-1) mod n and (i+1) mod n."""
    if n < 3:
        raise ConfigError(f"ring topology requires n >= 3, got {n}")
    lists = tuple(tuple(sorted({(i - 1) % n, (i + 1) % n})) for i in range(n))
    return CommGraph(num_agents=n, neighbor_lists=lists)


def build_random_connected(n: int, edge_prob: float, seed: int) -> CommGraph:
    """Erdos-Renyi sample repaired to connectivity.

    Each undirected edge is kept with probability edge_prob. If the sample is
    disconnected, the components are linked by a random spanning tree (one edge
    per extra component) rather than resampled, so construction time is bounded
    and the result is a pure function of (n, edge_prob, seed).
    """
    if n < 2:
        raise ConfigError(f"random topology requires n >= 2, got {n}")
    if not 0.0 <= edge_prob <= 1.0:
        raise ConfigError(f"edge_prob must be in [0, 1], got {edge_prob}")

    rng = np.random.default_rng(seed)
    adj: list[set[int]] = [set() for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < edge_prob:
                adj[i].add(j)
                adj[j].add(i)

    comps = _components(adj)
    if len(comps) > 1:
        # Attach every component after the first to a uniformly chosen node of
        # one of the already-linked components.
        order = rng.permutation(len(comps))
        linked = list(comps[order[0]])
        for ci in order[1:]:
            a = int(rng.choice(linked))
            b = int(rng.choice(list(comps[ci])))
            adj[a].add(b)
            adj[b].add(a)
            linked.extend(comps[ci])

    lists = tuple(tuple(sorted(s)) for s in adj)
    return CommGraph(num_agents=n, neighbor_lists=lists)


def build_explicit(n: int, edges: list[tuple[int, int]]) -> CommGraph:
    """Graph from an explicit undirected edge list; validated before return."""
    if n < 1:
        raise ConfigError(f"need at least one agent, got {n}")
    adj: list[set[int]] = [set() for _ in range(n)]
    for (a, b) in edges:
        if not (0 <= a < n and 0 <= b < n):
            raise ConfigError(f"edge ({a}, {b}) out of range for {n} agents")
        if a == b:
            raise ConfigError(f"self-loop ({a}, {b}) not allowed")
        adj[a].add(b)
        adj[b].add(a)
    graph = CommGraph(num_agents=n, neighbor_lists=tuple(tuple(sorted(s)) for s in adj))
    report = validate(graph)
    if not report.ok:
        raise ConfigError(f"explicit edge list rejected: {report.violation}")
    return graph


def validate(graph: CommGraph) -> ValidationReport:
    """Check symmetry, absence of self-loops, and connectivity.

    Returns the first violated invariant; passing means the graph is safe to
    share read-only across agent workers.
    """
    n = graph.num_agents
    if n < 1 or len(graph.neighbor_lists) != n:
        return ValidationReport(False, "shape: neighbor_lists length != num_agents")
    for i, nbrs in enumerate(graph.neighbor_lists):
        if i in nbrs:
            return ValidationReport(False, f"self-loop: {i} in its own neighbor list")
        for j in nbrs:
            if not 0 <= j < n:
                return ValidationReport(False, f"range: neighbor {j} of {i} out of range")
            if i not in graph.neighbor_lists[j]:
                return ValidationReport(False, f"symmetry: {j} in N({i}) but {i} not in N({j})")
    if n > 1 and not _is_connected(graph):
        return ValidationReport(False, "connectivity: graph has more than one component")
    return ValidationReport(True)


def _is_connected(graph: CommGraph) -> bool:
    seen = {0}
    queue = deque([0])
    while queue:
        i = queue.popleft()
        for j in graph.neighbor_lists[i]:
            if j not in seen:
                seen.add(j)
                queue.append(j)
    return len(seen) == graph.num_agents


def _components(adj: list[set[int]]) -> list[list[int]]:
    n = len(adj)
    seen = [False] * n
    comps = []
    for start in range(n):
        if seen[start]:
            continue
        comp = [start]
        seen[start] = True
        queue = deque([start])
        while queue:
            i = queue.popleft()
            for j in adj[i]:
                if not seen[j]:
                    seen[j] = True
                    comp.append(j)
                    queue.append(j)
        comps.append(comp)
    return comps
