"""Fixed communication graphs for the agent network.

A CommGraph checks itself when it is built, so a graph that exists is valid,
and it is never mutated afterwards; only the cooperation weights on top of it
adapt during a run. Neighbor lists exclude the node itself. The graph also
owns the adjacency facts derived from the lists: the closed neighborhoods
(neighbors plus self) and the directed-edge arrays, each computed once.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class CommGraph:
    """Undirected connected graph over agents 0..num_agents-1.

    neighbor_lists[i] is the strictly increasing tuple of agents adjacent to
    i, never containing i itself. Construction raises ConfigError("invalid
    graph: ...") on any other input.
    """

    num_agents: int
    neighbor_lists: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        violation = _violation(self.num_agents, self.neighbor_lists)
        if violation:
            raise ConfigError(f"invalid graph: {violation}")

    @cached_property
    def neighborhoods(self) -> tuple[tuple[int, ...], ...]:
        """Each agent's closed neighborhood, its neighbors plus itself, in
        increasing order."""
        return tuple(tuple(sorted((*nbrs, i))) for i, nbrs in enumerate(self.neighbor_lists))

    @cached_property
    def edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (src, dst) arrays of the directed edges i -> k, in
        neighbor-list order."""
        src = np.repeat(np.arange(self.num_agents), [len(nb) for nb in self.neighbor_lists])
        dst = np.array([k for nbrs in self.neighbor_lists for k in nbrs], dtype=src.dtype)
        src.setflags(write=False)
        dst.setflags(write=False)
        return src, dst

    def num_directed_edges(self) -> int:
        return len(self.edges[0])


def _violation(n: int, lists) -> str | None:
    """The first invariant `lists` breaks as neighbor lists of n agents, None
    if it breaks none."""
    if n < 1 or len(lists) != n:
        return "shape: neighbor_lists length != num_agents"
    for i, nbrs in enumerate(lists):
        if i in nbrs:
            return f"self-loop: {i} in its own neighbor list"
        if any(a >= b for a, b in zip(nbrs, nbrs[1:])):
            return f"order: N({i}) = {tuple(nbrs)} does not strictly increase"
        for j in nbrs:
            if not 0 <= j < n:
                return f"range: neighbor {j} of {i} out of range"
            if i not in lists[j]:
                return f"symmetry: {j} in N({i}) but {i} not in N({j})"
    if len(_components(lists)) > 1:
        return "connectivity: graph has more than one component"
    return None


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
    """Graph from an explicit undirected edge list."""
    adj: list[set[int]] = [set() for _ in range(n)]
    for (a, b) in edges:
        # A negative index would silently wrap around in adj.
        if not (0 <= a < n and 0 <= b < n):
            raise ConfigError(f"edge ({a}, {b}) out of range for {n} agents")
        adj[a].add(b)
        adj[b].add(a)
    return CommGraph(num_agents=n, neighbor_lists=tuple(tuple(sorted(s)) for s in adj))


def _components(adj) -> list[list[int]]:
    """The connected components of adjacency rows adj[i] (any iterables)."""
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
