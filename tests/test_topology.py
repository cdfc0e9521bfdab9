from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lacmas.errors import ConfigError
from lacmas.topology import (
    CommGraph,
    build_explicit,
    build_random_connected,
    build_ring,
    validate,
)


def bfs_component_size(graph: CommGraph, start: int = 0) -> int:
    """Independent connectivity oracle."""
    seen = {start}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        for nb in graph.neighbor_lists[node]:
            if nb not in seen:
                seen.add(nb)
                queue.append(nb)
    return len(seen)


def test_ring4_every_node_has_two_neighbors():
    g = build_ring(4)
    assert all(len(g.neighbors(i)) == 2 for i in range(4))


def test_ring3_is_complete_triangle():
    g = build_ring(3)
    assert g.neighbor_lists == ((1, 2), (0, 2), (0, 1))


def test_ring20_edge_count_and_connectivity():
    g = build_ring(20)
    assert g.num_agents == 20
    assert g.num_directed_edges() // 2 == 20
    assert bfs_component_size(g) == 20


def test_ring_rejects_small_n():
    with pytest.raises(ConfigError):
        build_ring(2)


def test_random_zero_prob_yields_spanning_tree():
    g = build_random_connected(5, 0.0, seed=9)
    assert g.num_directed_edges() // 2 == 4
    assert bfs_component_size(g) == 5


def test_random_full_prob_yields_complete_graph():
    g = build_random_connected(5, 1.0, seed=9)
    assert g.num_directed_edges() // 2 == 5 * 4 // 2
    assert all(len(g.neighbors(i)) == 4 for i in range(5))


def test_random_generation_is_deterministic():
    a = build_random_connected(12, 0.2, seed=42)
    b = build_random_connected(12, 0.2, seed=42)
    assert a.neighbor_lists == b.neighbor_lists


def test_random_rejects_bad_edge_prob():
    with pytest.raises(ConfigError):
        build_random_connected(5, 1.5, seed=0)


def test_validate_passes_on_ring(ring4):
    assert validate(ring4).ok


def test_validate_flags_disconnected_graph():
    g = CommGraph(num_agents=4, neighbor_lists=((1,), (0,), (3,), (2,)))
    report = validate(g)
    assert not report.ok
    assert "connectivity" in report.violation


def test_validate_flags_asymmetric_lists():
    g = CommGraph(num_agents=2, neighbor_lists=((1,), ()))
    report = validate(g)
    assert not report.ok
    assert "symmetry" in report.violation


def test_validate_flags_self_loop():
    g = CommGraph(num_agents=2, neighbor_lists=((0, 1), (0,)))
    report = validate(g)
    assert not report.ok
    assert "self-loop" in report.violation


def test_explicit_edge_list_roundtrip():
    g = build_explicit(4, [(0, 1), (1, 2), (2, 3)])
    assert validate(g).ok
    assert g.neighbors(1) == (0, 2)


def test_explicit_rejects_disconnected():
    with pytest.raises(ConfigError):
        build_explicit(4, [(0, 1), (2, 3)])


@settings(max_examples=40, deadline=None)
@given(n=st.integers(3, 30))
def test_ring_always_validates_with_n_edges(n):
    g = build_ring(n)
    assert validate(g).ok
    assert g.num_directed_edges() // 2 == n


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 20), p=st.floats(0.0, 1.0), seed=st.integers(0, 2**31 - 1))
def test_random_graphs_always_validate(n, p, seed):
    g = build_random_connected(n, p, seed)
    assert validate(g).ok
    assert bfs_component_size(g) == n
