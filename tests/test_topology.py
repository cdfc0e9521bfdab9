from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lacmas.cooperation import assemble_mixing_matrix, check_admissibility, project_weights
from lacmas.errors import ConfigError
from lacmas.topology import CommGraph, build_explicit, build_random_connected, build_ring


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
    assert all(len(g.neighbor_lists[i]) == 2 for i in range(4))


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
    assert all(len(g.neighbor_lists[i]) == 4 for i in range(5))


def test_random_generation_is_deterministic():
    a = build_random_connected(12, 0.2, seed=42)
    b = build_random_connected(12, 0.2, seed=42)
    assert a.neighbor_lists == b.neighbor_lists


def test_random_rejects_bad_edge_prob():
    with pytest.raises(ConfigError):
        build_random_connected(5, 1.5, seed=0)


# A CommGraph validates itself when it is built: invalid lists never make a
# graph, and the error names the invariant they break.


def test_validate_passes_on_ring(ring4):
    assert CommGraph(4, ring4.neighbor_lists) == ring4


def test_validate_flags_disconnected_graph():
    with pytest.raises(ConfigError, match="invalid graph: connectivity"):
        CommGraph(num_agents=4, neighbor_lists=((1,), (0,), (3,), (2,)))


def test_validate_flags_asymmetric_lists():
    with pytest.raises(ConfigError, match="invalid graph: symmetry"):
        CommGraph(num_agents=2, neighbor_lists=((1,), ()))


def test_validate_flags_self_loop():
    with pytest.raises(ConfigError, match="invalid graph: self-loop"):
        CommGraph(num_agents=2, neighbor_lists=((0, 1), (0,)))


@pytest.mark.parametrize(
    "num_agents, lists, word",
    [
        (0, (), "shape"),
        (3, ((1, 2), (0, 2)), "shape"),
        (2, ((2,), (0,)), "range"),
        (2, ((-1,), (0,)), "range"),
    ],
)
def test_validate_flags_shape_and_range(num_agents, lists, word):
    with pytest.raises(ConfigError, match=f"invalid graph: {word}"):
        CommGraph(num_agents, lists)


@pytest.mark.parametrize(
    "lists",
    [
        # A duplicate edge: it used to pass, and a run on it then counted an
        # admissibility violation every round and paid for the edge twice.
        ((1, 1, 2), (0, 0, 2), (0, 1)),
        ((2, 1), (0, 2), (0, 1)),
    ],
)
def test_duplicate_or_unsorted_neighbor_lists_fail_to_build(lists):
    with pytest.raises(ConfigError, match="invalid graph: order"):
        CommGraph(3, lists)


def test_explicit_edge_list_roundtrip():
    g = build_explicit(4, [(0, 1), (1, 2), (2, 3)])
    assert g.neighbor_lists == ((1,), (0, 2), (1, 3), (2,))
    assert g.neighbor_lists[1] == (0, 2)


def test_explicit_rejects_disconnected():
    with pytest.raises(ConfigError):
        build_explicit(4, [(0, 1), (2, 3)])


def test_explicit_rejects_self_loop_and_out_of_range_edges():
    with pytest.raises(ConfigError, match="invalid graph: self-loop"):
        build_explicit(2, [(0, 1), (1, 1)])
    with pytest.raises(ConfigError, match="out of range"):
        build_explicit(2, [(0, -1)])


def test_derived_arrays_follow_the_lists():
    g = build_explicit(4, [(0, 1), (1, 2), (2, 3), (0, 2)])
    assert g.neighborhoods == ((0, 1, 2), (0, 1, 2), (0, 1, 2, 3), (2, 3))
    src, dst = g.edges
    assert list(zip(src.tolist(), dst.tolist())) == [
        (i, k) for i, nbrs in enumerate(g.neighbor_lists) for k in nbrs
    ]
    assert g.num_directed_edges() == 8
    # The uniform matrix fills exactly the closed neighborhoods.
    expected = [[k in g.neighborhoods[i] for k in range(4)] for i in range(4)]
    assert (assemble_mixing_matrix(g) != 0.0).tolist() == expected
    # Computed once and shared, so nobody may write to them.
    assert g.edges is g.edges
    assert not any(a.flags.writeable for a in (src, dst))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(3, 30))
def test_ring_always_validates_with_n_edges(n):
    g = build_ring(n)
    assert CommGraph(n, g.neighbor_lists) == g
    assert g.num_directed_edges() // 2 == n


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 20), p=st.floats(0.0, 1.0), seed=st.integers(0, 2**31 - 1))
def test_random_graphs_always_validate(n, p, seed):
    g = build_random_connected(n, p, seed)
    assert CommGraph(n, g.neighbor_lists) == g
    assert bfs_component_size(g) == n


@st.composite
def neighbor_lists(draw):
    """Lists of a random connected graph on 1..6 agents, some of them then
    broken in one list: an entry repeated, the list reversed, or the list
    replaced by an arbitrary one (out of range, a self-loop, one-sided)."""
    n = draw(st.integers(1, 6))
    agents = st.integers(0, n - 1)
    # A random spanning tree plus random extra edges.
    edges = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}
    edges |= {(a, b) for a, b in draw(st.sets(st.tuples(agents, agents), max_size=n)) if a != b}
    lists = [sorted({b for a, b in edges if a == i} | {a for a, b in edges if b == i})
             for i in range(n)]
    i = draw(agents)
    how = draw(st.sampled_from(["keep", "keep", "repeat", "reverse", "replace"]))
    if how == "repeat" and lists[i]:
        lists[i] = sorted([*lists[i], draw(st.sampled_from(lists[i]))])
    elif how == "reverse":
        lists[i] = lists[i][::-1]
    elif how == "replace":
        lists[i] = draw(st.lists(st.integers(-1, n), max_size=n + 1))
    return n, tuple(tuple(nbrs) for nbrs in lists)


@settings(max_examples=300, deadline=None)
@given(graph=neighbor_lists(), data=st.data())
def test_a_graph_either_fails_to_build_or_admits_every_projected_row(graph, data):
    n, lists = graph
    try:
        g = CommGraph(n, lists)
    except ConfigError as exc:
        assert str(exc).startswith("invalid graph: ")
        return
    matrix = assemble_mixing_matrix(g)
    # The per-row rule, bit for bit: 1 / |closed neighborhood| on it, 0 off it.
    for i, members in enumerate(g.neighborhoods):
        assert matrix[i].tolist() == [1.0 / len(members) if k in members else 0.0 for k in range(n)]
    assert check_admissibility(matrix, g).passed
    weights = st.floats(allow_nan=False, allow_infinity=False)
    for i, nbrs in enumerate(g.neighbor_lists):
        size = len(nbrs) + 1
        raw = data.draw(st.lists(weights, min_size=size, max_size=size))
        matrix[i] = project_weights(raw, g, i)
    report = check_admissibility(matrix, g)
    assert report.passed, report
