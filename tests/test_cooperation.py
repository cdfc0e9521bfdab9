import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lacmas.cooperation import (
    ROW_SUM_CHECK_TOL,
    assemble_mixing_matrix,
    build_descriptor,
    check_admissibility,
    project_weights,
)
from lacmas.engine import AgentHistory
from lacmas.errors import ContractError
from lacmas.topology import build_random_connected, build_ring


def as_raw(weights, graph, owner):
    """Weights keyed by agent, in the order guidance returns them: the owner's
    neighbors, then the owner."""
    return [weights[k] for k in (*graph.neighbor_lists[owner], owner)]


def history_from(rows):
    """A one-agent history of (fitness, divergence) rows."""
    h = AgentHistory(1)
    for fit, div in rows:
        h.append(np.array([[fit], [div], [0.0]]))
    return h


def test_descriptor_of_constant_history():
    h = history_from([(5.0, 2.0)] * 6)
    assert build_descriptor(h, window=4).tolist() == [[5.0, 2.0]]


def test_descriptor_window_larger_than_history():
    h = history_from([(1.0, 0.0), (3.0, 0.0)])
    d = build_descriptor(h, window=10)
    assert d[0, 0] == pytest.approx(2.0)


def test_descriptor_two_entry_mean():
    h = history_from([(4.0, 1.0), (6.0, 3.0)])
    d = build_descriptor(h, window=2)
    assert d.shape == (1, 2)
    assert d[0].tolist() == pytest.approx([5.0, 2.0])


def test_descriptor_requires_history():
    with pytest.raises(ContractError):
        build_descriptor(AgentHistory(3), window=5)


@pytest.mark.parametrize("row", [(np.inf, 0.0), (1.0, -1.0), (1.0, np.inf)])
def test_descriptor_rejects_non_finite_or_negative_means(row):
    with pytest.raises(ContractError):
        build_descriptor(history_from([row]), window=1)


def test_project_clamps_and_normalizes():
    g = build_ring(3)
    # Neighborhood of 0 is {0, 1, 2}; clamp -0.2 to 0, divide by 0.8.
    w = project_weights(as_raw({0: 0.5, 1: -0.2, 2: 0.3}, g, 0), g, owner=0)
    assert w[0] == pytest.approx(0.625)
    assert w[1] == 0.0
    assert w[2] == pytest.approx(0.375)


def test_project_all_zeros_falls_back_to_uniform():
    g = build_ring(3)
    w = project_weights([0.0, 0.0, 0.0], g, owner=0)
    assert all(w[k] == pytest.approx(1 / 3) for k in (0, 1, 2))


def test_project_keeps_valid_distribution_unchanged():
    g = build_ring(3)
    w = project_weights(as_raw({0: 0.5, 1: 0.25, 2: 0.25}, g, 0), g, owner=0)
    assert (w[0], w[1], w[2]) == (0.5, 0.25, 0.25)


def test_project_drops_foreign_keys_and_handles_nonfinite():
    g = build_ring(4)
    # Raw weights are for neighbors 1 and 3, then self; nan and inf clamp to zero.
    w = project_weights([float("nan"), float("inf"), 1.0], g, owner=0)
    # 2 is not a neighbor of 0 in ring(4): its column stays zero.
    assert w[2] == 0.0
    assert w[1] == 0.0
    assert w[3] == 0.0
    assert w[0] == 1.0


def test_project_keeps_proportions_when_the_sum_overflows():
    # 1e308 + 1e308 is inf: dividing by it made every weight 0, and the drift
    # then put the whole row on agent 0, which proposed nothing.
    w = project_weights([1e308, 1e308, 0.0], build_ring(4), owner=0)
    assert w.tolist() == [0.0, 0.5, 0.0, 0.5]


def test_project_takes_neighbors_then_self():
    g = build_ring(5)
    # Neighbors of 2 are (1, 3); the last entry is the self weight.
    w = project_weights([0.25, 0.125, 0.625], g, owner=2)
    assert w.tolist() == [0.0, 0.25, 0.625, 0.125, 0.0]


@pytest.mark.parametrize("raw", [[], [0.5, 0.5], [0.25, 0.25, 0.25, 0.25]])
def test_project_rejects_wrong_length(raw):
    # Agent 0 of ring(4) has two neighbors, so guidance must give three weights;
    # a short answer used to raise IndexError and extra entries were dropped.
    with pytest.raises(ContractError, match="3 raw weights"):
        project_weights(raw, build_ring(4), owner=0)


def test_assemble_uniform_ring3_is_circulant():
    g = build_ring(3)
    m = assemble_mixing_matrix(g)
    assert np.allclose(m, np.full((3, 3), 1 / 3))


def test_assembled_matrix_is_admissible():
    g = build_ring(5)
    rng = np.random.default_rng(0)
    m = assemble_mixing_matrix(g)
    for i in range(5):
        m[i] = project_weights(rng.uniform(-1, 2, size=3).tolist(), g, i)
    report = check_admissibility(m, g)
    assert report.passed


def test_identity_matrix_is_admissible(ring4):
    report = check_admissibility(np.eye(4), ring4)
    assert report.passed
    assert report.max_row_deviation == 0.0


def test_uniform_ring3_is_admissible():
    g = build_ring(3)
    assert check_admissibility(np.full((3, 3), 1 / 3), g).passed


def test_negative_entry_fails(ring4):
    m = np.eye(4)
    m[0, 0] = 1.2
    m[0, 1] = -0.2
    report = check_admissibility(m, ring4)
    assert not report.passed
    assert report.min_entry == pytest.approx(-0.2)
    assert report.first_violation is None


def test_off_pattern_entry_fails(ring4):
    # 0 and 2 are not adjacent in ring(4).
    m = np.eye(4)
    m[0, 0] = 0.5
    m[0, 2] = 0.5
    report = check_admissibility(m, ring4)
    assert not report.passed
    assert report.first_violation == (0, 2)
    assert report.min_entry == 0.0 and report.max_row_deviation == 0.0


def test_row_sum_deviation_fails(ring4):
    m = np.eye(4)
    m[1, 1] = 0.9999
    report = check_admissibility(m, ring4)
    assert not report.passed
    assert report.max_row_deviation > ROW_SUM_CHECK_TOL
    assert report.max_row_deviation == pytest.approx(1e-4)


def test_row_sum_tolerance_absorbs_rounding(ring4):
    m = np.eye(4)
    m[1, 1] = 1.0 + 5e-10
    assert check_admissibility(m, ring4).passed


def test_shape_mismatch_rejected(ring4):
    with pytest.raises(ContractError):
        check_admissibility(np.eye(3), ring4)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 12),
    p=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**31 - 1),
    cells=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=4),
)
def test_first_violation_is_the_first_off_neighborhood_entry(n, p, seed, cells):
    # The oracle scans row-major for a nonzero entry off i's closed
    # neighborhood; NaN counts as nonzero.
    g = build_random_connected(n, p, seed)
    m = assemble_mixing_matrix(g)
    for k, (i, j) in enumerate(cells):
        m[i % n, j % n] = (0.5, np.nan, -1.0, 0.0)[k]
    expected = next(
        ((i, j) for i in range(n) for j in range(n) if m[i, j] != 0.0 and j not in g.neighborhoods[i]),
        None,
    )
    assert check_admissibility(m, g).first_violation == expected


raw_entry = st.floats(min_value=-10, max_value=10, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(raw=st.lists(raw_entry, min_size=3, max_size=3))
def test_projection_is_idempotent(raw):
    g = build_ring(3)
    once = project_weights(raw, g, owner=0)
    twice = project_weights(as_raw(once, g, 0), g, owner=0)
    assert once.tolist() == twice.tolist()


@settings(max_examples=60, deadline=None)
@given(
    raw=st.lists(st.floats(0.01, 10), min_size=3, max_size=3),
    scale=st.floats(0.1, 100),
)
def test_projection_is_scale_invariant(raw, scale):
    g = build_ring(3)
    base = project_weights(raw, g, owner=0)
    scaled = project_weights([scale * r for r in raw], g, owner=0)
    for k in (0, 1, 2):
        assert scaled[k] == pytest.approx(base[k], rel=1e-9)


@settings(max_examples=60, deadline=None)
@given(
    raw=st.lists(st.lists(raw_entry, min_size=3, max_size=3), min_size=4, max_size=4),
    states=st.lists(st.floats(-50, 50), min_size=4, max_size=4),
)
def test_fusion_stays_in_convex_hull(raw, states):
    # The engine's fusion path: projected rows written into the matrix,
    # then matrix @ states.
    g = build_ring(4)
    m = assemble_mixing_matrix(g)
    for i, r in enumerate(raw):
        m[i] = project_weights(r, g, owner=i)
    fused = m @ np.array(states)[:, None]
    for i in range(4):
        members = [states[k] for k in g.neighborhoods[i]]
        assert min(members) - 1e-9 <= fused[i, 0] <= max(members) + 1e-9
