"""Bit-exactness of the batched bookkeeping against the per-agent rules.

The history array, its window means and the kick-scale factor table replace
per-agent Python code: a list of records per agent averaged with np.mean, and
a math.exp per agent and round. Each must give the same bits, for every
window length and with the ring buffer wrapped, or the traces move.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lacmas.cooperation import build_descriptor
from lacmas.engine import AgentHistory
from lacmas.guidance import ACT_WINDOW
from lacmas.swarm import Population, SwarmParams

FIELDS = len(AgentHistory.FIELDS)
value = st.floats(-1e100, 1e100, allow_nan=False)
nonnegative = st.floats(0.0, 1e100, allow_nan=False)


@st.composite
def histories(draw):
    """(num_agents, rounds): each round is (t, (4, N) statistics), with
    strictly increasing t and up to three times the window of rounds."""
    n = draw(st.integers(1, 3))
    count = draw(st.integers(1, 3 * ACT_WINDOW))
    steps = draw(st.lists(st.integers(1, 5), min_size=count, max_size=count))
    ts = np.cumsum(steps).tolist()
    rounds = []
    for t in ts:
        cols = [
            draw(st.lists(strategy, min_size=n, max_size=n))
            for strategy in (value, nonnegative, nonnegative, nonnegative)
        ]
        rounds.append((t, cols))
    return n, rounds


@settings(max_examples=60, deadline=None)
@given(histories())
def test_history_windows_and_descriptors_match_record_lists(case):
    n, rounds = case
    history = AgentHistory(n)
    # The per-agent reference: each agent's records as a list, oldest first.
    records = [[] for _ in range(n)]
    for t, cols in rounds:
        history.append(t, np.array(cols))
        for i in range(n):
            records[i].append((t, *(col[i] for col in cols)))
    assert len(history) == min(len(rounds), ACT_WINDOW)

    for window in range(1, ACT_WINDOW + 1):
        iterations, values = history.recent(window)
        kept = [agent[-window:] for agent in records]
        assert iterations.tolist() == [r[0] for r in kept[0]]
        assert values.shape == (n, FIELDS, len(kept[0]))
        means = build_descriptor(history, window)
        for i in range(n):
            for f in range(FIELDS):
                assert values[i, f].tolist() == [r[1 + f] for r in kept[i]]
            expected = [float(np.mean([r[1 + f] for r in kept[i]])) for f in range(3)]
            assert means[i].tolist() == expected


@settings(max_examples=60, deadline=None)
@given(
    p=st.integers(1, 12),
    adapt=st.floats(0.0, 5.0),
    target=st.floats(0.0, 1.0),
    data=st.data(),
)
def test_tell_kick_scale_matches_the_math_exp_rule(p, adapt, target, data):
    n = 4
    params = SwarmParams(population=p, kick_adapt_rate=adapt, kick_target_rate=target)
    rngs = [np.random.default_rng(i) for i in range(n)]
    population = Population(1, np.full(1, -10.0), np.full(1, 10.0), params, rngs)
    # Every table entry is the per-agent factor of its success count.
    assert population.kick_factors.tolist() == [
        math.exp(adapt * (k / p - target)) for k in range(p + 1)
    ]
    successes = data.draw(st.lists(st.integers(0, p), min_size=n, max_size=n))
    kicking = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    sigmas = data.draw(st.lists(st.floats(1e-12, 40.0), min_size=n, max_size=n))
    population.kicking[:] = kicking
    population.kick_sigma[:] = sigmas
    population.best_values[:] = 0.0
    # Particle j of agent i improves iff j < successes[i].
    values = np.where(np.arange(p) < np.array(successes)[:, None], -1.0, 1.0)
    population.tell(values)
    expected = [
        min(sigma * math.exp(adapt * (k / p - target)), population.span_mean) if kick else sigma
        for sigma, k, kick in zip(sigmas, successes, kicking)
    ]
    assert population.kick_sigma.tolist() == expected
