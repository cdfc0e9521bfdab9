"""Bit-exactness of the batched bookkeeping against the per-agent rules.

The history array, its window means and the kick-scale factor table replace
per-agent Python code: a list of records per agent averaged with np.mean, and
a math.exp per agent and round. The act rule's quartiles come from one sort
in place of two np.percentile calls. Each must give the same bits, for every
window length and with the ring buffer wrapped, or the traces move.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lacmas.cooperation import build_descriptor
from lacmas.engine import AgentHistory
from lacmas.guidance import (
    ACT_WINDOW,
    C_DEFAULT,
    C_RANGE,
    C_STEP,
    D_DEFAULT,
    D_RANGE,
    D_STEP,
    DECAY,
    STALL_EPS,
    ActGuidance,
    ActRequest,
    _sorted_percentile,
    heuristic_advise_act,
)
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


magnitude = st.floats(1e-300, 1e300)
entry = st.one_of(st.just(0.0), magnitude, magnitude.map(lambda x: -x))
finite_windows = st.one_of(
    st.lists(entry, min_size=1, max_size=ACT_WINDOW),
    # Drawn from a pool of at most three values, so most windows hold ties.
    st.lists(entry, min_size=1, max_size=3).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=ACT_WINDOW)
    ),
)
infinite = st.sampled_from([math.inf, -math.inf])


def with_one_of(entries):
    """A finite window, or one with an entry drawn from `entries` put in at random."""

    @st.composite
    def windows(draw):
        window = draw(finite_windows)
        if draw(st.booleans()):
            window[draw(st.integers(0, len(window) - 1))] = draw(entries)
        return window

    return windows()


act_windows = with_one_of(st.one_of(infinite, st.just(math.nan)))


def numpy_act_rule(req: ActRequest) -> ActGuidance:
    """The act rule with np.mean and np.percentile, as first written."""
    fitness = [f for (_, f, _) in req.trajectory]
    disagreement = [g for (_, _, g) in req.trajectory]
    improvement = (fitness[0] - fitness[-1]) / max(abs(fitness[0]), 1e-12)
    g_mean = float(np.mean(disagreement))
    g_low = float(np.percentile(disagreement, 25))
    g_high = float(np.percentile(disagreement, 75))
    d, c = req.current_d, req.current_c
    if improvement < STALL_EPS and g_mean <= g_low:
        c = c + C_STEP
    elif improvement < STALL_EPS and g_mean >= g_high:
        d = d + D_STEP
    else:
        d = d + DECAY * (D_DEFAULT - d)
        c = c + DECAY * (C_DEFAULT - c)
    return ActGuidance(d=d, c=c)


@settings(max_examples=300, deadline=None)
@given(with_one_of(infinite))
def test_sorted_quartiles_match_np_percentile(window):
    # An infinite entry makes inf - inf and inf * 0 in both rules: NaN alike.
    ordered = sorted(window)
    for q in (25, 75):
        got = _sorted_percentile(ordered, q / 100)
        with np.errstate(invalid="ignore"):
            expected = float(np.percentile(window, q))
        assert got.hex() == expected.hex()


@settings(max_examples=300, deadline=None)
@given(
    disagreement=act_windows,
    data=st.data(),
    d=st.floats(*D_RANGE),
    c=st.floats(*C_RANGE),
)
def test_act_rule_matches_the_numpy_percentile_rule(disagreement, data, d, c):
    n = len(disagreement)
    # Few fitness values, so stalled windows (improvement 0) are common.
    fitness = data.draw(st.lists(st.sampled_from([1.0, 0.5, 1e-9, 3e5]), min_size=n, max_size=n))
    req = ActRequest(
        iteration=n,
        current_d=d,
        current_c=c,
        trajectory=tuple(zip(range(n), fitness, disagreement)),
    )
    with np.errstate(invalid="ignore"):
        got, expected = heuristic_advise_act(req), numpy_act_rule(req)
    assert (got.d.hex(), got.c.hex()) == (expected.d.hex(), expected.c.hex())
