import gc
import hashlib
import http.client
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lacmas
from lacmas import guidance
from lacmas.errors import ContractError, GuidanceParseError, LlmTransportError
from lacmas.guidance import (
    ActGuidance,
    ActRequest,
    CoopRequest,
    HeuristicProvider,
    LlmEndpoint,
    LlmProvider,
    SendAhead,
    build_act_prompt,
    build_coop_prompt,
    heuristic_advise_act,
    heuristic_advise_coop,
    llm_advise,
    parse_act_response,
    parse_coop_response,
)

ACT_FIXED_LINES = [
    "Tuning task: high-dimensional black-box optimization.",
    "Requirement:",
    "If fitness stagnates while disagreement is low, increase c;",
    "If fitness decreases slowly while disagreement is high, increase d.",
    "Only return the updated parameters in parentheses, separated by a comma.",
    "Constraints: d in [0.5, 1], c in [1, 1.8].",
    "Example: (0.7, 1.3)",
]

COOP_FIXED_LINES = [
    "Task: update the neighbor weight vector for multi-agent optimization.",
    "Weight update rules:",
    "1. If a neighbor has low fitness and low disagreement, increase its weight (0.3–0.5);",
    "2. If a neighbor has high fitness and high disagreement, decrease its weight (0.1–0.2);",
    "3. Fitness is prioritized; weights must sum to 1.",
    "Neighbor performance history (last 10 iterations):",
    "Please return the updated weights in the format [w1, w2, ..., wN].",
]


def act_request(trajectory, d=0.7, c=1.3, iteration=50):
    return ActRequest(
        iteration=iteration, current_d=d, current_c=c, trajectory=tuple(trajectory)
    )


def test_stagnation_with_low_disagreement_raises_c():
    req = act_request([(t, 10.0, 0.0) for t in range(10)])
    out = heuristic_advise_act(req)
    assert out.c == pytest.approx(1.4)
    assert out.d == pytest.approx(0.7)


def test_c_increase_caps_at_top_of_range():
    req = act_request([(t, 10.0, 0.0) for t in range(10)], c=1.75)
    assert heuristic_advise_act(req).c == pytest.approx(1.8)


def test_stagnation_with_high_disagreement_raises_d():
    # Spiked recent disagreement: mean well above the 75th percentile.
    g = [0.0] * 9 + [100.0]
    req = act_request([(t, 10.0, g[t]) for t in range(10)])
    out = heuristic_advise_act(req)
    assert out.d == pytest.approx(0.75)
    assert out.c == pytest.approx(1.3)


def test_d_increase_caps_at_one():
    g = [0.0] * 9 + [100.0]
    req = act_request([(t, 10.0, g[t]) for t in range(10)], d=0.98)
    assert heuristic_advise_act(req).d == pytest.approx(1.0)


def test_strong_improvement_decays_toward_defaults():
    req = act_request([(t, 100.0 - 10.0 * t, 1.0) for t in range(10)], d=0.9, c=1.7)
    out = heuristic_advise_act(req)
    assert out.d == pytest.approx(0.9 + 0.1 * (0.7 - 0.9))
    assert out.c == pytest.approx(1.7 + 0.1 * (1.3 - 1.7))


def test_act_heuristic_is_pure():
    req = act_request([(t, 5.0, 0.5) for t in range(5)])
    a = heuristic_advise_act(req)
    b = heuristic_advise_act(req)
    assert (a.d, a.c) == (b.d, b.c)


def test_act_request_window_limit():
    with pytest.raises(ContractError):
        act_request([(t, 1.0, 0.0) for t in range(20)])


def test_single_neighbor_gets_band_midpoint():
    req = CoopRequest(neighbor_ids=(3,), neighbor_stats=((2.0, 0.4),))
    out = heuristic_advise_coop(req)
    assert out.raw_weights == pytest.approx((0.4, 0.2))


def test_identical_neighbors_get_equal_weights():
    req = CoopRequest(
        neighbor_ids=(1, 2), neighbor_stats=((5.0, 1.0), (5.0, 1.0))
    )
    out = heuristic_advise_coop(req)
    assert out.raw_weights[0] == out.raw_weights[1]


def test_dominant_neighbor_lands_in_increase_band():
    req = CoopRequest(
        neighbor_ids=(1, 2), neighbor_stats=((1.0, 0.1), (9.0, 5.0))
    )
    out = heuristic_advise_coop(req)
    assert 0.3 <= out.raw_weights[0] <= 0.5
    assert 0.1 <= out.raw_weights[1] <= 0.2


def test_act_prompt_contains_fixed_lines():
    prompt = build_act_prompt(act_request([(1, 2.0, 0.3)]))
    for line in ACT_FIXED_LINES:
        assert line in prompt


def test_act_prompt_one_line_per_entry():
    prompt = build_act_prompt(act_request([(1, 2.0, 0.3), (2, 1.9, 0.2), (3, 1.8, 0.1)]))
    assert prompt.count("Iteration ") == 3
    assert "Iteration 2: fitness=1.9, disagreement=0.2 |" in prompt


def test_coop_prompt_contains_fixed_lines():
    req = CoopRequest(neighbor_ids=(0, 2), neighbor_stats=((1.0, 0.1), (2.0, 0.2)))
    prompt = build_coop_prompt(req)
    for line in COOP_FIXED_LINES:
        assert line in prompt
    assert "Number of neighbors: 2." in prompt
    assert "Neighbor ID 2: avg fitness=2, avg disagreement=0.2 |" in prompt


def test_parse_act_simple_pair():
    out = parse_act_response("(0.7, 1.3)")
    assert (out.d, out.c) == (0.7, 1.3)


def test_parse_act_takes_last_pair():
    out = parse_act_response("thinking (0.5, 1.0) more text (0.9, 1.1)")
    assert (out.d, out.c) == (0.9, 1.1)


def test_parse_act_clamps_out_of_range():
    out = parse_act_response("(2.0, 5.0)")
    assert (out.d, out.c) == (1.0, 1.8)


def test_parse_act_failure_raises():
    with pytest.raises(GuidanceParseError):
        parse_act_response("no numbers here")


def test_parse_coop_simple_list():
    assert parse_coop_response("[0.3, 0.5, 0.2]", 3) == (0.3, 0.5, 0.2)


def test_parse_coop_wrong_length_fails():
    with pytest.raises(GuidanceParseError):
        parse_coop_response("[0.3, 0.5]", 3)


def test_parse_coop_extracts_embedded_list():
    assert parse_coop_response("weights: [0.25, 0.25, 0.5] done", 3) == (0.25, 0.25, 0.5)


def test_parse_coop_garbage_fails():
    with pytest.raises(GuidanceParseError):
        parse_coop_response("[a, b, c]", 3)


def advise_alone(prompt, endpoint):
    """One request on a connection of its own: a refresh of one prompt."""
    with SendAhead(endpoint, [prompt]) as window:
        return llm_advise(window)


def test_llm_advise_round_trip(stub_server):
    endpoint = LlmEndpoint(base_url=stub_server.url, model="test-model", timeout=5.0)
    text = advise_alone("prompt text", endpoint)
    assert text == "(0.7, 1.3)"
    assert stub_server.payloads[-1]["model"] == "test-model"
    assert stub_server.payloads[-1]["prompt"] == "prompt text"
    assert stub_server.payloads[-1]["stream"] is False


def test_llm_advise_unreachable_endpoint():
    endpoint = LlmEndpoint(base_url="http://127.0.0.1:1", model="x", timeout=0.5)
    with pytest.raises(LlmTransportError):
        advise_alone("prompt", endpoint)


def test_llm_advise_malformed_payload(stub_server):
    stub_server.raw_body = b"not json at all"
    endpoint = LlmEndpoint(base_url=stub_server.url, model="x", timeout=5.0)
    with pytest.raises(LlmTransportError):
        advise_alone("prompt", endpoint)


def test_llm_advise_error_status(stub_server):
    stub_server.status = 500
    endpoint = LlmEndpoint(base_url=stub_server.url, model="x", timeout=5.0)
    with pytest.raises(LlmTransportError):
        advise_alone("prompt", endpoint)


def test_llm_advise_timeout(stub_server):
    # Just above the 0.1 s client timeout: the single-threaded stub finishes
    # this sleep before its shutdown at teardown returns.
    stub_server.delay_s = 0.2
    endpoint = LlmEndpoint(base_url=stub_server.url, model="x", timeout=0.1)
    with pytest.raises(LlmTransportError):
        advise_alone("prompt", endpoint)


def test_llm_provider_coop_round_trip(stub_server):
    stub_server.reply = "[0.3, 0.5]"
    provider = LlmProvider(endpoint=LlmEndpoint(base_url=stub_server.url, model="m", timeout=5.0))
    req = CoopRequest(neighbor_ids=(1, 2), neighbor_stats=((1.0, 0.1), (2.0, 0.2)))
    (out,) = provider.refresh_coop([req])
    # Two neighbor weights from the endpoint plus the constant self entry.
    assert out.raw_weights == pytest.approx((0.3, 0.5, 0.2))
    assert provider.fallback_count == 0


def test_llm_provider_falls_back_on_parse_failure(stub_server):
    stub_server.reply = "I cannot answer that."
    provider = LlmProvider(endpoint=LlmEndpoint(base_url=stub_server.url, model="m", timeout=5.0))
    req = act_request([(t, 10.0, 0.0) for t in range(6)])
    (out,) = provider.refresh_act([req])
    assert provider.fallback_count == 1
    assert out.c == pytest.approx(1.4)  # heuristic answer


def test_llm_provider_falls_back_on_transport_failure():
    provider = LlmProvider(endpoint=LlmEndpoint(base_url="http://127.0.0.1:1", model="m", timeout=0.5))
    req = CoopRequest(neighbor_ids=(1,), neighbor_stats=((1.0, 0.1),))
    (out,) = provider.refresh_coop([req])
    assert provider.fallback_count == 1
    assert out.raw_weights == pytest.approx((0.4, 0.2))


def refresh_requests(n=7):
    """n act requests whose prompts all differ."""
    return [
        act_request([(t, 10.0 - k, 0.1 * k) for t in range(6)], iteration=50 + k)
        for k in range(n)
    ]


def pair_from_prompt(prompt):
    """A stub answer that depends on the whole prompt."""
    h = hashlib.sha256(prompt.encode()).digest()
    return f"({0.5 + h[0] / 510:.4f}, {1.0 + h[1] / 320:.4f})"


def test_refresh_answers_as_serial_calls_in_agent_order(stub_server):
    stub_server.reply = pair_from_prompt
    endpoint = LlmEndpoint(base_url=stub_server.url, model="m", timeout=5.0)
    reqs = refresh_requests()
    serial = [parse_act_response(advise_alone(build_act_prompt(r), endpoint)) for r in reqs]
    provider = LlmProvider(endpoint=endpoint)
    assert provider.refresh_act(reqs) == serial
    assert provider.fallback_count == 0
    # The serial stub took the refresh's requests in agent order, as it took
    # the serial calls before them.
    prompts = [p["prompt"] for p in stub_server.payloads]
    assert prompts[len(reqs):] == prompts[: len(reqs)] == [build_act_prompt(r) for r in reqs]


def test_coop_refresh_answers_as_serial_calls(stub_server):
    stub_server.reply = lambda prompt: "[0.3, 0.1]" if "Neighbor ID 4" in prompt else "[0.2, 0.4]"
    provider = LlmProvider(endpoint=LlmEndpoint(base_url=stub_server.url, model="m", timeout=5.0))
    reqs = [
        CoopRequest(neighbor_ids=(k, k + 2), neighbor_stats=((1.0, 0.1), (2.0, 0.2)))
        for k in range(5)
    ]
    serial = [provider.refresh_coop([r])[0] for r in reqs]
    assert provider.refresh_coop(reqs) == serial
    assert provider.fallback_count == 0


@pytest.mark.parametrize("failure", ["status 500", "malformed"])
def test_refresh_falls_back_for_exactly_the_failed_request(stub_server, failure):
    reqs = refresh_requests()
    bad = build_act_prompt(reqs[2])
    if failure == "status 500":
        stub_server.status = lambda prompt: 500 if prompt == bad else 200
        stub_server.reply = pair_from_prompt
    else:
        stub_server.reply = lambda prompt: "no idea" if prompt == bad else pair_from_prompt(prompt)
    provider = LlmProvider(endpoint=LlmEndpoint(base_url=stub_server.url, model="m", timeout=5.0))
    out = provider.refresh_act(reqs)
    assert provider.fallback_count == 1
    expected = [parse_act_response(pair_from_prompt(build_act_prompt(r))) for r in reqs]
    expected[2] = heuristic_advise_act(reqs[2])
    assert out == expected


def test_refresh_against_unreachable_endpoint_falls_back_for_every_request():
    provider = LlmProvider(endpoint=LlmEndpoint(base_url="http://127.0.0.1:1", model="m", timeout=0.5))
    reqs = [CoopRequest(neighbor_ids=(k,), neighbor_stats=((1.0 + k, 0.1),)) for k in range(6)]
    assert provider.refresh_coop(reqs) == [heuristic_advise_coop(r) for r in reqs]
    assert provider.fallback_count == len(reqs)


@pytest.mark.filterwarnings("error::ResourceWarning")
@pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")
def test_exception_mid_refresh_closes_every_connection(stub_server, monkeypatch):
    stub_server.reply = pair_from_prompt
    opened = []

    class RecordingConnection(http.client.HTTPConnection):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            opened.append(self)

    monkeypatch.setattr(http.client, "HTTPConnection", RecordingConnection)
    parsed = []

    def parse_then_fail(text):
        parsed.append(text)
        if len(parsed) == 2:
            raise RuntimeError("applying the second answer failed")
        return parse_act_response(text)

    monkeypatch.setattr(guidance, "parse_act_response", parse_then_fail)
    provider = LlmProvider(endpoint=LlmEndpoint(base_url=stub_server.url, model="m", timeout=5.0))
    with pytest.raises(RuntimeError, match="second answer"):
        provider.refresh_act(refresh_requests(8))
    # Reading the second answer had the first IN_FLIGHT + 1 requests sent;
    # the IN_FLIGHT - 1 still unread were open when the exception passed.
    assert len(opened) == guidance.IN_FLIGHT + 1
    assert all(conn.sock is None for conn in opened)
    gc.collect()


def test_guidance_clamped_on_construction():
    g = ActGuidance(d=0.2, c=2.4)
    assert (g.d, g.c) == (0.5, 1.8)


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=120))
def test_parse_act_never_returns_out_of_range(text):
    try:
        out = parse_act_response(text)
    except GuidanceParseError:
        return
    assert 0.5 <= out.d <= 1.0
    assert 1.0 <= out.c <= 1.8


@settings(max_examples=120, deadline=None)
@given(
    fitness=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=19),
    g=st.floats(0, 1e6),
    d=st.floats(0.5, 1.0),
    c=st.floats(1.0, 1.8),
)
def test_heuristic_act_always_in_range(fitness, g, d, c):
    traj = tuple((t, f, g) for t, f in enumerate(fitness))
    out = heuristic_advise_act(ActRequest(iteration=0, current_d=d, current_c=c, trajectory=traj))
    assert 0.5 <= out.d <= 1.0
    assert 1.0 <= out.c <= 1.8


def test_engine_import_leaves_out_the_http_stack():
    # Only the LLM transport needs it; a heuristic run should not pay for
    # importing it, and the transport itself needs no urllib.request.
    src = str(Path(lacmas.__file__).resolve().parents[1])
    code = """
import sys
from lacmas.engine import RunConfig, run
from lacmas.guidance import CoopRequest, LlmEndpoint, LlmProvider
from lacmas.objectives import make_spec
from lacmas.topology import build_ring

stack = {"http.client", "urllib.request"}
spec = make_spec("sphere", num_agents=4, dim=3, hetero_sigma=0.0, seed=0)
run(RunConfig(objective=spec, graph=build_ring(4), max_iterations=30))
print(sorted(stack & set(sys.modules)))
llm = LlmProvider(LlmEndpoint("http://127.0.0.1:1", "m", timeout=0.5))
llm.refresh_coop([CoopRequest((1,), ((1.0, 0.1),))])
print(llm.fallback_count, sorted(stack & set(sys.modules)))
"""
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["[]", "1 ['http.client']"]
