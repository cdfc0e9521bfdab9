"""Advisory layer proposing internal coefficients and cooperation weights.

Two providers implement the same interface: a deterministic heuristic that
encodes the qualitative adaptation rules directly, and an HTTP client for a
locally served language model that is prompted with the same trajectory
windows. A guidance refresh hands a provider all its requests at once
(`refresh_act`, `refresh_coop`) and gets the answers back in request order.
Every provider path terminates with in-range action guidance and finite raw
weights; a failed remote query falls back to the heuristic for that request,
so a run can never stall on guidance.
"""

from __future__ import annotations

import math
import re
from collections import deque
from dataclasses import dataclass, field
from urllib.parse import urlsplit

import numpy as np

from .errors import ConfigError, ContractError, GuidanceParseError, LlmTransportError

D_RANGE = (0.5, 1.0)
C_RANGE = (1.0, 1.8)
D_DEFAULT = 0.7
C_DEFAULT = 1.3

ACT_WINDOW = 19
COOP_WINDOW = 10

# Seconds an LLM request may take before it falls back to the heuristic.
LLM_TIMEOUT = 30.0

ACT_PROMPT_HEADER = """Tuning task: high-dimensional black-box optimization.
Current iteration: around {iteration}.
Current parameters: d={d}, c={c}.
Recent trajectory (past 19 iterations):
"""

ACT_PROMPT_FOOTER = """
Requirement:
If fitness stagnates while disagreement is low, increase c;
If fitness decreases slowly while disagreement is high, increase d.
Only return the updated parameters in parentheses, separated by a comma.
Constraints: d in [0.5, 1], c in [1, 1.8].
Example: (0.7, 1.3)
"""

COOP_PROMPT_HEADER = """Task: update the neighbor weight vector for multi-agent optimization.
Number of neighbors: {n}.

Weight update rules:
1. If a neighbor has low fitness and low disagreement, increase its weight (0.3–0.5);
2. If a neighbor has high fitness and high disagreement, decrease its weight (0.1–0.2);
3. Fitness is prioritized; weights must sum to 1.

Neighbor performance history (last 10 iterations):
"""

COOP_PROMPT_FOOTER = """
Please return the updated weights in the format [w1, w2, ..., wN].
"""


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _clamp(x: float, lo: float, hi: float) -> float:
    return min(max(x, lo), hi)


# -- request / guidance types ------------------------------------------------


@dataclass(frozen=True)
class ActRequest:
    """Local trajectory window backing one internal-action refresh."""

    iteration: int
    current_d: float
    current_c: float
    # (iteration, fitness, local disagreement), oldest first.
    trajectory: tuple[tuple[int, float, float], ...]

    def __post_init__(self):
        if len(self.trajectory) > ACT_WINDOW:
            raise ContractError(f"act window is at most {ACT_WINDOW} entries")
        if not D_RANGE[0] <= self.current_d <= D_RANGE[1]:
            raise ContractError(f"current_d {self.current_d} out of range")
        if not C_RANGE[0] <= self.current_c <= C_RANGE[1]:
            raise ContractError(f"current_c {self.current_c} out of range")


@dataclass(frozen=True)
class ActGuidance:
    """Updated (d, c) pair; always clamped into the admissible box."""

    d: float
    c: float

    def __post_init__(self):
        object.__setattr__(self, "d", _clamp(float(self.d), *D_RANGE))
        object.__setattr__(self, "c", _clamp(float(self.c), *C_RANGE))


@dataclass(frozen=True)
class CoopRequest:
    """Per-neighbor window statistics backing one cooperation refresh."""

    neighbor_ids: tuple[int, ...]
    # Aligned with neighbor_ids: (avg fitness, avg disagreement).
    neighbor_stats: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if len(self.neighbor_ids) < 1:
            raise ContractError("cooperation request needs at least one neighbor")
        if len(self.neighbor_stats) != len(self.neighbor_ids):
            raise ContractError("neighbor_stats misaligned with neighbor_ids")


@dataclass(frozen=True)
class CoopGuidance:
    """Raw weights aligned with the request's neighbor_ids, self entry last.

    Feasibility (nonnegativity, unit sum) is enforced downstream by
    cooperation.project_weights; here only finiteness is required.
    """

    raw_weights: tuple[float, ...]

    def __post_init__(self):
        if not all(math.isfinite(w) for w in self.raw_weights):
            raise ContractError("raw weights must be finite")


# -- heuristic rules -----------------------------------------------------------


# Relative fitness improvement over the act window below which a run counts
# as stalled.
STALL_EPS = 1e-3
# (d, c) steps of a stall, and the fraction of the way back to the defaults
# the pair relaxes otherwise.
C_STEP = 0.1
D_STEP = 0.05
DECAY = 0.1
# The raw self weight every cooperation answer ends with.
SELF_WEIGHT = 0.2


def _sorted_percentile(ordered: list[float], q: float) -> float:
    """np.percentile(ordered, 100 * q) for a sorted list and 0 < q < 1.

    numpy's default 'linear' rule, step for step: the virtual index
    n*q + (1-q) - 1, its floor j and fraction g, then a + d*g, or
    b - d*(1-g) once g >= 0.5, with a, b the entries at j, j+1 and d = b - a.
    For one entry numpy takes j, j+1 = -1, -1 and g = 1, so it returns
    b - d*0: the entry itself, or NaN for an infinite one. With no NaN in the
    list the bits are numpy's.
    """
    n = len(ordered)
    if n == 1:
        b = ordered[0]
        return b - (b - b) * 0.0
    virtual = n * q + (1 - q) - 1
    j = math.floor(virtual)
    g = virtual - j
    a, b = ordered[j], ordered[j + 1]
    d = b - a
    return b - d * (1 - g) if g >= 0.5 else a + d * g


def heuristic_advise_act(req: ActRequest) -> ActGuidance:
    """Rule-based (d, c) update from the trajectory window.

    Stagnation with low disagreement raises the escape coefficient c;
    stagnation with high disagreement raises the damping coefficient d;
    otherwise both relax toward their defaults. Low/high is judged against the
    25th/75th percentile of the window's own disagreement values.
    """
    if not req.trajectory:
        raise ContractError("empty trajectory")
    fitness = [f for (_, f, _) in req.trajectory]
    disagreement = [g for (_, _, g) in req.trajectory]
    improvement = (fitness[0] - fitness[-1]) / max(abs(fitness[0]), 1e-12)
    # sum / n is what np.mean computes, without its Python wrappers.
    g_mean = float(np.add.reduce(disagreement) / len(disagreement))
    ordered = sorted(disagreement)
    g_low, g_high = _sorted_percentile(ordered, 0.25), _sorted_percentile(ordered, 0.75)

    d, c = req.current_d, req.current_c
    if improvement < STALL_EPS and g_mean <= g_low:
        c = c + C_STEP
    elif improvement < STALL_EPS and g_mean >= g_high:
        d = d + D_STEP
    else:
        d = d + DECAY * (D_DEFAULT - d)
        c = c + DECAY * (C_DEFAULT - c)
    return ActGuidance(d=d, c=c)


def heuristic_advise_coop(req: CoopRequest) -> CoopGuidance:
    """Rank-based neighbor weighting.

    Neighbors are scored by fitness rank (double weight) plus disagreement
    rank, lower being better; the best score maps toward the midpoint of the
    increase band (0.4) and the worst toward the midpoint of the decrease band
    (0.15). The band spread is scaled by how separated the statistics actually
    are: statistically indistinguishable neighbors come out near-equal instead
    of being forced to opposite bands, which would otherwise keep injecting
    noise-driven asymmetry into the mixing matrix late in a run.
    """
    fit = [s[0] for s in req.neighbor_stats]
    dis = [s[1] for s in req.neighbor_stats]
    n = len(fit)
    if n == 1:
        return CoopGuidance(raw_weights=(0.4, SELF_WEIGHT))
    sep_f = _relative_separation(fit)
    sep_g = _relative_separation(dis)
    f_level = [r / (n - 1) * sep_f for r in _avg_ranks(fit)]
    g_level = [r / (n - 1) * sep_g for r in _avg_ranks(dis)]
    weights = []
    for f, g in zip(f_level, g_level):
        # Conjunctive rules, fitness counted twice: a neighbor is boosted only
        # when both statistics look good, demoted only when both look bad,
        # and held near the neutral level 0.25 otherwise.
        increase = (1.0 - f) ** 2 * (1.0 - g)
        decrease = f * f * g
        weights.append(0.25 + 0.15 * increase - 0.10 * decrease)
    return CoopGuidance(raw_weights=(*weights, SELF_WEIGHT))


def _relative_separation(values: list[float]) -> float:
    lo, hi = min(values), max(values)
    scale = max(abs(lo), abs(hi))
    if scale <= 0.0:
        return 0.0
    return min(1.0, (hi - lo) / scale)


def _avg_ranks(values: list[float]) -> list[float]:
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j) / 2.0
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


# -- prompt building and response parsing -------------------------------------


def build_act_prompt(req: ActRequest) -> str:
    lines = [
        f"Iteration {k}: fitness={_fmt(f)}, disagreement={_fmt(g)} |"
        for (k, f, g) in req.trajectory
    ]
    return (
        ACT_PROMPT_HEADER.format(
            iteration=req.iteration, d=_fmt(req.current_d), c=_fmt(req.current_c)
        )
        + "\n".join(lines)
        + ACT_PROMPT_FOOTER
    )


def build_coop_prompt(req: CoopRequest) -> str:
    lines = [
        f"Neighbor ID {k}: avg fitness={_fmt(f)}, avg disagreement={_fmt(g)} |"
        for k, (f, g) in zip(req.neighbor_ids, req.neighbor_stats)
    ]
    return (
        COOP_PROMPT_HEADER.format(n=len(req.neighbor_ids))
        + "\n".join(lines)
        + COOP_PROMPT_FOOTER
    )


_NUMBER = r"[+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_PAIR_RE = re.compile(r"\(\s*(" + _NUMBER + r")\s*,\s*(" + _NUMBER + r")\s*\)")
_LIST_RE = re.compile(r"\[([^\[\]]*)\]")


def parse_act_response(text: str) -> ActGuidance:
    """Extract the last parenthesized (d, c) pair; clamp into range."""
    matches = _PAIR_RE.findall(text or "")
    if not matches:
        raise GuidanceParseError("no parenthesized pair found")
    d_raw, c_raw = matches[-1]
    d, c = float(d_raw), float(c_raw)
    if not (math.isfinite(d) and math.isfinite(c)):
        raise GuidanceParseError("non-finite pair")
    return ActGuidance(d=d, c=c)


def parse_coop_response(text: str, expected_len: int) -> tuple[float, ...]:
    """Extract the last bracketed numeric list of exactly expected_len entries."""
    matches = _LIST_RE.findall(text or "")
    if not matches:
        raise GuidanceParseError("no bracketed list found")
    parts = [p.strip() for p in matches[-1].split(",")]
    try:
        values = tuple(float(p) for p in parts)
    except ValueError as exc:
        raise GuidanceParseError(f"non-numeric entry: {exc}") from None
    if len(values) != expected_len:
        raise GuidanceParseError(f"expected {expected_len} weights, got {len(values)}")
    if not all(math.isfinite(v) for v in values):
        raise GuidanceParseError("non-finite weight")
    return values


# -- remote endpoint ----------------------------------------------------------


# How many requests of one refresh may be open at once, the one being read
# included. Two keep a serial server busy: the next request waits queued
# while the client parses and applies the answer before it. It must stay
# below socketserver's default listen backlog of 5, so a stdlib server never
# drops a connection attempt: a dropped SYN costs a 1 s retransmit.
IN_FLIGHT = 2


@dataclass(frozen=True)
class LlmEndpoint:
    """An Ollama-style server. `base_url` is parsed once, here: it must be an
    http or https URL with a host, a port from 1 to 65535 if any (else the
    scheme's default) and no query or fragment; anything else is a
    ConfigError."""

    base_url: str
    model: str
    timeout: float = LLM_TIMEOUT
    https: bool = field(init=False, repr=False, compare=False)
    host: str = field(init=False, repr=False, compare=False)
    port: int = field(init=False, repr=False, compare=False)
    path: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        try:
            parts = urlsplit(self.base_url)
            # .port raises ValueError for a port that is not a number in range.
            valid = parts.scheme in ("http", "https") and parts.hostname and parts.port != 0
            valid = valid and not (parts.query or parts.fragment)
        except ValueError:
            valid = False
        if not valid:
            raise ConfigError(
                "the LLM URL must be http:// or https:// with a host, a port from "
                f"1 to 65535 if any, and no query or fragment: got {self.base_url!r}"
            )
        https = parts.scheme == "https"
        for name, value in (
            ("https", https),
            ("host", parts.hostname),
            # Always explicit: http.client would read the last ':' of an IPv6
            # host as a port separator.
            ("port", parts.port or (443 if https else 80)),
            ("path", parts.path.rstrip("/") + "/api/generate"),
        ):
            object.__setattr__(self, name, value)


class SendAhead:
    """One refresh's requests, each on its own connection, with up to
    IN_FLIGHT of them open at once.

    `answer()` reads the replies in prompt order. Before it reads one it
    sends the next requests until IN_FLIGHT are open, so the server works on
    later requests while the caller parses and applies earlier answers. A
    failed send is kept and raised at its own request's turn. Leaving a
    `with` block closes every connection still open, however it is left.
    """

    def __init__(self, endpoint: LlmEndpoint, prompts: list[str]):
        self.endpoint = endpoint
        self.prompts = prompts
        self._next = 0
        # The connection, or the error of its send, of each prompt from _next on.
        self._open: deque = deque()

    def __enter__(self) -> "SendAhead":
        return self

    def __exit__(self, *exc) -> None:
        while self._open:
            sent = self._open.popleft()
            if not isinstance(sent, Exception):
                sent.close()

    def _send(self, prompt: str):
        # Imported here: a heuristic run never needs the HTTP stack, which
        # pulls in ssl, email and some thirty other modules.
        import http.client
        import json

        ep = self.endpoint
        kind = http.client.HTTPSConnection if ep.https else http.client.HTTPConnection
        conn = kind(ep.host, ep.port, timeout=ep.timeout)
        payload = {"model": ep.model, "prompt": prompt, "stream": False}
        try:
            conn.request(
                "POST", ep.path, json.dumps(payload).encode(), {"Content-Type": "application/json"}
            )
        except BaseException as exc:
            conn.close()
            # Refused connections and timeouts are OSErrors, an unencodable
            # host a ValueError.
            if isinstance(exc, (OSError, ValueError, http.client.HTTPException)):
                return exc
            raise
        return conn

    def answer(self) -> str:
        """The generated text for the next prompt."""
        import http.client
        import json

        end = min(self._next + IN_FLIGHT, len(self.prompts))
        while self._next + len(self._open) < end:
            self._open.append(self._send(self.prompts[self._next + len(self._open)]))
        sent = self._open.popleft()
        self._next += 1
        if isinstance(sent, Exception):
            raise LlmTransportError(f"guidance endpoint failed: {sent}") from sent
        try:
            reply = sent.getresponse()
            body = reply.read()
        # A broken or cut-off reply is an HTTPException, a timeout an OSError.
        except (OSError, http.client.HTTPException) as exc:
            raise LlmTransportError(f"guidance endpoint failed: {exc}") from exc
        finally:
            sent.close()
        if reply.status != 200:
            raise LlmTransportError(f"guidance endpoint answered {reply.status} {reply.reason}")
        try:
            data = json.loads(body)
        except ValueError as exc:
            raise LlmTransportError(f"non-JSON response: {exc}") from exc
        if not isinstance(data, dict) or "response" not in data:
            raise LlmTransportError("response payload missing 'response' field")
        return str(data["response"])


def llm_advise(window: SendAhead) -> str:
    """The generated text of `window`'s next request: one non-streaming
    completion, the unit a refresh makes per agent."""
    return window.answer()


# -- providers ----------------------------------------------------------------


class HeuristicProvider:
    """Pure rule-based provider; the deterministic reference path."""

    def advise_act(self, req: ActRequest) -> ActGuidance:
        return heuristic_advise_act(req)

    def advise_coop(self, req: CoopRequest) -> CoopGuidance:
        return heuristic_advise_coop(req)

    def refresh_act(self, reqs: list[ActRequest]) -> list[ActGuidance]:
        return [self.advise_act(req) for req in reqs]

    def refresh_coop(self, reqs: list[CoopRequest]) -> list[CoopGuidance]:
        return [self.advise_coop(req) for req in reqs]


@dataclass
class LlmProvider:
    """Remote provider with per-request heuristic fallback.

    One attempt per request; any transport or parse failure silently degrades
    to the heuristic answer for that request and is counted. A refresh builds
    all its prompts first and sends them through one SendAhead window; each
    request still makes its own advise call, and the answers come back in
    request order.
    """

    endpoint: LlmEndpoint
    fallback_count: int = 0

    def refresh_act(self, reqs: list[ActRequest]) -> list[ActGuidance]:
        with SendAhead(self.endpoint, [build_act_prompt(req) for req in reqs]) as window:
            return [self.advise_act(req, window) for req in reqs]

    def refresh_coop(self, reqs: list[CoopRequest]) -> list[CoopGuidance]:
        with SendAhead(self.endpoint, [build_coop_prompt(req) for req in reqs]) as window:
            return [self.advise_coop(req, window) for req in reqs]

    def advise_act(self, req: ActRequest, window: SendAhead) -> ActGuidance:
        try:
            return parse_act_response(llm_advise(window))
        except (LlmTransportError, GuidanceParseError):
            self.fallback_count += 1
            return heuristic_advise_act(req)

    def advise_coop(self, req: CoopRequest, window: SendAhead) -> CoopGuidance:
        # The endpoint is asked for neighbour weights only; the constant self
        # weight is appended here.
        try:
            values = parse_coop_response(llm_advise(window), len(req.neighbor_ids))
        except (LlmTransportError, GuidanceParseError):
            self.fallback_count += 1
            return heuristic_advise_coop(req)
        return CoopGuidance(raw_weights=(*values, SELF_WEIGHT))
