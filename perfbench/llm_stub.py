"""In-process stand-in for a locally served language model.

It serves Ollama-style `POST /api/generate` on 127.0.0.1 from one server
thread. Every answer is a deterministic function of the prompt text, so runs
through it stay byte-reproducible. The stub reads the prompt the way a model
that follows its rules would: it parses the trajectory or neighbour table and
answers with lacmas's own heuristic rules applied to the parsed (rounded)
numbers:

- an action prompt gets a `(d, c)` pair;
- a cooperation prompt gets a `[w1, ..., wN]` list, N from its
  `Number of neighbors:` line;
- one prompt in MALFORMED_EVERY (by prompt hash) gets prose with no pair or
  list, so the client's parse fails and it falls back to the heuristic.

Each reply is sent after a fixed injected delay, DELAY_S, which stands in for
model inference time; the client's transport time is its call time minus it.
"""

from __future__ import annotations

import hashlib
import json
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer

from lacmas.guidance import ActRequest, CoopRequest, heuristic_advise_act, heuristic_advise_coop

DELAY_S = 0.002
MALFORMED_EVERY = 8
MALFORMED = "I cannot suggest an update from this history."

_NUM = r"([^,\s|]+)"
_PARAMS_RE = re.compile(r"Current iteration: around (\d+)\.\nCurrent parameters: d=(\d[\d.]*), c=(\d[\d.]*)")
_STEP_RE = re.compile(rf"Iteration (\d+): fitness={_NUM}, disagreement={_NUM} \|")
_COUNT_RE = re.compile(r"Number of neighbors: (\d+)")
_NEIGHBOR_RE = re.compile(rf"Neighbor ID (\d+): avg fitness={_NUM}, avg disagreement={_NUM} \|")


def answer(prompt: str) -> str:
    """The stub model's reply to one prompt."""
    if hashlib.sha256(prompt.encode()).digest()[0] % MALFORMED_EVERY == 0:
        return MALFORMED
    count = _COUNT_RE.search(prompt)
    if count:
        rows = _NEIGHBOR_RE.findall(prompt)
        if len(rows) != int(count.group(1)):
            return MALFORMED
        req = CoopRequest(
            neighbor_ids=tuple(int(k) for k, _, _ in rows),
            neighbor_stats=tuple((float(f), float(g)) for _, f, g in rows),
        )
        weights = heuristic_advise_coop(req).raw_weights[:-1]  # self weight is added locally
        return "[" + ", ".join(f"{w:.6g}" for w in weights) + "]"
    params = _PARAMS_RE.search(prompt)
    steps = _STEP_RE.findall(prompt)
    if not params or not steps:
        return MALFORMED
    req = ActRequest(
        iteration=int(params.group(1)),
        current_d=float(params.group(2).rstrip(".")),
        current_c=float(params.group(3).rstrip(".")),
        trajectory=tuple((int(k), float(f), float(g)) for k, f, g in steps),
    )
    out = heuristic_advise_act(req)
    return f"Updated parameters: ({out.d:.6g}, {out.c:.6g})"


class _Handler(BaseHTTPRequestHandler):
    def do_POST(self):
        if self.path != "/api/generate":
            self.send_error(404)
            return
        payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        text = answer(payload["prompt"])
        time.sleep(self.server.delay_s)
        body = json.dumps({"model": payload.get("model"), "response": text, "done": True}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


class LlmStub:
    """Context manager running the stub server on one daemon thread."""

    def __init__(self, delay_s: float = DELAY_S):
        self.delay_s = delay_s
        self._server: HTTPServer | None = None
        self._thread: threading.Thread | None = None

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self._server.server_port}"

    def __enter__(self) -> "LlmStub":
        self._server = HTTPServer(("127.0.0.1", 0), _Handler)
        self._server.delay_s = self.delay_s
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=10)
