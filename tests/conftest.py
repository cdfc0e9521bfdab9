import json
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from lacmas.config import load_config
from lacmas.objectives import make_spec
from lacmas.topology import build_ring

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture
def ring4():
    return build_ring(4)


@pytest.fixture
def sphere_small():
    """Homogeneous 4-agent, 3-dim sphere instance for fast engine runs."""
    return make_spec("sphere", num_agents=4, dim=3, hetero_sigma=0.0, seed=11)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def load_preset():
    """Load configs/<name>.json, the one definition of an experiment instance."""
    return lambda name: load_config(REPO / "configs" / f"{name}.json")


class _StubHandler(BaseHTTPRequestHandler):
    """Ollama-style `POST /api/generate`, answered as the server's `stub`
    settings say. `reply` and `status` are values or functions of the prompt;
    `raw_body`, when set, replaces the JSON body."""

    def do_POST(self):
        stub = self.server.stub
        payload = json.loads(self.rfile.read(int(self.headers.get("Content-Length", 0))))
        stub.payloads.append(payload)
        prompt = payload["prompt"]
        time.sleep(stub.delay_s)
        reply = stub.reply(prompt) if callable(stub.reply) else stub.reply
        status = stub.status(prompt) if callable(stub.status) else stub.status
        body = stub.raw_body
        if body is None:
            body = json.dumps({"response": reply}).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def stub_server():
    """A serial HTTP/1.0 stand-in for an LLM server on one thread, closing
    each connection after its reply. Yields its settings: `url`, `reply`,
    `status`, `raw_body`, `delay_s`, and `payloads`, every request received."""
    server = HTTPServer(("127.0.0.1", 0), _StubHandler)
    server.stub = stub = SimpleNamespace(
        url=f"http://127.0.0.1:{server.server_port}",
        reply="(0.7, 1.3)",
        status=200,
        raw_body=None,
        delay_s=0.0,
        payloads=[],
    )
    # A client that gave up (a timeout, a refresh cut short) has closed its
    # end; the broken pipe of the late reply needs no traceback.
    server.handle_error = lambda request, client_address: None
    # shutdown() waits for serve_forever's next poll; the default poll of
    # 0.5 s would cost each test about that much at teardown.
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
    )
    thread.start()
    yield stub
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)
