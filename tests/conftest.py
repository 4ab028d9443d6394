from __future__ import annotations

import http.server
import json
import threading

import pytest

from carbondef import PerComponent, ServerSpec


@pytest.fixture
def example_spec() -> ServerSpec:
    """The worked example used throughout: 4x100 W CPUs, 1 kW at full load."""
    return ServerSpec(
        tdp_watts=100.0,
        n_cpu=4,
        alpha=PerComponent(cpu=0.4, mem=0.3, io=0.2, net=0.1),
        u_max=PerComponent(cpu=4.0, mem=64e9, io=1e12, net=1e12),
    )


class _StubHandler(http.server.BaseHTTPRequestHandler):
    def do_GET(self):
        self.server.hits += 1
        self.server.last_path = self.path
        body = json.dumps(self.server.payload).encode("utf-8")
        self.send_response(self.server.status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


class StubFeedServer(http.server.ThreadingHTTPServer):
    """Feed endpoint serving a canned payload with a settable HTTP status,
    counting requests."""

    def __init__(self):
        super().__init__(("127.0.0.1", 0), _StubHandler)
        self.payload = {
            "region": "NL",
            "entries": [
                {"start": 0, "end": 1800, "intensity_kg_per_kwh": 0.4},
                {"start": 1800, "end": 3600, "intensity_kg_per_kwh": 0.2},
            ],
        }
        self.status = 200
        self.hits = 0
        self.last_path = None

    @property
    def endpoint(self) -> str:
        return f"http://127.0.0.1:{self.server_address[1]}/intensity"


@pytest.fixture
def feed_server():
    server = StubFeedServer()
    # a short poll: shutdown() waits up to one interval, and the default 0.5 s adds up over the suite
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
