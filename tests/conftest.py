"""Shared fixtures: the replay corpus is built once per session, and a
scripted chat-completions server stands in for a live provider."""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from corpusgen import build_workspace


@pytest.fixture(scope="session")
def corpus(tmp_path_factory):
    return build_workspace(tmp_path_factory.mktemp("corpus"))


class ScriptedHandler(BaseHTTPRequestHandler):
    """Answers each POST with the next scripted status (200 when empty).

    -1 answers 200 after a one-second stall, -2 answers 200 with a body
    that is not JSON. Every request's Authorization header is recorded.
    """

    script: list[int] = []
    lock = threading.Lock()
    seen_auth: list[str | None] = []

    def do_POST(self):
        with self.lock:
            status = self.script.pop(0) if self.script else 200
        self.seen_auth.append(self.headers.get("Authorization"))
        length = int(self.headers.get("Content-Length", 0))
        self.rfile.read(length)
        if status == -1:
            time.sleep(1.0)
            status = 200
        if status == -2:
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.end_headers()
            self.wfile.write(b"not json")
            return
        body = json.dumps(
            {"choices": [{"message": {"content": '{"part_name": "bolt"}'}}]}
        ).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        if status == 200:
            self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture()
def http_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), ScriptedHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    ScriptedHandler.script = []
    ScriptedHandler.seen_auth = []
    yield f"http://127.0.0.1:{server.server_address[1]}/v1/chat/completions"
    server.shutdown()
    server.server_close()
