"""Shared fixtures: the replay corpus is built once per session, and
chat-completions servers stand in for live providers: a scripted HTTP/1.0
one that closes every connection, and an HTTP/1.1 one that keeps them open."""

from __future__ import annotations

import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import strategies as st

from corpusgen import build_workspace

# Any JSON value, for properties that put one where a valid value was.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children) | st.dictionaries(st.text(), children),
    max_leaves=8,
)


@pytest.fixture(scope="session")
def corpus(tmp_path_factory):
    return build_workspace(tmp_path_factory.mktemp("corpus"))


def finishes_within(seconds, fn):
    """fn's result; fails instead of hanging when fn does not return in time."""
    box = []
    worker = threading.Thread(target=lambda: box.append(fn()), daemon=True)
    worker.start()
    worker.join(timeout=seconds)
    assert not worker.is_alive(), f"did not finish within {seconds} s"
    return box[0]


class ScriptedHandler(BaseHTTPRequestHandler):
    """Answers each POST with the next scripted status (200 when empty).

    -1 answers 200 after a one-second stall. -2, -3 and -4 answer 200 with
    a body that is no usable completion: not JSON, an object without
    `choices`, and a message whose content is null. Every request's
    Authorization header is recorded.
    """

    script: list[int] = []
    lock = threading.Lock()
    seen_auth: list[str | None] = []
    broken_bodies = {
        -2: b"not json",
        -3: b'{"id": "no-choices"}',
        -4: b'{"choices": [{"message": {"content": null}}]}',
    }

    def do_POST(self):
        with self.lock:
            status = self.script.pop(0) if self.script else 200
        self.seen_auth.append(self.headers.get("Authorization"))
        length = int(self.headers.get("Content-Length", 0))
        self.rfile.read(length)
        if status == -1:
            time.sleep(1.0)
            status = 200
        if status in self.broken_bodies:
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.end_headers()
            self.wfile.write(self.broken_bodies[status])
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


# A reply that passes the default schema, so descriptions reach synthesis.
PART_DOCUMENT = {
    "part_name": "Hex Bolt",
    "manufacturer": "Acme",
    "part_number": "HB-8",
    "specifications": {"thread": "M8"},
}


class KeepAliveServer(ThreadingHTTPServer):
    """HTTP/1.1 server that counts the TCP connections it accepts.

    `delay(user_text)` gives the seconds to wait before answering a prompt,
    and `reply(user_text)` the document to answer with. `received` records
    each request's target and headers.
    """

    daemon_threads = True
    # A batch opens dozens of connections at once; a short listen backlog
    # drops SYNs, which the client resends only after a second.
    request_queue_size = 128

    def __init__(self):
        super().__init__(("127.0.0.1", 0), KeepAliveHandler)
        self.delay = lambda user_text: 0.0
        self.reply = lambda user_text: PART_DOCUMENT
        self.received = []
        self.connections = 0
        self.lock = threading.Lock()

    @property
    def url(self):
        return f"http://127.0.0.1:{self.server_address[1]}/v1/chat/completions"

    def get_request(self):
        conn, addr = super().get_request()
        with self.lock:
            self.connections += 1
        return conn, addr

    def handle_error(self, request, client_address):
        # A client that drops a kept-alive connection, as a batch that fails
        # does, is no server error. Printed, it would land in the stderr a
        # test is capturing from the client.
        if not isinstance(sys.exc_info()[1], ConnectionError):
            super().handle_error(request, client_address)


class KeepAliveHandler(BaseHTTPRequestHandler):
    """Answers every POST with the server's reply after its delay."""

    protocol_version = "HTTP/1.1"
    # Close a connection left idle this long, so no handler outlives its test.
    timeout = 5
    # Buffer each response into one write: a header write followed by a body
    # write makes a kept-alive client wait out a delayed ACK.
    wbufsize = -1

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        payload = json.loads(self.rfile.read(length))
        user_text = next(m["content"] for m in payload["messages"] if m["role"] == "user")
        self.server.received.append((self.path, self.headers))
        time.sleep(self.server.delay(user_text))
        content = json.dumps(self.server.reply(user_text))
        body = json.dumps({"choices": [{"message": {"content": content}}]}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture()
def keepalive_server():
    server = KeepAliveServer()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
