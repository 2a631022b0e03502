"""Stub chat-completions server for the HTTP workload.

Run as its own process:

    python perfbench/stub.py WORKLOAD_JSON

It binds 127.0.0.1 on a free port and prints `{"port": N}` as its first
stdout line. Each request is answered after a delay that is a pure function
of (seed, model, prompt text), with the body the workload plans for that
call. Reading the line `stats` on stdin prints the request and accepted
connection counts as one JSON line; end of stdin shuts the server down.

Every response goes out in a single write. Separate header and body writes
make a kept-alive client stall on delayed ACKs, which would hide the gain
of connection reuse behind a fixed ~40 ms per call.
"""

from __future__ import annotations

import json
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from workload import Workload  # noqa: E402


class StubServer(ThreadingHTTPServer):
    daemon_threads = True
    request_queue_size = 128

    def __init__(self, workload: Workload) -> None:
        super().__init__(("127.0.0.1", 0), StubHandler)
        self.workload = workload
        self.lock = threading.Lock()
        self.requests = 0
        self.connections = 0

    def get_request(self) -> tuple[socket.socket, object]:
        conn, addr = super().get_request()
        with self.lock:
            self.connections += 1
        return conn, addr


class StubHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server: StubServer

    def do_POST(self) -> None:  # noqa: N802 - http.server naming
        length = int(self.headers.get("Content-Length", "0"))
        payload = json.loads(self.rfile.read(length))
        model = payload["model"]
        user_text = next(m["content"] for m in payload["messages"] if m["role"] == "user")
        with self.server.lock:
            self.server.requests += 1
        delay, text = self.server.workload.served_reply(model, user_text)
        time.sleep(delay)
        body = json.dumps({"choices": [{"message": {"role": "assistant", "content": text}}]})
        data = body.encode("utf-8")
        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(data)}\r\n"
            "\r\n"
        ).encode("ascii")
        try:
            self.wfile.write(head + data)
        except OSError:
            # The client gave up (a planned timeout); nothing left to answer.
            self.close_connection = True

    def log_message(self, format: str, *args: object) -> None:
        pass


def main(argv: list[str]) -> int:
    workload = Workload.from_json(Path(argv[0]).read_text(encoding="utf-8"))
    server = StubServer(workload)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    print(json.dumps({"port": server.server_address[1]}), flush=True)
    try:
        for line in sys.stdin:
            if line.strip() == "stats":
                with server.lock:
                    stats = {"requests": server.requests, "connections": server.connections}
                print(json.dumps(stats), flush=True)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
