"""Suite-wide fixtures."""

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest


@pytest.fixture
def json_stub():
    """Start stub HTTP servers that answer fixed JSON bodies by path.

    ``json_stub({"/healthz": []})`` returns the server's ``(host, port)``;
    any method on a listed path gets a 200 with that body, anything else
    a 404.  ``json_stub.seen`` lists every ``(method, path)`` any stub
    received.  Servers stop at teardown.
    """
    servers = []
    seen: list[tuple[str, str]] = []

    def start(answers: dict) -> tuple[str, int]:
        class Handler(BaseHTTPRequestHandler):
            def do_GET(self):
                seen.append((self.command, self.path))
                self.rfile.read(int(self.headers.get("Content-Length") or 0))
                found = self.path in answers
                body = json.dumps(answers.get(self.path, {})).encode()
                self.send_response(200 if found else 404)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            do_POST = do_GET

            def log_message(self, *args):
                pass

        server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        servers.append(server)
        return server.server_address[:2]

    start.seen = seen
    yield start
    for server in servers:
        server.shutdown()
        server.server_close()
