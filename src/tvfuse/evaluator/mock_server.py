"""Minimal HTTP server exposing any backend over the wire protocol.

Used by the protocol-conformance tests and handy for trying the CLI with a
mock service: the HTTP client against this server must behave exactly like
the wrapped backend used in-process. `fail_next(n)` forces the next n
requests to answer 500, which exercises client retry logic.

The server speaks HTTP/1.1 and keeps connections alive, as the client
expects. It reads every request body before it answers, so a 500 leaves no
unread bytes on a kept-alive connection, and it sets TCP_NODELAY: a reply is
two writes (headers, then body), and with Nagle's algorithm the second would
wait for the client's delayed ACK of the first (about 40 ms on Linux).
`stop()` also closes the connections clients still hold open.
"""

from __future__ import annotations

import json
import socket
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from ..errors import BackendFailure
from .backend import EvaluationBackend, GenerationRequest

# How often the serve loop looks for a `stop()`, which waits up to this long
# for it; `socketserver`'s default is 0.5 s.
_POLL_INTERVAL_S = 0.02


class _KeepAliveServer(ThreadingHTTPServer):
    """Tracks open client connections so that closing the server ends them.

    A handler thread of a kept-alive connection waits for the client's next
    request; `server_close` shuts its socket down, which wakes it, and then
    joins it. A read or write of a socket shut so fails with a connection
    error that the shutdown caused, which is not reported; every other
    handler error is.
    """

    # `socketserver` joins only non-daemon handler threads on `server_close`.
    daemon_threads = False

    def __init__(self, *args, **kwargs):
        self._live: set[socket.socket] = set()
        self._shut: set[socket.socket] = set()
        self._live_lock = threading.Lock()
        super().__init__(*args, **kwargs)

    def process_request(self, request, client_address):
        with self._live_lock:
            self._live.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        with self._live_lock:
            self._live.discard(request)
        super().shutdown_request(request)

    def server_close(self):
        with self._live_lock:
            self._shut = set(self._live)
        for request in self._shut:
            try:
                request.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        super().server_close()

    def handle_error(self, request, client_address):
        if request in self._shut and isinstance(sys.exc_info()[1], OSError):
            return
        super().handle_error(request, client_address)


class MockInferenceServer:
    def __init__(self, backend: EvaluationBackend, host: str = "127.0.0.1", port: int = 0):
        self.backend = backend
        self._fail_lock = threading.Lock()
        self._fail_remaining = 0
        server_ref = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            disable_nagle_algorithm = True

            def log_message(self, *args):  # keep test output clean
                pass

            def _reply(self, status: int, body: dict) -> None:
                blob = json.dumps(body).encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(blob)))
                self.end_headers()
                self.wfile.write(blob)

            def do_POST(self):
                try:
                    length = int(self.headers.get("Content-Length", "0"))
                except ValueError:
                    length = -1
                if length < 0:
                    # The body's end is unknown, so the connection cannot be reused.
                    self.close_connection = True
                    self._reply(400, {"error": "bad Content-Length"})
                    return
                raw = self.rfile.read(length)
                if server_ref._consume_failure():
                    self._reply(500, {"error": "injected failure"})
                    return
                try:
                    payload = json.loads(raw.decode("utf-8"))
                except (ValueError, UnicodeDecodeError):
                    self._reply(400, {"error": "bad json"})
                    return
                try:
                    if self.path == "/generate":
                        request = GenerationRequest(
                            model_ref=str(payload["model"]),
                            prompt=str(payload["prompt"]),
                            num_samples=int(payload["n"]),
                            temperature=float(payload["temperature"]),
                            max_tokens=int(payload["max_tokens"]),
                            seed=payload.get("seed"),
                        )
                        texts = server_ref.backend.generate(request)
                        self._reply(200, {"samples": [{"text": text} for text in texts]})
                    elif self.path == "/score":
                        logprobs = server_ref.backend.score(
                            str(payload["model"]), str(payload["text"])
                        )
                        self._reply(200, {"token_logprobs": logprobs})
                    else:
                        self._reply(404, {"error": f"no route {self.path}"})
                except (KeyError, TypeError, ValueError) as exc:
                    self._reply(400, {"error": f"bad request: {exc}"})
                except BackendFailure as exc:
                    self._reply(400, {"error": str(exc)})

        self._server = _KeepAliveServer((host, port), Handler)
        self._thread = threading.Thread(
            target=self._server.serve_forever, args=(_POLL_INTERVAL_S,), daemon=True
        )

    def _consume_failure(self) -> bool:
        with self._fail_lock:
            if self._fail_remaining > 0:
                self._fail_remaining -= 1
                return True
            return False

    def fail_next(self, count: int) -> None:
        """Answer the next `count` requests with HTTP 500."""
        with self._fail_lock:
            self._fail_remaining = count

    @property
    def url(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "MockInferenceServer":
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop serving, close every connection and join every server thread."""
        self._server.shutdown()
        self._server.server_close()
        self._thread.join()

    def __enter__(self) -> "MockInferenceServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
