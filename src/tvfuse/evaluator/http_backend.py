"""HTTP client for a remote generation/scoring service.

Wire protocol (JSON over HTTP, UTF-8):

    POST /generate  {"model": str, "prompt": str, "n": int,
                     "temperature": num, "max_tokens": int, "seed": int?}
                    -> {"samples": [{"text": str}, ...]}
    POST /score     {"model": str, "text": str}
                    -> {"token_logprobs": [num, ...]}

Transport: HTTP/1.1 keep-alive on the client's own sockets. Each backend
keeps one pool of idle connections shared by all its threads. A connection
is a socket (TLS for an `https://` URL, with ALPN `http/1.1`; `ssl` is
imported only then) and one buffered reader that lasts as long as the
socket. A request takes an idle connection or opens a new one and sends
its head and JSON body in one write. The head carries `Host`,
`Accept-Encoding: identity`, `Content-Length`, `Content-Type:
application/json` and, with a token, `Authorization`. A reply's body is
read by its `Content-Length`, decoded when it is chunked, and otherwise
read until the server closes. As in `http.client`, a header line holds at
most 64 KiB, and the head at most 100 lines after the status line,
counting the blank line that ends it. The connection goes back to the pool
unless the reply is HTTP/1.0 without keep-alive or says `Connection:
close`. A pooled connection that the server closed while it sat idle fails
before any byte of the status line arrives; it is reopened once, and that
does not count as an attempt. The client connects straight to the
configured host: `HTTP_PROXY`/`HTTPS_PROXY` are not read.

Transient failures (5xx, connection errors, timeouts) are retried up to
the configured attempt count, sleeping 0.5 s before the first retry and
twice as long before each next one; 4xx responses fail immediately.
Requests are idempotent, so retries never duplicate effects. The bearer
token, if any, is read only from `TVFUSE_BACKEND_TOKEN`. The client checks
only the shape of a reply and returns its texts and log-probabilities as
sent; the query evaluator in `backend` derives answers and perplexity.
"""

from __future__ import annotations

import json
import math
import os
import socket
import threading
import time
from urllib.parse import urlsplit

from ..errors import (
    BackendTimeoutError,
    EmptyTextError,
    HttpStatusError,
    MalformedResponseError,
)
from .backend import GenerationRequest

TOKEN_ENV_VAR = "TVFUSE_BACKEND_TOKEN"
# The sleep before the first retry, and its factor before each next one.
BACKOFF_BASE_S = 0.5
BACKOFF_FACTOR = 2.0

# The limits of the standard library's `http.client`.
_MAX_LINE = 65536
_MAX_HEADERS = 100


class _FramingError(Exception):
    """A reply that is not well-formed HTTP/1.x."""


class _StaleConnection(ConnectionResetError):
    """The server closed or reset the connection before the status line."""


class _Connection:
    """One kept-alive HTTP/1.1 connection: a socket and one buffered reader
    that lasts as long as the socket."""

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._reader = sock.makefile("rb")

    def close(self) -> None:
        self._reader.close()
        self._sock.close()

    def _line(self) -> bytes:
        line = self._reader.readline(_MAX_LINE + 1)
        if len(line) > _MAX_LINE:
            raise _FramingError(f"reply line longer than {_MAX_LINE} bytes")
        return line

    def _exactly(self, count: int) -> bytes:
        data = self._reader.read(count)
        if len(data) < count:
            raise _FramingError(f"reply ended after {len(data)} of {count} bytes")
        return data

    def exchange(self, request: bytes) -> tuple[int, bytes, bool]:
        """Send one whole request; return the reply's status and body, and
        whether the connection stays open for another request."""
        try:
            self._sock.sendall(request)
            line = self._line()
        except (ConnectionResetError, BrokenPipeError) as exc:
            raise _StaleConnection(str(exc)) from exc
        if not line:
            raise _StaleConnection("server closed the connection before replying")
        parts = line.split(None, 2)
        code = parts[1] if len(parts) > 1 and parts[0].startswith(b"HTTP/1.") else b""
        if not (len(code) == 3 and code.isdigit()):
            raise _FramingError(f"bad status line {line[:80]!r}")
        status = int(code)
        headers: dict[bytes, bytes] = {}
        for _ in range(_MAX_HEADERS):  # counting the blank line that ends them
            line = self._line()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.partition(b":")
            headers.setdefault(name.strip().lower(), value.strip())
        else:
            raise _FramingError(f"more than {_MAX_HEADERS} header lines")
        connection = headers.get(b"connection", b"").lower()
        keep_alive = b"close" not in connection and (
            parts[0] != b"HTTP/1.0" or b"keep-alive" in connection or b"keep-alive" in headers
        )
        length = headers.get(b"content-length")
        if status in (204, 304):
            body = b""
        elif headers.get(b"transfer-encoding", b"").lower() == b"chunked":
            body = self._read_chunked()
        elif length is not None:
            if not length.isdigit():
                raise _FramingError(f"bad Content-Length {length[:80]!r}")
            body = self._exactly(int(length))
        else:
            body, keep_alive = self._reader.read(), False
        return status, body, keep_alive

    def _read_chunked(self) -> bytes:
        chunks = []
        while True:
            line = self._line()
            try:
                size = int(line.split(b";", 1)[0], 16)
            except ValueError:
                raise _FramingError(f"bad chunk size line {line[:80]!r}") from None
            if size <= 0:
                break
            chunks.append(self._exactly(size + 2)[:-2])  # the chunk and its CRLF
        while self._line() not in (b"\r\n", b"\n", b""):  # the trailer
            pass
        return b"".join(chunks)


class HttpBackend:
    # The serving side loads the model named by a request's `model` path.
    loads_weights = True

    def __init__(self, base_url: str, max_attempts: int, timeout: float):
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if not (math.isfinite(timeout) and timeout > 0):
            raise ValueError(f"timeout must be finite and > 0, got {timeout}")
        self.base_url = base_url.rstrip("/")
        url = urlsplit(self.base_url)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError(f"backend URL must start with http:// or https://, got {base_url!r}")
        self._host = url.hostname
        default_port = 443 if url.scheme == "https" else 80
        self._port = url.port or default_port
        self._tls = None
        if url.scheme == "https":
            import ssl

            self._tls = ssl.create_default_context()
            self._tls.set_alpn_protocols(["http/1.1"])
        self.max_attempts = max_attempts
        self.timeout = timeout
        self.auth_token = os.environ.get(TOKEN_ENV_VAR)
        if not all("!" <= c <= "~" for c in url.path + (self.auth_token or "")):
            raise ValueError("backend URL path and token must be printable ASCII without spaces")
        host = self._host if self._host.isascii() else self._host.encode("idna").decode("ascii")
        host = f"[{host}]" if ":" in host else host
        if self._port != default_port:
            host = f"{host}:{self._port}"
        auth = f"Authorization: Bearer {self.auth_token}\r\n" if self.auth_token else ""
        # Every request's head, around its route and its body's length.
        self._head = (
            f"POST {url.path}",
            f" HTTP/1.1\r\nHost: {host}\r\nAccept-Encoding: identity\r\nContent-Length: ",
            f"\r\nContent-Type: application/json\r\n{auth}\r\n",
        )
        self._idle: list[_Connection] = []
        self._idle_lock = threading.Lock()

    def close(self) -> None:
        """Close the idle pooled connections; a later request opens a new one."""
        with self._idle_lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    def __enter__(self) -> "HttpBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _open(self) -> _Connection:
        sock = socket.create_connection((self._host, self._port), self.timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self._tls is not None:
                sock = self._tls.wrap_socket(sock, server_hostname=self._host)
        except BaseException:
            sock.close()
            raise
        return _Connection(sock)

    def _round_trip(self, request: bytes) -> tuple[int, bytes]:
        """Send one request on a pooled connection and read the whole reply."""
        with self._idle_lock:
            conn = self._idle.pop() if self._idle else None
        reused = conn is not None
        if conn is None:
            conn = self._open()
        try:
            try:
                status, data, keep_alive = conn.exchange(request)
            except _StaleConnection:
                if not reused:
                    raise
                conn.close()
                conn = self._open()
                status, data, keep_alive = conn.exchange(request)
        except BaseException:
            conn.close()
            raise
        if keep_alive:
            with self._idle_lock:
                self._idle.append(conn)
        else:
            conn.close()
        return status, data

    def _post(self, route: str, payload: dict) -> dict:
        try:
            body = json.dumps(payload, allow_nan=False).encode("utf-8")
        except ValueError as exc:
            raise HttpStatusError(0, f"{route}: cannot encode request: {exc}") from exc
        start, middle, end = self._head
        request = f"{start}{route}{middle}{len(body)}{end}".encode("ascii") + body
        last_error: Exception | None = None
        for attempt in range(self.max_attempts):
            if attempt > 0:
                time.sleep(BACKOFF_BASE_S * BACKOFF_FACTOR ** (attempt - 1))
            try:
                status, data = self._round_trip(request)
            except TimeoutError as exc:
                last_error = BackendTimeoutError(f"{route}: timed out after {self.timeout}s")
                last_error.__cause__ = exc
                continue
            except (OSError, _FramingError) as exc:
                last_error = HttpStatusError(0, f"{route}: connection failed: {exc}")
                last_error.__cause__ = exc
                continue
            if 200 <= status < 300:
                try:
                    result = json.loads(data)
                except ValueError as exc:
                    raise MalformedResponseError(f"{route}: response is not JSON") from exc
                if not isinstance(result, dict):
                    raise MalformedResponseError(f"{route}: response is not a JSON object")
                return result
            if 500 <= status < 600:
                last_error = HttpStatusError(status, f"{route}: server error")
                continue
            text = data.decode("utf-8", errors="replace")
            raise HttpStatusError(status, f"{route}: {text[:200]}")
        assert last_error is not None
        raise last_error

    def generate(self, request: GenerationRequest) -> list[str]:
        payload = {
            "model": request.model_ref,
            "prompt": request.prompt,
            "n": request.num_samples,
            "temperature": request.temperature,
            "max_tokens": request.max_tokens,
        }
        if request.seed is not None:
            payload["seed"] = request.seed
        body = self._post("/generate", payload)
        samples = body.get("samples")
        if not isinstance(samples, list):
            raise MalformedResponseError("/generate: missing 'samples' list")
        if len(samples) != request.num_samples:
            raise MalformedResponseError(f"/generate: {len(samples)} samples for n={request.num_samples}")
        if not all(isinstance(item, dict) and isinstance(item.get("text"), str) for item in samples):
            raise MalformedResponseError("/generate: sample without 'text'")
        return [item["text"] for item in samples]

    def score(self, model_ref: str, text: str) -> list[float]:
        if not text:
            raise EmptyTextError("cannot score empty text")
        body = self._post("/score", {"model": model_ref, "text": text})
        logprobs = body.get("token_logprobs")
        if not isinstance(logprobs, list) or not all(
            isinstance(x, (int, float)) and not isinstance(x, bool) for x in logprobs
        ):
            raise MalformedResponseError("/score: missing numeric 'token_logprobs'")
        return logprobs
