"""HTTP client for a remote generation/scoring service.

Wire protocol (JSON over HTTP, UTF-8):

    POST /generate  {"model": str, "prompt": str, "n": int,
                     "temperature": num, "max_tokens": int, "seed": int?}
                    -> {"samples": [{"text": str}, ...]}
    POST /score     {"model": str, "text": str}
                    -> {"token_logprobs": [num, ...]}

Transport: standard-library `http.client` over HTTP/1.1 keep-alive. Each
backend keeps one pool of idle connections shared by all its threads. A
request takes an idle connection or opens a new one, sends the JSON body
with its length, reads the whole response and returns the connection to the
pool unless the response says the server will close it. A pooled connection
that the server closed while it sat idle fails before any response byte
arrives; it is reopened once, and that does not count as an attempt. The
client connects straight to the configured host: `HTTP_PROXY`/`HTTPS_PROXY`
are not read.

Transient failures (5xx, connection errors, timeouts) are retried with
exponential backoff up to the configured attempt count; 4xx responses fail
immediately. Requests are idempotent, so retries never duplicate effects.
Perplexity is always recomputed client-side from the returned logprobs.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import threading
import time
from urllib.parse import urlsplit

from ..errors import (
    BackendTimeoutError,
    EmptyTextError,
    HttpStatusError,
    MalformedResponseError,
)
from .answers import extract_answer
from .backend import GenerationRequest, GenerationSample, ScoreResult

TOKEN_ENV_VAR = "TVFUSE_BACKEND_TOKEN"

# How a kept-alive connection that the server has since closed fails before
# any byte of the response arrives.
_STALE_CONNECTION_ERRORS = (http.client.RemoteDisconnected, ConnectionResetError, BrokenPipeError)


class HttpBackend:
    # The serving side loads the model named by a request's `model` path.
    loads_weights = True

    def __init__(
        self,
        base_url: str,
        max_attempts: int = 3,
        backoff_base: float = 0.5,
        backoff_factor: float = 2.0,
        timeout: float = 60.0,
        auth_token: str | None = None,
    ):
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if not (math.isfinite(timeout) and timeout > 0):
            raise ValueError(f"timeout must be finite and > 0, got {timeout}")
        self.base_url = base_url.rstrip("/")
        url = urlsplit(self.base_url)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError(f"backend URL must start with http:// or https://, got {base_url!r}")
        self._connection_class = (
            http.client.HTTPSConnection if url.scheme == "https" else http.client.HTTPConnection
        )
        self._host = url.hostname
        self._port = url.port
        self._path_prefix = url.path
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        self.backoff_factor = backoff_factor
        self.timeout = timeout
        self.auth_token = auth_token if auth_token is not None else os.environ.get(TOKEN_ENV_VAR)
        self._idle: list[http.client.HTTPConnection] = []
        self._idle_lock = threading.Lock()

    def close(self) -> None:
        """Close the idle pooled connections; a later request opens a new one."""
        with self._idle_lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    def _open(self) -> http.client.HTTPConnection:
        return self._connection_class(self._host, self._port, timeout=self.timeout)

    def _round_trip(self, path: str, body: bytes, headers: dict[str, str]) -> tuple[int, bytes]:
        """Send one request on a pooled connection and read the whole response."""
        with self._idle_lock:
            conn = self._idle.pop() if self._idle else None
        reused = conn is not None
        if conn is None:
            conn = self._open()
        try:
            try:
                conn.request("POST", path, body, headers)
                response = conn.getresponse()
            except _STALE_CONNECTION_ERRORS:
                if not reused:
                    raise
                conn.close()
                conn = self._open()
                conn.request("POST", path, body, headers)
                response = conn.getresponse()
            data = response.read()
        except BaseException:
            conn.close()
            raise
        if response.will_close:
            conn.close()
        else:
            with self._idle_lock:
                self._idle.append(conn)
        return response.status, data

    def _post(self, route: str, payload: dict) -> dict:
        try:
            body = json.dumps(payload, allow_nan=False).encode("utf-8")
        except ValueError as exc:
            raise HttpStatusError(0, f"{route}: cannot encode request: {exc}") from exc
        headers = {"Content-Type": "application/json"}
        if self.auth_token:
            headers["Authorization"] = f"Bearer {self.auth_token}"
        last_error: Exception | None = None
        for attempt in range(self.max_attempts):
            if attempt > 0:
                time.sleep(self.backoff_base * self.backoff_factor ** (attempt - 1))
            try:
                status, data = self._round_trip(self._path_prefix + route, body, headers)
            except TimeoutError as exc:
                last_error = BackendTimeoutError(f"{route}: timed out after {self.timeout}s")
                last_error.__cause__ = exc
                continue
            except (OSError, http.client.HTTPException) as exc:
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

    def generate(self, request: GenerationRequest) -> list[GenerationSample]:
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
        out: list[GenerationSample] = []
        for item in samples:
            if not isinstance(item, dict) or not isinstance(item.get("text"), str):
                raise MalformedResponseError("/generate: sample without 'text'")
            out.append(GenerationSample(text=item["text"], extracted_answer=extract_answer(item["text"])))
        return out

    def score(self, model_ref: str, text: str) -> ScoreResult:
        if not text:
            raise EmptyTextError("cannot score empty text")
        body = self._post("/score", {"model": model_ref, "text": text})
        logprobs = body.get("token_logprobs")
        if not isinstance(logprobs, list) or not all(
            isinstance(x, (int, float)) and not isinstance(x, bool) for x in logprobs
        ):
            raise MalformedResponseError("/score: missing numeric 'token_logprobs'")
        return ScoreResult.from_logprobs(logprobs)
