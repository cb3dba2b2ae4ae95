"""Wire-protocol conformance: the HTTP client over the bundled mock server
must satisfy the same contract as the in-process mock backend."""

from __future__ import annotations

import contextlib
import http.server
import json
import math
import os
import shutil
import socket
import ssl
import struct
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from defaults import CONFIG, GEN_PARAMS, gen_request, http_client, mock_backend
from tvfuse.errors import (
    BackendFailure,
    BackendTimeoutError,
    HttpStatusError,
    MalformedResponseError,
)
from tvfuse.evaluator import (
    MockBackend,
    MockInferenceServer,
    consistency,
    encode_model_ref,
    extract_answer,
    quadratic_landscape,
)
from tvfuse.evaluator.backend import QueryFanOut, perplexity, sample_consistency, score_perplexity
from tvfuse.evaluator.mock_server import _POLL_INTERVAL_S

LANDSCAPE = quadratic_landscape(peak=(0.8, 1.5), falloff=0.5, ppl_base=2.0, ppl_slope=3.0)


class CountingServer(MockInferenceServer):
    """Mock server that counts the TCP connections it accepts."""

    def __init__(self, backend):
        super().__init__(backend)
        self.accepted = 0
        accept = self._server.get_request

        def get_request():
            connection = accept()
            self.accepted += 1  # only the serving thread accepts
            return connection

        self._server.get_request = get_request


@contextlib.contextmanager
def serve(handler_class):
    """Run a bare stdlib HTTP server with `handler_class`; yield its URL."""
    srv = http.server.ThreadingHTTPServer(("127.0.0.1", 0), handler_class)
    # A short poll, as the mock server's, so `shutdown` does not wait 0.5 s.
    thread = threading.Thread(target=srv.serve_forever, args=(_POLL_INTERVAL_S,), daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{srv.server_address[1]}"
    finally:
        srv.shutdown()
        srv.server_close()


class QuietHandler(http.server.BaseHTTPRequestHandler):
    def log_message(self, *args):
        pass

    def reply(self, body: bytes) -> None:
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


@pytest.fixture(scope="module")
def server():
    with MockInferenceServer(mock_backend(LANDSCAPE, seed=5)) as srv:
        yield srv


@pytest.fixture(scope="module")
def http_backend(server):
    with contextlib.closing(http_client(server.url, max_attempts=3)) as client:
        yield client


@pytest.fixture(scope="module")
def local_backend():
    return mock_backend(LANDSCAPE, seed=5)


@pytest.fixture(scope="module", params=["mock", "http"])
def backend(request, local_backend, http_backend):
    return local_backend if request.param == "mock" else http_backend


# --- the shared contract suite, run against both implementations ---


def test_contract_generate_sample_count(backend):
    samples = backend.generate(gen_request("sft", "q-alpha", num_samples=4))
    assert len(samples) == 4
    assert all(extract_answer(s) is not None for s in samples)


def test_contract_consistency_quantized(backend):
    samples = backend.generate(gen_request(encode_model_ref(0.8, 1.5), "q-beta", num_samples=5))
    answers = [extract_answer(s) for s in samples]
    value = consistency(answers, 5)
    assert value in {0.2, 0.4, 0.6, 0.8, 1.0}
    assert value == 1.0  # at the peak every sample agrees


def test_contract_score_perplexity_definition(backend):
    logprobs = backend.score(encode_model_ref(0.8, 1.5), "some query text")
    recomputed = math.exp(-sum(logprobs) / len(logprobs))
    assert abs(perplexity(logprobs) - recomputed) <= 1e-9
    assert perplexity(logprobs) == pytest.approx(2.0, rel=1e-9)


def test_contract_unknown_model_is_backend_failure(backend):
    with pytest.raises(BackendFailure):
        backend.generate(gen_request("not-a-model", "q", num_samples=1))


def test_contract_same_results_both_transports(local_backend, http_backend):
    req = gen_request(encode_model_ref(0.6, 1.1), "identical question", num_samples=5)
    assert local_backend.generate(req) == http_backend.generate(req)
    assert local_backend.score("sft", "t") == http_backend.score("sft", "t")


# --- retry behaviour -------------------------------------------------------------


def test_two_failures_then_success_is_retried(server, http_backend, slept):
    server.fail_next(2)
    samples = http_backend.generate(gen_request("sft", "retry-me", num_samples=2))
    assert len(samples) == 2


def test_persistent_500s_exhaust_retries(server, http_backend, slept):
    server.fail_next(3)  # max_attempts is 3: every attempt sees a 500
    with pytest.raises(HttpStatusError) as info:
        http_backend.generate(gen_request("sft", "doomed", num_samples=1))
    assert info.value.status == 500
    server.fail_next(0)
    # 0.5 s before the first retry, doubled before the next.
    assert slept == [0.5, 1.0]


def test_client_side_perplexity_recomputation(server, http_backend):
    ppl = score_perplexity(http_backend, encode_model_ref(0.8, 1.5), "query text")
    assert abs(ppl - 2.0) <= 1e-9


def test_http_4xx_fails_without_retry(server, http_backend, slept):
    with pytest.raises(HttpStatusError) as info:
        http_backend._post("/generate", {"model": "sft"})  # missing required fields -> 400
    assert info.value.status == 400
    with pytest.raises(HttpStatusError) as info:
        http_backend._post("/nope", {})
    assert info.value.status == 404
    assert slept == []


# Each case: the call, a 200 reply's body, and the text the error holds.
MALFORMED_REPLIES = {
    "not-json": ("generate", b"definitely not json", "not JSON"),
    "array": ("generate", b"[1]", "not a JSON object"),
    "samples-not-a-list": ("generate", b'{"samples": 1}', "missing 'samples' list"),
    "sample-without-text": ("generate", b'{"samples": [{"txt": "a"}]}', "sample without 'text'"),
    "logprobs-strings": ("score", b'{"token_logprobs": ["a"]}', "missing numeric"),
    "logprobs-missing": ("score", b"{}", "missing numeric"),
}


@pytest.mark.parametrize("case", list(MALFORMED_REPLIES))
def test_malformed_server_response(case):
    call, body, needle = MALFORMED_REPLIES[case]

    class BadHandler(QuietHandler):
        def do_POST(self):
            self.reply(body)

    with serve(BadHandler) as url, contextlib.closing(http_client(url, max_attempts=1)) as client:
        with pytest.raises(MalformedResponseError, match=needle):
            if call == "generate":
                client.generate(gen_request("m", "p", num_samples=1))
            else:
                client.score("m", "text")


# Each case: a request's Content-Length header and body, and the error the
# mock server answers with status 400.
BAD_REQUESTS = {
    "length-not-a-number": (b"abc", b"", "bad Content-Length"),
    "length-negative": (b"-1", b"", "bad Content-Length"),
    "body-not-json": (b"1", b"{", "bad json"),
    "max-tokens-zero": (
        None,
        json.dumps({"model": "sft", "prompt": "p", "n": 1, "temperature": 0.6, "max_tokens": 0}).encode(),
        "max_tokens must be >= 1",
    ),
}


@pytest.mark.parametrize("case", list(BAD_REQUESTS))
def test_mock_server_answers_a_bad_request_with_400(case):
    length, body, needle = BAD_REQUESTS[case]
    length = str(len(body)).encode() if length is None else length
    with MockInferenceServer(mock_backend(LANDSCAPE, seed=5)) as srv:
        port = int(srv.url.rsplit(":", 1)[1])
        with socket.create_connection(("127.0.0.1", port), timeout=5.0) as sock:
            sock.sendall(b"POST /generate HTTP/1.1\r\nContent-Length: " + length + b"\r\n\r\n" + body)
            with sock.makefile("rb") as reply:
                status_line = reply.readline()
                headers = {}
                while (line := reply.readline()) not in (b"\r\n", b""):
                    name, _, value = line.partition(b":")
                    headers[name.strip().lower()] = value.strip()
                error = json.loads(reply.read(int(headers[b"content-length"])))["error"]
    assert status_line.split()[1] == b"400", status_line
    assert needle in error, error


class FaultyBackend(MockBackend):
    """A mock whose replies a remote server could send: `extra` samples more
    than asked for (fewer when negative), and the list `logprobs` for every
    text, as a backend returns it, unchecked."""

    def __init__(self, extra: int, logprobs: tuple[float, ...] = (-1.0,)):
        mock = CONFIG.backend.mock
        super().__init__(LANDSCAPE, 5, mock.aliases, mock.query_jitter)
        self.extra = extra
        self.logprobs = logprobs

    def generate(self, request):
        samples = super().generate(request)
        return (samples * 2)[: len(samples) + self.extra]

    def score(self, model_ref, text):
        return list(self.logprobs)


@pytest.mark.parametrize("extra", [-1, 1])
def test_a_reply_with_the_wrong_sample_count_fails_its_query(extra):
    with MockInferenceServer(FaultyBackend(extra)) as srv:
        with contextlib.closing(http_client(srv.url, max_attempts=1)) as client:
            with pytest.raises(MalformedResponseError, match="samples for n=5"):
                client.generate(gen_request("sft", "q", num_samples=5))
            params = GEN_PARAMS
            with QueryFanOut(2) as fan_out:
                results, failures = fan_out.map(
                    lambda i, qid, text: sample_consistency(client, "sft", text, 5, params, seed=i),
                    [("q1", "first"), ("q2", "second")],
                )
    assert results == []
    assert [qid for qid, _ in failures] == ["q1", "q2"]
    assert all(isinstance(exc, MalformedResponseError) for _, exc in failures)


@pytest.mark.parametrize(
    "logprobs", [[float("nan")], [float("inf")], [-1000.0]], ids=["nan", "inf", "overflow"]
)
def test_a_score_without_a_finite_perplexity_is_malformed(logprobs):
    # JSON's reader accepts NaN and Infinity, so they arrive over the wire.
    # The client returns them as sent; the query evaluator refuses them.
    with MockInferenceServer(FaultyBackend(0, logprobs)) as srv:
        with contextlib.closing(http_client(srv.url, max_attempts=1)) as client:
            assert repr(client.score("sft", "some text")) == repr(logprobs)
            with pytest.raises(MalformedResponseError):
                score_perplexity(client, "sft", "some text")


def test_connection_refused_is_backend_failure(slept):
    client = http_client("http://127.0.0.1:9", max_attempts=2, timeout=0.5)
    with pytest.raises(BackendFailure):
        client.score("m", "text")


def set_token(monkeypatch, token: str | None) -> None:
    """Give the client `token` through the environment, or no token for None."""
    if token is None:
        monkeypatch.delenv("TVFUSE_BACKEND_TOKEN", raising=False)
    else:
        monkeypatch.setenv("TVFUSE_BACKEND_TOKEN", token)


def test_auth_token_comes_from_environment(monkeypatch):
    monkeypatch.setenv("TVFUSE_BACKEND_TOKEN", "secret-token")
    client = http_client("http://example.invalid")
    assert client.auth_token == "secret-token"
    monkeypatch.delenv("TVFUSE_BACKEND_TOKEN")
    assert http_client("http://example.invalid").auth_token is None
    monkeypatch.setenv("TVFUSE_BACKEND_TOKEN", "another")
    assert http_client("http://example.invalid").auth_token == "another"


@pytest.mark.parametrize(
    "url, token",
    [("http://127.0.0.1:9/a b", None), ("http://127.0.0.1:9", "two\r\nX-Injected: 1")],
    ids=["space-in-path", "line-break-in-token"],
)
def test_a_path_or_token_that_cannot_go_in_a_request_head_is_refused_up_front(
    monkeypatch, url, token
):
    set_token(monkeypatch, token)
    with pytest.raises(ValueError, match="printable ASCII"):
        http_client(url)


def test_unencodable_payload_fails_without_retry(slept):
    # NaN is not JSON; nothing is sent and no backoff is slept.
    client = http_client("http://127.0.0.1:9", max_attempts=3)
    with pytest.raises(HttpStatusError) as info:
        client._post("/generate", {"temperature": float("nan")})
    assert info.value.status == 0
    assert slept == []


# --- keep-alive transport ---------------------------------------------------------


def test_requests_reuse_kept_alive_connections():
    with CountingServer(mock_backend(LANDSCAPE, seed=5)) as srv:
        client = http_client(srv.url)
        for i in range(200):
            client.score("sft", f"sequential {i}")
        assert srv.accepted == 1
        with ThreadPoolExecutor(max_workers=2) as pool:
            results = list(pool.map(lambda i: client.score("sft", f"concurrent {i}"), range(200)))
        assert len(results) == 200
        accepted = srv.accepted
        assert accepted <= 2
        client.close()
        client.score("sft", "after close")
        assert srv.accepted == accepted + 1
        client.close()


def test_injected_500_keeps_the_connection_in_sync(slept):
    # The server must read the body of the request it fails; otherwise the
    # retry on the same connection is parsed after the unread JSON bytes.
    request = gen_request(encode_model_ref(0.6, 1.1), "in sync", num_samples=3)
    expected = mock_backend(LANDSCAPE, seed=5).generate(request)
    with CountingServer(mock_backend(LANDSCAPE, seed=5)) as srv, contextlib.closing(
        http_client(srv.url, max_attempts=2)
    ) as client:
        client.score("sft", "open the connection")
        srv.fail_next(1)
        assert client.generate(request) == expected
        assert srv.accepted == 1


def test_connection_closed_by_server_is_reopened_without_an_attempt():
    class CloseAfterReply(QuietHandler):
        # HTTP/1.1 without "Connection: close": the client cannot tell that
        # the server hangs up after every reply.
        protocol_version = "HTTP/1.1"

        def do_POST(self):
            self.rfile.read(int(self.headers["Content-Length"]))
            self.reply(b'{"token_logprobs": [-0.5, -1.5]}')
            self.close_connection = True

    with serve(CloseAfterReply) as url, contextlib.closing(http_client(url, max_attempts=1)) as client:
        for _ in range(3):
            assert perplexity(client.score("m", "text")) == pytest.approx(math.exp(1.0))


def test_slow_server_raises_timeout():
    class SlowHandler(QuietHandler):
        def do_POST(self):
            time.sleep(0.5)

    with serve(SlowHandler) as url:
        client = http_client(url, max_attempts=1, timeout=0.1)
        with pytest.raises(BackendTimeoutError):
            client.score("m", "text")


def test_kept_alive_round_trips_do_not_wait_for_delayed_acks(http_backend):
    # Each reply is two writes. Without TCP_NODELAY on the server, the second
    # waits for the client's delayed ACK (about 40 ms on Linux) every time:
    # 20 round trips then take about 0.9 s instead of tens of milliseconds.
    http_backend.score("sft", "open the connection")
    start = time.perf_counter()
    for i in range(20):
        http_backend.score("sft", f"round trip {i}")
    assert time.perf_counter() - start < 0.4


def test_stop_closes_kept_alive_connections():
    srv = MockInferenceServer(mock_backend(LANDSCAPE, seed=5)).start()
    client = http_client(srv.url, max_attempts=1)
    client.score("sft", "leave the connection open")
    start = time.perf_counter()
    srv.stop()
    assert time.perf_counter() - start < 5.0
    with pytest.raises(BackendFailure):
        client.score("sft", "after stop")
    client.close()


@pytest.mark.parametrize("connected", [False, True], ids=["just-started", "kept-alive"])
def test_stop_returns_without_waiting_out_a_half_second_poll(connected):
    srv = MockInferenceServer(mock_backend(LANDSCAPE, seed=5)).start()
    client = http_client(srv.url, max_attempts=1)
    if connected:
        client.score("sft", "leave the connection open")
    start = time.perf_counter()
    srv.stop()
    elapsed = time.perf_counter() - start
    client.close()
    assert elapsed < 0.25


def test_stop_with_a_kept_alive_connection_prints_nothing(capfd):
    before = set(threading.enumerate())
    srv = MockInferenceServer(mock_backend(LANDSCAPE, seed=5)).start()
    client = http_client(srv.url, max_attempts=1)
    client.score("sft", "leave the connection open")
    capfd.readouterr()
    srv.stop()
    # `stop` joins the handler thread it woke.
    assert not set(threading.enumerate()) - before
    # The request resets the connection whose handler `stop` woke.
    with pytest.raises(BackendFailure):
        client.score("sft", "after stop")
    client.close()
    assert capfd.readouterr() == ("", "")


def test_stop_joins_a_handler_with_a_request_in_flight(capfd):
    started = threading.Event()

    class Slow(MockBackend):
        def score(self, model_ref, text):
            started.set()
            # Reply once `stop` has shut the sockets, before it joins the handlers.
            deadline = time.monotonic() + 5.0
            while not srv._server._shut and time.monotonic() < deadline:
                time.sleep(0.01)
            return super().score(model_ref, text)

    before = set(threading.enumerate())
    srv = MockInferenceServer(mock_backend(LANDSCAPE, Slow, seed=5)).start()
    client = http_client(srv.url, max_attempts=1)
    failures = []

    def call():
        try:
            client.score("sft", "in flight")
        except BackendFailure as exc:
            failures.append(exc)

    caller = threading.Thread(target=call)
    caller.start()
    assert started.wait(5.0)
    srv.stop()
    # The handler has written its reply to the socket `stop` shut, and ended.
    assert set(threading.enumerate()) - before <= {caller}
    caller.join(5.0)
    client.close()
    assert not caller.is_alive() and len(failures) == 1
    assert capfd.readouterr() == ("", "")


def test_a_failing_handler_still_prints_its_traceback(capfd):
    class Failing(MockBackend):
        def score(self, model_ref, text):
            raise RuntimeError("the backend broke")

    with MockInferenceServer(mock_backend(LANDSCAPE, Failing, seed=5)) as srv:
        client = http_client(srv.url, max_attempts=1)
        with pytest.raises(BackendFailure):
            client.score("sft", "text")
        client.close()
    err = capfd.readouterr().err
    assert "Traceback" in err and "RuntimeError: the backend broke" in err, err


SCORE_BODY = b'{"token_logprobs": [-0.5, -1.5]}'


def replying(reply: bytes, close: bool):
    """A handler that answers every request with the raw bytes `reply`, then
    closes the connection if `close`, and counts the connections it serves."""

    class Handler(QuietHandler):
        protocol_version = "HTTP/1.1"
        connections = 0
        requests = 0

        def setup(self):
            super().setup()
            type(self).connections += 1

        def do_POST(self):
            type(self).requests += 1
            self.rfile.read(int(self.headers["Content-Length"]))
            self.wfile.write(reply)
            self.close_connection = close

    return Handler


def framed(status_line: bytes, *headers: bytes, body: bytes = SCORE_BODY) -> bytes:
    return b"\r\n".join((status_line, *headers, b"", body))


# Each case: the raw reply, whether the server then closes, and how many
# connections three requests take. A server that keeps a connection open
# after a reply that says it will not shows whether the client honours it.
REPLIES = {
    "content-length": (framed(b"HTTP/1.1 200 OK", b"Content-Length: 32"), False, 1),
    "chunked": (
        framed(
            b"HTTP/1.1 200 OK",
            b"Transfer-Encoding: chunked",
            body=b"7;note=1\r\n" + SCORE_BODY[:7] + b"\r\n19\r\n" + SCORE_BODY[7:]
            + b"\r\n0\r\nX-Trailer: 1\r\n\r\n",
        ),
        False,
        1,
    ),
    # 100 lines, counting the blank line that ends them.
    "99-header-lines": (
        framed(
            b"HTTP/1.1 200 OK", *[b"X-Filler-%d: 1" % i for i in range(98)], b"Content-Length: 32"
        ),
        False,
        1,
    ),
    "http-1.0": (framed(b"HTTP/1.0 200 OK", b"Content-Length: 32"), False, 3),
    "http-1.0-keep-alive": (
        framed(b"HTTP/1.0 200 OK", b"Connection: keep-alive", b"Content-Length: 32"), False, 1
    ),
    "connection-close": (
        framed(b"HTTP/1.1 200 OK", b"Connection: close", b"Content-Length: 32"), False, 3
    ),
    "until-close": (framed(b"HTTP/1.1 200 OK", b"Content-Type: application/json"), True, 3),
}


@pytest.mark.parametrize("case", list(REPLIES))
def test_reply_framing_and_connection_reuse(case):
    reply, close, connections = REPLIES[case]
    handler = replying(reply, close)
    with serve(handler) as url, contextlib.closing(http_client(url, max_attempts=1)) as client:
        for _ in range(3):
            assert client.score("m", "text") == [-0.5, -1.5]
    assert (handler.requests, handler.connections) == (3, connections)


# Replies whose framing breaks a limit. The server keeps the connection
# open, so a client that read on would wait for its timeout.
BAD_FRAMING = {
    "long-header-line": framed(
        b"HTTP/1.1 200 OK", b"X-Long: " + b"a" * 70_000, b"Content-Length: 32"
    ),
    "100-header-lines": framed(b"HTTP/1.1 200 OK", *[b"X-Filler-%d: 1" % i for i in range(100)]),
    "bad-status-line": framed(b"HTTP/1.1 OK", b"Content-Length: 32"),
    "bad-content-length": framed(b"HTTP/1.1 200 OK", b"Content-Length: 3x"),
    "bad-chunk-size": framed(b"HTTP/1.1 200 OK", b"Transfer-Encoding: chunked", body=b"zz\r\n"),
}


@pytest.mark.parametrize("case", list(BAD_FRAMING))
def test_malformed_framing_is_a_connection_failure(slept, case):
    handler = replying(BAD_FRAMING[case], False)
    with serve(handler) as url, contextlib.closing(
        http_client(url, max_attempts=2, timeout=5.0)
    ) as client:
        start = time.perf_counter()
        with pytest.raises(HttpStatusError) as info:
            client.score("m", "text")
        assert time.perf_counter() - start < 2.0
    assert info.value.status == 0 and "connection failed" in str(info.value)
    assert handler.requests == 2  # retried


def test_a_204_reply_has_no_body():
    # Read as a body, the kept-open connection would wait out the timeout.
    handler = replying(b"HTTP/1.1 204 No Content\r\n\r\n", False)
    with serve(handler) as url, contextlib.closing(
        http_client(url, max_attempts=1, timeout=5.0)
    ) as client:
        start = time.perf_counter()
        with pytest.raises(MalformedResponseError, match="not JSON"):
            client.score("m", "text")
        assert time.perf_counter() - start < 2.0


def test_a_reset_before_the_reply_is_a_connection_failure(slept):
    class Resetting(QuietHandler):
        connections = 0

        def handle(self):
            type(self).connections += 1
            # Closed with a zero linger time, the socket sends a reset, not an end of file.
            self.request.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            self.request.close()

    with serve(Resetting) as url, contextlib.closing(http_client(url, max_attempts=2)) as client:
        with pytest.raises(HttpStatusError, match="connection failed") as info:
            client.score("m", "text")
    assert isinstance(info.value.__cause__, ConnectionResetError)
    assert Resetting.connections == 2  # retried on a new connection


def test_body_cut_short_is_retried(slept):
    class CutShort(QuietHandler):
        protocol_version = "HTTP/1.1"
        requests = 0

        def do_POST(self):
            type(self).requests += 1
            self.rfile.read(int(self.headers["Content-Length"]))
            if self.requests == 1:
                self.wfile.write(framed(b"HTTP/1.1 200 OK", b"Content-Length: 32")[:-20])
                self.close_connection = True
            else:
                self.reply(SCORE_BODY)

    with serve(CutShort) as url, contextlib.closing(http_client(url, max_attempts=2)) as client:
        assert client.score("m", "text") == [-0.5, -1.5]
    assert CutShort.requests == 2


def capture_request(monkeypatch, url: str, token: str | None) -> tuple[int, tuple, bytes, bytes]:
    """Send one score request to `url` with `{port}` filled in, connected to a
    local listener at that port whatever the host. Return the port, the
    address the client asked for, and the request's head and body."""
    set_token(monkeypatch, token)
    received = []
    with socket.create_server(("127.0.0.1", 0)) as listener:
        port = listener.getsockname()[1]

        def serve_one():
            conn, _ = listener.accept()
            with conn, conn.makefile("rb") as reader:
                head = b"".join(iter(reader.readline, b"\r\n")) + b"\r\n"
                length = int(head.split(b"Content-Length: ")[1].split(b"\r\n")[0])
                received.extend((head, reader.read(length)))
                conn.sendall(framed(b"HTTP/1.1 200 OK", b"Content-Length: 32"))

        def connect(address, *args, **kwargs):
            received.append(address)
            return create_connection(("127.0.0.1", port), *args, **kwargs)

        thread = threading.Thread(target=serve_one, daemon=True)
        thread.start()
        create_connection = socket.create_connection
        monkeypatch.setattr(socket, "create_connection", connect)
        with contextlib.closing(http_client(url.format(port=port))) as client:
            client.score("m", "text")
        thread.join(5.0)
    address, head, body = received
    return port, address, head, body


# Each case: the backend URL and token; the address connected to, the
# request path and the Host header the request must carry.
REQUEST_HEADS = {
    "port-and-path": (
        "http://127.0.0.1:{port}/v1", "tok", ("127.0.0.1", "{port}"), "/v1/score", "127.0.0.1:{port}"
    ),
    "default-port": ("http://backend.test", None, ("backend.test", "80"), "/score", "backend.test"),
    "explicit-default-port": (
        "http://backend.test:80/", None, ("backend.test", "80"), "/score", "backend.test"
    ),
    "ipv6": ("http://[::1]:8080", None, ("::1", "8080"), "/score", "[::1]:8080"),
    # The port is the scheme's default, not the "1" after the last colon.
    "ipv6-default-port": ("http://[::1]", None, ("::1", "80"), "/score", "[::1]"),
}


@pytest.mark.parametrize("case", list(REQUEST_HEADS))
def test_request_head_holds_exactly_these_lines(monkeypatch, case):
    url, token, address, path, host = REQUEST_HEADS[case]
    port, connected, head, body = capture_request(monkeypatch, url, token)
    assert connected == (address[0], int(address[1].format(port=port)))
    assert body == json.dumps({"model": "m", "text": "text"}).encode("utf-8")
    lines = [
        f"POST {path} HTTP/1.1",
        f"Host: {host.format(port=port)}",
        "Accept-Encoding: identity",
        f"Content-Length: {len(body)}",
        "Content-Type: application/json",
        *([f"Authorization: Bearer {token}"] if token else []),
    ]
    assert head == "\r\n".join(lines).encode("ascii") + b"\r\n\r\n"


@pytest.mark.skipif(shutil.which("openssl") is None, reason="needs the openssl command")
def test_https_url_speaks_tls_on_kept_alive_connections(tmp_path, monkeypatch):
    cert, key = tmp_path / "cert.pem", tmp_path / "key.pem"
    subprocess.run(
        ["openssl", "req", "-x509", "-newkey", "ec", "-pkeyopt", "ec_paramgen_curve:prime256v1",
         "-nodes", "-days", "1", "-subj", "/CN=127.0.0.1", "-addext", "subjectAltName=IP:127.0.0.1",
         "-keyout", str(key), "-out", str(cert)],
        check=True,
        capture_output=True,
    )
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(cert, key)
    srv = CountingServer(mock_backend(LANDSCAPE, seed=5))
    srv._server.socket = context.wrap_socket(srv._server.socket, server_side=True)
    url = srv.url.replace("http://", "https://")
    local = mock_backend(LANDSCAPE, seed=5)
    request = gen_request(encode_model_ref(0.6, 1.1), "over tls", num_samples=3)
    with srv:
        # The certificate is not trusted unless SSL_CERT_FILE names it.
        monkeypatch.delenv("SSL_CERT_FILE", raising=False)
        with contextlib.closing(http_client(url, max_attempts=1)) as client:
            with pytest.raises(HttpStatusError) as info:
                client.score("sft", "untrusted")
        assert info.value.status == 0
        monkeypatch.setenv("SSL_CERT_FILE", str(cert))
        accepted = srv.accepted
        with contextlib.closing(http_client(url, max_attempts=1)) as client:
            for _ in range(3):
                assert client.generate(request) == local.generate(request)
            assert client.score("sft", "t") == local.score("sft", "t")
        assert srv.accepted == accepted + 1


# A run on the mock backend, after `import tvfuse.cli`, in a fresh process.
MOCK_RUN = """
import sys
from pathlib import Path
import tvfuse.cli
from synth import make_checkpoint_trio, make_config, make_query_pool
from tvfuse.pipeline import load_config, run_pipeline

tmp = Path(sys.argv[1])
checkpoints = make_checkpoint_trio(tmp / "ckpt", seed=1)
pool = make_query_pool(tmp / "pool.jsonl")
config_path = make_config(tmp, checkpoints, pool, tmp / "ws")
run_pipeline(load_config(config_path, {"search.n_trials": "3", "search.n_startup": "2"}))
print(" ".join(sorted(sys.modules)))
"""


def test_cli_import_does_not_load_requests(tmp_path):
    # Neither the CLI nor a run on the mock backend needs HTTP or TLS.
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tests.parent / "src"), str(tests)]))
    result = subprocess.run(
        [sys.executable, "-c", MOCK_RUN, str(tmp_path)],
        env=env,
        check=True,
        capture_output=True,
        text=True,
    )
    loaded = set(result.stdout.split())
    assert "tvfuse.pipeline" in loaded
    unwanted = {"requests", "ssl", "http.client", "http.server", "email.parser"}
    assert not unwanted & loaded
