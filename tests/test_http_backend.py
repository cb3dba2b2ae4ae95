"""Wire-protocol conformance: the HTTP client over the bundled mock server
must satisfy the same contract as the in-process mock backend."""

from __future__ import annotations

import contextlib
import http.server
import math
import os
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from tvfuse.errors import (
    BackendFailure,
    BackendTimeoutError,
    HttpStatusError,
    MalformedResponseError,
)
from tvfuse.evaluator import (
    GenerationRequest,
    HttpBackend,
    MockBackend,
    MockInferenceServer,
    ScoreResult,
    consistency,
    encode_model_ref,
    quadratic_landscape,
)
from tvfuse.evaluator.backend import GenerationParams, QueryFanOut, sample_consistency

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
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
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
    with MockInferenceServer(MockBackend(LANDSCAPE, seed=5)) as srv:
        yield srv


@pytest.fixture(scope="module")
def http_backend(server):
    with contextlib.closing(HttpBackend(server.url, max_attempts=3, backoff_base=0.01)) as client:
        yield client


@pytest.fixture(scope="module")
def mock_backend():
    return MockBackend(LANDSCAPE, seed=5)


@pytest.fixture(scope="module", params=["mock", "http"])
def backend(request, mock_backend, http_backend):
    return mock_backend if request.param == "mock" else http_backend


# --- the shared contract suite, run against both implementations ---


def test_contract_generate_sample_count(backend):
    samples = backend.generate(GenerationRequest("sft", "q-alpha", num_samples=4))
    assert len(samples) == 4
    assert all(s.extracted_answer is not None for s in samples)


def test_contract_consistency_quantized(backend):
    samples = backend.generate(GenerationRequest(encode_model_ref(0.8, 1.5), "q-beta", num_samples=5))
    answers = [s.extracted_answer for s in samples]
    value = consistency(answers, 5)
    assert value in {0.2, 0.4, 0.6, 0.8, 1.0}
    assert value == 1.0  # at the peak every sample agrees


def test_contract_score_perplexity_definition(backend):
    result = backend.score(encode_model_ref(0.8, 1.5), "some query text")
    recomputed = math.exp(-sum(result.token_logprobs) / len(result.token_logprobs))
    assert abs(result.perplexity - recomputed) <= 1e-9
    assert result.perplexity == pytest.approx(2.0, rel=1e-9)


def test_contract_unknown_model_is_backend_failure(backend):
    with pytest.raises(BackendFailure):
        backend.generate(GenerationRequest("not-a-model", "q", num_samples=1))


def test_contract_same_results_both_transports(mock_backend, http_backend):
    req = GenerationRequest(encode_model_ref(0.6, 1.1), "identical question", num_samples=5)
    local = [(s.text, s.extracted_answer) for s in mock_backend.generate(req)]
    remote = [(s.text, s.extracted_answer) for s in http_backend.generate(req)]
    assert local == remote
    assert mock_backend.score("sft", "t").token_logprobs == http_backend.score("sft", "t").token_logprobs


# --- retry behaviour -------------------------------------------------------------


def test_two_failures_then_success_is_retried(server, http_backend):
    server.fail_next(2)
    samples = http_backend.generate(GenerationRequest("sft", "retry-me", num_samples=2))
    assert len(samples) == 2


def test_persistent_500s_exhaust_retries(server, http_backend):
    server.fail_next(3)  # max_attempts is 3: every attempt sees a 500
    with pytest.raises(HttpStatusError) as info:
        http_backend.generate(GenerationRequest("sft", "doomed", num_samples=1))
    assert info.value.status == 500
    server.fail_next(0)


def test_client_side_perplexity_recomputation(server, http_backend):
    ppl = http_backend.score(encode_model_ref(0.8, 1.5), "query text").perplexity
    assert abs(ppl - 2.0) <= 1e-9


def test_http_4xx_fails_without_retry(server, http_backend):
    with pytest.raises(HttpStatusError) as info:
        http_backend._post("/generate", {"model": "sft"})  # missing required fields -> 400
    assert info.value.status == 400
    with pytest.raises(HttpStatusError) as info:
        http_backend._post("/nope", {})
    assert info.value.status == 404


def test_malformed_server_response():
    # A server answering non-JSON must raise MalformedResponseError.
    class BadHandler(QuietHandler):
        def do_POST(self):
            self.reply(b"definitely not json")

    with serve(BadHandler) as url:
        client = HttpBackend(url, max_attempts=1)
        with pytest.raises(MalformedResponseError):
            client.generate(GenerationRequest("m", "p", num_samples=1))


class FaultyBackend(MockBackend):
    """A mock whose replies a remote server could send: `extra` samples more
    than asked for (fewer when negative), and fixed, unchecked
    log-probabilities for every text."""

    def __init__(self, extra: int, logprobs: tuple[float, ...] = (-1.0,)):
        super().__init__(LANDSCAPE, seed=5)
        self.extra = extra
        self.logprobs = logprobs

    def generate(self, request):
        samples = super().generate(request)
        return (samples * 2)[: len(samples) + self.extra]

    def score(self, model_ref, text):
        # Built directly, as a remote server would send them, unchecked.
        return ScoreResult(token_logprobs=self.logprobs)


@pytest.mark.parametrize("extra", [-1, 1])
def test_a_reply_with_the_wrong_sample_count_fails_its_query(extra):
    with MockInferenceServer(FaultyBackend(extra)) as srv:
        with contextlib.closing(HttpBackend(srv.url, max_attempts=1)) as client:
            with pytest.raises(MalformedResponseError, match="samples for n=5"):
                client.generate(GenerationRequest("sft", "q", num_samples=5))
            params = GenerationParams()
            with QueryFanOut(2) as fan_out:
                results, failures = fan_out.map(
                    lambda i, qid, text: sample_consistency(client, "sft", text, 5, params, seed=i),
                    [("q1", "first"), ("q2", "second")],
                )
    assert results == []
    assert [qid for qid, _ in failures] == ["q1", "q2"]
    assert all(isinstance(exc, MalformedResponseError) for _, exc in failures)


@pytest.mark.parametrize(
    "logprobs", [(float("nan"),), (float("inf"),), (-1000.0,)], ids=["nan", "inf", "overflow"]
)
def test_a_score_without_a_finite_perplexity_is_malformed(logprobs):
    # JSON's reader accepts NaN and Infinity, so they arrive over the wire.
    with MockInferenceServer(FaultyBackend(0, logprobs)) as srv:
        with contextlib.closing(HttpBackend(srv.url, max_attempts=1)) as client:
            with pytest.raises(MalformedResponseError):
                client.score("sft", "some text")


def test_connection_refused_is_backend_failure():
    client = HttpBackend("http://127.0.0.1:9", max_attempts=2, backoff_base=0.01, timeout=0.5)
    with pytest.raises(BackendFailure):
        client.score("m", "text")


def test_auth_token_comes_from_environment(monkeypatch):
    monkeypatch.setenv("TVFUSE_BACKEND_TOKEN", "secret-token")
    client = HttpBackend("http://example.invalid")
    assert client.auth_token == "secret-token"
    monkeypatch.delenv("TVFUSE_BACKEND_TOKEN")
    assert HttpBackend("http://example.invalid").auth_token is None
    assert HttpBackend("http://example.invalid", auth_token="inline").auth_token == "inline"


def test_unencodable_payload_fails_without_retry():
    # NaN is not JSON; nothing is sent and no backoff is slept.
    client = HttpBackend("http://127.0.0.1:9", max_attempts=3, backoff_base=60.0)
    with pytest.raises(HttpStatusError) as info:
        client._post("/generate", {"temperature": float("nan")})
    assert info.value.status == 0


# --- keep-alive transport ---------------------------------------------------------


def test_requests_reuse_kept_alive_connections():
    with CountingServer(MockBackend(LANDSCAPE, seed=5)) as srv:
        client = HttpBackend(srv.url)
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


def test_injected_500_keeps_the_connection_in_sync():
    # The server must read the body of the request it fails; otherwise the
    # retry on the same connection is parsed after the unread JSON bytes.
    request = GenerationRequest(encode_model_ref(0.6, 1.1), "in sync", num_samples=3)
    expected = [s.text for s in MockBackend(LANDSCAPE, seed=5).generate(request)]
    with CountingServer(MockBackend(LANDSCAPE, seed=5)) as srv, contextlib.closing(
        HttpBackend(srv.url, max_attempts=2, backoff_base=0.0)
    ) as client:
        client.score("sft", "open the connection")
        srv.fail_next(1)
        assert [s.text for s in client.generate(request)] == expected
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

    with serve(CloseAfterReply) as url, contextlib.closing(HttpBackend(url, max_attempts=1)) as client:
        for _ in range(3):
            assert client.score("m", "text").perplexity == pytest.approx(math.exp(1.0))


def test_slow_server_raises_timeout():
    class SlowHandler(QuietHandler):
        def do_POST(self):
            time.sleep(0.5)

    with serve(SlowHandler) as url:
        client = HttpBackend(url, max_attempts=1, timeout=0.1)
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
    srv = MockInferenceServer(MockBackend(LANDSCAPE, seed=5)).start()
    client = HttpBackend(srv.url, max_attempts=1)
    client.score("sft", "leave the connection open")
    start = time.perf_counter()
    srv.stop()
    assert time.perf_counter() - start < 5.0
    with pytest.raises(BackendFailure):
        client.score("sft", "after stop")
    client.close()


def test_cli_import_does_not_load_requests():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run(
        [sys.executable, "-c", "import tvfuse.cli, sys; assert 'requests' not in sys.modules"],
        env=env,
        check=True,
    )
