from __future__ import annotations

import logging
import math
import sys
import threading
import time
from collections.abc import Sequence

import pytest
from hypothesis import given
from hypothesis import strategies as st

from defaults import CONFIG, GEN_PARAMS, gen_request, http_client, mock_backend, mock_landscape
from tvfuse.errors import (
    EmptyTextError,
    LengthMismatchError,
    MalformedResponseError,
    UnknownModelRefError,
)
from tvfuse.evaluator import consistency, encode_model_ref, extract_answer, render_prompt
from tvfuse.evaluator.backend import QueryFanOut, perplexity
from tvfuse.evaluator.prompts import PROMPT_PRESETS
from tvfuse.optimizer.search import _evaluate_trial


# --- answer extraction -----------------------------------------------------------


def test_single_boxed_group():
    assert extract_answer("after some work, so \\boxed{42}.") == "42"


def test_last_boxed_group_wins():
    assert extract_answer("\\boxed{1} wrong, correct is \\boxed{7/2}") == "7/2"


def test_numeric_fallback():
    assert extract_answer("the answer is 13") == "13"


def test_no_answer_is_none():
    assert extract_answer("I cannot solve this.") is None
    assert extract_answer("") is None


def test_nested_braces_balanced():
    assert extract_answer("\\boxed{\\frac{1}{2}}") == "\\frac{1}{2}"


def test_unbalanced_boxed_falls_back():
    assert extract_answer("\\boxed{3x + 1 and then 99") == "99"


def test_whitespace_normalized_and_trailing_period_stripped():
    assert extract_answer("\\boxed{  4    2 .}") == "4 2"


def test_empty_boxed_is_absent():
    assert extract_answer("\\boxed{} then nothing") is None


def test_extraction_idempotent_on_own_output():
    for text in ["so \\boxed{17}", "\\boxed{x + y}", "answer 3.5"]:
        first = extract_answer(text)
        assert first is not None
        assert extract_answer(f"\\boxed{{{first}}}") == first


# --- consistency ----------------------------------------------------------------


def test_consistency_majority():
    assert consistency(["4", "4", "4", "7", "2"], 5) == 0.6


def test_consistency_unanimous():
    assert consistency(["9"] * 5, 5) == 1.0


def test_consistency_all_distinct():
    assert consistency(["1", "2", "3", "4", "5"], 5) == 0.2


def test_consistency_all_absent():
    assert consistency([None, None, None], 3) == 0.0


def test_consistency_length_mismatch():
    with pytest.raises(LengthMismatchError):
        consistency(["1", "2"], 3)


@given(
    st.lists(st.one_of(st.none(), st.sampled_from(["a", "b", "c", "d"])), min_size=1, max_size=12)
)
def test_consistency_is_quantized_and_permutation_invariant(answers):
    m = len(answers)
    value = consistency(answers, m)
    assert 0.0 <= value <= 1.0
    assert any(math.isclose(value, j / m) for j in range(m + 1))
    assert consistency(list(reversed(answers)), m) == value
    assert consistency(sorted(answers, key=lambda x: (x is None, x)), m) == value


# --- perplexity -------------------------------------------------------------------


def test_perplexity_closed_forms():
    assert perplexity([-1.0, -1.0, -1.0]) == pytest.approx(math.e)
    assert perplexity([0.0, 0.0]) == 1.0
    # exp(mean(ln2, ln8)) = exp(ln4) = 4
    got = perplexity([-math.log(2), -math.log(8)])
    assert got == pytest.approx(4.0, rel=1e-12)


def test_perplexity_rejects_empty():
    with pytest.raises(MalformedResponseError):
        perplexity([])


# Log-probabilities with no finite perplexity: a non-finite value, a mean
# whose exp overflows, and finite values whose sum overflows.
@pytest.mark.parametrize(
    "logprobs",
    [[float("nan")], [float("inf")], [-float("inf")], [-1.0, float("nan")], [-1000.0], [-1e308, -1e308]],
)
def test_perplexity_rejects_logprobs_without_a_finite_perplexity(logprobs):
    with pytest.raises(MalformedResponseError):
        perplexity(logprobs)


@pytest.mark.parametrize("logprobs", [[0.5, 0.7], [-1.0, 5e-324], [1000.0]])
def test_perplexity_rejects_a_positive_log_probability(logprobs):
    # No model gives a token a probability above 1, so every perplexity is at
    # least 1; [1000.0]'s would underflow to 0, which a trial log refuses.
    with pytest.raises(MalformedResponseError, match="positive log-probability"):
        perplexity(logprobs)


def test_perplexity_of_empty_text():
    # Rejected before any request is made, so nothing listens on the port.
    with pytest.raises(EmptyTextError):
        http_client("http://127.0.0.1:9").score("sft", "")


def test_perplexity_at_least_one_for_nonpositive_logprobs():
    assert perplexity([-0.5, -2.0]) > 1.0
    assert perplexity([0.0, 0.0, 0.0]) == 1.0


# --- the query evaluator over a bare backend ---------------------------------------


class RawBackend:
    """A backend that returns raw outputs and derives nothing: the texts it
    is given, the first `num_samples` of them, and the log-probabilities of
    `bad` for a text that names it, of `logprobs` for any other."""

    loads_weights = False

    def __init__(self, texts: list[str], logprobs: list[float], bad: list[float]):
        self.texts, self.logprobs, self.bad = texts, logprobs, bad

    def generate(self, request):
        return self.texts[: request.num_samples]

    def score(self, model_ref, text):
        return self.bad if "bad" in text else self.logprobs


def evaluate_trial(backend, queries):
    with QueryFanOut(2) as fan_out:
        return _evaluate_trial(backend, "any", queries, 4, GEN_PARAMS, 0, fan_out)


def test_the_query_evaluator_reads_a_bare_backends_texts_and_logprobs():
    texts = ["so \\boxed{7}.", "\\boxed{ 7 }", "a long road to \\boxed{7}", "\\boxed{9}"]
    backend = RawBackend(texts, [-math.log(2.0)] * 3, [])
    mean_consistency, mean_perplexity, failed = evaluate_trial(
        backend, [("q1", "first"), ("q2", "second")]
    )
    assert (mean_consistency, failed) == (0.75, 0)
    assert mean_perplexity == pytest.approx(2.0, rel=1e-12)


@pytest.mark.parametrize(
    "bad, needle",
    [
        ([], "empty token list"),
        ([-1.0, 0.5], "positive log-probability"),
        ([-1.0, float("nan")], "non-finite log-probability"),
        ([float("inf")], "non-finite log-probability"),
        ([-1000.0], "overflow the perplexity"),
    ],
)
def test_a_bare_backends_malformed_logprobs_fail_their_query(caplog, bad, needle):
    backend = RawBackend(["\\boxed{7}"] * 4, [-1.0], bad)
    with caplog.at_level(logging.WARNING):
        mean_consistency, mean_perplexity, failed = evaluate_trial(
            backend, [("q1", "fine"), ("q2", "bad"), ("q3", "also fine")]
        )
    assert (mean_consistency, failed) == (1.0, 1)
    assert mean_perplexity == pytest.approx(math.e, rel=1e-12)
    [record] = caplog.records
    qid, exc = record.args
    assert qid == "q2" and isinstance(exc, MalformedResponseError)
    assert needle in str(exc)


# --- mock backend -----------------------------------------------------------------


def test_mock_constant_full_consistency():
    backend = mock_backend(lambda a, b: (1.0, 2.0))
    samples = backend.generate(gen_request("sft", "q1", num_samples=5))
    answers = [extract_answer(s) for s in samples]
    assert len(set(answers)) == 1
    assert consistency(answers, 5) == 1.0


def test_mock_quantizes_to_sample_count():
    backend = mock_backend(lambda a, b: (0.6, 2.0))
    samples = backend.generate(gen_request("rlvr", "q2", num_samples=5))
    answers = [extract_answer(s) for s in samples]
    assert consistency(answers, 5) == 0.6
    counts = {a: answers.count(a) for a in answers}
    assert sorted(counts.values(), reverse=True) == [3, 1, 1]


def test_mock_landscape_peak_beats_origin():
    landscape = mock_landscape(peak=(0.8, 1.5), falloff=0.3)
    backend = mock_backend(landscape)
    m = 5

    def measured(ref):
        samples = backend.generate(gen_request(ref, "probe", num_samples=m))
        return consistency([extract_answer(s) for s in samples], m)

    at_peak = measured(encode_model_ref(0.8, 1.5))
    at_origin = measured(encode_model_ref(0.0, 0.0))
    assert at_peak > at_origin


def test_mock_deterministic_under_seed():
    backend_a = mock_backend(mock_landscape(), seed=11, query_jitter=0.2)
    backend_b = mock_backend(mock_landscape(), seed=11, query_jitter=0.2)
    req = gen_request("sft", "some question", num_samples=5)
    assert backend_a.generate(req) == backend_b.generate(req)
    assert backend_a.score("sft", "text") == backend_b.score("sft", "text")


def test_mock_score_matches_landscape_perplexity():
    backend = mock_backend(mock_landscape(peak=(0.8, 1.5), ppl_base=3.0, ppl_slope=2.0))
    ppl = perplexity(backend.score(encode_model_ref(0.8, 1.5), "anything"))
    assert ppl == pytest.approx(3.0, rel=1e-12)


@pytest.mark.parametrize("ref", ["mystery-model", "merged:abc:1"])
def test_mock_unknown_ref(ref):
    from tvfuse.errors import UnknownModelRefError

    backend = mock_backend(mock_landscape())
    with pytest.raises(UnknownModelRefError):
        backend.generate(gen_request(ref, "q", num_samples=2))


def test_evaluator_package_has_no_other_lazy_name():
    import tvfuse.evaluator

    with pytest.raises(AttributeError, match="no attribute 'Nope'"):
        tvfuse.evaluator.Nope


# --- prompt presets ------------------------------------------------------------------


def test_presets_exist():
    assert {"qwen-structured", "llama-cot", "llama-hybrid"} <= set(PROMPT_PRESETS)


def test_render_substitutes_question_and_keeps_braces():
    rendered = render_prompt("What is 2+2?", "qwen-structured")
    assert "What is 2+2?" in rendered
    assert "\\boxed{}" in rendered
    assert "{QUESTION}" not in rendered


def test_render_accepts_raw_template():
    assert render_prompt("Q", "ask: {QUESTION}!") == "ask: Q!"


def test_generation_request_validation():
    with pytest.raises(ValueError):
        gen_request("m", "p", num_samples=0)
    with pytest.raises(ValueError):
        gen_request("m", "p", CONFIG.search.k, temperature=-0.1)
    with pytest.raises(ValueError):
        gen_request("m", "p", CONFIG.search.k, temperature=math.nan)


# --- query fan-out -------------------------------------------------------------------


def numbered_queries(n):
    return [(f"q{i}", f"text {i}") for i in range(n)]


def test_fan_out_keeps_calls_concurrent():
    # Each call waits for a second call to arrive, so one worker running the
    # queries one after another would break the barrier.
    barrier = threading.Barrier(2, timeout=5)

    def call(index, qid, text):
        barrier.wait()
        return index

    with QueryFanOut(2) as fan_out:
        assert fan_out.map(call, numbered_queries(6)) == ([0, 1, 2, 3, 4, 5], [])


def test_fan_out_returns_results_and_failures_in_query_order():
    def call(index, qid, text):
        time.sleep(0.002 * (8 - index))  # later queries finish first
        if index % 3 == 1:
            raise UnknownModelRefError(f"down {index}")
        return text

    with QueryFanOut(3) as fan_out:
        results, failures = fan_out.map(call, numbered_queries(8))
    assert results == ["text 0", "text 2", "text 3", "text 5", "text 6"]
    assert [qid for qid, _ in failures] == ["q1", "q4", "q7"]
    assert [str(exc) for _, exc in failures] == ["down 1", "down 4", "down 7"]


class YieldingSequence(Sequence):
    """Queries whose iterator is Python code that lets other threads run
    while it fetches an item."""

    def __init__(self, items):
        self.items = items

    def __len__(self):
        return len(self.items)

    def __getitem__(self, index):
        item = self.items[index]
        time.sleep(0)
        return item


@pytest.mark.parametrize("kind", [list, YieldingSequence])
def test_fan_out_runs_each_query_once_under_contention(kind):
    # More workers than cores and a 1 us switch interval: a query taken twice
    # or skipped by the shared iterator would show in the counts.
    calls = [0] * 1000

    def call(index, qid, text):
        calls[index] += 1
        return qid

    queries = kind(numbered_queries(len(calls)))
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with QueryFanOut(8) as fan_out:
            for _ in range(3):
                results, failures = fan_out.map(call, queries)
                assert results == [qid for qid, _ in queries] and failures == []
    finally:
        sys.setswitchinterval(previous)
    assert calls == [3] * len(calls)


def test_fan_out_of_no_queries_starts_no_task():
    before = set(threading.enumerate())
    with QueryFanOut(4) as fan_out:
        assert fan_out.map(lambda *args: pytest.fail("called"), []) == ([], [])
        # The pool starts a worker thread only when a task is submitted.
        assert set(threading.enumerate()) == before


def test_fan_out_reuses_its_threads_across_passes():
    threads = set()

    def call(index, qid, text):
        threads.add(threading.current_thread())
        return index

    with QueryFanOut(2) as fan_out:
        for _ in range(5):
            fan_out.map(call, numbered_queries(16))
    assert 1 <= len(threads) <= 2
    assert not any(thread.is_alive() for thread in threads)


@pytest.mark.parametrize("concurrency", [1, 2, 4])
def test_unexpected_error_stops_the_fan_out(concurrency):
    calls = []

    def call(index, qid, text):
        calls.append(index)
        if index == 0:
            raise ValueError("boom")
        time.sleep(0.01)
        return index

    with QueryFanOut(concurrency) as fan_out:
        with pytest.raises(ValueError, match="boom"):
            fan_out.map(call, numbered_queries(64))
    assert len(calls) <= 1 + concurrency


def test_earliest_unexpected_error_in_query_order_is_raised():
    started = threading.Barrier(2, timeout=5)

    def call(index, qid, text):
        started.wait()  # both queries are in flight before either raises
        if index == 0:
            time.sleep(0.02)  # query 1 raises first
            raise KeyError("query 0")
        raise ValueError("query 1")

    with QueryFanOut(2) as fan_out:
        with pytest.raises(KeyError, match="query 0"):
            fan_out.map(call, numbered_queries(2))
