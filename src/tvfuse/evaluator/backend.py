"""Backend contract: sampling generations and scoring text.

Any object with `generate` and `score` methods satisfying these signatures,
and a `loads_weights` flag, can drive data selection and coefficient search.
Backends must be safe for concurrent requests; callers bound in-flight
requests themselves.
Difficulty scoring and trial evaluation both measure queries with
`sample_consistency`, fanned out over the queries by a `QueryFanOut`. A
stage opens one fan-out, so one pool of `concurrency` worker threads serves
stage 1's scoring pass or the search's every trial, and is joined when the
stage ends. Each pass hands the queries to at most `concurrency` workers,
which pull them one at a time, so at most `concurrency` calls are in flight.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Protocol, Sequence, TypeVar

from ..errors import BackendFailure, MalformedResponseError
from .answers import consistency

T = TypeVar("T")


@dataclass(frozen=True)
class GenerationParams:
    """Sampling settings shared by difficulty scoring and trial evaluation."""

    temperature: float = 0.6
    max_tokens: int = 8192
    prompt_preset: str = "qwen-structured"


@dataclass(frozen=True)
class GenerationRequest:
    """One sampling request against a resolved model."""

    model_ref: str
    prompt: str
    num_samples: int = 1
    temperature: float = 0.6
    max_tokens: int = 8192
    seed: int | None = None

    def __post_init__(self):
        if self.num_samples < 1:
            raise ValueError("num_samples must be >= 1")
        if not self.temperature >= 0:  # also rejects NaN
            raise ValueError("temperature must be non-negative")
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be >= 1")


@dataclass(frozen=True)
class GenerationSample:
    """One generated text plus its extracted, normalized final answer."""

    text: str
    extracted_answer: str | None = None


@dataclass(frozen=True)
class ScoreResult:
    """Token log-probabilities (natural log) and derived perplexity."""

    token_logprobs: tuple[float, ...]
    perplexity: float = field(default=0.0)

    @classmethod
    def from_logprobs(cls, logprobs: Sequence[float]) -> "ScoreResult":
        """The perplexity exp(-mean(logprobs)), at least 1. No tokens, a
        non-finite log-probability, a positive one (a probability above 1) or
        a perplexity that overflows a float make a malformed reply."""
        if len(logprobs) == 0:
            raise MalformedResponseError("score returned an empty token list")
        try:
            lp = tuple(float(x) for x in logprobs)
            log_perplexity = -sum(lp) / len(lp)
            perplexity = math.exp(log_perplexity)
        except OverflowError:
            raise MalformedResponseError("score log-probabilities overflow the perplexity") from None
        # Also catches a sum of finite values that overflows.
        if not math.isfinite(log_perplexity):
            raise MalformedResponseError("score returned a non-finite log-probability")
        if max(lp) > 0.0:
            raise MalformedResponseError("score returned a positive log-probability")
        return cls(token_logprobs=lp, perplexity=perplexity)


class EvaluationBackend(Protocol):
    """Contract shared by the HTTP client and the in-process mock."""

    # True when a model ref must name a checkpoint file the backend loads;
    # False when the backend resolves `encode_model_ref` coefficient refs.
    loads_weights: bool

    def generate(self, request: GenerationRequest) -> list[GenerationSample]: ...

    def score(self, model_ref: str, text: str) -> ScoreResult: ...


def sample_consistency(
    backend: EvaluationBackend,
    model_ref: str,
    prompt: str,
    k: int,
    params: GenerationParams,
    seed: int,
) -> float:
    """Majority-vote consistency of k answers sampled for one rendered prompt."""
    request = GenerationRequest(
        model_ref=model_ref,
        prompt=prompt,
        num_samples=k,
        temperature=params.temperature,
        max_tokens=params.max_tokens,
        seed=seed,
    )
    samples = backend.generate(request)
    return consistency([s.extracted_answer for s in samples], k)


class QueryFanOut:
    """At most `concurrency` query calls in flight, on one pool of threads.

    The pool lives until `close` (or the end of a `with` block), so every
    `map` of a stage reuses the same worker threads. A worker that holds the
    GIL runs in-process calls back to back; a call that waits on the network
    releases it, so the other workers' calls overlap it.
    """

    def __init__(self, concurrency: int):
        self.concurrency = concurrency
        self._pool = ThreadPoolExecutor(max_workers=concurrency)

    def __enter__(self) -> "QueryFanOut":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        self._pool.shutdown()

    def map(
        self, fn: Callable[[int, str, str], T], queries: Sequence[tuple[str, str]]
    ) -> tuple[list[T], list[tuple[str, BackendFailure]]]:
        """Call fn(index, query_id, text) for every query.

        Submits min(concurrency, len(queries)) tasks; each takes the next
        query from one shared iterator until none is left. Returns the
        results of the queries that succeeded, in query order, and the
        (query id, failure) of each query whose call raised BackendFailure,
        also in query order. Once a call raises anything else, no further
        query starts, and when the calls in flight have returned, the
        earliest such exception in query order is raised.
        """
        pending = iter(enumerate(queries))
        lock = threading.Lock()
        stop = threading.Event()
        # (result, None) or (None, exception) per query that ran.
        outcomes: list = [None] * len(queries)

        def work() -> None:
            while not stop.is_set():
                with lock:
                    item = next(pending, None)
                if item is None:
                    return
                index, (qid, text) = item
                try:
                    outcomes[index] = (fn(index, qid, text), None)
                except BaseException as exc:
                    if not isinstance(exc, BackendFailure):
                        stop.set()
                    outcomes[index] = (None, exc)

        tasks = [self._pool.submit(work) for _ in range(min(self.concurrency, len(queries)))]
        try:
            for task in tasks:
                task.result()
        finally:
            stop.set()
        results: list[T] = []
        failures: list[tuple[str, BackendFailure]] = []
        # Queries start in order, so every query before the first unexpected
        # error ran, and the queries that never started all come after it.
        for (qid, _), (result, exc) in zip(queries, outcomes):
            if exc is None:
                results.append(result)
            elif isinstance(exc, BackendFailure):
                failures.append((qid, exc))
            else:
                raise exc
        return results, failures
