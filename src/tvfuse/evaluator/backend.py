"""Backend contract: sampling generations and scoring text.

Any object with `generate` and `score` methods satisfying these signatures,
and a `loads_weights` flag, can drive data selection and coefficient search.
Backends must be safe for concurrent requests; callers bound in-flight
requests themselves.
Difficulty scoring and trial evaluation both measure queries with
`sample_consistency`, fanned out over the queries by `map_queries`.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Protocol, Sequence, TypeVar, runtime_checkable

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
        """The perplexity exp(-mean(logprobs)). No tokens, a non-finite
        log-probability or a perplexity that overflows a float make a
        malformed reply."""
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
        return cls(token_logprobs=lp, perplexity=perplexity)


@runtime_checkable
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


def map_queries(
    fn: Callable[[int, str, str], T],
    queries: Sequence[tuple[str, str]],
    concurrency: int,
) -> tuple[list[T], list[tuple[str, BackendFailure]]]:
    """Call fn(index, query_id, text) for every query on one thread pool.

    Returns the results of the queries that succeeded, in query order, and
    the (query id, failure) of each query whose call raised BackendFailure,
    also in query order. Any other exception propagates.
    """
    results: list[T] = []
    failures: list[tuple[str, BackendFailure]] = []
    with ThreadPoolExecutor(max_workers=concurrency) as executor:
        futures = [executor.submit(fn, i, qid, text) for i, (qid, text) in enumerate(queries)]
        for (qid, _), future in zip(queries, futures):
            try:
                results.append(future.result())
            except BackendFailure as exc:
                failures.append((qid, exc))
    return results, failures
