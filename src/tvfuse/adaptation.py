"""Difficulty-aware selection of the unlabeled adaptation set.

Each candidate query is answered several times by both source models; the
majority-vote consistency of each model yields a difficulty score
1 - (c_a + c_b) / 2. Queries too unstable for both models are discarded,
the survivors are split at the median into low- and medium-difficulty
pools, and the set is drawn from both pools with a seeded generator.
Everything downstream of the backend calls is a pure function of
(records, m, n, seed), so selections are reproducible.
"""

from __future__ import annotations

import json
import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .archive import atomic_write_text
from .errors import BackendFailure, InsufficientQueriesError
from .evaluator.answers import consistency
from .evaluator.backend import EvaluationBackend, GenerationRequest

logger = logging.getLogger(__name__)

DEFAULT_M = 5
DEFAULT_N = 64
DEFAULT_FAILURE_CAP = 0.10


@dataclass(frozen=True)
class QueryPool:
    """Unlabeled candidate queries with unique ids."""

    queries: tuple[tuple[str, str], ...]

    def __post_init__(self):
        ids = [qid for qid, _ in self.queries]
        if len(set(ids)) != len(ids):
            raise ValueError("query ids must be unique")

    def __len__(self) -> int:
        return len(self.queries)


@dataclass(frozen=True)
class DifficultyRecord:
    query_id: str
    c_sft: float
    c_rlvr: float
    difficulty: float


@dataclass
class GenerationParams:
    """Sampling settings shared by difficulty scoring and trial evaluation."""

    temperature: float = 0.6
    max_tokens: int = 8192
    prompt_preset: str = "qwen-structured"
    seed: int = 0


@dataclass
class AdaptationSet:
    low_pool_ids: list[str]
    medium_pool_ids: list[str]
    selected: list[str]
    seed: int
    m: int
    n: int
    threshold: float
    backfill_count: int = 0
    drawn_from_low: int = 0
    drawn_from_medium: int = 0

    def to_dict(self) -> dict:
        return {
            "low_pool_ids": self.low_pool_ids,
            "medium_pool_ids": self.medium_pool_ids,
            "selected": self.selected,
            "seed": self.seed,
            "m": self.m,
            "n": self.n,
            "threshold": self.threshold,
            "backfill_count": self.backfill_count,
            "drawn_from_low": self.drawn_from_low,
            "drawn_from_medium": self.drawn_from_medium,
        }


def default_threshold(m: int) -> float:
    """Queries with difficulty above 1 - 1/m are unusable for selection."""
    return 1.0 - 1.0 / m


def load_query_pool(path: str | Path) -> QueryPool:
    """Read a JSON-lines file of {"id": str, "text": str} objects."""
    queries: list[tuple[str, str]] = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            if not isinstance(obj, dict) or "id" not in obj or "text" not in obj:
                raise ValueError(f"{path}:{line_no}: expected an object with 'id' and 'text'")
            queries.append((str(obj["id"]), str(obj["text"])))
    return QueryPool(queries=tuple(queries))


def _model_consistency(
    backend: EvaluationBackend,
    model_ref: str,
    prompt: str,
    m: int,
    params: GenerationParams,
    request_seed: int,
) -> float:
    request = GenerationRequest(
        model_ref=model_ref,
        prompt=prompt,
        num_samples=m,
        temperature=params.temperature,
        max_tokens=params.max_tokens,
        seed=request_seed,
    )
    samples = backend.generate(request)
    return consistency([s.extracted_answer for s in samples], m)


def score_difficulty(
    pool: QueryPool,
    backend: EvaluationBackend,
    sft_ref: str,
    rlvr_ref: str,
    m: int = DEFAULT_M,
    gen_params: GenerationParams | None = None,
    failure_cap: float = DEFAULT_FAILURE_CAP,
    concurrency: int = 8,
    on_failure: Callable[[str, Exception], None] | None = None,
) -> list[DifficultyRecord]:
    """Score every query's difficulty from both source models' consistency.

    Queries whose backend calls fail are excluded (and reported through
    `on_failure` / the log), never silently scored; if more than
    `failure_cap` of the pool fails the whole scoring pass raises.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    params = gen_params or GenerationParams()
    from .evaluator.prompts import render_prompt

    def score_one(index: int, qid: str, text: str) -> DifficultyRecord:
        prompt = render_prompt(text, params.prompt_preset)
        c_sft = _model_consistency(
            backend, sft_ref, prompt, m, params, request_seed=params.seed * 1_000_003 + 2 * index
        )
        c_rlvr = _model_consistency(
            backend, rlvr_ref, prompt, m, params, request_seed=params.seed * 1_000_003 + 2 * index + 1
        )
        return DifficultyRecord(
            query_id=qid,
            c_sft=c_sft,
            c_rlvr=c_rlvr,
            difficulty=1.0 - (c_sft + c_rlvr) / 2.0,
        )

    records: list[DifficultyRecord | None] = [None] * len(pool)
    failures = 0
    with ThreadPoolExecutor(max_workers=max(1, concurrency)) as executor:
        futures = {
            executor.submit(score_one, i, qid, text): (i, qid)
            for i, (qid, text) in enumerate(pool.queries)
        }
        for future, (i, qid) in futures.items():
            try:
                records[i] = future.result()
            except BackendFailure as exc:
                failures += 1
                logger.warning("difficulty scoring failed for query %s: %s", qid, exc)
                if on_failure is not None:
                    on_failure(qid, exc)
    if len(pool) and failures / len(pool) > failure_cap:
        raise BackendFailure(
            f"difficulty scoring failed for {failures}/{len(pool)} queries "
            f"(cap {failure_cap:.0%})"
        )
    return [r for r in records if r is not None]


def build_adaptation_set(
    records: Sequence[DifficultyRecord],
    m: int,
    n: int,
    seed: int,
    threshold: float | None = None,
    easy_ratio: float = 0.5,
) -> AdaptationSet:
    """Filter, median-split and stratified-sample the adaptation set.

    Records with difficulty strictly above the threshold (default 1 - 1/m)
    are dropped; survivors sorted by (difficulty, query_id) are split at the
    median (odd count: the median joins the medium pool). `easy_ratio` of
    the n draws come from the low pool; a short pool backfills from the
    other and the backfill amount is recorded.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 <= easy_ratio <= 1.0:
        raise ValueError("easy_ratio must be in [0, 1]")
    cutoff = default_threshold(m) if threshold is None else threshold

    survivors = sorted(
        (r for r in records if r.difficulty <= cutoff),
        key=lambda r: (r.difficulty, r.query_id),
    )
    if len(survivors) < n:
        raise InsufficientQueriesError(
            f"{len(survivors)} queries survive the difficulty filter, need {n}"
        )

    half = len(survivors) // 2
    low_pool = [r.query_id for r in survivors[:half]]
    medium_pool = [r.query_id for r in survivors[half:]]

    want_low = round(n * easy_ratio)
    want_medium = n - want_low
    backfill = 0
    if len(low_pool) < want_low:
        backfill += want_low - len(low_pool)
        want_medium += want_low - len(low_pool)
        want_low = len(low_pool)
    if len(medium_pool) < want_medium:
        backfill += want_medium - len(medium_pool)
        want_low += want_medium - len(medium_pool)
        want_medium = len(medium_pool)

    rng = np.random.default_rng(seed)
    low_take = sorted(rng.choice(len(low_pool), size=want_low, replace=False).tolist()) if want_low else []
    medium_take = (
        sorted(rng.choice(len(medium_pool), size=want_medium, replace=False).tolist())
        if want_medium
        else []
    )
    selected = [low_pool[i] for i in low_take] + [medium_pool[i] for i in medium_take]

    return AdaptationSet(
        low_pool_ids=low_pool,
        medium_pool_ids=medium_pool,
        selected=selected,
        seed=seed,
        m=m,
        n=n,
        threshold=cutoff,
        backfill_count=backfill,
        drawn_from_low=want_low,
        drawn_from_medium=want_medium,
    )


def save_difficulty_records(records: Sequence[DifficultyRecord], path: str | Path) -> None:
    payload = [
        {"query_id": r.query_id, "c_sft": r.c_sft, "c_rlvr": r.c_rlvr, "difficulty": r.difficulty}
        for r in records
    ]
    atomic_write_text(path, json.dumps(payload, indent=2))


def load_difficulty_records(path: str | Path) -> list[DifficultyRecord]:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    return [
        DifficultyRecord(
            query_id=item["query_id"],
            c_sft=item["c_sft"],
            c_rlvr=item["c_rlvr"],
            difficulty=item["difficulty"],
        )
        for item in payload
    ]
