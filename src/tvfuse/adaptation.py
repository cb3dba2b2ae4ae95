"""Difficulty-aware selection of the unlabeled adaptation set.

Each candidate query is answered several times by both source models; the
majority-vote consistency of each model yields a difficulty score
1 - (c_a + c_b) / 2. Queries too unstable for both models are discarded,
the survivors are split at the median into low- and medium-difficulty
pools, and the set is drawn from both pools with a seeded generator.
Everything downstream of the backend calls is a pure function of
(records, m, n, seed), so selections are reproducible. The backend calls go
through the query evaluator in `evaluator.backend`, as trial scoring does.
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .archive import atomic_write_text
from .errors import BackendFailure, ConfigError, InsufficientQueriesError
from .evaluator.backend import EvaluationBackend, GenerationParams, QueryFanOut, sample_consistency
from .evaluator.prompts import render_prompt

logger = logging.getLogger(__name__)

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


def default_threshold(m: int) -> float:
    """Queries with difficulty above 1 - 1/m are unusable for selection."""
    return 1.0 - 1.0 / m


def load_query_pool(path: str | Path) -> tuple[QueryPool, str]:
    """Read a JSON-lines file of {"id": str, "text": str} objects once; return
    the pool and the sha256 of the bytes it was parsed from.

    An unreadable file raises ConfigError naming it; a bad line raises
    ConfigError naming `file:line`.
    """
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read query pool {path}: {exc}") from exc
    queries: list[tuple[str, str]] = []
    for line_no, raw in enumerate(data.splitlines(), start=1):
        try:
            line = raw.decode("utf-8").strip()
            if not line:
                continue
            obj = json.loads(line)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"{path}:{line_no}: {exc}") from exc
        if not isinstance(obj, dict) or "id" not in obj or "text" not in obj:
            raise ConfigError(f"{path}:{line_no}: expected an object with 'id' and 'text'")
        queries.append((str(obj["id"]), str(obj["text"])))
    try:
        pool = QueryPool(queries=tuple(queries))
    except ValueError as exc:
        raise ConfigError(f"query pool {path}: {exc}") from exc
    return pool, hashlib.sha256(data).hexdigest()


def score_difficulty(
    pool: QueryPool,
    backend: EvaluationBackend,
    sft_ref: str,
    rlvr_ref: str,
    m: int,
    gen_params: GenerationParams = GenerationParams(),
    seed: int = 0,
    concurrency: int = 8,
) -> tuple[list[DifficultyRecord], list[str]]:
    """Score every query's difficulty from both source models' consistency;
    return the records and the ids of the queries that failed.

    Queries whose backend calls fail are excluded (and logged), never
    silently scored; if more than DEFAULT_FAILURE_CAP of the pool fails the
    whole scoring pass raises.
    """
    def score_one(index: int, qid: str, text: str) -> DifficultyRecord:
        prompt = render_prompt(text, gen_params.prompt_preset)
        request_seed = seed * 1_000_003 + 2 * index
        c_sft = sample_consistency(backend, sft_ref, prompt, m, gen_params, request_seed)
        c_rlvr = sample_consistency(backend, rlvr_ref, prompt, m, gen_params, request_seed + 1)
        return DifficultyRecord(
            query_id=qid,
            c_sft=c_sft,
            c_rlvr=c_rlvr,
            difficulty=1.0 - (c_sft + c_rlvr) / 2.0,
        )

    with QueryFanOut(concurrency) as fan_out:
        records, failures = fan_out.map(score_one, pool.queries)
    for qid, exc in failures:
        logger.warning("difficulty scoring failed for query %s: %s", qid, exc)
    if len(pool) and len(failures) / len(pool) > DEFAULT_FAILURE_CAP:
        raise BackendFailure(
            f"difficulty scoring failed for {len(failures)}/{len(pool)} queries "
            f"(cap {DEFAULT_FAILURE_CAP:.0%})"
        )
    return records, [qid for qid, _ in failures]


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
    atomic_write_text(path, json.dumps([asdict(r) for r in records], indent=2))
