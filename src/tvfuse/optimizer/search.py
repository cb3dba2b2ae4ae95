"""Sequential coefficient search over merged candidate models.

One trial: suggest a coefficient pair, build the candidate model through
the caller-supplied `merge_builder`, sample each adaptation query several
times for a majority-vote consistency, and score each query's text for
perplexity. The objective driving the suggestion model is mean consistency
alone; perplexity is recorded per trial and only weighs in when the Pareto
frontier is built and a point is selected.

Completed trials append to a JSON-lines log; restarting with the same log
replays history instead of re-evaluating, and the per-trial seeded random
streams make the resumed run identical to an uninterrupted one.
"""

from __future__ import annotations

import json
import logging
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

from ..archive import atomic_write_text
from ..errors import BackendFailure, TooManyFailedTrialsError, TrialLogError
from ..evaluator.answers import consistency
from ..evaluator.backend import EvaluationBackend, GenerationRequest
from ..evaluator.prompts import render_prompt
from ..task_vector import MergeSpec
from .pareto import SELECTION_RULES, pareto_frontier
from .tpe import SearchSpace, TpeConfig, tpe_suggest

logger = logging.getLogger(__name__)

FAILED_TRIAL_CAP = 0.20


@dataclass(frozen=True)
class TrialRecord:
    """One evaluated coefficient pair."""

    index: int
    coeffs: tuple[float, float]
    consistency: float | None
    perplexity: float | None
    status: str = "ok"  # ok | failed
    failed_query_count: int = 0

    def to_json(self) -> str:
        return json.dumps(
            {
                "index": self.index,
                "coeff_sft": self.coeffs[0],
                "coeff_rlvr": self.coeffs[1],
                "consistency": self.consistency,
                "perplexity": self.perplexity,
                "status": self.status,
                "failed_query_count": self.failed_query_count,
            }
        )

    @classmethod
    def from_json(cls, line: str) -> "TrialRecord":
        obj = json.loads(line)
        return cls(
            index=obj["index"],
            coeffs=(obj["coeff_sft"], obj["coeff_rlvr"]),
            consistency=obj["consistency"],
            perplexity=obj["perplexity"],
            status=obj["status"],
            failed_query_count=obj.get("failed_query_count", 0),
        )


@dataclass
class SearchResult:
    trials: list[TrialRecord]
    frontier: list[TrialRecord]
    selected: TrialRecord
    selection_rule: str
    coefficients: tuple[float, float]
    failed_trial_count: int = 0
    recipe: MergeSpec | None = None

    def to_dict(self) -> dict:
        return {
            "selection_rule": self.selection_rule,
            "coefficients": list(self.coefficients),
            "selected_trial_index": self.selected.index,
            "selected_consistency": self.selected.consistency,
            "selected_perplexity": self.selected.perplexity,
            "failed_trial_count": self.failed_trial_count,
            "num_trials": len(self.trials),
            "frontier": [json.loads(t.to_json()) for t in self.frontier],
            "recipe": self.recipe.to_dict() if self.recipe else None,
        }


def load_trial_log(path: str | Path) -> list[TrialRecord]:
    """Read completed trials; a truncated trailing line (crash) is dropped.

    Raises TrialLogError for an unparseable line before the last one, or a
    record whose index is not its position: replaying past either would
    renumber every later trial.
    """
    records: list[TrialRecord] = []
    path = Path(path)
    if not path.exists():
        return records
    numbered = [
        (lineno, line.strip())
        for lineno, line in enumerate(path.read_text(encoding="utf-8").split("\n"), start=1)
        if line.strip()
    ]
    for position, (lineno, line) in enumerate(numbered):
        try:
            record = TrialRecord.from_json(line)
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            if position == len(numbered) - 1:
                logger.warning("dropping truncated last line %d of trial log %s", lineno, path)
                break
            raise TrialLogError(f"{path} line {lineno}: unparseable trial record ({exc})") from exc
        if record.index != position:
            raise TrialLogError(
                f"{path} line {lineno}: trial index {record.index}, expected {position}"
            )
        records.append(record)
    return records


def _evaluate_trial(
    backend: EvaluationBackend,
    model_ref: str,
    queries: Sequence[tuple[str, str]],
    samples_per_query: int,
    temperature: float,
    max_tokens: int,
    prompt_preset: str,
    trial_seed: int,
    concurrency: int,
) -> tuple[float, float, int]:
    """Mean consistency and mean perplexity over the adaptation queries.

    Failed queries are dropped from both means with their count recorded;
    raises BackendFailure only if every query fails.
    """

    def eval_query(query_index: int, text: str) -> tuple[float, float]:
        prompt = render_prompt(text, prompt_preset)
        request = GenerationRequest(
            model_ref=model_ref,
            prompt=prompt,
            num_samples=samples_per_query,
            temperature=temperature,
            max_tokens=max_tokens,
            seed=trial_seed * 1_000_003 + query_index,
        )
        samples = backend.generate(request)
        answer_share = consistency([s.extracted_answer for s in samples], samples_per_query)
        perplexity = backend.score(model_ref, prompt).perplexity
        return answer_share, perplexity

    per_query: list[tuple[float, float] | None] = [None] * len(queries)
    failed = 0
    with ThreadPoolExecutor(max_workers=max(1, concurrency)) as executor:
        futures = {
            executor.submit(eval_query, i, text): i
            for i, (_, text) in enumerate(queries)
        }
        for future, i in futures.items():
            try:
                per_query[i] = future.result()
            except BackendFailure as exc:
                failed += 1
                logger.warning("query %s failed during trial evaluation: %s", queries[i][0], exc)
    scored = [entry for entry in per_query if entry is not None]
    if not scored:
        raise BackendFailure("every adaptation query failed for this trial")
    mean_consistency = sum(c for c, _ in scored) / len(scored)
    mean_perplexity = sum(p for _, p in scored) / len(scored)
    return mean_consistency, mean_perplexity, failed


def run_search(
    merge_builder: Callable[[tuple[float, float]], str],
    backend: EvaluationBackend,
    queries: Sequence[tuple[str, str]],
    config: TpeConfig,
    space: SearchSpace | None = None,
    samples_per_query: int = 5,
    temperature: float = 0.6,
    max_tokens: int = 8192,
    prompt_preset: str = "qwen-structured",
    selection_rule: str = "max-consistency",
    concurrency: int = 8,
    trial_log_path: str | Path | None = None,
    resume: bool = False,
    recipe_builder: Callable[[tuple[float, float]], MergeSpec] | None = None,
) -> SearchResult:
    """Run the trial budget sequentially and select from the Pareto frontier."""
    if not queries:
        raise ValueError("adaptation query list is empty")
    if selection_rule not in SELECTION_RULES:
        raise ValueError(f"unknown selection rule {selection_rule!r}")
    space = space or SearchSpace()

    history: list[TrialRecord] = []
    log_fh = None
    if trial_log_path is not None:
        trial_log_path = Path(trial_log_path)
        trial_log_path.parent.mkdir(parents=True, exist_ok=True)
        if resume:
            history = load_trial_log(trial_log_path)[: config.n_trials]
            # Rewrite the log to the replayed records, so that the next
            # record is not appended onto a dropped truncated line.
            atomic_write_text(trial_log_path, "".join(t.to_json() + "\n" for t in history))
        elif trial_log_path.exists():
            trial_log_path.unlink()
        log_fh = open(trial_log_path, "a", encoding="utf-8")
    if history:
        logger.info("resuming search from %d completed trials", len(history))

    max_failed = math.floor(FAILED_TRIAL_CAP * config.n_trials)
    failed_count = sum(1 for t in history if t.status == "failed")
    try:
        while len(history) < config.n_trials:
            index = len(history)
            coeffs = tpe_suggest(history, space, config)
            try:
                model_ref = merge_builder(coeffs)
                mean_c, mean_p, failed_queries = _evaluate_trial(
                    backend,
                    model_ref,
                    queries,
                    samples_per_query,
                    temperature,
                    max_tokens,
                    prompt_preset,
                    trial_seed=config.seed * 100_000 + index,
                    concurrency=concurrency,
                )
                record = TrialRecord(
                    index=index,
                    coeffs=coeffs,
                    consistency=mean_c,
                    perplexity=mean_p,
                    status="ok",
                    failed_query_count=failed_queries,
                )
            except BackendFailure as exc:
                logger.warning("trial %d failed: %s", index, exc)
                record = TrialRecord(
                    index=index, coeffs=coeffs, consistency=None, perplexity=None, status="failed"
                )
                failed_count += 1
            history.append(record)
            if log_fh is not None:
                log_fh.write(record.to_json() + "\n")
                log_fh.flush()
            if failed_count > max_failed:
                raise TooManyFailedTrialsError(
                    f"{failed_count} of {len(history)} trials failed "
                    f"(cap {FAILED_TRIAL_CAP:.0%} of {config.n_trials})"
                )
    finally:
        if log_fh is not None:
            log_fh.close()

    frontier = pareto_frontier(history)
    selected = SELECTION_RULES[selection_rule](frontier)
    return SearchResult(
        trials=history,
        frontier=frontier,
        selected=selected,
        selection_rule=selection_rule,
        coefficients=selected.coeffs,
        failed_trial_count=failed_count,
        recipe=recipe_builder(selected.coeffs) if recipe_builder else None,
    )
