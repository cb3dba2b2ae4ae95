"""Sequential coefficient search over merged candidate models.

One trial: suggest a coefficient pair, build the candidate model through
the caller-supplied `merge_builder`, sample each adaptation query several
times for a majority-vote consistency, and score each query's text for
perplexity. The objective driving the suggestion model is mean consistency
alone; perplexity is recorded per trial and only weighs in when the Pareto
frontier is built and a point is selected.

Completed trials append to a JSON-lines log; restarting with the same log
replays history instead of re-evaluating, and the per-trial seeded random
streams make the resumed run identical to an uninterrupted one; a log whose
coefficients this search would not have suggested is refused, and so is one
whose failed trials already break the cap, before any trial runs. At INFO
level each evaluated trial (not a replayed one) logs one progress line: its
consistency, the best so far and an ETA from this run's mean trial time.
"""

from __future__ import annotations

import json
import logging
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

from ..archive import atomic_write_text
from ..errors import BackendFailure, TooManyFailedTrialsError, TrialLogError
from ..evaluator.backend import EvaluationBackend, GenerationParams, QueryFanOut, sample_consistency
from ..evaluator.prompts import render_prompt
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
        """The record of one line `to_json` wrote. A line that is not a JSON
        object with every field raises ValueError, KeyError or TypeError, and
        so does a field that does not fit: replaying it could select a trial
        that was never measured so."""
        obj = json.loads(line)
        ok = obj["status"] == "ok"
        c, p, n = obj["consistency"], obj["perplexity"], obj["failed_query_count"]
        fits = {
            "index": type(obj["index"]) is int,
            "coeff_sft": _finite(obj["coeff_sft"]),
            "coeff_rlvr": _finite(obj["coeff_rlvr"]),
            "status": obj["status"] in ("ok", "failed"),
            "consistency": (_finite(c) and 0.0 <= c <= 1.0) if ok else c is None,
            "perplexity": (_finite(p) and p > 0.0) if ok else p is None,
            "failed_query_count": type(n) is int and n >= 0,
        }
        for key, fit in fits.items():
            if not fit:
                raise ValueError(f"{obj['status']!r} record holds {key} {obj[key]!r}")
        return cls(
            index=obj["index"],
            coeffs=(obj["coeff_sft"], obj["coeff_rlvr"]),
            consistency=c,
            perplexity=p,
            status=obj["status"],
            failed_query_count=n,
        )


def _finite(value: object) -> bool:
    """A JSON number that is neither inf nor NaN; a bool is not a number."""
    return type(value) in (int, float) and math.isfinite(value)


@dataclass
class SearchResult:
    trials: list[TrialRecord]
    frontier: list[TrialRecord]
    selected: TrialRecord
    selection_rule: str
    coefficients: tuple[float, float]
    failed_trial_count: int = 0

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
        }


def load_trial_log(path: str | Path) -> list[TrialRecord]:
    """Read completed trials; a truncated trailing line (crash) is dropped,
    and so is a last record whose fields do not fit (`TrialRecord.from_json`).

    Raises TrialLogError for such a line before the last one, or a record
    whose index is not its position: replaying past either would renumber
    every later trial.
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
        except (ValueError, KeyError, TypeError) as exc:
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


def _require_replayable(
    path: Path, history: Sequence[TrialRecord], space: SearchSpace, config: TpeConfig
) -> None:
    """Raise TrialLogError unless every logged trial holds the coefficients
    this search suggests after the trials before it. A log written under
    another seed, search space or TPE setting fails at its first trial
    that differs, before any trial is evaluated."""
    for index, record in enumerate(history):
        expected = tpe_suggest(history[:index], space, config)
        if record.coeffs != expected:
            raise TrialLogError(
                f"{path}: trial {index} holds coefficients {record.coeffs}, but this search "
                f"suggests {expected}; the log was written with another seed, search space "
                "or TPE setting"
            )


def _require_under_cap(failed_count: int, trials: int, n_trials: int) -> None:
    """Raise TooManyFailedTrialsError once more than FAILED_TRIAL_CAP of the
    trial budget has failed."""
    if failed_count > math.floor(FAILED_TRIAL_CAP * n_trials):
        raise TooManyFailedTrialsError(
            f"{failed_count} of {trials} trials failed (cap {FAILED_TRIAL_CAP:.0%} of {n_trials})"
        )


def _evaluate_trial(
    backend: EvaluationBackend,
    model_ref: str,
    queries: Sequence[tuple[str, str]],
    samples_per_query: int,
    gen_params: GenerationParams,
    trial_seed: int,
    fan_out: QueryFanOut,
) -> tuple[float, float, int]:
    """Mean consistency and mean perplexity over the adaptation queries.

    Failed queries are dropped from both means with their count recorded;
    raises BackendFailure only if every query fails.
    """

    def eval_query(query_index: int, qid: str, text: str) -> tuple[float, float]:
        prompt = render_prompt(text, gen_params.prompt_preset)
        seed = trial_seed * 1_000_003 + query_index
        answer_share = sample_consistency(
            backend, model_ref, prompt, samples_per_query, gen_params, seed
        )
        perplexity = backend.score(model_ref, prompt).perplexity
        return answer_share, perplexity

    scored, failures = fan_out.map(eval_query, queries)
    for qid, exc in failures:
        logger.warning("query %s failed during trial evaluation: %s", qid, exc)
    if not scored:
        raise BackendFailure("every adaptation query failed for this trial")
    mean_consistency = sum(c for c, _ in scored) / len(scored)
    mean_perplexity = sum(p for _, p in scored) / len(scored)
    return mean_consistency, mean_perplexity, len(failures)


def run_search(
    merge_builder: Callable[[tuple[float, float]], str],
    backend: EvaluationBackend,
    queries: Sequence[tuple[str, str]],
    config: TpeConfig,
    trial_log_path: str | Path,
    space: SearchSpace | None = None,
    samples_per_query: int = 5,
    gen_params: GenerationParams = GenerationParams(),
    selection_rule: str = "max-consistency",
    concurrency: int = 8,
    resume: bool = False,
) -> SearchResult:
    """Run the trial budget sequentially, logging each trial to
    `trial_log_path`, and select from the Pareto frontier."""
    space = space or SearchSpace()

    history: list[TrialRecord] = []
    trial_log_path = Path(trial_log_path)
    trial_log_path.parent.mkdir(parents=True, exist_ok=True)
    if resume:
        history = load_trial_log(trial_log_path)[: config.n_trials]
        _require_replayable(trial_log_path, history, space, config)
    failed_count = sum(1 for t in history if t.status == "failed")
    _require_under_cap(failed_count, len(history), config.n_trials)
    # Rewrite the log to the replayed records, none on a fresh run, so no
    # record is appended to a dropped truncated line or an earlier run's log.
    atomic_write_text(trial_log_path, "".join(t.to_json() + "\n" for t in history))
    if history:
        logger.info("resuming search from %d completed trials", len(history))

    replayed = len(history)
    started = time.perf_counter()
    with open(trial_log_path, "a", encoding="utf-8") as log_fh:
        with QueryFanOut(concurrency) as fan_out:
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
                        gen_params,
                        trial_seed=config.seed * 100_000 + index,
                        fan_out=fan_out,
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
                        index=index,
                        coeffs=coeffs,
                        consistency=None,
                        perplexity=None,
                        status="failed",
                    )
                    failed_count += 1
                history.append(record)
                log_fh.write(record.to_json() + "\n")
                log_fh.flush()
                if logger.isEnabledFor(logging.INFO):
                    ok = [t for t in history if t.consistency is not None]
                    best = max(ok, key=lambda t: t.consistency) if ok else None
                    mean_s = (time.perf_counter() - started) / (len(history) - replayed)
                    logger.info(
                        "trial %d (%d/%d): consistency %s; best %s; eta %.1f s",
                        index,
                        len(history),
                        config.n_trials,
                        "failed" if record.consistency is None else f"{record.consistency:.4f}",
                        "none" if best is None else f"{best.consistency:.4f} at trial {best.index}",
                        mean_s * (config.n_trials - len(history)),
                    )
                _require_under_cap(failed_count, len(history), config.n_trials)

    frontier = pareto_frontier(history)
    selected = SELECTION_RULES[selection_rule](frontier)
    return SearchResult(
        trials=history,
        frontier=frontier,
        selected=selected,
        selection_rule=selection_rule,
        coefficients=selected.coeffs,
        failed_trial_count=failed_count,
    )
