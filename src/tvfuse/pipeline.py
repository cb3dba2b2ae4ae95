"""End-to-end orchestration: data selection, vector processing, search, merge.

The pipeline is a sequential four-stage machine over a workspace directory:

    stage1/  difficulty records and the selected adaptation set
    stage2/  processed task-vector archives (pruned + rescaled, stored F32)
    stage3/  trial log and search result
    merged_model.safetensors, report.json

Every stage persists its artifacts, so a run can be resumed (``resume=True``
reuses whatever is already on disk, including a partial trial log) or
individual stages re-used by the CLI subcommands. Candidate models built
during search all share one path in ``candidates/``, keeping at most one on
disk at a time.

Reproducibility: stage 3 always merges candidates from the stage-2 archives
on disk (never from in-memory vectors), so a fresh run, a resumed run and a
stage-skipped run produce byte-identical models given the same config,
seed and inputs.
"""

from __future__ import annotations

import functools
import hashlib
import json
import logging
import math
import os
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Any, Callable

from . import __version__
from .adaptation import (
    AdaptationSet,
    build_adaptation_set,
    default_threshold,
    load_query_pool,
    save_difficulty_records,
    score_difficulty,
)
from .archive import atomic_write_text, open_archive
# `sign_interference` is no longer called here; perfbench/worker.py's tracer
# still wraps it at this import site.
from .diagnostics import count_conflicts, sign_interference  # noqa: F401
from .errors import ConfigError, PipelineLockedError, StageError, TvfuseError
from .evaluator import HttpBackend, MockBackend, encode_model_ref, quadratic_landscape
from .evaluator.backend import EvaluationBackend, GenerationParams
from .optimizer import SearchResult, SearchSpace, TpeConfig, run_search
from .optimizer.pareto import SELECTION_RULES
from .task_vector import (
    TaskVector,
    extract_task_vector,
    global_l2_norm,
    load_task_vector,
    merge,
    require_finite,
    save_task_vector,
    sparsify_and_rescale,
)

logger = logging.getLogger(__name__)

LOCK_NAME = ".lock"

# Config fields that `validate` compares or later arithmetic uses: each must
# hold an int or a float, not a bool.
_NUMBER_FIELDS = (
    "seed", "retention_p", "epsilon", "m", "n", "easy_medium_ratio",
    "search.n_trials", "search.n_startup", "search.gamma_split", "search.n_candidates",
    "search.bandwidth_floor", "search.scalarize_ppl_weight", "search.k",
    "search.temperature", "search.max_tokens", "search.concurrency",
    "backend.max_attempts", "backend.timeout",
)


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# --- configuration ---------------------------------------------------------------


@dataclass
class SearchSettings:
    n_trials: int = 100
    n_startup: int = 10
    gamma_split: float = 0.25
    n_candidates: int = 24
    bandwidth_floor: float = 0.05
    scalarize_ppl_weight: float = 0.0
    space: list[list[float]] = field(default_factory=lambda: [[0.0, 2.0], [0.0, 2.0]])
    k: int = 5
    temperature: float = 0.6
    max_tokens: int = 8192
    prompt_preset: str = "qwen-structured"
    selection_rule: str = "max-consistency"
    concurrency: int = 8


@dataclass
class BackendSettings:
    kind: str = "mock"  # mock | http
    url: str | None = None
    max_attempts: int = 3
    timeout: float = 60.0
    sft_ref: str = "sft"
    rlvr_ref: str = "rlvr"
    mock: dict[str, Any] = field(
        default_factory=lambda: {
            "peak": [0.8, 1.5],
            "falloff": 8.0,
            "ppl_base": 2.0,
            "ppl_slope": 1.0,
            "seed": 0,
            "query_jitter": 0.0,
        }
    )


@dataclass
class PipelineConfig:
    base_path: str = ""
    sft_path: str = ""
    rlvr_path: str = ""
    pool_path: str = ""
    workspace: str = ""
    seed: int = 0
    retention_p: float = 0.30
    epsilon: float = 1e-8
    m: int = 5
    n: int = 64
    difficulty_threshold: float | None = None
    easy_medium_ratio: float = 0.5
    fixed_coefficients: list[float] | None = None
    output_dtype: str | None = None
    search: SearchSettings = field(default_factory=SearchSettings)
    backend: BackendSettings = field(default_factory=BackendSettings)

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "PipelineConfig":
        raw = dict(raw)
        try:
            search = SearchSettings(**raw.pop("search", {}))
            backend = BackendSettings(**raw.pop("backend", {}))
            return cls(search=search, backend=backend, **raw)
        except TypeError as exc:
            raise ConfigError(f"invalid configuration: {exc}") from exc

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    def validate(self) -> None:
        problems: list[str] = []
        for label in ("base_path", "sft_path", "rlvr_path", "pool_path"):
            value = getattr(self, label)
            if not value:
                problems.append(f"{label} is required")
            elif not Path(value).exists():
                problems.append(f"{label} does not exist: {value}")
        if not self.workspace:
            problems.append("workspace is required")
        numbers = {name: functools.reduce(getattr, name.split("."), self) for name in _NUMBER_FIELDS}
        if self.difficulty_threshold is not None:
            numbers["difficulty_threshold"] = self.difficulty_threshold
        wrong_type = [
            f"{name} must be a number, got {value!r}"
            for name, value in numbers.items()
            if not _is_number(value)
        ]
        if wrong_type:
            raise ConfigError("; ".join(problems + wrong_type))
        if not 0.0 < self.retention_p <= 1.0:
            problems.append(f"retention_p must be in (0, 1], got {self.retention_p}")
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            problems.append(f"epsilon must be finite and positive, got {self.epsilon}")
        if self.m < 2:
            problems.append("m must be >= 2")
        if self.n < 1:
            problems.append("n must be >= 1")
        if not 0.0 <= self.easy_medium_ratio <= 1.0:
            problems.append("easy_medium_ratio must be in [0, 1]")
        fixed = self.fixed_coefficients
        if fixed is not None and not (
            isinstance(fixed, (list, tuple)) and len(fixed) == 2 and all(map(_is_number, fixed))
        ):
            problems.append("fixed_coefficients must hold exactly two numbers")
        if self.search.selection_rule not in SELECTION_RULES:
            problems.append(f"unknown selection_rule {self.search.selection_rule!r}")
        if self.backend.kind not in ("mock", "http"):
            problems.append(f"backend.kind must be mock or http, got {self.backend.kind!r}")
        if self.backend.kind == "http" and not self.backend.url:
            problems.append("backend.url is required for the http backend")
        space = self.search.space
        if not (isinstance(space, (list, tuple)) and len(space) == 2 and all(
            isinstance(b, (list, tuple)) and len(b) == 2 and all(map(_is_number, b)) for b in space
        )):
            problems.append("search.space must be two [low, high] pairs of numbers")
        else:
            try:
                self.search_space()
            except ValueError as exc:
                problems.append(f"search.space: {exc}")
        try:
            self.tpe_config()
        except ValueError as exc:
            problems.append(f"search: {exc}")
        if self.search.k < 1:
            problems.append("search.k must be >= 1")
        temperature = self.search.temperature
        if not (math.isfinite(temperature) and temperature >= 0):
            problems.append(f"search.temperature must be finite and >= 0, got {temperature}")
        if self.search.max_tokens < 1:
            problems.append("search.max_tokens must be >= 1")
        if problems:
            raise ConfigError("; ".join(problems))
        if (
            self.difficulty_threshold is not None
            and abs(self.difficulty_threshold - default_threshold(self.m)) > 1e-12
        ):
            logger.warning(
                "difficulty_threshold %.6g overrides the 1 - 1/m default %.6g",
                self.difficulty_threshold,
                default_threshold(self.m),
            )

    def tpe_config(self) -> TpeConfig:
        return TpeConfig(
            n_trials=self.search.n_trials,
            n_startup=self.search.n_startup,
            gamma_split=self.search.gamma_split,
            n_candidates=self.search.n_candidates,
            bandwidth_floor=self.search.bandwidth_floor,
            seed=self.seed,
            scalarize_ppl_weight=self.search.scalarize_ppl_weight,
        )

    def search_space(self) -> SearchSpace:
        return SearchSpace(bounds=tuple((float(lo), float(hi)) for lo, hi in self.search.space))

    def gen_params(self) -> GenerationParams:
        s = self.search
        return GenerationParams(s.temperature, s.max_tokens, s.prompt_preset)


def load_config(path: str | Path, overrides: dict[str, str] | None = None) -> PipelineConfig:
    """Read a JSON config file and apply dotted-path `overrides` (see `apply_overrides`)."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot load config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return PipelineConfig.from_dict(apply_overrides(raw, overrides or {}))


def apply_overrides(raw: dict[str, Any], overrides: dict[str, str]) -> dict[str, Any]:
    """Apply dotted-path overrides; values parse as JSON, else stay strings."""
    for dotted, text in overrides.items():
        try:
            value: Any = json.loads(text)
        except json.JSONDecodeError:
            value = text
        node = raw
        parts = dotted.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"cannot override {dotted}: {part} is not an object")
        node[parts[-1]] = value
    return raw


def build_backend(config: PipelineConfig) -> EvaluationBackend:
    if config.backend.kind == "http":
        try:
            return HttpBackend(
                config.backend.url,
                max_attempts=config.backend.max_attempts,
                timeout=config.backend.timeout,
            )
        except ValueError as exc:
            raise ConfigError(f"invalid backend: {exc}") from exc
    mock = dict(config.backend.mock)
    landscape = quadratic_landscape(
        peak=tuple(mock.get("peak", (0.8, 1.5))),
        falloff=float(mock.get("falloff", 8.0)),
        ppl_base=float(mock.get("ppl_base", 2.0)),
        ppl_slope=float(mock.get("ppl_slope", 1.0)),
    )
    aliases = None
    if "aliases" in mock:
        aliases = {name: tuple(coeffs) for name, coeffs in mock["aliases"].items()}
    return MockBackend(
        landscape,
        seed=int(mock.get("seed", 0)),
        aliases=aliases,
        query_jitter=float(mock.get("query_jitter", 0.0)),
    )


# --- workspace helpers -------------------------------------------------------------


def _sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


class WorkspaceLock:
    """One pipeline per workspace; a stale lock from a dead process is reclaimed."""

    def __init__(self, workspace: Path):
        self.path = workspace / LOCK_NAME

    def __enter__(self) -> "WorkspaceLock":
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if self.path.exists():
            try:
                owner = int(self.path.read_text().strip())
                os.kill(owner, 0)
            except (ValueError, ProcessLookupError):
                logger.warning("reclaiming stale lock %s", self.path)
                self.path.unlink(missing_ok=True)
            except PermissionError:
                raise PipelineLockedError(f"workspace locked by pid in {self.path}")
            else:
                raise PipelineLockedError(f"workspace locked by running pid {owner}")
        fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        with os.fdopen(fd, "w") as fh:
            fh.write(str(os.getpid()))
        return self

    def __exit__(self, *exc_info) -> None:
        self.path.unlink(missing_ok=True)


@dataclass
class WorkspacePaths:
    root: Path

    @property
    def stage1(self) -> Path:
        return self.root / "stage1"

    @property
    def stage2(self) -> Path:
        return self.root / "stage2"

    @property
    def stage3(self) -> Path:
        return self.root / "stage3"

    @property
    def difficulty_records(self) -> Path:
        return self.stage1 / "difficulty_records.json"

    @property
    def adaptation_set(self) -> Path:
        return self.stage1 / "adaptation_set.json"

    @property
    def tau_sft(self) -> Path:
        return self.stage2 / "tau_sft.safetensors"

    @property
    def tau_rlvr(self) -> Path:
        return self.stage2 / "tau_rlvr.safetensors"

    @property
    def vector_summary(self) -> Path:
        return self.stage2 / "summary.json"

    @property
    def trial_log(self) -> Path:
        return self.stage3 / "trials.jsonl"

    @property
    def search_result(self) -> Path:
        return self.stage3 / "search_result.json"

    @property
    def candidate(self) -> Path:
        return self.root / "candidates" / "candidate.safetensors"

    @property
    def merged_model(self) -> Path:
        return self.root / "merged_model.safetensors"

    @property
    def report(self) -> Path:
        return self.root / "report.json"


@dataclass
class RunReport:
    tool_version: str
    config: dict[str, Any]
    input_digests: dict[str, str]
    stage_seconds: dict[str, float]
    vector_summary: dict[str, Any]
    adaptation_manifest: dict[str, Any]
    trial_log: str
    coefficients: list[float]
    selection_rule: str
    final_model: str | None

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


# --- stages --------------------------------------------------------------------------


def _stage_select_data(
    config: PipelineConfig, paths: WorkspacePaths, backend: EvaluationBackend, resume: bool
) -> AdaptationSet:
    if resume and paths.adaptation_set.exists() and paths.difficulty_records.exists():
        logger.info("reusing stage1 artifacts")
        payload = json.loads(paths.adaptation_set.read_text(encoding="utf-8"))
        return AdaptationSet(**payload)
    pool = load_query_pool(config.pool_path)
    paths.stage1.mkdir(parents=True, exist_ok=True)
    failures: list[str] = []
    records = score_difficulty(
        pool,
        backend,
        config.backend.sft_ref,
        config.backend.rlvr_ref,
        m=config.m,
        gen_params=config.gen_params(),
        seed=config.seed,
        concurrency=config.search.concurrency,
        on_failure=lambda qid, exc: failures.append(qid),
    )
    save_difficulty_records(records, paths.difficulty_records)
    if failures:
        atomic_write_text(
            paths.stage1 / "scoring_failures.json", json.dumps(failures, indent=2)
        )
    selection = build_adaptation_set(
        records,
        m=config.m,
        n=config.n,
        seed=config.seed,
        threshold=config.difficulty_threshold,
        easy_ratio=config.easy_medium_ratio,
    )
    atomic_write_text(paths.adaptation_set, json.dumps(selection.to_dict(), indent=2))
    return selection


def _process_vector(config: PipelineConfig, tv: TaskVector) -> TaskVector:
    # At full retention the mask is the identity and no norm is lost, so the
    # rescale step (whose epsilon would perturb gamma away from 1) is skipped;
    # the select that would have rejected inf and NaN is skipped with it.
    if config.retention_p >= 1.0:
        require_finite(tv)
        return tv
    return sparsify_and_rescale(tv, config.retention_p, epsilon=config.epsilon)


def _stage_task_vectors(config: PipelineConfig, paths: WorkspacePaths, resume: bool) -> dict:
    if (
        resume
        and paths.tau_sft.exists()
        and paths.tau_rlvr.exists()
        and paths.vector_summary.exists()
    ):
        logger.info("reusing stage2 artifacts")
        return json.loads(paths.vector_summary.read_text(encoding="utf-8"))
    paths.stage2.mkdir(parents=True, exist_ok=True)
    base = open_archive(config.base_path)
    summary: dict[str, Any] = {"retention_p": config.retention_p, "epsilon": config.epsilon}
    processed_vectors: dict[str, TaskVector] = {}
    for label, source in (("sft", config.sft_path), ("rlvr", config.rlvr_path)):
        tv = extract_task_vector(base, open_archive(source))
        processed_vectors[label] = _process_vector(config, tv)
    del tv  # the raw rlvr vector; stage 2 no longer needs it
    # Both vectors are processed, and so known to be finite, before either
    # archive is written.
    for label, out_path in (("sft", paths.tau_sft), ("rlvr", paths.tau_rlvr)):
        processed = processed_vectors[label]
        save_task_vector(processed, out_path)
        # At full retention the processed vector is the raw one; otherwise
        # sparsify stored the raw vector's norm.
        processed_norm = global_l2_norm(processed)
        entry = {"original_norm": processed_norm, "processed_norm": processed_norm}
        if processed.sparsity is not None:
            entry.update(
                original_norm=processed.sparsity.original_norm,
                threshold=processed.sparsity.threshold,
                retained_count=processed.sparsity.retained_count,
                gamma=processed.sparsity.rescale_gamma,
            )
        summary[label] = entry
    # Sign interference at retention_p, counted on the processed vectors
    # instead of sparsifying the raw ones again: a processed vector is the
    # sparsified one times gamma >= 0 (0 only for an all-zero vector), or the
    # raw vector itself at full retention, so signs and support are the same.
    interference = count_conflicts(
        processed_vectors["sft"], processed_vectors["rlvr"], config.retention_p, config.retention_p
    )
    summary["sign_interference"] = {
        "retention_a": interference.retention_a,
        "retention_b": interference.retention_b,
        "conflict_ratio": interference.conflict_ratio,
        "denominator_count": interference.denominator_count,
    }
    atomic_write_text(paths.vector_summary, json.dumps(summary, indent=2))
    return summary


def make_merge_builder(
    config: PipelineConfig, paths: WorkspacePaths
) -> Callable[[tuple[float, float]], str]:
    """Candidate factory for the search: merge to one reusable path on disk.

    Loads the processed vectors from the stage-2 archives (the canonical
    post-narrowing values), so search-time candidates and the final model
    are built from exactly the same data as any resumed run.
    """
    base = open_archive(config.base_path)
    tau_sft = load_task_vector(paths.tau_sft)
    tau_rlvr = load_task_vector(paths.tau_rlvr)
    paths.candidate.parent.mkdir(parents=True, exist_ok=True)
    as_path = config.backend.kind == "http"

    def builder(coeffs: tuple[float, float]) -> str:
        merge(
            base,
            [(tau_sft, coeffs[0]), (tau_rlvr, coeffs[1])],
            paths.candidate,
            out_dtype=config.output_dtype,
        )
        return str(paths.candidate) if as_path else encode_model_ref(*coeffs)

    return builder


def _stage_search(
    config: PipelineConfig,
    paths: WorkspacePaths,
    backend: EvaluationBackend,
    selection: AdaptationSet,
    resume: bool,
) -> SearchResult | None:
    if config.fixed_coefficients is not None:
        logger.info("fixed coefficients %s: skipping search", config.fixed_coefficients)
        return None
    pool = load_query_pool(config.pool_path)
    texts = dict(pool.queries)
    queries = [(qid, texts[qid]) for qid in selection.selected]
    paths.stage3.mkdir(parents=True, exist_ok=True)
    result = run_search(
        merge_builder=make_merge_builder(config, paths),
        backend=backend,
        queries=queries,
        config=config.tpe_config(),
        space=config.search_space(),
        samples_per_query=config.search.k,
        gen_params=config.gen_params(),
        selection_rule=config.search.selection_rule,
        concurrency=config.search.concurrency,
        trial_log_path=paths.trial_log,
        resume=resume,
    )
    payload = result.to_dict()
    payload["recipe"] = {
        "base_id": config.base_path,
        "terms": [
            {"task_vector_id": str(path), "coefficient": coeff}
            for path, coeff in zip((paths.tau_sft, paths.tau_rlvr), result.coefficients)
        ],
    }
    atomic_write_text(paths.search_result, json.dumps(payload, indent=2))
    # The shared candidate file is transient scratch; drop it after scoring.
    paths.candidate.unlink(missing_ok=True)
    return result


def _stage_final_merge(
    config: PipelineConfig, paths: WorkspacePaths, coefficients: tuple[float, float]
) -> Path:
    base = open_archive(config.base_path)
    tau_sft = load_task_vector(paths.tau_sft)
    tau_rlvr = load_task_vector(paths.tau_rlvr)
    merge(
        base,
        [(tau_sft, coefficients[0]), (tau_rlvr, coefficients[1])],
        paths.merged_model,
        out_dtype=config.output_dtype,
    )
    return paths.merged_model


# --- driver ---------------------------------------------------------------------------


def run_pipeline(
    config: PipelineConfig, resume: bool = False, final_merge: bool = True
) -> RunReport:
    config.validate()
    workspace = Path(config.workspace)
    paths = WorkspacePaths(workspace)
    backend = build_backend(config)
    stage_seconds: dict[str, float] = {}

    def timed(stage: str, fn, *args):
        started = time.perf_counter()
        try:
            value = fn(*args)
        except TvfuseError as exc:
            raise StageError(stage, str(exc)) from exc
        stage_seconds[stage] = time.perf_counter() - started
        return value

    with WorkspaceLock(workspace):
        try:
            selection = timed("select-data", _stage_select_data, config, paths, backend, resume)
            vector_summary = timed("task-vectors", _stage_task_vectors, config, paths, resume)
            result = timed("search", _stage_search, config, paths, backend, selection, resume)
        finally:
            if isinstance(backend, HttpBackend):
                backend.close()

        if result is not None:
            coefficients = result.coefficients
            selection_rule = result.selection_rule
        else:
            coefficients = tuple(config.fixed_coefficients)  # type: ignore[arg-type]
            selection_rule = "fixed"
            paths.stage3.mkdir(parents=True, exist_ok=True)
            atomic_write_text(
                paths.search_result,
                json.dumps(
                    {"selection_rule": "fixed", "coefficients": list(coefficients)}, indent=2
                ),
            )

        final_path: Path | None = None
        if final_merge:
            final_path = timed("final-merge", _stage_final_merge, config, paths, coefficients)

        report = RunReport(
            tool_version=__version__,
            config=config.to_dict(),
            input_digests={
                "base": _sha256_file(config.base_path),
                "sft": _sha256_file(config.sft_path),
                "rlvr": _sha256_file(config.rlvr_path),
                "pool": _sha256_file(config.pool_path),
            },
            stage_seconds=stage_seconds,
            vector_summary=vector_summary,
            adaptation_manifest=selection.to_dict(),
            trial_log=str(paths.trial_log),
            coefficients=[float(c) for c in coefficients],
            selection_rule=selection_rule,
            final_model=str(final_path) if final_path else None,
        )
        atomic_write_text(paths.report, json.dumps(report.to_dict(), indent=2))
        return report


def load_report(workspace: str | Path) -> RunReport:
    """Read `report.json`; any unreadable or malformed report raises ConfigError."""
    path = WorkspacePaths(Path(workspace)).report
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot load report {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError(f"report {path} must hold a JSON object")
    expected = {f.name for f in fields(RunReport)}
    missing = sorted(expected - payload.keys())
    unexpected = sorted(payload.keys() - expected)
    if missing or unexpected:
        raise ConfigError(f"report {path}: missing keys {missing}, unexpected keys {unexpected}")
    report = RunReport(**payload)
    if not isinstance(report.config, dict):
        raise ConfigError(f"report {path}: config must be a JSON object")
    # The embedded config snapshot must still satisfy the current schema.
    try:
        PipelineConfig.from_dict(report.config)
    except ConfigError as exc:
        raise ConfigError(f"report {path}: {exc}") from exc
    return report
