"""End-to-end orchestration: data selection, vector processing, search, merge.

The pipeline is a sequential four-stage machine over a workspace directory:

    stage1/  difficulty records and the selected adaptation set
    stage2/  processed task-vector archives (pruned + rescaled, stored F32)
    stage3/  the settings the search is built from, trial log and search result
    merged_model.safetensors, report.json

Every stage persists its artifacts and what they are built from, so a run can
be resumed (``resume=True`` reuses what is on disk if built the same way,
including a partial trial log) or individual stages re-used by the CLI subcommands.

Stage 2 never holds a whole vector: it runs `task_vector.prune_and_rescale`,
the one prune-and-rescale implementation, over lockstep passes of the base
and both finetuned archives, one tensor of each at a time, and its last
pass also counts sign conflicts and writes both archives. At full retention
that pass alone runs, unpruned. Each pass reads one tensor ahead
(`task_vector.deltas`): one worker thread reads, widens and subtracts the
next tensor of each archive while the stage works on the current one, so
one more tensor set is in flight. Every merge reads the base and the stored
stage-2 vectors one tensor at a time, so memory grows with the largest
tensor, not with the model.

Buffers: stage 2 makes one `deltas` reader and one `task_vector.Scratch`
for all of its passes, each pass reading both finetuned archives, and each
merge owns its accumulator and term buffer for the length of the call. The
reader's rule: a yielded delta is borrowed until the next item, and the
stage masks, rescales and writes it in place before then; the buffers live
as long as the reader; it runs one pass at a time. Nothing outlives its
stage, so the search is not charged for stage 2's buffers.

Only a backend that loads weights from a path (``loads_weights``, the HTTP
backend) gets a candidate file per trial: the candidates share one path in
``candidates/``, keeping at most one on disk, and the directory is removed
when the search ends. The mock backend resolves ``merged:c_sft:c_rlvr``
coefficient refs, so with it the stage-2 archives are read only by the
final merge.

Reproducibility: every merge, per-trial candidate or final model, is built
from the stage-2 archives on disk (never from in-memory vectors), so a
fresh run, a resumed run and a stage-skipped run produce byte-identical
models given the same config, seed and inputs.
"""

from __future__ import annotations

import contextlib
import fcntl
import functools
import hashlib
import json
import logging
import math
import os
import shutil
import time
import types
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Any, Callable, Iterator, Union, get_args, get_origin, get_type_hints

import numpy as np

from . import __version__
from .adaptation import (
    AdaptationSet,
    QueryPool,
    build_adaptation_set,
    default_threshold,
    load_query_pool,
    save_difficulty_records,
    score_difficulty,
)
from .archive import archive_writer, atomic_write_text, byte_sorted, open_archive, read_json
from .diagnostics import InterferenceReport, opposite_signs
from .errors import ConfigError, PipelineLockedError, StageError, TvfuseError
from .evaluator import MockBackend, encode_model_ref, quadratic_landscape
from .evaluator.backend import EvaluationBackend, GenerationParams
from .evaluator.prompts import PROMPT_PRESETS
from .floats import DTYPES
from .optimizer import SearchSpace, TpeConfig, run_search
from .optimizer.pareto import SELECTION_RULES
from .task_vector import (
    Norms,
    Scratch,
    SparsityInfo,
    StoredVector,
    deltas,
    merge,
    prune_and_rescale,
    vector_metadata,
)

# Not called here any more: perfbench/worker.py's tracer wraps these names at
# this import site.
from .diagnostics import sign_interference  # noqa: F401
from .task_vector import (  # noqa: F401
    extract_task_vector,
    global_l2_norm,
    load_task_vector,
    sparsify_and_rescale,
)

logger = logging.getLogger(__name__)

LOCK_NAME = ".lock"


def _is_finite_number(value: Any) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


# Leaf annotations: the test a value must pass, and what a message says it must be.
_LEAF_CHECKS: dict[type, tuple[Callable[[Any], bool], str]] = {
    int: (lambda value: isinstance(value, int) and not isinstance(value, bool), "an integer"),
    float: (_is_finite_number, "a finite number"),
    str: (lambda value: isinstance(value, str), "a string"),
}


def _type_problems(value: Any, hint: Any, path: str) -> list[str]:
    """Every way `value` fails its annotation `hint`, each message naming the
    dotted `path` of the part that fails. An annotation of a kind this walker
    does not handle raises TypeError, so no field goes unchecked."""
    origin, args = get_origin(hint), get_args(hint)
    if hint in _LEAF_CHECKS:
        check, expected = _LEAF_CHECKS[hint]
        return [] if check(value) else [f"{path} must be {expected}, got {value!r}"]
    if origin in (types.UnionType, Union) and args[1:] == (type(None),):  # X | None
        return [] if value is None else _type_problems(value, args[0], path)
    if is_dataclass(hint):  # `_build` made `value` an instance
        hints = get_type_hints(hint)
        children = [
            (getattr(value, f.name), hints[f.name], f"{path}.{f.name}".lstrip("."))
            for f in fields(hint)
        ]
    elif origin is tuple and ... not in args:
        if not (isinstance(value, (list, tuple)) and len(value) == len(args)):
            return [f"{path} must be a list of {len(args)} items, got {value!r}"]
        children = [(item, args[i], f"{path}[{i}]") for i, item in enumerate(value)]
    elif origin is dict and args[0] is str:
        if not isinstance(value, dict):
            return [f"{path} must be an object, got {value!r}"]
        children = [(item, args[1], f"{path}[{key!r}]") for key, item in value.items()]
    else:
        raise TypeError(f"{path}: no type check for annotation {hint!r}")
    return [problem for child in children for problem in _type_problems(*child)]


def _build(cls: type, raw: Any, path: str) -> Any:
    """Construct the dataclass `cls` from the JSON object `raw`, each field
    annotated with a dataclass built from its own object."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{path or 'config'} must be an object for {cls.__name__}, got {raw!r}")
    hints = get_type_hints(cls)
    kwargs = {
        name: _build(hints[name], value, f"{path}.{name}".lstrip("."))
        if is_dataclass(hints.get(name))
        else value
        for name, value in raw.items()
    }
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc


# --- configuration ---------------------------------------------------------------


@dataclass
class SearchSettings:
    n_trials: int = 100
    n_startup: int = 10
    gamma_split: float = 0.25
    n_candidates: int = 24
    bandwidth_floor: float = 0.05
    scalarize_ppl_weight: float = 0.0
    space: tuple[tuple[float, float], tuple[float, float]] = ((0.0, 2.0), (0.0, 2.0))
    k: int = 5
    temperature: float = 0.6
    max_tokens: int = 8192
    prompt_preset: str = "qwen-structured"
    selection_rule: str = "max-consistency"
    concurrency: int = 8


@dataclass
class MockSettings:
    """The mock backend's quadratic landscape, seed and model-ref aliases."""

    peak: tuple[float, float] = (0.8, 1.5)
    falloff: float = 8.0
    ppl_base: float = 2.0
    ppl_slope: float = 1.0
    seed: int = 0
    query_jitter: float = 0.0
    aliases: dict[str, tuple[float, float]] | None = None


@dataclass
class BackendSettings:
    kind: str = "mock"  # mock | http
    url: str | None = None
    max_attempts: int = 3
    timeout: float = 60.0
    sft_ref: str = "sft"
    rlvr_ref: str = "rlvr"
    mock: MockSettings = field(default_factory=MockSettings)


@dataclass
class PipelineConfig:
    """The whole run's settings. Each field's annotation is its type check
    (`check_types`): numbers must be finite, and a pair is two numbers."""

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
    fixed_coefficients: tuple[float, float] | None = None
    output_dtype: str | None = None
    search: SearchSettings = field(default_factory=SearchSettings)
    backend: BackendSettings = field(default_factory=BackendSettings)

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "PipelineConfig":
        return _build(cls, raw, "")

    def check_types(self) -> None:
        """Raise ConfigError naming every value that does not fit its field's annotation."""
        problems = _type_problems(self, PipelineConfig, "")
        if problems:
            raise ConfigError("; ".join(problems))

    def validate(self) -> None:
        self.check_types()
        problems: list[str] = []
        for label in ("base_path", "sft_path", "rlvr_path", "pool_path"):
            value = getattr(self, label)
            if not value:
                problems.append(f"{label} is required")
            elif not Path(value).exists():
                problems.append(f"{label} does not exist: {value}")
        if not self.workspace:
            problems.append("workspace is required")
        if self.seed < 0:
            problems.append(f"seed must be >= 0, got {self.seed}")
        if not 0.0 < self.retention_p <= 1.0:
            problems.append(f"retention_p must be in (0, 1], got {self.retention_p}")
        if self.epsilon <= 0:
            problems.append(f"epsilon must be positive, got {self.epsilon}")
        if self.m < 2:
            problems.append("m must be >= 2")
        if self.n < 1:
            problems.append("n must be >= 1")
        if not 0.0 <= self.easy_medium_ratio <= 1.0:
            problems.append("easy_medium_ratio must be in [0, 1]")
        if self.output_dtype is not None and self.output_dtype not in DTYPES:
            problems.append(f"output_dtype must be F32, F16 or BF16, got {self.output_dtype!r}")
        preset = self.search.prompt_preset
        if preset not in PROMPT_PRESETS and "{QUESTION}" not in preset:
            problems.append(
                f"search.prompt_preset must name a preset ({', '.join(PROMPT_PRESETS)}) "
                f"or be a template holding {{QUESTION}}, got {preset!r}"
            )
        if self.search.selection_rule not in SELECTION_RULES:
            problems.append(f"unknown selection_rule {self.search.selection_rule!r}")
        if self.backend.kind not in ("mock", "http"):
            problems.append(f"backend.kind must be mock or http, got {self.backend.kind!r}")
        if self.backend.kind == "http" and not self.backend.url:
            problems.append("backend.url is required for the http backend")
        # The mock's perplexity, ppl_base + ppl_slope * d^2, must stay at least
        # 1: its score replies log-probabilities -log(perplexity), none above 0.
        mock = self.backend.mock
        if mock.ppl_base < 1:
            problems.append(f"backend.mock.ppl_base must be >= 1, got {mock.ppl_base}")
        if mock.ppl_slope < 0:
            problems.append(f"backend.mock.ppl_slope must be >= 0, got {mock.ppl_slope}")
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
        if self.search.temperature < 0:
            problems.append(f"search.temperature must be >= 0, got {self.search.temperature}")
        if self.search.max_tokens < 1:
            problems.append("search.max_tokens must be >= 1")
        if self.search.concurrency < 1:
            problems.append("search.concurrency must be >= 1")
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
    raw = read_json(path, "config")
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
        from .evaluator.http_backend import HttpBackend

        try:
            return HttpBackend(
                config.backend.url,
                max_attempts=config.backend.max_attempts,
                timeout=config.backend.timeout,
            )
        except ValueError as exc:
            raise ConfigError(f"invalid backend: {exc}") from exc
    mock = config.backend.mock
    landscape = quadratic_landscape(
        peak=tuple(mock.peak),
        falloff=float(mock.falloff),
        ppl_base=float(mock.ppl_base),
        ppl_slope=float(mock.ppl_slope),
    )
    aliases = None
    if mock.aliases is not None:
        aliases = {name: tuple(coeffs) for name, coeffs in mock.aliases.items()}
    return MockBackend(
        landscape, seed=mock.seed, aliases=aliases, query_jitter=float(mock.query_jitter)
    )


# --- workspace helpers -------------------------------------------------------------


def _read_json_object(path: Path, keys: set[str]) -> dict[str, Any]:
    """Read a JSON object holding exactly `keys` from a workspace file; a file
    that is missing, unreadable or shaped otherwise raises ConfigError naming it."""
    payload = read_json(path)
    if not isinstance(payload, dict):
        raise ConfigError(f"{path} must hold a JSON object")
    missing = sorted(keys - payload.keys())
    unexpected = sorted(payload.keys() - keys)
    if missing or unexpected:
        raise ConfigError(f"{path}: missing keys {missing}, unexpected keys {unexpected}")
    return payload


def _reuse(path: Path, settings: dict[str, Any], other_keys: set[str]) -> dict[str, Any]:
    """Read the stage file holding `settings` and `other_keys`; raise ConfigError on a mismatch."""
    stored = _read_json_object(path, settings.keys() | other_keys)
    for key, value in settings.items():
        if stored[key] != value:
            raise ConfigError(
                f"cannot resume: {path} was written with {key}={stored[key]!r}, "
                f"but this run has {key}={value!r}"
            )
    return stored


def _sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                digest.update(chunk)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    return digest.hexdigest()


class WorkspaceLock:
    """One pipeline per workspace: an exclusive `flock` on `.lock` held until exit,
    which the kernel drops if the holder dies. The pid in the file is for people."""

    def __init__(self, workspace: Path):
        self.path = workspace / LOCK_NAME

    def __enter__(self) -> "WorkspaceLock":
        self.path.parent.mkdir(parents=True, exist_ok=True)
        while True:
            fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o644)
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError:
                os.close(fd)
                raise PipelineLockedError(f"workspace locked by another run: {self.path}") from None
            # Only a holder unlinks the file, just before it unlocks; a lock on
            # an unlinked file guards nothing, so open the path anew.
            if os.fstat(fd).st_nlink:
                break
            os.close(fd)
        os.ftruncate(fd, 0)
        os.write(fd, str(os.getpid()).encode("ascii"))
        self._fd = fd
        return self

    def __exit__(self, *exc_info) -> None:
        # Unlink before closing, which unlocks: see `__enter__`.
        self.path.unlink(missing_ok=True)
        os.close(self._fd)


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
    def scoring_failures(self) -> Path:
        return self.stage1 / "scoring_failures.json"

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
    def search_settings(self) -> Path:
        return self.stage3 / "settings.json"

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


# --- stages --------------------------------------------------------------------------

_CHECKPOINTS = ("base", "sft", "rlvr")
_SELECT_DATA = (
    "seed", "m", "n", "difficulty_threshold", "easy_medium_ratio",
    "search.temperature", "search.max_tokens", "search.prompt_preset",
    "backend.kind", "backend.sft_ref", "backend.rlvr_ref", "backend.mock", "pool_sha256",
)
_TASK_VECTORS = ("retention_p", "epsilon", *(f"{label}_sha256" for label in _CHECKPOINTS))
# What each stage's files are built from, by the stage's name in `stage_seconds`:
# dotted config fields, and the sha256 of an input as `<label>_sha256`. Every
# other config field reaches no stage file, or is a change a resume honours.
_BUILT_FROM = {
    "select-data": _SELECT_DATA,
    "task-vectors": _TASK_VECTORS,
    # The trials score the selected queries on candidates merged from the
    # stage-2 archives, so the trial log is built from both stages' inputs.
    "search": (
        *_SELECT_DATA, *_TASK_VECTORS, "search.k", "search.space", "search.n_startup",
        "search.gamma_split", "search.n_candidates", "search.bandwidth_floor",
        "search.scalarize_ppl_weight",
        # A backend that loads weights scores candidates merged in this dtype.
        "output_dtype",
    ),
}


def _built_from(config: PipelineConfig, stage: str, digests: dict[str, str]) -> dict[str, Any]:
    """What `stage`'s files are built from, as read back from JSON: a pair is a list."""
    record = {
        key: digests[key.removesuffix("_sha256")]
        if key.endswith("_sha256")
        else functools.reduce(getattr, key.split("."), config)
        for key in _BUILT_FROM[stage]
    }
    return json.loads(json.dumps(record, default=asdict))


def _stage_select_data(
    config: PipelineConfig,
    paths: WorkspacePaths,
    backend: EvaluationBackend,
    pool: QueryPool,
    digests: dict[str, str],
    resume: bool,
) -> AdaptationSet:
    """Score the difficulty of the `pool` queries and write the adaptation
    set with the record of what it is built from; a resume reuses it only
    under the same record, and only if it selects distinct pool queries."""
    record = _built_from(config, "select-data", digests)
    if resume and paths.adaptation_set.exists() and paths.difficulty_records.exists():
        logger.info("reusing stage1 artifacts")
        stored = _reuse(paths.adaptation_set, record, {f.name for f in fields(AdaptationSet)})
        selected, ids = stored["selected"], {qid for qid, _ in pool.queries}
        if not (
            isinstance(selected, list)
            and all(isinstance(qid, str) and qid in ids for qid in selected)
            and 0 < len(set(selected)) == len(selected)
        ):
            raise ConfigError(
                f"{paths.adaptation_set}: selected must be a non-empty list of distinct "
                "ids of the pool's queries"
            )
        return AdaptationSet(**{f.name: stored[f.name] for f in fields(AdaptationSet)})
    paths.stage1.mkdir(parents=True, exist_ok=True)
    records, failures = score_difficulty(
        pool,
        backend,
        config.backend.sft_ref,
        config.backend.rlvr_ref,
        m=config.m,
        gen_params=config.gen_params(),
        seed=config.seed,
        concurrency=config.search.concurrency,
    )
    save_difficulty_records(records, paths.difficulty_records)
    if failures:
        atomic_write_text(paths.scoring_failures, json.dumps(failures, indent=2))
    else:
        paths.scoring_failures.unlink(missing_ok=True)
    selection = build_adaptation_set(
        records,
        m=config.m,
        n=config.n,
        seed=config.seed,
        threshold=config.difficulty_threshold,
        easy_ratio=config.easy_medium_ratio,
    )
    atomic_write_text(paths.adaptation_set, json.dumps({**asdict(selection), **record}, indent=2))
    return selection


def _checkpoint_digests(config: PipelineConfig) -> dict[str, str]:
    """The sha256 of each checkpoint, by label."""
    return {label: _sha256_file(getattr(config, f"{label}_path")) for label in _CHECKPOINTS}


def _stage_task_vectors(
    config: PipelineConfig, paths: WorkspacePaths, digests: dict[str, str], resume: bool
) -> dict:
    """Extract, prune, rescale and store both task vectors as F32 archives,
    and count their sign interference at retention_p. The summary records
    what the archives are built from, the sha256 `digests` of the three
    checkpoints among it, and a resume reuses them only under the same record.

    The interference is counted on the processed float64 values instead of
    sparsifying the raw ones again: a processed vector is the sparsified one
    times gamma >= 0 (0 only for an all-zero vector), or the raw vector at
    full retention, so signs and support are the same. A vector holding inf
    or NaN raises before either archive is renamed into place.
    """
    summary = _built_from(config, "task-vectors", digests)
    if (
        resume
        and paths.tau_sft.exists()
        and paths.tau_rlvr.exists()
        and paths.vector_summary.exists()
    ):
        logger.info("reusing stage2 artifacts")
        return _reuse(paths.vector_summary, summary, {"sft", "rlvr", "sign_interference"})
    paths.stage2.mkdir(parents=True, exist_ok=True)
    base = open_archive(config.base_path)
    finetuned = [open_archive(config.sft_path), open_archive(config.rlvr_path)]
    origins = [str(ft.path) for ft in finetuned]
    # At full retention the mask is the identity and no norm is lost, so the
    # raw vectors are stored: the rescale step (whose epsilon would perturb
    # gamma away from 1) is skipped.
    infos: list[SparsityInfo | None] = [None, None]
    scratch = Scratch(base.shapes.values())
    read = deltas(base, finetuned)
    if config.retention_p < 1.0:
        infos, vectors = prune_and_rescale(
            read,
            base.shapes,
            origins,
            config.retention_p,
            config.epsilon,
            scratch,
        )
    else:
        vectors = read()
    specs = [(name, "F32", base.entries[name].shape) for name in byte_sorted(base.entries)]
    norms = Norms(origins, scratch)
    conflicts = denominator = 0
    with contextlib.ExitStack() as stack:
        writers = [
            stack.enter_context(
                archive_writer(specs, out, vector_metadata(str(base.path), origin, info))
            )
            for origin, info, out in zip(origins, infos, (paths.tau_sft, paths.tau_rlvr))
        ]
        for name, processed in vectors:
            for i, values in enumerate(processed):
                norms.add(i, name, values)
                writers[i](values)
            opposite, support = opposite_signs(*processed, scratch)
            conflicts += int(np.count_nonzero(opposite))
            denominator += support
        norms.require_finite()
    for label, info, norm in zip(("sft", "rlvr"), infos, norms.norms()):
        entry = {"original_norm": norm, "processed_norm": norm}
        if info is not None:
            entry.update(
                original_norm=info.original_norm,
                threshold=info.threshold,
                retained_count=info.retained_count,
                gamma=info.rescale_gamma,
            )
        summary[label] = entry
    p = config.retention_p
    summary["sign_interference"] = asdict(InterferenceReport.of(p, p, conflicts, denominator))
    atomic_write_text(paths.vector_summary, json.dumps(summary, indent=2))
    return summary


def _stage2_merger(
    config: PipelineConfig, paths: WorkspacePaths
) -> Callable[[tuple[float, float], Path], None]:
    """Open the base archive and both stage-2 vectors; return a function
    that writes base + c_sft * tau_sft + c_rlvr * tau_rlvr to a path, reading
    the three archives one tensor at a time.

    The vectors come from the stage-2 archives (the canonical post-narrowing
    values), so search-time candidates and the final model are built from
    exactly the same data as any resumed run.
    """
    base = open_archive(config.base_path)
    tau_sft = StoredVector(paths.tau_sft)
    tau_rlvr = StoredVector(paths.tau_rlvr)

    def merge_to(coeffs: tuple[float, float], out_path: Path) -> None:
        merge(
            base,
            [(tau_sft, coeffs[0]), (tau_rlvr, coeffs[1])],
            out_path,
            out_dtype=config.output_dtype,
        )

    return merge_to


def make_merge_builder(
    config: PipelineConfig, paths: WorkspacePaths, backend: EvaluationBackend
) -> Callable[[tuple[float, float]], str]:
    """Candidate factory for the search: map a coefficient pair to a model ref.

    A backend that loads weights gets each candidate merged to one reusable
    path on disk, and that path as the ref. Any other backend gets an
    `encode_model_ref` coefficient ref, and nothing is merged or loaded.
    """
    if not backend.loads_weights:
        return lambda coeffs: encode_model_ref(*coeffs)
    merge_to = _stage2_merger(config, paths)
    paths.candidate.parent.mkdir(parents=True, exist_ok=True)

    def builder(coeffs: tuple[float, float]) -> str:
        merge_to(coeffs, paths.candidate)
        return str(paths.candidate)

    return builder


def _stage_search(
    config: PipelineConfig,
    paths: WorkspacePaths,
    backend: EvaluationBackend,
    selection: AdaptationSet,
    pool: QueryPool,
    digests: dict[str, str],
    resume: bool,
) -> tuple[tuple[float, float], str]:
    paths.stage3.mkdir(parents=True, exist_ok=True)
    if config.fixed_coefficients is not None:
        logger.info("fixed coefficients %s: skipping search", config.fixed_coefficients)
        payload = {"selection_rule": "fixed", "coefficients": list(config.fixed_coefficients)}
    else:
        record = _built_from(config, "search", digests)
        if resume and paths.trial_log.exists():
            _reuse(paths.search_settings, record, set())
        atomic_write_text(paths.search_settings, json.dumps(record, indent=2))
        texts = dict(pool.queries)
        result = run_search(
            merge_builder=make_merge_builder(config, paths, backend),
            backend=backend,
            queries=[(qid, texts[qid]) for qid in selection.selected],
            config=config.tpe_config(),
            space=config.search_space(),
            samples_per_query=config.search.k,
            gen_params=config.gen_params(),
            selection_rule=config.search.selection_rule,
            concurrency=config.search.concurrency,
            trial_log_path=paths.trial_log,
            resume=resume,
        )
        # The shared candidate file is transient scratch; drop it and its directory.
        shutil.rmtree(paths.candidate.parent, ignore_errors=True)
        payload = result.to_dict()
        payload["recipe"] = {
            "base_id": config.base_path,
            "terms": [
                {"task_vector_id": str(path), "coefficient": coeff}
                for path, coeff in zip((paths.tau_sft, paths.tau_rlvr), result.coefficients)
            ],
        }
    atomic_write_text(paths.search_result, json.dumps(payload, indent=2))
    return tuple(payload["coefficients"]), payload["selection_rule"]


def _stage_final_merge(
    config: PipelineConfig, paths: WorkspacePaths, coefficients: tuple[float, float]
) -> Path:
    _stage2_merger(config, paths)(coefficients, paths.merged_model)
    return paths.merged_model


# --- driver ---------------------------------------------------------------------------


@contextlib.contextmanager
def _open_workspace(config: PipelineConfig) -> Iterator[tuple[WorkspacePaths, EvaluationBackend]]:
    """Validate `config`, build its backend and lock its workspace; close the backend on exit."""
    config.validate()
    paths = WorkspacePaths(Path(config.workspace))
    backend = build_backend(config)
    try:
        with WorkspaceLock(paths.root):
            yield paths, backend
    finally:
        if config.backend.kind == "http":
            backend.close()


def select_data(config: PipelineConfig, resume: bool = False) -> AdaptationSet:
    """Run stage 1 alone: score query difficulty and write the adaptation set."""
    with _open_workspace(config) as (paths, backend):
        pool, pool_sha256 = load_query_pool(config.pool_path)
        return _stage_select_data(config, paths, backend, pool, {"pool": pool_sha256}, resume)


def run_pipeline(
    config: PipelineConfig, resume: bool = False, final_merge: bool = True
) -> RunReport:
    stage_seconds: dict[str, float] = {}

    def timed(stage: str, fn, *args):
        started = time.perf_counter()
        try:
            value = fn(*args)
        except TvfuseError as exc:
            raise StageError(stage, str(exc)) from exc
        stage_seconds[stage] = time.perf_counter() - started
        return value

    with _open_workspace(config) as (paths, backend):
        # The pool is read once: both stages get the queries its digest is of.
        pool, pool_sha256 = load_query_pool(config.pool_path)
        digests = {**_checkpoint_digests(config), "pool": pool_sha256}
        selection = timed(
            "select-data", _stage_select_data, config, paths, backend, pool, digests, resume
        )
        vector_summary = timed("task-vectors", _stage_task_vectors, config, paths, digests, resume)
        coefficients, selection_rule = timed(
            "search", _stage_search, config, paths, backend, selection, pool, digests, resume
        )
        final_path: Path | None = None
        if final_merge:
            final_path = timed("final-merge", _stage_final_merge, config, paths, coefficients)

        report = RunReport(
            tool_version=__version__,
            config=asdict(config),
            input_digests=digests,
            stage_seconds=stage_seconds,
            vector_summary=vector_summary,
            adaptation_manifest=asdict(selection),
            trial_log=str(paths.trial_log),
            coefficients=[float(c) for c in coefficients],
            selection_rule=selection_rule,
            final_model=str(final_path) if final_path else None,
        )
        atomic_write_text(paths.report, json.dumps(asdict(report), indent=2))
        return report


def load_report(workspace: str | Path) -> RunReport:
    """Read `report.json`; any unreadable or malformed report raises ConfigError."""
    path = WorkspacePaths(Path(workspace)).report
    report = RunReport(**_read_json_object(path, {f.name for f in fields(RunReport)}))
    # The embedded config snapshot must still fit the current schema and its
    # types; its paths need not exist any more.
    try:
        PipelineConfig.from_dict(report.config).check_types()
    except ConfigError as exc:
        raise ConfigError(f"report {path}: {exc}") from exc
    return report
