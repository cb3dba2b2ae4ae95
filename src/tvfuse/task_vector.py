"""Task-vector extraction, sparsification, rescaling and linear merging.

A task vector is the elementwise difference between a post-trained
checkpoint and its base model. Pruning keeps only the top fraction of
entries by absolute magnitude, selected against a single global quantile
over all parameters (a per-tensor scope exists for ablations); the pruned
vector is then rescaled so its global L2 norm matches the original. There
is one threshold algorithm: the exact k-th largest magnitude, found by a
partial sort over all entries.

All arithmetic runs in float64 and all cross-tensor reductions combine
per-tensor partials in byte-wise lexicographic tensor-name order, so
results are bitwise reproducible.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Literal

import numpy as np

from .archive import (
    TensorArchive,
    byte_sorted,
    iter_tensors,
    open_archive,
    read_tensor,
    write_archive,
)
from .errors import (
    DegenerateRescaleWarning,
    EmptyVectorError,
    NameSetMismatchError,
    ShapeMismatchError,
)

DEFAULT_RETENTION = 0.30
DEFAULT_EPSILON = 1e-8

QuantileScope = Literal["global", "per_tensor"]

# Slack absorbing the binary representation error of decimal retention
# fractions, so e.g. ceil(0.1 * 70) is 7 rather than 8.
_CEIL_SLACK = 1e-9


@dataclass
class SparsityInfo:
    """How a vector was pruned and (optionally) rescaled."""

    retention_p: float
    threshold: float
    retained_count: int
    original_norm: float
    rescale_gamma: float | None = None
    epsilon: float | None = None


@dataclass
class TaskVector:
    """Named flat float64 delta buffers plus provenance and sparsity state."""

    tensors: dict[str, np.ndarray]
    shapes: dict[str, tuple[int, ...]]
    source_base_id: str = ""
    source_ft_id: str = ""
    sparsity: SparsityInfo | None = None

    def sorted_names(self) -> list[str]:
        return byte_sorted(self.tensors)

    @property
    def num_parameters(self) -> int:
        return sum(v.size for v in self.tensors.values())

    def support_size(self) -> int:
        return int(sum(np.count_nonzero(v) for v in self.tensors.values()))


@dataclass
class MergeSpec:
    """Recipe for rebuilding a merged model: base plus weighted task vectors."""

    base_id: str
    terms: list[tuple[str, float]] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "base_id": self.base_id,
            "terms": [{"task_vector_id": t, "coefficient": c} for t, c in self.terms],
        }


def retained_target(retention_p: float, total: int) -> int:
    """ceil(retention_p * total) with decimal-fraction slack, clamped to [1, total]."""
    k = math.ceil(retention_p * total - _CEIL_SLACK)
    return min(max(k, 1), total)


def extract_task_vector(
    base: TensorArchive,
    finetuned: TensorArchive,
    *,
    allow_dtype_mismatch: bool = False,
) -> TaskVector:
    """Per-tensor finetuned - base, streamed one tensor at a time."""
    if set(base.entries) != set(finetuned.entries):
        missing = set(base.entries) ^ set(finetuned.entries)
        raise NameSetMismatchError(f"archives disagree on tensors: {sorted(missing)[:5]}")
    tensors: dict[str, np.ndarray] = {}
    shapes: dict[str, tuple[int, ...]] = {}
    for name in byte_sorted(base.entries):
        bm, fm = base.entries[name], finetuned.entries[name]
        if bm.shape != fm.shape:
            raise ShapeMismatchError(f"tensor {name!r}: {bm.shape} vs {fm.shape}")
        if bm.dtype != fm.dtype and not allow_dtype_mismatch:
            raise ShapeMismatchError(
                f"tensor {name!r}: dtype {bm.dtype} vs {fm.dtype} "
                "(pass allow_dtype_mismatch=True to override)"
            )
        tensors[name] = read_tensor(finetuned, name).values - read_tensor(base, name).values
        shapes[name] = bm.shape
    return TaskVector(
        tensors=tensors,
        shapes=shapes,
        source_base_id=str(base.path),
        source_ft_id=str(finetuned.path),
    )


def global_l2_norm(tv: TaskVector) -> float:
    """sqrt of the sum of squares over every parameter of every tensor."""
    total = 0.0
    for name in tv.sorted_names():
        v = tv.tensors[name]
        total += float(np.sum(np.square(v)))
    return math.sqrt(total)


def quantile_threshold(tv: TaskVector, p: float) -> float:
    """Magnitude t such that the top ceil(p*N) entries satisfy |value| >= t."""
    if not 0.0 < p <= 1.0:
        raise ValueError(f"retention fraction must be in (0, 1], got {p}")
    total = tv.num_parameters
    if total == 0:
        raise EmptyVectorError("task vector has no parameters")
    k = retained_target(p, total)
    magnitudes = np.concatenate([np.abs(tv.tensors[name]) for name in tv.sorted_names()])
    # k-th largest magnitude.
    return float(np.partition(magnitudes, total - k)[total - k])


def _apply_mask(tv: TaskVector, threshold: float, k: int) -> dict[str, np.ndarray]:
    """Keep |v| > threshold everywhere; admit ties in (name, flat index) order
    until exactly k entries are selected, dropping the latest ties first."""
    names = tv.sorted_names()
    count_gt = sum(int(np.count_nonzero(np.abs(tv.tensors[n]) > threshold)) for n in names)
    remaining_ties = k - count_gt
    out: dict[str, np.ndarray] = {}
    for name in names:
        v = tv.tensors[name]
        mask = np.abs(v) > threshold
        if remaining_ties > 0:
            tie_idx = np.flatnonzero(np.abs(v) == threshold)
            take = tie_idx[:remaining_ties]
            mask[take] = True
            remaining_ties -= take.size
        out[name] = np.where(mask, v, 0.0)
    return out


def sparsify(tv: TaskVector, p: float, scope: QuantileScope = "global") -> TaskVector:
    """Zero all but the top-p fraction of entries by absolute magnitude."""
    if not 0.0 < p <= 1.0:
        raise ValueError(f"retention fraction must be in (0, 1], got {p}")
    total = tv.num_parameters
    if total == 0:
        raise EmptyVectorError("task vector has no parameters")
    original_norm = global_l2_norm(tv)

    if scope == "per_tensor":
        out: dict[str, np.ndarray] = {}
        thresholds = [0.0]
        for name in tv.sorted_names():
            if tv.tensors[name].size == 0:
                out[name] = tv.tensors[name].copy()
                continue
            single = TaskVector(
                tensors={name: tv.tensors[name]}, shapes={name: tv.shapes[name]}
            )
            k_t = retained_target(p, single.num_parameters)
            t = quantile_threshold(single, p)
            out[name] = _apply_mask(single, t, k_t)[name]
            thresholds.append(t)
        threshold = max(thresholds)
    elif scope == "global":
        k = retained_target(p, total)
        threshold = quantile_threshold(tv, p)
        out = _apply_mask(tv, threshold, k)
    else:
        raise ValueError(f"unknown quantile scope {scope!r}")

    result = TaskVector(
        tensors=out,
        shapes=dict(tv.shapes),
        source_base_id=tv.source_base_id,
        source_ft_id=tv.source_ft_id,
    )
    result.sparsity = SparsityInfo(
        retention_p=p,
        threshold=threshold,
        retained_count=result.support_size(),
        original_norm=original_norm,
    )
    return result


def rescale(tv_sparse: TaskVector, original_norm: float, epsilon: float = DEFAULT_EPSILON) -> TaskVector:
    """Multiply every entry by gamma = original_norm / (sparse_norm + epsilon)."""
    if original_norm < 0:
        raise ValueError("original_norm must be non-negative")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    sparse_norm = global_l2_norm(tv_sparse)
    if sparse_norm == 0.0:
        warnings.warn(
            f"rescaling an all-zero sparse vector: gamma = {original_norm / epsilon:g}",
            DegenerateRescaleWarning,
            stacklevel=2,
        )
    gamma = original_norm / (sparse_norm + epsilon)
    tensors = {name: v * gamma for name, v in tv_sparse.tensors.items()}
    sparsity = tv_sparse.sparsity
    if sparsity is None:
        sparsity = SparsityInfo(
            retention_p=1.0,
            threshold=0.0,
            retained_count=tv_sparse.support_size(),
            original_norm=original_norm,
        )
    return TaskVector(
        tensors=tensors,
        shapes=dict(tv_sparse.shapes),
        source_base_id=tv_sparse.source_base_id,
        source_ft_id=tv_sparse.source_ft_id,
        sparsity=replace(sparsity, rescale_gamma=gamma, epsilon=epsilon),
    )


def sparsify_and_rescale(
    tv: TaskVector,
    p: float,
    epsilon: float = DEFAULT_EPSILON,
    scope: QuantileScope = "global",
) -> TaskVector:
    """Pruning followed by norm restoration, as applied before merging."""
    sparse = sparsify(tv, p, scope)
    return rescale(sparse, sparse.sparsity.original_norm, epsilon)


def merge(
    base: TensorArchive,
    terms: list[tuple[TaskVector, float]],
    out_path: str | Path,
    out_dtype: str | None = None,
) -> TensorArchive:
    """Write base + sum(coefficient * vector) narrowed to the output dtype.

    Streams one tensor at a time; the output dtype defaults to each base
    tensor's own storage dtype.
    """
    for tv, coeff in terms:
        if not math.isfinite(coeff):
            raise ValueError(f"non-finite merge coefficient {coeff}")
        if set(tv.tensors) != set(base.entries):
            raise NameSetMismatchError("task vector names do not match the base archive")
        for name, meta in base.entries.items():
            if tv.shapes[name] != meta.shape:
                raise ShapeMismatchError(
                    f"tensor {name!r}: vector shape {tv.shapes[name]} vs base {meta.shape}"
                )

    def combine(name: str) -> np.ndarray:
        acc = read_tensor(base, name).values
        for tv, coeff in terms:
            acc = acc + coeff * tv.tensors[name]
        return acc

    entries = [
        (
            name,
            out_dtype or base.entries[name].dtype,
            list(base.entries[name].shape),
            functools.partial(combine, name),
        )
        for name in byte_sorted(base.entries)
    ]
    write_archive(entries, out_path)
    return open_archive(out_path)


# --- persistence --------------------------------------------------------------

_META_FLOAT_KEYS = ("retention_p", "threshold", "gamma", "epsilon", "original_norm")


def save_task_vector(tv: TaskVector, path: str | Path, dtype: str = "F32") -> None:
    """Persist a task vector as a tensor archive with provenance metadata."""
    metadata = {
        "source_base_id": tv.source_base_id,
        "source_ft_id": tv.source_ft_id,
    }
    if tv.sparsity is not None:
        s = tv.sparsity
        metadata["retention_p"] = repr(s.retention_p)
        metadata["threshold"] = repr(s.threshold)
        metadata["original_norm"] = repr(s.original_norm)
        metadata["retained_count"] = str(s.retained_count)
        if s.rescale_gamma is not None:
            metadata["gamma"] = repr(s.rescale_gamma)
        if s.epsilon is not None:
            metadata["epsilon"] = repr(s.epsilon)
    entries = (
        (name, dtype, list(tv.shapes[name]), tv.tensors[name]) for name in tv.sorted_names()
    )
    write_archive(entries, path, metadata=metadata)


def load_task_vector(path: str | Path) -> TaskVector:
    """Load a task vector previously written by `save_task_vector`."""
    arc = open_archive(path)
    tensors: dict[str, np.ndarray] = {}
    shapes: dict[str, tuple[int, ...]] = {}
    for name, data in iter_tensors(arc):
        tensors[name] = data.values
        shapes[name] = data.meta.shape
    meta = arc.metadata
    sparsity = None
    if "retention_p" in meta:
        sparsity = SparsityInfo(
            retention_p=float(meta["retention_p"]),
            threshold=float(meta["threshold"]),
            retained_count=int(meta.get("retained_count", "0")),
            original_norm=float(meta["original_norm"]),
            rescale_gamma=float(meta["gamma"]) if "gamma" in meta else None,
            epsilon=float(meta["epsilon"]) if "epsilon" in meta else None,
        )
    return TaskVector(
        tensors=tensors,
        shapes=shapes,
        source_base_id=meta.get("source_base_id", ""),
        source_ft_id=meta.get("source_ft_id", ""),
        sparsity=sparsity,
    )
