"""Task-vector extraction, sparsification, rescaling and linear merging.

A task vector is the elementwise difference between a post-trained
checkpoint and its base model. Pruning keeps only the top fraction of
entries by absolute magnitude, selected against a single global quantile
over all parameters; the pruned vector is then rescaled so its global L2
norm matches the original. There is one threshold algorithm: the exact k-th
largest magnitude, found by a partial sort over all entries.

All arithmetic runs in float64 and all cross-tensor reductions combine
per-tensor partials in byte-wise lexicographic tensor-name order, so
results are bitwise reproducible.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

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

DEFAULT_EPSILON = 1e-8

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


def sparsify(tv: TaskVector, p: float) -> TaskVector:
    """Zero all but the top-p fraction of entries by absolute magnitude."""
    original_norm = global_l2_norm(tv)
    threshold = quantile_threshold(tv, p)
    result = TaskVector(
        tensors=_apply_mask(tv, threshold, retained_target(p, tv.num_parameters)),
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


def rescale(tv_sparse: TaskVector, epsilon: float = DEFAULT_EPSILON) -> TaskVector:
    """Multiply every entry of a `sparsify` result by gamma = original_norm /
    (sparse_norm + epsilon), where original_norm is the unpruned vector's norm."""
    if tv_sparse.sparsity is None:
        raise ValueError("rescale needs the output of sparsify")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    original_norm = tv_sparse.sparsity.original_norm
    sparse_norm = global_l2_norm(tv_sparse)
    if sparse_norm == 0.0:
        warnings.warn(
            f"rescaling an all-zero sparse vector: gamma = {original_norm / epsilon:g}",
            DegenerateRescaleWarning,
            stacklevel=2,
        )
    gamma = original_norm / (sparse_norm + epsilon)
    return TaskVector(
        tensors={name: v * gamma for name, v in tv_sparse.tensors.items()},
        shapes=dict(tv_sparse.shapes),
        source_base_id=tv_sparse.source_base_id,
        source_ft_id=tv_sparse.source_ft_id,
        sparsity=replace(tv_sparse.sparsity, rescale_gamma=gamma, epsilon=epsilon),
    )


def sparsify_and_rescale(tv: TaskVector, p: float, epsilon: float = DEFAULT_EPSILON) -> TaskVector:
    """Pruning followed by norm restoration, as applied before merging."""
    return rescale(sparsify(tv, p), epsilon)


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


def save_task_vector(tv: TaskVector, path: str | Path, dtype: str = "F32") -> None:
    """Persist a task vector as a tensor archive with provenance metadata.

    The sparsity keys are written for provenance; `load_task_vector` does not
    read them back."""
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
    """Load the tensors and source ids of an archive written by `save_task_vector`."""
    arc = open_archive(path)
    tensors: dict[str, np.ndarray] = {}
    shapes: dict[str, tuple[int, ...]] = {}
    for name, data in iter_tensors(arc):
        tensors[name] = data.values
        shapes[name] = data.meta.shape
    return TaskVector(
        tensors=tensors,
        shapes=shapes,
        source_base_id=arc.metadata.get("source_base_id", ""),
        source_ft_id=arc.metadata.get("source_ft_id", ""),
    )
