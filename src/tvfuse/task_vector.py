"""Task-vector extraction, sparsification, rescaling and linear merging.

A task vector is the elementwise difference between a post-trained
checkpoint and its base model. Pruning (`sparsify`) keeps only the top
fraction of entries by absolute magnitude, selected against a single global
quantile over all parameters. `sparsify_and_rescale` is the one function
that prunes and then rescales the pruned vector so its global L2 norm
matches the original. There is one threshold algorithm: the exact k-th
largest magnitude, found for several ranks at once by a radix select over
the bits of |v| that streams the tensors in name order, and one tie rule.
A vector holding inf or NaN has no magnitude order and is rejected.

All arithmetic runs in float64 and all cross-tensor reductions combine
per-tensor partials in byte-wise lexicographic tensor-name order, so
results are bitwise reproducible.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Sequence

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
    NonFiniteVectorError,
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


@dataclass(frozen=True)
class Cut:
    """The exact k-th largest magnitude of a vector, k, and how many entries
    lie strictly above it."""

    threshold: float
    k: int
    count_above: int


# Non-negative doubles order like their bit patterns read as integers, so the
# select runs on each value's bits with the sign bit cleared.
_MAGNITUDE_BITS = np.int64(0x7FFF_FFFF_FFFF_FFFF)
_DIGIT_BITS = 16
_DIGIT_MASK = (1 << _DIGIT_BITS) - 1
# A top digit at or above this one has all exponent bits set: inf or NaN.
_NON_FINITE_DIGIT = 0x7FF0


def _magnitude_bits(values: np.ndarray) -> np.ndarray:
    return values.view(np.int64) & _MAGNITUDE_BITS


def require_finite(tv: TaskVector) -> None:
    """Raise NonFiniteVectorError naming the first tensor holding inf or NaN."""
    for name in tv.sorted_names():
        if not np.isfinite(tv.tensors[name]).all():
            origin = f" of {tv.source_ft_id}" if tv.source_ft_id else ""
            raise NonFiniteVectorError(f"tensor {name!r}{origin} holds inf or NaN")


class _Bucket(NamedTuple):
    """Where one rank stands in the select: among the `size` entries whose
    magnitude bits above bit `shift` equal `prefix`, it is the `rank`-th
    largest, and `above` entries lie in higher buckets."""

    shift: int
    prefix: int
    size: int
    rank: int
    above: int


def _descend(bucket: _Bucket, hist: np.ndarray) -> _Bucket:
    """Step into the next digit's bucket that holds the rank, given `hist`,
    the counts of that digit over `bucket`."""
    from_top = np.cumsum(hist[::-1])
    index = int(np.searchsorted(from_top, bucket.rank))
    digit = hist.size - 1 - index
    higher = int(from_top[index] - hist[digit])
    return _Bucket(
        shift=bucket.shift - _DIGIT_BITS,
        prefix=(bucket.prefix << _DIGIT_BITS) | digit,
        size=int(hist[digit]),
        rank=bucket.rank - higher,
        above=bucket.above + higher,
    )


def _bucket_members(tv: TaskVector, keys):
    """Per tensor in name order, per (shift, prefix) key: the magnitude bits
    whose bits above `shift` equal `prefix`."""
    for name in tv.sorted_names():
        bits = _magnitude_bits(tv.tensors[name])
        high: dict[int, np.ndarray] = {}
        for shift, prefix in keys:
            if shift not in high:
                high[shift] = bits >> shift
            yield (shift, prefix), bits[high[shift] == prefix]


def quantile_threshold(tv: TaskVector, retentions: Sequence[float]) -> list[Cut]:
    """One exact cut per retention p: the k-th largest magnitude, k = ceil(p*N).

    A radix select over the magnitude bits, one tensor at a time. Pass 1
    counts the top 16 bits of every entry in one 2^16-bin histogram that all
    ranks share, which places each rank in one bucket. A bucket holding more
    entries than the largest tensor is refined by the next 16-bit digit, one
    pass per digit, until it is small or its value is known (after 4 digits,
    or once the bits below the digit are 0 for all its entries), so a bucket
    of ties is never gathered. One last pass gathers each remaining bucket,
    which is then sorted. Memory is one tensor's temporaries, the counters
    and the gathered buckets, none larger than the largest tensor.
    """
    for p in retentions:
        if not 0.0 < p <= 1.0:
            raise ValueError(f"retention fraction must be in (0, 1], got {p}")
    total = tv.num_parameters
    if total == 0:
        raise EmptyVectorError("task vector has no parameters")
    names = tv.sorted_names()
    largest = max(tv.tensors[name].size for name in names)
    ranks = [retained_target(p, total) for p in retentions]

    hist = np.zeros(1 << _DIGIT_BITS, dtype=np.int64)
    for name in names:
        digits = _magnitude_bits(tv.tensors[name])
        digits >>= 64 - _DIGIT_BITS
        counts = np.bincount(digits)
        hist[: counts.size] += counts
    if hist[_NON_FINITE_DIGIT:].any():
        require_finite(tv)
    buckets = [_descend(_Bucket(64, 0, total, k, 0), hist) for k in ranks]

    while True:
        refine = {(b.shift, b.prefix) for b in buckets if b.shift > 0 and b.size > largest}
        if not refine:
            break
        hists = {key: np.zeros(1 << _DIGIT_BITS, dtype=np.int64) for key in refine}
        # OR of each bucket's bits below the digit counted: 0 means the digit
        # alone settles the value.
        rest = dict.fromkeys(refine, 0)
        for (shift, prefix), members in _bucket_members(tv, refine):
            low = shift - _DIGIT_BITS
            counts = np.bincount((members >> low) & _DIGIT_MASK)
            hists[shift, prefix][: counts.size] += counts
            rest[shift, prefix] |= int(np.bitwise_or.reduce(members & ((1 << low) - 1)))
        for i, bucket in enumerate(buckets):
            key = (bucket.shift, bucket.prefix)
            if key in refine:
                bucket = _descend(bucket, hists[key])
                if not rest[key]:
                    bucket = bucket._replace(shift=0, prefix=bucket.prefix << bucket.shift)
                buckets[i] = bucket

    gathered: dict[tuple[int, int], list[np.ndarray]] = {
        (b.shift, b.prefix): [] for b in buckets if b.shift > 0
    }
    if gathered:
        for key, members in _bucket_members(tv, gathered):
            gathered[key].append(members)
    for key, parts in gathered.items():
        values = np.concatenate(parts)
        values.sort()
        gathered[key] = values

    cuts = []
    for k, bucket in zip(ranks, buckets):
        bits, above = bucket.prefix, bucket.above
        if bucket.shift > 0:
            values = gathered[bucket.shift, bucket.prefix]
            bits = int(values[values.size - bucket.rank])
            above += values.size - int(np.searchsorted(values, bits, side="right"))
        cuts.append(Cut(float(np.int64(bits).view(np.float64)), k, above))
    return cuts


def keep_masks(tv: TaskVector, cuts: Sequence[Cut]):
    """Per tensor in name order: (name, one keep mask per cut).

    A cut keeps |v| > threshold, then the first k - count_above ties
    |v| == threshold in (name, flat index) order, so exactly k entries.
    """
    ties_left = [cut.k - cut.count_above for cut in cuts]
    for name in tv.sorted_names():
        magnitude = np.abs(tv.tensors[name])
        masks = []
        for i, cut in enumerate(cuts):
            mask = magnitude > cut.threshold
            if ties_left[i]:
                ties = np.flatnonzero(magnitude == cut.threshold)[: ties_left[i]]
                mask[ties] = True
                ties_left[i] -= ties.size
            masks.append(mask)
        yield name, masks


def sparsify(tv: TaskVector, p: float) -> TaskVector:
    """Zero all but the top-p fraction of entries by absolute magnitude."""
    original_norm = global_l2_norm(tv)
    (cut,) = quantile_threshold(tv, [p])
    result = TaskVector(
        tensors={name: np.where(mask, tv.tensors[name], 0.0) for name, (mask,) in keep_masks(tv, [cut])},
        shapes=dict(tv.shapes),
        source_base_id=tv.source_base_id,
        source_ft_id=tv.source_ft_id,
    )
    result.sparsity = SparsityInfo(
        retention_p=p,
        threshold=cut.threshold,
        retained_count=result.support_size(),
        original_norm=original_norm,
    )
    return result


def sparsify_and_rescale(tv: TaskVector, p: float, epsilon: float = DEFAULT_EPSILON) -> TaskVector:
    """`sparsify`, then multiply every entry by gamma = original_norm /
    (sparse_norm + epsilon), so the pruned vector keeps the unpruned norm.

    The multiply runs in place on the arrays `sparsify` allocated, never on
    `tv`'s own."""
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError("epsilon must be finite and positive")
    result = sparsify(tv, p)
    original_norm = result.sparsity.original_norm
    sparse_norm = global_l2_norm(result)
    if sparse_norm == 0.0:
        warnings.warn(
            f"rescaling an all-zero sparse vector: gamma = {original_norm / epsilon:g}",
            DegenerateRescaleWarning,
            stacklevel=2,
        )
    gamma = original_norm / (sparse_norm + epsilon)
    for values in result.tensors.values():
        values *= gamma
    result.sparsity.rescale_gamma = gamma
    result.sparsity.epsilon = epsilon
    return result


def merge(
    base: TensorArchive,
    terms: list[tuple[TaskVector, float]],
    out_path: str | Path,
    out_dtype: str | None = None,
) -> None:
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
