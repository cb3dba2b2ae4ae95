"""Task-vector extraction, sparsification, rescaling and linear merging.

A task vector is the elementwise difference between a post-trained
checkpoint and its base model. A vector source (`VectorSource`) is a
resident `TaskVector` or a stored archive read block by block
(`StoredVector`). Every walk over vectors is a pass of a `Lockstep` reader,
which reads every vector it was made over, per tensor in byte-wise name
order, in blocks of at most `BLOCK` values cut at the leaves of numpy's
pairwise-sum tree (`blocks`): `lockstep(source)` over one source, and
`deltas` over ft - base of one base and several finetuned archives. A pass
opens each archive once and reads each block by a positional read, on the
calling thread: there is no read-ahead thread, since handing every block
to one would cost more than it overlaps. A consumer holds one block of
each vector at a time, so `merge`, stage 2 and the diagnostics over stored
vectors need memory bounded by one block, not by a tensor or the model.

Who owns the working memory: a job makes each reader once; the reader
allocates its buffers, each the size of the largest block, on the
calling thread, and every pass reuses their pages. The one rule: a yielded
array is borrowed until the next item; the buffers live as long as the
reader; a reader runs one pass at a time. A `Scratch` holds one stage's
magnitudes, squares, select keys and masks, and `merge` one accumulator
and one term buffer. What keeps every tensor (`extract_task_vector`,
`sparsify`, `sparsify_and_rescale`, `load_task_vector`) gets a new array
per tensor; all but `load_task_vector`, which reads each tensor whole,
build it from its blocks.

`prune_and_rescale` is the one prune-and-rescale implementation. Over
vectors read in lockstep, one block of each at a time, it keeps each
vector's top fraction of entries by absolute magnitude against one global
cut, and can rescale the pruned vector to its original global L2 norm.
Stage 2 runs it over `deltas`; `sparsify`, `sparsify_and_rescale` and
`tvfuse sparsify` over one source. There is one threshold algorithm, the
exact k-th largest magnitude found for several ranks at once by a radix
select over the bits of |v| (`RadixSelect`), fed one block at a time per
pass; and one tie rule (`KeepMasks`). The select settles a rank as soon as
it falls among the entries equal to its bucket's floor value, so a cut on a
value with a short significand (common among BF16 deltas) is found in one
pass. A vector holding inf or NaN has no magnitude order and is rejected.

All arithmetic runs in float64 and all cross-tensor reductions add
per-tensor `np.sum` partials (`square_sum`, folded from the blocks by
`TensorSum`) in byte-wise lexicographic tensor-name order, so results are
bitwise reproducible whatever the source.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .archive import (
    TensorArchive,
    archive_writer,
    byte_sorted,
    open_archive,
    read_blocks,
    read_tensor,
    write_archive,
)
from .blocks import BLOCK, Block, TensorSum, blocks
from .errors import (
    DegenerateRescaleWarning,
    EmptyVectorError,
    NameSetMismatchError,
    NonFiniteVectorError,
    ShapeMismatchError,
)

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
    source_base_id: str
    source_ft_id: str
    sparsity: SparsityInfo | None = None

    def blocks(self, out: np.ndarray | None) -> Iterator[tuple[Block, np.ndarray]]:
        """Views of its own arrays, block by block; `out` is ignored."""
        for name in byte_sorted(self.shapes):
            values = self.tensors[name]
            for block in blocks(name, values.size):
                yield block, values[block.start : block.stop]


class StoredVector:
    """A vector archive, as `save_task_vector` writes it, read block by block.
    It is the one reader of vector archives."""

    def __init__(self, path: str | Path):
        self.archive = open_archive(path)
        self.shapes = self.archive.shapes
        self.source_base_id = self.archive.metadata.get("source_base_id", "")
        self.source_ft_id = self.archive.metadata.get("source_ft_id", "")

    def blocks(self, out: np.ndarray | None) -> Iterator[tuple[Block, np.ndarray]]:
        return read_blocks(self.archive, out)


# A task vector as float64 arrays: `shapes` names its tensors, and
# `blocks(out)` runs one pass that yields per tensor in byte-wise name order
# each of its blocks and the block's values. A stored vector reads them into
# `out`, a flat float64 array at least as large as its largest block
# (`largest_block`), and yields views of it; a resident one yields views of
# its own arrays and takes None.
VectorSource = TaskVector | StoredVector

# Reads several vectors in lockstep: each call runs one pass that yields per
# tensor in name order each of its blocks and one array of the block's values
# per vector, under the module docstring's buffer rule.
Lockstep = Callable[[], Iterator[tuple[Block, list[np.ndarray]]]]


def largest_block(shapes: Iterable[tuple[int, ...]]) -> int:
    """The number of values of the largest block of tensors of `shapes`: at
    most `BLOCK`, 0 if none."""
    return min(BLOCK, max((math.prod(shape) for shape in shapes), default=0))


class Scratch:
    """The working arrays of one streamed job, each the size of its largest
    block, allocated on the thread that makes it: every block reuses the
    same pages instead of faulting in fresh ones. Each user takes prefix
    views and is done with them before the next user takes them.

    - `floats` and `ints`, two views of one array: magnitudes (`KeepMasks`)
      and squares (`Norms`); the select's digit keys (`RadixSelect`) and a
      mask pass's keep bits (`prune_and_rescale`);
    - `flags`: two boolean rows, for ties (`KeepMasks`), the select's
      lower-bits flags and sign conflicts (`diagnostics.opposite_signs`).
    """

    def __init__(self, shapes: Iterable[tuple[int, ...]]):
        size = largest_block(shapes)
        self.floats = np.empty(size)
        self.ints = self.floats.view(np.int64)
        self.flags = np.empty((2, size), dtype=bool)


def retained_target(retention_p: float, total: int) -> int:
    """ceil(retention_p * total) with decimal-fraction slack, clamped to [1, total]."""
    k = math.ceil(retention_p * total - _CEIL_SLACK)
    return min(max(k, 1), total)


def require_matching(shapes: dict[str, tuple[int, ...]], other: dict[str, tuple[int, ...]]) -> None:
    """Raise unless two sets of tensors agree on their names and, name by
    name in byte-wise order, on their shapes."""
    if shapes.keys() != other.keys():
        differing = byte_sorted(shapes.keys() ^ other.keys())
        raise NameSetMismatchError(f"tensor names differ: {differing[:5]}")
    for name in byte_sorted(shapes):
        if shapes[name] != other[name]:
            raise ShapeMismatchError(f"tensor {name!r}: shape {shapes[name]} vs {other[name]}")


def deltas(
    base: TensorArchive,
    finetuned: Sequence[TensorArchive],
    *,
    allow_dtype_mismatch: bool = False,
) -> Lockstep:
    """The `Lockstep` reader of ft - base for each finetuned archive: a pass
    yields per tensor in byte-wise name order each block and one float64
    delta per archive, opening each archive once and reading each block
    once. Names, shapes and dtypes are checked before any read.

    The reader owns a base buffer and one delta buffer per finetuned
    archive, each the size of the largest block and allocated here; every
    pass reads into them. An item's arrays are the caller's to overwrite
    until it asks for the next item."""
    for ft in finetuned:
        require_matching(base.shapes, ft.shapes)
        for name in byte_sorted(base.entries):
            bm, fm = base.entries[name], ft.entries[name]
            if bm.dtype != fm.dtype and not allow_dtype_mismatch:
                raise ShapeMismatchError(
                    f"tensor {name!r}: dtype {bm.dtype} vs {fm.dtype} "
                    "(pass allow_dtype_mismatch=True to override)"
                )

    size = largest_block(base.shapes.values())
    base_buffer = np.empty(size)
    buffers = [np.empty(size) for _ in finetuned]

    def read() -> Iterator[tuple[Block, list[np.ndarray]]]:
        passes = [read_blocks(base, base_buffer)]
        passes += [read_blocks(ft, buffer) for ft, buffer in zip(finetuned, buffers)]
        try:
            for (block, base_values), *items in zip(*passes):
                vectors = [values for _, values in items]
                for values in vectors:
                    values -= base_values
                yield block, vectors
        finally:
            for archive_pass in passes:
                archive_pass.close()

    return read


def lockstep(source: VectorSource) -> Lockstep:
    """The `Lockstep` reader of one vector. A stored vector is read into one
    buffer the size of its largest block, allocated here; a resident one
    yields views of its own arrays."""
    buffer = None if isinstance(source, TaskVector) else np.empty(largest_block(source.shapes.values()))

    def read() -> Iterator[tuple[Block, list[np.ndarray]]]:
        for block, values in source.blocks(buffer):
            yield block, [values]

    return read


def resident(items: Iterable[tuple[Block, np.ndarray]]) -> dict[str, np.ndarray]:
    """Per tensor, a new flat array built from its blocks' values."""
    tensors: dict[str, np.ndarray] = {}
    for block, values in items:
        if block.start == 0:
            tensors[block.name] = np.empty(block.size)
        tensors[block.name][block.start : block.stop] = values
    return tensors


def extract_task_vector(base: TensorArchive, finetuned: TensorArchive) -> TaskVector:
    """Per-tensor finetuned - base, read one block at a time."""
    tensors = resident((block, delta) for block, (delta,) in deltas(base, [finetuned])())
    return TaskVector(
        tensors=tensors,
        shapes={name: base.entries[name].shape for name in tensors},
        source_base_id=str(base.path),
        source_ft_id=str(finetuned.path),
    )


def square_sum(values: np.ndarray, out: np.ndarray | None = None) -> float:
    """One block's partial of a squared L2 norm: a tensor's partial is its
    blocks' folded by `TensorSum`, and a vector's partials add up in
    byte-wise name order. The squares go to `out` when it is given."""
    return float(np.sum(np.square(values, out=out)))


def global_l2_norm(source: VectorSource, partials: dict[str, float]) -> float:
    """sqrt of the sum of squares over every parameter of every tensor;
    `partials` receives each tensor's sum of squares by name, with the bits
    of one `square_sum` over the whole tensor."""
    total = 0.0
    tensor_sum = TensorSum()
    for block, (values,) in lockstep(source)():
        partial = tensor_sum.add(block, square_sum(values))
        if partial is not None:
            partials[block.name] = partial
            total += partial
    return math.sqrt(total)


def non_finite(name: str, source_ft_id: str) -> NonFiniteVectorError:
    """The error for a vector whose tensor `name` holds inf or NaN."""
    origin = f" of {source_ft_id}" if source_ft_id else ""
    return NonFiniteVectorError(f"tensor {name!r}{origin} holds inf or NaN")


def require_finite(source: VectorSource) -> None:
    """Raise NonFiniteVectorError naming the first tensor holding inf or NaN."""
    for block, (values,) in lockstep(source)():
        if not np.isfinite(values).all():
            raise non_finite(block.name, source.source_ft_id)


class Norms:
    """Several vectors' L2 norms, from per-tensor partials added in name
    order, and each one's first tensor holding inf or NaN; fed one block of
    each vector at a time."""

    def __init__(self, origins: Sequence[str], scratch: Scratch):
        self.origins = list(origins)
        self.squares = [0.0] * len(self.origins)
        self.first_bad: list[str | None] = [None] * len(self.origins)
        self.sums = [TensorSum() for _ in self.origins]
        self.scratch = scratch

    def add(self, i: int, block: Block, values: np.ndarray) -> None:
        partial = square_sum(values, out=self.scratch.floats[: values.size])
        # Finite squares can overflow too, so only then look for inf or NaN.
        if not math.isfinite(partial) and self.first_bad[i] is None:
            if not np.isfinite(values).all():
                self.first_bad[i] = block.name
        tensor_partial = self.sums[i].add(block, partial)
        if tensor_partial is not None:
            self.squares[i] += tensor_partial

    def require_finite(self) -> None:
        """Raise for the first vector, in index order, that holds inf or NaN."""
        for origin, name in zip(self.origins, self.first_bad):
            if name is not None:
                raise non_finite(name, origin)

    def norms(self) -> list[float]:
        return [math.sqrt(square) for square in self.squares]


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
# The bucket of every entry, whose members are all the magnitude bits.
_ROOT = (64, 0)


class _Bucket(NamedTuple):
    """Where one rank stands in the select: among the `size` entries whose
    magnitude bits above bit `shift` equal `prefix`, it is the `rank`-th
    largest, and `above` entries lie in higher buckets. A settled bucket has
    shift 0: its prefix is the cut's bits."""

    shift: int
    prefix: int
    size: int
    rank: int
    above: int


def _tally(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """From a bucket's `_count` counters, per digit: the members whose bits
    below the digit are all 0, all the members, and (from the top digit
    down) the running total of members."""
    floors = counts[:, 0]
    hist = floors + counts[:, 1]
    return floors, hist, np.cumsum(hist[::-1])


def _descend(
    bucket: _Bucket, floors: np.ndarray, hist: np.ndarray, from_top: np.ndarray
) -> _Bucket:
    """Step into the next digit's bucket that holds the rank, given the
    `_tally` of that digit over `bucket`. A rank that falls among the entries
    whose bits below the digit are all 0, the smallest of the bucket,
    settles on that floor value, above all the bucket's other members."""
    index = int(np.searchsorted(from_top, bucket.rank))
    digit = hist.size - 1 - index
    higher = int(from_top[index] - hist[digit])
    shift = bucket.shift - _DIGIT_BITS
    prefix = (bucket.prefix << _DIGIT_BITS) | digit
    size, rank, above = int(hist[digit]), bucket.rank - higher, bucket.above + higher
    over_floor = size - int(floors[digit])
    if rank > over_floor:
        return _Bucket(0, prefix << shift, size - over_floor, rank - over_floor, above + over_floor)
    return _Bucket(shift, prefix, size, rank, above)


def _count(
    members: np.ndarray, low: int, mask: int, counts: np.ndarray, scratch: Scratch
) -> None:
    """Add to `counts[digit, below]` each member's digit `(member >> low) &
    mask`, with `below` 0 when its bits below `low` are all 0, else 1. The
    keys are built in `scratch`, which `members` must not lie in."""
    key = scratch.ints[: members.size]
    if low:
        below = scratch.flags[0, : members.size]
        # Shifting out every bit from `low` up, the sign bit included, leaves the bits below.
        np.left_shift(members, 64 - low, out=key)
        np.not_equal(key, 0, out=below)
        np.right_shift(members, low - 1, out=key)
        key &= mask << 1
        key |= below
    else:
        np.bitwise_and(members, mask, out=key)
        key <<= 1
    added = np.bincount(key)
    counts.reshape(-1)[: added.size] += added


class RadixSelect:
    """One exact cut per retention p, the k-th largest magnitude with
    k = ceil(p*N), for a vector of tensors of `shapes` fed one block at a
    time, in name order, one pass over the vector at a time (`_run_selects`).

    Pass 1 counts the top 16 bits of every entry's magnitude bits in one
    2^16-bin histogram that all ranks share, which places each rank in one
    bucket; it also counts, per digit, the entries whose lower bits are all
    0, so a rank that falls among the entries equal to its bucket's floor
    value settles at once. A bucket holding more entries than the largest
    block is refined by the next 16-bit digit the same way, one pass per
    digit, until it settles or fits in one block (it settles after 4
    digits), so a bucket of ties is never gathered. One last pass gathers
    each remaining bucket, which is then sorted. Memory is the counters, one
    block's temporaries and the gathered buckets, none larger than the
    largest block.
    """

    def __init__(
        self, shapes: Iterable[tuple[int, ...]], retentions: Sequence[float], scratch: Scratch
    ):
        shapes = list(shapes)
        total = sum(math.prod(shape) for shape in shapes)
        if total == 0:
            raise EmptyVectorError("task vector has no parameters")
        self.largest = largest_block(shapes)
        self.ranks = [retained_target(p, total) for p in retentions]
        self.non_finite = False
        self.scratch = scratch
        self._buckets = [_Bucket(*_ROOT, total, k, 0) for k in self.ranks]
        # Per bucket key (shift, prefix) being refined this pass: its `_count`
        # counters; per key being gathered: the members.
        self._counting = {_ROOT: self._counters()}
        self._gathering: dict[tuple[int, int], list[np.ndarray]] = {}

    @staticmethod
    def _counters() -> np.ndarray:
        return np.zeros((1 << _DIGIT_BITS, 2), dtype=np.int64)

    @property
    def done(self) -> bool:
        return not (self._counting or self._gathering)

    def feed(self, values: np.ndarray) -> None:
        """Count or gather one block's entries for the current pass."""
        raw = values.view(np.int64)
        if _ROOT in self._counting:
            # Pass 1 counts the root alone, whose members are every entry; its
            # digit, bits 48 to 62, leaves out the sign bit.
            _count(raw, 64 - _DIGIT_BITS, _DIGIT_MASK >> 1, self._counting[_ROOT], self.scratch)
            return
        bits = raw & _MAGNITUDE_BITS
        high: dict[int, np.ndarray] = {}

        def members(shift: int, prefix: int) -> np.ndarray:
            if shift not in high:
                high[shift] = bits >> shift
            return bits[high[shift] == prefix]

        for (shift, prefix), counts in self._counting.items():
            _count(members(shift, prefix), shift - _DIGIT_BITS, _DIGIT_MASK, counts, self.scratch)
        for key, parts in self._gathering.items():
            parts.append(members(*key))

    def end_pass(self) -> None:
        """Place each rank by the pass just fed, and plan the next pass."""
        if _ROOT in self._counting:
            self.non_finite = bool(self._counting[_ROOT][_NON_FINITE_DIGIT:].any())
        tallies = {key: _tally(counts) for key, counts in self._counting.items()}
        gathered = {key: np.sort(np.concatenate(parts)) for key, parts in self._gathering.items()}
        for i, bucket in enumerate(self._buckets):
            key = (bucket.shift, bucket.prefix)
            if key in tallies:
                self._buckets[i] = _descend(bucket, *tallies[key])
            elif key in gathered:
                values = gathered[key]
                bits = int(values[values.size - bucket.rank])
                above = values.size - int(np.searchsorted(values, bits, side="right"))
                self._buckets[i] = _Bucket(0, bits, 0, 0, bucket.above + above)
        unsettled = [b for b in self._buckets if b.shift > 0]
        large = {(b.shift, b.prefix) for b in unsettled if b.size > self.largest}
        self._counting = {key: self._counters() for key in large}
        self._gathering = {} if large else {(b.shift, b.prefix): [] for b in unsettled}

    def cuts(self) -> list[Cut]:
        return [
            Cut(float(np.int64(bucket.prefix).view(np.float64)), k, bucket.above)
            for k, bucket in zip(self.ranks, self._buckets)
        ]


def _run_selects(
    read: Lockstep,
    selects: Sequence[RadixSelect],
    first_pass: Callable[[int, Block, np.ndarray], None] | None,
    require_finite: Callable[[], None],
) -> None:
    """Run one select per vector `read` yields until each is done. Pass 1
    also hands each block to `first_pass(i, block, values)`, and then calls
    `require_finite()`, which raises, if a vector holds inf or NaN; every
    pass reads every vector, and later passes feed only the selects still
    pending."""
    pending = list(range(len(selects)))
    while pending:
        for block, vectors in read():
            for i in pending:
                values = vectors[i]
                if first_pass is not None:
                    first_pass(i, block, values)
                selects[i].feed(values)
        for i in pending:
            selects[i].end_pass()
        if any(select.non_finite for select in selects):
            require_finite()
        first_pass = None
        pending = [i for i in pending if not selects[i].done]


def quantile_threshold(source: VectorSource, retentions: Sequence[float]) -> list[Cut]:
    """One exact cut per retention p by `RadixSelect`, reading `source` once
    per pass. A vector holding inf or NaN raises NonFiniteVectorError."""
    select = RadixSelect(source.shapes.values(), retentions, Scratch(source.shapes.values()))
    _run_selects(lockstep(source), [select], None, lambda: require_finite(source))
    return select.cuts()


class KeepMasks:
    """The one tie rule, fed one block at a time in name order: a cut keeps
    |v| > threshold, then the first k - count_above ties |v| == threshold in
    (name, flat index) order, so exactly k entries."""

    def __init__(self, cuts: Sequence[Cut], scratch: Scratch):
        self.cuts = list(cuts)
        self.ties_left = [cut.k - cut.count_above for cut in cuts]
        self.scratch = scratch
        self.masks = np.empty((len(self.cuts), scratch.floats.size), dtype=bool)

    def __call__(self, values: np.ndarray) -> list[np.ndarray]:
        """One keep mask per cut for the next block's values, valid until
        the next call."""
        n = values.size
        magnitude = np.abs(values, out=self.scratch.floats[:n])
        masks = []
        for i, cut in enumerate(self.cuts):
            mask = np.greater(magnitude, cut.threshold, out=self.masks[i, :n])
            if self.ties_left[i]:
                ties = np.equal(magnitude, cut.threshold, out=self.scratch.flags[0, :n])
                count = int(np.count_nonzero(ties))
                if count <= self.ties_left[i]:
                    mask |= ties
                    self.ties_left[i] -= count
                else:
                    # The ties run out inside this block.
                    mask[np.flatnonzero(ties)[: self.ties_left[i]]] = True
                    self.ties_left[i] = 0
            masks.append(mask)
        return masks


def keep_masks(source: VectorSource, cuts: Sequence[Cut], scratch: Scratch):
    """Per block in name order: (block, values, one keep mask per cut), the
    values and masks valid until the next block."""
    keep = KeepMasks(cuts, scratch)
    for block, (values,) in lockstep(source)():
        yield block, values, keep(values)


def rescale_gamma(original_norm: float, sparse_norm: float, epsilon: float) -> float:
    """gamma = original_norm / (sparse_norm + epsilon), warning when the
    pruned vector is all zeros."""
    if sparse_norm == 0.0:
        warnings.warn(
            f"rescaling an all-zero sparse vector: gamma = {original_norm / epsilon:g}",
            DegenerateRescaleWarning,
            stacklevel=3,
        )
    return original_norm / (sparse_norm + epsilon)


def prune_and_rescale(
    read: Lockstep,
    shapes: dict[str, tuple[int, ...]],
    origins: Sequence[str],
    retention_p: float,
    epsilon: float | None,
    scratch: Scratch,
    *,
    keep: bool = False,
) -> tuple[list[SparsityInfo], Iterator[tuple[Block, list[np.ndarray]]]]:
    """Prune each vector `read` yields over tensors of `shapes` to its top
    retention_p fraction by magnitude and, unless `epsilon` is None, rescale
    it by `rescale_gamma`. Return each one's sparsity (`origins` name them in
    errors) and the last pass, which yields as `read` does. Pass 1 adds up
    the norms, checks finiteness and feeds the selects; further select passes
    read every vector and feed only the selects still pending; a mask pass
    gives gamma. Every pass works in `scratch`.

    Unless `keep`, the mask passes mask in place the arrays `read` yields,
    which must be theirs to overwrite (borrowed from `deltas`, or from
    `lockstep` of a stored vector), and the last pass yields them. A caller
    that reads a resident vector passes `keep`, and each pruned block goes
    to a buffer per vector the size of `scratch`'s, owned by the call."""
    selects = [RadixSelect(shapes.values(), [retention_p], scratch) for _ in origins]
    norms = Norms(origins, scratch)
    _run_selects(read, selects, norms.add, norms.require_finite)
    cuts = [select.cuts()[0] for select in selects]
    # A cut above 0 keeps k non-zero entries; a cut at 0 keeps the entries
    # above it and zeros.
    infos = [
        SparsityInfo(
            retention_p, cut.threshold, cut.k if cut.threshold > 0 else cut.count_above, norm
        )
        for cut, norm in zip(cuts, norms.norms())
    ]

    outputs = [np.empty_like(scratch.floats) for _ in origins] if keep else None

    def masked(gammas: Sequence[float] | None) -> Iterator[tuple[Block, list[np.ndarray]]]:
        masks = [KeepMasks([cut], scratch) for cut in cuts]
        for block, vectors in read():
            for i, keep_mask in enumerate(masks):
                values = vectors[i]
                (mask,) = keep_mask(values)
                # A dropped entry's bits AND 0 to +0.0; a kept one's AND -1.
                bits = np.negative(mask.view(np.int8), out=scratch.ints[: values.size])
                pruned = values if outputs is None else outputs[i][: values.size]
                np.bitwise_and(bits, values.view(np.int64), out=pruned.view(np.int64))
                if gammas is not None:
                    pruned *= gammas[i]
                # Replaced in the list, so no raw block outlives its masking.
                vectors[i] = pruned
            yield block, vectors

    if epsilon is None:
        return infos, masked(None)
    pruned = Norms(origins, scratch)
    for block, vectors in masked(None):
        for i, values in enumerate(vectors):
            pruned.add(i, block, values)
    for info, sparse_norm in zip(infos, pruned.norms()):
        info.rescale_gamma = rescale_gamma(info.original_norm, sparse_norm, epsilon)
        info.epsilon = epsilon
    return infos, masked([info.rescale_gamma for info in infos])


def sparsify(source: VectorSource, p: float) -> TaskVector:
    """Zero all but the top-p fraction of entries by absolute magnitude."""
    return sparsify_and_rescale(source, p, None)


def sparsify_and_rescale(source: VectorSource, p: float, epsilon: float | None) -> TaskVector:
    """`sparsify`, then multiply every entry by `rescale_gamma`, so the pruned
    vector keeps the unpruned norm; `epsilon` None skips the rescale."""
    if epsilon is not None and not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError("epsilon must be finite and positive")
    (info,), vectors = prune_and_rescale(
        lockstep(source),
        source.shapes,
        [source.source_ft_id],
        p,
        epsilon,
        Scratch(source.shapes.values()),
        keep=True,
    )
    return TaskVector(
        tensors=resident((block, values) for block, (values,) in vectors),
        shapes=dict(source.shapes),
        source_base_id=source.source_base_id,
        source_ft_id=source.source_ft_id,
        sparsity=info,
    )


def merge(
    base: TensorArchive,
    terms: list[tuple[VectorSource, float]],
    out_path: str | Path,
    out_dtype: str | None,
) -> None:
    """Write base + sum(coefficient * vector) narrowed to the output dtype.

    Reads the base and every vector in one lockstep pass, one block at a
    time, into one accumulator and one term buffer the size of the largest
    block, freed when the call ends, so with stored vectors it holds a few
    blocks' worth; an `out_dtype` of None keeps each base tensor's own
    storage dtype.
    """
    for source, _ in terms:
        require_matching(base.shapes, source.shapes)

    size = largest_block(base.shapes.values())
    acc_buffer, term_buffer = np.empty(size), np.empty(size)
    readers = [lockstep(source) for source, _ in terms]

    def combined() -> Iterator[tuple[Block, np.ndarray]]:
        passes = [read_blocks(base, acc_buffer), *(read() for read in readers)]
        try:
            for (block, acc), *items in zip(*passes):
                term = term_buffer[: acc.size]
                for (_, (values,)), (_, coeff) in zip(items, terms):
                    # The same bits as `acc + coeff * v`: IEEE products commute.
                    acc += np.multiply(values, coeff, out=term)
                yield block, acc
        finally:
            for each in passes:
                each.close()

    # `write_archive` writes each combined block before it combines the next,
    # taking the tensors' blocks one tensor at a time.
    tensors = itertools.groupby(combined(), key=lambda item: item[0].name)

    def next_tensor() -> Iterator[np.ndarray]:
        _, items = next(tensors)
        return (acc for _, acc in items)

    entries = [
        (name, out_dtype or base.entries[name].dtype, list(base.entries[name].shape), next_tensor)
        for name in byte_sorted(base.entries)
    ]
    write_archive(entries, out_path)


# --- persistence --------------------------------------------------------------


def vector_metadata(
    source_base_id: str, source_ft_id: str, sparsity: SparsityInfo | None
) -> dict[str, str]:
    """The provenance metadata of a stored vector. The sparsity keys are
    written for people; `StoredVector` does not read them back."""
    metadata = {"source_base_id": source_base_id, "source_ft_id": source_ft_id}
    if sparsity is not None:
        s = sparsity
        metadata["retention_p"] = repr(s.retention_p)
        metadata["threshold"] = repr(s.threshold)
        metadata["original_norm"] = repr(s.original_norm)
        metadata["retained_count"] = str(s.retained_count)
        if s.rescale_gamma is not None:
            metadata["gamma"] = repr(s.rescale_gamma)
        if s.epsilon is not None:
            metadata["epsilon"] = repr(s.epsilon)
    return metadata


def write_vector(
    path: str | Path,
    shapes: dict[str, tuple[int, ...]],
    vector: Iterable[tuple[Block, list[np.ndarray]]],
    metadata: dict[str, str],
    dtype: str = "F32",
) -> None:
    """Write one vector, yielded block by block in name order as a
    `Lockstep` reader yields it, to an archive."""
    specs = [(name, dtype, shapes[name]) for name in byte_sorted(shapes)]
    with archive_writer(specs, path, metadata) as write:
        for _, (values,) in vector:
            write(values)


def save_task_vector(tv: TaskVector, path: str | Path) -> None:
    """Persist a task vector as an F32 tensor archive with `vector_metadata`."""
    metadata = vector_metadata(tv.source_base_id, tv.source_ft_id, tv.sparsity)
    write_vector(path, tv.shapes, lockstep(tv)(), metadata)


def load_task_vector(path: str | Path) -> TaskVector:
    """A resident copy of the archive `save_task_vector` wrote, opened as a
    `StoredVector` and read whole, a new array per tensor."""
    stored = StoredVector(path)
    names = byte_sorted(stored.shapes)
    return TaskVector(
        tensors={name: read_tensor(stored.archive, name, out=None).values for name in names},
        shapes=stored.shapes,
        source_base_id=stored.source_base_id,
        source_ft_id=stored.source_ft_id,
    )
