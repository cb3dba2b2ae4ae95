"""Independent reference implementations used as test oracles.

Everything here is deliberately written with a different technique than the
library (exact rational arithmetic, full sorts, O(n^2) scans) so the two
sides cannot share a bug.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from fractions import Fraction
from pathlib import Path

import numpy as np

from tvfuse.archive import open_archive
from tvfuse.floats import f64_to_bf16_bits

# --- exact round-to-nearest-even into a small binary format -----------------

_FORMATS = {
    # precision (significand bits incl. implicit), min normal exponent, max exponent
    "BF16": (8, -126, 127),
    "F16": (11, -14, 15),
    "F32": (24, -126, 127),
}


def round_to_format(x: float, fmt: str) -> float:
    """Correctly rounded conversion of a float64 to BF16/F16/F32, ties to even.

    Uses Fraction arithmetic throughout; the only float operations are the
    exact decompositions of the input.
    """
    precision, emin, emax = _FORMATS[fmt]
    if math.isnan(x):
        return math.nan
    if math.isinf(x) or x == 0.0:
        return x
    sign = -1.0 if math.copysign(1.0, x) < 0 else 1.0
    frac = Fraction(abs(x))

    mantissa, exp2 = math.frexp(abs(x))
    binade = exp2 - 1  # 2**binade <= |x| < 2**(binade + 1)
    ulp_exp = max(binade - (precision - 1), emin - (precision - 1))
    step = Fraction(2) ** ulp_exp

    quotient = frac / step
    floor = quotient.numerator // quotient.denominator
    remainder = quotient - floor
    if remainder > Fraction(1, 2) or (remainder == Fraction(1, 2) and floor % 2 == 1):
        floor += 1
    rounded = floor * step

    max_finite = (Fraction(2) - Fraction(2) ** (1 - precision)) * Fraction(2) ** emax
    if rounded > max_finite:
        return sign * math.inf
    return sign * float(rounded)


# --- BF16 bit patterns back to float64 ------------------------------------------


def bf16_bits_to_f64(bits: np.ndarray) -> np.ndarray:
    """Exact widening of BF16 bit patterns (as `f64_to_bf16_bits` returns them) to float64."""
    wide = np.ascontiguousarray(bits, dtype=np.uint16).astype(np.uint32) << np.uint32(16)
    return wide.view(np.float32).astype(np.float64)


# --- raw stored bytes of one tensor -------------------------------------------


def read_tensor_bytes(archive, name: str) -> bytes:
    """Raw stored bytes of one tensor of an open archive, for bit-exact comparisons."""
    meta = archive.entries[name]
    with open(archive.path, "rb") as fh:
        fh.seek(archive.data_start + meta.data_offsets[0])
        return fh.read(meta.num_bytes)


# --- sort-based top-k selection ----------------------------------------------


def topk_indices(flat_abs: np.ndarray, k: int) -> set[int]:
    """Indices of the k largest magnitudes, ties resolved by earliest index."""
    order = sorted(range(len(flat_abs)), key=lambda i: (-flat_abs[i], i))
    return set(order[:k])


def retained_count(retention: float, total: int) -> int:
    """ceil(retention * total), forgiving decimal-fraction error, in [1, total]."""
    return min(max(math.ceil(retention * total - 1e-9), 1), total)


def keep_top(flat: np.ndarray, k: int) -> np.ndarray:
    """Mask of the k largest magnitudes of a flat vector, ties by earliest
    position (a full stable sort)."""
    keep = np.zeros(flat.size, dtype=bool)
    keep[np.argsort(-np.abs(flat), kind="stable")[:k]] = True
    return keep


def interference(a: np.ndarray, b: np.ndarray, retention_a: float, retention_b: float):
    """(conflict ratio, support size of pruned b) for flat name-ordered vectors."""
    sparse_a = np.where(keep_top(a, retained_count(retention_a, a.size)), a, 0.0)
    sparse_b = np.where(keep_top(b, retained_count(retention_b, b.size)), b, 0.0)
    support = sparse_b != 0.0
    conflicts = int(np.count_nonzero((np.sign(sparse_a) * np.sign(sparse_b))[support] < 0))
    denominator = int(np.count_nonzero(support))
    return (conflicts / denominator if denominator else 0.0), denominator


# --- stage 2 and the merge, dense and from scratch ------------------------------

_STORAGE = {"F16": "<f2", "F32": "<f4"}


def widen(raw: bytes, dtype: str) -> np.ndarray:
    """Exact float64 values of stored little-endian bytes."""
    if dtype == "BF16":
        return bf16_bits_to_f64(np.frombuffer(raw, dtype="<u2"))
    return np.frombuffer(raw, dtype=_STORAGE[dtype]).astype(np.float64)


# Stored bit patterns of every class of value: +-0, the smallest and largest
# subnormals, 1, the most negative finite, +-inf, and quiet and signalling
# NaNs of both signs with payloads.
SPECIAL_PATTERNS = {
    "F32": [0x0000_0000, 0x8000_0000, 0x0000_0001, 0x807F_FFFF, 0x3F80_0000, 0xFF7F_FFFF,
            0x7F80_0000, 0xFF80_0000, 0x7FC0_0000, 0xFFC0_0001, 0x7F80_0001, 0xFFBF_FFFF],
    "F16": [0x0000, 0x8000, 0x0001, 0x83FF, 0x3C00, 0xFBFF,
            0x7C00, 0xFC00, 0x7E00, 0xFE01, 0x7C01, 0xFDFF],
    "BF16": [0x0000, 0x8000, 0x0001, 0x807F, 0x3F80, 0xFF7F,
             0x7F80, 0xFF80, 0x7FC0, 0xFFC1, 0x7F81, 0xFFBF],
}


def stored_patterns(dtype: str, count: int) -> bytes:
    """`count` stored values of `dtype`: the special patterns first, then
    random bit patterns, which include more of every class."""
    width = 32 if dtype == "F32" else 16
    bits = np.random.default_rng(count).integers(0, 1 << width, count, dtype=np.uint64)
    special = SPECIAL_PATTERNS[dtype][:count]
    bits[: len(special)] = special
    return bits.astype(f"<u{width // 8}").tobytes()


def encode(values: np.ndarray, dtype: str) -> bytes:
    """Stored bytes of float64 values rounded once, ties to even, by the
    rational `round_to_format` (F16, F32) or `f64_to_bf16_bits` (BF16)."""
    if dtype == "BF16":
        return f64_to_bf16_bits(values).astype("<u2").tobytes()
    rounded = [round_to_format(float(x), dtype) for x in values]
    return np.asarray(rounded, dtype=_STORAGE[dtype]).tobytes()


def archive_bytes(tensors: list[tuple[str, str, tuple, bytes]], metadata: dict | None = None) -> bytes:
    """The whole file of an archive holding (name, dtype, shape, stored bytes)
    tensors in the order given: length prefix, compact JSON header, data."""
    header: dict = {} if metadata is None else {"__metadata__": metadata}
    offset = 0
    for name, dtype, shape, raw in tensors:
        header[name] = {"dtype": dtype, "shape": list(shape), "data_offsets": [offset, offset + len(raw)]}
        offset += len(raw)
    text = json.dumps(header, ensure_ascii=False, separators=(",", ":")).encode("utf-8")
    return struct.pack("<Q", len(text)) + text + b"".join(raw for *_, raw in tensors)


def _square_sum(parts: list[np.ndarray]) -> float:
    """Sum of squares in the documented order: one `np.sum` per tensor,
    the partials added in byte-wise name order."""
    total = 0.0
    for part in parts:
        total += float(np.sum(np.square(part)))
    return total


def _split(flat: np.ndarray, sizes: list[int]) -> list[np.ndarray]:
    return np.split(flat, np.cumsum(sizes)[:-1])


def prune_dense(
    flat: np.ndarray, sizes: list[int], retention: float, epsilon: float | None
) -> tuple[np.ndarray, dict]:
    """(processed vector, sparsity) of a flat name-ordered vector of tensors
    of `sizes` values: pruned to its top `retention` by a full stable sort
    (`keep_top`) and, unless `epsilon` is None, rescaled by gamma from
    per-tensor partials. The sparsity keys are in their stored order."""
    k = retained_count(retention, flat.size)
    sparse = np.where(keep_top(flat, k), flat, 0.0)
    original = math.sqrt(_square_sum(_split(flat, sizes)))
    sparsity = {
        "retention_p": retention,
        "threshold": float(np.sort(np.abs(flat))[flat.size - k]),
        "original_norm": original,
        "retained_count": int(np.count_nonzero(sparse)),
    }
    if epsilon is None:
        return sparse, sparsity
    gamma = original / (math.sqrt(_square_sum(_split(sparse, sizes))) + epsilon)
    sparsity.update(gamma=gamma, epsilon=epsilon)
    return sparse * gamma, sparsity


def sparsify_archive(path, retention: float, epsilon: float | None) -> bytes:
    """The file `tvfuse sparsify` writes for the vector archive at `path`:
    `prune_dense` over its name-ordered tensors, stored F32 with the
    vector's source ids and the sparsity as metadata."""
    arc = open_archive(path)
    names = sorted(arc.entries, key=lambda s: s.encode("utf-8"))
    parts = [widen(read_tensor_bytes(arc, name), arc.entries[name].dtype) for name in names]
    sizes = [part.size for part in parts]
    processed, sparsity = prune_dense(np.concatenate(parts), sizes, retention, epsilon)
    metadata = {key: arc.metadata.get(key, "") for key in ("source_base_id", "source_ft_id")}
    metadata.update((key, repr(value)) for key, value in sparsity.items())
    tensors = [
        (name, "F32", arc.entries[name].shape, encode(part, "F32"))
        for name, part in zip(names, _split(processed, sizes))
    ]
    return archive_bytes(tensors, metadata)


def stage2_and_merge(
    paths: dict[str, str],
    retention: float,
    epsilon: float,
    coefficients: tuple[float, float],
    output_dtype: str | None,
) -> tuple[dict[str, bytes], str, bytes]:
    """(stage-2 archive bytes per label, summary.json text, merged model bytes)
    for the base/sft/rlvr checkpoints at `paths`.

    Each task vector is float64 ft - base, pruned and rescaled as one
    name-ordered flat vector by `prune_dense` (kept raw at full retention),
    stored F32; the merge is dense float64 over the stored vectors, narrowed
    to the output dtype (default: each base tensor's own).
    """
    arcs = {label: open_archive(path) for label, path in paths.items()}
    names = sorted(arcs["base"].entries, key=lambda s: s.encode("utf-8"))
    sizes = [arcs["base"].entries[name].num_elements for name in names]

    def values(label: str) -> list[np.ndarray]:
        arc = arcs[label]
        return [widen(read_tensor_bytes(arc, name), arc.entries[name].dtype) for name in names]

    base = values("base")
    summary: dict = {"retention_p": retention, "epsilon": epsilon}
    for label in ("base", "sft", "rlvr"):
        summary[f"{label}_sha256"] = hashlib.sha256(Path(paths[label]).read_bytes()).hexdigest()
    raw: dict[str, np.ndarray] = {}
    stored: dict[str, list[np.ndarray]] = {}
    files: dict[str, bytes] = {}
    for label in ("sft", "rlvr"):
        flat = np.concatenate([ft - b for ft, b in zip(values(label), base)])
        raw[label] = flat
        metadata = {"source_base_id": str(arcs["base"].path), "source_ft_id": str(arcs[label].path)}
        if retention < 1.0:
            processed, sparsity = prune_dense(flat, sizes, retention, epsilon)
            metadata.update((key, repr(value)) for key, value in sparsity.items())
            summary[label] = {
                "original_norm": sparsity["original_norm"],
                "processed_norm": math.sqrt(_square_sum(_split(processed, sizes))),
                "threshold": sparsity["threshold"],
                "retained_count": sparsity["retained_count"],
                "gamma": sparsity["gamma"],
            }
        else:
            processed = flat
            original = math.sqrt(_square_sum(_split(flat, sizes)))
            summary[label] = {"original_norm": original, "processed_norm": original}
        parts = [encode(part, "F32") for part in _split(processed, sizes)]
        stored[label] = [widen(part, "F32") for part in parts]
        tensors = [
            (name, "F32", arcs["base"].entries[name].shape, part) for name, part in zip(names, parts)
        ]
        files[label] = archive_bytes(tensors, metadata)
    ratio, denominator = interference(raw["sft"], raw["rlvr"], retention, retention)
    summary["sign_interference"] = {
        "retention_a": retention,
        "retention_b": retention,
        "conflict_ratio": ratio,
        "denominator_count": denominator,
    }
    merged = []
    for i, name in enumerate(names):
        dense = base[i] + coefficients[0] * stored["sft"][i] + coefficients[1] * stored["rlvr"][i]
        meta = arcs["base"].entries[name]
        dtype = output_dtype or meta.dtype
        merged.append((name, dtype, meta.shape, encode(dense, dtype)))
    return files, json.dumps(summary, indent=2), archive_bytes(merged)


# --- O(n^2) Pareto dominance ---------------------------------------------------


def brute_force_frontier(points: list[tuple[float, float, int]]) -> set[int]:
    """Non-dominated indices for (consistency up, perplexity down, trial index).

    Duplicates of an earlier point on both metrics are excluded.
    """
    keep: set[int] = set()
    for i, (ci, pi, idx_i) in enumerate(points):
        dominated = False
        for j, (cj, pj, idx_j) in enumerate(points):
            if i == j:
                continue
            if cj >= ci and pj <= pi and (cj > ci or pj < pi):
                dominated = True
                break
            if cj == ci and pj == pi and idx_j < idx_i:
                dominated = True
                break
        if not dominated:
            keep.add(idx_i)
    return keep
