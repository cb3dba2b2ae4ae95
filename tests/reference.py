"""Independent reference implementations used as test oracles.

Everything here is deliberately written with a different technique than the
library (exact rational arithmetic, full sorts, O(n^2) scans) so the two
sides cannot share a bug.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

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
