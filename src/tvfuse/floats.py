"""Lossless widening and round-to-nearest-even narrowing for F32/F16/BF16.

Widening any storage dtype to float64 is exact, so all arithmetic can run at
64-bit precision regardless of how a checkpoint stores its tensors.
Narrowing rounds each float64 value once, ties to even. F32 and F16 use
numpy's direct casts. BF16 goes through float32 with rounding to odd, then
rounds the float32 bits to nearest even: by Boldo & Melquiond, "Emulation of
FMA and correctly rounded sums: proved algorithms using rounding to odd"
(IEEE TC 2008), rounding to odd into a format with at least two more
significand bits (F32 has 24 >= 8 + 2) followed by a nearest-even rounding
equals one correct rounding, and F32 shares BF16's exponent range, so
subnormals, overflow and underflow round the same way too. A plain
nearest-even float32 intermediate would double-round.
"""

from __future__ import annotations

import numpy as np

DTYPES = ("F32", "F16", "BF16")

DTYPE_SIZES = {"F32": 4, "F16": 2, "BF16": 2}

# Largest finite BF16: (2 - 2**-7) * 2**127.
_BF16_MAX = float(np.ldexp(255.0, 120))


def widen_to_f64(raw: bytes, dtype: str) -> np.ndarray:
    """Decode little-endian storage bytes into a flat float64 array."""
    if dtype == "F32":
        return np.frombuffer(raw, dtype="<f4").astype(np.float64)
    if dtype == "F16":
        return np.frombuffer(raw, dtype="<f2").astype(np.float64)
    if dtype == "BF16":
        bits = np.frombuffer(raw, dtype="<u2").astype(np.uint32) << np.uint32(16)
        return bits.view(np.float32).astype(np.float64)
    raise ValueError(f"unsupported dtype {dtype!r}")


def narrow_from_f64(values: np.ndarray, dtype: str) -> bytes:
    """Encode a float64 array as little-endian storage bytes of `dtype`."""
    v = np.ascontiguousarray(values, dtype=np.float64)
    if dtype == "F32":
        return v.astype("<f4").tobytes()
    if dtype == "F16":
        # numpy's double->half cast rounds once, ties to even; out-of-range
        # values overflow to inf as IEEE prescribes.
        with np.errstate(over="ignore"):
            return v.astype(np.float16).astype("<f2").tobytes()
    if dtype == "BF16":
        return _bf16_bits(v).tobytes()
    raise ValueError(f"unsupported dtype {dtype!r}")


def _bf16_bits(v: np.ndarray) -> np.ndarray:
    """Round a contiguous float64 array to little-endian BF16 bit patterns."""
    with np.errstate(over="ignore", invalid="ignore"):
        f = v.astype(np.float32)  # nearest even; |v| past FLT_MAX becomes inf
        back = f.astype(np.float64)
        inexact = back != v
        # Round to odd: step a rounded-up magnitude back down to the
        # truncation, then set the sticky low bit if anything was dropped.
        # This maps overflow to FLT_MAX and underflow to the smallest
        # subnormal, which the nearest-even step below sends to inf or 0.
        b = f.view(np.uint32)
        b -= np.abs(back, out=back) > np.abs(v)
        b |= inexact
    b += np.uint32(0x7FFF) + ((b >> np.uint32(16)) & np.uint32(1))
    out = (b >> np.uint32(16)).astype("<u2")
    # NaNs become the quiet NaN 0x7FC0 with the input's sign.
    nan_mask = np.isnan(v)
    if nan_mask.any():
        sign = (v.view(np.uint64)[nan_mask] >> np.uint64(48)).astype(np.uint16)
        out[nan_mask] = (sign & np.uint16(0x8000)) | np.uint16(0x7FC0)
    return out


def f64_to_bf16_bits(values: np.ndarray) -> np.ndarray:
    """Round float64 values to BF16 bit patterns, ties to even (reference oracle).

    The program narrows through `narrow_from_f64`; this slower function is
    kept as the independent oracle that the tests and the benchmark's output
    check compare it against, so the program must never call it.

    Works by snapping each magnitude to the BF16 grid of its binade with
    ``np.round`` (banker's rounding). All scaling is by powers of two, so
    every intermediate is exact and the single rounding step is the
    ``np.round`` call itself.
    """
    v = np.ascontiguousarray(values, dtype=np.float64)
    a = np.abs(v)
    finite = np.isfinite(v)

    with np.errstate(invalid="ignore", over="ignore"):
        _, exp = np.frexp(np.where(finite, a, 0.0))
        # BF16 has 8 significand bits; its subnormal ulp is 2**-133.
        ulp = np.ldexp(1.0, np.maximum(exp - 8, -133))
        q = np.round(np.where(finite, a, 0.0) / ulp) * ulp
        q = np.where(q > _BF16_MAX, np.inf, q)
        q = np.copysign(np.where(finite, q, a), v)

    out = (q.astype(np.float32).view(np.uint32) >> np.uint32(16)).astype(np.uint16)
    nan_mask = np.isnan(v)
    if nan_mask.any():
        sign = (v.view(np.uint64)[nan_mask] >> np.uint64(48)).astype(np.uint16)
        out[nan_mask] = (sign & np.uint16(0x8000)) | np.uint16(0x7FC0)
    return out
