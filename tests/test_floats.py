from __future__ import annotations

import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import tvfuse.floats
from reference import bf16_bits_to_f64, round_to_format, stored_patterns, widen
from tvfuse.floats import DTYPES, f64_to_bf16_bits, narrow_from_f64, widen_to_f64


def bf16_narrow_widen(x: float) -> float:
    bits = f64_to_bf16_bits(np.array([x]))
    return float(bf16_bits_to_f64(bits)[0])


def test_known_bit_patterns():
    assert widen_to_f64(b"\x00\x00\x80\x3f", "F32", out=None)[0] == 1.0
    assert widen_to_f64(b"\x80\x3f", "BF16", out=None)[0] == 1.0
    assert widen_to_f64(b"\x00\x3c", "F16", out=None)[0] == 1.0


def test_bf16_one_round_trips_exactly():
    assert narrow_from_f64(np.array([1.0]), "BF16") == b"\x80\x3f"


def test_bf16_midpoint_below_rounds_down():
    # 1 + 2**-9 sits below the halfway point between 1.0 and 1 + 2**-7.
    raw = narrow_from_f64(np.array([1.0 + 2.0**-9]), "BF16")
    assert struct.unpack("<H", raw)[0] == 0x3F80


def test_bf16_exact_midpoint_ties_to_even():
    raw = narrow_from_f64(np.array([1.0 + 2.0**-8]), "BF16")
    assert struct.unpack("<H", raw)[0] == 0x3F80
    # Next midpoint up has an odd lower neighbour, so it rounds away.
    raw = narrow_from_f64(np.array([1.0 + 3.0 * 2.0**-8]), "BF16")
    assert struct.unpack("<H", raw)[0] == 0x3F82


@pytest.mark.parametrize("dtype", ["BF16", "F16"])
def test_narrowing_matches_rational_oracle(dtype):
    rng = np.random.default_rng(7)
    values = np.concatenate(
        [
            rng.standard_normal(400),
            rng.standard_normal(200) * 1e-40,  # subnormal territory
            rng.standard_normal(200) * 1e38,
            np.array([0.0, -0.0, math.inf, -math.inf, 65504.0, 65520.0, 3.39e38]),
        ]
    )
    raw = narrow_from_f64(values, dtype)
    widened = widen_to_f64(raw, dtype, out=None)
    for x, got in zip(values, widened):
        want = round_to_format(float(x), dtype)
        assert got == want or (math.isnan(got) and math.isnan(want)), (x, got, want)


@pytest.mark.parametrize("dtype", DTYPES)
def test_narrowing_overflows_to_inf_without_a_warning(dtype):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        raw = narrow_from_f64(np.array([1e39, -1e39]), dtype)
    assert widen_to_f64(raw, dtype, out=None).tolist() == [math.inf, -math.inf]


def test_bf16_nan_stays_nan():
    raw = narrow_from_f64(np.array([math.nan]), "BF16")
    assert math.isnan(widen_to_f64(raw, "BF16", out=None)[0])


@pytest.mark.parametrize("dtype", ["F32", "F16", "BF16"])
def test_widening_then_narrowing_is_identity_on_storage_values(dtype):
    # narrow(widen(narrow(x))) == narrow(x): narrowing is idempotent.
    rng = np.random.default_rng(11)
    values = rng.standard_normal(2000) * np.exp(rng.uniform(-20, 20, 2000))
    once = narrow_from_f64(values, dtype)
    twice = narrow_from_f64(widen_to_f64(once, dtype, out=None), dtype)
    assert once == twice


def test_f32_round_trip_is_exact():
    rng = np.random.default_rng(3)
    values = rng.standard_normal(1000).astype(np.float32).astype(np.float64)
    assert np.array_equal(widen_to_f64(narrow_from_f64(values, "F32"), "F32", out=None), values)


def test_negative_zero_keeps_sign():
    assert struct.unpack("<H", narrow_from_f64(np.array([-0.0]), "BF16"))[0] == 0x8000


# --- widening into a given buffer ---------------------------------------------------


def same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    return got.dtype == want.dtype == np.float64 and np.array_equal(
        got.view(np.uint64), want.view(np.uint64)
    )


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("count", [0, 1, 12, 1 << 14, (1 << 14) + 1, 3 * (1 << 14) + 5])
def test_widening_into_a_buffer_matches_the_plain_cast_bit_for_bit(dtype, count):
    # Counts around the widening block size; every class of stored value.
    raw = stored_patterns(dtype, count)
    with np.errstate(invalid="ignore"):  # casting a signalling NaN quiets it
        want = widen(raw, dtype)
        assert same_bits(widen_to_f64(raw, dtype, out=None), want)
        out = np.full(count, math.pi)
        assert widen_to_f64(raw, dtype, out=out) is out
        assert same_bits(out, want)
        # The stored bytes in the tail of the output's own memory, where
        # `archive.read_tensor` reads them.
        out = np.full(count, math.pi)
        tail = out.view(np.uint8)[out.nbytes - len(raw) :]
        tail[:] = np.frombuffer(raw, dtype=np.uint8)
        widen_to_f64(tail, dtype, out=out)
        assert same_bits(out, want)


@pytest.mark.parametrize(
    "convert",
    [lambda: widen_to_f64(b"", "F64", out=None), lambda: narrow_from_f64(np.zeros(1), "F64")],
)
def test_an_unsupported_dtype_is_refused(convert):
    with pytest.raises(ValueError, match="unsupported dtype 'F64'"):
        convert()


def test_widening_rejects_an_output_of_another_size():
    with pytest.raises(ValueError, match="do not fill"):
        widen_to_f64(b"\x00\x00\x80\x3f", "F32", out=np.empty(2))


# --- the BF16 fast path against the f64_to_bf16_bits oracle ------------------------


def assert_bf16_matches_oracle(values: np.ndarray) -> None:
    got = np.frombuffer(narrow_from_f64(values, "BF16"), dtype="<u2")
    with np.errstate(invalid="ignore"):  # the oracle casts NaN to float32
        want = f64_to_bf16_bits(values).astype("<u2")
    bad = np.flatnonzero(got != want)
    assert bad.size == 0, [
        (float(values[i]).hex(), hex(got[i]), hex(want[i])) for i in bad[:5]
    ]


def bf16_boundary_values() -> np.ndarray:
    """Every non-NaN BF16 value, every midpoint between neighbours, and the
    float64 neighbours of both, plus the edges of the float32 range."""
    bits = np.arange(1 << 16, dtype=np.uint32) << np.uint32(16)
    bits = bits[~np.isnan(bits.view(np.float32))]
    grid = bits.view(np.float32).astype(np.float64)
    # Setting the bit below BF16's last kept bit gives the exact midpoint to
    # the next pattern up in magnitude (past the largest finite, towards inf).
    finite = bits[np.isfinite(grid)]
    mids = (finite | np.uint32(0x8000)).view(np.float32).astype(np.float64)
    tiny = 2.0**-149
    flt_max = float(np.finfo(np.float32).max)
    bf16_max = float(np.ldexp(255.0, 120))
    specials = np.array(
        [
            2.0**-150, tiny * 0.5000001, tiny * 0.25, tiny * 0.75, tiny * 1.5, 2.0**-151,
            np.nextafter(2.0**-150, 0.0), np.nextafter(2.0**-150, 1.0),
            np.nextafter(bf16_max, np.inf), (bf16_max + flt_max) / 2, flt_max,
            np.nextafter(flt_max, np.inf), 2.0**128, 2.0**128 * 1.5, 1e300, 1e-300,
            5e-324, 2.0**-1060, 2.2250738585072009e-308, np.nextafter(0.0, 1.0) * 12345,
            0.0, np.inf,
        ]
    )
    specials = np.concatenate([specials, -specials])
    nan_bits = np.array(
        [
            0x7FF8000000000000, 0x7FF0000000000001, 0x7FF4000000000000,
            0x7FFFFFFFFFFFFFFF, 0x7FF000000000FFFF, 0x7FF8000000010000,
        ],
        dtype=np.uint64,
    )
    nans = np.concatenate([nan_bits, nan_bits | np.uint64(1 << 63)]).view(np.float64)
    return np.concatenate(
        [
            grid,
            np.nextafter(grid, -np.inf),
            np.nextafter(grid, np.inf),
            mids,
            np.nextafter(mids, -np.inf),
            np.nextafter(mids, np.inf),
            specials,
            nans,
        ]
    )


def test_bf16_fast_path_matches_oracle_at_rounding_boundaries():
    values = bf16_boundary_values()
    assert values.size > 390_000
    assert_bf16_matches_oracle(values)


def test_bf16_fast_path_matches_oracle_on_merge_sums():
    rng = np.random.default_rng(5)
    base = rng.standard_normal(50_000).astype(np.float32).astype(np.float64) * 0.02
    tau = rng.standard_normal((2, 50_000)).astype(np.float32).astype(np.float64) * 1e-3
    for c_sft, c_rlvr in rng.uniform(0, 2, (8, 2)):
        assert_bf16_matches_oracle(base + c_sft * tau[0] + c_rlvr * tau[1])


@given(arrays(np.float64, st.integers(0, 64), elements=st.floats(allow_nan=True, allow_infinity=True)))
def test_bf16_fast_path_matches_oracle_property(values):
    assert_bf16_matches_oracle(values)


def test_bf16_narrowing_does_not_call_the_oracle(monkeypatch):
    values = bf16_boundary_values()
    before = narrow_from_f64(values, "BF16")

    def oracle_called(_values):
        raise AssertionError("narrow_from_f64 must not route through f64_to_bf16_bits")

    monkeypatch.setattr(tvfuse.floats, "f64_to_bf16_bits", oracle_called)
    assert narrow_from_f64(values, "BF16") == before


def test_bf16_fast_path_matches_oracle_on_random_bits():
    # Every class of float64 at random, NaN and inf payloads of both signs
    # included.
    bits = np.random.default_rng(16).integers(0, 1 << 64, 400_000, dtype=np.uint64, endpoint=False)
    assert_bf16_matches_oracle(bits.view(np.float64))


@pytest.mark.parametrize("scale", [1.0, 1.0 + 2.0**-40, 1.0 - 2.0**-40], ids=["exact", "above", "below"])
def test_bf16_fast_path_matches_oracle_near_float32_patterns(scale):
    # Float32 patterns in a stride over all of them, and every BF16 midpoint
    # pattern (low half 0x8000) of a stride of high halves: scaled off a
    # midpoint, a value rounds to float32 onto it, and only its side decides.
    strided = np.arange(0, 1 << 32, 4099, dtype=np.uint64).astype(np.uint32)
    midpoints = (np.arange(0, 1 << 16, 3, dtype=np.uint32) << np.uint32(16)) | np.uint32(0x8000)
    with np.errstate(invalid="ignore"):  # casting a signalling NaN quiets it
        values = np.concatenate([strided, midpoints]).view(np.float32).astype(np.float64)
    assert_bf16_matches_oracle(values * scale)
