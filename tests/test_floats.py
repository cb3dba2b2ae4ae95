from __future__ import annotations

import math
import struct

import numpy as np
import pytest

from reference import bf16_bits_to_f64, round_to_format
from tvfuse.floats import f64_to_bf16_bits, narrow_from_f64, widen_to_f64


def bf16_narrow_widen(x: float) -> float:
    bits = f64_to_bf16_bits(np.array([x]))
    return float(bf16_bits_to_f64(bits)[0])


def test_known_bit_patterns():
    assert widen_to_f64(b"\x00\x00\x80\x3f", "F32")[0] == 1.0
    assert widen_to_f64(b"\x80\x3f", "BF16")[0] == 1.0
    assert widen_to_f64(b"\x00\x3c", "F16")[0] == 1.0


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
    widened = widen_to_f64(raw, dtype)
    for x, got in zip(values, widened):
        want = round_to_format(float(x), dtype)
        assert got == want or (math.isnan(got) and math.isnan(want)), (x, got, want)


def test_bf16_nan_stays_nan():
    raw = narrow_from_f64(np.array([math.nan]), "BF16")
    assert math.isnan(widen_to_f64(raw, "BF16")[0])


@pytest.mark.parametrize("dtype", ["F32", "F16", "BF16"])
def test_widening_then_narrowing_is_identity_on_storage_values(dtype):
    # narrow(widen(narrow(x))) == narrow(x): narrowing is idempotent.
    rng = np.random.default_rng(11)
    values = rng.standard_normal(2000) * np.exp(rng.uniform(-20, 20, 2000))
    once = narrow_from_f64(values, dtype)
    twice = narrow_from_f64(widen_to_f64(once, dtype), dtype)
    assert once == twice


def test_f32_round_trip_is_exact():
    rng = np.random.default_rng(3)
    values = rng.standard_normal(1000).astype(np.float32).astype(np.float64)
    assert np.array_equal(widen_to_f64(narrow_from_f64(values, "F32"), "F32"), values)


def test_negative_zero_keeps_sign():
    assert struct.unpack("<H", narrow_from_f64(np.array([-0.0]), "BF16"))[0] == 0x8000
