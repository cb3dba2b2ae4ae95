"""Known answers for the numpy behaviours that output bytes depend on.

Outputs are byte-identical for a given config, seed and inputs only while
numpy keeps these behaviours. A change shows here, named, before it shows as
a bytes mismatch in the oracle or the pinned-suggestion tests.
"""

from __future__ import annotations

import functools
import operator

import numpy as np
import pytest

from tvfuse.floats import narrow_from_f64

# --- np.sum's pairwise tree -----------------------------------------------------------


def _leaf_sum(values: list[float], lo: int, n: int) -> float:
    """numpy's leaf: fewer than 8 values in order; else 8 strided accumulators
    combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the tail in order."""
    if n < 8:
        total = 0.0
        for i in range(lo, lo + n):
            total += values[i]
        return total
    r = values[lo : lo + 8]
    body = n - n % 8
    for start in range(lo + 8, lo + body, 8):
        for j in range(8):
            r[j] += values[start + j]
    total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for i in range(lo + body, lo + n):
        total += values[i]
    return total


def pairwise_sum(values: list[float], lo: int = 0, n: int | None = None) -> float:
    """The sum `np.sum` gives a contiguous float64 array: leaves of at most 128
    values, and a larger node split at n/2 rounded down to a multiple of 8."""
    n = len(values) if n is None else n
    if n <= 128:
        return _leaf_sum(values, lo, n)
    half = n // 2 - (n // 2) % 8
    return pairwise_sum(values, lo, half) + pairwise_sum(values, lo + half, n - half)


SUM_SIZES = [*range(1, 300), 1000, 8191, 8193, 65539, 200_003]


def test_np_sum_follows_the_pairwise_tree():
    # `task_vector.square_sum` is one np.sum per tensor; its bits fix gamma
    # and so the stage-2 archives.
    rng = np.random.default_rng(20)
    order_matters = 0
    for n in SUM_SIZES:
        x = rng.standard_normal(n) * 10.0 ** rng.uniform(-8, 8, n)
        values = x.tolist()
        want = pairwise_sum(values)
        assert float(np.sum(x)).hex() == want.hex(), (
            f"np.sum no longer sums {n} values by numpy's pairwise tree; "
            "square_sum, gamma and the stage-2 archives depend on it"
        )
        order_matters += want != functools.reduce(operator.add, values)
    # The sizes are ones where the tree and a running sum differ.
    assert order_matters > len(SUM_SIZES) // 2


# --- float64 -> F32 / F16 casts ---------------------------------------------------------

# (value, stored bits) at the edges of round-to-nearest-even.
F32_CASTS = {
    "tie-down-to-even": (1.0 + 2.0**-24, 0x3F800000),
    "tie-up-to-even": (1.0 + 3 * 2.0**-24, 0x3F800002),
    "smallest-subnormal": (2.0**-149, 0x00000001),
    "subnormal-tie-to-zero": (2.0**-150, 0x00000000),
    "subnormal-tie-up": (1.5 * 2.0**-149, 0x00000002),
    "largest-finite": (3.4028234663852886e38, 0x7F7FFFFF),
    "tie-above-largest-overflows": ((2.0 - 2.0**-24) * 2.0**127, 0x7F800000),
    "negative-overflow": (-3.5e38, 0xFF800000),
}
F16_CASTS = {
    "tie-down-to-even": (1.0 + 2.0**-11, 0x3C00),
    "tie-up-to-even": (1.0 + 3 * 2.0**-11, 0x3C02),
    "smallest-subnormal": (2.0**-24, 0x0001),
    "subnormal-tie-to-zero": (2.0**-25, 0x0000),
    "subnormal-tie-up": (1.5 * 2.0**-24, 0x0002),
    "below-tie-above-largest": (65519.0, 0x7BFF),
    "tie-above-largest-overflows": (65520.0, 0x7C00),
    "negative-overflow": (-1e6, 0xFC00),
}


@pytest.mark.parametrize("case", list(F32_CASTS))
def test_float64_to_float32_cast_rounds_to_nearest_even(case):
    value, bits = F32_CASTS[case]
    with np.errstate(over="ignore"):
        got = int(np.frombuffer(narrow_from_f64(np.array([value]), "F32"), "<u4")[0])
    assert got == bits, (
        f"numpy's float64 -> float32 cast gives {got:#010x} for {value!r}, not {bits:#010x}; "
        "F32 archives and the BF16 round-to-odd step depend on it"
    )


@pytest.mark.parametrize("case", list(F16_CASTS))
def test_float64_to_float16_cast_rounds_once_to_nearest_even(case):
    value, bits = F16_CASTS[case]
    got = int(np.frombuffer(narrow_from_f64(np.array([value]), "F16"), "<u2")[0])
    assert got == bits, (
        f"numpy's float64 -> float16 cast gives {got:#06x} for {value!r}, not {bits:#06x}; "
        "F16 archives depend on it"
    )


# --- Generator streams ----------------------------------------------------------------

# Per method: the draws at a fixed seed, what numpy's PCG64 streams gave,
# and what depends on them.
DRAWS = {
    "choice": (
        lambda rng: rng.choice(100, size=8, replace=False).tolist(),
        42,
        [98, 69, 84, 62, 96, 42, 8, 72],
        "adaptation.build_adaptation_set's selection",
    ),
    "integers": (
        lambda rng: [int(rng.integers(0, 3)) for _ in range(6)],
        [23, 0],
        [0, 2, 1, 1, 0, 0],
        "the TPE mixture component each candidate draws from",
    ),
    "uniform": (
        lambda rng: [float(rng.uniform(-1.0, 0.5)) for _ in range(3)],
        [23, 1],
        [0.1215133880079633, -0.17076120521463034, -0.9648194737616167],
        "TPE's startup points and prior draws",
    ),
    "normal": (
        lambda rng: [float(rng.normal(10.2, 0.3)) for _ in range(3)],
        [23, 2],
        [10.092134905210512, 9.849286157689253, 9.42825011408367],
        "TPE's kernel draws",
    ),
}


@pytest.mark.parametrize("method", list(DRAWS))
def test_generator_draws_hold_their_values(method):
    draw, seed, want, dependent = DRAWS[method]
    got = draw(np.random.default_rng(seed))
    assert repr(got) == repr(want), (
        f"Generator.{method} gives {got} at seed {seed}, not {want}; this changes {dependent}"
    )
