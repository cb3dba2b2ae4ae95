"""The exact multi-rank select and the tie rule, against full-sort references.

Vectors are drawn from an alphabet with heavy ties (signed zeros, the
smallest subnormal, +-1.0 and values one low digit away from it, the largest
finite value) mixed with arbitrary finite values, spread over many small
tensors so that tie budgets cross tensor boundaries and buckets outgrow the
largest tensor.
"""

from __future__ import annotations

import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference import interference, keep_top, module_activation, retained_count
from tvfuse import diagnostics as diag
from tvfuse import task_vector as tvec
from tvfuse.errors import NonFiniteVectorError
from tvfuse.task_vector import TaskVector

TIES = [
    0.0,
    -0.0,
    5e-324,
    -5e-324,
    1.0,
    -1.0,
    1.0 + 2.0**-20,
    -(1.0 + 2.0**-36),
    1.0 + 2.0**-52,
    sys.float_info.max,
    -sys.float_info.max,
]
VALUES = st.one_of(st.sampled_from(TIES), st.floats(allow_nan=False, allow_infinity=False))
TENSORS = st.lists(st.lists(VALUES, max_size=12), min_size=1, max_size=12).filter(
    lambda tensors: any(tensors)
)
RETENTIONS = st.lists(st.floats(0.0, 1.0, exclude_min=True), min_size=1, max_size=6)
# Names of six module classes; byte order differs from draw order.
NAMES = [
    "model.layers.1.mlp.up_proj.weight",
    "model.embed_tokens.weight",
    "model.layers.0.self_attn.q_proj.weight",
    "lm_head.weight",
    "model.layers.0.input_layernorm.weight",
    "model.router.weight",
]


def build(tensors: list[list[float]]) -> TaskVector:
    named = {
        f"{NAMES[i % len(NAMES)]}.{i:02d}": np.asarray(v, dtype=np.float64)
        for i, v in enumerate(tensors)
    }
    return TaskVector(
        tensors=named,
        shapes={k: v.shape for k, v in named.items()},
        source_base_id="",
        source_ft_id="",
    )


def flat(tv: TaskVector) -> np.ndarray:
    return np.concatenate([tv.tensors[name] for name in sorted(tv.tensors)])


@settings(max_examples=300, deadline=None)
@given(TENSORS, RETENTIONS)
@example([[1.0, 1.0], [1.0, 1.0], [2.0]], [0.8, 0.6, 1.0])  # ties cross into the second tensor
@example([[0.0] * 3, [-0.0] * 3, [5e-324, 0.0, 1.0]], [0.5, 0.1])
def test_cuts_equal_full_sort(tensors, retentions):
    tv = build(tensors)
    values = flat(tv)
    magnitudes = np.sort(np.abs(values))
    cuts = tvec.quantile_threshold(tv, retentions)
    assert len(cuts) == len(retentions)
    for retention, cut in zip(retentions, cuts):
        k = retained_count(retention, values.size)
        assert cut.k == k
        assert cut.threshold == magnitudes[values.size - k]
        assert cut.count_above == int(np.count_nonzero(np.abs(values) > cut.threshold))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # the norm of max floats
@settings(max_examples=300, deadline=None)
@given(TENSORS, st.floats(0.0, 1.0, exclude_min=True))
@example([[1.0, 1.0], [1.0, 1.0], [2.0]], 0.8)
@example([[0.0, -0.0, 1.0], [-0.0, 0.0, -1.0]], 0.9)  # a cut at 0 keeps zeros
def test_sparsify_keeps_the_full_sort_top_k(tensors, retention):
    tv = build(tensors)
    values = flat(tv)
    expected = np.where(keep_top(values, retained_count(retention, values.size)), values, 0.0)
    result = tvec.sparsify(tv, retention)
    got = flat(result)
    assert got.tobytes() == expected.tobytes()
    # The retained count follows from the cut, without counting the result.
    assert result.sparsity.retained_count == np.count_nonzero(got)
    assert result.sparsity.original_norm == tvec.global_l2_norm(tv, {})


def classify(name: str) -> diag.ModuleClass:
    return diag.classify_module(name, diag.DEFAULT_MODULE_RULES)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(st.data(), TENSORS, RETENTIONS, st.floats(0.0, 1.0, exclude_min=True))
def test_sweep_and_module_ratios_equal_full_sort(data, tensors, retentions, retention_b):
    tv_a = build(tensors)
    tv_b = build([data.draw(st.lists(VALUES, min_size=len(t), max_size=len(t))) for t in tensors])
    a, b = flat(tv_a), flat(tv_b)
    reports = diag.interference_sweep(tv_a, tv_b, retentions, retention_b)
    for retention, report in zip(retentions, reports):
        ratio, denominator = interference(a, b, retention, retention_b)
        assert (report.retention_a, report.retention_b) == (retention, retention_b)
        assert (report.conflict_ratio, report.denominator_count) == (ratio, denominator)

    retention = retentions[0]
    expected = module_activation(tv_a.tensors, retention, classify)
    assert diag.modulewise_activation(tv_a, retention) == expected


def test_select_memory_is_bounded_by_one_tensor():
    # 64 tensors of 16k values, 60 % zeros: at retention 0.5 the cut is 0,
    # at 0.2 it is not. The select may hold a few tensors' worth of
    # temporaries and its counters, never the concatenated vector.
    rng = np.random.default_rng(64)
    size = 16_384
    tensors = {}
    for i in range(64):
        values = rng.standard_normal(size)
        values[rng.random(size) < 0.6] = 0.0
        tensors[f"t{i:02d}"] = values
    tv = TaskVector(
        tensors=tensors,
        shapes={k: v.shape for k, v in tensors.items()},
        source_base_id="",
        source_ft_id="",
    )
    tracemalloc.start()
    try:
        cuts = tvec.quantile_threshold(tv, [0.5, 0.2])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * size * 8 + 2 * 1024 * 1024, peak
    magnitudes = np.sort(np.abs(flat(tv)))
    assert cuts[0].threshold == 0.0 and cuts[1].threshold > 0.0
    for cut in cuts:
        assert cut.threshold == magnitudes[magnitudes.size - cut.k]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_vector_names_first_tensor(bad):
    # Name order puts "lm_head.weight.03" before "model.layers.0...02".
    tv = build([[1.0, 2.0], [3.0], [bad, 1.0], [4.0, bad]])
    with pytest.raises(NonFiniteVectorError, match=r"'lm_head\.weight\.03'"):
        tvec.quantile_threshold(tv, [0.5])
    for retention in (0.25, 0.5, 1.0):
        with pytest.raises(NonFiniteVectorError):
            tvec.sparsify(tv, retention)
    with pytest.raises(NonFiniteVectorError):
        diag.interference_sweep(build([[1.0, 2.0], [3.0], [4.0, 5.0], [6.0, 7.0]]), tv, [1.0], 0.5)
    with pytest.raises(NonFiniteVectorError):
        diag.modulewise_activation(tv, 0.1)
