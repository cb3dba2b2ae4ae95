from __future__ import annotations

import math

import numpy as np
import pytest

from reference import read_tensor_bytes, topk_indices
from tvfuse import archive
from tvfuse import task_vector as tvec
from tvfuse.errors import (
    DegenerateRescaleWarning,
    EmptyVectorError,
    NameSetMismatchError,
    ShapeMismatchError,
)
from tvfuse.task_vector import TaskVector


def vec(values, name="w") -> TaskVector:
    arr = np.asarray(values, dtype=np.float64)
    return TaskVector(tensors={name: arr}, shapes={name: arr.shape})


def multi(**named) -> TaskVector:
    tensors = {k: np.asarray(v, dtype=np.float64) for k, v in named.items()}
    return TaskVector(tensors=tensors, shapes={k: v.shape for k, v in tensors.items()})


def write_checkpoint(path, named, dtype="F32"):
    archive.write_archive(
        [(k, dtype, list(np.asarray(v).shape), np.asarray(v, dtype=np.float64).ravel()) for k, v in named.items()],
        path,
    )
    return archive.open_archive(path)


# --- extraction ---------------------------------------------------------------


def test_extract_direct_subtraction(tmp_path):
    base = write_checkpoint(tmp_path / "b.safetensors", {"w": [1.0, 1.0]})
    ft = write_checkpoint(tmp_path / "f.safetensors", {"w": [2.0, 3.0]})
    tv = tvec.extract_task_vector(base, ft)
    assert tv.tensors["w"].tolist() == [1.0, 2.0]


def test_extract_identity_is_zero(tmp_path):
    base = write_checkpoint(tmp_path / "b.safetensors", {"w": [0.5, -0.5, 2.0]})
    ft = write_checkpoint(tmp_path / "f.safetensors", {"w": [0.5, -0.5, 2.0]})
    tv = tvec.extract_task_vector(base, ft)
    assert tvec.global_l2_norm(tv) == 0.0


def test_extract_matches_elementwise_oracle(tmp_path):
    rng = np.random.default_rng(0)
    b = rng.standard_normal(1000)
    f = rng.standard_normal(1000)
    base = write_checkpoint(tmp_path / "b.safetensors", {"w": b})
    ft = write_checkpoint(tmp_path / "f.safetensors", {"w": f})
    tv = tvec.extract_task_vector(base, ft)
    b_stored = archive.read_tensor(base, "w").values
    f_stored = archive.read_tensor(ft, "w").values
    expected = np.array([f_stored[i] - b_stored[i] for i in range(1000)])
    assert np.array_equal(tv.tensors["w"], expected)


def test_extract_name_and_shape_mismatches(tmp_path):
    base = write_checkpoint(tmp_path / "b.safetensors", {"w": [1.0]})
    other = write_checkpoint(tmp_path / "o.safetensors", {"x": [1.0]})
    with pytest.raises(NameSetMismatchError):
        tvec.extract_task_vector(base, other)
    wide = write_checkpoint(tmp_path / "wide.safetensors", {"w": [1.0, 2.0]})
    with pytest.raises(ShapeMismatchError):
        tvec.extract_task_vector(base, wide)


def test_extract_dtype_mismatch_policy(tmp_path):
    base = write_checkpoint(tmp_path / "b.safetensors", {"w": [1.0]}, dtype="F32")
    ft = write_checkpoint(tmp_path / "f.safetensors", {"w": [2.0]}, dtype="BF16")
    with pytest.raises(ShapeMismatchError):
        tvec.extract_task_vector(base, ft)
    tv = tvec.extract_task_vector(base, ft, allow_dtype_mismatch=True)
    assert tv.tensors["w"].tolist() == [1.0]


# --- norms ----------------------------------------------------------------------


def test_norm_three_four_five():
    assert tvec.global_l2_norm(vec([3.0, 4.0])) == 5.0


def test_norm_zero():
    assert tvec.global_l2_norm(vec([0.0, 0.0])) == 0.0


def test_norm_across_tensors_matches_flat_pass():
    tv = multi(a=[1.0, 2.0], b=[2.0])
    assert tvec.global_l2_norm(tv) == 3.0
    flat = np.concatenate([tv.tensors["a"], tv.tensors["b"]])
    assert tvec.global_l2_norm(tv) == math.sqrt(float(np.sum(flat * flat)))


# --- quantile threshold -----------------------------------------------------------


def test_threshold_sorted_oracle():
    assert tvec.quantile_threshold(vec([3.0, -1.0, 0.5, 2.0]), [0.5])[0].threshold == 2.0


def test_threshold_full_retention_with_zeros():
    assert tvec.quantile_threshold(vec([3.0, 0.0, 2.0]), [1.0])[0].threshold == 0.0
    assert tvec.quantile_threshold(vec([3.0, -1.0, 2.0]), [1.0])[0].threshold == 1.0


def test_threshold_empty_vector():
    with pytest.raises(EmptyVectorError):
        tvec.quantile_threshold(vec([]), [0.5])


def test_retained_target_decimal_fractions():
    # 10% of 70 is 7; naive ceil(0.1 * 70) would give 8 from float error.
    assert tvec.retained_target(0.1, 70) == 7
    assert tvec.retained_target(0.3, 10) == 3
    assert tvec.retained_target(1.0, 9) == 9
    assert tvec.retained_target(0.25, 10) == 3  # genuine ceil on non-integers


# --- sparsify ---------------------------------------------------------------------


def test_sparsify_sort_oracle():
    got = tvec.sparsify(vec([3.0, -1.0, 0.5, 2.0]), 0.5)
    assert got.tensors["w"].tolist() == [3.0, 0.0, 0.0, 2.0]
    assert got.sparsity.retained_count == 2
    assert got.sparsity.threshold == 2.0


def test_sparsify_full_retention_is_identity():
    values = [3.0, -1.0, 0.5, 2.0]
    got = tvec.sparsify(vec(values), 1.0)
    assert got.tensors["w"].tolist() == values


def test_sparsify_tie_break_keeps_earliest():
    got = tvec.sparsify(vec([1.0, 1.0, 1.0, 1.0]), 0.5)
    assert got.tensors["w"].tolist() == [1.0, 1.0, 0.0, 0.0]


def test_sparsify_tie_break_across_tensors_in_name_order():
    tv = multi(b=[1.0, 2.0], a=[1.0, 1.0])
    got = tvec.sparsify(tv, 0.5)  # k = 2: keeps 2.0 plus earliest tie in "a"
    assert got.tensors["a"].tolist() == [1.0, 0.0]
    assert got.tensors["b"].tolist() == [0.0, 2.0]


def test_sparsify_matches_topk_oracle_randomized():
    rng = np.random.default_rng(21)
    for _ in range(25):
        n = int(rng.integers(5, 400))
        values = rng.standard_normal(n)
        p = float(rng.choice([0.1, 0.25, 0.5, 0.9]))
        got = tvec.sparsify(vec(values), p)
        k = tvec.retained_target(p, n)
        expected = topk_indices(np.abs(values), k)
        assert set(np.flatnonzero(got.tensors["w"])) == expected


def test_sparsify_support_monotone_in_retention():
    rng = np.random.default_rng(33)
    values = rng.standard_normal(500)
    supports = []
    for p in [0.1, 0.3, 0.5, 0.8, 1.0]:
        got = tvec.sparsify(vec(values), p)
        supports.append(set(np.flatnonzero(got.tensors["w"])))
    for smaller, larger in zip(supports, supports[1:]):
        assert smaller <= larger


# --- rescale ----------------------------------------------------------------------


def test_rescale_worked_example():
    # Frozen from a 60-digit Decimal recomputation.
    sparse = tvec.sparsify(vec([3.0, -1.0, 0.5, 2.0]), 0.5)
    assert sparse.sparsity.original_norm == math.sqrt(14.25)
    got = tvec.rescale(sparse, 1e-8)
    assert got.sparsity.rescale_gamma == pytest.approx(1.04697365777438672, rel=1e-12)
    assert got.tensors["w"][0] == pytest.approx(3.14092097332316016, rel=1e-12)
    assert got.tensors["w"][3] == pytest.approx(2.09394731554877344, rel=1e-12)
    assert got.tensors["w"][1] == 0.0 and got.tensors["w"][2] == 0.0


@pytest.mark.parametrize("epsilon", [0.0, -1.0, math.nan, math.inf])
def test_rescale_rejects_epsilon_that_is_not_finite_and_positive(epsilon):
    with pytest.raises(ValueError, match="epsilon"):
        tvec.rescale(tvec.sparsify(vec([3.0, 4.0]), 0.5), epsilon)


def test_rescale_identity_when_norm_matches():
    sparse = tvec.sparsify(vec([3.0, 4.0]), 1.0)
    got = tvec.rescale(sparse, 1e-12)
    assert got.sparsity.rescale_gamma == pytest.approx(1.0, abs=1e-6)


def test_rescale_degenerate_warns():
    sparse = tvec.sparsify(vec([0.0, 0.0]), 1.0)
    with pytest.warns(DegenerateRescaleWarning, match="gamma = 0"):
        got = tvec.rescale(sparse, 1e-8)
    assert got.sparsity.rescale_gamma == 0.0
    assert got.tensors["w"].tolist() == [0.0, 0.0]


def test_norm_preservation_property():
    rng = np.random.default_rng(77)
    for p in [0.1, 0.3, 0.7, 1.0]:
        values = rng.standard_normal(2000)
        tv = vec(values)
        original = tvec.global_l2_norm(tv)
        out = tvec.sparsify_and_rescale(tv, p, epsilon=1e-8)
        assert abs(tvec.global_l2_norm(out) - original) / original <= 1e-6


# --- merge ------------------------------------------------------------------------


def test_merge_direct_arithmetic(tmp_path):
    base = write_checkpoint(tmp_path / "b.safetensors", {"w": [1.0, 1.0]})
    t1 = vec([1.0, 0.0])
    t2 = vec([0.0, 2.0])
    merged = tvec.merge(base, [(t1, 0.5), (t2, 0.25)], tmp_path / "m.safetensors")
    assert archive.read_tensor(merged, "w").values.tolist() == [1.5, 1.5]


def test_merge_zero_coefficients_is_base(tmp_path):
    rng = np.random.default_rng(4)
    values = rng.standard_normal(64)
    base = write_checkpoint(tmp_path / "b.safetensors", {"w": values})
    merged = tvec.merge(base, [(vec(rng.standard_normal(64)), 0.0)], tmp_path / "m.safetensors")
    assert read_tensor_bytes(merged, "w") == read_tensor_bytes(base, "w")


def test_merge_reconstructs_finetuned(tmp_path):
    rng = np.random.default_rng(6)
    b = rng.standard_normal(256)
    f = rng.standard_normal(256)
    base = write_checkpoint(tmp_path / "b.safetensors", {"w": b})
    ft = write_checkpoint(tmp_path / "f.safetensors", {"w": f})
    tv = tvec.extract_task_vector(base, ft)
    merged = tvec.merge(base, [(tv, 1.0)], tmp_path / "m.safetensors")
    assert read_tensor_bytes(merged, "w") == read_tensor_bytes(ft, "w")


def test_merge_linearity(tmp_path):
    rng = np.random.default_rng(8)
    base = write_checkpoint(tmp_path / "b.safetensors", {"w": rng.standard_normal(50)})
    tv = vec(rng.standard_normal(50))
    once = tvec.merge(base, [(tv, 0.75)], tmp_path / "m1.safetensors")
    twice = tvec.merge(base, [(tv, 0.5), (tv, 0.25)], tmp_path / "m2.safetensors")
    a = archive.read_tensor(once, "w").values
    b = archive.read_tensor(twice, "w").values
    np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-14)


def test_merge_shape_mismatch(tmp_path):
    base = write_checkpoint(tmp_path / "b.safetensors", {"w": [1.0, 1.0]})
    with pytest.raises(ShapeMismatchError):
        tvec.merge(base, [(vec([1.0, 2.0, 3.0]), 1.0)], tmp_path / "m.safetensors")


# --- persistence --------------------------------------------------------------------


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(12)
    tv = multi(a=rng.standard_normal(16), b=rng.standard_normal(8))
    tv.source_base_id = "base-x"
    tv.source_ft_id = "ft-y"
    processed = tvec.sparsify_and_rescale(tv, 0.25, epsilon=1e-8)
    path = tmp_path / "tau.safetensors"
    tvec.save_task_vector(processed, path)
    loaded = tvec.load_task_vector(path)
    assert loaded.source_base_id == "base-x"
    assert loaded.source_ft_id == "ft-y"
    metadata = archive.open_archive(path).metadata
    assert metadata["retention_p"] == "0.25"
    assert metadata["epsilon"] == "1e-08"
    assert float(metadata["gamma"]) == processed.sparsity.rescale_gamma
    for key in ("threshold", "original_norm", "retained_count"):
        assert key in metadata
