from __future__ import annotations

import math
import os
import threading
import tracemalloc

import numpy as np
import pytest

from defaults import CONFIG
from reference import read_tensor_bytes, topk_indices
from tvfuse import archive
from tvfuse import task_vector as tvec
from tvfuse.errors import (
    DegenerateRescaleWarning,
    EmptyVectorError,
    NameSetMismatchError,
    ShapeMismatchError,
    TruncatedFileError,
)
from tvfuse.blocks import BLOCK
from tvfuse.task_vector import TaskVector


def vec(values, name="w") -> TaskVector:
    arr = np.asarray(values, dtype=np.float64)
    return TaskVector(
        tensors={name: arr}, shapes={name: arr.shape}, source_base_id="", source_ft_id=""
    )


def multi(**named) -> TaskVector:
    tensors = {k: np.asarray(v, dtype=np.float64) for k, v in named.items()}
    return TaskVector(
        tensors=tensors,
        shapes={k: v.shape for k, v in tensors.items()},
        source_base_id="",
        source_ft_id="",
    )


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
    assert tvec.global_l2_norm(tv, {}) == 0.0


def test_extract_matches_elementwise_oracle(tmp_path):
    rng = np.random.default_rng(0)
    b = rng.standard_normal(1000)
    f = rng.standard_normal(1000)
    base = write_checkpoint(tmp_path / "b.safetensors", {"w": b})
    ft = write_checkpoint(tmp_path / "f.safetensors", {"w": f})
    tv = tvec.extract_task_vector(base, ft)
    b_stored = archive.read_tensor(base, "w", out=None).values
    f_stored = archive.read_tensor(ft, "w", out=None).values
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
    read = tvec.deltas(base, [ft], allow_dtype_mismatch=True)
    assert [(block.name, delta.tolist()) for block, (delta,) in read()] == [("w", [1.0])]


def reading_trio(tmp_path):
    """A base and a finetuned archive of tensors a, b, c, and their names in order."""
    named = {name: np.arange(1000.0) * (i + 1) for i, name in enumerate("abc")}
    base = write_checkpoint(tmp_path / "b.safetensors", named, dtype="BF16")
    shifted = {name: values + 1 for name, values in named.items()}
    ft = write_checkpoint(tmp_path / "f.safetensors", shifted, dtype="BF16")
    return base, ft, archive.byte_sorted(named)


def test_deltas_over_a_truncated_archive_fail_as_a_serial_read_does(tmp_path):
    base, ft, names = reading_trio(tmp_path)
    # Cut the file inside tensor b's data, after both archives are opened.
    b = ft.entries["b"]
    os.truncate(ft.path, ft.data_start + b.data_offsets[0] + b.num_bytes // 2)
    with pytest.raises(TruncatedFileError) as serial:
        for name in names:
            archive.read_tensor(ft, name, out=None)
    yielded = []
    with pytest.raises(TruncatedFileError) as passing:
        for block, _ in tvec.deltas(base, [ft])():
            yielded.append(block.name)
    assert "'b'" in str(serial.value)
    assert str(passing.value) == str(serial.value)
    assert yielded == ["a"]


def open_files() -> int:
    return len(os.listdir("/proc/self/fd"))


def test_deltas_read_on_the_calling_thread_and_close_their_files_when_the_consumer_stops(tmp_path):
    base, ft, _ = reading_trio(tmp_path)
    threads, files = threading.active_count(), open_files()
    for _ in tvec.deltas(base, [ft])():
        # The pass holds each archive open once, and starts no thread.
        assert threading.active_count() == threads and open_files() == files + 2
        break
    assert open_files() == files
    with pytest.raises(RuntimeError):
        for _ in tvec.deltas(base, [ft])():
            raise RuntimeError("consumer failed")
    assert open_files() == files
    reader = tvec.deltas(base, [ft])()
    next(reader)
    reader.close()
    assert threading.active_count() == threads and open_files() == files


def stepped_trio(tmp_path, sizes=(1000, 1000, 1000, 1000)):
    """A zero base and a finetuned archive whose tensor i holds i + 1
    everywhere, so delta i is i + 1; and the names in order."""
    names = [f"t{i}" for i in range(len(sizes))]
    base = write_checkpoint(tmp_path / "b.safetensors", {n: np.zeros(s) for n, s in zip(names, sizes)})
    ft = write_checkpoint(
        tmp_path / "f.safetensors", {n: np.full(s, i + 1.0) for i, (n, s) in enumerate(zip(names, sizes))}
    )
    return base, ft, names


def test_deltas_lend_one_buffer_set(tmp_path):
    base, ft, names = stepped_trio(tmp_path)
    held = []
    for i, (block, (delta,)) in enumerate(tvec.deltas(base, [ft])()):
        assert block.name == names[i] and np.all(delta == i + 1)
        held.append(delta)
    # Every item is read into the same buffer.
    assert all(np.shares_memory(held[0], other) for other in held[1:])
    assert np.all(held[0] == 4.0)
    # A stored vector's lockstep reader lends one buffer.
    path = tmp_path / "tau.safetensors"
    tvec.save_task_vector(tvec.extract_task_vector(base, ft), path)
    held = [values for _, (values,) in tvec.lockstep(tvec.StoredVector(path))()]
    assert all(np.shares_memory(held[0], other) for other in held[1:])
    assert np.all(held[0] == 4.0)


def test_resident_collectors_return_arrays_of_their_own(tmp_path):
    base, ft, names = stepped_trio(tmp_path, sizes=(1000, 700, 2 * BLOCK + 8, 300))
    extracted = tvec.extract_task_vector(base, ft)
    path = tmp_path / "tau.safetensors"
    tvec.save_task_vector(extracted, path)
    before = {name: values.copy() for name, values in extracted.tensors.items()}
    collected = {
        "extract": extracted,
        "load": tvec.load_task_vector(path),
        "sparsify stored": tvec.sparsify(tvec.StoredVector(path), 0.5),
        "sparsify resident": tvec.sparsify(extracted, 0.5),
        "rescale stored": tvec.sparsify_and_rescale(
            tvec.StoredVector(path), 0.5, epsilon=CONFIG.epsilon
        ),
    }
    arrays = [(label, name, values) for label, tv in collected.items() for name, values in tv.tensors.items()]
    for i, (label, name, values) in enumerate(arrays):
        for other_label, other_name, other in arrays[i + 1 :]:
            assert not np.shares_memory(values, other), (label, name, other_label, other_name)
    # Pruning a resident vector leaves it as it was.
    assert all(np.array_equal(extracted.tensors[n], before[n]) for n in names)
    for label in ("extract", "load"):
        assert [float(collected[label].tensors[n][0]) for n in names] == [1.0, 2.0, 3.0, 4.0]
        # A tensor of several blocks is whole.
        assert np.all(collected[label].tensors["t2"] == 3.0)


def test_a_pass_that_fails_or_stops_early_closes_its_files(tmp_path):
    base, ft, names = stepped_trio(tmp_path)
    files = open_files()
    shapes = base.shapes

    def prune(epsilon):
        return tvec.prune_and_rescale(
            tvec.deltas(base, [ft]),
            shapes, ["ft"], 0.5, epsilon, tvec.Scratch(shapes.values()),
        )

    # Stopping the last pass early.
    _, vectors = prune(1e-8)
    block, (values,) = next(vectors)
    assert block.name == names[0]
    vectors.close()
    assert open_files() == files
    # A read error inside tensor t2 of the select pass, after t0 and t1.
    t2 = ft.entries["t2"]
    os.truncate(ft.path, ft.data_start + t2.data_offsets[0] + t2.num_bytes // 2)
    with pytest.raises(TruncatedFileError, match="'t2'"):
        prune(None)
    assert open_files() == files
    yielded = []
    with pytest.raises(TruncatedFileError, match="'t2'"):
        for block, _ in tvec.deltas(base, [ft])():
            yielded.append(block.name)
    assert yielded == names[:2]
    assert open_files() == files


# --- norms ----------------------------------------------------------------------


def test_norm_three_four_five():
    assert tvec.global_l2_norm(vec([3.0, 4.0]), {}) == 5.0


def test_norm_zero():
    assert tvec.global_l2_norm(vec([0.0, 0.0]), {}) == 0.0


def test_norm_across_tensors_matches_flat_pass():
    tv = multi(a=[1.0, 2.0], b=[2.0])
    assert tvec.global_l2_norm(tv, {}) == 3.0
    flat = np.concatenate([tv.tensors["a"], tv.tensors["b"]])
    assert tvec.global_l2_norm(tv, {}) == math.sqrt(float(np.sum(flat * flat)))


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
    got = tvec.sparsify_and_rescale(vec([3.0, -1.0, 0.5, 2.0]), 0.5, 1e-8)
    assert got.sparsity.original_norm == math.sqrt(14.25)
    assert got.sparsity.rescale_gamma == pytest.approx(1.04697365777438672, rel=1e-12)
    assert got.tensors["w"][0] == pytest.approx(3.14092097332316016, rel=1e-12)
    assert got.tensors["w"][3] == pytest.approx(2.09394731554877344, rel=1e-12)
    assert got.tensors["w"][1] == 0.0 and got.tensors["w"][2] == 0.0


@pytest.mark.parametrize("epsilon", [0.0, -1.0, math.nan, math.inf])
def test_rescale_rejects_epsilon_that_is_not_finite_and_positive(epsilon):
    with pytest.raises(ValueError, match="epsilon"):
        tvec.sparsify_and_rescale(vec([3.0, 4.0]), 0.5, epsilon)


def test_rescale_identity_when_norm_matches():
    got = tvec.sparsify_and_rescale(vec([3.0, 4.0]), 1.0, 1e-12)
    assert got.sparsity.rescale_gamma == pytest.approx(1.0, abs=1e-6)


def test_rescale_degenerate_warns():
    with pytest.warns(DegenerateRescaleWarning, match="gamma = 0"):
        got = tvec.sparsify_and_rescale(vec([0.0, 0.0]), 1.0, 1e-8)
    assert got.sparsity.rescale_gamma == 0.0
    assert got.tensors["w"].tolist() == [0.0, 0.0]


def test_norm_preservation_property():
    rng = np.random.default_rng(77)
    for p in [0.1, 0.3, 0.7, 1.0]:
        values = rng.standard_normal(2000)
        tv = vec(values)
        original = tvec.global_l2_norm(tv, {})
        out = tvec.sparsify_and_rescale(tv, p, epsilon=1e-8)
        assert abs(tvec.global_l2_norm(out, {}) - original) / original <= 1e-6


def test_sparsify_and_rescale_allocates_one_array_per_tensor():
    # 64 tensors of 16k values: the result's arrays are the only vector-sized
    # allocation; the rescale multiplies them in place, not into a copy.
    rng = np.random.default_rng(21)
    tv = multi(**{f"t{i:02d}": rng.standard_normal(1 << 14) for i in range(64)})
    before = {name: values.tobytes() for name, values in tv.tensors.items()}
    tensor_bytes = (1 << 14) * 8
    tracemalloc.start()
    try:
        out = tvec.sparsify_and_rescale(tv, 0.3, epsilon=CONFIG.epsilon)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 64 * tensor_bytes + 4 * tensor_bytes + (1 << 20), peak
    assert {name: values.tobytes() for name, values in tv.tensors.items()} == before
    assert out.sparsity.rescale_gamma > 1.0
    support = sum(np.count_nonzero(values) for values in out.tensors.values())
    assert support == tvec.retained_target(0.3, 64 << 14)


# --- merge ------------------------------------------------------------------------


def test_merge_direct_arithmetic(tmp_path):
    base = write_checkpoint(tmp_path / "b.safetensors", {"w": [1.0, 1.0]})
    t1 = vec([1.0, 0.0])
    t2 = vec([0.0, 2.0])
    tvec.merge(base, [(t1, 0.5), (t2, 0.25)], tmp_path / "m.safetensors", out_dtype=None)
    merged = archive.open_archive(tmp_path / "m.safetensors")
    assert archive.read_tensor(merged, "w", out=None).values.tolist() == [1.5, 1.5]


def test_merge_zero_coefficients_is_base(tmp_path):
    rng = np.random.default_rng(4)
    values = rng.standard_normal(64)
    base = write_checkpoint(tmp_path / "b.safetensors", {"w": values})
    terms = [(vec(rng.standard_normal(64)), 0.0)]
    tvec.merge(base, terms, tmp_path / "m.safetensors", out_dtype=None)
    merged = archive.open_archive(tmp_path / "m.safetensors")
    assert read_tensor_bytes(merged, "w") == read_tensor_bytes(base, "w")


def test_merge_reconstructs_finetuned(tmp_path):
    rng = np.random.default_rng(6)
    b = rng.standard_normal(256)
    f = rng.standard_normal(256)
    base = write_checkpoint(tmp_path / "b.safetensors", {"w": b})
    ft = write_checkpoint(tmp_path / "f.safetensors", {"w": f})
    tv = tvec.extract_task_vector(base, ft)
    tvec.merge(base, [(tv, 1.0)], tmp_path / "m.safetensors", out_dtype=None)
    merged = archive.open_archive(tmp_path / "m.safetensors")
    assert read_tensor_bytes(merged, "w") == read_tensor_bytes(ft, "w")


def test_merge_linearity(tmp_path):
    rng = np.random.default_rng(8)
    base = write_checkpoint(tmp_path / "b.safetensors", {"w": rng.standard_normal(50)})
    tv = vec(rng.standard_normal(50))
    tvec.merge(base, [(tv, 0.75)], tmp_path / "m1.safetensors", out_dtype=None)
    tvec.merge(base, [(tv, 0.5), (tv, 0.25)], tmp_path / "m2.safetensors", out_dtype=None)
    once = archive.open_archive(tmp_path / "m1.safetensors")
    twice = archive.open_archive(tmp_path / "m2.safetensors")
    a = archive.read_tensor(once, "w", out=None).values
    b = archive.read_tensor(twice, "w", out=None).values
    np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-14)


def test_merge_combines_in_place_with_the_bits_of_the_plain_sum(tmp_path, monkeypatch):
    # Values across many binades, with signed zeros and subnormals; one
    # resident and one stored term; tensors smaller and larger than the
    # first, and one of three blocks, so each reuses the accumulator and term
    # buffers.
    rng = np.random.default_rng(5)

    def spread(size):
        values = rng.standard_normal(size) * 10.0 ** rng.uniform(-20, 20, size)
        values[:4] = [0.0, -0.0, 5e-324, -2.2e-308]
        return values

    sizes = {"a": 3000, "b": 17, "c": 2 * BLOCK + 8}
    base = write_checkpoint(tmp_path / "b.safetensors", {n: spread(s) for n, s in sizes.items()})
    resident = multi(**{n: spread(s) for n, s in sizes.items()})
    tvec.save_task_vector(multi(**{n: spread(s) for n, s in sizes.items()}), tmp_path / "t.safetensors")
    stored = tvec.StoredVector(tmp_path / "t.safetensors")
    reloaded = tvec.load_task_vector(tmp_path / "t.safetensors")
    combined = {}
    original = tvec.write_archive

    def capture(entries, path, *args):
        def recorded(name, values):
            def blocks():
                parts = [block.copy() for block in values()]
                combined[name] = np.concatenate(parts)
                return parts

            return blocks

        entries = [(name, dtype, shape, recorded(name, values)) for name, dtype, shape, values in entries]
        return original(entries, path, *args)

    monkeypatch.setattr(tvec, "write_archive", capture)
    for coeffs in [(0.0, 0.0), (-0.0, 1.0), (-1.5, 0.7), (3.0e-5, -2.25), (1e10, -1e-10)]:
        terms = [(resident, coeffs[0]), (stored, coeffs[1])]
        tvec.merge(base, terms, tmp_path / "m.safetensors", out_dtype=None)
        for name in sizes:
            want = archive.read_tensor(base, name, out=None).values
            for tensor, coeff in ((resident.tensors[name], coeffs[0]), (reloaded.tensors[name], coeffs[1])):
                want = want + coeff * tensor
            assert np.array_equal(combined[name].view(np.uint64), want.view(np.uint64)), (coeffs, name)


def test_merge_shape_mismatch(tmp_path):
    base = write_checkpoint(tmp_path / "b.safetensors", {"w": [1.0, 1.0]})
    out = tmp_path / "m.safetensors"
    with pytest.raises(ShapeMismatchError, match=r"'w': shape \(2,\) vs \(3,\)"):
        tvec.merge(base, [(vec([1.0, 2.0, 3.0]), 1.0)], out, out_dtype=None)
    # A name mismatch lists the first five differing names.
    base = write_checkpoint(tmp_path / "b7.safetensors", {name: [1.0] for name in "gfedcba"})
    with pytest.raises(NameSetMismatchError, match=r"\['a', 'b', 'c', 'd', 'e'\]$"):
        tvec.merge(base, [(vec([1.0], name="w"), 1.0)], out, out_dtype=None)
    assert not out.exists()


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
