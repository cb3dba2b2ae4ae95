from __future__ import annotations

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import archive_bytes, read_tensor_bytes, stored_patterns, widen
from tvfuse import archive
from tvfuse.errors import (
    DuplicateNameError,
    MalformedHeaderError,
    NameNotFoundError,
    OverlappingRegionsError,
    TruncatedFileError,
    UnknownDtypeError,
)
from tvfuse.task_vector import StoredVector


def build_raw(header: dict, data: bytes) -> bytes:
    blob = json.dumps(header).encode("utf-8")
    return struct.pack("<Q", len(blob)) + blob + data


def test_minimal_single_tensor(tmp_path):
    path = tmp_path / "one.safetensors"
    archive.write_archive([("w", "F32", [1], np.array([1.0]))], path)
    arc = archive.open_archive(path)
    assert list(arc.entries) == ["w"]
    meta = arc.entries["w"]
    assert meta.dtype == "F32" and meta.shape == (1,) and meta.num_bytes == 4
    assert archive.read_tensor(arc, "w").values.tolist() == [1.0]


def test_metadata_round_trip(tmp_path):
    path = tmp_path / "meta.safetensors"
    with archive.archive_writer([("w", "F32", [2])], path, {"origin": "unit-test"}) as write:
        write(np.array([1.0, 2.0]))
    arc = archive.open_archive(path)
    assert arc.metadata == {"origin": "unit-test"}


def test_overlapping_regions_rejected(tmp_path):
    header = {
        "a": {"dtype": "F32", "shape": [2], "data_offsets": [0, 8]},
        "b": {"dtype": "F32", "shape": [2], "data_offsets": [4, 12]},
    }
    path = tmp_path / "overlap.safetensors"
    path.write_bytes(build_raw(header, b"\x00" * 12))
    with pytest.raises(OverlappingRegionsError):
        archive.open_archive(path)


def test_gap_between_regions_rejected(tmp_path):
    header = {
        "a": {"dtype": "F32", "shape": [1], "data_offsets": [0, 4]},
        "b": {"dtype": "F32", "shape": [1], "data_offsets": [8, 12]},
    }
    path = tmp_path / "gap.safetensors"
    path.write_bytes(build_raw(header, b"\x00" * 12))
    with pytest.raises(MalformedHeaderError):
        archive.open_archive(path)


def test_unknown_dtype_rejected(tmp_path):
    header = {"a": {"dtype": "I8", "shape": [4], "data_offsets": [0, 4]}}
    path = tmp_path / "dtype.safetensors"
    path.write_bytes(build_raw(header, b"\x00" * 4))
    with pytest.raises(UnknownDtypeError):
        archive.open_archive(path)


def test_truncated_data_rejected(tmp_path):
    header = {"a": {"dtype": "F32", "shape": [4], "data_offsets": [0, 16]}}
    path = tmp_path / "short.safetensors"
    path.write_bytes(build_raw(header, b"\x00" * 7))
    with pytest.raises(TruncatedFileError):
        archive.open_archive(path)


def test_trailing_bytes_rejected(tmp_path):
    header = {"a": {"dtype": "F32", "shape": [1], "data_offsets": [0, 4]}}
    path = tmp_path / "long.safetensors"
    path.write_bytes(build_raw(header, b"\x00" * 9))
    with pytest.raises(MalformedHeaderError):
        archive.open_archive(path)


def test_bad_length_prefix_rejected(tmp_path):
    path = tmp_path / "huge.safetensors"
    path.write_bytes(struct.pack("<Q", 1 << 40) + b"{}")
    with pytest.raises(TruncatedFileError):
        archive.open_archive(path)


def test_header_not_json_rejected(tmp_path):
    path = tmp_path / "garbled.safetensors"
    blob = b"not json at all"
    path.write_bytes(struct.pack("<Q", len(blob)) + blob)
    with pytest.raises(MalformedHeaderError):
        archive.open_archive(path)


def test_duplicate_header_key_rejected(tmp_path):
    blob = b'{"a":{"dtype":"F32","shape":[1],"data_offsets":[0,4]},"a":{"dtype":"F32","shape":[1],"data_offsets":[4,8]}}'
    path = tmp_path / "dup.safetensors"
    path.write_bytes(struct.pack("<Q", len(blob)) + blob + b"\x00" * 8)
    with pytest.raises(DuplicateNameError):
        archive.open_archive(path)


def test_byte_length_mismatch_rejected(tmp_path):
    header = {"a": {"dtype": "F32", "shape": [3], "data_offsets": [0, 8]}}
    path = tmp_path / "mismatch.safetensors"
    path.write_bytes(build_raw(header, b"\x00" * 8))
    with pytest.raises(MalformedHeaderError):
        archive.open_archive(path)


def test_write_rejects_duplicate_names(tmp_path):
    with pytest.raises(DuplicateNameError):
        archive.write_archive(
            [("w", "F32", [1], np.array([1.0])), ("w", "F32", [1], np.array([2.0]))],
            tmp_path / "dup.safetensors",
        )


@pytest.mark.parametrize("metadata", [None, {"k": "v"}])
def test_write_rejects_reserved_metadata_name_before_writing(tmp_path, metadata):
    path = tmp_path / "reserved.safetensors"
    with pytest.raises(ValueError, match="__metadata__"):
        with archive.archive_writer([("__metadata__", "F32", [2])], path, metadata) as write:
            write(np.zeros(2))
    assert not list(tmp_path.iterdir())  # neither the archive nor its .tmp sibling


def test_missing_tensor_name(tmp_path):
    path = tmp_path / "one.safetensors"
    archive.write_archive([("w", "F32", [1], np.array([1.0]))], path)
    arc = archive.open_archive(path)
    with pytest.raises(NameNotFoundError):
        archive.read_tensor(arc, "nope")


def test_iter_order_is_bytewise_lexicographic(tmp_path):
    path = tmp_path / "order.safetensors"
    archive.write_archive(
        [
            ("b", "F32", [1], np.array([2.0])),
            ("a", "F32", [1], np.array([1.0])),
            ("a.1", "F32", [1], np.array([3.0])),
        ],
        path,
    )
    assert [name for name, _ in StoredVector(path).arrays()] == ["a", "a.1", "b"]


def test_empty_archive_iterates_nothing(tmp_path):
    path = tmp_path / "empty.safetensors"
    archive.write_archive([], path)
    assert list(StoredVector(path).arrays()) == []


def test_scalar_tensor(tmp_path):
    path = tmp_path / "scalar.safetensors"
    archive.write_archive([("s", "F32", [], np.array([4.5]))], path)
    arc = archive.open_archive(path)
    meta = arc.entries["s"]
    assert meta.shape == () and meta.num_bytes == 4
    assert archive.read_tensor(arc, "s").values.tolist() == [4.5]


def test_f32_write_read_bitwise(tmp_path):
    rng = np.random.default_rng(5)
    values = rng.standard_normal(10_000).astype(np.float32).astype(np.float64)
    path = tmp_path / "bits.safetensors"
    archive.write_archive([("w", "F32", [10_000], values)], path)
    arc = archive.open_archive(path)
    assert read_tensor_bytes(arc, "w") == values.astype("<f4").tobytes()
    assert np.array_equal(archive.read_tensor(arc, "w").values, values)


names_st = st.lists(
    st.text(
        alphabet=st.characters(codec="utf-8", exclude_characters="\x00"),
        min_size=1,
        max_size=12,
    ),
    min_size=1,
    max_size=5,
    unique=True,
)


@settings(max_examples=40, deadline=None)
@given(names=names_st, seed=st.integers(0, 2**31 - 1))
def test_round_trip_property(tmp_path_factory, names, seed):
    rng = np.random.default_rng(seed)
    dtypes = ["F32", "F16", "BF16"]
    entries = []
    for i, name in enumerate(names):
        dtype = dtypes[rng.integers(0, 3)]
        shape = [int(d) for d in rng.integers(0, 5, size=rng.integers(0, 3))]
        count = int(np.prod(shape))
        entries.append((name, dtype, shape, rng.standard_normal(count)))
    path = tmp_path_factory.mktemp("rt") / "arc.safetensors"
    archive.write_archive(entries, path)
    arc = archive.open_archive(path)

    assert set(arc.entries) == set(names)
    # Re-write what was read: the second file must be byte-identical content-wise.
    reread = [
        (m.name, m.dtype, list(m.shape), archive.read_tensor(arc, m.name).values)
        for m in arc.entries.values()
    ]
    path2 = path.with_name("arc2.safetensors")
    archive.write_archive(reread, path2)
    arc2 = archive.open_archive(path2)
    for name in names:
        assert arc.entries[name].dtype == arc2.entries[name].dtype
        assert arc.entries[name].shape == arc2.entries[name].shape
        assert read_tensor_bytes(arc, name) == read_tensor_bytes(arc2, name)


def test_interop_with_reference_library(tmp_path):
    # The layout is the de-facto checkpoint interchange format; cross-check
    # both directions against the reference implementation when available.
    st = pytest.importorskip("safetensors.numpy")
    theirs = {
        "layer.w": np.random.default_rng(0).standard_normal((4, 3)).astype(np.float32),
        "layer.b": np.random.default_rng(1).standard_normal(3).astype(np.float16),
    }
    their_path = tmp_path / "theirs.safetensors"
    st.save_file(theirs, str(their_path), metadata={"source": "external"})
    arc = archive.open_archive(their_path)
    assert arc.metadata == {"source": "external"}
    got = archive.read_tensor(arc, "layer.w").values.reshape(4, 3)
    assert np.array_equal(got.astype(np.float32), theirs["layer.w"])
    assert np.array_equal(
        archive.read_tensor(arc, "layer.b").values.astype(np.float16), theirs["layer.b"]
    )

    values = np.random.default_rng(2).standard_normal(10).astype(np.float32).astype(np.float64)
    our_path = tmp_path / "ours.safetensors"
    archive.write_archive([("w", "F32", [10], values)], our_path)
    back = st.load_file(str(our_path))
    assert np.array_equal(back["w"].astype(np.float64), values)


def test_streaming_equals_individual_reads(tmp_path):
    rng = np.random.default_rng(9)
    entries = [
        ("t0", "F32", [7], rng.standard_normal(7)),
        ("t1", "BF16", [3, 2], rng.standard_normal(6)),
        ("t2", "F16", [4], rng.standard_normal(4)),
    ]
    path = tmp_path / "stream.safetensors"
    archive.write_archive(entries, path)
    arc = archive.open_archive(path)
    streamed = dict(StoredVector(path).arrays())
    for name in arc.entries:
        assert np.array_equal(streamed[name], archive.read_tensor(arc, name).values)


@pytest.mark.parametrize("dtype", ["F32", "F16", "BF16"])
def test_read_into_a_buffer_matches_a_fresh_read_bit_for_bit(tmp_path, dtype):
    # Every class of stored value, NaN payloads included, in tensors smaller
    # and larger than the widening block.
    width = 4 if dtype == "F32" else 2
    stored = {name: stored_patterns(dtype, count) for name, count in (("a", 12), ("b", 40_000), ("c", 0))}
    path = tmp_path / "patterns.safetensors"
    path.write_bytes(archive_bytes([(name, dtype, (len(raw) // width,), raw) for name, raw in stored.items()]))
    arc = archive.open_archive(path)
    buffer = np.full(50_000, np.pi)
    with np.errstate(invalid="ignore"):  # casting a signalling NaN quiets it
        for name, raw in stored.items():
            want = widen(raw, dtype).view(np.uint64)
            fresh = archive.read_tensor(arc, name).values
            into = archive.read_tensor(arc, name, out=buffer).values
            assert into.size == 0 or np.shares_memory(into, buffer)
            assert np.array_equal(fresh.view(np.uint64), want)
            assert np.array_equal(into.view(np.uint64), want)
    with pytest.raises(ValueError, match="more than its buffer holds"):
        archive.read_tensor(arc, "b", out=np.empty(100))
