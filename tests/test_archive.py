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
    DtypeOverflowError,
    DuplicateNameError,
    IoFailureError,
    MalformedHeaderError,
    NameNotFoundError,
    OverlappingRegionsError,
    ShapeMismatchError,
    TruncatedFileError,
    UnknownDtypeError,
)
from tvfuse.task_vector import StoredVector, lockstep


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
    assert archive.read_tensor(arc, "w", out=None).values.tolist() == [1.0]


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


def _entry(**fields) -> dict:
    return {"dtype": "F32", "shape": [1], "data_offsets": [0, 4], **fields}


# Each case: the file's bytes, the error and the text its message holds.
BAD_FILES = {
    "short-prefix": (b"\x00" * 3, TruncatedFileError, "8-byte length prefix"),
    "header-array": (build_raw([1], b""), MalformedHeaderError, "not a JSON object"),
    "metadata-number-value": (
        build_raw({"__metadata__": {"k": 1}, "a": _entry()}, b"\x00" * 4),
        MalformedHeaderError,
        "string-to-string map",
    ),
    "empty-name": (build_raw({"": _entry()}, b"\x00" * 4), MalformedHeaderError, "empty tensor name"),
    "entry-array": (build_raw({"a": [1]}, b""), MalformedHeaderError, "not an object"),
    "entry-without-offsets": (
        build_raw({"a": {"dtype": "F32", "shape": [1]}}, b"\x00" * 4), MalformedHeaderError, "missing"
    ),
    "negative-dimension": (
        build_raw({"a": _entry(shape=[-1])}, b"\x00" * 4), MalformedHeaderError, "invalid shape"
    ),
    "bool-dimension": (
        build_raw({"a": _entry(shape=[True])}, b"\x00" * 4), MalformedHeaderError, "invalid shape"
    ),
    "offsets-reversed": (
        build_raw({"a": _entry(data_offsets=[4, 0])}, b"\x00" * 4),
        MalformedHeaderError,
        "invalid data_offsets",
    ),
    "offsets-three": (
        build_raw({"a": _entry(data_offsets=[0, 4, 8])}, b"\x00" * 4),
        MalformedHeaderError,
        "invalid data_offsets",
    ),
}


@pytest.mark.parametrize("case", list(BAD_FILES))
def test_malformed_file_rejected(tmp_path, case):
    raw, error, needle = BAD_FILES[case]
    path = tmp_path / "bad.safetensors"
    path.write_bytes(raw)
    with pytest.raises(error, match=needle):
        archive.open_archive(path)


def test_read_of_a_removed_file_is_an_io_failure(tmp_path):
    path = tmp_path / "gone.safetensors"
    archive.write_archive([("w", "F32", [1], np.array([1.0]))], path)
    arc = archive.open_archive(path)
    path.unlink()
    with pytest.raises(IoFailureError, match="cannot read"):
        archive.read_tensor(arc, "w", out=None)


def test_read_of_a_file_replaced_by_a_directory_is_an_io_failure(tmp_path):
    # Opening succeeds; the positional read of the block fails.
    path = tmp_path / "gone.safetensors"
    archive.write_archive([("w", "F32", [1], np.array([1.0]))], path)
    arc = archive.open_archive(path)
    path.unlink()
    path.mkdir()
    with pytest.raises(IoFailureError, match="cannot read"):
        archive.read_tensor(arc, "w", out=None)


def _write_too_many(write):
    write(np.zeros(2))
    write(np.zeros(2))


# Each case: the specs, what is written, the error and the text its message holds.
BAD_WRITES = {
    "empty-name": ([("", "F32", [2])], lambda write: None, ValueError, "empty tensor name"),
    "unknown-dtype": ([("w", "F64", [2])], lambda write: None, UnknownDtypeError, "F64"),
    "past-the-last": ([("w", "F32", [2])], _write_too_many, ValueError, "already written"),
    "short-tensor": ([("w", "F32", [2])], lambda write: write(np.zeros(1)), ShapeMismatchError, "do not fill"),
    "overrun-in-blocks": (
        [("w", "F32", [3])],
        lambda write: [write(np.zeros(2)), write(np.zeros(2))],
        ShapeMismatchError,
        r"'w': 4 values overrun shape \(3,\)",
    ),
    "never-written": (
        [("w", "F32", [2]), ("v", "F32", [1])],
        lambda write: write(np.zeros(2)),
        ValueError,
        r"\['v'\] were not written",
    ),
}


@pytest.mark.parametrize("case", list(BAD_WRITES))
def test_write_that_does_not_fit_its_specs_leaves_no_file(tmp_path, case):
    specs, writes, error, needle = BAD_WRITES[case]
    with pytest.raises(error, match=needle):
        with archive.archive_writer(specs, tmp_path / "out.safetensors") as write:
            writes(write)
    assert not list(tmp_path.iterdir())  # neither the archive nor its .tmp sibling


# Per dtype: its largest finite value, and the least magnitude that rounds to inf.
RANGE_EDGES = {
    "F32": (float(np.finfo(np.float32).max), 2.0**128 - 2.0**103),
    "F16": (65504.0, 65520.0),
    "BF16": ((2.0 - 2.0**-7) * 2.0**127, 2.0**128 - 2.0**119),
}


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["positive", "negative"])
@pytest.mark.parametrize("dtype", list(RANGE_EDGES))
def test_write_rounds_up_to_the_edge_of_the_dtype_range(tmp_path, dtype, sign):
    largest, overflow = RANGE_EDGES[dtype]
    values = sign * np.array([np.nextafter(overflow, 0.0), largest, np.inf, np.nan])
    path = tmp_path / "edge.safetensors"
    archive.write_archive([("w", dtype, [4], values)], path)
    got = archive.read_tensor(archive.open_archive(path), "w", out=None).values
    assert got[:3].tolist() == [sign * largest, sign * largest, sign * np.inf]
    assert np.isnan(got[3])


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["positive", "negative"])
@pytest.mark.parametrize("dtype", list(RANGE_EDGES))
def test_write_refuses_a_finite_value_that_rounds_to_inf(tmp_path, dtype, sign):
    # In the third write block, after two blocks went to the file.
    values = np.zeros(3 << 14)
    values[-1] = sign * RANGE_EDGES[dtype][1]
    specs = [("v", dtype, [1], np.array([1.0])), ("w", dtype, [values.size], values)]
    needle = rf"out\.safetensors: tensor 'w' holds a finite value beyond the {dtype} range"
    with pytest.raises(DtypeOverflowError, match=needle):
        archive.write_archive(specs, tmp_path / "out.safetensors")
    assert not list(tmp_path.iterdir())  # neither the archive nor its .tmp sibling


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
        archive.read_tensor(arc, "nope", out=None)


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
    assert [block.name for block, _ in lockstep(StoredVector(path))()] == ["a", "a.1", "b"]


def test_empty_archive_iterates_nothing(tmp_path):
    path = tmp_path / "empty.safetensors"
    archive.write_archive([], path)
    assert list(lockstep(StoredVector(path))()) == []


def test_scalar_tensor(tmp_path):
    path = tmp_path / "scalar.safetensors"
    archive.write_archive([("s", "F32", [], np.array([4.5]))], path)
    arc = archive.open_archive(path)
    meta = arc.entries["s"]
    assert meta.shape == () and meta.num_bytes == 4
    assert archive.read_tensor(arc, "s", out=None).values.tolist() == [4.5]


def test_f32_write_read_bitwise(tmp_path):
    rng = np.random.default_rng(5)
    values = rng.standard_normal(10_000).astype(np.float32).astype(np.float64)
    path = tmp_path / "bits.safetensors"
    archive.write_archive([("w", "F32", [10_000], values)], path)
    arc = archive.open_archive(path)
    assert read_tensor_bytes(arc, "w") == values.astype("<f4").tobytes()
    assert np.array_equal(archive.read_tensor(arc, "w", out=None).values, values)


names_st = st.lists(
    st.text(
        alphabet=st.characters(codec="utf-8", exclude_characters="\x00"),
        min_size=1,
        max_size=12,
        # Hypothesis also draws string constants from the code under test,
        # among them the header key that no tensor may be named.
    ).filter(lambda name: name != "__metadata__"),
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
        (m.name, m.dtype, list(m.shape), archive.read_tensor(arc, m.name, out=None).values)
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
    got = archive.read_tensor(arc, "layer.w", out=None).values.reshape(4, 3)
    assert np.array_equal(got.astype(np.float32), theirs["layer.w"])
    assert np.array_equal(
        archive.read_tensor(arc, "layer.b", out=None).values.astype(np.float16), theirs["layer.b"]
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
    streamed = {block.name: values.copy() for block, (values,) in lockstep(StoredVector(path))()}
    for name in arc.entries:
        assert np.array_equal(streamed[name], archive.read_tensor(arc, name, out=None).values)


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
            fresh = archive.read_tensor(arc, name, out=None).values
            into = archive.read_tensor(arc, name, out=buffer).values
            assert into.size == 0 or np.shares_memory(into, buffer)
            assert np.array_equal(fresh.view(np.uint64), want)
            assert np.array_equal(into.view(np.uint64), want)
    with pytest.raises(ValueError, match="more than its buffer holds"):
        archive.read_tensor(arc, "b", out=np.empty(100))
