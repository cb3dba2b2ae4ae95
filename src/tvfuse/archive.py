"""Streaming reader/writer for header-prefixed tensor checkpoint files.

File layout (little-endian):

    [8 bytes]  unsigned header length N
    [N bytes]  UTF-8 JSON object:
                 tensor name -> {"dtype": "F32"|"F16"|"BF16",
                                 "shape": [int, ...],
                                 "data_offsets": [begin, end]}
                 plus an optional "__metadata__" string map
    [rest]     raw data block; offsets are relative to its start

Data regions must be contiguous, non-overlapping and in ascending offset
order. The layout matches the de-facto checkpoint interchange format, so
real model checkpoints restricted to the three dtypes load unmodified.

Archives are immutable after open; reading never materializes more than one
tensor at a time.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    DuplicateNameError,
    IoFailureError,
    MalformedHeaderError,
    NameNotFoundError,
    OverlappingRegionsError,
    ShapeMismatchError,
    TruncatedFileError,
    UnknownDtypeError,
)
from .floats import DTYPE_SIZES, DTYPES, narrow_from_f64, widen_to_f64

_HEADER_LEN_BYTES = 8
_METADATA_KEY = "__metadata__"


@dataclass(frozen=True)
class TensorMeta:
    """Shape/dtype/placement of one tensor inside the data block."""

    name: str
    dtype: str
    shape: tuple[int, ...]
    data_offsets: tuple[int, int]

    @property
    def num_elements(self) -> int:
        return math.prod(self.shape)

    @property
    def num_bytes(self) -> int:
        return self.data_offsets[1] - self.data_offsets[0]


@dataclass(frozen=True)
class TensorData:
    """One tensor materialized as a flat row-major float64 buffer."""

    meta: TensorMeta
    values: np.ndarray


@dataclass
class TensorArchive:
    """Parsed header of a tensor file; data stays on disk until read."""

    path: Path
    entries: dict[str, TensorMeta]
    metadata: dict[str, str] = field(default_factory=dict)
    data_start: int = 0

    @property
    def names(self) -> list[str]:
        return list(self.entries)

    def __contains__(self, name: str) -> bool:
        return name in self.entries


def _require_str_map(obj: object, what: str) -> dict[str, str]:
    if not isinstance(obj, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in obj.items()
    ):
        raise MalformedHeaderError(f"{what} must be a string-to-string map")
    return dict(obj)


def _parse_entry(name: str, spec: object) -> TensorMeta:
    if not name:
        raise MalformedHeaderError("empty tensor name")
    if not isinstance(spec, dict):
        raise MalformedHeaderError(f"entry for {name!r} is not an object")
    try:
        dtype = spec["dtype"]
        shape = spec["shape"]
        offsets = spec["data_offsets"]
    except KeyError as exc:
        raise MalformedHeaderError(f"entry for {name!r} is missing {exc}") from None
    if dtype not in DTYPES:
        raise UnknownDtypeError(f"tensor {name!r} has unsupported dtype {dtype!r}")
    if not isinstance(shape, list) or not all(
        isinstance(d, int) and not isinstance(d, bool) and d >= 0 for d in shape
    ):
        raise MalformedHeaderError(f"tensor {name!r} has invalid shape {shape!r}")
    if (
        not isinstance(offsets, list)
        or len(offsets) != 2
        or not all(isinstance(o, int) and not isinstance(o, bool) and o >= 0 for o in offsets)
        or offsets[1] < offsets[0]
    ):
        raise MalformedHeaderError(f"tensor {name!r} has invalid data_offsets {offsets!r}")
    meta = TensorMeta(name, dtype, tuple(shape), (offsets[0], offsets[1]))
    expected = meta.num_elements * DTYPE_SIZES[dtype]
    if meta.num_bytes != expected:
        raise MalformedHeaderError(
            f"tensor {name!r}: region is {meta.num_bytes} bytes, "
            f"shape and dtype require {expected}"
        )
    return meta


def _validate_layout(entries: Sequence[TensorMeta]) -> None:
    """Regions must tile the data block: start at 0, contiguous, no overlap."""
    cursor = 0
    for meta in entries:
        begin, end = meta.data_offsets
        if begin < cursor:
            raise OverlappingRegionsError(
                f"tensor {meta.name!r} begins at {begin}, overlapping byte {cursor}"
            )
        if begin > cursor:
            raise MalformedHeaderError(
                f"gap of {begin - cursor} bytes before tensor {meta.name!r}"
            )
        cursor = end


def open_archive(path: str | Path) -> TensorArchive:
    """Parse and validate an archive header without reading tensor data."""
    path = Path(path)
    try:
        file_size = path.stat().st_size
        with open(path, "rb") as fh:
            prefix = fh.read(_HEADER_LEN_BYTES)
            if len(prefix) < _HEADER_LEN_BYTES:
                raise TruncatedFileError(f"{path}: shorter than the 8-byte length prefix")
            (header_len,) = struct.unpack("<Q", prefix)
            if _HEADER_LEN_BYTES + header_len > file_size:
                raise TruncatedFileError(
                    f"{path}: header length {header_len} exceeds file size {file_size}"
                )
            header_bytes = fh.read(header_len)
    except OSError as exc:
        raise IoFailureError(f"cannot read {path}: {exc}") from exc

    def reject_duplicates(pairs: list[tuple[str, object]]) -> dict[str, object]:
        out: dict[str, object] = {}
        for key, value in pairs:
            if key in out:
                raise DuplicateNameError(f"duplicate header key {key!r}")
            out[key] = value
        return out

    try:
        header = json.loads(header_bytes.decode("utf-8"), object_pairs_hook=reject_duplicates)
    except DuplicateNameError:
        raise
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MalformedHeaderError(f"{path}: header is not a UTF-8 JSON object: {exc}") from exc
    if not isinstance(header, dict):
        raise MalformedHeaderError(f"{path}: header is not a JSON object")

    metadata: dict[str, str] = {}
    if _METADATA_KEY in header:
        metadata = _require_str_map(header.pop(_METADATA_KEY), _METADATA_KEY)

    entries = [_parse_entry(name, spec) for name, spec in header.items()]
    # Header key order is not trusted; the offsets define the layout.
    entries.sort(key=lambda m: m.data_offsets[0])
    _validate_layout(entries)

    data_start = _HEADER_LEN_BYTES + header_len
    data_size = entries[-1].data_offsets[1] if entries else 0
    if data_start + data_size > file_size:
        raise TruncatedFileError(
            f"{path}: data block needs {data_size} bytes, file has {file_size - data_start}"
        )
    if data_start + data_size < file_size:
        raise MalformedHeaderError(
            f"{path}: {file_size - data_start - data_size} trailing bytes after the data block"
        )

    return TensorArchive(
        path=path,
        entries={m.name: m for m in entries},
        metadata=metadata,
        data_start=data_start,
    )


def read_tensor(archive: TensorArchive, name: str) -> TensorData:
    """Read one tensor and widen it exactly to float64."""
    try:
        meta = archive.entries[name]
    except KeyError:
        raise NameNotFoundError(f"tensor {name!r} not in {archive.path}") from None
    try:
        with open(archive.path, "rb") as fh:
            fh.seek(archive.data_start + meta.data_offsets[0])
            raw = fh.read(meta.num_bytes)
    except OSError as exc:
        raise IoFailureError(f"cannot read {archive.path}: {exc}") from exc
    if len(raw) != meta.num_bytes:
        raise TruncatedFileError(f"{archive.path}: tensor {name!r} data is truncated")
    return TensorData(meta=meta, values=widen_to_f64(raw, meta.dtype))


def read_tensor_bytes(archive: TensorArchive, name: str) -> bytes:
    """Raw stored bytes of one tensor, for bit-exact comparisons."""
    try:
        meta = archive.entries[name]
    except KeyError:
        raise NameNotFoundError(f"tensor {name!r} not in {archive.path}") from None
    with open(archive.path, "rb") as fh:
        fh.seek(archive.data_start + meta.data_offsets[0])
        return fh.read(meta.num_bytes)


def byte_sorted(names: Iterable[str]) -> list[str]:
    """Names in ascending byte-wise UTF-8 order, the one order every
    cross-tensor reduction and every write uses."""
    return sorted(names, key=lambda s: s.encode("utf-8"))


def iter_tensors(archive: TensorArchive) -> Iterator[tuple[str, TensorData]]:
    """Yield tensors in ascending byte-wise name order, one at a time."""
    for name in byte_sorted(archive.entries):
        yield name, read_tensor(archive, name)


def write_archive(
    entries: Iterable[tuple[str, str, Sequence[int], "np.ndarray | Callable[[], np.ndarray]"]],
    path: str | Path,
    metadata: dict[str, str] | None = None,
) -> None:
    """Write (name, dtype, shape, float64 values) entries to a new archive.

    The data block is laid out in entry order with no padding; values are
    narrowed to the storage dtype with round-to-nearest-even. Offsets come
    from shape and dtype alone, so values may be zero-argument callables
    that are materialized one tensor at a time while writing. The file is
    written to a temp sibling and renamed, so readers never see a partial
    archive.
    """
    path = Path(path)
    header: dict[str, object] = {}
    if metadata is not None:
        header[_METADATA_KEY] = _require_str_map(metadata, _METADATA_KEY)

    specs: list[tuple[str, str, tuple[int, ...], object]] = []
    cursor = 0
    for name, dtype, shape, values in entries:
        if not name:
            raise ValueError("empty tensor name")
        if name in header:
            raise DuplicateNameError(f"duplicate tensor name {name!r}")
        if dtype not in DTYPES:
            raise UnknownDtypeError(f"tensor {name!r}: unsupported dtype {dtype!r}")
        shape = tuple(int(d) for d in shape)
        num_bytes = math.prod(shape) * DTYPE_SIZES[dtype]
        header[name] = {
            "dtype": dtype,
            "shape": list(shape),
            "data_offsets": [cursor, cursor + num_bytes],
        }
        specs.append((name, dtype, shape, values))
        cursor += num_bytes

    header_bytes = json.dumps(header, ensure_ascii=False, separators=(",", ":")).encode("utf-8")
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(struct.pack("<Q", len(header_bytes)))
            fh.write(header_bytes)
            for name, dtype, shape, values in specs:
                resolved = values() if callable(values) else values
                flat = np.ascontiguousarray(resolved, dtype=np.float64).reshape(-1)
                if flat.size != math.prod(shape):
                    raise ShapeMismatchError(
                        f"tensor {name!r}: {flat.size} values do not fill shape {shape}"
                    )
                fh.write(narrow_from_f64(flat, dtype))
        os.replace(tmp, path)
    except OSError as exc:
        tmp.unlink(missing_ok=True)
        raise IoFailureError(f"cannot write {path}: {exc}") from exc
    except Exception:
        tmp.unlink(missing_ok=True)
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write `text` verbatim as UTF-8 to a temp sibling, then rename it over `path`."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8", newline="")
    os.replace(tmp, path)
