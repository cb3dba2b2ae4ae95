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
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    ConfigError,
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
from .floats import DTYPE_SIZES, DTYPES, narrow_from_f64, overflows, widen_to_f64

_HEADER_LEN_BYTES = 8
_METADATA_KEY = "__metadata__"
# Values narrowed and written at a time: narrowing holds one block's
# storage bytes, not a whole tensor's.
_WRITE_BLOCK = 1 << 14


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
    metadata: dict[str, str]
    data_start: int

    @property
    def shapes(self) -> dict[str, tuple[int, ...]]:
        return {name: meta.shape for name, meta in self.entries.items()}


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


def read_tensor(archive: TensorArchive, name: str, out: np.ndarray | None) -> TensorData:
    """Read one tensor and widen it exactly to float64: into a new array, or
    into the front of `out`, a flat float64 array at least as large as the
    tensor, whose values are then a view of `out`.

    Into `out`, the stored bytes are read into the tail of the values' own
    memory and widened in place (`widen_to_f64`), so a read needs no other
    buffer.
    """
    try:
        meta = archive.entries[name]
    except KeyError:
        raise NameNotFoundError(f"tensor {name!r} not in {archive.path}") from None
    values = None
    if out is not None:
        values = out[: meta.num_elements]
        if values.size != meta.num_elements:
            raise ValueError(f"tensor {name!r} has {meta.num_elements} values, more than its buffer holds")
    try:
        with open(archive.path, "rb") as fh:
            fh.seek(archive.data_start + meta.data_offsets[0])
            if values is None:
                raw = fh.read(meta.num_bytes)
                got = len(raw)
            else:
                raw = values.view(np.uint8)[values.nbytes - meta.num_bytes :]
                got = fh.readinto(raw)
    except OSError as exc:
        raise IoFailureError(f"cannot read {archive.path}: {exc}") from exc
    if got != meta.num_bytes:
        raise TruncatedFileError(f"{archive.path}: tensor {name!r} data is truncated")
    return TensorData(meta=meta, values=widen_to_f64(raw, meta.dtype, out=values))


def byte_sorted(names: Iterable[str]) -> list[str]:
    """Names in ascending byte-wise UTF-8 order, the one order every
    cross-tensor reduction and every write uses."""
    return sorted(names, key=lambda s: s.encode("utf-8"))


def write_archive(
    entries: Iterable[tuple[str, str, Sequence[int], "np.ndarray | Callable[[], np.ndarray]"]],
    path: str | Path,
) -> None:
    """Write (name, dtype, shape, float64 values) entries to a new archive,
    without metadata, through `archive_writer`. Values may be zero-argument
    callables, which are materialized one tensor at a time while writing."""
    entries = list(entries)
    with archive_writer([entry[:3] for entry in entries], path) as write:
        for *_, values in entries:
            write(values() if callable(values) else values)


@contextmanager
def archive_writer(
    specs: Iterable[tuple[str, str, Sequence[int]]],
    path: str | Path,
    metadata: dict[str, str] | None = None,
) -> Iterator[Callable[[np.ndarray], None]]:
    """Open a new archive of (name, dtype, shape) tensors and yield a function
    that writes the next tensor's float64 values, in spec order.

    The data block is laid out in spec order with no padding; values are
    narrowed to the storage dtype with round-to-nearest-even, one block of
    `_WRITE_BLOCK` values at a time. A finite value that would round to inf
    raises DtypeOverflowError; inf and NaN are written as they are. Offsets come
    from shape and dtype alone, so the header is written first and each
    tensor can be dropped once written. The file is written to a temp
    sibling and renamed when the block ends with every tensor written, so
    readers never see a partial archive; on any exception it is removed.
    """
    path = Path(path)
    header: dict[str, object] = {}
    if metadata is not None:
        header[_METADATA_KEY] = _require_str_map(metadata, _METADATA_KEY)

    layout: list[tuple[str, str, tuple[int, ...]]] = []
    cursor = 0
    for name, dtype, shape in specs:
        if not name:
            raise ValueError("empty tensor name")
        if name == _METADATA_KEY:
            raise ValueError(f"tensor name {name!r} is reserved for archive metadata")
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
        layout.append((name, dtype, shape))
        cursor += num_bytes

    header_bytes = json.dumps(header, ensure_ascii=False, separators=(",", ":")).encode("utf-8")
    pending = iter(layout)
    with _replacing(path) as fh:
        fh.write(struct.pack("<Q", len(header_bytes)))
        fh.write(header_bytes)

        def write(values: np.ndarray) -> None:
            spec = next(pending, None)
            if spec is None:
                raise ValueError(f"{path}: every tensor is already written")
            name, dtype, shape = spec
            flat = np.ascontiguousarray(values, dtype=np.float64).reshape(-1)
            if flat.size != math.prod(shape):
                raise ShapeMismatchError(
                    f"tensor {name!r}: {flat.size} values do not fill shape {shape}"
                )
            for start in range(0, flat.size, _WRITE_BLOCK):
                block = flat[start : start + _WRITE_BLOCK]
                if overflows(block, dtype):
                    raise DtypeOverflowError(
                        f"{path}: tensor {name!r} holds a finite value beyond the {dtype} range"
                    )
                fh.write(narrow_from_f64(block, dtype))

        yield write
        unwritten = [name for name, _, _ in pending]
        if unwritten:
            raise ValueError(f"{path}: tensors {unwritten[:5]} were not written")


def read_json(path: str | Path, kind: str = "") -> object:
    """Parse the UTF-8 JSON file at `path`, or raise ConfigError "cannot load <kind> <path>"."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot load {f'{kind} {path}'.lstrip()}: {exc}") from exc


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write `text` verbatim as UTF-8 to a temp sibling, then rename it over `path`."""
    with _replacing(Path(path)) as fh:
        fh.write(text.encode("utf-8"))


@contextmanager
def _replacing(path: Path) -> Iterator[BinaryIO]:
    """Yield a binary file for a temp sibling of `path`, renamed over `path` on
    success. On any failure the temp file is removed, and an OSError becomes
    IoFailureError naming `path`."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except OSError as exc:
        tmp.unlink(missing_ok=True)
        raise IoFailureError(f"cannot write {path}: {exc}") from exc
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
