"""Minimal reader and writer for the header-prefixed tensor file layout.

The benchmark writes its inputs and checks the program's outputs with this
code instead of `tvfuse.archive`, so a fault in the program's own reader or
writer cannot hide itself from the output checks.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

_NUMPY_DTYPES = {"F32": "<f4", "F16": "<f2", "BF16": "<u2"}


def write(path: Path, tensors: Iterable[tuple[str, tuple[int, ...], str, np.ndarray]]) -> None:
    """Write (name, shape, dtype, raw little-endian array) entries in order."""
    tensors = list(tensors)
    header = {}
    cursor = 0
    for name, shape, dtype, data in tensors:
        header[name] = {"dtype": dtype, "shape": list(shape), "data_offsets": [cursor, cursor + data.nbytes]}
        cursor += data.nbytes
    blob = json.dumps(header, separators=(",", ":")).encode("utf-8")
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for _, _, dtype, data in tensors:
            fh.write(np.ascontiguousarray(data, dtype=_NUMPY_DTYPES[dtype]).tobytes())
    tmp.replace(path)


def read_header(path: Path) -> tuple[dict, int]:
    with open(path, "rb") as fh:
        (length,) = struct.unpack("<Q", fh.read(8))
        header = json.loads(fh.read(length).decode("utf-8"))
    header.pop("__metadata__", None)
    return header, 8 + length


def iter_raw(path: Path) -> Iterator[tuple[str, str, np.ndarray]]:
    """(name, dtype, raw array) in byte-wise name order."""
    header, start = read_header(path)
    with open(path, "rb") as fh:
        for name in sorted(header, key=lambda s: s.encode("utf-8")):
            entry = header[name]
            begin, end = entry["data_offsets"]
            fh.seek(start + begin)
            raw = fh.read(end - begin)
            yield name, entry["dtype"], np.frombuffer(raw, dtype=_NUMPY_DTYPES[entry["dtype"]])


def widen(dtype: str, raw: np.ndarray) -> np.ndarray:
    if dtype == "BF16":
        return (raw.astype(np.uint32) << np.uint32(16)).view(np.float32).astype(np.float64)
    return raw.astype(np.float64)


def read_f64(path: Path) -> dict[str, np.ndarray]:
    return {name: widen(dtype, raw) for name, dtype, raw in iter_raw(path)}
