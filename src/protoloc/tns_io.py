"""TNS1 tensor file format.

Layout: magic bytes ``TNS1``, u8 dtype code (0 = f32, 1 = f64, 2 = u32),
u8 ndim, ndim x u64 little-endian extents, then the row-major
little-endian payload.
"""

from __future__ import annotations

import os
import struct
from contextlib import contextmanager
from pathlib import Path

import numpy as np

MAGIC = b"TNS1"

_DTYPES = (np.dtype("<f4"), np.dtype("<f8"), np.dtype("<u4"))   # indexed by dtype code


def write_tns(path, arr: np.ndarray) -> None:
    arr = np.asarray(arr)
    dtype = arr.dtype.newbyteorder("<")
    if dtype not in _DTYPES:
        raise ValueError(f"unsupported dtype for TNS1: {arr.dtype}")
    header = MAGIC + bytes([_DTYPES.index(dtype), arr.ndim])
    header += b"".join(struct.pack("<Q", e) for e in arr.shape)
    payload = arr.astype(dtype, copy=False).tobytes()
    with open(path, "wb") as f:
        f.write(header)
        f.write(payload)


@contextmanager
def replacing(path):
    """Yield a temporary path beside `path`; a clean exit moves it onto `path`
    with os.replace, an exception deletes it and leaves `path` as it was."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def read_tns(path) -> np.ndarray:
    with open(path, "rb") as f:
        data = f.read()
    if len(data) < 6 or data[:4] != MAGIC:
        raise ValueError(f"{os.fspath(path)}: not a TNS1 file")
    code, ndim = data[4], data[5]
    if code >= len(_DTYPES):
        raise ValueError(f"{os.fspath(path)}: unknown dtype code {code}")
    head_end = 6 + 8 * ndim
    if len(data) < head_end:
        raise ValueError(f"{os.fspath(path)}: truncated header")
    shape = struct.unpack(f"<{ndim}Q", data[6:head_end]) if ndim else ()
    dtype = _DTYPES[code]
    count = int(np.prod(shape, dtype=np.int64)) if ndim else 1
    expected = head_end + count * dtype.itemsize
    if len(data) != expected:
        raise ValueError(
            f"{os.fspath(path)}: payload size {len(data) - head_end} does not match "
            f"extents {shape}")
    arr = np.frombuffer(data, dtype=dtype, count=count, offset=head_end)
    arr = arr.reshape(shape).astype(dtype.newbyteorder("="))
    if dtype.kind == "f" and not np.all(np.isfinite(arr)):
        raise ValueError(f"{os.fspath(path)}: non-finite values in tensor payload")
    return arr
