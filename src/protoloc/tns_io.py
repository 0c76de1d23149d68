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
    payload = np.ascontiguousarray(arr, dtype=dtype)
    with open(path, "wb") as f:
        f.write(header)
        f.write(payload.data)   # the array's own buffer: no bytes copy


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
    """Read a TNS1 file straight into its array; the payload size is checked
    against the extents before anything is allocated."""
    with open(path, "rb") as f:
        head = f.read(6)
        if len(head) < 6 or head[:4] != MAGIC:
            raise ValueError(f"{os.fspath(path)}: not a TNS1 file")
        code, ndim = head[4], head[5]
        if code >= len(_DTYPES):
            raise ValueError(f"{os.fspath(path)}: unknown dtype code {code}")
        extents = f.read(8 * ndim)
        if len(extents) < 8 * ndim:
            raise ValueError(f"{os.fspath(path)}: truncated header")
        shape = struct.unpack(f"<{ndim}Q", extents)
        dtype = _DTYPES[code]
        payload = os.fstat(f.fileno()).st_size - len(head) - len(extents)
        if payload != int(np.prod(shape, dtype=np.int64)) * dtype.itemsize:
            raise ValueError(
                f"{os.fspath(path)}: payload size {payload} does not match "
                f"extents {shape}")
        arr = np.empty(shape, dtype=dtype)
        if f.readinto(arr) != payload:
            raise ValueError(f"{os.fspath(path)}: payload shorter than its extents {shape}")
    arr = arr.astype(dtype.newbyteorder("="), copy=False)
    if dtype.kind == "f" and not np.all(np.isfinite(arr)):
        raise ValueError(f"{os.fspath(path)}: non-finite values in tensor payload")
    return arr
