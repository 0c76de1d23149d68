"""TNS1 tensor file format.

Layout: magic bytes ``TNS1``, u8 dtype code (0 = f32, 1 = f64, 2 = u32),
u8 ndim, ndim x u64 little-endian extents, then the row-major
little-endian payload.

Writers return the sha256 of the bytes they wrote, and read_tns_sha256 that
of the bytes it read, so a caller can check a file against a recorded digest
without reading it twice. scan_tns checks a whole file in bounded chunks.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
from contextlib import contextmanager
from pathlib import Path

import numpy as np

MAGIC = b"TNS1"

_DTYPES = (np.dtype("<f4"), np.dtype("<f8"), np.dtype("<u4"))   # indexed by dtype code

_SCAN_CHUNK = 1 << 20    # bytes; a multiple of every item size


def _payload_bytes(shape, dtype) -> int:
    return math.prod(shape) * dtype.itemsize   # exact, where int64 wraps


def write_tns(path, arr: np.ndarray) -> str:
    """Write arr as one TNS1 file; returns the sha256 of the file's bytes."""
    arr = np.asarray(arr)
    return write_tns_blocks(path, arr.shape, arr.dtype, [arr])


def write_tns_blocks(path, shape, dtype, blocks) -> str:
    """Write a TNS1 file whose payload is the C-order elements of each array
    of `blocks` in turn, writing and hashing each as it comes, so a generator
    of blocks is never held whole. Returns the sha256 of the file's bytes;
    ValueError if the blocks do not fill the extents exactly."""
    dtype = np.dtype(dtype)
    if dtype.newbyteorder("<") not in _DTYPES:
        raise ValueError(f"unsupported dtype for TNS1: {dtype}")
    dtype = dtype.newbyteorder("<")
    header = MAGIC + bytes([_DTYPES.index(dtype), len(shape)])
    header += b"".join(struct.pack("<Q", e) for e in shape)
    sha = hashlib.sha256(header)
    written = 0
    with open(path, "wb") as f:
        f.write(header)
        for block in blocks:
            payload = np.ascontiguousarray(block, dtype=dtype)
            f.write(payload.data)   # the array's own buffer: no bytes copy
            sha.update(payload.data)
            written += payload.nbytes
    if written != _payload_bytes(shape, dtype):
        raise ValueError(f"{os.fspath(path)}: blocks hold {written} payload bytes, "
                         f"extents {tuple(shape)} need {_payload_bytes(shape, dtype)}")
    return sha.hexdigest()


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


def _read_header(f, path):
    """(header bytes, dtype, shape) of the open TNS1 file f, read up to its
    payload; the payload size is checked against the extents."""
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
    if payload != _payload_bytes(shape, dtype):
        raise ValueError(
            f"{os.fspath(path)}: payload size {payload} does not match "
            f"extents {shape}")
    return head + extents, dtype, shape


def _check_finite(values: np.ndarray, path) -> None:
    if values.dtype.kind == "f" and not np.all(np.isfinite(values)):
        raise ValueError(f"{os.fspath(path)}: non-finite values in tensor payload")


def read_tns(path) -> np.ndarray:
    """Read a TNS1 file straight into its array; the payload size is checked
    against the extents before anything is allocated."""
    return read_tns_sha256(path)[0]


def read_tns_sha256(path) -> tuple:
    """read_tns, and the sha256 of the bytes that went into the array."""
    with open(path, "rb") as f:
        header, dtype, shape = _read_header(f, path)
        arr = np.empty(shape, dtype=dtype)
        if f.readinto(arr) != arr.nbytes:
            raise ValueError(f"{os.fspath(path)}: payload shorter than its extents {shape}")
    sha = hashlib.sha256(header)
    sha.update(arr)     # the bytes as read, before any byte swap
    arr = arr.astype(dtype.newbyteorder("="), copy=False)
    _check_finite(arr, path)
    return arr, sha.hexdigest()


def scan_tns(path) -> str:
    """Check a TNS1 file as read_tns does, reading it in bounded chunks and
    holding no array; returns the sha256 of its bytes."""
    with open(path, "rb") as f:
        header, dtype, _ = _read_header(f, path)
        sha = hashlib.sha256(header)
        buf = np.empty(_SCAN_CHUNK // dtype.itemsize, dtype=dtype)   # one buffer, reused
        raw = memoryview(buf).cast("B")
        while n := f.readinto(buf):
            sha.update(raw[:n])
            _check_finite(buf[:n // dtype.itemsize], path)
    return sha.hexdigest()
