import os
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from protoloc.tns_io import read_tns, read_tns_sha256, scan_tns, write_tns, write_tns_blocks


@pytest.mark.parametrize("arr", [
    np.arange(24, dtype=np.float64).reshape(2, 3, 4),
    np.linspace(-1, 1, 7, dtype=np.float32),
    np.arange(12, dtype=np.uint32).reshape(3, 4),
])
def test_round_trip(tmp_path, arr):
    path = tmp_path / "t.tns"
    write_tns(path, arr)
    back = read_tns(path)
    assert back.dtype == arr.dtype
    np.testing.assert_array_equal(back, arr)


def test_header_layout(tmp_path):
    path = tmp_path / "t.tns"
    write_tns(path, np.zeros((2, 3), dtype=np.float64))
    raw = path.read_bytes()
    assert raw[:4] == b"TNS1"
    assert raw[4] == 1          # f64 code
    assert raw[5] == 2          # ndim
    assert raw[6:14] == (2).to_bytes(8, "little")
    assert raw[14:22] == (3).to_bytes(8, "little")
    assert len(raw) == 22 + 6 * 8


def test_write_is_deterministic(tmp_path):
    arr = np.random.default_rng(0).normal(size=(4, 4))
    write_tns(tmp_path / "a.tns", arr)
    write_tns(tmp_path / "b.tns", arr)
    assert (tmp_path / "a.tns").read_bytes() == (tmp_path / "b.tns").read_bytes()


def test_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.tns"
    path.write_bytes(b"NOPE" + bytes(20))
    with pytest.raises(ValueError, match="not a TNS1"):
        read_tns(path)


def test_rejects_truncated_payload(tmp_path):
    path = tmp_path / "t.tns"
    write_tns(path, np.zeros(4, dtype=np.float64))
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValueError, match="payload"):
        read_tns(path)


def test_file_shrunk_after_the_size_check_fails_by_name(tmp_path, monkeypatch):
    # the size check reads the file's size once; a file that loses its last
    # element after that check reaches the read short. os.fstat reports the
    # size the file had before it shrank.
    path = tmp_path / "t.tns"
    write_tns(path, np.zeros(4, dtype=np.float64))
    path.write_bytes(path.read_bytes()[:-8])
    real_fstat = os.fstat
    monkeypatch.setattr(os, "fstat",
                        lambda fd: SimpleNamespace(st_size=real_fstat(fd).st_size + 8))
    with pytest.raises(ValueError, match=r"t.tns: payload shorter than its extents \(4,\)"):
        read_tns_sha256(path)


@pytest.mark.parametrize("extents, payload",
                         [((4,), 5), ((2 ** 40,), 4), ((2 ** 32, 2 ** 32), 0)])
def test_payload_size_is_checked_before_any_allocation(tmp_path, extents, payload):
    # a longer payload than the extents, extents of 8 TiB over 32 bytes, and an
    # empty payload under extents whose product wraps to 0 in int64: none may
    # allocate its array
    import struct
    path = tmp_path / "t.tns"
    header = b"TNS1" + bytes([1, len(extents)]) + struct.pack(f"<{len(extents)}Q", *extents)
    path.write_bytes(header + np.zeros(payload).tobytes())
    with pytest.raises(ValueError, match=f"payload size {8 * payload} does not match"):
        read_tns(path)


def test_rejects_unsupported_dtype(tmp_path):
    with pytest.raises(ValueError, match="unsupported"):
        write_tns(tmp_path / "t.tns", np.zeros(3, dtype=np.int64))


def test_rejects_non_finite_payload(tmp_path):
    path = tmp_path / "t.tns"
    arr = np.array([1.0, np.nan])
    # write the raw bytes directly; write/read of inputs must reject them
    import struct
    header = b"TNS1" + bytes([1, 1]) + struct.pack("<Q", 2)
    path.write_bytes(header + arr.astype("<f8").tobytes())
    with pytest.raises(ValueError, match="non-finite"):
        read_tns(path)
    with pytest.raises(ValueError, match="non-finite"):
        scan_tns(path)


@pytest.mark.parametrize("count", [0, (2 * (1 << 20) + 24) // 8])
def test_scan_and_reads_hash_every_byte(tmp_path, count):
    # an empty payload, and one whose file spans three 1 MiB scan chunks, the
    # last partial: every writer and reader reports the file's own sha256
    import hashlib
    path = tmp_path / "t.tns"
    arr = np.random.default_rng(count).normal(size=count)
    written = write_tns(path, arr)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    back, read_digest = read_tns_sha256(path)
    assert written == scan_tns(path) == read_digest == digest
    assert back.tobytes() == arr.tobytes()


def test_scan_checks_every_chunk_for_non_finite_values(tmp_path):
    # the NaN sits in the third 1 MiB chunk
    path = tmp_path / "t.tns"
    arr = np.zeros(3 << 17)
    arr[-1] = np.nan
    import struct
    header = b"TNS1" + bytes([1, 1]) + struct.pack("<Q", arr.size)
    path.write_bytes(header + arr.astype("<f8").tobytes())
    with pytest.raises(ValueError, match="non-finite"):
        scan_tns(path)


def test_scan_checks_the_header_as_read_does(tmp_path):
    path = tmp_path / "t.tns"
    write_tns(path, np.zeros(4))
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValueError, match="payload size 24 does not match"):
        scan_tns(path)
    path.write_bytes(b"NOPE" + bytes(20))
    with pytest.raises(ValueError, match="not a TNS1"):
        scan_tns(path)


def test_block_writer_writes_what_one_write_does(tmp_path):
    # blocks of any shape, whose elements in turn fill the extents, give the
    # bytes of one write_tns call
    arr = np.random.default_rng(3).uniform(size=(5, 4, 3))
    whole = write_tns(tmp_path / "a.tns", arr)
    blocks = write_tns_blocks(tmp_path / "b.tns", arr.shape, arr.dtype,
                              (arr[i] for i in range(5)))
    assert (tmp_path / "a.tns").read_bytes() == (tmp_path / "b.tns").read_bytes()
    assert blocks == whole


@pytest.mark.parametrize("rows", [4, 6])
def test_block_writer_refuses_blocks_that_miss_the_extents(tmp_path, rows):
    arr = np.zeros((rows, 3), dtype=np.float32)
    with pytest.raises(ValueError, match=f"blocks hold {rows * 12} payload bytes"):
        write_tns_blocks(tmp_path / "t.tns", (5, 3), np.float32, iter(arr))


_FINITE = {
    np.dtype("float32"): st.floats(allow_nan=False, allow_infinity=False, width=32),
    np.dtype("float64"): st.floats(allow_nan=False, allow_infinity=False),
    np.dtype("uint32"): st.integers(0, 2**32 - 1),
}


@st.composite
def _tensors(draw):
    dtype = draw(st.sampled_from(list(_FINITE)))
    shape = draw(hnp.array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=3))
    return draw(hnp.arrays(dtype, shape, elements=_FINITE[dtype]))


@pytest.fixture(scope="module")
def scratch_file(tmp_path_factory):
    return tmp_path_factory.mktemp("tns") / "t.tns"


@settings(max_examples=150)
@given(arr=_tensors())
def test_round_trip_is_bitwise(scratch_file, arr):
    write_tns(scratch_file, arr)
    back = read_tns(scratch_file)
    assert (back.dtype, back.shape) == (arr.dtype, arr.shape)
    assert back.tobytes() == arr.tobytes()
