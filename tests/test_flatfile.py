import numpy as np
import pytest

from distill_lab.errors import MismatchError
from distill_lab.flatfile import header_field, read_flat_file, write_flat_file


def test_round_trip(tmp_path):
    path = tmp_path / "blob.bin"
    payload = np.linspace(-1, 1, 17)
    write_flat_file(path, "checkpoint", {"arch": "3,4,2", "T": "10"}, payload)
    kind, header, loaded = read_flat_file(path)
    assert kind == "checkpoint"
    assert header == {"arch": "3,4,2", "T": "10"}
    assert np.array_equal(loaded, payload)


def test_round_trip_keeps_payload_bytes(tmp_path):
    # NaNs (with payload bits), signed zeros, infinities and subnormals come
    # back with the bytes that went in
    special = np.array([np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf, 5e-324, -2.5e-310,
                        np.finfo(float).max, np.finfo(float).tiny])
    quiet_nan_bits = np.array([0x7FF8000000000001, 0xFFF8DEADBEEF0000], dtype=np.uint64)
    special = np.concatenate([special, quiet_nan_bits.view(np.float64)])
    rng = np.random.default_rng(3)
    path = tmp_path / "blob.bin"
    for _ in range(50):
        n = int(rng.integers(0, 40))
        payload = np.where(rng.random(n) < 0.5, rng.choice(special, size=n),
                           rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, size=n))
        write_flat_file(path, "x", {"k": "v"}, payload)
        _, _, loaded = read_flat_file(path)
        assert loaded.tobytes() == payload.astype("<f8").tobytes()


def test_payload_is_little_endian_float64(tmp_path):
    path = tmp_path / "blob.bin"
    payload = np.array([1.5, -2.25])
    write_flat_file(path, "x", {}, payload)
    raw = path.read_bytes()
    assert raw.endswith(payload.astype("<f8").tobytes())


def test_missing_separator_rejected(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"distill-lab checkpoint v1\narch = 1,2\n")
    with pytest.raises(MismatchError):
        read_flat_file(path)


def test_bad_signature_rejected(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"some other format\n---\n")
    with pytest.raises(MismatchError):
        read_flat_file(path)


def test_malformed_header_line_rejected(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"distill-lab x v1\nnot_a_pair\npayload_count = 0\n---\n")
    with pytest.raises(MismatchError):
        read_flat_file(path)


def test_count_mismatch_rejected(tmp_path):
    path = tmp_path / "bad.bin"
    write_flat_file(path, "x", {}, np.zeros(4))
    raw = path.read_bytes()
    path.write_bytes(raw + b"\x00" * 8)
    with pytest.raises(MismatchError):
        read_flat_file(path)


@pytest.mark.parametrize(
    "raw",
    [
        b"distill-lab x v1\nk\xe9y = 1\npayload_count = 0\n---\n",
        b"distill-lab x v1\npayload_count = many\n---\n",
        b"distill-lab x v1\nkey = 1\n---\n",
        b"---\n",
        b"distill-lab x v1\npayload_count = 1\n---\n" + b"\x00" * 7,
    ],
    ids=["non-ascii", "non-integer-count", "missing-count", "empty-header", "partial-float"],
)
def test_malformed_file_rejected(tmp_path, raw):
    path = tmp_path / "bad.bin"
    path.write_bytes(raw)
    with pytest.raises(MismatchError):
        read_flat_file(path)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(MismatchError):
        read_flat_file(tmp_path / "absent.bin")


def test_header_field_parses_or_rejects():
    header = {"T": "1000", "omega": "7.5", "name": "x"}
    assert header_field("f", header, "T") == 1000
    assert header_field("f", header, "omega", float) == 7.5
    with pytest.raises(MismatchError, match="name"):
        header_field("f", header, "name")
    with pytest.raises(MismatchError, match="S"):
        header_field("f", header, "S")
