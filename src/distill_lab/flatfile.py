"""Checkpoint file layout: plain-text header + raw float64 payload.

Layout (documented byte-exactly in the README):

    line 1          "distill-lab <kind> v1"
    following lines "key = value", one per header field, ASCII
    separator       a single line "---"
    payload         count * 8 bytes of little-endian IEEE-754 float64

The header always carries ``payload_count`` so readers can validate length.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import MismatchError

__all__ = ["write_flat_file", "read_flat_file", "header_field"]

_PREFIX = "distill-lab"
_VERSION = "v1"
_SEPARATOR = b"---\n"


def write_flat_file(path, kind: str, header: dict[str, str], payload: np.ndarray) -> None:
    payload = np.ascontiguousarray(payload, dtype="<f8").ravel()
    lines = [f"{_PREFIX} {kind} {_VERSION}\n"]
    for key, value in header.items():
        lines.append(f"{key} = {value}\n")
    lines.append(f"payload_count = {payload.size}\n")
    with open(path, "wb") as fh:
        fh.write("".join(lines).encode("ascii"))
        fh.write(_SEPARATOR)
        fh.write(payload.tobytes())


def read_flat_file(path) -> tuple[str, dict[str, str], np.ndarray]:
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise MismatchError(f"{path}: cannot read ({exc.strerror})") from None
    sep = raw.find(_SEPARATOR)
    if sep < 0:
        raise MismatchError(f"{path}: missing header separator; not a flat file")
    try:
        head = raw[:sep].decode("ascii").splitlines()
    except UnicodeDecodeError as exc:
        raise MismatchError(f"{path}: header is not ASCII (byte {exc.start})") from None
    body = raw[sep + len(_SEPARATOR) :]
    first = head[0].split() if head else []
    if len(first) != 3 or first[0] != _PREFIX or first[2] != _VERSION:
        raise MismatchError(f"{path}: unrecognized flat-file signature {(head[0] if head else '')!r}")
    kind = first[1]
    header: dict[str, str] = {}
    for line in head[1:]:
        key, _, value = line.partition(" = ")
        if not _:
            raise MismatchError(f"{path}: malformed header line {line!r}")
        header[key] = value
    count = header_field(path, header, "payload_count")
    header.pop("payload_count")
    if len(body) != 8 * count:
        raise MismatchError(
            f"{path}: payload has {len(body)} bytes, header promised {count} floats"
        )
    return kind, header, np.frombuffer(body, dtype="<f8").astype(np.float64)


def header_field(path, header: dict[str, str], key: str, parse=int):
    """``parse(header[key])``; a missing key or a value ``parse`` rejects
    raises MismatchError naming the file and the key."""
    if key not in header:
        raise MismatchError(f"{path}: header has no '{key}' key")
    try:
        return parse(header[key])
    except ValueError:
        raise MismatchError(f"{path}: bad value for header key '{key}': {header[key]!r}") from None
