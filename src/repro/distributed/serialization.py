"""Protobuf-style wire format for feature records.

Sec. 8 stores reference feature matrices in Redis "serialized with
Google's protobuf".  Without protobuf available offline we implement
the same wire discipline from scratch: varint-encoded tags, two wire
types (varint and length-delimited), forward-compatible unknown-field
skipping, and a fixed schema for :class:`FeatureRecord`::

    field 1  varint  schema version
    field 2  bytes   reference id (utf-8)
    field 3  varint  d (descriptor dimension)
    field 4  varint  m (feature count)
    field 5  bytes   precision ("fp16"/"fp32")
    field 6  bytes   scale factor (little-endian float64)
    field 7  bytes   feature matrix, row-major (d, m), native dtype LE
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from ..errors import SerializationError

__all__ = [
    "encode_varint",
    "decode_varint",
    "FeatureRecord",
    "serialize_record",
    "deserialize_record",
    "serialize_descriptors",
    "deserialize_descriptors",
]

SCHEMA_VERSION = 1
_WIRE_VARINT = 0
_WIRE_BYTES = 2
_DTYPES = {"fp16": np.dtype("<f2"), "fp32": np.dtype("<f4")}


def encode_varint(value: int) -> bytes:
    """LEB128 unsigned varint."""
    if value < 0:
        raise SerializationError("varints must be non-negative")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_varint(data: bytes, offset: int = 0) -> tuple[int, int]:
    """Returns ``(value, next_offset)``."""
    result = 0
    shift = 0
    pos = offset
    while True:
        if pos >= len(data):
            raise SerializationError("truncated varint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 63:
            raise SerializationError("varint too long")


def _tag(field: int, wire: int) -> bytes:
    return encode_varint((field << 3) | wire)


def _varint_field(field: int, value: int) -> bytes:
    return _tag(field, _WIRE_VARINT) + encode_varint(value)


def _bytes_field(field: int, payload: bytes) -> bytes:
    return _tag(field, _WIRE_BYTES) + encode_varint(len(payload)) + payload


def _iter_fields(data: bytes):
    pos = 0
    while pos < len(data):
        key, pos = decode_varint(data, pos)
        field, wire = key >> 3, key & 0x7
        if wire == _WIRE_VARINT:
            value, pos = decode_varint(data, pos)
            yield field, wire, value
        elif wire == _WIRE_BYTES:
            length, pos = decode_varint(data, pos)
            if pos + length > len(data):
                raise SerializationError(f"truncated bytes field {field}")
            yield field, wire, data[pos : pos + length]
            pos += length
        else:
            raise SerializationError(f"unsupported wire type {wire} for field {field}")


@dataclass(frozen=True)
class FeatureRecord:
    """One reference image's cached representation, as stored in Redis."""

    ref_id: str
    matrix: np.ndarray  # (d, m)
    precision: str
    scale: float

    def __post_init__(self) -> None:
        if self.matrix.ndim != 2:
            raise SerializationError(f"matrix must be 2-D, got {self.matrix.shape}")
        if self.precision not in _DTYPES:
            raise SerializationError(f"unknown precision {self.precision!r}")

    @property
    def d(self) -> int:
        return self.matrix.shape[0]

    @property
    def m(self) -> int:
        return self.matrix.shape[1]


def serialize_record(record: FeatureRecord) -> bytes:
    dtype = _DTYPES[record.precision]
    matrix = np.ascontiguousarray(record.matrix, dtype=dtype)
    return b"".join(
        [
            _varint_field(1, SCHEMA_VERSION),
            _bytes_field(2, record.ref_id.encode("utf-8")),
            _varint_field(3, record.d),
            _varint_field(4, record.m),
            _bytes_field(5, record.precision.encode("ascii")),
            _bytes_field(6, struct.pack("<d", float(record.scale))),
            _bytes_field(7, matrix.tobytes()),
        ]
    )


#: the wire type each known field must arrive with
_FIELD_WIRES = {1: _WIRE_VARINT, 2: _WIRE_BYTES, 3: _WIRE_VARINT, 4: _WIRE_VARINT,
                5: _WIRE_BYTES, 6: _WIRE_BYTES, 7: _WIRE_BYTES}


def deserialize_record(data: bytes) -> FeatureRecord:
    """Decode :func:`serialize_record`'s bytes; anything malformed —
    truncation, a known field of the wrong wire type, text that is not
    its encoding, a payload whose length disagrees with ``(d, m)`` —
    raises :class:`SerializationError`."""
    fields: dict[int, object] = {}
    for field, wire, value in _iter_fields(data):
        # Unknown fields are skipped (forward compatibility).
        if field in _FIELD_WIRES:
            if wire != _FIELD_WIRES[field]:
                raise SerializationError(f"field {field} has wire type {wire}")
            fields[field] = value
    for required in (2, 3, 4, 5, 7):
        if required not in fields:
            raise SerializationError(f"missing required field {required}")
    version = int(fields.get(1, 0))
    if version > SCHEMA_VERSION:
        raise SerializationError(f"unsupported schema version {version}")
    try:
        precision = bytes(fields[5]).decode("ascii")
        ref_id = bytes(fields[2]).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SerializationError(f"undecodable text field: {exc}") from exc
    if precision not in _DTYPES:
        raise SerializationError(f"unknown precision {precision!r}")
    if 6 in fields and len(fields[6]) != 8:
        raise SerializationError(f"scale is {len(fields[6])} B, expected 8")
    d = int(fields[3])
    m = int(fields[4])
    raw = bytes(fields[7])
    dtype = _DTYPES[precision]
    expected = d * m * dtype.itemsize
    if len(raw) != expected:
        raise SerializationError(
            f"matrix payload is {len(raw)} B, expected {expected} B for ({d}, {m}) {precision}"
        )
    matrix = np.frombuffer(raw, dtype=dtype).reshape(d, m).copy()
    scale = struct.unpack("<d", bytes(fields[6]))[0] if 6 in fields else 1.0
    return FeatureRecord(
        ref_id=ref_id,
        matrix=matrix,
        precision=precision,
        scale=float(scale),
    )


def serialize_descriptors(descriptors) -> bytes:
    """Raw ``(d, count)`` descriptors as the web tier's clients send them
    (Sec. 8, Fig. 6): an fp32 record at scale 1.0 with an empty id."""
    with np.errstate(over="ignore"):  # a finite double past float32 becomes inf: the server's 400
        matrix = np.asarray(descriptors, dtype=np.float32)
    return serialize_record(FeatureRecord("", matrix, "fp32", 1.0))


def deserialize_descriptors(data: bytes) -> np.ndarray:
    """The ``(d, count)`` matrix :func:`serialize_descriptors` sent; a
    record that does not decode, or is not fp32 at scale 1.0, raises
    :class:`SerializationError`."""
    record = deserialize_record(data)
    if record.precision != "fp32" or record.scale != 1.0:
        raise SerializationError(
            f"descriptors travel as fp32 at scale 1.0, got {record.precision} at {record.scale}"
        )
    return record.matrix
