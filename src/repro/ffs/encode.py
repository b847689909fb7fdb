"""Binary encode/decode of schema'd records.

Wire layout of a packed buffer::

    bytes 0..3    magic b"FFS1"
    bytes 4..7    header length H (little-endian uint32)
    bytes 8..8+H  header: UTF-8 JSON
                  {"schema": {...}, "shapes": {field: [..]},
                   "attrs": {...}}
    then          per-array-field payload, in schema order, each
                  aligned to 8 bytes from the start of the payload
                  section; scalars live in the header ("scalars").

Packing is zero-copy on the array side: each field is written straight
from the source array's buffer into the destination through
``memoryview`` slices — no intermediate ``tobytes()`` materialisation.
Arrays that are not C-contiguous (Fortran order, negative or gapped
strides) are copy-normalised first; packing their raw buffers would
serialise garbage strides.

:func:`encode` makes one exact-size uninitialised allocation, writes
every byte of it (gaps and the trailing pad are zeroed) with one copy
of each array, and returns it as a read-only ``memoryview`` that owns
the buffer: the bytes live as long as the view or any array decoded
from it.

Decoding is zero-copy for arrays (``np.frombuffer`` views over the
original buffer, ``bytes``/``bytearray``/``memoryview`` alike);
callers that need writable arrays copy explicitly.

A record's format is described once, as in FFS: each schema is compiled
once into its header JSON text and field dtypes, held in a bounded cache
keyed by the :class:`Schema`, and :func:`encode` splices that text into
each header; the bytes are exactly ``json.dumps`` of the whole header.
:func:`decode` finds the compiled format of a header's schema through a
bounded cache keyed by the schema's JSON text; a miss builds and
validates the schema as if nothing were cached, and every record's
extents and sizes are checked whatever the cache holds.
"""

from __future__ import annotations

import json
from functools import lru_cache
from math import prod
from typing import Any, NamedTuple, Optional, Union

import numpy as np

from repro.ffs.schema import Field, Schema, SchemaError

__all__ = ["encode", "decode"]

MAGIC = b"FFS1"
_ALIGN = 8
#: header entries that must be JSON objects when present
_HEADER_OBJECTS = ("schema", "shapes", "scalars", "attrs")

#: distinct schemas each format cache remembers
_FORMATS = 64

Buffer = Union[bytes, bytearray, memoryview]

#: every header's JSON: ``json.dumps`` with compact separators
_json = json.JSONEncoder(separators=(",", ":")).encode


class _Format(NamedTuple):
    """A schema compiled once: what packing and unpacking read per record."""

    schema: Schema
    #: the schema's JSON in a header
    text: str
    #: each field with its numpy dtype, in schema order
    fields: tuple[tuple[Field, np.dtype], ...]


def _compile(schema: Schema) -> _Format:
    return _Format(
        schema,
        _json(schema.to_dict()),
        tuple((f, np.dtype(f.dtype)) for f in schema.fields),
    )


#: the format :func:`encode` packs a schema with
_format = lru_cache(maxsize=_FORMATS)(_compile)


@lru_cache(maxsize=_FORMATS)
def _decoded_format(text: str) -> _Format:
    """The format of a header's schema, given as its JSON *text*."""
    return _compile(Schema.from_dict(json.loads(text)))


def _align(n: int) -> int:
    return (n + _ALIGN - 1) // _ALIGN * _ALIGN


def _wire_array(v: Any, dtype: np.dtype) -> np.ndarray:
    """Array as it goes on the wire: requested dtype, C-contiguous.

    Non-C-contiguous inputs (Fortran order, sliced/negative strides)
    are copy-normalised here — packing their underlying buffers
    verbatim would emit stride garbage that decodes to wrong values.
    """
    arr = np.asarray(v, dtype=dtype)
    if not arr.flags.c_contiguous:
        arr = np.ascontiguousarray(arr)
    return arr


def _prepare(
    schema: Schema, values: dict, attrs: Optional[dict]
) -> tuple[bytes, list[tuple[int, np.ndarray]], int]:
    """Validate and lay out one record.

    Returns ``(header_bytes, [(payload_offset, array), ...], total)``
    where *total* is the full packed size in bytes.
    """
    fmt = _format(schema)
    schema.validate(values)
    shapes: dict[str, list[int]] = {}
    scalars: dict[str, Any] = {}
    arrays: list[np.ndarray] = []
    for f, dtype in fmt.fields:
        v = values[f.name]
        if f.is_scalar:
            arr = np.asarray(v, dtype=dtype)
            if arr.shape != ():
                raise SchemaError(f"field {f.name!r} expects a scalar")
            scalars[f.name] = arr.item()
        else:
            arr = _wire_array(v, dtype)
            shapes[f.name] = list(f.resolve_shape(arr))
            arrays.append(arr)
    # json.dumps of {"schema", "shapes", "scalars", "attrs"}, the schema
    # part compiled once
    hbytes = (
        '{"schema":' + fmt.text
        + ',"shapes":' + _json(shapes)
        + ',"scalars":' + _json(_jsonify_scalars(scalars))
        + ',"attrs":' + _json(attrs or {}) + "}"
    ).encode("utf-8")
    offset = 0
    placements = []
    for arr in arrays:
        offset = _align(offset)
        placements.append((offset, arr))
        offset += arr.nbytes
    total = 8 + len(hbytes) + _align(offset)
    return hbytes, placements, total


def encode(schema: Schema, values: dict, attrs: Optional[dict] = None) -> memoryview:
    """Pack *values* (field name -> scalar / ndarray) into one record.

    ``attrs`` is a small JSON-serialisable metadata dict carried in the
    header — PreDatA uses it for things like the producing rank, the
    I/O step number, and global-array offsets.  Returns a read-only
    view that owns its exact-size buffer.  The buffer is allocated
    uninitialised, so every byte is written here: alignment gaps and
    the trailing pad are zeroed.
    """
    hbytes, placements, total = _prepare(schema, values, attrs)
    out = memoryview(np.empty(total, dtype=np.uint8))
    out[0:4] = MAGIC
    out[4:8] = len(hbytes).to_bytes(4, "little")
    out[8 : 8 + len(hbytes)] = hbytes
    payload_base = cursor = 8 + len(hbytes)
    for pos, arr in placements:
        start = payload_base + pos
        if start > cursor:  # alignment gap
            out[cursor:start] = bytes(start - cursor)
        if arr.nbytes:
            out[start : start + arr.nbytes] = memoryview(arr).cast("B")
        cursor = start + arr.nbytes
    if total > cursor:  # trailing pad
        out[cursor:total] = bytes(total - cursor)
    return out.toreadonly()


def _jsonify_scalars(scalars: dict) -> dict:
    """JSON-safe scalar representation (complex -> [re, im])."""
    out = {}
    for k, v in scalars.items():
        if isinstance(v, complex):
            out[k] = {"__complex__": [v.real, v.imag]}
        elif isinstance(v, float) and not np.isfinite(v):
            out[k] = {"__float__": repr(v)}
        else:
            out[k] = v
    return out


def _unjsonify_scalar(v: Any) -> Any:
    if isinstance(v, dict):
        if "__complex__" in v:
            re, im = v["__complex__"]
            return complex(re, im)
        if "__float__" in v:
            return float(v["__float__"])
    return v


def _parse_header(buf: Buffer) -> tuple[dict, _Format, int]:
    """The header, its schema's format and where the payload starts.

    A header that is not UTF-8 JSON, not an object, lacks ``schema`` or
    ``shapes``, holds a non-object where one belongs, or carries a schema
    that does not build is a :class:`SchemaError`.
    """
    if len(buf) < 8 or bytes(buf[0:4]) != MAGIC:
        raise SchemaError("not an FFS buffer (bad magic)")
    hlen = int.from_bytes(bytes(buf[4:8]), "little")
    if 8 + hlen > len(buf):
        raise SchemaError("truncated FFS buffer header")
    try:
        header = json.loads(bytes(buf[8 : 8 + hlen]).decode("utf-8"))
    except ValueError as exc:  # bad UTF-8 or bad JSON
        raise SchemaError(f"unreadable FFS header: {exc}") from None
    if not (
        isinstance(header, dict)
        and "schema" in header
        and "shapes" in header
        and all(isinstance(header.get(k, {}), dict) for k in _HEADER_OBJECTS)
    ):
        raise SchemaError("FFS header must be an object with 'schema' and 'shapes'")
    try:
        fmt = _decoded_format(_json(header["schema"]))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad schema in FFS header: {exc!r}") from None
    return header, fmt, 8 + hlen


def decode(buf: Buffer) -> tuple[Schema, dict, dict]:
    """Unpack an FFS buffer (``bytes``, ``bytearray`` or ``memoryview``).

    Returns ``(schema, values, attrs)``.  Array values are read-only
    views into *buf* (zero copy), whatever the buffer's own mutability.

    *buf* must hold exactly one record, as :func:`encode` lays it out:
    an extent that is not a non-negative integer or contradicts the
    schema, a field running past the buffer, or bytes left over past
    the trailing pad raise :class:`SchemaError` before any array is
    made.
    """
    header, fmt, payload_base = _parse_header(buf)
    shapes = header["shapes"]
    values: dict[str, Any] = {
        k: _unjsonify_scalar(v) for k, v in header.get("scalars", {}).items()
    }
    offset = 0
    for f, dt in fmt.fields:
        if f.is_scalar:
            continue
        shape = _checked_shape(f, shapes.get(f.name))
        count = prod(shape)
        offset = _align(offset)
        start = payload_base + offset
        if start + count * dt.itemsize > len(buf):
            raise SchemaError(f"field {f.name!r} runs past the FFS buffer")
        arr = np.frombuffer(buf, dtype=dt, count=count, offset=start)
        if arr.flags.writeable:
            arr.flags.writeable = False
        values[f.name] = arr.reshape(shape)
        offset += count * dt.itemsize
    if payload_base + _align(offset) != len(buf):
        raise SchemaError(
            f"FFS buffer holds {len(buf)} bytes, its header describes "
            f"{payload_base + _align(offset)}"
        )
    return fmt.schema, values, header.get("attrs", {})


def _checked_shape(f, shape: Any) -> tuple[int, ...]:
    """The header's extents of array field *f*, validated against it."""
    if (
        not isinstance(shape, list)
        or len(shape) != len(f.shape)
        or not all(type(n) is int and n >= 0 for n in shape)
        or any(d not in (-1, n) for d, n in zip(f.shape, shape))
    ):
        raise SchemaError(f"field {f.name!r}: bad extents {shape!r} in header")
    return tuple(shape)
