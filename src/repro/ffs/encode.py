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
"""

from __future__ import annotations

import json
from math import prod
from typing import Any, Optional, Union

import numpy as np

from repro.ffs.schema import Schema, SchemaError

__all__ = ["encode", "decode", "peek"]

MAGIC = b"FFS1"
_ALIGN = 8
#: header entries that must be JSON objects when present
_HEADER_OBJECTS = ("schema", "shapes", "scalars", "attrs")

Buffer = Union[bytes, bytearray, memoryview]


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
    schema.validate(values)
    shapes: dict[str, list[int]] = {}
    scalars: dict[str, Any] = {}
    arrays: list[tuple[str, np.ndarray]] = []
    for f in schema.fields:
        v = values[f.name]
        if f.is_scalar:
            arr = np.asarray(v, dtype=np.dtype(f.dtype))
            if arr.shape != ():
                raise SchemaError(f"field {f.name!r} expects a scalar")
            scalars[f.name] = arr.item()
        else:
            arr = _wire_array(v, np.dtype(f.dtype))
            shapes[f.name] = list(f.resolve_shape(arr))
            arrays.append((f.name, arr))
    header = {
        "schema": schema.to_dict(),
        "shapes": shapes,
        "scalars": _jsonify_scalars(scalars),
        "attrs": attrs or {},
    }
    hbytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    offset = 0
    placements = []
    for _name, arr in arrays:
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


def _parse_header(buf: Buffer) -> tuple[dict, Schema, int]:
    """The header, its schema and where the payload starts.

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
        schema = Schema.from_dict(header["schema"])
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad schema in FFS header: {exc!r}") from None
    return header, schema, 8 + hlen


def peek(buf: Buffer) -> dict:
    """Return metadata (schema dict, shapes, scalars, attrs) only.

    Does not touch the array payload — O(header) work regardless of
    chunk size, which is what lets staging nodes route and schedule
    chunks before paying to process them.
    """
    header, _, _ = _parse_header(buf)
    header = dict(header)
    header["scalars"] = {
        k: _unjsonify_scalar(v) for k, v in header.get("scalars", {}).items()
    }
    return header


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
    header, schema, payload_base = _parse_header(buf)
    shapes = header["shapes"]
    values: dict[str, Any] = {
        k: _unjsonify_scalar(v) for k, v in header.get("scalars", {}).items()
    }
    offset = 0
    for f in schema.fields:
        if f.is_scalar:
            continue
        shape = _checked_shape(f, shapes.get(f.name))
        dt = np.dtype(f.dtype)
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
    return schema, values, header.get("attrs", {})


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
