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
once into its header JSON text, field dtypes and extent rules, held in a
bounded cache keyed by the :class:`Schema`, and :func:`encode` splices
that text into each header; the bytes are exactly ``json.dumps`` of the
whole header.  :func:`decode` finds the format from the header's bytes:
a header that begins ``{"schema":`` + the text of a schema it has
compiled before + ``,"shapes":`` parses only what follows that text.
Any other header — an unknown or differently spaced schema text, or a
rest that is not JSON or repeats ``"schema"`` — is parsed whole, and its
schema, re-serialised, keys a bounded cache of compiled formats; a miss
builds and validates the schema as if nothing were cached.  Every
record's extents are checked against the compiled format, and its sizes
against the buffer, whatever the cache holds.
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
#: the one type a header's extents may have (a bool is no extent)
_INT = {int}
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
    #: each field with its numpy dtype and, for an array, its fixed
    #: ``(axis, extent)`` pairs (None for a scalar), in schema order
    fields: tuple[tuple[Field, np.dtype, Optional[tuple[tuple[int, int], ...]]], ...]
    #: each array field's name, dtype, rank and fixed pairs, in schema
    #: order: what a header's extents are checked against
    arrays: tuple[tuple[str, np.dtype, int, tuple[tuple[int, int], ...]], ...]


def _compile(schema: Schema) -> _Format:
    fields = tuple(
        (f, np.dtype(f.dtype),
         None if f.is_scalar else tuple((i, d) for i, d in enumerate(f.shape) if d != -1))
        for f in schema.fields
    )
    return _Format(
        schema,
        _json(schema.to_dict()),
        fields,
        tuple((f.name, dt, len(f.shape), fixed) for f, dt, fixed in fields if fixed is not None),
    )


#: the format :func:`encode` packs a schema with
_format = lru_cache(maxsize=_FORMATS)(_compile)

#: the formats :func:`decode` has compiled, keyed by their schema's text
_DECODED: dict[str, _Format] = {}
_HEAD = '{"schema":'
_SHAPES = ',"shapes":'


def _decoded_format(text: str) -> _Format:
    """The format of a header's schema, given as its canonical JSON *text*:
    compiled on first sight, then found by the text alone."""
    fmt = _DECODED.get(text)
    if fmt is None:
        fmt = _compile(Schema.from_dict(json.loads(text)))
        if len(_DECODED) >= _FORMATS:
            del _DECODED[next(iter(_DECODED))]  # the oldest
        _DECODED[text] = fmt
    return fmt


def _known_header(text: str) -> Optional[tuple[dict, _Format]]:
    """The rest of a header that begins with a compiled schema's text.

    ``{"schema":`` + a text in :data:`_DECODED` + ``,"shapes":`` ...: the
    schema member is that format and only the members after it are
    parsed.  None — decode the whole header — when the text is unknown,
    the rest is not JSON, or the rest holds another ``"schema"`` member
    (``json.loads`` would keep that last one).
    """
    end = text.find(_SHAPES, len(_HEAD))
    if end < 0 or not text.startswith(_HEAD):
        return None
    fmt = _DECODED.get(text[len(_HEAD):end])
    if fmt is None:
        return None
    try:
        rest = json.loads("{" + text[end + 1:])
    except ValueError:
        return None
    return None if "schema" in rest else (rest, fmt)


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
    for f, dtype, fixed in fmt.fields:
        v = values[f.name]
        if fixed is None:
            arr = np.asarray(v, dtype=dtype)
            if arr.shape != ():
                raise SchemaError(f"field {f.name!r} expects a scalar")
            scalars[f.name] = arr.item()
        else:
            arr = _wire_array(v, dtype)
            shape = arr.shape
            if len(shape) != len(f.shape) or fixed and any(shape[i] != d for i, d in fixed):
                shape = f.resolve_shape(arr)  # raises what does not match
            shapes[f.name] = list(shape)
            arrays.append(arr)
    # json.dumps of {"schema", "shapes", "scalars", "attrs"}, the schema
    # part compiled once and spliced in front of the rest
    rest = _json({"shapes": shapes, "scalars": _jsonify_scalars(scalars), "attrs": attrs or {}})
    hbytes = ('{"schema":' + fmt.text + "," + rest[1:]).encode("utf-8")
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
        text = bytes(buf[8 : 8 + hlen]).decode("utf-8")
        known = _known_header(text)
        header = json.loads(text) if known is None else known[0]
    except ValueError as exc:  # bad UTF-8 or bad JSON
        raise SchemaError(f"unreadable FFS header: {exc}") from None
    if not (
        isinstance(header, dict)
        and ("schema" in header or known is not None)
        and "shapes" in header
        and all(isinstance(header.get(k, {}), dict) for k in _HEADER_OBJECTS)
    ):
        raise SchemaError("FFS header must be an object with 'schema' and 'shapes'")
    if known is not None:
        return header, known[1], 8 + hlen
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
    for name, dt, ndim, fixed in fmt.arrays:
        shape = shapes.get(name)
        if not (
            type(shape) is list
            and len(shape) == ndim
            and {*map(type, shape)} <= _INT
            and (not shape or min(shape) >= 0)
            and not (fixed and any(shape[i] != d for i, d in fixed))
        ):
            raise SchemaError(f"field {name!r}: bad extents {shape!r} in header")
        count = prod(shape)
        offset = _align(offset)
        start = payload_base + offset
        if start + count * dt.itemsize > len(buf):
            raise SchemaError(f"field {name!r} runs past the FFS buffer")
        arr = np.frombuffer(buf, dtype=dt, count=count, offset=start)
        if arr.flags.writeable:
            arr.flags.writeable = False
        values[name] = arr.reshape(shape)
        offset += count * dt.itemsize
    if payload_base + _align(offset) != len(buf):
        raise SchemaError(
            f"FFS buffer holds {len(buf)} bytes, its header describes "
            f"{payload_base + _align(offset)}"
        )
    return fmt.schema, values, header.get("attrs", {})
