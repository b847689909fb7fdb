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

Two entry points share the assembly code:

- :func:`encode` packs into a fresh buffer and returns immutable
  ``bytes`` — the safe default.
- :func:`encode_into` packs into a caller-owned :class:`PackBuffer`
  and returns a read-only ``memoryview`` *borrowing* the scratch's
  current buffer: one allocation (none, on a warm scratch) and one
  copy of each array.  The view keeps that buffer alive, so a caller
  that packs into a fresh ``PackBuffer()`` and drops it — what the
  compute-side client does — gets a payload that owns its bytes and
  is freed with its last reader.  A caller that *reuses* a scratch
  must be done with the previous view (and arrays decoded from it)
  first: a same-size repack overwrites the bytes they alias.

Decoding is zero-copy for arrays (``np.frombuffer`` views over the
original buffer, ``bytes``/``bytearray``/``memoryview`` alike);
callers that need writable arrays copy explicitly.
"""

from __future__ import annotations

import json
from typing import Any, Optional, Union

import numpy as np

from repro.ffs.schema import Schema, SchemaError

__all__ = ["PackBuffer", "encode", "encode_into", "decode", "peek"]

MAGIC = b"FFS1"
_ALIGN = 8

Buffer = Union[bytes, bytearray, memoryview]


def _align(n: int) -> int:
    return (n + _ALIGN - 1) // _ALIGN * _ALIGN


class PackBuffer:
    """Reusable scratch buffer for one-copy FFS packing.

    Grows to exactly the largest chunk it has packed so far and is then
    reused allocation-free; same-size repacks never regrow.  Growth
    swaps in a fresh *uninitialised* buffer — :func:`_assemble` writes
    every byte of a packed record, so nothing stale can leak — and
    leaves the old one to whoever still views it, so previously
    exported memoryviews stay valid against the buffer they were packed
    into.
    """

    __slots__ = ("_buf", "grows")

    def __init__(self):
        self._buf = np.empty(0, dtype=np.uint8)
        #: number of reallocations (observability for benchmarks)
        self.grows = 0

    def reserve(self, nbytes: int) -> memoryview:
        """A writable view of at least *nbytes* bytes (contents arbitrary)."""
        if self._buf.size < nbytes:
            self._buf = np.empty(nbytes, dtype=np.uint8)
            self.grows += 1
        return memoryview(self._buf)


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


def _assemble(
    out: memoryview, hbytes: bytes, placements: list[tuple[int, np.ndarray]], total: int
) -> None:
    """Write one packed record into *out* (first *total* bytes).

    Every byte in ``[0, total)`` is written — alignment gaps and the
    trailing pad are zeroed — so an uninitialised or reused scratch
    produces output byte-identical to a fresh zeroed buffer.
    """
    out[0:4] = MAGIC
    out[4:8] = len(hbytes).to_bytes(4, "little")
    out[8 : 8 + len(hbytes)] = hbytes
    payload_base = 8 + len(hbytes)
    cursor = payload_base
    for pos, arr in placements:
        start = payload_base + pos
        if start > cursor:  # alignment gap
            out[cursor:start] = bytes(start - cursor)
        if arr.nbytes:
            out[start : start + arr.nbytes] = memoryview(arr).cast("B")
        cursor = start + arr.nbytes
    if total > cursor:  # trailing pad
        out[cursor:total] = bytes(total - cursor)


def encode(schema: Schema, values: dict, attrs: Optional[dict] = None) -> bytes:
    """Pack *values* (field name -> scalar / ndarray) into one buffer.

    ``attrs`` is a small JSON-serialisable metadata dict carried in the
    header — PreDatA uses it for things like the producing rank, the
    I/O step number, and global-array offsets.
    """
    hbytes, placements, total = _prepare(schema, values, attrs)
    out = bytearray(total)
    _assemble(memoryview(out), hbytes, placements, total)
    return bytes(out)


def encode_into(
    schema: Schema,
    values: dict,
    scratch: PackBuffer,
    attrs: Optional[dict] = None,
) -> memoryview:
    """Pack into *scratch*; return a read-only view of the packed bytes.

    The view (and anything decoded from it) borrows the scratch's
    buffer and keeps it alive: the caller must not pack into the same
    :class:`PackBuffer` again until it is done with the previous chunk.
    Output bytes are identical to :func:`encode` on the same inputs.
    """
    hbytes, placements, total = _prepare(schema, values, attrs)
    out = scratch.reserve(total)
    _assemble(out, hbytes, placements, total)
    return out[:total].toreadonly()


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


def _parse_header(buf: Buffer) -> tuple[dict, int]:
    if len(buf) < 8 or bytes(buf[0:4]) != MAGIC:
        raise SchemaError("not an FFS buffer (bad magic)")
    hlen = int.from_bytes(bytes(buf[4:8]), "little")
    if 8 + hlen > len(buf):
        raise SchemaError("truncated FFS buffer header")
    header = json.loads(bytes(buf[8 : 8 + hlen]).decode("utf-8"))
    return header, 8 + hlen


def peek(buf: Buffer) -> dict:
    """Return metadata (schema dict, shapes, scalars, attrs) only.

    Does not touch the array payload — O(header) work regardless of
    chunk size, which is what lets staging nodes route and schedule
    chunks before paying to process them.
    """
    header, _ = _parse_header(buf)
    header = dict(header)
    header["scalars"] = {
        k: _unjsonify_scalar(v) for k, v in header.get("scalars", {}).items()
    }
    return header


def decode(buf: Buffer) -> tuple[Schema, dict, dict]:
    """Unpack an FFS buffer (``bytes``, ``bytearray`` or ``memoryview``).

    Returns ``(schema, values, attrs)``.  Array values are read-only
    views into *buf* (zero copy), whatever the buffer's own mutability.
    """
    header, payload_base = _parse_header(buf)
    schema = Schema.from_dict(header["schema"])
    shapes = header["shapes"]
    values: dict[str, Any] = {
        k: _unjsonify_scalar(v) for k, v in header.get("scalars", {}).items()
    }
    offset = 0
    for f in schema.fields:
        if f.is_scalar:
            continue
        shape = tuple(shapes[f.name])
        dt = np.dtype(f.dtype)
        count = int(np.prod(shape)) if shape else 1
        offset = _align(offset)
        start = payload_base + offset
        arr = np.frombuffer(buf, dtype=dt, count=count, offset=start)
        if arr.flags.writeable:
            arr.flags.writeable = False
        values[f.name] = arr.reshape(shape)
        offset += count * dt.itemsize
    return schema, values, header.get("attrs", {})
