"""FFS-style self-describing binary encoding.

Stands in for the FFS (Fast/Flexible binary data Format) facility
[Eisenhauer et al., TPDS 2002] that PreDatA uses to pack each compute
process's output into one contiguous *packed partial data chunk* with
embedded metadata (§IV.B, Stage 1b).

A :class:`~repro.ffs.schema.Schema` declares typed fields (scalars and
n-D arrays); :func:`~repro.ffs.encode.encode` packs a value dict into a
single buffer whose header carries the schema, per-field shapes and
user attributes; :func:`~repro.ffs.encode.decode` recovers everything
without any out-of-band information, and
:func:`~repro.ffs.encode.peek` reads the metadata without touching the
payload — the property PreDatA staging operators rely on to route and
schedule chunks cheaply before processing them.
"""

from repro.ffs.schema import Field, Schema, SchemaError
from repro.ffs.encode import decode, encode, peek

__all__ = [
    "Field",
    "Schema",
    "SchemaError",
    "decode",
    "encode",
    "peek",
]
