"""Wire-size estimation for simulated message payloads.

The timing model needs a byte count for every payload.  Numpy arrays
report exactly; containers are summed recursively; everything else gets
a conservative flat estimate (the simulated layer's analogue of pickle
overhead).

The branch a value takes depends only on its type, so it is chosen once
per type and kept in :data:`_KIND`.  Only the last branch — an
``nbytes`` attribute, else the instance ``__dict__``, else a flat
estimate — looks at the instance, since two objects of one class may
differ there.
"""

from __future__ import annotations

from typing import Any

import numpy as np

__all__ = ["nbytes_of"]

_SCALAR_BYTES = 8
_CONTAINER_OVERHEAD = 16
_MISSING = object()

# branch kinds, in the order a type is tested against them
_NONE, _ARRAY, _SCALAR, _SEQUENCE, _BYTES, _STR, _DICT, _OBJECT = range(8)

#: type -> branch kind, filled on first sight of each type
_KIND: dict[type, int] = {}


def _kind_of(cls: type) -> int:
    if cls is type(None):
        return _NONE
    if issubclass(cls, (np.ndarray, memoryview)):
        return _ARRAY
    if issubclass(cls, (bool, int, float, complex, np.generic)):
        return _SCALAR
    if issubclass(cls, (list, tuple, set, frozenset)):
        return _SEQUENCE
    if issubclass(cls, (bytes, bytearray)):
        return _BYTES
    if issubclass(cls, str):
        return _STR
    if issubclass(cls, dict):
        return _DICT
    return _OBJECT


def nbytes_of(obj: Any) -> float:
    """Estimated wire bytes of *obj*."""
    try:
        kind = _KIND[type(obj)]
    except KeyError:
        kind = _KIND[type(obj)] = _kind_of(type(obj))
    if kind == _ARRAY:
        return float(obj.nbytes)
    if kind == _SEQUENCE:
        return _CONTAINER_OVERHEAD + sum(map(nbytes_of, obj))
    if kind == _OBJECT:
        nbytes = getattr(obj, "nbytes", _MISSING)  # a property runs once
        if nbytes is not _MISSING:
            try:
                return float(nbytes)
            except TypeError:
                return float(nbytes())
        if hasattr(obj, "__dict__"):
            return _CONTAINER_OVERHEAD + sum(map(nbytes_of, vars(obj).values()))
        return float(_SCALAR_BYTES)
    if kind == _SCALAR:
        return float(_SCALAR_BYTES)
    if kind == _NONE:
        return 0.0
    if kind == _BYTES:
        return float(len(obj))
    if kind == _STR:
        return float(len(obj.encode("utf-8")))
    return _CONTAINER_OVERHEAD + sum(
        nbytes_of(k) + nbytes_of(v) for k, v in obj.items()
    )
