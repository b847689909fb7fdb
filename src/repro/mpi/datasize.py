"""Wire-size estimation for simulated message payloads.

The timing model needs a byte count for every payload.  Numpy arrays
report exactly; containers are summed recursively; everything else gets
a conservative flat estimate (the simulated layer's analogue of pickle
overhead).
"""

from __future__ import annotations

from typing import Any

import numpy as np

__all__ = ["nbytes_of"]

_SCALAR_BYTES = 8
_CONTAINER_OVERHEAD = 16
_MISSING = object()


def nbytes_of(obj: Any) -> float:
    """Estimated wire bytes of *obj*."""
    if obj is None:
        return 0.0
    if isinstance(obj, (np.ndarray, memoryview)):
        return float(obj.nbytes)
    if isinstance(obj, (bool, int, float, complex, np.generic)):
        return float(_SCALAR_BYTES)
    if isinstance(obj, (list, tuple, set, frozenset)):
        return _CONTAINER_OVERHEAD + sum(map(nbytes_of, obj))
    if isinstance(obj, (bytes, bytearray)):
        return float(len(obj))
    if isinstance(obj, str):
        return float(len(obj.encode("utf-8")))
    if isinstance(obj, dict):
        return _CONTAINER_OVERHEAD + sum(
            nbytes_of(k) + nbytes_of(v) for k, v in obj.items()
        )
    nbytes = getattr(obj, "nbytes", _MISSING)  # a property runs once
    if nbytes is not _MISSING:
        try:
            return float(nbytes)
        except TypeError:
            return float(nbytes())
    if hasattr(obj, "__dict__"):
        return _CONTAINER_OVERHEAD + sum(map(nbytes_of, vars(obj).values()))
    return float(_SCALAR_BYTES)
