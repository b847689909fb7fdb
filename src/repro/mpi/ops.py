"""Reduction operators for simulated-MPI collectives.

Each :class:`Op` combines two values elementwise; values may be Python
scalars or numpy arrays.  :data:`SUM` is the one operator the paper's
programs reduce with.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

import numpy as np

__all__ = ["Op", "SUM"]


class Op:
    """A binary, associative, commutative reduction operator."""

    def __init__(self, name: str, fn: Callable[[Any, Any], Any]):
        self.name = name
        self._fn = fn

    def reduce_all(self, values: Sequence[Any]) -> Any:
        """Fold *values* left-to-right (order-stable for determinism)."""
        if not values:
            raise ValueError("cannot reduce an empty sequence")
        acc = values[0]
        for v in values[1:]:
            acc = self._fn(acc, v)
        return acc

    def __repr__(self) -> str:
        return f"Op({self.name})"


SUM = Op("sum", lambda a, b: np.add(a, b) if _arrayish(a, b) else a + b)


def _arrayish(a: Any, b: Any) -> bool:
    return isinstance(a, np.ndarray) or isinstance(b, np.ndarray)
