"""Reduction operators for simulated-MPI collectives.

Each :class:`Op` combines two values elementwise; values may be Python
scalars or numpy arrays.  :data:`SUM` is the one operator the paper's
programs reduce with.
"""

from __future__ import annotations

import operator
from functools import reduce
from typing import Any, Callable, Sequence

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
        return reduce(self._fn, values)

    def __repr__(self) -> str:
        return f"Op({self.name})"


#: ``+``: ``np.add`` as soon as either side is an array
SUM = Op("sum", operator.add)
