"""Vectorized per-rank accounting ledgers.

The hot loops of the simulation used to keep per-rank bookkeeping in
``dict[int, number]`` maps — one hash probe and one boxed number per
update, and tens of megabytes of dict overhead at the paper's
100k-rank weak-scaling regime (§V.B).  :class:`RankLedger` replaces
them with a flat numpy array indexed directly by rank: updates are
O(1) array stores, the whole-ledger read behind the scale fingerprint
is one vectorized op, and 100k ranks of float64 cost 800 KB instead of
a multi-megabyte dict.

The surface is what its callers use: ``add`` to accumulate, ``get`` to
read one rank, ``dense`` for the whole array.  Ranks are non-negative
integers (MPI ranks / node ids); the backing array grows geometrically
to the largest rank touched.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

__all__ = ["RankLedger"]


class RankLedger:
    """Dense per-rank accumulator backed by one contiguous numpy array.

    Parameters
    ----------
    dtype:
        Numpy dtype of the stored values (``float64`` for second
        counters, ``int64`` for depth/occupancy counters).
    capacity:
        Initial number of rank slots; the array doubles on demand.
    """

    __slots__ = ("_vals", "_seen")

    def __init__(self, dtype: Any = np.float64, capacity: int = 1024):
        n = max(1, int(capacity))
        self._vals = np.zeros(n, dtype=dtype)
        self._seen = np.zeros(n, dtype=bool)

    # -- growth ----------------------------------------------------------
    def _ensure(self, rank: int) -> None:
        if rank < 0:
            raise IndexError(f"RankLedger ranks are non-negative, got {rank}")
        n = self._vals.shape[0]
        if rank >= n:
            grown = max(rank + 1, 2 * n)
            vals = np.zeros(grown, dtype=self._vals.dtype)
            vals[:n] = self._vals
            seen = np.zeros(grown, dtype=bool)
            seen[:n] = self._seen
            self._vals, self._seen = vals, seen

    # -- updates ---------------------------------------------------------
    def add(self, rank: int, amount: Any) -> None:
        """Accumulate *amount* into *rank*, marking the rank present."""
        self._ensure(rank)
        self._seen[rank] = True
        self._vals[rank] += amount

    # -- reads -----------------------------------------------------------
    def get(self, rank: int, default: Any = 0) -> Any:
        """Value recorded for *rank*, or *default* if never touched."""
        if 0 <= rank < self._vals.shape[0] and self._seen[rank]:
            return self._vals[rank].item()
        return default

    def __repr__(self) -> str:
        touched = np.flatnonzero(self._seen)
        return f"RankLedger({dict(zip(touched.tolist(), self._vals[touched].tolist()))!r})"

    def dense(self, size: Optional[int] = None) -> np.ndarray:
        """Dense value array indexed by rank (zeros where untouched).

        ``size`` pads/truncates to a fixed rank count, which gives the
        weak-scaling fingerprint a stable byte layout.  Returns a copy.
        """
        n = self._vals.shape[0] if size is None else int(size)
        out = np.zeros(n, dtype=self._vals.dtype)
        m = min(n, self._vals.shape[0])
        out[:m] = np.where(self._seen[:m], self._vals[:m], 0)
        return out
